"""The strided-view max-pool kernel vs the ``pool_windows`` gather.

:func:`repro.runtime.plan.max_pool` folds the k*k shifted views of the
input with ``np.maximum`` instead of gathering windows; max is exact,
so it must equal ``pool_windows(...).max(-1)`` bitwise on every path
that runs it: the plan op (fresh and arena, alone and with a folded
successor) and the deployment-record interpreter.
"""

import numpy as np
import pytest

from repro.embedded.deploy import DeployedModel
from repro.nn import Flatten, MaxPool2d, ReLU, Sequential
from repro.runtime import InferenceSession
from repro.runtime.plan import compile_model_plan, max_pool, pool_windows
from repro.runtime.workspace import Workspace

GEOMETRIES = [
    # (kernel, stride, height, width)
    (3, 2, 9, 11),  # overlapping windows, odd sizes
    (2, 2, 7, 9),  # floor-sized output drops the last row/column
    (3, 1, 6, 5),
    (2, 3, 10, 8),  # gaps between windows
    (1, 1, 4, 3),
]


def _reference(x, kernel, stride):
    windows, out_h, out_w = pool_windows(x, kernel, stride)
    return windows.max(axis=-1).reshape(x.shape[0], x.shape[1], out_h, out_w)


def _inputs(shape, dtype, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


@pytest.mark.parametrize("kernel,stride,height,width", GEOMETRIES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_kernel_matches_window_gather(kernel, stride, height, width, dtype):
    x = _inputs((3, 4, height, width), dtype)
    out = max_pool(x, kernel, stride)
    assert out.dtype == dtype
    assert np.array_equal(out, _reference(x, kernel, stride))


@pytest.mark.parametrize("kernel,stride", [(3, 2), (2, 2)])
def test_nan_and_inf_propagate(kernel, stride):
    x = _inputs((2, 3, 9, 9), np.float64, seed=1)
    x[0, 0, 0, 0] = np.nan  # in the (0, 0) view only
    x[0, 1, 4, 4] = np.nan  # inside overlapping windows
    x[1, 2, :, :] = -np.inf  # a whole channel of -inf
    x[1, 0, 2, 3] = np.inf
    out = max_pool(x, kernel, stride)
    assert np.isnan(out).any() and np.isneginf(out).any()
    assert np.array_equal(out, _reference(x, kernel, stride), equal_nan=True)


@pytest.mark.parametrize("kernel,stride,height,width", GEOMETRIES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_plan_op_fresh_and_arena(kernel, stride, height, width, dtype):
    (op,) = compile_model_plan(Sequential(MaxPool2d(kernel, stride)))
    ws = Workspace(buckets=(1, 4))
    for batch in (1, 3, 4, 6):
        x = _inputs((batch, 4, height, width), dtype, seed=batch)
        x_before = x.copy()
        expected = _reference(x, kernel, stride)
        assert np.array_equal(op.run(x), expected)
        assert np.array_equal(op.run(x, ws), expected)
        assert np.array_equal(x, x_before)  # the input is never written


@pytest.mark.parametrize("arena", [True, False])
@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_folded_relu_and_flatten(arena, precision):
    # relu folds into the pool and runs in place on the pool's owned
    # output; flatten reshapes that same buffer.
    model = Sequential(MaxPool2d(3, 2), ReLU(), Flatten())
    session = InferenceSession.freeze(model, precision=precision, arena=arena)
    assert [op.name for op in session.ops] == ["maxpool(k=3)+relu+flatten"]
    for batch in (1, 5):
        x = _inputs((batch, 3, 9, 11), np.float64, seed=batch)
        x = x.astype(session.policy.real_dtype)
        x_before = x.copy()
        expected = np.maximum(_reference(x, 3, 2), 0.0).reshape(batch, -1)
        assert np.array_equal(session.forward(x), expected)
        assert np.array_equal(x, x_before)


def test_record_interpreter_matches():
    model = Sequential(MaxPool2d(3, 2), Flatten())
    x = _inputs((2, 3, 9, 11), np.float64)
    deployed = DeployedModel.from_model(model)
    expected = _reference(x, 3, 2).reshape(2, -1)
    assert np.array_equal(deployed.forward(x), expected)
