"""Differential tests: the plan's spectral-gather ``bc_conv`` vs im2col.

The plan builds a block-circulant conv's GEMM operand by transforming
each input pixel once and gathering the k*k windows of the spectrum
(:func:`repro.structured.block_circulant_conv_spectra`).  The oracle
here is the independent im2col front end — im2col, channel-padded
blocks, :func:`~repro.structured.block_circulant_forward_batch` — plus
the live training layer, which keeps im2col.  The gathered operand
holds the same values as the im2col operand, so the untiled paths must
match bitwise.
"""

import itertools

import numpy as np
import pytest

import repro.runtime.plan as plan_mod
from repro.fft import irfft, rfft
from repro.nn import Sequential
from repro.nn.functional import im2col
from repro.nn.layers import BlockCirculantConv2d
from repro.precision import FP32, FP64
from repro.runtime.plan import compile_model_plan
from repro.runtime.workspace import Workspace
from repro.structured import (
    block_circulant_conv_spectra,
    block_circulant_forward_batch,
)

IN_C, OUT_C, BLOCK = 5, 6, 2  # in_channels not a multiple of the block
HEIGHT, WIDTH = 9, 7
BATCHES = (1, 3, 16, 37)  # cross buckets; 37 > the (1, 4, 16) max below
POLICIES = {"fp64": FP64, "fp32": FP32}

GEOMETRIES = [
    (kernel, stride, padding)
    for kernel, stride, padding in itertools.product(
        (1, 2, 3, 5), (1, 2, 3), (0, 1, 2)
    )
]


def _layer(kernel, stride, padding):
    return BlockCirculantConv2d(
        IN_C, OUT_C, kernel, block_size=BLOCK, stride=stride,
        padding=padding, rng=np.random.default_rng(7),
    )


def _im2col_blocks(layer, x):
    """Channel-padded im2col blocks ``(batch*positions, q, b)``."""
    k, b = layer.kernel_size, layer.block_size
    batch = x.shape[0]
    cols = im2col(x, k, layer.stride, layer.padding)
    positions = cols.shape[1]
    by_pos = cols.reshape(batch, positions, IN_C, k * k).transpose(0, 1, 3, 2)
    padded = np.zeros(
        (batch, positions, k * k, layer.channel_blocks * b), dtype=x.dtype
    )
    padded[..., :IN_C] = by_pos
    return padded.reshape(batch * positions, -1, b)


def _to_nchw(out_blocks, layer, x):
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    batch, _, height, width = x.shape
    out_h = (height + 2 * p - k) // s + 1
    out_w = (width + 2 * p - k) // s + 1
    out = out_blocks.reshape(out_blocks.shape[0], -1)[:, :OUT_C]
    out = out.reshape(batch, out_h * out_w, OUT_C).transpose(0, 2, 1)
    return out.reshape(batch, OUT_C, out_h, out_w)


def _oracle(layer, x, policy):
    """im2col + block_circulant_forward_batch, at the policy's dtypes."""
    spectra, spectra_fm = layer.weight_spectra(policy.complex_dtype)
    out = block_circulant_forward_batch(
        spectra, _im2col_blocks(layer, x), weight_fm=spectra_fm
    )
    bias = layer.bias.data.astype(policy.real_dtype)
    return _to_nchw(out, layer, x) + bias[None, :, None, None]


def _sharded_oracle(layer, x, policy, shards):
    """The im2col operand through one GEMM per contiguous block-row slice.

    A GEMM's rounding depends on its shape (a one-row slice runs as a
    matrix-vector product), so the row-sharded plan is pinned to an
    oracle with the same partition and contiguous operands.
    """
    _, spectra_fm = layer.weight_spectra(policy.complex_dtype)
    x_fm = np.ascontiguousarray(
        rfft(_im2col_blocks(layer, x)).transpose(2, 1, 0)
    )
    bounds = np.linspace(0, spectra_fm.shape[1], shards + 1, dtype=int)
    parts = [
        irfft(
            np.matmul(np.ascontiguousarray(spectra_fm[:, r0:r1]), x_fm)
            .transpose(2, 1, 0),
            n=layer.block_size,
        )
        for r0, r1 in zip(bounds[:-1], bounds[1:])
    ]
    bias = layer.bias.data.astype(policy.real_dtype)
    out = _to_nchw(np.concatenate(parts, axis=1), layer, x)
    return out + bias[None, :, None, None]


def _plan_op(layer, policy, **kwargs):
    (op,) = compile_model_plan(Sequential(layer).eval(), policy, **kwargs)
    return op


def _inputs(batch, policy, seed=0):
    x = np.random.default_rng(seed).normal(size=(batch, IN_C, HEIGHT, WIDTH))
    return x.astype(policy.real_dtype)


@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_operand_equals_im2col_spectrum(kernel, stride, padding, dtype):
    layer = _layer(kernel, stride, padding)
    x = np.random.default_rng(1).normal(size=(3, IN_C, HEIGHT, WIDTH))
    x = x.astype(dtype)
    x_fm, _, _ = block_circulant_conv_spectra(
        x, kernel, stride, padding, BLOCK, layer.channel_blocks
    )
    expected = rfft(_im2col_blocks(layer, x)).transpose(2, 1, 0)
    assert x_fm.dtype == expected.dtype
    assert np.array_equal(x_fm, expected)


@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
@pytest.mark.parametrize("precision", ["fp64", "fp32"])
class TestPlanMatchesIm2col:
    def test_fresh_and_arena_bitwise(self, kernel, stride, padding, precision):
        policy = POLICIES[precision]
        layer = _layer(kernel, stride, padding)
        op = _plan_op(layer, policy)
        ws = Workspace(buckets=(1, 4, 16))
        for batch in BATCHES:
            x = _inputs(batch, policy, seed=batch)
            expected = _oracle(layer, x, policy)
            fresh = op.run(x)
            arena = op.run(x, ws)
            assert fresh.dtype == arena.dtype == policy.real_dtype
            assert np.array_equal(fresh, expected)
            assert np.array_equal(arena, expected)
            if precision == "fp64":
                assert np.array_equal(fresh, layer(x).data)

    def test_row_sharded_bitwise(
        self, kernel, stride, padding, precision, monkeypatch
    ):
        monkeypatch.setattr(plan_mod, "MIN_SHARD_BYTES", 0)
        policy = POLICIES[precision]
        layer = _layer(kernel, stride, padding)
        op = _plan_op(layer, policy, row_shards=2)
        assert op.shard_fns is not None and len(op.shard_fns) == 2
        for batch in BATCHES:
            x = _inputs(batch, policy, seed=batch)
            payload = op.prepare(x)
            parts = [shard(payload) for shard in op.shard_fns]
            expected = _sharded_oracle(layer, x, policy, shards=2)
            assert np.array_equal(op.combine(parts), expected)
            assert np.array_equal(op(x), expected)

    def test_conv_tile_allclose(self, kernel, stride, padding, precision):
        policy = POLICIES[precision]
        layer = _layer(kernel, stride, padding)
        op = _plan_op(layer, policy, conv_tile=2)
        tol = 1e-10 if precision == "fp64" else 1e-4
        for batch in BATCHES:
            x = _inputs(batch, policy, seed=batch)
            out = op(x)
            assert out.dtype == policy.real_dtype
            assert np.allclose(out, _oracle(layer, x, policy), atol=tol)


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_zero_once_pad_slot_survives_batch_changes(precision):
    # One bucket for every batch: each call reuses the same padded slot,
    # so stale interior rows from a larger batch sit next to the rows a
    # smaller batch writes.  Border and channel padding must stay zero.
    policy = POLICIES[precision]
    layer = _layer(3, 1, 2)
    op = _plan_op(layer, policy)
    big = _inputs(37, policy, seed=11) * 1e3 + 7.0
    small = _inputs(3, policy, seed=12)
    ws = Workspace(buckets=(64,))
    for x in (big, small, big[:16], small[:1]):
        assert np.array_equal(op.run(x, ws), _oracle(layer, x, policy))
