"""Workload `embedded_cifar`: the paper's Arch. 3 in process, at fp32.

Weights are seeded and saved as a float deployment artifact, then loaded
through ``Engine(model=<artifact>, precisions=("fp32",),
executor="auto")``.  One closed-loop caller sends single images
(latency), then batches of 16 (throughput, batch variance), in ten
rounds; each round starts by setting the engine up anew three times.
Every answer is checked against the same image run alone through a
serial ``InferenceSession`` built from the same artifact.

The traced run adds per-op self times of the route's plan (each
``PlanOp.run`` called with a private ``Workspace``), FLOP rates from
``embedded.count_model``, and, for every block-circulant op, the time of
a dense layer of the same shape frozen the same way.
"""

from __future__ import annotations

import re
import time

import numpy as np

from harness import (
    FAST_QUANTILE,
    Tracer,
    answer_ok,
    build_artifact,
    median,
    proc_status_kb,
    rows_bitwise_differ,
    tail,
)

PRECISION = "fp32"
POOL = 64  # distinct seeded images; calls cycle through them
BATCH = 16
SETUP_PER_ROUND = 3  # plus the first set-up: 31 in all
OP_REPS_B1 = 40
OP_REPS_B16 = 6
ROUNDS = 10
SINGLE_SHARE = 0.7  # of each round; batches of 16 take the rest


def op_kind(name: str) -> str:
    """``bc_conv(64->128,k=3,b=32)+relu`` -> ``bc_conv-relu``."""
    parts = [re.sub(r"[\(\[].*$", "", part) for part in name.split("+")]
    return "-".join(parts)


def _engine(artifact):
    from repro.engine import Engine

    return Engine(model=artifact, precisions=(PRECISION,), executor="auto")


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    from repro.embedded.deploy import DeployedModel
    from repro.runtime.session import InferenceSession

    tracer = Tracer(trace)
    path = workdir / "arch3.npz"
    model = build_artifact("arch3", path)
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((POOL, 3, 32, 32)).astype(np.float32)

    reference = InferenceSession.from_deployed(
        DeployedModel.load(path), precision=PRECISION, executor="serial")
    ref = np.concatenate([reference.predict_proba(pool[i:i + 1]) for i in range(POOL)])
    reference.close()

    attempted = failed = 0

    def set_up(engine):
        """Artifact load + Engine build + warm_up + first answer, timed;
        replaces ``engine``."""
        nonlocal attempted, failed
        if engine is not None:
            engine.close()
        start = time.perf_counter()
        with tracer.span("embedded.load"):
            artifact = DeployedModel.load(path)
        with tracer.span("engine.build"):
            engine = _engine(artifact)
        with tracer.span("engine.warm_up"):
            engine.warm_up()
        out = engine.predict_proba(pool[:1])
        setups.append(time.perf_counter() - start)
        attempted += 1
        failed += not answer_ok(out, ref[:1], PRECISION)
        return engine

    setups = []
    engine = set_up(None)
    try:
        # On a shared host the cores change speed every few seconds;
        # alternating set-up and the two phases over the whole run lets
        # all three see the same mix of fast and slow spells.
        latencies, traced_lat, order = [], [], rng.permutation(POOL)
        batch_times, batch_rows, variant_rows = [], 0, 0
        b1_variant = calls = 0
        single_elapsed = 0.0
        for _ in range(ROUNDS):
            for _ in range(SETUP_PER_ROUND):
                engine = set_up(engine)
            start = time.perf_counter()
            while time.perf_counter() - start < SINGLE_SHARE * seconds / ROUNDS:
                i = int(order[calls % POOL])
                # Traced runs alternate blocks of 25 calls with and
                # without a span, so the difference is the tracing
                # overhead.
                traced = trace and (calls // 25) % 2 == 1
                t0 = time.perf_counter()
                if traced:
                    with tracer.span("engine.predict_proba.b1"):
                        out = engine.predict_proba(pool[i:i + 1])
                else:
                    out = engine.predict_proba(pool[i:i + 1])
                dt = time.perf_counter() - t0
                (traced_lat if traced else latencies).append(dt * 1e3)
                calls += 1
                attempted += 1
                failed += not answer_ok(out, ref[i:i + 1], PRECISION)
                b1_variant += rows_bitwise_differ(out, ref[i:i + 1])
            single_elapsed += time.perf_counter() - start

            start = time.perf_counter()
            while time.perf_counter() - start < (1 - SINGLE_SHARE) * seconds / ROUNDS:
                idx = rng.choice(POOL, BATCH, replace=False)
                t0 = time.perf_counter()
                with tracer.span("engine.predict_proba.b16"):
                    out = engine.predict_proba(pool[idx])
                batch_times.append(time.perf_counter() - t0)
                attempted += 1
                failed += not answer_ok(out, ref[idx], PRECISION)
                batch_rows += BATCH
                variant_rows += rows_bitwise_differ(out, ref[idx])

        peak_rss_mb = proc_status_kb("self", "VmHWM") / 1024.0
        p99, q99, n = tail(latencies)
        # Single calls are gated at FAST_QUANTILE (median and p99 are in
        # the stamp).  A batch of 16 keeps both cores busy for ~0.2 s;
        # its median spread less between runs than its fast quantile.
        b1_fast_ms = tail(latencies, FAST_QUANTILE, beyond=0)[0]
        e2e = {
            "setup_s": median(setups),
            "latency_p5_ms": b1_fast_ms,
            "throughput_per_s": BATCH / median(batch_times),
            # One closed-loop caller's highest rate is the inverse of
            # its call time.
            "max_rate_per_s": 1e3 / b1_fast_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        session = engine.session()
        info = {
            "latency_samples": n,
            "latency_p50_ms": median(latencies),
            "latency_p99_ms": p99,
            "calls_per_s": calls / single_elapsed,
            "latency_p99_quantile": q99,
            "batch_variant_share": variant_rows / batch_rows,
            "batch_variant_rows": f"{variant_rows}/{batch_rows}",
            "b1_rows_differing_from_serial": b1_variant,
            "routes": {
                route: {"ops": r["ops"], "executor": r["executor"]}
                for route, r in engine.describe_routes().items()
            },
            "executor": engine.executor_info()["kind"],
        }
        layers = {}
        if trace:
            layers = _layers(engine, session, model, pool, tracer, latencies, traced_lat)
            layers["quality.batch_variant_share"] = info["batch_variant_share"]
    finally:
        engine.close()
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "info": info}


def _time_ops(ops, x, reps, tracer, prefix, ws, engine):
    """Median self time (us) of each op over ``reps`` passes, plus each
    op's input from the last pass.  Each pass is preceded by one
    ``Engine.predict_proba`` call on the same input, so the two are
    timed under the same conditions."""
    inputs = [None] * len(ops)
    for _ in range(reps):
        with tracer.span(f"{prefix}.engine"):
            engine.predict_proba(x)
        h = x
        for index, op in enumerate(ops):
            inputs[index] = h
            with tracer.span(f"{prefix}{index:02d}"):
                h = op.run(h, ws)
    spans = tracer.self_us()
    return [median(spans[f"{prefix}{i:02d}"]) for i in range(len(ops))], inputs


def _dense_twin(layer):
    """A dense Conv2d / Linear of the block-circulant layer's shape."""
    from repro.nn import Conv2d, Linear

    rng = np.random.default_rng(0)
    if hasattr(layer, "kernel_size"):
        return Conv2d(layer.in_channels, layer.out_channels, layer.kernel_size,
                      stride=layer.stride, padding=layer.padding, rng=rng)
    return Linear(layer.in_features, layer.out_features, rng=rng)


def _layers(engine, session, model, pool, tracer, untraced_lat, traced_lat) -> dict:
    from repro.embedded.cost_model import count_model
    from repro.nn import ReLU, Sequential
    from repro.runtime.session import InferenceSession
    from repro.runtime.workspace import Workspace

    ops = session.ops
    layers_list = list(model)
    costs = count_model(model, (3, 32, 32)).layers
    # Each fused op covers as many model layers as its name has parts.
    spans_of_op, cursor = [], 0
    for op in ops:
        parts = len(op.name.split("+"))
        spans_of_op.append((cursor, cursor + parts))
        cursor += parts
    if cursor != len(layers_list):
        raise RuntimeError(f"plan ops cover {cursor} layers, model has {len(layers_list)}")

    ws = Workspace(session.arena_buckets)
    us_b1, inputs_b1 = _time_ops(ops, pool[:1], OP_REPS_B1, tracer, "runtime.b1.op", ws, engine)
    us_b16, _ = _time_ops(ops, pool[:16], OP_REPS_B16, tracer, "runtime.b16.op", ws, engine)

    out: dict[str, float] = {}
    for index, op in enumerate(ops):
        key = f"runtime.op{index:02d}.{op_kind(op.name)}"
        lo, hi = spans_of_op[index]
        flops = sum(c.flops for c in costs[lo:hi])
        out[f"{key}.us_b1"] = us_b1[index]
        out[f"{key}.us_b16"] = us_b16[index]
        out[f"{key}.gflops_b1"] = flops / (us_b1[index] * 1e3)
        if op.name.startswith("bc_"):
            layer = layers_list[lo]
            dense = InferenceSession.freeze(
                Sequential(_dense_twin(layer), *([ReLU()] if hi - lo > 1 else [])),
                precision=PRECISION, executor="serial")
            dense_ws = Workspace(dense.arena_buckets)
            x = inputs_b1[index]
            times = []
            for _ in range(OP_REPS_B1):
                t0 = time.perf_counter_ns()
                with tracer.span("runtime.dense_twin"):
                    dense.ops[0].run(x, dense_ws)
                times.append((time.perf_counter_ns() - t0) / 1e3)
            dense.close()
            out[f"{key}.vs_dense_b1"] = median(times) / us_b1[index]

    spans = tracer.self_us()
    out["runtime.dispatch_us_b1"] = median(spans["runtime.b1.op.engine"]) - sum(us_b1)
    out["runtime.arena_mb"] = session.executor.arena_info()["nbytes"] / 1e6
    out["embedded.load_ms"] = median(spans["embedded.load"]) / 1e3
    out["engine.warm_up_ms"] = median(spans["engine.warm_up"]) / 1e3
    out["trace.overhead_pct"] = (median(traced_lat) / median(untraced_lat) - 1.0) * 100.0
    return out
