"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload embedded_cifar --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn.  The last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics (a
per-layer metric reads 0 on a workload that leaves that layer idle).
The line before it is the environment stamp.  The exit code is 0 only
when every answer was checked and correct; it is 3, with no result, when
a workload's metrics do not match ``BENCHMARK.json`` and ``IDLE``.

Run it from the repository root; it imports the program from ``src/``.
BLAS is pinned to one thread for this process and every server it
starts, before numpy loads, because unpinned OpenBLAS threads made
single-layer times vary several-fold between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fnmatch import fnmatch
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("embedded_cifar", "serve_mnist", "stream_wave")

#: Per-layer metrics each workload leaves idle; they read 0 there.  A
#: claim about one of these layers names such a workload as its
#: no-change workload.  A traced run fails if it measures a metric listed
#: here for it, or misses a declared one that is not listed.
IDLE = {
    "embedded_cifar": ("runtime.plan_us", "serving.*", "client.*",
                       "protocol.*", "streaming.*"),
    "serve_mnist": ("runtime.op*", "runtime.dispatch_us_b1", "runtime.arena_mb",
                    "streaming.*", "serving.streams_per_step", "serving.state_kb"),
    "stream_wave": ("runtime.op*", "runtime.plan_us", "runtime.dispatch_us_b1",
                    "runtime.arena_mb", "serving.requests_per_batch",
                    "serving.rows_per_batch"),
}


class CoverageError(RuntimeError):
    """A workload measured other metrics than it declares."""


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import cifar
    import served
    from harness import WorkDir

    workdir = WorkDir()
    try:
        if name == "embedded_cifar":
            return cifar.run(seed, seconds, bool(trace), workdir.path)
        return served.run(name, seed, seconds, bool(trace), workdir.path)
    finally:
        workdir.close()


def result_line(workload: str, outcome: dict, declared: dict,
                trace: int) -> tuple[dict, dict]:
    """The contract's result object, plus what did not fit in it.

    Raises :class:`CoverageError` when the measured metrics are not
    exactly the declared ones minus the workload's idle ones, so a
    renamed plan op or a dropped measurement fails the run instead of
    reading 0."""
    measured = outcome["layers"] if trace else outcome["e2e"]
    units = declared[trace]
    idle = {k for k in units if trace and any(fnmatch(k, p) for p in IDLE[workload])}
    problems = {
        "undeclared": sorted(set(measured) - set(units)),
        "missing": sorted(set(units) - set(measured) - idle),
        "measured but idle": sorted(set(measured) & idle),
    }
    if any(problems.values()):
        raise CoverageError(f"{workload} --trace {trace}: " + "; ".join(
            f"{what} {names}" for what, names in problems.items() if names))
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    extra = {
        "error_rate": outcome["failed"] / max(outcome["attempted"], 1),
        "idle": sorted(idle),
        **outcome["info"],
    }
    return {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import host_probe, stamp

    declared = _declared()
    env = stamp(args.seed, BLAS_THREADS)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        host_before = host_probe()
        outcome = run_workload(name, args.seed, args.seconds, args.trace)
        host = {"before": host_before, "after": host_probe()}
        try:
            results[name], extra = result_line(name, outcome, declared, args.trace)
        except CoverageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(json.dumps({"stamp": {"workload": name, "trace": args.trace,
                                    **env, "host": host, **extra}}), flush=True)
        if args.workload == "all":
            print(json.dumps(results[name]), flush=True)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
