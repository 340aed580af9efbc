"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, prints every
   metric ``BENCHMARK.json`` names, with its unit, and exits 0.
2. The answer checker rejects a perturbed answer (and the bitwise row
   counter sees a one-ulp change).
3. A served workload whose server sheds every request
   (``REPRO_FAULTS="admission.shed*inf"``) reports ``error_rate`` 1 and
   exits non-zero instead of passing.
4. Without the program's sources next to it, the benchmark exits
   non-zero and prints no result.
5. A workload whose measured metrics are not exactly the declared ones
   minus its idle ones (``run.IDLE``) fails instead of reading 0, and
   every traced run's idle list is the one ``run.IDLE`` names for it.

Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int, seconds: float = 3, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, **(env or {})),
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else None
    stamp = json.loads(lines[-2])["stamp"] if result and len(lines) > 1 else None
    return proc, result, stamp


def check_metrics_printed() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result, stamp = _run(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {proc.returncode}, result {result}\n{proc.stderr[-2000:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]]
            if bad:
                problems.append(f"{where}: non-numeric values for {bad}")
            if trace == 0 and any(v["value"] <= 0 for v in result["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
            if trace == 1:
                measured = sorted(k for k in want if k not in stamp["idle"])
                zero = [k for k in measured if result["metrics"][k]["value"] == 0
                        and not k.startswith(("quality.", "serving.shed_share"))]
                if zero:
                    problems.append(f"{where}: measured metrics read 0: {zero}")
    return problems


def check_coverage() -> list[str]:
    sys.path.insert(0, str(HERE))
    import run

    declared = run._declared()
    problems = []
    for workload, patterns in run.IDLE.items():
        idle = {k for k in declared[1] if any(run.fnmatch(k, p) for p in patterns)}
        if not idle or idle == set(declared[1]):
            problems.append(f"{workload}: IDLE matches {len(idle)} metrics")
        busy = {k: 1.0 for k in declared[1] if k not in idle}
        outcome = {"layers": busy, "e2e": {}, "failed": 0, "attempted": 1, "info": {}}
        run.result_line(workload, outcome, declared, 1)  # must pass
        some_busy = sorted(busy)[0]
        for label, layers in (
            ("undeclared", {**busy, "runtime.op99.renamed.us_b1": 1.0}),
            ("missing", {k: v for k, v in busy.items() if k != some_busy}),
            ("measured but idle", {**busy, sorted(idle)[0]: 1.0}),
        ):
            try:
                run.result_line(workload, dict(outcome, layers=layers), declared, 1)
            except run.CoverageError:
                continue
            problems.append(f"{workload}: a run with a {label} metric passed")
    return problems


def check_answer_checker() -> list[str]:
    sys.path.insert(0, str(HERE))
    import numpy as np
    from harness import answer_ok, rows_bitwise_differ

    problems = []
    rng = np.random.default_rng(0)
    for precision, dtype, step in (("fp64", np.float64, 1e-6), ("fp32", np.float32, 1e-3)):
        want = rng.random((4, 10)).astype(dtype)
        want /= want.sum(axis=1, keepdims=True)
        if not answer_ok(want.copy(), want, precision):
            problems.append(f"{precision}: an exact answer was rejected")
        perturbed = want.copy()
        perturbed[2, 3] += step
        if answer_ok(perturbed, want, precision):
            problems.append(f"{precision}: a perturbed answer was accepted")
        if answer_ok(want[:3], want, precision):
            problems.append(f"{precision}: an answer with a missing row was accepted")
        one_ulp = want.copy()
        one_ulp[1, 0] = np.nextafter(one_ulp[1, 0], dtype(1))
        if rows_bitwise_differ(one_ulp, want) != 1:
            problems.append(f"{precision}: a one-ulp change was not counted")
    return problems


def check_shed_fault() -> list[str]:
    proc, result, stamp = _run("serve_mnist", 0, seconds=2,
                               env={"REPRO_FAULTS": "admission.shed*inf"})
    if proc.returncode == 0 or result is None:
        return [f"shed fault: exit {proc.returncode}, result {result}"]
    if result["correct"] or stamp["error_rate"] != 1.0:
        return [f"shed fault: correct={result['correct']} error_rate={stamp['error_rate']}"]
    return []


def check_without_program() -> list[str]:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, result, _ = _run("embedded_cifar", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None:
        return [f"without program: exit {proc.returncode}, result {result}"]
    return []


def main() -> int:
    failures = 0
    for check in (check_answer_checker, check_coverage, check_without_program,
                  check_shed_fault, check_metrics_printed):
        problems = check()
        print(f"{'PASS' if not problems else 'FAIL'} {check.__name__}", flush=True)
        for problem in problems:
            print(f"  {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
