"""Shared pieces of the benchmark: statistics, spans, answer checks,
the environment stamp, model artifacts and `repro serve` subprocesses.

Nothing here starts a thread or process at import time; every
subprocess is owned by a :class:`ServerProcess` and is stopped and
waited for by its ``close``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Answer tolerances, per precision, on class probabilities.  A served
#: or batched answer is compared with the same rows run alone through a
#: serial session (or, for streams, with the batch plan over the whole
#: stream); anything outside these counts as a failed answer.
TOLERANCE = {
    "fp64": {"rtol": 1e-9, "atol": 1e-12},
    "fp32": {"rtol": 1e-4, "atol": 1e-6},
}

#: The quantile of call times or latencies the gated timings use.  On a
#: shared host the cores change speed by up to 2x in spells of seconds
#: to minutes, and a median lands in whichever spell took most of the
#: run; the 5th percentile follows the program's own speed instead.
FAST_QUANTILE = 0.05

#: Weights are seeded with this fixed value so every run serves the same
#: model; the workload seed only drives inputs and arrival schedules.
WEIGHT_SEED = 0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = sorted(values)
    if not values:
        return float("nan")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return 0.5 * (values[mid - 1] + values[mid])


def tail(values, nominal: float = 0.99, beyond: int = 10) -> tuple[float, float, int]:
    """``(value, quantile, n)``: the highest quantile up to ``nominal``
    that leaves at least ``beyond`` samples above it (nearest rank)."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return float("nan"), 0.0, 0
    index = min(math.ceil(nominal * n) - 1, n - 1 - beyond)
    index = max(index, 0)
    return float(values[index]), (index + 1) / n, n


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(name, start_ns, end_ns, parent)``; ``parent`` is the
    index of the enclosing span or -1.  Disabled tracers record nothing
    and cost one attribute check.  Spans stay in memory until the run
    ends and :meth:`self_us` summarises them.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_us(self) -> dict[str, list[float]]:
        """Per span name, every span's self time in microseconds: its
        duration minus the part its direct children cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            out.setdefault(name, []).append((end - start - child_ns[index]) / 1e3)
        return out


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def answer_ok(got, want, precision: str) -> bool:
    """True when ``got`` matches the reference ``want`` within the
    precision's stated tolerance (shape and finiteness included)."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    tol = TOLERANCE[precision]
    return bool(np.allclose(got, want, rtol=tol["rtol"], atol=tol["atol"]))


def rows_bitwise_differ(got, want) -> int:
    """How many rows of ``got`` differ in any bit from ``want``."""
    got = np.ascontiguousarray(got)
    want = np.ascontiguousarray(want)
    if got.shape != want.shape:
        return got.shape[0] if got.ndim else 1
    return int(np.any(got.view(np.uint8).reshape(got.shape[0], -1)
                      != want.view(np.uint8).reshape(want.shape[0], -1), axis=1).sum())


# ----------------------------------------------------------------------
# Process and environment facts
# ----------------------------------------------------------------------
def proc_status_kb(pid: int | str, key: str) -> float:
    """A ``kB`` field (e.g. ``VmHWM``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise KeyError(key)


def proc_cpu_s(pid: int | str) -> float:
    """User plus system CPU seconds of a process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _blas_threads() -> int | None:
    """OpenBLAS's live thread count, when numpy bundles OpenBLAS."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "*openblas*", "lib", "*openblas*.so*"))
    libs += glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                   "numpy.libs", "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_probe(seconds: float = 0.25) -> dict:
    """How fast the host runs right now, for telling a slow spell of a
    shared host from a slower program: the median time of a fixed
    compute step (a 96x96 matmul and a short Python loop) and the
    lateness of 1 ms sleeps (p50 and the highest quantile up to p99 with
    ten samples beyond it)."""
    a = np.ones((96, 96))
    steps, late = [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        a @ a
        sum(range(2000))
        steps.append(time.perf_counter() - t0)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        time.sleep(0.001)
        late.append(time.perf_counter() - t0 - 0.001)
    return {"compute_us": median(steps) * 1e6,
            "sleep_late_ms_p50": median(late) * 1e3,
            "sleep_late_ms_tail": tail(late)[0] * 1e3}


def stamp(seed: int, blas_pin: str) -> dict:
    """The environment facts every result line carries."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds without the dict form
        vendor = "unknown"
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "cpus": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "blas": vendor,
        "blas_threads_pinned": blas_pin,
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "tolerance": TOLERANCE,
    }


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def build_artifact(arch: str, path: Path):
    """Seed ``arch``'s weights, save them as a float deployment artifact
    and return the live model (for cost counting)."""
    from repro import zoo
    from repro.embedded.deploy import DeployedModel

    model = zoo.get(arch, rng=np.random.default_rng(WEIGHT_SEED))
    DeployedModel.from_model(model).save(path)
    return model


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self):
        self.path = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        self.path.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        for child in sorted(self.path.rglob("*"), reverse=True):
            child.unlink() if child.is_file() else child.rmdir()
        self.path.rmdir()
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


# ----------------------------------------------------------------------
# `repro serve` subprocesses
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``python -m repro serve`` child, stopped and reaped by close.

    ``ready_s`` is spawn-to-banner wall time.  Output goes to a log file
    in the run's work directory, so a chatty server can never block on
    a full pipe.
    """

    def __init__(self, artifact: Path, workdir: Path, tag: str,
                 extra_env: dict | None = None, timeout_s: float = 60.0):
        from repro.serving.protocol import parse_banner

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("REPRO_EXECUTOR", None)
        env.update(extra_env or {})
        self.log = workdir / f"serve-{tag}.log"
        self._log_fh = open(self.log, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(artifact),
             "--port", "0", "--executor", "auto"],
            stdout=self._log_fh, stderr=subprocess.STDOUT, env=env,
            cwd=workdir,
        )
        self.host = self.port = None
        try:
            deadline = start + timeout_s
            while self.port is None:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError(
                        f"repro serve did not start: {self.log.read_text()[-2000:]}")
                with open(self.log) as fh:
                    first = fh.readline()
                parsed = parse_banner(first) if first.endswith("\n") else None
                if parsed is not None:
                    self.host, self.port = parsed
                else:
                    time.sleep(0.001)
        except BaseException:
            self.close()
            raise
        self.ready_s = time.perf_counter() - start

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return proc_status_kb(self.pid, "VmHWM") / 1024.0

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_fh.close()
