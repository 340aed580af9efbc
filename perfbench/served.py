"""Workloads `serve_mnist` and `stream_wave`: a `repro serve` subprocess
driven by one open-loop generator (one thread, one asyncio loop, two
connections).

Each request is timed from the moment it was due, so a stall also
delays the requests queued behind it.  The run finds the offered rate,
on a ladder of rates 6% apart, at which the median latency reaches the
workload's limit (a backlog builds), and measures latency at a fixed
rate of about 15% of that.  Every answer is checked, as it
arrives, against a reference computed in this process before timing
starts: each row run alone through a serial session (`serve_mnist`), or
the batch plan over the whole stream (`stream_wave`).
"""

from __future__ import annotations

import asyncio
import gc
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from harness import (
    FAST_QUANTILE,
    ServerProcess,
    Tracer,
    answer_ok,
    build_artifact,
    median,
    rows_bitwise_differ,
    tail,
)

CONNECTIONS = 2
SETUP_REPEATS = 9
LADDER_BASE = 10.0
LADDER_STEP = 1.06
# Shares of --seconds: closed loop, rate sweep; the rest is the latency phase.
CAPACITY_SHARE = 0.25
SWEEP_SHARE = 0.45
SWEEP_VISITS = 4  # visits to each swept rate
SWEEP_RANGE = (0.8, 1.5)  # of the faster warm-up burst's request rate
#: Throughput is this quantile of the ten closed-loop bursts' rates (the
#: second fastest): like FAST_QUANTILE, it follows the program's own
#: speed rather than the share of the run the host spent slow.
BURST_QUANTILE = 0.9
ROUNDS = 10
# A visit stops when a request has waited this long: the server has
# stopped answering.  A backlog above capacity, or a stall of the host,
# stays far below it and shows in the visit's median instead.
ABORT_S = 2.0


def ladder(k: int) -> float:
    return LADDER_BASE * LADDER_STEP ** k


def ladder_index(rate: float) -> int:
    """Highest ladder index whose rate is at most ``rate``."""
    return max(0, int(np.floor(np.log(max(rate, LADDER_BASE) / LADDER_BASE)
                               / np.log(LADDER_STEP) + 1e-9)))


@dataclass
class Item:
    due: float  # seconds after the phase start
    lane: int
    payload: object
    due_abs: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    traced: bool = False


@dataclass
class Phase:
    lateness_ms: list
    aborted: bool
    elapsed: float
    answered: list = field(default_factory=list)

    @property
    def latencies_ms(self):
        return [(i.done - i.due_abs) * 1e3 for i in self.answered]

    @property
    def failed(self) -> int:
        return sum(not i.ok for i in self.answered)


class Pool:
    """Phases of one kind gathered over a run."""

    def __init__(self):
        self.phases: list[Phase] = []
        self.units: list[int] = []
        self.elapsed = 0.0

    def add(self, phase: Phase, units: int) -> None:
        self.phases.append(phase)
        self.units.append(units)
        self.elapsed += phase.elapsed

    def phase(self) -> Phase:
        merged = Phase([], False, self.elapsed)
        for p in self.phases:
            merged.lateness_ms += p.lateness_ms
            merged.answered += p.answered
        return merged


async def open_loop(schedule, lanes: list[list], send, abort_wait_s: float,
                    tracer: Tracer, drop_unsent: bool = False) -> Phase:
    """Run ``schedule`` (Items sorted by ``due``) open loop.

    ``lanes[i]`` lists the connections that serve lane ``i``; an item
    waits in its lane's queue until one of them is free.  The phase
    stops dispatching when an item has waited ``abort_wait_s`` (the
    rate is then clearly beyond capacity) and drops what is unsent.
    ``drop_unsent`` also drops what is unsent when the schedule ends,
    which turns a schedule faster than the server into a closed loop.
    """
    queues = [deque() for _ in lanes]
    wakeups = [asyncio.Event() for _ in lanes]
    answered: list[Item] = []
    state = {"closed": False, "aborted": False}

    async def worker(lane: int, conn) -> None:
        queue, wake = queues[lane], wakeups[lane]
        while True:
            if not queue:
                if state["closed"]:
                    return
                wake.clear()
                await wake.wait()
                continue
            item = queue.popleft()
            if state["aborted"]:
                continue
            item.sent = time.perf_counter()
            if item.traced:
                with tracer.span("client.request"):
                    item.ok = await send(conn, item)
            else:
                item.ok = await send(conn, item)
            item.done = time.perf_counter()
            answered.append(item)

    tasks = [asyncio.ensure_future(worker(lane, conn))
             for lane, conns in enumerate(lanes) for conn in conns]
    lateness = []
    # The generator's own garbage collection would stall the schedule.
    gc.collect()
    gc.disable()
    start = time.perf_counter() + 0.005
    try:
        for item in schedule:
            item.due_abs = start + item.due
            delay = item.due_abs - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            lateness.append((now - item.due_abs) * 1e3)
            queues[item.lane].append(item)
            wakeups[item.lane].set()
            head = queues[item.lane][0]
            if now - head.due_abs > abort_wait_s:
                state["aborted"] = True
                break
        if drop_unsent:
            for queue in queues:
                queue.clear()
    finally:
        state["closed"] = True
        for wake in wakeups:
            wake.set()
        await asyncio.gather(*tasks)
        gc.enable()
    elapsed = time.perf_counter() - start
    return Phase(lateness, state["aborted"], elapsed, answered)


def knee(tails: dict[int, list[float]], limit_ms: float) -> tuple[float, int]:
    """``(max_rate, index)``: the offered rate at which the fitted
    latency reaches ``limit_ms``, and the highest ladder index whose
    fitted latency is within it (the lowest visited index if none is).

    Each rate's latency is the lowest of its visits' figures: the host
    slows down in spells, and the visit it slowed least shows what the
    program sustains (every visit is in the stamp).  The fit is the
    closest non-decreasing sequence in log latency (pool-adjacent-violators),
    so one unlucky rate cannot end the sweep early and one lucky rate
    cannot extend it.  Between the last rung that holds and the first
    that does not, the rate is interpolated in log rate and log tail,
    so the figure moves with the program rather than in 6% steps."""
    rungs = sorted(tails)
    blocks: list[list[float]] = []  # [mean log tail, count]
    for k in rungs:
        blocks.append([math.log(max(min(tails[k]), 1e-3)), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            value, count = blocks.pop()
            prev = blocks.pop()
            total = prev[1] + count
            blocks.append([(prev[0] * prev[1] + value * count) / total, total])
    fitted = [value for value, count in blocks for _ in range(count)]
    limit = math.log(limit_ms)
    within = [i for i, value in enumerate(fitted) if value <= limit]
    if not within:
        return ladder(rungs[0]), rungs[0]
    i = within[-1]
    if i == len(rungs) - 1 or fitted[i + 1] == fitted[i]:
        return ladder(rungs[i]), rungs[i]
    share = (limit - fitted[i]) / (fitted[i + 1] - fitted[i])
    log_rate = math.log(ladder(rungs[i])) + share * (
        math.log(ladder(rungs[i + 1])) - math.log(ladder(rungs[i])))
    return math.exp(log_rate), rungs[i]


def visit_latency(phase: Phase) -> tuple[float, float]:
    """A visit's median and tail latency (the highest percentile up to
    p99 with ten samples beyond it).  A visit with a failed answer, or
    one stopped because a request waited ``ABORT_S``, counts as
    infinitely slow."""
    if phase.aborted or phase.failed or not phase.answered:
        return math.inf, math.inf
    latencies = phase.latencies_ms
    return median(latencies), tail(latencies)[0]


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
class MnistTraffic:
    """Arch. 1 predicts: 80% one row, 20% 2-32 rows, Poisson arrivals."""

    name = "serve_mnist"
    arch = "arch1"
    limit_ms = 20.0
    latency_rate = 60.0  # requests/s, about 15% of max_rate_per_s
    precision = "fp64"
    pool_rows = 512

    def __init__(self, seed: int, artifact):
        from repro.embedded.deploy import DeployedModel
        from repro.runtime.session import InferenceSession

        self.rng = np.random.default_rng(seed)
        self.pool = self.rng.random((self.pool_rows, 256))
        self.artifact = DeployedModel.load(artifact)
        ref = InferenceSession.from_deployed(
            self.artifact, precision=self.precision, executor="serial")
        self.ref = np.concatenate(
            [ref.predict_proba(self.pool[i:i + 1]) for i in range(self.pool_rows)])
        ref.close()
        self.variant_rows = 0
        self.rows = 0

    def lanes(self, clients):
        return [list(clients)]  # one shared queue: any free connection

    async def prepare(self, clients) -> None:
        pass

    async def first_answer(self, client) -> bool:
        return await self.send(client, Item(0.0, 0, np.array([0])))

    def schedule(self, rate: float, seconds: float) -> list[Item]:
        items, t = [], 0.0
        while True:
            t += self.rng.exponential(1.0 / rate)
            if t >= seconds:
                return items
            n = 1 if self.rng.random() < 0.8 else int(self.rng.integers(2, 33))
            items.append(Item(t, 0, self.rng.integers(0, self.pool_rows, n)))

    async def send(self, client, item: Item) -> bool:
        from repro.exceptions import ReproError

        idx = item.payload
        try:
            out = await client.predict_proba(self.pool[idx])
        except (ReproError, OSError):
            return False
        self.rows += len(idx)
        self.variant_rows += rows_bitwise_differ(out, self.ref[idx])
        return answer_ok(out, self.ref[idx], self.precision)

    def answered_units(self, phase: Phase) -> int:
        return sum(len(i.payload) for i in phase.answered if i.ok)

    async def close(self) -> None:
        pass


class _Stream:
    __slots__ = ("lane", "handle", "wave", "pushes", "length")

    def __init__(self, lane):
        self.lane, self.handle, self.wave, self.pushes, self.length = lane, None, 0, 0, 0


class WaveTraffic:
    """16 fftnet streams of 160-sample pushes over the two connections.

    A stream belongs to the connection that opened it, so streams are
    split evenly across the two connections.  Each stream pushes on its
    own period with seeded jitter; after a seeded 16-48 pushes it closes
    and reopens on the next waveform, so open/close runs beside pushes.
    """

    name = "stream_wave"
    arch = "fftnet"
    limit_ms = 10.0  # one 160-sample chunk period at 16 kHz
    latency_rate = 65.0  # pushes/s, about 15% of max_rate_per_s
    precision = "fp64"
    streams = 16
    chunk = 160
    waves = 24
    max_pushes = 48

    def __init__(self, seed: int, artifact):
        from repro.embedded.deploy import DeployedModel
        from repro.runtime.plan import softmax
        from repro.runtime.session import InferenceSession

        self.rng = np.random.default_rng(seed)
        length = self.max_pushes * self.chunk
        t = np.arange(length) / 16000.0
        freqs = self.rng.uniform(80.0, 2000.0, (self.waves, 3))
        self.wave = (np.sin(2 * np.pi * freqs[:, :, None] * t).sum(axis=1) / 3.0
                     + 0.05 * self.rng.standard_normal((self.waves, length)))
        self.artifact = DeployedModel.load(artifact)
        batch = InferenceSession.from_deployed(
            self.artifact, precision=self.precision, executor="serial")
        self.ref = [softmax(batch.forward(w[None, :, None])[0]) for w in self.wave]
        batch.close()
        self.state = [_Stream(s % CONNECTIONS) for s in range(self.streams)]
        self.clients = None
        self.next_wave = 0
        self.variant_rows = 0
        self.rows = 0
        self.state_bytes = 0

    def lanes(self, clients):
        return [[c] for c in clients]  # a stream lives on its connection

    async def _open(self, stream: _Stream) -> None:
        stream.handle = await self.clients[stream.lane].stream()
        self.state_bytes = stream.handle.state_bytes
        stream.wave = self.next_wave % self.waves
        self.next_wave += 1
        stream.pushes = 0
        stream.length = int(self.rng.integers(16, self.max_pushes + 1))

    async def prepare(self, clients) -> None:
        self.clients = clients
        for stream in self.state:
            await self._open(stream)

    async def first_answer(self, client) -> bool:
        """Open a stream, push one chunk, check it, close the stream."""
        from repro.exceptions import ReproError

        try:
            handle = await client.stream()
            out = await handle.push(self.wave[0][: self.chunk, None])
            await handle.close()
        except (ReproError, OSError):
            return False
        return answer_ok(out, self.ref[0][: self.chunk], self.precision)

    def schedule(self, rate: float, seconds: float) -> list[Item]:
        period = self.streams / rate
        items = []
        for s, stream in enumerate(self.state):
            t = self.rng.uniform(0.0, period)
            while t < seconds:
                jitter = self.rng.uniform(-0.1, 0.1) * period
                items.append(Item(max(0.0, t + jitter), stream.lane, s))
                t += period
        items.sort(key=lambda i: i.due)
        return items

    async def send(self, client, item: Item) -> bool:
        from repro.exceptions import ReproError

        stream = self.state[item.payload]
        lo = stream.pushes * self.chunk
        want = self.ref[stream.wave][lo:lo + self.chunk]
        try:
            out = await stream.handle.push(
                self.wave[stream.wave][lo:lo + self.chunk, None])
        except (ReproError, OSError):
            # A failed push leaves the stream's position unknown: start
            # a fresh stream so later pushes are still checkable.
            await self._reopen(stream)
            return False
        stream.pushes += 1
        self.rows += out.shape[0]
        self.variant_rows += rows_bitwise_differ(out, want)
        ok = answer_ok(out, want, self.precision)
        if stream.pushes >= stream.length:
            await self._reopen(stream)
        return ok

    async def _reopen(self, stream: _Stream) -> None:
        from repro.exceptions import ReproError

        await stream.handle.close()
        try:
            await self._open(stream)
        except (ReproError, OSError):
            stream.handle = _BrokenStream()

    def answered_units(self, phase: Phase) -> int:
        return sum(1 for i in phase.answered if i.ok)

    async def close(self) -> None:
        for stream in self.state:
            if stream.handle is not None:
                await stream.handle.close()


class _BrokenStream:
    """Stand-in for a stream that could not be reopened: every push fails."""

    state_bytes = 0

    async def push(self, chunk):
        from repro.exceptions import ServingError

        raise ServingError("stream could not be reopened")

    async def close(self) -> None:
        pass


WORKLOADS = {"serve_mnist": MnistTraffic, "stream_wave": WaveTraffic}


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool, workdir) -> dict:
    path = workdir / f"{WORKLOADS[name].arch}.npz"
    build_artifact(WORKLOADS[name].arch, path)
    traffic = WORKLOADS[name](seed, path)
    tracer = Tracer(trace)
    return asyncio.run(_run(traffic, seconds, trace, tracer, path, workdir))


async def _connect(server):
    from repro.serving.client import AsyncServeClient

    return await AsyncServeClient.connect(server.host, server.port, timeout=20.0)


async def _run(traffic, seconds, trace, tracer, path, workdir) -> dict:
    attempted = failed = 0
    setups, ready = [], []
    server = clients = None
    try:
        # Set-up: spawn until the banner, plus the first answer.
        for k in range(SETUP_REPEATS):
            if server is not None:
                await asyncio.gather(*(c.close() for c in clients))
                server.close()
            start = time.perf_counter()
            server = ServerProcess(path, workdir, f"{traffic.name}-{k}")
            clients = [await _connect(server) for _ in range(CONNECTIONS)]
            ok = await traffic.first_answer(clients[0])
            setups.append(time.perf_counter() - start)
            ready.append(server.ready_s)
            attempted += 1
            failed += not ok
        await traffic.prepare(clients)
        lanes = traffic.lanes(clients)

        visits: dict[int, list[tuple[float, float]]] = {}
        closed = Pool()
        latency = Pool()
        counters: dict[str, float] = {}
        cpu_ms = 0.0

        async def run_phase(schedule, abort, drop=False) -> Phase:
            nonlocal attempted, failed
            phase = await open_loop(schedule, lanes, traffic.send, abort, tracer,
                                    drop_unsent=drop)
            attempted += len(phase.answered)
            failed += phase.failed
            return phase

        async def burst(span_s: float) -> Phase:
            return await run_phase(traffic.schedule(5000.0, span_s), float("inf"), True)

        async def round_(ks) -> None:
            nonlocal cpu_ms
            phase = await burst(burst_s)
            closed.add(phase, traffic.answered_units(phase))
            for k in ks:
                phase = await run_phase(traffic.schedule(ladder(k), visit_s), ABORT_S)
                visits.setdefault(k, []).append(visit_latency(phase))
            before = _counters(await clients[0].info()) if trace else None
            cpu = server.cpu_s()
            schedule = traffic.schedule(traffic.latency_rate, latency_s)
            for n, item in enumerate(schedule):
                item.traced = trace and n % 2 == 1
            phase = await run_phase(schedule, float("inf"))
            cpu_ms += (server.cpu_s() - cpu) * 1e3
            latency.add(phase, 0)
            if trace:
                after = _counters(await clients[0].info())
                for key, value in after.items():
                    counters[key] = counters.get(key, 0.0) + value - before[key]

        # A first closed-loop second brings the server to its steady
        # state (buffers for every batch size, stream slots); the faster
        # of it and a second one sets the sweep: every ladder rate in
        # SWEEP_RANGE of its request rate, each visited SWEEP_VISITS
        # times in shuffled order, spread over ROUNDS rounds.  Each round
        # is a closed-loop burst (throughput), its share of the visits
        # (max rate) and a stretch at the fixed latency rate, so a slow
        # spell of a shared host weighs on every metric alike.
        requests_per_s = max(len(phase.answered) / phase.elapsed
                             for phase in [await burst(1.0), await burst(1.0)])
        sweep = list(range(ladder_index(SWEEP_RANGE[0] * requests_per_s),
                           ladder_index(SWEEP_RANGE[1] * requests_per_s) + 1))
        order = [int(k) for _ in range(SWEEP_VISITS)
                 for k in traffic.rng.permutation(sweep)]
        burst_s = CAPACITY_SHARE * seconds / ROUNDS
        visit_s = SWEEP_SHARE * seconds / len(order)
        latency_s = (1.0 - CAPACITY_SHARE - SWEEP_SHARE) * seconds / ROUNDS
        for r in range(ROUNDS):
            await round_(order[r::ROUNDS])
        max_rate, passing = knee({k: [v[0] for v in vs] for k, vs in visits.items()},
                                 traffic.limit_ms)
        max_rate_p99, _ = knee({k: [v[1] for v in vs] for k, vs in visits.items()},
                               traffic.limit_ms)
        capacity = tail([units / p.elapsed for p, units in zip(closed.phases, closed.units)],
                        BURST_QUANTILE, beyond=0)[0]
        rungs = [{"rate": round(ladder(k), 2),
                  "visit_p50_ms": [round(v[0], 2) if v[0] < math.inf else None
                                   for v in visits[k]],
                  "visit_tail_ms": [round(v[1], 2) if v[1] < math.inf else None
                                    for v in visits[k]]} for k in sweep]
        info_after = await clients[0].info()
        peak_rss_mb = server.peak_rss_mb()
        phase = latency.phase()

        latencies = phase.latencies_ms
        p99, q99, n = tail(latencies)
        e2e = {
            "setup_s": median(setups),
            "latency_p5_ms": tail(latencies, FAST_QUANTILE, beyond=0)[0],
            "throughput_per_s": capacity,
            "max_rate_per_s": max_rate,
            "peak_rss_mb": peak_rss_mb,
        }
        info = {
            "latency_samples": n,
            "latency_p50_ms": median(latencies),
            "latency_p99_ms": p99,
            "latency_p99_quantile": q99,
            "latency_quantiles_ms": {f"p{q}": tail(latencies, q / 100, beyond=0)[0]
                                     for q in (50, 90, 95, 99)},
            "latency_limit_ms": traffic.limit_ms,
            "latency_rate_per_s": traffic.latency_rate,
            "closed_loop_requests_per_s": requests_per_s,
            "closed_loop_bursts_per_s": [units / p.elapsed for p, units
                                         in zip(closed.phases, closed.units)],
            "max_rate_is_highest_swept": passing == sweep[-1],
            "max_rate_p99_limit_per_s": max_rate_p99,
            "rungs": rungs,
            "generator_late_ms": {
                "p50": median(phase.lateness_ms),
                "p99": tail(phase.lateness_ms, 0.99, beyond=0)[0],
                "max": max(phase.lateness_ms, default=0.0),
            },
            "batch_variant_share": traffic.variant_rows / max(traffic.rows, 1),
            "executor": info_after["executor"]["kind"],
            "routes": {route: {"ops": r["ops"], "executor": r["executor"]}
                       for route, r in info_after["routes"].items()},
        }
        layers = {}
        if trace:
            layers = _layers(traffic, tracer, phase, counters, info_after,
                             cpu_ms, ready, path)
            layers["quality.batch_variant_share"] = info["batch_variant_share"]
    finally:
        if clients is not None:
            try:
                await traffic.close()
            finally:
                await asyncio.gather(*(c.close() for c in clients),
                                     return_exceptions=True)
        if server is not None:
            server.close()
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "info": info}


def _counters(info: dict) -> dict[str, float]:
    """The ``info`` counters the per-layer serving metrics difference."""
    batcher = next(iter(info["batchers"].values()), {})
    out = {key: float(batcher.get(key, 0))
           for key in ("batches", "stream_batches", "rows", "stream_rows")}
    out.update({key: float(info["stats"][key])
                for key in ("requests", "stream_pushes", "shed")})
    return out


def _layers(traffic, tracer, phase, delta, after, cpu_ms, ready, path) -> dict:
    from repro.embedded.deploy import DeployedModel
    from repro.engine import Engine
    from repro.precision import PrecisionPolicy
    from repro.runtime.session import InferenceSession
    from repro.runtime.workspace import Workspace
    from repro.serving.protocol import pack_array, unpack_array
    from repro.streaming import compile_stream_plan

    predict_batches = delta["batches"] - delta["stream_batches"]
    predict_rows = delta["rows"] - delta["stream_rows"]
    stream_steps = delta["stream_batches"]
    requests, pushes, shed = delta["requests"], delta["stream_pushes"], delta["shed"]
    answers = len(phase.answered)

    queue_ms = [(i.sent - i.due_abs) * 1e3 for i in phase.answered]
    rtt_ms = [(i.done - i.sent) * 1e3 for i in phase.answered]
    out = {
        "serving.ready_ms": median(ready) * 1e3,
        "client.queue_ms_p50": median(queue_ms),
        "client.queue_ms_p99": tail(queue_ms)[0],
        "client.rtt_ms_p50": median(rtt_ms),
        "client.rtt_ms_p99": tail(rtt_ms)[0],
        "serving.batch_ms": after["health"]["batch_ms_ema"],
        "serving.shed_share": shed / (requests + pushes + shed) if answers else 0.0,
        "serving.cpu_ms_per_req": cpu_ms / max(answers, 1),
    }
    if traffic.name == "serve_mnist":
        out["serving.requests_per_batch"] = requests / max(predict_batches, 1)
        out["serving.rows_per_batch"] = predict_rows / max(predict_batches, 1)
    else:
        out["serving.streams_per_step"] = pushes / max(stream_steps, 1)
        out["serving.state_kb"] = after["health"]["streams"]["state_bytes"] / 1024.0

    traced = [(i.done - i.due_abs) * 1e3 for i in phase.answered if i.traced]
    plain = [(i.done - i.due_abs) * 1e3 for i in phase.answered if not i.traced]
    out["trace.overhead_pct"] = (median(traced) / median(plain) - 1.0) * 100.0

    # The server's own set-up steps, repeated in process on its artifact.
    for _ in range(5):
        with tracer.span("embedded.load"):
            artifact = DeployedModel.load(path)
        with Engine(model=artifact, precisions=(traffic.precision,),
                    executor="auto") as engine:
            with tracer.span("engine.warm_up"):
                engine.warm_up()
    spans = tracer.self_us()
    out["embedded.load_ms"] = median(spans["embedded.load"]) / 1e3
    out["engine.warm_up_ms"] = median(spans["engine.warm_up"]) / 1e3

    # Wire framing of this workload's requests and answers.
    sample = phase.answered[:: max(1, len(phase.answered) // 200)]
    for item in sample:
        rows, outs = _frame_arrays(traffic, item)
        with tracer.span("protocol.frame"):
            with tracer.span("protocol.pack_array"):
                raw_in, raw_out = pack_array(rows), pack_array(outs)
            with tracer.span("protocol.unpack_array"):
                unpack_array(raw_in), unpack_array(raw_out)
    spans = tracer.self_us()
    out["protocol.frame_us"] = median(
        [a + b for a, b in zip(spans["protocol.pack_array"], spans["protocol.unpack_array"])])

    if traffic.name == "serve_mnist":
        session = InferenceSession.from_deployed(
            traffic.artifact, precision=traffic.precision, executor="serial")
        batch = max(1, int(round(out["serving.rows_per_batch"])))
        ws = Workspace(session.arena_buckets)
        x = traffic.pool[:batch]
        for _ in range(200):
            h = x
            for index, op in enumerate(session.ops):
                with tracer.span(f"runtime.plan.op{index}"):
                    h = op.run(h, ws)
        spans = tracer.self_us()
        out["runtime.plan_us"] = sum(
            median(spans[f"runtime.plan.op{i}"]) for i in range(len(session.ops)))
        session.close()
    else:
        plan = compile_stream_plan(traffic.artifact, PrecisionPolicy.resolve(traffic.precision))
        states = [plan.open(), plan.open()]
        chunks = [w[: traffic.chunk, None] for w in traffic.wave[:2]]
        for _ in range(200):
            with tracer.span("streaming.push"):
                plan.push(states[0], chunks[0], proba=True)
            with tracer.span("streaming.push_many"):
                plan.push_many(states, chunks, proba=True)
        spans = tracer.self_us()
        out["streaming.push_us"] = median(spans["streaming.push"])
        out["streaming.push_many_us"] = median(spans["streaming.push_many"])
    return out


def _frame_arrays(traffic, item):
    """A request's input rows and its answer's shape, for frame timing."""
    if traffic.name == "serve_mnist":
        return traffic.pool[item.payload], traffic.ref[item.payload]
    return (traffic.wave[0][: traffic.chunk, None],
            traffic.ref[0][: traffic.chunk])
