"""Measurement engines: set-up timing, the request loops, output checks.

A run is either *timed* (a time budget, end-to-end metrics, no tracing)
or *counted* (a fixed number of requests, so every counter the program
keeps repeats exactly; the traced run is a counted run).

Every end-to-end time is read on :data:`CLOCK`, the CPU time of the
process, and scaled to a nominal host speed by a :class:`SpeedProbe`
timed between requests (see ``README.md``, *Clock*).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import resource
import statistics
import time
import weakref
from typing import Dict, List, Optional

import numpy as np

from repro import api

from common import SequenceHash, percentile
from workloads import REFERENCE, Request, UnbiasedCost

#: Seeded sample of requests re-run under the REFERENCE oracle.
ORACLE_SAMPLES = 4
#: The oracle interprets every thread; sample only inputs up to this size.
ORACLE_MAX_ELEMENTS = 1 << 15

#: Span around the untimed ``next()`` on a request stream; the traced
#: run leaves everything under it out of the request-phase layers.
NEXT_SPAN = "bench.next"

#: CPU seconds of this process, all threads.  Unlike wall time it leaves
#: out time the process waits for a CPU, whether other processes or
#: (with paravirtual steal accounting) other guests of the host hold it.
CLOCK = time.process_time


class SpeedProbe:
    """Host-speed normalizer: a fixed unit of work timed between requests.

    A shared host also slows the CPU itself for spells of seconds to
    minutes, when neighbours contend for cores, caches and clock speed;
    CPU time does not leave that out.  The unit does what the program's
    emulated kernels spend their time on -- gathers, broadcasts, casts
    and scatters over small arrays, driven from Python -- so such a
    spell slows it by about the same share.  A time measured next to
    tick ``i`` is scaled by ``NOMINAL_S`` over the median unit time of
    the ``WINDOW`` ticks around ``i``: it then reads in seconds at the
    nominal host speed.  The unit touches no program code, so a change
    to the program moves the scaled times and leaves the unit alone.
    """

    #: The unit's CPU time on an unloaded 2.1 GHz Xeon core (numpy 2.4).
    NOMINAL_S = 0.0002
    #: Ticks whose median sets the speed at one point of a run.
    WINDOW = 15
    SIZES = (32, 128, 512, 2048)
    REPEATS = 6

    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self._work = [(rng.standard_normal(n), rng.integers(0, n, size=n),
                       (4, n), np.empty(n)) for n in self.SIZES]
        self.samples: List[float] = []

    def _unit(self) -> float:
        acc = 0.0
        for _ in range(self.REPEATS):
            for data, index, shape, out in self._work:
                gathered = data[index]
                lanes = np.broadcast_to(gathered, shape)
                cast = (lanes * 1.5 + 0.25).astype(np.float32)
                np.add(cast[1], data, out=out)
                out[index[:16]] = gathered[:16]
                acc += float(out[0])
        return acc

    def tick(self) -> int:
        """Time one unit; returns its index."""
        started = CLOCK()
        self._unit()
        self.samples.append(CLOCK() - started)
        return len(self.samples) - 1

    def block(self) -> float:
        """Scale factor from ``WINDOW`` fresh ticks."""
        first = len(self.samples)
        for _ in range(self.WINDOW):
            self.tick()
        return self.NOMINAL_S / statistics.median(self.samples[first:])

    def scales(self) -> List[float]:
        """Scale factor at every tick: the median of its window."""
        n, half = len(self.samples), self.WINDOW // 2
        out = []
        for i in range(n):
            lo = max(0, min(i - half, n - self.WINDOW))
            out.append(self.NOMINAL_S
                       / statistics.median(self.samples[lo:lo + self.WINDOW]))
        return out

    def unit_ms(self) -> float:
        return statistics.median(self.samples) * 1e3 if self.samples else 0.0


@dataclasses.dataclass
class Budget:
    seconds: float
    #: Timed runs go on until they hold at least this many latencies, so
    #: p99 has at least ten samples beyond it.
    min_samples: int = 1000
    #: Counted runs make exactly this many requests (``None``: timed).
    requests: Optional[int] = None

    @property
    def cap_seconds(self) -> float:
        """Hard stop for a timed run that cannot reach ``min_samples``."""
        return max(3 * self.seconds, self.seconds + 20)


@dataclasses.dataclass
class Outcome:
    """What one measured window produced."""

    attempted: int = 0
    errors: int = 0
    rejections: int = 0
    wrong: int = 0
    #: Per request, on :data:`CLOCK` scaled to nominal host speed.
    latencies: List[float] = dataclasses.field(default_factory=list)
    #: The same requests in unscaled CPU seconds.
    cpu_latencies: List[float] = dataclasses.field(default_factory=list)
    #: Scaled seconds of the timed calls (or bursts); the window.
    window_s: float = 0.0
    #: The same window in unscaled CPU and in wall seconds.
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: Median time of one speed-probe unit over the run.
    unit_ms: float = 0.0
    #: Modeled device ms per request over the hashed prefix.
    device_ms: List[float] = dataclasses.field(default_factory=list)
    sequence: str = ""
    #: (request, forced strategies, vectorized output).
    kept: list = dataclasses.field(default_factory=list)
    #: Per request: the strategies that ran equal unbiased argmin's.
    matches: List[bool] = dataclasses.field(default_factory=list)
    #: Counter deltas summed over programs, for the request phase.
    stats: Optional[api.SelectionStats] = None
    decisions: int = 0
    #: Compile-time model evaluations spent before the first request.
    setup_compile_evals: int = 0
    serve: Dict[str, float] = dataclasses.field(default_factory=dict)
    oracle_checked: int = 0
    oracle_mismatches: int = 0
    #: Peak RSS once the hashed prefix of requests has completed.
    rss_mb: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.errors + self.rejections + self.wrong

    def rate(self) -> float:
        """Requests completed per scaled second of the measured window."""
        return self.completed / self.window_s if self.window_s else 0.0

    def scale(self, probe: SpeedProbe, ticks: List[int]) -> None:
        """Scale the raw CPU latencies by the probe's speed at each."""
        scales = probe.scales()
        self.latencies = [cpu * scales[i]
                          for cpu, i in zip(self.cpu_latencies, ticks)]
        self.unit_ms = probe.unit_ms()


def timed_setup(workload, repeats: int) -> float:
    """Median scaled CPU time of ``repeats`` full set-ups; the last is kept.

    Each set-up is scaled by the probe's speed just before and just
    after it.
    """
    probe, times = SpeedProbe(), []
    for _ in range(repeats):
        gc.collect()
        before = probe.block()
        started = CLOCK()
        workload.setup()
        elapsed = CLOCK() - started
        times.append(elapsed * (before + probe.block()) / 2)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DevicePricer:
    """Modeled device ms of what a run executed, plus modeled transfers."""

    def __init__(self):
        # Per program, held weakly: a workload may replace its programs
        # mid-run, and a dead program's id (or its plans') may be reused.
        self._per_program = weakref.WeakKeyDictionary()

    def __call__(self, program, result, params, share: int = 1) -> float:
        if program not in self._per_program:
            self._per_program[program] = (UnbiasedCost(program), {})
        cost, memo = self._per_program[program]
        strategies = tuple(sel.strategy for sel in result.selections)
        key = (strategies, tuple(sorted((k, v) for k, v in params.items()
                                        if np.isscalar(v))))
        ms = memo.get(key)
        if ms is None:
            by_name = {segment.name: segment for segment in program.segments}
            seconds = sum(cost(by_name[sel.segment].plan_named(sel.strategy),
                               params) for sel in result.selections)
            ms = memo[key] = (seconds + result.transfer_seconds) * 1e3
        return ms / share


class ArgminOracle:
    """Whether a run's strategies equal unbiased ``select_argmin``."""

    def __init__(self):
        self._per_program = weakref.WeakKeyDictionary()

    def __call__(self, program, result, params) -> bool:
        memo = self._per_program.setdefault(program, {})
        key = tuple(sorted((k, v) for k, v in params.items()
                           if np.isscalar(v)))
        best = memo.get(key)
        if best is None:
            best = memo[key] = tuple(
                plan.strategy for plan in program.select_argmin(params))
        return tuple(sel.strategy for sel in result.selections) == best


def _decisions(stats, segments: int) -> int:
    """Per-segment selection decisions so far, forced ones excluded."""
    return stats.select_calls * segments - stats.forced_selections


class Counters:
    """The program's own counters over the request phase.

    Each program counts from when the loop first sees it.  A workload
    may swap in a fresh program mid-run (``feedback-writes`` does, per
    episode, after its set-up); the one it replaces is folded in then.
    Only a program's counters are held, never the program, so a
    replaced program is freed before its successor is built.
    """

    def __init__(self, workload, outcome: Outcome):
        outcome.setup_compile_evals = sum(
            p.stats.compile_evals for p in workload.programs.values())
        self.total, self.decisions = api.SelectionStats(), 0
        self._live: Dict[str, tuple] = {}
        self.note(workload)

    def note(self, workload) -> None:
        for app, program in workload.programs.items():
            live = self._live.get(app)
            if live is None or live[0] is not program.stats:
                if live is not None:
                    self._retire(app)
                segments = len(program.segments)
                self._live[app] = (program.stats, program.stats.snapshot(),
                                   segments,
                                   _decisions(program.stats, segments))

    def _retire(self, app: str) -> None:
        stats, before, segments, decisions = self._live.pop(app)
        self.total.merge(stats.since(before))
        self.decisions += _decisions(stats, segments) - decisions

    def finish(self, outcome: Outcome) -> None:
        for app in list(self._live):
            self._retire(app)
        outcome.stats, outcome.decisions = self.total, self.decisions
        outcome.rss_mb = outcome.rss_mb or peak_rss_mb()


def _outputs_match(output, request: Request) -> bool:
    output = np.asarray(output).reshape(-1)
    expected = request.reference()
    return (output.shape == expected.shape
            and bool(np.allclose(output, expected, rtol=1e-6)))


def _oracle_slots(seed: int, prefix: int) -> set:
    rng = np.random.default_rng([seed, 0x0AC1E])
    return set(int(i) for i in rng.choice(prefix, size=min(ORACLE_SAMPLES,
                                                           prefix),
                                          replace=False))


def _keep_for_oracle(outcome, slots, index, request, result,
                     output) -> None:
    """Keep a sampled request (or the next small one after its slot)."""
    if not slots or index < min(slots):
        return
    if request.data.size > ORACLE_MAX_ELEMENTS:
        return
    slots.discard(min(slots))
    strategies = {sel.segment: sel.strategy for sel in result.selections}
    outcome.kept.append((request, strategies, np.array(output, copy=True)))


def oracle_check(workload, outcome: Outcome) -> None:
    """Re-run kept requests under REFERENCE with the same variants.

    Every executor path must be bit-identical to the oracle; outside the
    timed window, and counted as wrong outputs when it is not.  The
    variants are forced, so the app's current program serves even when
    the one that ran has since been replaced.
    """
    for request, strategies, output in outcome.kept:
        again = workload.programs[request.app].run(
            request.data, request.params, force=strategies,
            options=REFERENCE)
        outcome.oracle_checked += 1
        if np.asarray(again.output).tobytes() != output.tobytes():
            outcome.oracle_mismatches += 1
            outcome.wrong += 1


def _over(budget: Budget, outcome: Outcome, started: float,
          completed: int) -> bool:
    """Whether the loop is done; a timed run's length is wall time."""
    if budget.requests is not None:
        return outcome.attempted >= budget.requests
    elapsed = time.perf_counter() - started
    return ((elapsed >= budget.seconds and completed >= budget.min_samples)
            or elapsed > budget.cap_seconds)


def run_closed(workload, budget: Budget, tracer=None,
               accuracy: bool = False) -> Outcome:
    """One caller, next request only after the previous one completes."""
    outcome = Outcome()
    pricer, argmin, probe = DevicePricer(), ArgminOracle(), SpeedProbe()
    prefix = budget.requests or budget.min_samples
    slots = _oracle_slots(workload.seed, prefix)
    digest = SequenceHash()
    stream = workload.requests()
    ticks: List[int] = []
    counters = Counters(workload, outcome)
    gc.collect()
    started = time.perf_counter()
    while not _over(budget, outcome, started, len(ticks)):
        # Untimed: input generation, and any fresh set-up it makes; the
        # last request's program and result are dropped first.
        program = result = None
        with (tracer.span(NEXT_SPAN) if tracer else contextlib.nullcontext()):
            request = next(stream)
        counters.note(workload)
        index = outcome.attempted
        if index < prefix:
            digest.add(request.app, request.scalars(), [request.data])
        program = workload.programs[request.app]
        tick = probe.tick()
        span = (tracer.span("bench.request", request=index) if tracer
                else contextlib.nullcontext())
        outcome.attempted += 1
        with span:
            w0, c0 = time.perf_counter(), CLOCK()
            try:
                result = workload.execute(request)
            except Exception:                      # counted, never fatal
                outcome.errors += 1
                continue
            cpu, wall = CLOCK() - c0, time.perf_counter() - w0
        ticks.append(tick)
        outcome.cpu_latencies.append(cpu)
        outcome.cpu_s += cpu
        outcome.wall_s += wall
        # -- untimed: checks and modeled costs ----------------------------
        if not _outputs_match(result.output, request):
            outcome.wrong += 1
        if index < prefix:
            outcome.device_ms.append(pricer(program, result, request.params))
            if index == prefix - 1:
                outcome.rss_mb = peak_rss_mb()
        _keep_for_oracle(outcome, slots, index, request, result,
                         result.output)
        if accuracy:
            outcome.matches.append(argmin(program, result, request.params))
    outcome.scale(probe, ticks)
    outcome.window_s = sum(outcome.latencies)
    outcome.sequence = digest.hexdigest()
    counters.finish(outcome)
    return outcome


def run_bursts(workload, budget: Budget, tracer=None,
               accuracy: bool = False) -> Outcome:
    """Bursts through ``Server.submit``; one caller awaits each burst.

    A request's latency is the process's CPU time (server threads
    included) from its burst's submission to its own result, scaled by
    the probe's speed at the burst.  Outputs are checked between bursts,
    outside the timed sections, so memory does not grow with the run.
    """
    outcome = Outcome()
    pricer, argmin, probe = DevicePricer(), ArgminOracle(), SpeedProbe()
    digest = SequenceHash()
    program = workload.programs["tmv"]
    counters = Counters(workload, outcome)
    prefix = budget.requests or budget.min_samples
    slots = _oracle_slots(workload.seed, prefix)
    ticks: List[int] = []
    windows: List[tuple] = []                    # (tick, burst CPU s)
    queue, batch = [], []

    async def one(request, tenant, submitted, served):
        try:
            result = await server.submit(request.data, request.params,
                                         tenant=tenant)
        except api.AdmissionError:
            outcome.rejections += 1
            return
        except Exception:                          # counted, never fatal
            outcome.errors += 1
            return
        served.append((request, result, CLOCK() - submitted))

    def check(served) -> None:
        """Untimed: outputs, modeled costs and serving shape of a burst."""
        for request, result, cpu in served:
            index = len(outcome.cpu_latencies)
            outcome.cpu_latencies.append(cpu)
            if not _outputs_match(result.output, request):
                outcome.wrong += 1
            k = result.batch_size if result.fused else 1
            ran_at = ({**request.params, "rows": request.params["rows"] * k}
                      if result.fused else request.params)
            if index < prefix:
                outcome.device_ms.append(
                    pricer(program, result.run, ran_at, k))
                if index == prefix - 1:
                    outcome.rss_mb = peak_rss_mb()
            _keep_for_oracle(outcome, slots, index, request, result.run,
                             result.output)
            if accuracy:
                outcome.matches.append(argmin(program, result.run,
                                              request.params))
            queue.append(result.stage_seconds.get("queue", 0.0))
            batch.append(result.stage_seconds.get("batch", 0.0))

    async def main():
        before = probe.block()
        started = CLOCK()
        await server.start()
        outcome.serve["start_s"] = ((CLOCK() - started)
                                    * (before + probe.block()) / 2)
        gc.collect()
        began = time.perf_counter()
        bursts = workload.bursts()
        while not _over(budget, outcome, began, len(ticks)):
            tenant, requests = next(bursts)
            for request in requests:             # untimed: the hash
                if digest.count < prefix:
                    digest.add(f"{request.app}/{tenant}",
                               request.scalars(), [request.data])
            outcome.attempted += len(requests)
            tick = probe.tick()
            served = []
            span = (tracer.span("bench.burst", request=outcome.attempted)
                    if tracer else contextlib.nullcontext())
            with span:
                w0, c0 = time.perf_counter(), CLOCK()
                await asyncio.gather(*(one(request, tenant, c0, served)
                                       for request in requests))
                cpu = CLOCK() - c0
                outcome.wall_s += time.perf_counter() - w0
            outcome.cpu_s += cpu
            windows.append((tick, cpu))
            ticks.extend([tick] * len(served))
            check(served)
        await server.close()

    server = workload.server()
    asyncio.run(main())
    outcome.scale(probe, ticks)
    scales = probe.scales()
    outcome.window_s = sum(cpu * scales[tick] for tick, cpu in windows)
    metrics = server.metrics
    outcome.sequence = digest.hexdigest()
    counters.finish(outcome)
    outcome.serve.update({
        "queue_ms_p50": percentile(queue, 50) * 1e3,
        "queue_ms_p99": percentile(queue, 99) * 1e3,
        "batch_ms_p50": percentile(batch, 50) * 1e3,
        "mean_batch": metrics.mean_batch_size(),
        "fused_share": (metrics.fused_dispatches / metrics.dispatches
                        if metrics.dispatches else 0.0),
        "rejections": float(metrics.rejections),
    })
    return outcome
