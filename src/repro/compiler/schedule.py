"""Bound execution schedules: a warm binding's chain, lowered once.

The first run of a (binding, selection, input location, exec mode) lowers
the selected plan chain into a :class:`Schedule`, an immutable tuple of
steps, and every later run at that key replays it.  Data movement is
explicit — :class:`Restructure`, :class:`H2D` and :class:`D2H` are steps
beside the :class:`Kernel`, :class:`FusedSpan` and :class:`Host` steps that
compute — which makes a schedule the linear special case of an SDFG state
("Stateful Dataflow Multigraphs"): where the data lives between segments
is decided here, once, instead of by control flow on every run.

Everything a step needs that depends only on the binding is bound at
lowering (:meth:`KernelPlan.bind`: sizes, element functions, reducers,
tiles, offsets, cell masks, launch geometry; plus each segment's
predicted cost and the chain's modeled transfer time), so a replay only
allocates, copies and launches.  Steps hold no per-run state, so threads
may replay one schedule concurrently on their own devices.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import (KernelExecutionError, KernelTimeoutError, ReproError)
from ..faults import KIND_NAN, KIND_TIMEOUT
from ..gpu import MODE_VECTORIZED, Device
from .costing import predicted_chain_fuse_gain
from .exprgen import compile_chain_fn
from .plans.base import KernelPlan, freeze_arrays, freeze_scalars
from .segments import chain_spans

#: Layouts that need no host-side restructuring.
CANONICAL_LAYOUTS = frozenset({"interleaved", "rows"})

#: Per-run wall-clock stages, in pipeline order.
STAGES = ("select", "restructure", "h2d", "kernel", "d2h", "compile")


@dataclasses.dataclass
class SegmentExecution:
    """What ran for one segment."""

    segment: str
    kind: str
    strategy: str
    predicted_seconds: float
    optimizations: List[str]
    #: Measured wall-clock of this segment's execution (includes any
    #: in-execute compilation on a cold run; warm runs are pure kernel
    #: time).  The feedback layer's wall-clock observation source.
    measured_seconds: float = 0.0


# ----------------------------------------------------------------------
# Steps
# ----------------------------------------------------------------------
class Restructure:
    """Stage a host input into the first plan's layout (a strided view)."""

    stage = "restructure"
    rows = 0

    def __init__(self, plan: KernelPlan, params):
        self.plan = plan
        self.params = params

    def run(self, device: Device, data):
        return self.plan.restructure_input(data, self.params)


class H2D:
    """Copy the host value into a device buffer."""

    stage = "h2d"
    rows = 0

    def __init__(self, name: str):
        self.name = name

    def run(self, device: Device, data):
        return device.to_device(data, name=self.name)


class D2H:
    """Copy the device value back to the host."""

    stage = "d2h"
    rows = 0

    def run(self, device: Device, buf):
        return device.to_host(buf)


class _SegmentStep:
    """One segment's bound execution, with fault injection and wrapping.

    Every failure — binding at lowering or running at replay — leaves as
    a :class:`KernelExecutionError` carrying the segment name, strategy
    tag, scalar params and chain position: the context quarantine and
    re-selection need.  With no injector this adds one ``None`` check to
    the replay and nothing else.
    """

    stage = "kernel"
    rows = 1

    def __init__(self, index: int, segment, plan: KernelPlan, params,
                 predicted: float, injector):
        self.index = index
        self.segment = segment.name
        self.kind = segment.kind
        self.plan = plan
        self.scalars = dict(freeze_scalars(params))
        self.predicted = predicted
        self.injector = injector

    def report(self, seconds: float) -> List[SegmentExecution]:
        return [SegmentExecution(
            segment=self.segment, kind=self.kind,
            strategy=self.plan.strategy, predicted_seconds=self.predicted,
            optimizations=list(self.plan.optimizations),
            measured_seconds=seconds)]

    def failure(self, message: str, **context) -> KernelExecutionError:
        return KernelExecutionError(
            message, segment=self.segment, plan=self.plan.strategy,
            params=dict(self.scalars), segment_index=self.index, **context)

    def guarded(self, call, *args):
        """``call(*args)`` with every failure typed as this segment's."""
        try:
            return call(*args)
        except KernelExecutionError as exc:
            # Launch-scope injected faults and executor-level failures
            # (LaunchError, BarrierDivergenceError) arrive pre-typed;
            # fill in whatever context they are missing.
            for name, value in (("segment", self.segment),
                                ("plan", self.plan.strategy),
                                ("params", dict(self.scalars)),
                                ("segment_index", self.index)):
                if getattr(exc, name) is None:
                    setattr(exc, name, value)
            raise
        except ReproError:
            raise
        except Exception as exc:
            raise self.failure(
                f"plan {self.plan.strategy!r} failed in segment "
                f"{self.segment!r}: {exc}", kind="crash") from exc

    def run(self, device: Device, value):
        injector = self.injector
        fault = (injector.on_execute(self.plan) if injector is not None
                 else None)
        if fault is not None and fault.kind != KIND_NAN:
            cls = (KernelTimeoutError if fault.kind == KIND_TIMEOUT
                   else KernelExecutionError)
            raise cls(
                f"injected {fault.kind} fault in plan "
                f"{self.plan.strategy!r}", injected=True, kind=fault.kind,
                segment=self.segment, plan=self.plan.strategy,
                params=dict(self.scalars), segment_index=self.index)
        out = self.guarded(self.execute, device, value)
        if injector is not None:
            # Output poisoning is only detectable by looking; the check
            # runs solely when an injector is installed.
            data = self.output_data(out)
            if (isinstance(data, np.ndarray)
                    and np.issubdtype(data.dtype, np.floating)):
                if fault is not None:          # KIND_NAN: poison it
                    data.fill(np.nan)
                if np.isnan(data).any():
                    raise self.failure(
                        f"NaN output from plan {self.plan.strategy!r} in "
                        f"segment {self.segment!r}",
                        injected=fault is not None, kind=KIND_NAN)
        return out


class Kernel(_SegmentStep):
    """A device-placed segment: ``plan.bind(params)`` run on the buffer."""

    def __init__(self, index, segment, plan, params, predicted, injector):
        super().__init__(index, segment, plan, params, predicted, injector)
        self.fn = self.guarded(plan.bind, params)

    def execute(self, device: Device, buf):
        return self.fn(device, buf)

    @staticmethod
    def output_data(out):
        return getattr(out, "data", None)


class Host(_SegmentStep):
    """A CPU-placed segment: ``plan.execute_host`` on the host value."""

    def __init__(self, index, segment, plan, params, predicted, injector):
        super().__init__(index, segment, plan, params, predicted, injector)
        self.bound = self.guarded(plan.bind_host, params)

    def execute(self, device: Device, data):
        return np.asarray(self.plan.execute_host(data, self.bound),
                          dtype=np.float64).reshape(-1)

    @staticmethod
    def output_data(out):
        return out


class FusedSpan:
    """Segments ``start..end-1`` as one emitted whole-array kernel.

    Per-segment report rows survive fusion: each member keeps its own
    predicted cost and a predicted-share slice of the measured span
    wall-clock (the feedback layer observes per segment).  A failure is
    anchored at the span's first segment, so quarantine re-selects there
    and the replacement chain lowers afresh.
    """

    stage = "kernel"

    def __init__(self, start: int, segments, plans, params, predicted,
                 fn, sizes):
        self.start = start
        self.fn = fn
        self.outs = tuple((size, f"{segment.name}.out")
                          for segment, size in zip(segments, sizes))
        self.members = tuple(
            (segment.name, segment.kind, plan.strategy, seconds,
             tuple(plan.optimizations) + ("chain_fusion",))
            for segment, plan, seconds in zip(segments, plans, predicted))
        self.rows = len(self.members)
        self.first = (segments[0].name, segments[-1].name,
                      plans[0].strategy, dict(freeze_scalars(params)))

    def run(self, device: Device, buf):
        outs = [device.alloc(size, dtype=np.float64, name=name)
                for size, name in self.outs]
        try:
            device.launch_fused_chain(
                self.fn, [buf.data] + [out.data for out in outs])
        except ReproError:
            raise
        except Exception as exc:
            first, last, strategy, scalars = self.first
            raise KernelExecutionError(
                f"fused chain {first!r}..{last!r} failed: {exc}",
                segment=first, plan=strategy, params=dict(scalars),
                kind="crash", segment_index=self.start) from exc
        return outs[-1]

    def report(self, seconds: float) -> List[SegmentExecution]:
        total = sum(member[3] for member in self.members)
        return [SegmentExecution(
            segment=name, kind=kind, strategy=strategy,
            predicted_seconds=predicted, optimizations=list(optimizations),
            measured_seconds=seconds * (predicted / total if total > 0
                                        else 1.0 / self.rows))
            for name, kind, strategy, predicted, optimizations
            in self.members]


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Schedule:
    """One lowered (binding, selection, location, exec mode)."""

    steps: Tuple[object, ...]
    #: Input elements the binding expects.
    input_size: int
    #: Sum of the segments' predicted seconds (the raw, uncalibrated
    #: model — what run reports carry).
    predicted_seconds: float
    #: Modeled transfer seconds for this location and placement.
    transfer_seconds: float
    #: Fused-span steps replayed per run.
    fused: int
    #: Plans and parameter arrays whose ``id()`` keys the schedule.
    pins: Tuple[object, ...]


def schedule_key(plans: Sequence[KernelPlan], params, location, mode,
                 injector) -> tuple:
    """A schedule's cache key.  The fault injector is part of it: steps
    bind the injector they consult, and fusion is off under one."""
    return (tuple(map(id, plans)), freeze_scalars(params),
            freeze_arrays(params), location, mode, injector)


def lower(program, plans: Sequence[KernelPlan], params, location,
          mode) -> Schedule:
    """Lower one selected chain of ``program`` into a :class:`Schedule`.

    Placement hops are inserted here and only here: a host input is
    restructured for a non-canonical first plan and copied H2D unless
    the first segment runs on the CPU; a value changes sides (one
    H2D/D2H) exactly where consecutive placements differ; a chain that
    ends on the device copies its output back.  Without placement as a
    selection axis every segment runs on the device.
    """
    segments = program.segments
    on_host = location.on_host
    placed = program._placement
    injector = program.faults
    predicted = [program.cost.plan_seconds(plan, params) for plan in plans]
    spans = _fused_spans(program, plans, params, mode)
    steps: List[object] = []
    on_device = False
    index = 0
    while index < len(segments):
        segment, plan = segments[index], plans[index]
        on_cpu = placed and plan.placement == "cpu"
        if index == 0:
            if on_host and plan.input_layout not in CANONICAL_LAYOUTS:
                steps.append(Restructure(plan, params))
            if not (on_cpu and on_host):
                # A device-resident input feeding a CPU plan still pays
                # the D2H hop its cost carried (below).
                steps.append(H2D(f"{segment.name}.in"))
                on_device = True
        span = spans.get(index)
        wants_device = span is not None or not on_cpu
        if wants_device and not on_device:
            steps.append(H2D(f"{segment.name}.in"))
        elif not wants_device and on_device:
            steps.append(D2H())
        on_device = wants_device
        if span is not None:
            end, fn, sizes = span
            steps.append(FusedSpan(index, segments[index:end],
                                   plans[index:end], params,
                                   predicted[index:end], fn, sizes))
            index = end
            continue
        step = Host if on_cpu else Kernel
        steps.append(step(index, segment, plan, params, predicted[index],
                          injector))
        index += 1
    if on_device:
        steps.append(D2H())
    transfer = program.transfer_seconds(
        params, location=location,
        placements=(tuple(p.placement for p in plans) if placed
                    else None))
    pins = tuple(plans) + tuple(value for value in params.values()
                                if not np.isscalar(value)
                                and value is not None)
    return Schedule(steps=tuple(steps),
                    input_size=program.input_size(params),
                    predicted_seconds=sum(predicted),
                    transfer_seconds=transfer,
                    fused=len(spans), pins=pins)


def _fused_spans(program, plans: Sequence[KernelPlan], params,
                 mode) -> Dict[int, tuple]:
    """``{start: (end, fn, output_sizes)}`` for every span worth fusing.

    Empty when chain fusion is off or unavailable: fault injection
    targets per-segment launches (a fused span would launder injected
    faults past their segment rules), and only the vectorized executor
    runs fused chains.
    """
    options = program.options
    if (not getattr(options, "fuse_chains", False)
            or program.faults is not None or mode != MODE_VECTORIZED):
        return {}
    spans = {}
    min_gain = getattr(options, "fuse_min_gain", 1.05)
    overhead = program.spec.kernel_launch_overhead_us * 1e-6
    cost = program._selection_cost()
    for start, end, stages in chain_spans(plans, params):
        span_plans = plans[start:end]
        if predicted_chain_fuse_gain(cost, span_plans, params,
                                     overhead) < min_gain:
            continue
        chain_id = "->".join(program.segments[j].name
                             for j in range(start, end))
        fn = compile_chain_fn(stages, params, chain_id=chain_id)
        spans[start] = (end, fn,
                        [plan.output_size(params) for plan in span_plans])
    return spans


def replay(schedule: Schedule, value, device: Device,
           stage: Dict[str, float]) -> Tuple[np.ndarray,
                                             List[SegmentExecution]]:
    """Run ``schedule`` on ``value``; returns ``(output, report rows)``.

    Each step's wall-clock lands on ``stage[step.stage]``; every device
    buffer the replay allocates returns to the device's arena at the end
    (the output is a host copy).
    """
    rows: List[SegmentExecution] = []
    clock = time.perf_counter
    with device.scope():
        for step in schedule.steps:
            started = clock()
            value = step.run(device, value)
            seconds = clock() - started
            stage[step.stage] += seconds
            if step.rows:
                rows.extend(step.report(seconds))
    return value, rows
