"""Compiled programs and runtime kernel management (§3).

A :class:`CompiledProgram` is Adaptic's output: the segment chain with all
surviving kernel variants.  At execution time the runtime kernel-management
unit inspects the actual input parameters, picks the fastest variant, and
runs it.  Selection has a fast path and an exact fallback:

* **dispatch tables** — :meth:`bake_decision_tables` (run automatically
  after :meth:`prune_variants`) precompiles each segment's winner per
  input subrange along a declared input axis; an in-range ``select()`` is
  then a bisect with *zero* model evaluations;
* **model-argmin fallback** — out-of-range, multi-axis-unbaked, or
  device-resident inputs are resolved exactly, "a handful of closed-form
  evaluations completely executed on the CPU during the initial data
  transfer" — now memoized per ``(plan, scalar params)`` in a
  :class:`~repro.compiler.stats.CostCache` shared by every compile-time
  analysis and experiment driver.

Every model evaluation, cache hit, table hit/fallback and the select()
wall-clock is counted in :attr:`CompiledProgram.stats`.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..artifacts import (ArtifactBundle, BUNDLE_SCHEMA_VERSION,
                         decode_ndarray, decode_scalars, encode_ndarray,
                         encode_scalars, program_fingerprint, _repro_version)
from ..errors import (BundleFormatError, BundleProgramError, CalibrationError,
                      CompileError, KernelExecutionError, KernelTimeoutError,
                      ModelSweepError, ReproError, SelectionError)
from ..faults import KIND_NAN, KIND_RAISE, KIND_TIMEOUT
from ..gpu import Device, ExecMode, GPUSpec, MODE_REFERENCE, \
    MODE_VECTORIZED, PCIE_BANDWIDTH_GBPS
from ..perfmodel import AxisSpec, CalibrationStore, DecisionTable, \
    FeedbackConfig, PerformanceModel, RegionTable, Variant, geometric_points, \
    hop_seconds, layout_transform_seconds, size_bucket, sweep_axis, \
    sweep_region
from .costing import predicted_chain_fuse_gain
from .exprgen import (COMPILE_COUNTER, SOURCE_REGISTRY, KernelFactories,
                      compile_chain_fn)
from .plans.base import IN, KernelPlan, RESTRUCTURE_COUNTER, freeze_arrays, \
    freeze_scalars
from .segments import RegionDispatch, Segment, SegmentDispatch, chain_spans
from .stats import CostCache, SelectionStats

#: Layouts that need no host-side restructuring.
_CANONICAL = {"interleaved", "rows"}

_MISS = object()


class InputLocation(str, enum.Enum):
    """Where the program input lives when ``run()`` / ``select()`` is called.

    ``HOST`` inputs can be restructured on the host before the H2D copy;
    ``DEVICE`` inputs (e.g. a matrix reused across solver iterations) pin
    the first segment to plans that need no host-side staging.
    """

    HOST = "host"
    DEVICE = "device"

    def __str__(self) -> str:
        return self.value

    @property
    def on_host(self) -> bool:
        return self is InputLocation.HOST


@dataclasses.dataclass
class RunOptions:
    """Execution options for ``run`` / ``warmup`` / ``run_batch`` /
    ``run_many`` / ``recalibrate`` (and, via
    :class:`~repro.serve.ServeConfig`, the serving front door).

    The only way to configure a run: one value that can be built once
    and reused across calls.  ``exec_mode`` and ``location`` are
    normalized with the enum constructors, so an unknown mode or a
    location that is not ``"host"`` / ``"device"`` (a ``bool``
    included) raises :class:`ValueError`.  ``workers`` only affects the
    batch entry points; ``run`` / ``warmup`` ignore it.
    """

    #: Executor path; ``None`` defers to the program's default mode.
    exec_mode: Optional[ExecMode] = None
    #: Where the input lives when the call is made.
    location: InputLocation = InputLocation.HOST
    #: Fold measured times back into calibration (bool, or a
    #: :class:`FeedbackConfig` overriding the program's policy).
    feedback: Union[bool, FeedbackConfig] = False
    #: Batch fan-out width (``run_batch`` / ``run_many`` only).
    workers: int = 1
    #: Placement constraint: ``"auto"`` lets the cost model choose per
    #: segment, ``"gpu"`` / ``"cpu"`` pin every segment that has a plan
    #: on that side (segments without one keep their only placement).
    placement: str = "auto"

    def __post_init__(self):
        if self.exec_mode is not None:
            self.exec_mode = ExecMode(self.exec_mode)
        self.location = InputLocation(self.location)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.placement not in ("auto", "gpu", "cpu"):
            raise ValueError(
                f"unknown placement {self.placement!r}; expected "
                f"'auto', 'gpu' or 'cpu'")


class _CalibratedCost:
    """Duck-typed :class:`CostCache` view with calibration factors applied.

    Delegates the raw prediction to the shared memoized cache (counters
    intact), then multiplies by the plan family's learned scale at the
    binding's size bucket.  Calibrated values are never written back into
    the cache — factors drift, memoized raw costs do not.
    """

    def __init__(self, cost: CostCache, store: CalibrationStore):
        self._cost = cost
        self._store = store

    def plan_seconds(self, plan: KernelPlan, params) -> float:
        raw = self._cost.plan_seconds(plan, params)
        return raw * self._store.scale(plan.family, size_bucket(params))


@dataclasses.dataclass
class SegmentExecution:
    """What ran for one segment."""

    segment: str
    kind: str
    strategy: str
    predicted_seconds: float
    optimizations: List[str]
    #: Measured wall-clock of this segment's ``plan.execute`` (includes
    #: any in-execute compilation on a cold run; warm runs are pure
    #: kernel time).  The feedback layer's wall-clock observation source.
    measured_seconds: float = 0.0


@dataclasses.dataclass
class BatchOutcome:
    """Per-index outcome of one :meth:`CompiledProgram.run_batch` call.

    ``results[i]`` is the item's :class:`RunResult` or ``None`` when it
    failed; ``errors`` maps each failed index to its exception.  The
    serving front door consumes this directly (one failed request must
    resolve its own future without disturbing batch-mates);
    :meth:`CompiledProgram.run_many` wraps it back into the historical
    raise-on-any-failure contract.
    """

    results: List[Optional["RunResult"]]
    errors: Dict[int, BaseException]

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclasses.dataclass
class RunResult:
    """Functional output plus the modeled execution report."""

    output: np.ndarray
    selections: List[SegmentExecution]
    predicted_kernel_seconds: float
    transfer_seconds: float
    #: Measured wall-clock per pipeline stage of this run:
    #: ``select`` / ``restructure`` / ``h2d`` / ``kernel`` / ``d2h`` /
    #: ``compile``.  The kernel stage excludes compile time so a warm run
    #: is directly comparable to a cold one.
    stage_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def predicted_total_seconds(self) -> float:
        return self.predicted_kernel_seconds + self.transfer_seconds

    def strategy_of(self, segment: str) -> str:
        for sel in self.selections:
            if sel.segment == segment:
                return sel.strategy
        raise SelectionError(
            f"no segment {segment!r} in this run; executed segments: "
            f"{[sel.segment for sel in self.selections]}", segment=segment)


class CompiledProgram:
    """Adaptic's output: selectable kernel variants per segment."""

    def __init__(self, program, spec: GPUSpec, model: PerformanceModel,
                 segments: List[Segment], options):
        self.program = program
        self.spec = spec
        self.model = model
        self.segments = segments
        self.options = options
        #: Element factories shared by every plan: the variants of a
        #: segment read the same expressions, so each compiles once per
        #: program and serves every variant at every input shape.
        self.factories = KernelFactories()
        for segment in segments:
            for plan in segment.plans:
                plan.use_factories(self.factories)
        #: Memoized cost layer + observability counters (repro.compiler.stats).
        self.cost = CostCache(model)
        #: Element type used on the PCIe wire for program inputs/outputs.
        #: Both the transfer-time model and ``run()``'s input staging cast
        #: to this dtype, so predicted and measured transfers agree.
        self.wire_dtype = np.dtype(np.float64)
        #: Per-exec-mode devices owned by this program (used when ``run()``
        #: is called without an explicit device) so the buffer arena stays
        #: warm across calls.
        self._run_devices: Dict[str, Device] = {}
        self._device_lock = threading.Lock()
        #: Memoized transfer model per frozen-scalar binding (the size
        #: expressions it evaluates are pure in the scalars).
        self._transfer_memo: Dict[tuple, float] = {}
        #: Direction-aware transfer memo for non-default (location,
        #: placement) shapes; never serialized into bundles — the legacy
        #: all-GPU host-resident values above are the bundle payload.
        self._directed_transfer_memo: Dict[tuple, float] = {}
        #: Whether the compile options made placement a selection axis
        #: (CPU plan variants priced against GPU ones, boundary transfer
        #: and layout costs included in sweeps and argmin fallback).
        self._placement = bool(getattr(options, "placement", False))
        #: Measured-feedback state: per-family EWMA calibration factors,
        #: raw observations, probe budgets (repro.perfmodel.calibration).
        self.calibration = CalibrationStore()
        #: Policy for the feedback loop (margin, probe budget, observer).
        self.feedback = FeedbackConfig()
        #: Optional :class:`~repro.faults.FaultInjector` (from
        #: ``options.faults``) consulted around every segment execution
        #: and threaded into program-owned devices.
        self.faults = getattr(options, "faults", None)
        #: Exec mode used when neither ``run()`` nor ``run_many()`` names
        #: one; owned devices *and* batch worker devices honor it, so both
        #: paths run the same executor by construction.
        self.default_exec_mode = MODE_REFERENCE
        #: Serializes quarantine + re-selection during failure recovery
        #: (the cost cache and calibration store are unsynchronized).
        self._quarantine_lock = threading.Lock()
        #: Fused-chain plan memo: (plan ids, frozen params) -> span table
        #: (or ``None`` when nothing in the selection fuses).  Populated
        #: during warmup/single-threaded runs; worker threads only read
        #: memoized entries, mirroring the cost-cache discipline.
        self._chain_cache: Dict[tuple, object] = {}
        #: Arrays pinned so the id()-based chain-cache keys stay unambiguous.
        self._chain_pins: List[object] = []

    @property
    def stats(self) -> SelectionStats:
        """Selection counters for this program (model evals, hits, ...)."""
        return self.cost.stats

    def plan_seconds(self, plan: KernelPlan,
                     params: Dict[str, float]) -> float:
        """Memoized model-predicted time of one plan at one input."""
        return self.cost.plan_seconds(plan, params)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _eligible(self, segment: Segment, from_host: bool,
                  params: Optional[Dict[str, float]] = None
                  ) -> List[KernelPlan]:
        if from_host:
            plans = segment.plans
        else:
            canonical = [p for p in segment.plans
                         if p.input_layout in _CANONICAL]
            plans = canonical or segment.plans
        if params is not None and self.calibration.has_quarantines():
            bucket = size_bucket(params)
            healthy = [p for p in plans
                       if not self.calibration.is_quarantined(p.strategy,
                                                              bucket)]
            # All-quarantined: serve the unfiltered list as a last resort
            # rather than failing selection outright.
            plans = healthy or plans
        return plans

    def _selection_cost(self):
        """Cost view dispatch decisions use: calibrated iff feedback has
        observed anything (or a model bias is injected); the raw memo
        otherwise, so a program that never sees feedback selects — and
        counts — identically to one without the calibration layer."""
        if self.calibration.is_identity():
            return self.cost
        return _CalibratedCost(self.cost, self.calibration)

    def _placement_extra(self, segment: Segment, plan: KernelPlan,
                         params: Dict[str, float], prev: Optional[str],
                         first: bool, last: bool,
                         entry_on_host: bool = True) -> float:
        """Additive boundary cost of placing ``plan`` after ``prev``.

        Placement-aware pricing charges what the chain-level transfer
        model will: a PCIe hop whenever the data must change sides to
        reach this plan (host entry counts as the CPU side, a
        device-resident entry as the GPU side), a host-side layout
        gather when a non-canonical GPU plan stages a host input, and
        the exit D2H when the last segment runs on the GPU.  Used only
        when placement is a selection axis, so legacy programs rank
        variants exactly as before.
        """
        placement = getattr(plan, "placement", "gpu")
        itemsize = self.wire_dtype.itemsize
        extra = 0.0
        if first:
            prev = "cpu" if entry_on_host else "gpu"
        if prev is not None and placement != prev:
            extra += hop_seconds(segment.input_size(params) * itemsize)
        if first and entry_on_host and placement == "gpu" \
                and plan.input_layout not in _CANONICAL:
            extra += layout_transform_seconds(
                segment.input_size(params) * itemsize)
        if last and placement == "gpu":
            extra += hop_seconds(segment.output_size(params) * itemsize)
        return extra

    def _placed_argmin(self, cost, segment: Segment,
                       plans: Sequence[KernelPlan],
                       params: Dict[str, float], prev: Optional[str],
                       first: bool, last: bool,
                       entry_on_host: bool) -> KernelPlan:
        """Exact argmin with boundary transfer/layout terms included."""
        best, best_seconds = None, math.inf
        for plan in plans:
            seconds = cost.plan_seconds(plan, params) \
                + self._placement_extra(segment, plan, params, prev,
                                        first, last, entry_on_host)
            if math.isfinite(seconds) and seconds < best_seconds:
                best, best_seconds = plan, seconds
        if best is None:
            raise SelectionError(
                f"no plan of segment {segment.name!r} has a finite "
                f"placed cost for params {dict(freeze_scalars(params))}",
                segment=segment.name)
        return best

    @staticmethod
    def _restrict_placement(plans: Sequence[KernelPlan],
                            placement: str) -> List[KernelPlan]:
        """Plans on the requested side; all of them when none is there
        (a segment without a CPU variant keeps its GPU one — pinning
        constrains what it can, it never makes a segment unrunnable)."""
        if placement == "auto":
            return list(plans)
        matching = [p for p in plans
                    if getattr(p, "placement", "gpu") == placement]
        return matching or list(plans)

    def select(self, params: Dict[str, float],
               force: Optional[Dict[str, str]] = None, *,
               input_on_host: InputLocation = InputLocation.HOST,
               placement: str = "auto") -> List[KernelPlan]:
        """Pick one plan per segment for this input (runtime management).

        ``input_on_host=InputLocation.DEVICE`` marks inputs already
        resident in device memory (e.g. a matrix reused across solver
        iterations): host-side memory restructuring is then unavailable
        to the first segment.

        A segment with a baked, applicable dispatch table is decided by
        bisect with zero model evaluations; everything else falls back to
        the exact (memoized) model-argmin — calibrated by the measured
        feedback factors when any have been learned.  With placement
        compiled as a selection axis the fallback prices each candidate's
        boundary transfers (and the baked tables already did), so a CPU
        variant wins exactly where hops plus host compute beat the GPU
        chain.  ``placement="gpu"`` / ``"cpu"`` pins every segment that
        has a plan on that side (overriding baked winners on the other
        side); the default ``"auto"`` keeps the zero-evaluation table
        path.
        """
        started = time.perf_counter()
        stats = self.stats
        stats.select_calls += 1
        force = force or {}
        cost = self._selection_cost()
        chosen: List[KernelPlan] = []
        location = InputLocation(input_on_host)
        from_host = location.on_host
        quarantined = self.calibration.has_quarantines()
        bucket = size_bucket(params) if quarantined else None
        prev_placement: Optional[str] = None
        last_index = len(self.segments) - 1
        for index, segment in enumerate(self.segments):
            if segment.name in force:
                plan = segment.plan_named(force[segment.name])
                stats.forced_selections += 1
            else:
                plan = None
                if segment.dispatch is not None:
                    winner = segment.dispatch.lookup(params, from_host)
                    if (winner is not None and quarantined
                            and self.calibration.is_quarantined(winner,
                                                                bucket)):
                        winner = None   # baked winner is quarantined
                    if (winner is not None and placement != "auto"
                            and getattr(segment.plan_named(winner),
                                        "placement", "gpu") != placement
                            and any(getattr(p, "placement", "gpu")
                                    == placement for p in segment.plans)):
                        winner = None   # baked winner is on the wrong side
                    if winner is not None:
                        plan = segment.plan_named(winner)
                        stats.table_hits += 1
                        if type(segment.dispatch) is RegionDispatch:
                            stats.region_hits += 1
                if plan is None:
                    if segment.dispatch is not None:
                        stats.table_fallbacks += 1
                    eligible = self._restrict_placement(
                        self._eligible(segment, from_host, params),
                        placement)
                    if self._placement:
                        plan = self._placed_argmin(
                            cost, segment, eligible, params,
                            prev_placement, index == 0,
                            index == last_index, location.on_host)
                    else:
                        plan = segment.best_plan(cost, params,
                                                 plans=eligible)
            chosen.append(plan)
            prev_placement = getattr(plan, "placement", "gpu")
            from_host = False
        stats.select_seconds += time.perf_counter() - started
        return chosen

    def select_argmin(self, params: Dict[str, float], *,
                      model: Optional[PerformanceModel] = None,
                      input_on_host: InputLocation
                      = InputLocation.HOST,
                      placement: str = "auto") -> List[KernelPlan]:
        """Exact per-call argmin selection over a bare model.

        What ``select()`` would cost without the baked fast path or the
        memoized cache: every call re-evaluates the analytic model for
        every eligible candidate.  The dispatch-cost benchmarks use this
        as the un-amortized baseline, and tests use it to cross-check
        baked winners.  Counters are untouched.
        """
        cost = CostCache(model or PerformanceModel(self.spec))
        location = InputLocation(input_on_host)
        from_host = location.on_host
        chosen: List[KernelPlan] = []
        prev: Optional[str] = None
        last_index = len(self.segments) - 1
        for index, segment in enumerate(self.segments):
            eligible = self._restrict_placement(
                self._eligible(segment, from_host, params), placement)
            if self._placement:
                plan = self._placed_argmin(cost, segment, eligible, params,
                                           prev, index == 0,
                                           index == last_index,
                                           location.on_host)
            else:
                plan = segment.best_plan(cost, params, plans=eligible)
            chosen.append(plan)
            prev = getattr(plan, "placement", "gpu")
            from_host = False
        return chosen

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predicted_seconds(self, params: Dict[str, float],
                          include_transfers: bool = True,
                          force: Optional[Dict[str, str]] = None, *,
                          input_on_host: InputLocation
                          = InputLocation.HOST,
                          placement: str = "auto") -> float:
        location = InputLocation(input_on_host)
        plans = self.select(params, force, input_on_host=location,
                            placement=placement)
        cost = self._selection_cost()
        total = sum(cost.plan_seconds(plan, params) for plan in plans)
        if include_transfers:
            total += self.transfer_seconds(
                params, location=location,
                placements=(tuple(getattr(p, "placement", "gpu")
                                  for p in plans)
                            if self._placement else None))
        return total

    def transfer_seconds(self, params: Dict[str, float], *,
                         location: InputLocation
                         = InputLocation.HOST,
                         placements: Optional[Sequence[str]] = None
                         ) -> float:
        """Modeled transfer time of one run, by direction and placement.

        Sized by :attr:`wire_dtype` — the same dtype ``run()`` stages
        inputs in — so the model and the recorded transfers count the
        same bytes.  The historical call shape (host-resident input,
        all-GPU chain) keeps its memoized H2D-input + D2H-output value
        bit-for-bit.  Otherwise the cost is directional: a
        device-resident input pays no entry H2D (it used to be charged
        one — the double-count this model replaces), a CPU-placed prefix
        runs straight off the host buffer, and each CPU↔GPU boundary
        inside the chain pays exactly one hop sized by the segment
        input crossing it.  A chain ending on the CPU pays no exit D2H.
        """
        location = InputLocation(location)
        placements = tuple(placements) if placements is not None else None
        all_gpu = placements is None or all(p == "gpu" for p in placements)
        if location.on_host and all_gpu:
            key = freeze_scalars(params)
            seconds = self._transfer_memo.get(key)
            if seconds is None:
                n_in = self.segments[0].input_size(params)
                n_out = self.segments[-1].output_size(params)
                nbytes = (n_in + n_out) * self.wire_dtype.itemsize
                seconds = nbytes / (PCIE_BANDWIDTH_GBPS * 1e9) + 2e-5
                self._transfer_memo[key] = seconds
            return seconds
        if placements is None:
            placements = ("gpu",) * len(self.segments)
        key = (freeze_scalars(params), location.value, placements)
        seconds = self._directed_transfer_memo.get(key)
        if seconds is None:
            itemsize = self.wire_dtype.itemsize
            entry = "cpu" if location.on_host else "gpu"
            seconds = 0.0
            side = entry
            for segment, placement in zip(self.segments, placements):
                if placement != side:
                    seconds += hop_seconds(
                        segment.input_size(params) * itemsize)
                    side = placement
            if side == "gpu":     # deliver the output back to the host
                seconds += hop_seconds(
                    self.segments[-1].output_size(params) * itemsize)
            self._directed_transfer_memo[key] = seconds
        return seconds

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _resolve_device(self, device: Optional[Device],
                        exec_mode: Optional[ExecMode]) -> Device:
        """The device to run on; owned per exec mode when none is passed.

        Owned devices persist across ``run()`` calls so their buffer
        arenas stay warm — the second run at a shape recycles the first
        run's allocations instead of making fresh ones.
        """
        if device is not None:
            if exec_mode is not None:
                device.exec_mode = exec_mode
            return device
        mode = exec_mode or self.default_exec_mode
        with self._device_lock:
            owned = self._run_devices.get(mode)
            if owned is None:
                owned = Device(self.spec, exec_mode=mode,
                               fault_injector=self.faults)
                self._run_devices[mode] = owned
        return owned

    def _check_params(self, params: Dict[str, float]) -> None:
        """Raise :class:`ValueError` naming every unbound program parameter."""
        missing = [name for name in self.program.params
                   if name not in params]
        if missing:
            raise ValueError(
                f"missing program parameter(s) {missing}; "
                f"{self.program.name!r} declares {list(self.program.params)}")

    def _validate_input(self, host_input: np.ndarray,
                        params: Dict[str, float]) -> np.ndarray:
        host_input = np.asarray(host_input,
                                dtype=self.wire_dtype).reshape(-1)
        if self.program.input_size is not None:
            expected = self.program.input_size.evaluate(params)
        else:
            expected = self.segments[0].input_size(params)
        if len(host_input) != expected:
            raise ValueError(
                f"program expects {expected} input elements for these "
                f"parameters, got {len(host_input)}")
        return host_input

    def _fused_spans(self, plans: List[KernelPlan],
                     params: Dict[str, float], device: Device):
        """Fused-chain execution table for one selected plan chain.

        Returns ``{start_index: (end_index, fn, output_sizes)}`` for every
        span the cost model decides to fuse, or ``None`` when chain fusion
        is off, unavailable (fault injection, non-vectorized executor), or
        predicted unprofitable everywhere.  Memoized per (plan identity,
        binding), so a warmed program's runs — including threaded batch
        workers — never re-render chain sources or re-price spans.
        """
        if not getattr(self.options, "fuse_chains", False):
            return None
        if self.faults is not None:
            # Fault injection targets per-segment launches; a fused span
            # would launder injected faults past their segment rules.
            return None
        if device.exec_mode != MODE_VECTORIZED:
            return None
        key = (tuple(id(plan) for plan in plans), freeze_scalars(params),
               freeze_arrays(params))
        cached = self._chain_cache.get(key, _MISS)
        if cached is not _MISS:
            return cached
        spans = {}
        min_gain = getattr(self.options, "fuse_min_gain", 1.05)
        overhead = self.spec.kernel_launch_overhead_us * 1e-6
        cost = self._selection_cost()
        for start, end, stages in chain_spans(plans, params):
            span_plans = plans[start:end]
            gain = predicted_chain_fuse_gain(cost, span_plans, params,
                                             overhead)
            if gain < min_gain:
                continue
            chain_id = "->".join(self.segments[j].name
                                 for j in range(start, end))
            fn = compile_chain_fn(stages, params, chain_id=chain_id)
            sizes = [plan.output_size(params) for plan in span_plans]
            spans[start] = (end, fn, sizes)
        value = spans or None
        self._chain_pins.extend(plans)
        for entry in (params or {}).values():
            if not np.isscalar(entry) and entry is not None:
                self._chain_pins.append(entry)
        self._chain_cache[key] = value
        return value

    def _execute_fused_span(self, start: int, end: int, fn, sizes,
                            plans: List[KernelPlan], device: Device,
                            buf, params: Dict[str, float]):
        """One fused-chain launch; returns the span's stage outputs.

        Failures are wrapped exactly like per-segment ones, anchored at
        the span's first segment so :meth:`_recover_segment` can
        quarantine/re-select there (the replacement changes the plan
        identity, which invalidates the memoized span and re-plans
        fusion for the retry).
        """
        outs = [device.alloc(size, dtype=np.float64,
                             name=f"{self.segments[j].name}.out")
                for j, size in zip(range(start, end), sizes)]
        try:
            device.launch_fused_chain(
                fn, [buf.data] + [out.data for out in outs])
        except ReproError:
            raise
        except Exception as exc:
            plan = plans[start]
            raise KernelExecutionError(
                f"fused chain {self.segments[start].name!r}.."
                f"{self.segments[end - 1].name!r} failed: {exc}",
                segment=self.segments[start].name, plan=plan.strategy,
                params=dict(freeze_scalars(params)), kind="crash",
                segment_index=start) from exc
        return outs

    def _execute_plans(self, host_input: np.ndarray,
                       params: Dict[str, float],
                       plans: List[KernelPlan], device: Device,
                       input_on_host: bool,
                       plan_costs: Optional[Dict[int, float]] = None,
                       compile_before=None, restructure_before=None
                       ) -> Tuple[RunResult, SelectionStats]:
        """Run one selected plan chain; returns (result, stats delta).

        Stats are returned as a delta rather than applied to
        :attr:`stats` so ``run_many`` workers never race on the shared
        counters; single runs merge the delta immediately.  ``plan_costs``
        (``id(plan) -> seconds``) lets the batched runner reuse one cost
        lookup per selection instead of querying the (unsynchronized)
        cost cache from worker threads.  ``compile_before`` /
        ``restructure_before`` widen the counter-attribution window (the
        single-run path opens it before selection, whose cost-model
        queries may compile the winning plan's functions).
        """
        stage = {"select": 0.0, "restructure": 0.0, "h2d": 0.0,
                 "kernel": 0.0, "d2h": 0.0, "compile": 0.0}
        if compile_before is None:
            compile_before = COMPILE_COUNTER.snapshot()
        if restructure_before is None:
            restructure_before = RESTRUCTURE_COUNTER.snapshot()
        exec_compile_before = COMPILE_COUNTER.snapshot()
        selections: List[SegmentExecution] = []
        predicted = 0.0
        fused_runs = 0
        spans = self._fused_spans(plans, params, device)

        def plan_seconds(plan):
            if plan_costs is not None:
                return plan_costs[id(plan)]
            return self.cost.plan_seconds(plan, params)

        placed = self._placement
        try:
            with device.scope():
                buf = None
                hostval = None       # host-resident value between CPU plans
                on_device = False
                index = 0
                while index < len(self.segments):
                    segment, plan = self.segments[index], plans[index]
                    plan_on_cpu = placed and \
                        getattr(plan, "placement", "gpu") == "cpu"
                    if index == 0:
                        staged = host_input
                        if input_on_host:
                            t = time.perf_counter()
                            staged = plan.restructure_input(host_input,
                                                            params)
                            stage["restructure"] = time.perf_counter() - t
                        if plan_on_cpu and input_on_host:
                            # CPU-placed entry: the data never leaves the
                            # host — the H2D (and the final D2H, if the
                            # whole chain stays on the CPU) is elided,
                            # which is exactly what its selection priced.
                            hostval = staged
                        else:
                            t = time.perf_counter()
                            buf = device.to_device(staged,
                                                   name=f"{segment.name}.in")
                            stage["h2d"] += time.perf_counter() - t
                            on_device = True
                            if plan_on_cpu:
                                # Device-resident input feeding a CPU
                                # plan pays the D2H hop its cost carried.
                                t = time.perf_counter()
                                hostval = device.to_host(buf)
                                stage["d2h"] += time.perf_counter() - t
                                on_device = False
                    span = spans.get(index) if spans else None
                    if span is not None:
                        if placed and not on_device:
                            t = time.perf_counter()
                            buf = device.to_device(
                                np.asarray(hostval,
                                           dtype=np.float64).reshape(-1),
                                name=f"{segment.name}.in")
                            stage["h2d"] += time.perf_counter() - t
                            on_device = True
                        end, fn, sizes = span
                        t = time.perf_counter()
                        outs = self._execute_fused_span(
                            index, end, fn, sizes, plans, device, buf,
                            params)
                        span_wall = time.perf_counter() - t
                        stage["kernel"] += span_wall
                        fused_runs += 1
                        # Per-segment report rows survive fusion: each
                        # span member keeps its own predicted cost and a
                        # predicted-share slice of the measured span
                        # wall-clock (the feedback layer's observation
                        # granularity is the segment).
                        costs = [plan_seconds(plans[j])
                                 for j in range(index, end)]
                        total = sum(costs)
                        for offset, j in enumerate(range(index, end)):
                            share = (costs[offset] / total if total > 0
                                     else 1.0 / len(costs))
                            predicted += costs[offset]
                            selections.append(SegmentExecution(
                                segment=self.segments[j].name,
                                kind=self.segments[j].kind,
                                strategy=plans[j].strategy,
                                predicted_seconds=costs[offset],
                                optimizations=(list(plans[j].optimizations)
                                               + ["chain_fusion"]),
                                measured_seconds=span_wall * share))
                        buf = outs[-1]
                        on_device = True
                        index = end
                        continue
                    seconds = plan_seconds(plan)
                    predicted += seconds
                    if plan_on_cpu:
                        if on_device:
                            t = time.perf_counter()
                            hostval = device.to_host(buf)
                            stage["d2h"] += time.perf_counter() - t
                            on_device = False
                        t = time.perf_counter()
                        hostval = self._execute_segment_host(
                            segment, plan, index, hostval, params)
                        plan_wall = time.perf_counter() - t
                    else:
                        if placed and not on_device:
                            t = time.perf_counter()
                            buf = device.to_device(
                                np.asarray(hostval,
                                           dtype=np.float64).reshape(-1),
                                name=f"{segment.name}.in")
                            stage["h2d"] += time.perf_counter() - t
                            on_device = True
                        t = time.perf_counter()
                        buf = self._execute_segment(segment, plan, index,
                                                    device, buf, params)
                        plan_wall = time.perf_counter() - t
                        on_device = True
                    stage["kernel"] += plan_wall
                    selections.append(SegmentExecution(
                        segment=segment.name, kind=segment.kind,
                        strategy=plan.strategy, predicted_seconds=seconds,
                        optimizations=list(plan.optimizations),
                        measured_seconds=plan_wall))
                    index += 1
                if placed and not on_device:
                    output = np.asarray(hostval,
                                        dtype=np.float64).reshape(-1)
                else:
                    t = time.perf_counter()
                    output = device.to_host(buf)
                    stage["d2h"] += time.perf_counter() - t
        except KernelExecutionError as exc:
            # The scope above already released every buffer; attach the
            # failed attempt's counters so callers (guarded retry, the
            # batched runner) can account for partial work faithfully.
            failed_compiled = COMPILE_COUNTER.since(compile_before)
            failed_rebuilt = RESTRUCTURE_COUNTER.since(restructure_before)
            exc.stats_delta = SelectionStats(
                expr_compiles=failed_compiled.total,
                restructure_builds=failed_rebuilt.perm_builds,
                restructure_seconds=stage["restructure"],
                h2d_seconds=stage["h2d"], kernel_seconds=stage["kernel"],
                d2h_seconds=stage["d2h"],
                compile_seconds=failed_compiled.seconds)
            raise
        compiled = COMPILE_COUNTER.since(compile_before)
        in_execute = COMPILE_COUNTER.since(exec_compile_before)
        rebuilt = RESTRUCTURE_COUNTER.since(restructure_before)
        stage["compile"] = compiled.seconds
        # Only compiles that ran inside plan.execute inflate the kernel
        # wall-clock; selection-triggered ones were spent before it.
        stage["kernel"] = max(0.0, stage["kernel"] - in_execute.seconds)
        delta = SelectionStats(
            runs=1, expr_compiles=compiled.total,
            expr_hydrations=compiled.hydrated,
            fused_chain_runs=fused_runs,
            restructure_builds=rebuilt.perm_builds,
            restructure_seconds=stage["restructure"],
            h2d_seconds=stage["h2d"], kernel_seconds=stage["kernel"],
            d2h_seconds=stage["d2h"], compile_seconds=stage["compile"])
        result = RunResult(
            output=output, selections=selections,
            predicted_kernel_seconds=predicted,
            transfer_seconds=self.transfer_seconds(
                params,
                location=(InputLocation.HOST if input_on_host
                          else InputLocation.DEVICE),
                placements=(tuple(getattr(p, "placement", "gpu")
                                  for p in plans) if placed else None)),
            stage_seconds=stage)
        return result, delta

    def _execute_segment(self, segment: Segment, plan: KernelPlan,
                         index: int, device: Device, buf,
                         params: Dict[str, float]):
        """One segment's ``plan.execute`` with fault injection + wrapping.

        Every failure leaves here as a :class:`KernelExecutionError`
        carrying the segment name, strategy tag, scalar params and the
        segment's chain position — the context
        :meth:`_recover_segment` needs to quarantine and re-select.
        With no injector configured this adds one ``None`` check to the
        hot path and nothing else.
        """
        injector = self.faults
        fault = injector.on_execute(plan) if injector is not None else None
        if fault is not None and fault.kind != KIND_NAN:
            cls = (KernelTimeoutError if fault.kind == KIND_TIMEOUT
                   else KernelExecutionError)
            raise cls(
                f"injected {fault.kind} fault in plan {plan.strategy!r}",
                injected=True, kind=fault.kind, segment=segment.name,
                plan=plan.strategy, params=dict(freeze_scalars(params)),
                segment_index=index)
        try:
            out = plan.execute(device, {IN: buf}, params)
        except KernelExecutionError as exc:
            # Launch-scope injected faults and executor-level failures
            # (LaunchError, BarrierDivergenceError) arrive pre-typed;
            # fill in whatever context they are missing.
            if exc.segment is None:
                exc.segment = segment.name
            if exc.plan is None:
                exc.plan = plan.strategy
            if exc.params is None:
                exc.params = dict(freeze_scalars(params))
            if exc.segment_index is None:
                exc.segment_index = index
            raise
        except ReproError:
            raise
        except Exception as exc:
            raise KernelExecutionError(
                f"plan {plan.strategy!r} failed in segment "
                f"{segment.name!r}: {exc}", segment=segment.name,
                plan=plan.strategy, params=dict(freeze_scalars(params)),
                kind="crash", segment_index=index) from exc
        if fault is not None:          # KIND_NAN: poison the output
            data = getattr(out, "data", None)
            if (isinstance(data, np.ndarray)
                    and np.issubdtype(data.dtype, np.floating)):
                data.fill(np.nan)
        if injector is not None:
            # Output poisoning is only detectable by looking; the check
            # runs solely when an injector is installed, so uninjected
            # serving pays nothing for it.
            data = getattr(out, "data", None)
            if (isinstance(data, np.ndarray)
                    and np.issubdtype(data.dtype, np.floating)
                    and np.isnan(data).any()):
                raise KernelExecutionError(
                    f"NaN output from plan {plan.strategy!r} in segment "
                    f"{segment.name!r}", injected=fault is not None,
                    kind=KIND_NAN, segment=segment.name,
                    plan=plan.strategy,
                    params=dict(freeze_scalars(params)),
                    segment_index=index)
        return out

    def _execute_segment_host(self, segment: Segment, plan: KernelPlan,
                              index: int, hostval: np.ndarray,
                              params: Dict[str, float]) -> np.ndarray:
        """Host-side twin of :meth:`_execute_segment` for CPU placements.

        Same fault-injection and error-wrapping contract; the data never
        touches the device, so NaN poisoning and detection act directly
        on the returned host array.
        """
        injector = self.faults
        fault = injector.on_execute(plan) if injector is not None else None
        if fault is not None and fault.kind != KIND_NAN:
            cls = (KernelTimeoutError if fault.kind == KIND_TIMEOUT
                   else KernelExecutionError)
            raise cls(
                f"injected {fault.kind} fault in plan {plan.strategy!r}",
                injected=True, kind=fault.kind, segment=segment.name,
                plan=plan.strategy, params=dict(freeze_scalars(params)),
                segment_index=index)
        try:
            out = plan.execute_host(hostval, params)
        except KernelExecutionError as exc:
            if exc.segment is None:
                exc.segment = segment.name
            if exc.plan is None:
                exc.plan = plan.strategy
            if exc.params is None:
                exc.params = dict(freeze_scalars(params))
            if exc.segment_index is None:
                exc.segment_index = index
            raise
        except ReproError:
            raise
        except Exception as exc:
            raise KernelExecutionError(
                f"plan {plan.strategy!r} failed in segment "
                f"{segment.name!r}: {exc}", segment=segment.name,
                plan=plan.strategy, params=dict(freeze_scalars(params)),
                kind="crash", segment_index=index) from exc
        out = np.asarray(out, dtype=np.float64).reshape(-1)
        if fault is not None:          # KIND_NAN: poison the output
            out.fill(np.nan)
        if injector is not None and np.isnan(out).any():
            raise KernelExecutionError(
                f"NaN output from plan {plan.strategy!r} in segment "
                f"{segment.name!r}", injected=fault is not None,
                kind=KIND_NAN, segment=segment.name, plan=plan.strategy,
                params=dict(freeze_scalars(params)), segment_index=index)
        return out

    def _recover_segment(self, exc: KernelExecutionError,
                         params: Dict[str, float],
                         plans: List[KernelPlan], input_on_host: bool):
        """Quarantine the failed variant and re-select its segment.

        Returns ``(new_plans, replacement, seconds, newly_quarantined)``
        or ``None`` when the failure is terminal: the error carries no
        segment position, or the failed variant is the segment's last
        non-quarantined option (the last variant is never quarantined —
        serving something beats serving nothing).
        """
        index = exc.segment_index
        if index is None or not 0 <= index < len(self.segments):
            return None
        segment = self.segments[index]
        failed = plans[index]
        bucket = size_bucket(params)
        store = self.calibration
        with self._quarantine_lock:
            seg_from_host = input_on_host and index == 0
            eligible = self._eligible(segment, seg_from_host)
            remaining = [p for p in eligible
                         if p is not failed
                         and not store.is_quarantined(p.strategy, bucket)]
            if not remaining:
                return None
            newly = store.quarantine(
                failed.strategy, bucket,
                reason=exc.kind or type(exc).__name__)
            try:
                replacement = segment.best_plan(self._selection_cost(),
                                                params, plans=remaining)
                seconds = self.cost.plan_seconds(replacement, params)
            except SelectionError:
                return None
        new_plans = list(plans)
        new_plans[index] = replacement
        return new_plans, replacement, seconds, newly

    def _execute_guarded(self, host_input: np.ndarray,
                         params: Dict[str, float],
                         plans: List[KernelPlan], device: Device,
                         input_on_host: bool,
                         plan_costs: Optional[Dict[int, float]] = None,
                         compile_before=None, restructure_before=None):
        """Retry-then-degrade wrapper around :meth:`_execute_plans`.

        On a variant failure the failed (strategy, size-bucket) pair is
        quarantined, the segment re-selected among the survivors, and the
        chain re-run (the failed attempt's scope already released its
        buffers, so retries recycle them).  Terminal failures re-raise
        with the accumulated counters on ``exc.stats_delta``.  Returns
        ``(result, delta, plans, plan_costs)`` where ``plans`` /
        ``plan_costs`` reflect any degraded substitution so callers can
        refresh their cached selection.
        """
        recovery: Optional[SelectionStats] = None
        reselect_total = 0.0
        while True:
            try:
                result, delta = self._execute_plans(
                    host_input, params, plans, device, input_on_host,
                    plan_costs, compile_before, restructure_before)
            except KernelExecutionError as exc:
                if recovery is None:
                    recovery = SelectionStats()
                partial = getattr(exc, "stats_delta", None)
                if partial is not None:
                    recovery.merge(partial)
                if exc.injected:
                    recovery.faults_injected += 1
                # The quarantine + re-selection is selection work: its
                # wall-clock lands on the degraded run's ``select`` stage
                # (it used to vanish — degraded items reported 0.0).
                reselect_started = time.perf_counter()
                recovered = self._recover_segment(exc, params, plans,
                                                  input_on_host)
                reselect = time.perf_counter() - reselect_started
                recovery.select_seconds += reselect
                reselect_total += reselect
                if recovered is None:
                    exc.stats_delta = recovery
                    raise
                plans, replacement, seconds, newly = recovered
                if plan_costs is not None:
                    plan_costs = dict(plan_costs)
                    plan_costs[id(replacement)] = seconds
                recovery.retries += 1
                if newly:
                    recovery.quarantines += 1
                # Fresh counter windows per attempt: the failed attempt's
                # compiles/stage times are already in ``recovery``.
                compile_before = None
                restructure_before = None
                continue
            if recovery is not None:
                recovery.degraded_runs = 1
                delta.merge(recovery)
                result.stage_seconds["select"] = \
                    result.stage_seconds.get("select", 0.0) + reselect_total
            return result, delta, plans, plan_costs

    def run(self, host_input: np.ndarray, params: Dict[str, float], *,
            options: Optional[RunOptions] = None,
            device: Optional[Device] = None,
            force: Optional[Dict[str, str]] = None) -> RunResult:
        """Execute functionally on the simulator device.

        Execution options come in one :class:`RunOptions` value
        (``options=``).  Every declared program parameter must be bound
        in ``params``; a missing one raises :class:`ValueError` naming it
        before anything is evaluated.

        ``options.location=InputLocation.DEVICE`` models data already
        resident on the device: selection is constrained to plans that
        need no host-side restructuring (the ``_eligible`` contract), and
        none is applied.

        ``options.exec_mode`` selects the executor path
        (:attr:`ExecMode.REFERENCE` or :attr:`ExecMode.VECTORIZED`); it
        overrides the mode of a passed-in ``device`` and otherwise
        selects a program-owned persistent device.  Both paths produce
        bit-identical outputs — vectorized is a fast path for kernels
        that carry a vector body, never a semantics change.

        Repeat runs at the same scalar parameters are the warm path: the
        selected plans serve compiled kernels and restructure
        permutations from their warm caches (zero compilations, zero
        permutation rebuilds) and, when no explicit ``device`` is passed,
        recycle device buffers through the owned device's arena.  Stage
        wall-clocks land on :attr:`RunResult.stage_seconds` and aggregate
        into :attr:`stats`.

        ``options.feedback=True`` folds this run's measured per-segment
        times back into :attr:`calibration` after execution (and may
        spend a bounded probe on a runner-up variant — see
        :meth:`_apply_feedback`); pass a :class:`FeedbackConfig` to
        override :attr:`feedback` for this call.  The default leaves the
        calibration state untouched.
        """
        opts = options or RunOptions()
        location = opts.location
        feedback = opts.feedback
        params = dict(params)
        self._check_params(params)
        device = self._resolve_device(device, opts.exec_mode)
        host_input = self._validate_input(host_input, params)
        compile_before = COMPILE_COUNTER.snapshot()
        restructure_before = RESTRUCTURE_COUNTER.snapshot()
        started = time.perf_counter()
        plans = self.select(params, force, input_on_host=location,
                            placement=opts.placement)
        select_seconds = time.perf_counter() - started
        try:
            result, delta, plans, _ = self._execute_guarded(
                host_input, params, plans, device, location.on_host,
                compile_before=compile_before,
                restructure_before=restructure_before)
        except KernelExecutionError as exc:
            partial = getattr(exc, "stats_delta", None)
            if partial is not None:
                self.stats.merge(partial)
            raise
        # Accumulate, don't overwrite: a degraded run already carries its
        # re-selection wall on the select stage.
        result.stage_seconds["select"] = \
            result.stage_seconds.get("select", 0.0) + select_seconds
        self.stats.merge(delta)
        if feedback:
            config = (feedback if isinstance(feedback, FeedbackConfig)
                      else self.feedback)
            self._apply_feedback(host_input, params, plans, result,
                                 device, location.on_host, config)
        return result

    def warmup(self, params: Dict[str, float], *,
               options: Optional[RunOptions] = None,
               force: Optional[Dict[str, str]] = None) -> RunResult:
        """Prime every warm cache for one parameter binding.

        Runs the program once on a zero input of the expected size:
        selection is decided (and memoized), per-plan kernels are
        compiled into the warm caches, restructure permutations are
        built, and the owned device's arena is stocked.  The next
        ``run()`` at these scalars is a pure warm path.  Accepts the
        same :class:`RunOptions` as :meth:`run`.
        """
        params = dict(params)
        self._check_params(params)
        if self.program.input_size is not None:
            expected = self.program.input_size.evaluate(params)
        else:
            expected = self.segments[0].input_size(params)
        zeros = np.zeros(int(expected), dtype=self.wire_dtype)
        return self.run(zeros, params, force=force, options=options)

    def run_batch(self, inputs: Sequence[np.ndarray],
                  params_list: Union[Dict[str, float],
                                     Sequence[Dict[str, float]]], *,
                  options: Optional[RunOptions] = None,
                  force: Optional[Dict[str, str]] = None,
                  warm: bool = True) -> BatchOutcome:
        """Batch entry point with per-index outcomes and no batch abort.

        The serving front door's hook: identical semantics to
        :meth:`run_many` except that failures are *returned* — a
        :class:`BatchOutcome` carries every completed item's
        :class:`RunResult` and maps each failed index to its exception —
        so a caller multiplexing independent requests into one dispatch
        can fail exactly the poisoned request while its batch-mates
        complete.

        Selection happens once per distinct scalar binding; with
        ``warm=True`` (default) each distinct binding is warmed up
        front, so worker threads never compile and never rebuild
        permutations.  The one ``select()`` per binding is timed and its
        wall-clock attributed to the binding's first completed result;
        every other item at the binding reports ``select == 0`` unless
        it degraded onto a replacement variant, in which case it keeps
        its own re-selection wall — so
        :meth:`SelectionStats.stage_summary` totals stay truthful.
        ``options.workers > 1`` fans the batch out over a thread pool
        with one device per worker (arenas are not thread-safe); per-run
        counters are merged into :attr:`stats` after the workers join.

        A binding whose parameter check, warmup or selection raises
        fails only its own indices, each recording that error; the rest
        of the batch completes.

        ``options.feedback=True`` folds one measured observation per
        distinct scalar binding back into :attr:`calibration` after the
        batch completes (never from worker threads — the store is
        unsynchronized).  A binding whose first completed item succeeded
        contributes its observation even when other items failed.
        """
        opts = options or RunOptions()
        workers = opts.workers
        location, exec_mode = opts.location, opts.exec_mode
        feedback = opts.feedback
        inputs = list(inputs)
        if isinstance(params_list, dict):
            params_list = [params_list] * len(inputs)
        params_list = [dict(p) for p in params_list]
        if len(params_list) != len(inputs):
            raise ValueError(
                f"run_batch got {len(inputs)} inputs but "
                f"{len(params_list)} params")
        # One selection (and optional warmup) per distinct scalar binding,
        # shared by every batch item at that binding.  The per-binding
        # select wall-clock is recorded so it can be attributed to the
        # first result at the binding instead of vanishing.
        selections: Dict[tuple, List[KernelPlan]] = {}
        plan_costs: Dict[tuple, Dict[int, float]] = {}
        select_seconds: Dict[tuple, float] = {}
        binding_errors: Dict[tuple, Exception] = {}
        for params in params_list:
            key = freeze_scalars(params)
            if key in selections or key in binding_errors:
                continue
            try:
                self._check_params(params)
                if warm:
                    self.warmup(params, force=force,
                                options=dataclasses.replace(
                                    opts, feedback=False))
                started = time.perf_counter()
                plans = self.select(params, force, input_on_host=location,
                                    placement=opts.placement)
            except Exception as exc:
                binding_errors[key] = exc
                continue
            select_seconds[key] = time.perf_counter() - started
            selections[key] = plans
            plan_costs[key] = {id(plan): self.cost.plan_seconds(plan, params)
                               for plan in plans}

        local = threading.local()
        refresh_lock = threading.Lock()

        def worker_device() -> Device:
            device = getattr(local, "device", None)
            if device is None:
                # Workers inherit the program's default exec mode, so a
                # threaded batch runs the same executor as the serial
                # path (this used to hardcode the reference interpreter).
                device = Device(
                    self.spec,
                    exec_mode=exec_mode or self.default_exec_mode,
                    fault_injector=self.faults)
                local.device = device
            return device

        def job(index: int) -> Tuple[RunResult, SelectionStats]:
            params = params_list[index]
            key = freeze_scalars(params)
            host_input = self._validate_input(inputs[index], params)
            if workers <= 1:
                device = self._resolve_device(None, exec_mode)
            else:
                device = worker_device()
            # Snapshot the (plans, costs) pair under the refresh lock: a
            # degrading worker replaces both entries together, and an
            # unlocked pair of reads could pair a replacement plan list
            # with the stale cost dict (or vice versa) and KeyError on
            # ``plan_costs[id(plan)]`` mid-execution.
            with refresh_lock:
                job_plans = selections[key]
                job_costs = plan_costs[key]
            result, delta, used_plans, used_costs = self._execute_guarded(
                host_input, params, job_plans, device,
                location.on_host, job_costs)
            if used_plans is not job_plans:
                # The item degraded onto a replacement variant; later
                # items at the same binding start from the new selection
                # instead of re-tripping over the quarantined one.
                with refresh_lock:
                    selections[key] = used_plans
                    plan_costs[key] = used_costs
            # A degraded item keeps the re-selection wall the guarded
            # runner attributed to its select stage; hard-zeroing here
            # used to erase it from the stage totals.
            return result, delta

        results: List[Optional[RunResult]] = [None] * len(inputs)
        errors: List[Optional[BaseException]] = [None] * len(inputs)
        deltas: List[SelectionStats] = []

        def run_one(index: int) -> None:
            # Per-item capture: one failing item must not discard the
            # completed items' results or their counters (pool.map's
            # first-exception propagation used to abort the whole batch).
            if binding_errors:
                failed = binding_errors.get(
                    freeze_scalars(params_list[index]))
                if failed is not None:
                    errors[index] = failed
                    return
            try:
                result, delta = job(index)
            except Exception as exc:
                partial = getattr(exc, "stats_delta", None)
                if partial is not None:
                    deltas.append(partial)
                errors[index] = exc
            else:
                results[index] = result
                deltas.append(delta)

        if workers <= 1:
            for index in range(len(inputs)):
                run_one(index)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_one, index)
                           for index in range(len(inputs))]
                for future in futures:
                    future.result()
        for delta in deltas:
            self.stats.merge(delta)
        # Attribute each binding's amortized select wall-clock to its
        # first completed result (this used to be hard-coded to 0.0 for
        # every item, hiding the real selection cost from stage totals).
        attributed = set()
        for index, params in enumerate(params_list):
            key = freeze_scalars(params)
            if key in attributed or results[index] is None:
                continue
            attributed.add(key)
            results[index].stage_seconds["select"] = \
                results[index].stage_seconds.get("select", 0.0) \
                + select_seconds[key]
        if feedback:
            # Feedback is per binding, from the binding's first
            # *completed* item — valid measurements from surviving items
            # are folded in even when other items in the batch failed
            # (they used to be discarded whenever anything failed).
            config = (feedback if isinstance(feedback, FeedbackConfig)
                      else self.feedback)
            observed_keys = set()
            for index, params in enumerate(params_list):
                key = freeze_scalars(params)
                if key in observed_keys or results[index] is None:
                    continue
                observed_keys.add(key)
                self._apply_feedback(
                    self._validate_input(inputs[index], params), params,
                    selections[key], results[index],
                    self._resolve_device(None, exec_mode),
                    location.on_host, config)
        return BatchOutcome(
            results=results,
            errors={i: e for i, e in enumerate(errors) if e is not None})

    def run_many(self, inputs: Sequence[np.ndarray],
                 params_list: Union[Dict[str, float],
                                    Sequence[Dict[str, float]]], *,
                 options: Optional[RunOptions] = None,
                 force: Optional[Dict[str, str]] = None,
                 warm: bool = True) -> List[RunResult]:
        """Serve a batch of inputs through one shared warm path.

        ``params_list`` is either one params dict broadcast over the
        batch or one dict per input.  A thin wrapper over
        :meth:`run_batch` keeping the historical contract: on any item
        failure the first error is raised (carrying ``batch_errors`` and
        ``partial_results``); callers that need per-index outcomes
        without an exception use :meth:`run_batch` directly.  Feedback
        for bindings whose first completed item succeeded is applied
        *before* the raise — completed measurements are never discarded.
        """
        outcome = self.run_batch(
            inputs, params_list, options=options, force=force, warm=warm)
        if outcome.errors:
            failed = sorted(outcome.errors)
            first = outcome.errors[failed[0]]
            if not isinstance(first, KernelExecutionError):
                wrapped = KernelExecutionError(
                    f"batch item {failed[0]} failed: {first}",
                    batch_index=failed[0])
                wrapped.__cause__ = first
                first = wrapped
            if first.batch_index is None:
                first.batch_index = failed[0]
            #: index -> exception for every failed item; completed items
            #: keep their results in ``partial_results``.
            first.batch_errors = dict(outcome.errors)
            first.partial_results = outcome.results
            raise first
        return outcome.results

    # ------------------------------------------------------------------
    # Measured feedback (online recalibration + mispredict re-selection)
    # ------------------------------------------------------------------
    def recalibrate(self, points: Sequence[Dict[str, float]], *,
                    options: Optional[RunOptions] = None,
                    force: Optional[Dict[str, str]] = None,
                    feedback: Optional[FeedbackConfig] = None
                    ) -> CalibrationStore:
        """Drive the feedback loop over a set of parameter bindings.

        With an ``observer`` configured (on ``feedback`` or
        :attr:`feedback`), each binding is selected and observed without
        executing — the cheap deterministic path the experiment drivers
        and tests use.  Without one, each binding is executed once via
        :meth:`warmup` with feedback enabled, so observations come from
        measured kernel wall-clock.  Returns :attr:`calibration`.
        """
        config = feedback or self.feedback
        opts = options or RunOptions()
        location = opts.location
        before = self.stats.snapshot()
        for params in points:
            params = dict(params)
            if config.observer is None:
                self.warmup(params, force=force,
                            options=dataclasses.replace(
                                opts, feedback=config))
                continue
            # Observations are free on the observer path, so drive each
            # binding to a fixed point: re-select and feed back until a
            # pass spends no probe (selection settled and every family
            # worth exploring at this bucket has been seen).  The
            # per-(segment, bucket) probe budget bounds the loop.
            while True:
                plans = self.select(params, force, input_on_host=location)
                probes_before = self.stats.probe_runs
                self._apply_feedback(None, params, plans, None, None,
                                     location.on_host, config)
                if self.stats.probe_runs == probes_before:
                    break
        # Online subtree re-sweeps run mid-convergence: each rebuilds its
        # box under whatever per-bucket factors existed at that moment,
        # so boxes spanning not-yet-observed buckets keep biased cuts.
        # Close the loop: once the whole pass has been folded in, re-sweep
        # every disturbed region table under the converged store.
        delta = self.stats.since(before)
        if (delta.table_patches or delta.table_rebakes
                or delta.subtree_resweeps) \
                and not self.calibration.is_identity():
            for segment in self.segments:
                if type(segment.dispatch) is RegionDispatch:
                    self._rebake_dispatch(segment)
        return self.calibration

    def save_calibration(self, path) -> None:
        """Persist the learned calibration factors as JSON.

        A warmed service restarts hot: :meth:`load_calibration` on a
        freshly compiled program restores the factors (and re-bakes its
        dispatch tables under them) without re-measuring anything.  The
        file is stamped with this runtime's arch fingerprint so it can
        never silently scale predictions on a different architecture.
        """
        self.calibration.arch_fingerprint = self.spec.fingerprint()
        self.calibration.save(path)

    def load_calibration(self, path, force: bool = False) -> None:
        """Restore factors saved by :meth:`save_calibration`.

        Raises :class:`CalibrationError` when the file was measured on a
        different architecture (``force=True`` applies it anyway).
        Every baked dispatch table is re-swept under the restored
        factors, so table lookups agree with what calibrated argmin
        would choose.
        """
        self.calibration.load(path, expected_arch=self.spec.fingerprint(),
                              force=force)
        if not self.calibration.is_identity():
            for segment in self.segments:
                self._rebake_dispatch(segment)

    # ------------------------------------------------------------------
    # Artifact bundles (zero-cold-start persistence)
    # ------------------------------------------------------------------
    def _identity_fingerprint(self) -> str:
        """Program + options identity in the bundle invalidation key."""
        return program_fingerprint(self.program, self.options.label(),
                                   threads=getattr(self.options, "threads",
                                                   None))

    def export_bundle(self, meta: Optional[Dict] = None) -> ArtifactBundle:
        """Assemble this program's complete warm state into a bundle.

        Captures everything the warm path needs — surviving variants,
        dispatch tables, restructure permutations, cost/transfer memo
        entries, the calibration store, and every kernel source the
        process-wide exprgen registry has recorded — keyed by (program
        IR fingerprint, arch fingerprint, repro version, schema
        version).  :meth:`load_bundle` in a fresh process replays it so
        the first run needs zero model evaluations and zero expression
        compiles.
        """
        segments_payload = []
        for segment in self.segments:
            dispatch_payload = []
            if segment.dispatch is not None:
                d = segment.dispatch
                if type(d) is RegionDispatch:
                    # The multi-axis payload kind rides the existing
                    # versioned schema: absence of "kind" means the
                    # historical 1-D entry, so old bundles stay loadable
                    # byte-for-byte.
                    dispatch_payload.append({
                        "kind": "region",
                        "axes": [str(name) for name in d.axes],
                        "extras": encode_scalars(d.extras),
                        "from_host": bool(d.from_host),
                        "samples": int(d.samples),
                        "region": d.region.to_payload(),
                    })
                else:
                    dispatch_payload.append({
                        "axis": d.axis, "lo": int(d.lo), "hi": int(d.hi),
                        "extras": encode_scalars(d.extras),
                        "from_host": bool(d.from_host),
                        "samples": int(d.samples),
                        "table": d.table.to_payload(),
                    })
            permutations = []
            for plan in segment.plans:
                for size, scalars, perm in plan.export_permutations():
                    permutations.append({
                        "strategy": plan.strategy, "size": int(size),
                        "scalars": encode_scalars(scalars),
                        "perm": encode_ndarray(perm),
                    })
            segments_payload.append({
                "name": segment.name, "kind": segment.kind,
                "strategies": [p.strategy for p in segment.plans],
                "pruned": list(segment.pruned_strategies),
                "dispatch": dispatch_payload,
                "permutations": permutations,
            })

        plan_location = {id(plan): (segment.name, plan.strategy)
                         for segment in self.segments
                         for plan in segment.plans}
        costs = []
        for plan, scalars, seconds in self.cost.entries():
            location = plan_location.get(id(plan))
            if location is None:
                continue          # memo entry for a since-pruned plan
            costs.append({"segment": location[0], "strategy": location[1],
                          "scalars": encode_scalars(scalars),
                          "seconds": float(seconds)})
        transfers = [{"scalars": encode_scalars(key),
                      "seconds": float(seconds)}
                     for key, seconds in self._transfer_memo.items()]

        self.calibration.arch_fingerprint = self.spec.fingerprint()
        return ArtifactBundle(
            schema_version=BUNDLE_SCHEMA_VERSION,
            repro_version=_repro_version(),
            program_fingerprint=self._identity_fingerprint(),
            arch_fingerprint=self.spec.fingerprint(),
            program_name=self.program.name,
            arch_name=self.spec.name,
            options_label=self.options.label(),
            wire_dtype=self.wire_dtype.str,
            segments=segments_payload,
            costs=costs,
            transfers=transfers,
            calibration=self.calibration.to_dict(),
            sources=SOURCE_REGISTRY.export(),
            meta=dict(meta or {}))

    def save_bundle(self, path, meta: Optional[Dict] = None
                    ) -> ArtifactBundle:
        """Write :meth:`export_bundle`'s result to ``path`` atomically."""
        bundle = self.export_bundle(meta)
        bundle.save(path)
        return bundle

    def load_bundle(self, bundle: Union[ArtifactBundle, str], *,
                    force: bool = False) -> ArtifactBundle:
        """Inject a bundle's warm state into this (cold) program.

        Validates the full invalidation key and stages every piece of
        state — segment/strategy resolution, dispatch tables,
        permutations, calibration — *before* mutating anything, so a
        stale bundle raises the precise :class:`BundleError` subclass
        and leaves the program untouched (never half-applied).  After a
        successful load the first ``run()`` selects from seeded cost
        memo entries or baked tables (zero model evaluations) and
        rehydrates kernels from bundle-carried source (zero expression
        compiles).  ``force=True`` only relaxes the repro-version check.
        """
        if not isinstance(bundle, ArtifactBundle):
            bundle = ArtifactBundle.load(bundle)
        bundle.validate(program_fingerprint=self._identity_fingerprint(),
                        arch_fingerprint=self.spec.fingerprint(),
                        force=force)

        # -- stage: resolve everything against this program ------------
        by_name = {segment.name: segment for segment in self.segments}
        if len(bundle.segments) != len(self.segments):
            raise BundleProgramError(
                f"bundle has {len(bundle.segments)} segment(s) but the "
                f"program compiled {len(self.segments)}; re-save the "
                f"bundle",
                segment=None)
        staged = []
        for payload in bundle.segments:
            segment = by_name.get(payload["name"])
            if segment is None:
                raise BundleProgramError(
                    f"bundle segment {payload['name']!r} does not exist in "
                    f"this program (segments: {sorted(by_name)}); re-save "
                    f"the bundle", segment=payload["name"])
            available = {plan.strategy: plan for plan in segment.plans}
            missing = [s for s in payload["strategies"]
                       if s not in available]
            if missing:
                raise BundleProgramError(
                    f"bundle names strategy(ies) {missing} that segment "
                    f"{segment.name!r} did not compile (available: "
                    f"{sorted(available)}); the variant generators "
                    f"changed — re-save the bundle",
                    segment=segment.name, plan=missing[0])
            survivors = set(payload["strategies"])
            dispatch = None
            for entry in payload.get("dispatch") or []:
                try:
                    if entry.get("kind") == "region":
                        region = RegionTable.from_payload(entry["region"])
                        dispatch = RegionDispatch(
                            axes=tuple(str(a) for a in entry["axes"]),
                            extras=decode_scalars(entry["extras"]),
                            from_host=bool(entry["from_host"]),
                            region=region,
                            samples=int(entry.get("samples", 8)))
                        winners = region.winners
                    else:
                        table = DecisionTable.from_payload(entry["table"])
                        dispatch = SegmentDispatch(
                            axis=str(entry["axis"]), lo=int(entry["lo"]),
                            hi=int(entry["hi"]),
                            extras=decode_scalars(entry["extras"]),
                            from_host=bool(entry["from_host"]), table=table,
                            samples=int(entry.get("samples", 8)))
                        winners = table.winners
                except (KeyError, TypeError, ValueError) as exc:
                    raise BundleFormatError(
                        f"segment {segment.name!r}: malformed dispatch "
                        f"payload: {exc}", segment=segment.name) from exc
                unknown = [w for w in winners if w not in survivors]
                if unknown:
                    raise BundleProgramError(
                        f"segment {segment.name!r}: dispatch table selects "
                        f"strategy {unknown[0]!r} which is not in the "
                        f"bundle's surviving set {sorted(survivors)}; "
                        f"re-save the bundle",
                        segment=segment.name, plan=unknown[0])
            permutations = []
            for entry in payload.get("permutations") or []:
                if entry["strategy"] not in survivors:
                    continue
                try:
                    permutations.append(
                        (entry["strategy"], int(entry["size"]),
                         decode_scalars(entry["scalars"]),
                         decode_ndarray(entry["perm"])))
                except (KeyError, TypeError, ValueError) as exc:
                    raise BundleFormatError(
                        f"segment {segment.name!r}: malformed permutation "
                        f"payload: {exc}", segment=segment.name) from exc
            staged.append((segment, payload, dispatch, permutations))
        try:
            calibration = CalibrationStore.from_dict(bundle.calibration)
        except CalibrationError as exc:
            raise BundleFormatError(
                f"bundle calibration payload rejected: {exc}") from exc
        if not isinstance(bundle.sources, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in bundle.sources.items()):
            raise BundleFormatError(
                "bundle kernel-source map is malformed (expected "
                "str -> str)")

        # -- commit: nothing below can fail on bundle content ----------
        for segment, payload, dispatch, permutations in staged:
            keep = set(payload["strategies"])
            dropped = tuple(plan.strategy for plan in segment.plans
                            if plan.strategy not in keep)
            segment.plans = [plan for plan in segment.plans
                             if plan.strategy in keep]
            segment.pruned_strategies = (tuple(payload.get("pruned", ()))
                                         or segment.pruned_strategies
                                         + dropped)
            segment.dispatch = dispatch
            plans = {plan.strategy: plan for plan in segment.plans}
            for strategy, size, scalars, perm in permutations:
                plans[strategy].inject_permutation(size, scalars, perm)
        plan_of = {(segment.name, plan.strategy): plan
                   for segment in self.segments for plan in segment.plans}
        for entry in bundle.costs:
            plan = plan_of.get((entry["segment"], entry["strategy"]))
            if plan is not None:
                self.cost.seed(plan, decode_scalars(entry["scalars"]),
                               entry["seconds"])
        for entry in bundle.transfers:
            self._transfer_memo[decode_scalars(entry["scalars"])] = \
                float(entry["seconds"])
        self.calibration = calibration
        SOURCE_REGISTRY.load(bundle.sources)
        self.wire_dtype = np.dtype(bundle.wire_dtype)
        return bundle

    def _apply_feedback(self, host_input: Optional[np.ndarray],
                        params: Dict[str, float],
                        plans: List[KernelPlan],
                        result: Optional[RunResult],
                        device: Optional[Device],
                        input_on_host: bool,
                        config: FeedbackConfig) -> None:
        """Fold one run's measurements back into the calibration store.

        Per segment: observe the chosen variant's time (the configured
        ``observer``, or the run's measured per-segment wall-clock), fold
        the observed/predicted ratio into the family's EWMA factor, then
        decide whether to spend a probe on the calibrated runner-up —
        because that family has never been observed at this size bucket
        (exploration), because the chosen variant's observed time
        exceeded the runner-up's calibrated prediction by the mispredict
        margin, or on the deterministic epsilon schedule.  A probe
        measures the runner-up (observer call, or a re-execution of the
        chain with the runner substituted); if the calibrated costs then
        rank the runner first, the segment's baked break-even boundary is
        patched in place.  Probes are bounded per ``(segment, bucket)``
        by ``config.probe_limit``; large factor swings re-bake the
        affected table (``config.rebake_threshold``).
        """
        store = self.calibration
        stats = self.stats
        bucket = size_bucket(params)
        scalars = freeze_scalars(params)

        def measure(index: int, plan: KernelPlan) -> float:
            if config.observer is not None:
                return float(config.observer(plan, params))
            if result is not None and plan is plans[index]:
                return result.selections[index].measured_seconds
            return self._probe_execute(host_input, params, plans, index,
                                       plan, device, input_on_host)

        def fold(segment: Segment, plan: KernelPlan,
                 observed: float) -> float:
            raw = self.cost.plan_seconds(plan, params)
            predicted = raw * store.bias(plan.family)
            change = store.observe(
                plan.family, scalars, bucket, observed, predicted,
                alpha=config.alpha, variant=plan.variant_key(params))
            stats.feedback_observations += 1
            if (config.rebake_threshold is not None
                    and change > config.rebake_threshold
                    and segment.dispatch is not None):
                self._rebake_dispatch(segment, params)
            return change

        from_host = input_on_host
        for index, (segment, plan) in enumerate(zip(self.segments, plans)):
            seg_from_host = from_host
            from_host = False
            observed = measure(index, plan)
            fold(segment, plan, observed)
            if len(segment.plans) < 2:
                continue
            eligible = self._eligible(segment, seg_from_host, params)
            cost = self._selection_cost()
            ranked = sorted(
                (p for p in eligible if p is not plan),
                key=lambda p: cost.plan_seconds(p, params))
            if not ranked:
                continue
            # A mispredict verdict needs both sides in measured units:
            # only meaningful once the runner-up's family has been
            # observed at this bucket.  An unobserved family is worth a
            # probe on its own, best-ranked first — a family the biased
            # model wrongly prices out of contention is found this way,
            # one family per visit, within the probe budget.
            runner = next(
                (p for p in ranked
                 if not store.has_observations(p.family, bucket)), None)
            explore = runner is not None
            if runner is None:
                runner = ranked[0]
            runner_cal = cost.plan_seconds(runner, params)
            mispredict = (not explore
                          and observed > config.margin * runner_cal)
            interval = config.probe_interval()
            periodic = bool(interval) and \
                store.total_observations % interval == 0
            if mispredict:
                stats.mispredicts += 1
            if not (explore or mispredict or periodic):
                continue
            if store.probes_used(segment.name, bucket) \
                    >= config.probe_limit:
                continue
            store.note_probe(segment.name, bucket)
            stats.probe_runs += 1
            runner_observed = measure(index, runner)
            fold(segment, runner, runner_observed)
            # Post-probe verdict: does the calibrated model now rank the
            # runner first?  If a baked table chose the loser, repair its
            # break-even boundary in place; argmin paths pick up the new
            # factors on the next select() automatically.
            cost = self._selection_cost()
            if cost.plan_seconds(runner, params) \
                    < cost.plan_seconds(plan, params):
                self._patch_dispatch(segment, params, runner.strategy,
                                     seg_from_host)

    def _probe_execute(self, host_input: np.ndarray,
                       params: Dict[str, float],
                       plans: List[KernelPlan], index: int,
                       runner: KernelPlan, device: Device,
                       input_on_host: bool) -> float:
        """Measure ``runner`` by re-running the chain with it substituted.

        The probe's counters are merged into :attr:`stats` with ``runs``
        zeroed — probe executions are accounted by ``probe_runs``, not as
        served runs.
        """
        probe_plans = list(plans)
        probe_plans[index] = runner
        result, delta = self._execute_plans(host_input, params, probe_plans,
                                            device, input_on_host)
        delta.runs = 0
        self.stats.merge(delta)
        return result.selections[index].measured_seconds

    def _patch_dispatch(self, segment: Segment, params: Dict[str, float],
                        winner: str, from_host: bool) -> bool:
        """Repair a baked table that a probe just contradicted.

        Kind-agnostic: a 1-D table moves/splits a subrange boundary, a
        k-d region table moves its nearest region boundary (or carves a
        cell).  The ``lookup`` guard guarantees the binding is inside
        the baked coverage, so ``patch_at`` never sees the out-of-range
        :class:`CalibrationError` path.
        """
        dispatch = segment.dispatch
        if dispatch is None:
            return False
        current = dispatch.lookup(params, from_host)
        if current is None or current == winner:
            return False
        if dispatch.patch_at(params, winner):
            self.stats.table_patches += 1
            return True
        return False

    def _sweep_cost(self, cost, plan: KernelPlan,
                    params: Dict[str, float]) -> float:
        """Cost query inside an axis sweep, with sizing errors typed.

        A :class:`CompileError` here means the plan cannot be sized at
        this sampled point (e.g. the point violates the program's
        steady-state schedule) — a legitimate "axis not sweepable"
        signal, translated to :class:`ModelSweepError` so the bakers can
        catch exactly that and nothing else.
        """
        try:
            return cost.plan_seconds(plan, params)
        except CompileError as exc:
            raise ModelSweepError(str(exc), plan=plan.strategy,
                                  params=dict(freeze_scalars(params))
                                  ) from exc

    def _baked_prev_placement(self, index: int,
                              point: Dict[str, float]) -> Optional[str]:
        """Placement of segment ``index - 1``'s baked winner at ``point``.

        Greedy chaining for placement-aware sweeps: segments bake in
        chain order, so the previous segment's table is already final
        when this one sweeps.  Falls back to the segment's dominant side
        when no table covers the point (sweep failure, out-of-box).
        """
        if index <= 0:
            return None
        prev = self.segments[index - 1]
        winner = None
        dispatch = prev.dispatch
        try:
            if type(dispatch) is RegionDispatch:
                winner = dispatch.region.lookup(point)
            elif dispatch is not None:
                value = point.get(dispatch.axis)
                if value is not None:
                    winner = dispatch.table.lookup(value)
        except (KeyError, TypeError, ValueError):
            winner = None
        if winner is not None:
            for plan in prev.plans:
                if plan.strategy == winner:
                    return getattr(plan, "placement", "gpu")
        placements = {getattr(p, "placement", "gpu") for p in prev.plans}
        return "cpu" if placements == {"cpu"} else "gpu"

    def _swept_seconds(self, cost, segment: Segment, index: int,
                       plan: KernelPlan, point: Dict[str, float]) -> float:
        """One candidate's cost at one swept point, placement-priced.

        With placement compiled as a selection axis every swept
        candidate carries its boundary terms (entry/exit hops, layout
        gather), so the baked break-even surfaces encode the CPU/GPU
        split point — an in-range lookup then routes small shapes to the
        CPU with zero model evaluations.  Legacy programs sweep the raw
        kernel cost exactly as before.
        """
        seconds = self._sweep_cost(cost, plan, point)
        if not self._placement:
            return seconds
        return seconds + self._placement_extra(
            segment, plan, point, self._baked_prev_placement(index, point),
            index == 0, index == len(self.segments) - 1, True)

    def _rebake_dispatch(self, segment: Segment,
                         params: Optional[Dict[str, float]] = None) -> bool:
        """Re-sweep one segment's baked table under calibrated costs.

        For a k-d :class:`RegionDispatch` with a triggering binding
        (``params``) inside the baked box, only the subtree owning the
        binding's region is re-swept — a large factor swing moves the
        break-even surface locally, so regions far from the observation
        keep their cuts.  Without a binding (e.g.
        :meth:`load_calibration`) the whole region table is rebuilt.
        """
        dispatch = segment.dispatch
        if dispatch is None:
            return False
        if type(dispatch) is RegionDispatch:
            return self._rebake_region(segment, dispatch, params)
        base = dict(dispatch.extras)
        cost = self._selection_cost()
        eligible = self._eligible(segment, dispatch.from_host)
        seg_index = self.segments.index(segment)
        variants = [
            Variant(plan.strategy,
                    lambda v, plan=plan: self._swept_seconds(
                        cost, segment, seg_index, plan,
                        {**base, dispatch.axis: int(v)}))
            for plan in eligible
        ]
        with self.cost.compile_scope():
            try:
                table = sweep_axis(variants, dispatch.lo, dispatch.hi,
                                   samples=dispatch.samples, refine=True)
            except ModelSweepError:
                # The calibrated sweep is infeasible; the stale table is
                # dropped so selection falls back to exact model-argmin.
                # Anything else (a buggy cost model, a typo) propagates.
                self.stats.sweep_failures += 1
                segment.dispatch = None
                return False
        segment.dispatch = SegmentDispatch(
            axis=dispatch.axis, lo=int(table.subranges[0].lo),
            hi=int(table.subranges[-1].hi), extras=dispatch.extras,
            from_host=dispatch.from_host, table=table,
            samples=dispatch.samples)
        self.stats.table_rebakes += 1
        return True

    def _rebake_region(self, segment: Segment, dispatch: RegionDispatch,
                       params: Optional[Dict[str, float]]) -> bool:
        """Region-table rebake: subtree re-sweep when a binding anchors it."""
        base = dict(dispatch.extras)
        names = dispatch.region.names
        cost = self._selection_cost()
        eligible = self._eligible(segment, dispatch.from_host)
        seg_index = self.segments.index(segment)
        variants = [
            Variant(plan.strategy,
                    lambda values, plan=plan:
                    self._swept_seconds(cost, segment, seg_index, plan, {
                        **base,
                        **{name: int(v)
                           for name, v in zip(names, values)}}))
            for plan in eligible
        ]
        point = None
        if params is not None:
            point = {name: params.get(name) for name in names}
            if any(value is None or not np.isscalar(value)
                   or not axis.contains(value)
                   for axis, value in zip(dispatch.region.axes,
                                          point.values())):
                point = None      # out-of-box trigger: full rebake
        with self.cost.compile_scope():
            try:
                if point is not None:
                    dispatch.region.resweep_subtree(point, variants,
                                                    refine=True)
                    self.stats.subtree_resweeps += 1
                else:
                    dispatch.region = sweep_region(
                        variants, dispatch.region.axes, refine=True)
            except ModelSweepError:
                # The calibrated sweep is infeasible; drop the stale
                # table so selection falls back to exact model-argmin.
                self.stats.sweep_failures += 1
                segment.dispatch = None
                return False
        self.stats.table_rebakes += 1
        return True

    def clear_warm_caches(self) -> None:
        """Cold-start the serving layer.

        Drops every plan's compiled-kernel artifacts and restructure
        permutations, empties the owned devices' buffer arenas, clears
        the memoized cost layer (model-argmin selections are runtime
        work the paper charges to the initial transfer, so a cold start
        re-evaluates them), and resets the calibration store — measured
        feedback is warm state.  Also evicts the fused-chain kernel
        cache.  Baked dispatch tables survive — they are compile-time products,
        not run-time warm state.
        """
        for segment in self.segments:
            for plan in segment.plans:
                plan.clear_warm_cache()
        self.cost.clear()
        self._transfer_memo.clear()
        self._directed_transfer_memo.clear()
        self.calibration.reset()
        self._chain_cache.clear()
        self._chain_pins.clear()
        with self._device_lock:
            for device in self._run_devices.values():
                device.arena.clear()

    # ------------------------------------------------------------------
    # Compile-time analyses / reporting
    # ------------------------------------------------------------------
    def sample_points(self, samples: int = 6,
                      extra_params: Optional[Dict[str, float]] = None
                      ) -> List[Dict[str, float]]:
        """Sample the declared input ranges on a geometric grid."""
        ranges = self.program.input_ranges
        if not ranges:
            return []
        axes = {name: geometric_points(lo, hi, samples)
                for name, (lo, hi) in ranges.items()}
        names = sorted(axes)
        points = []
        for combo in itertools.product(*(axes[n] for n in names)):
            point = dict(extra_params or {})
            point.update(dict(zip(names, combo)))
            points.append(point)
        return points

    def prune_variants(self, samples: int = 6,
                       extra_params: Optional[Dict[str, float]] = None,
                       tolerance: float = 0.05,
                       keep: Optional[Dict[str, List[str]]] = None) -> None:
        """Keep only variants that win somewhere in the declared ranges.

        ``keep`` maps segment names to strategies that must survive (so a
        later ``force=`` cannot dangle).  Afterwards each segment's
        decision table is re-baked over the surviving variants, turning
        in-range selection into a zero-evaluation bisect.
        """
        points = self.sample_points(samples, extra_params)
        if not points:
            return
        keep = keep or {}
        with self.cost.compile_scope():
            for segment in self.segments:
                segment.prune(self.cost, points, tolerance=tolerance,
                              keep=keep.get(segment.name, ()))
        self.bake_decision_tables(samples=samples,
                                  extra_params=extra_params)

    def bake_decision_tables(self, samples: int = 8,
                             extra_params: Optional[Dict[str, float]] = None,
                             refine: bool = True) -> int:
        """Precompile per-segment dispatch tables (§3's subranges).

        For each declared input axis whose co-axes are all pinned by
        ``extra_params``, sweep the axis (``perfmodel.breakeven``), refine
        the break-even points to exact integers (``refine``), and attach
        the resulting :class:`DecisionTable` to the segment.  Selection on
        an input matching the baked extras is then a bisect with zero
        model evaluations; anything else falls back to model-argmin.

        A program with **two or more** unpinned size-like axes (rows x
        cols, width x height) gets the k-d generalization instead: a
        :class:`~repro.perfmodel.RegionTable` partitioning the full input
        box into winner-homogeneous regions, attached as a
        :class:`RegionDispatch` — in-box selection is then a tree walk
        with zero model evaluations.

        Returns the number of tables baked.  All evaluations spent here
        are counted as compile-time and shared with later queries through
        the cost cache.
        """
        ranges = self.program.input_ranges
        extras = dict(extra_params or {})
        unpinned = [axis for axis in sorted(ranges) if axis not in extras]
        if len(unpinned) >= 2:
            return self._bake_region_tables(unpinned, ranges, extras,
                                            samples, refine)
        baked = 0
        cost = self._selection_cost()
        for axis in sorted(ranges):
            lo, hi = ranges[axis]
            others = set(ranges) - {axis}
            if not others <= set(extras):
                continue          # multi-axis input with unpinned co-axes
            base = {k: v for k, v in extras.items() if k != axis}
            with self.cost.compile_scope():
                from_host = True
                for seg_index, segment in enumerate(self.segments):
                    eligible = self._eligible(segment, from_host)
                    variants = [
                        Variant(plan.strategy,
                                lambda v, plan=plan, axis=axis,
                                segment=segment, seg_index=seg_index:
                                self._swept_seconds(
                                    cost, segment, seg_index, plan,
                                    {**base, axis: int(v)}))
                        for plan in eligible
                    ]
                    try:
                        table = sweep_axis(variants, lo, hi,
                                           samples=samples, refine=refine)
                    except ModelSweepError:
                        # A segment the model cannot sweep over this axis
                        # (e.g. sizes that violate its schedule) simply
                        # keeps the exact model-argmin path.  Only the
                        # typed sweep-infeasibility error is treated this
                        # way — a typo-level bug in a cost model now
                        # propagates instead of silently erasing a table.
                        self.stats.sweep_failures += 1
                        segment.dispatch = None
                        from_host = False
                        continue
                    segment.dispatch = SegmentDispatch(
                        axis=axis, lo=int(table.subranges[0].lo),
                        hi=int(table.subranges[-1].hi),
                        extras=freeze_scalars(base),
                        from_host=from_host, table=table, samples=samples)
                    from_host = False
                    baked += 1
            break                 # one baked axis per segment chain
        return baked

    def _bake_region_tables(self, names: List[str], ranges: Dict,
                            extras: Dict[str, float], samples: int,
                            refine: bool) -> int:
        """Bake one k-d :class:`RegionDispatch` per sweepable segment."""
        base = dict(extras)
        axes = tuple(
            AxisSpec(name=name, lo=int(ranges[name][0]),
                     hi=int(ranges[name][1]), samples=samples)
            for name in names)
        baked = 0
        cost = self._selection_cost()
        with self.cost.compile_scope():
            from_host = True
            for seg_index, segment in enumerate(self.segments):
                eligible = self._eligible(segment, from_host)
                variants = [
                    Variant(plan.strategy,
                            lambda values, plan=plan,
                            segment=segment, seg_index=seg_index:
                            self._swept_seconds(cost, segment, seg_index,
                                                plan, {
                                **base,
                                **{name: int(v)
                                   for name, v in zip(names, values)}}))
                    for plan in eligible
                ]
                try:
                    region = sweep_region(variants, axes, refine=refine)
                except ModelSweepError:
                    # Same contract as the 1-D baker: a segment the model
                    # cannot sweep keeps the exact model-argmin path.
                    self.stats.sweep_failures += 1
                    segment.dispatch = None
                    from_host = False
                    continue
                segment.dispatch = RegionDispatch(
                    axes=tuple(names), extras=freeze_scalars(base),
                    from_host=from_host, region=region, samples=samples)
                from_host = False
                baked += 1
        return baked

    def variant_count(self) -> int:
        return sum(len(segment.plans) for segment in self.segments)

    def code_size_ratio(self) -> float:
        """Variant count relative to one kernel per segment (§5.1's 1.4×)."""
        if not self.segments:
            return 1.0
        return self.variant_count() / len(self.segments)

    def cuda_source(self) -> str:
        chunks = [f"// Adaptic-generated CUDA for {self.program.name!r} "
                  f"on {self.spec.name} ({self.options.label()})\n"]
        for segment in self.segments:
            chunks.append(f"\n// ===== segment {segment.name} "
                          f"({segment.kind}) =====\n")
            for plan in segment.plans:
                chunks.append(plan.cuda_source())
        return "".join(chunks)

    def range_report(self, samples: int = 8,
                     extra_params: Optional[Dict[str, float]] = None,
                     axis: Optional[str] = None) -> str:
        """Operating input ranges per kernel variant (§3's subranges).

        Sweeps the declared input ranges (or the single ``axis`` parameter)
        and reports, per segment, which variant the runtime would select on
        each subrange — the textual form of the paper's per-kernel
        operating-range tables — plus the selection counters.
        """
        ranges = self.program.input_ranges
        if axis is not None:
            ranges = {axis: ranges[axis]}
        if not ranges:
            return "(program declares no input ranges)"
        if len(ranges) != 1:
            # Multi-axis: list pointwise winners over the sampled grid.
            points = self.sample_points(samples, extra_params)
            lines = []
            with self.cost.compile_scope():
                for segment in self.segments:
                    lines.append(f"segment {segment.name}:")
                    for point in points:
                        plan = segment.best_plan(self.cost, point)
                        scalars = {k: v for k, v in point.items()
                                   if np.isscalar(v)}
                        lines.append(f"  {scalars} -> {plan.strategy}")
            lines.append(f"selection stats: {self.stats.summary()}")
            return "\n".join(lines)

        (name, (lo, hi)), = ranges.items()
        points = geometric_points(lo, hi, samples)
        lines = []
        with self.cost.compile_scope():
            for segment in self.segments:
                lines.append(f"segment {segment.name}:")
                current = None
                start = prev = points[0]
                for value in points:
                    params = dict(extra_params or {})
                    params[name] = value
                    strategy = segment.best_plan(self.cost, params).strategy
                    if strategy != current:
                        if current is not None:
                            lines.append(
                                f"  {name} in [{start}, {prev}] -> {current}")
                        current, start = strategy, value
                    prev = value
                lines.append(f"  {name} in [{start}, {points[-1]}] -> {current}")
        lines.append(f"selection stats: {self.stats.summary()}")
        return "\n".join(lines)

    def describe(self, tables: bool = False) -> str:
        """Program summary; ``tables=True`` adds the full baked region /
        break-even maps (the ``python -m repro describe --tables`` view)."""
        lines = [f"CompiledProgram {self.program.name!r} "
                 f"[{self.options.label()}] on {self.spec.name}"]
        for segment in self.segments:
            lines.append(f"  {segment.name} ({segment.kind}; actors: "
                         f"{', '.join(segment.actors)})")
            for plan in segment.plans:
                lines.append(f"    - {plan.strategy}")
            d = segment.dispatch
            if type(d) is RegionDispatch:
                box = " x ".join(f"{ax.name} in [{ax.lo}, {ax.hi}]"
                                 for ax in d.region.axes)
                lines.append(
                    f"    [region table over {box}: "
                    f"{d.region.n_leaves} regions, "
                    f"{len(d.region.boundaries())} boundaries]")
                if tables:
                    for line in d.region.describe():
                        lines.append(f"      {line}")
            elif d is not None:
                lines.append(
                    f"    [dispatch table on {d.axis!r} in "
                    f"[{d.lo}, {d.hi}]: "
                    f"{len(d.table.subranges)} subranges]")
                if tables:
                    for sub in d.table.subranges:
                        lines.append(f"      {d.axis} in "
                                     f"[{sub.lo}, {sub.hi}] -> "
                                     f"{sub.variant}")
        lines.append(f"  selection stats: {self.stats.summary()}")
        return "\n".join(lines)
