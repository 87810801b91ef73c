"""Spans recorded around calls into the program's public functions.

A :class:`Tracer` replaces public methods of the program's public types
(``repro.api``) with thin wrappers that time each call.  Every span has
a name, start, end, parent span and request id; spans stay in memory
and are written out as JSON lines when the run ends.  Only the traced
run installs wrappers — timed runs never import this module's hooks.

Layers are named after the program's modules::

    adaptic.compile            api.compile
    breakeven.bake             CompiledProgram.bake_decision_tables
    breakeven.resweep_subtree  RegionTable.resweep_subtree
    runtime.run / run_batch / warmup / select
    runtime.restructure        KernelPlan.restructure_input
    cpuplan.execute_host       host-placed plans' execute_host
    device.launch / launch_fused_chain / to_device / to_host
    calibration.observe        CalibrationStore.observe
    segments.patch_at          SegmentDispatch / RegionDispatch.patch_at

Work the program does inside a function it imports by name cannot be
reached by a wrapper; for that the benchmark reads the program's own
counters at the boundary (``SelectionStats``, ``RunResult.stage_seconds``).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "thread")

    def __init__(self, id, name, start, parent, request, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request, "thread": self.thread}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.id if parent else None, request,
                    threading.current_thread().name)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    # -- wrappers --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a spanned call (idempotent).

        ``after(result)`` runs on the wrapped call's return value.
        """
        current = getattr(owner, attr)
        if getattr(current, "_perfbench_span", None):
            return                     # already wrapped, maybe via a base
        own = vars(owner)
        self._restore.append((owner, attr, attr in own, own.get(attr)))
        tracer = self

        @functools.wraps(current)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = current(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        traced._perfbench_span = name
        setattr(owner, attr, traced)

    def install(self, api) -> None:
        """Wrap the public entry points named in the module docstring."""
        self.wrap(api, "compile", "adaptic.compile", after=self._wrap_plans)
        program = api.CompiledProgram
        for attr, name in (("bake_decision_tables", "breakeven.bake"),
                           ("run", "runtime.run"),
                           ("run_batch", "runtime.run_batch"),
                           ("warmup", "runtime.warmup"),
                           ("select", "runtime.select")):
            self.wrap(program, attr, name)
        for attr in ("launch", "launch_fused_chain", "to_device", "to_host"):
            self.wrap(api.Device, attr, f"device.{attr}")
        self.wrap(api.CalibrationStore, "observe", "calibration.observe")
        self.wrap(api.SegmentDispatch, "patch_at", "segments.patch_at")
        self.wrap(api.RegionDispatch, "patch_at", "segments.patch_at")
        self.wrap(api.RegionTable, "resweep_subtree",
                  "breakeven.resweep_subtree")

    def _wrap_plans(self, compiled) -> None:
        """Plan classes are only reachable through a compiled program."""
        for segment in compiled.segments:
            for plan in segment.plans:
                cls = type(plan)
                self.wrap(cls, "restructure_input", "runtime.restructure")
                if getattr(plan, "placement", "gpu") == "cpu":
                    self.wrap(cls, "execute_host", "cpuplan.execute_host")

    def uninstall(self) -> None:
        for owner, attr, had_own, saved in reversed(self._restore):
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # -- output ----------------------------------------------------------
    def write_jsonl(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict()) + "\n")


class SpanView:
    """Aggregates over the spans that started in ``[since, until)``.

    Spans named ``exclude``, and every span under one, are left out.
    """

    def __init__(self, tracer: Tracer, since: float = 0.0,
                 until: float = float("inf"),
                 exclude: Optional[str] = None):
        by_id = {s.id: s for s in tracer.spans}

        def excluded(span) -> bool:
            while span is not None:
                if span.name == exclude:
                    return True
                span = by_id.get(span.parent)
            return False

        self.spans = [s for s in tracer.spans if since <= s.start < until
                      and not (exclude and excluded(s))]
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self._child_seconds: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self._child_seconds[span.parent] += span.seconds

    def count(self, *names: str) -> int:
        return sum(len(self.by_name.get(n, ())) for n in names)

    def total_ms(self, *names: str) -> float:
        return sum(s.seconds for n in names
                   for s in self.by_name.get(n, ())) * 1e3

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.by_name.get(name, ())]

    def self_ms(self) -> Dict[str, float]:
        """Per layer: span time minus the time of its child spans."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += (span.seconds
                               - self._child_seconds.get(span.id, 0.0)) * 1e3
        return dict(sorted(out.items()))

    def unattributed_share(self, name: str = "runtime.run") -> float:
        """Share of ``name`` wall covered by no child span."""
        runs = self.by_name.get(name, ())
        wall = sum(s.seconds for s in runs)
        if not wall:
            return 0.0
        covered = sum(self._child_seconds.get(s.id, 0.0) for s in runs)
        return max(wall - covered, 0.0) / wall
