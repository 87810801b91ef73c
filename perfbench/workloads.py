"""The four seeded workloads: programs, set-up and request streams.

Everything the program sees comes through ``repro.api`` and
``repro.apps``.  Every call runs in ``ExecMode.VECTORIZED``; the
REFERENCE oracle is only used by the output checks, outside the timed
window.  Input generation happens here, never inside a timed section.
"""

from __future__ import annotations

import dataclasses
import gc
import math
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import api
from repro.apps import blas1, imagepipe, stencil2d, tmv

VECTORIZED = api.RunOptions(exec_mode=api.ExecMode.VECTORIZED)
REFERENCE = api.RunOptions(exec_mode=api.ExecMode.REFERENCE)
#: Feedback bias applied before baking in ``feedback-writes``.
FEEDBACK_BIAS = 3.0


@dataclasses.dataclass
class Request:
    """One call into the program, with what its output must equal."""

    app: str
    data: np.ndarray
    params: Dict
    expected: Callable[[], np.ndarray]
    _reference: Optional[np.ndarray] = None

    def reference(self) -> np.ndarray:
        """The app's numpy reference output (computed once)."""
        if self._reference is None:
            self._reference = np.asarray(self.expected()).reshape(-1)
        return self._reference

    def scalars(self) -> Dict:
        return {k: v for k, v in self.params.items() if np.isscalar(v)}


# -- programs ---------------------------------------------------------------
def compile_app(app: str) -> Tuple[object, int]:
    """Compile one app as the workloads use it; returns (program, tables).

    TMV and imagepipe bake k-d region tables, sdot bakes a 1-D table with
    ``r=1`` pinned, and ocean_fft keeps exact argmin (its ``width`` axis
    cannot be pinned, so it has no table).
    """
    if app == "tmv":
        program = api.compile(tmv.build())
        return program, program.bake_decision_tables()
    if app == "sdot":
        program = api.compile(blas1.build("sdot"))
        return program, program.bake_decision_tables(extra_params={"r": 1})
    if app == "ocean_fft":
        return api.compile(stencil2d.build()), 0
    if app == "imagepipe":
        program = api.compile(imagepipe.build(), options=api.AdapticOptions(
            placement=True, fuse_chains=True))
        return program, program.bake_decision_tables()
    raise KeyError(app)


def make_request(app: str, dims: Tuple[int, int], rng,
                 vec: Optional[np.ndarray] = None) -> Request:
    """A seeded input for ``app`` at ``dims`` plus its numpy reference."""
    a, b = dims
    if app == "tmv":
        matrix = rng.standard_normal(a * b)
        vec = rng.standard_normal(b) if vec is None else vec
        return Request(app, matrix, {"rows": a, "cols": b, "vec": vec},
                       lambda: tmv.reference(matrix, vec, a, b))
    if app == "sdot":
        data = blas1.make_input("sdot", a, 1, rng)
        params = {"n": a, "r": 1}
        return Request(app, data, params,
                       lambda: blas1.reference("sdot", data, params))
    if app == "ocean_fft":
        data, params = stencil2d.make_input(a, b, rng)
        return Request(app, data, params,
                       lambda: stencil2d.reference(data, a))
    if app == "imagepipe":
        data, params = imagepipe.make_input(a, b, rng)
        return Request(app, data, params,
                       lambda: imagepipe.reference(data, a, b))
    raise KeyError(app)


def log_uniform_int(lo: int, hi: int, u: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi)
                                                  - math.log(lo)))))


class Stratified:
    """Seeded uniform draws in [0, 1), stratified in blocks of ``k``.

    Each block of ``k`` draws has one value in each of ``k`` equal
    strata, so the marginal stays uniform while short prefixes of the
    stream already cover the whole range.
    """

    def __init__(self, rng, k: int = 8):
        self.rng, self.k, self._block = rng, k, []

    def __call__(self) -> float:
        if not self._block:
            self._block = list((self.rng.permutation(self.k)
                                + self.rng.random(self.k)) / self.k)
        return float(self._block.pop())


class UnbiasedCost:
    """Modeled seconds of one plan at one binding, by the unbiased model.

    Uses the program's own :class:`PerformanceModel` for its target
    directly (never the calibrated or biased selection costs), memoized
    per (plan, scalars); it touches none of the program's counters.
    """

    def __init__(self, program):
        self.model = program.model
        self._memo: Dict[tuple, float] = {}

    def __call__(self, plan, params) -> float:
        key = (id(plan), tuple(sorted((k, v) for k, v in params.items()
                                      if np.isscalar(v))))
        seconds = self._memo.get(key)
        if seconds is None:
            seconds = self._memo[key] = plan.predicted_seconds(self.model,
                                                               params)
        return seconds


class Observer(UnbiasedCost):
    """The feedback observer: unbiased modeled seconds of one plan."""


# -- workloads --------------------------------------------------------------
class Workload:
    """Base: seeded inputs, a timed set-up, and a request stream."""

    name = ""
    #: Requests go through ``Server.submit`` in bursts, not ``run()``.
    via_server = False
    #: Requests a traced run makes (fixed, so its counters repeat).
    trace_requests = 600

    #: The feedback observer's type, so a traced run can span it as
    #: benchmark time rather than program time.
    observer_class = None

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.programs: Dict[str, object] = {}
        self.tables = 0

    def prepare(self) -> None:
        """Generate inputs that set-up needs (not timed)."""

    def setup(self) -> None:
        """Compile, bake and warm; timed as ``setup_s``."""
        raise NotImplementedError

    def requests(self) -> Iterator[Request]:
        raise NotImplementedError

    def execute(self, request: Request):
        return self.programs[request.app].run(
            request.data, request.params, options=VECTORIZED)

    def _compile(self, apps) -> None:
        self.programs, self.tables = {}, 0
        for app in apps:
            self.programs[app], tables = compile_app(app)
            self.tables += tables


class WarmKernels(Workload):
    """Eleven fixed mid-size bindings, warmed in set-up, cycled in seeded order.

    The steady serving path: the emulated kernel stage dominates, and
    selection is a table hit.  Each binding keeps one ``vec`` object,
    because cached kernels key on aux-array identity.
    """

    name = "warm-kernels"
    trace_requests = 900
    #: (app, dims) and the variants they select.  Sizes are picked so
    #: warm latencies sit close together: a median over a mix of widely
    #: separated latency clusters jumps between clusters on a noisy box.
    BINDINGS = (
        ("tmv", (8192, 16)),        # reduce.thread_per_array+transposed
        ("tmv", (2048, 64)),        # reduce.thread_per_array+transposed
        ("tmv", (16, 2048)),        # reduce.single_kernel
        ("tmv", (4, 8192)),         # reduce.two_kernel
        ("sdot", (4096, 1)),        # reduce.two_kernel+row_soa
        ("sdot", (8192, 1)),        # reduce.two_kernel+row_soa
        ("ocean_fft", (96, 96)),    # stencil.super_tile
        ("ocean_fft", (128, 128)),  # stencil.super_tile
        ("imagepipe", (64, 64)),    # cpu.vector_map + stencil.super_tile
        ("imagepipe", (128, 64)),   # cpu.vector_map + stencil.super_tile
        ("imagepipe", (256, 64)),   # cpu.vector_map + stencil.super_tile
    )
    #: Seeded inputs kept per binding (contents vary, identity does not).
    POOL = 4

    def prepare(self) -> None:
        self.pool: List[List[Request]] = []
        for app, dims in self.BINDINGS:
            first = make_request(app, dims, self.rng)
            vec = first.params.get("vec")
            self.pool.append([first] + [
                make_request(app, dims, self.rng, vec=vec)
                for _ in range(self.POOL - 1)])

    def setup(self) -> None:
        self._compile(sorted({app for app, _ in self.BINDINGS}))
        for requests in self.pool:
            request = requests[0]
            self.programs[request.app].warmup(request.params,
                                              options=VECTORIZED)

    def requests(self) -> Iterator[Request]:
        while True:
            for index in self.rng.permutation(len(self.pool)):
                yield self.pool[index][int(self.rng.integers(self.POOL))]


class ShapeChurn(Workload):
    """Every request is a binding not seen before, log-uniform small sizes.

    Input portability: selection, per-binding code generation and
    per-binding caching run on every request.  TMV and imagepipe hit
    k-d tables, sdot a 1-D table, ocean_fft exact argmin.
    """

    name = "shape-churn"
    trace_requests = 600
    #: app -> per-axis (lo, hi) of the log-uniform draw.
    RANGES = {
        "tmv": ((4, 512), (4, 512)),
        "sdot": ((1024, 32768), (1, 1)),
        "ocean_fft": ((64, 256), (64, 256)),
        "imagepipe": ((32, 256), (32, 256)),
    }

    def setup(self) -> None:
        self._compile(sorted(self.RANGES))

    def requests(self) -> Iterator[Request]:
        apps = sorted(self.RANGES)
        axes = {app: (Stratified(self.rng), Stratified(self.rng))
                for app in apps}
        seen = set()
        while True:
            for app in self.rng.permutation(apps):
                app = str(app)
                while True:
                    dims = tuple(log_uniform_int(lo, hi, draw())
                                 for (lo, hi), draw in zip(self.RANGES[app],
                                                           axes[app]))
                    if (app, dims) not in seen:
                        break
                seen.add((app, dims))
                yield make_request(app, dims, self.rng)


class FeedbackWrites(Workload):
    """Imagepipe baked under a biased model, run with observer feedback.

    The write side of selection: observations fold into calibration,
    mispredicts probe the runner-up, tables get patched in place and
    subtrees re-swept.  The observer prices with the unbiased model, so
    the run is deterministic.

    Requests come in episodes of ``EPISODE``.  Each episode after the
    first starts from a fresh set-up -- compile, biased bake, warm-up --
    made outside the timed window (inside ``next()`` on the request
    stream).  The writes then recur through the whole run instead of
    settling in its first second.  Which variant the feedback settles on
    for a shape depends on the order the shapes arrive in, so a run that
    kept one program would carry its first episode's outcome to the end;
    fresh episodes draw it anew each time.
    """

    name = "feedback-writes"
    trace_requests = 600
    observer_class = Observer
    WIDTHS = (32, 43, 58, 78, 104, 140, 189, 256)
    HEIGHTS = (32, 54, 91, 152, 256)
    POOL = 2
    EPISODE = 200

    def prepare(self) -> None:
        self.shapes = [(w, h) for w in self.WIDTHS for h in self.HEIGHTS]
        self.pool = [[make_request("imagepipe", shape, self.rng)
                      for _ in range(self.POOL)] for shape in self.shapes]

    def setup(self) -> None:
        program = api.compile(imagepipe.build(), options=api.AdapticOptions(
            placement=True, fuse_chains=True))
        # Bias the family the model picks at the middle of the declared
        # grid, then bake: the baked surface starts in the wrong place.
        (lo_w, hi_w) = program.program.input_ranges["width"]
        (lo_h, hi_h) = program.program.input_ranges["height"]
        middle = {"width": int(round(math.sqrt(lo_w * hi_w))),
                  "height": int(round(math.sqrt(lo_h * hi_h)))}
        family = program.select(middle)[0].family
        program.calibration.set_model_bias(family, FEEDBACK_BIAS)
        self.tables = program.bake_decision_tables()
        self.programs = {"imagepipe": program}
        self.truth = self.observer_class(program)
        self.options = api.RunOptions(
            exec_mode=api.ExecMode.VECTORIZED,
            feedback=api.FeedbackConfig(observer=self.truth))
        for requests in self.pool:
            program.warmup(requests[0].params, options=VECTORIZED)

    def requests(self) -> Iterator[Request]:
        # Draws with reuse, in seeded blocks that visit every shape once:
        # each seed then offers the same shape mix, in its own order.
        served = 0
        while True:
            for index in self.rng.permutation(len(self.pool)):
                if served and served % self.EPISODE == 0:
                    # Free the last episode's program before the next
                    # one exists, so memory holds one at a time.
                    self.programs = {}
                    gc.collect()
                    self.setup()
                served += 1
                yield self.pool[index][int(self.rng.integers(self.POOL))]

    def execute(self, request: Request):
        return self.programs["imagepipe"].run(
            request.data, request.params, options=self.options)


class ServeBurst(Workload):
    """Seeded bursts of same-shape TMV requests through ``Server.submit``.

    The only workload through admission, coalescing and stream-axis
    fusion.  One caller submits each burst of 1-16 requests at once,
    awaits all of them, then sends the next burst.  Each request's
    latency runs from its burst's submission to its own result.
    """

    name = "serve-burst"
    via_server = True
    trace_requests = 1200
    TENANTS = ("alice", "bob")
    MAX_BURST = 16
    CONFIG = dict(max_batch=16, max_delay_s=0.002, fuse_axis="rows")
    #: Seeded inputs kept per shape; bursts draw from them.
    POOL = 32

    def prepare(self) -> None:
        self.shapes = tmv.shape_sweep(1 << 10)
        self.vecs = [self.rng.standard_normal(cols)
                     for _rows, cols in self.shapes]
        self.pool = [[make_request("tmv", shape, self.rng, vec=vec)
                      for _ in range(self.POOL)]
                     for shape, vec in zip(self.shapes, self.vecs)]

    def setup(self) -> None:
        self._compile(["tmv"])
        program = self.programs["tmv"]
        # Prime every binding a dispatch can reach: the base shape and
        # each fused multiple, forced to the base selection as the
        # server forces it.
        for (rows, cols), vec in zip(self.shapes, self.vecs):
            base = {"rows": rows, "cols": cols, "vec": vec}
            force = {segment.name: plan.strategy for segment, plan
                     in zip(program.segments, program.select(base))}
            program.warmup(base, options=VECTORIZED)
            for k in range(2, self.MAX_BURST + 1):
                program.warmup({**base, "rows": rows * k}, force=force,
                               options=VECTORIZED)

    def server(self):
        config = api.ServeConfig(max_queue_depth=1 << 20,
                                 options=VECTORIZED, **self.CONFIG)
        tenants = [api.TenantConfig(name=name, quota=1 << 20)
                   for name in self.TENANTS]
        return api.Server(self.programs["tmv"], config, tenants=tenants)

    def bursts(self) -> Iterator[Tuple[str, List[Request]]]:
        """(tenant, same-shape requests), in seeded blocks.

        Each block holds every (shape, size) pair once, so every seed
        offers the same mix of shapes and burst sizes in its own order.
        """
        pairs = [(shape, size) for shape in range(len(self.pool))
                 for size in range(1, self.MAX_BURST + 1)]
        while True:
            for index in self.rng.permutation(len(pairs)):
                shape, size = pairs[index]
                tenant = self.TENANTS[int(self.rng.integers(
                    len(self.TENANTS)))]
                yield tenant, [self.pool[shape][int(i)] for i in
                               self.rng.integers(self.POOL, size=size)]


WORKLOADS = {cls.name: cls for cls in
             (WarmKernels, ShapeChurn, FeedbackWrites, ServeBurst)}
