"""Kernel-plan infrastructure.

A :class:`KernelPlan` is one concrete GPU implementation strategy for a
program segment: it knows how to *execute* functionally (launch simulator
kernels on a device), how to *predict* its time (produce
:class:`~repro.perfmodel.KernelWorkload` descriptions for the analytic
model), and how to *emit* CUDA C text.  Adaptic's input-aware optimizations
work by generating several plans per segment and letting the performance
model pick per input subrange.
"""

from __future__ import annotations

import abc
import dataclasses
import re
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ...gpu import Device, DeviceArray, GPUSpec
from ...perfmodel import KernelWorkload, PerformanceModel
from ..exprgen import KernelFactories

#: Canonical buffer names inside a segment.
IN = "in"
OUT = "out"

#: Input layouts a plan may require (memory restructuring, §4.1.1).
LAYOUT_INTERLEAVED = "interleaved"    # stream order, AoS
LAYOUT_RESTRUCTURED = "restructured"  # component-major, SoA


@dataclasses.dataclass
class PlannedLaunch:
    """One kernel launch in a plan, with its modeled workload."""

    name: str
    grid: int
    block: int
    workload: KernelWorkload


class KernelPlan(abc.ABC):
    """One implementation strategy for a segment, on one GPU target."""

    #: Human-readable strategy tag shown in reports (e.g. "reduce.two_kernel").
    strategy: str = "generic"

    #: Device this plan executes on: ``"gpu"`` plans consume device
    #: buffers, ``"cpu"`` plans compute on host arrays via
    #: :meth:`execute_host`.  Heterogeneous placement treats this as a
    #: selection axis — the runtime materializes the implied h2d/d2h
    #: hops at placement boundaries, and the cost layer charges them.
    placement: str = "gpu"

    def __init__(self, spec: GPUSpec, name: str):
        self.spec = spec
        self.name = name
        #: Optimizations this plan embodies (for Figure 11-style breakdowns).
        self.optimizations: List[str] = []
        #: Input layout the plan requires.
        self.input_layout: str = LAYOUT_INTERLEAVED
        #: Element factories, compiled once per expression and bound per
        #: binding by :meth:`bind` (a program shares one cache across its
        #: plans, see :meth:`use_factories`).
        self.factories = KernelFactories()

    # -- identity ---------------------------------------------------------
    @property
    def family(self) -> str:
        """Variant family: the strategy tag with parametrization stripped.

        ``reduce.two_kernel[@64]`` and ``reduce.two_kernel[@128]`` are one
        family (``reduce.two_kernel``): all parametrizations of one code
        shape share the analytic model's systematic error, so measured
        calibration factors are learned and applied per family.  Layout
        suffixes (``+rows`` / ``+transposed``) stay distinct — they change
        the memory behavior the model must predict.
        """
        return re.split(r"[\[@]", self.strategy, maxsplit=1)[0]

    def variant_key(self, params: Optional[Dict[str, float]] = None) -> str:
        """Identity of this variant in feedback records (the strategy tag)."""
        return self.strategy

    # -- modeling ---------------------------------------------------------
    @abc.abstractmethod
    def launches(self, params: Dict[str, float]) -> List[PlannedLaunch]:
        """The launch sequence for one execution, with workloads."""

    def predicted_seconds(self, model: PerformanceModel,
                          params: Dict[str, float]) -> float:
        """Model-predicted execution time including launch overheads."""
        total = 0.0
        for launch in self.launches(params):
            est = model.estimate(launch.workload)
            total += est.seconds + self.spec.kernel_launch_overhead_us * 1e-6
        return total

    # -- execution ----------------------------------------------------------
    def bind(self, params: Dict[str, float]
             ) -> Callable[[Device, DeviceArray], DeviceArray]:
        """Specialize this plan to one parameter binding.

        Everything that depends only on the binding — sizes, bound
        element functions and reducers, tile, offsets, cell masks,
        launch geometry — is derived here, once; the returned
        ``run(device, inbuf) -> out`` only allocates its output and
        launches.  The runtime lowers each warm binding's chain into
        these (see :mod:`repro.compiler.schedule`).  Host-placed plans
        inherit this default: their device path copies the host
        result of :meth:`execute_host` into a device buffer.
        """
        bound = self.bind_host(params)
        name = f"{self.name}.out"

        def run(device: Device, inbuf: DeviceArray) -> DeviceArray:
            return device.alloc_from(self.execute_host(inbuf.data, bound),
                                     name=name)
        return run

    def execute(self, device: Device, buffers: Dict[str, DeviceArray],
                params: Dict[str, float]) -> DeviceArray:
        """Run functionally; returns the segment output buffer."""
        return self.bind(params)(device, buffers[IN])

    def bind_host(self, params: Dict[str, float]) -> Any:
        """The binding-only state :meth:`execute_host` consumes."""
        raise NotImplementedError(
            f"{type(self).__name__} ({self.strategy}) is a GPU plan; "
            f"it has no host execution path")

    def execute_host(self, data: np.ndarray, bound: Any) -> np.ndarray:
        """Run on the host: consume a host array, return a host array.

        ``bound`` is :meth:`bind_host`'s result for the binding.  Only
        meaningful for ``placement == "cpu"`` plans; the runtime calls
        this instead of :meth:`execute` when the segment is placed on
        the CPU, so no device buffer round-trip happens at all.
        """
        raise NotImplementedError(
            f"{type(self).__name__} ({self.strategy}) is a GPU plan; "
            f"it has no host execution path")

    def chain_stage(self, params: Dict[str, float]):
        """Chain-level ``vector_body`` contract (segment-chain fusion).

        Plans whose vectorized execution is a pure lane-independent map
        over the iteration space return a
        :class:`~repro.compiler.exprgen.ChainStage` describing it, which
        lets the runtime fuse consecutive segments into one emitted
        kernel.  The default is ``None`` — not fusable.  Plans whose
        vector bodies depend on launch geometry (block-structured
        reductions, stencil tiles, generic actors) must keep the default:
        a whole-stream reduction consumes every lane's value, so it can
        terminate a chain but never extend one.
        """
        return None

    @abc.abstractmethod
    def output_size(self, params: Dict[str, float]) -> int:
        """Number of elements the segment produces."""

    def use_factories(self, factories: KernelFactories) -> None:
        """Compile element functions through ``factories`` from now on."""
        self.factories = factories

    # -- host-side staging -----------------------------------------------
    def restructure_input(self, data: np.ndarray, params) -> np.ndarray:
        """Host-side staging into the plan's required layout.

        Returns a strided *view* of ``data`` whose C-order traversal is
        the plan's layout; :meth:`Device.to_device` materializes it in
        its one copy, so staging builds no index array and copies
        nothing itself.  The canonical layout is ``data`` unchanged.
        """
        return np.asarray(data).reshape(-1)

    # -- code emission ----------------------------------------------------
    def cuda_source(self) -> str:
        """Generated CUDA C text for this plan's kernels."""
        return f"/* {self.name}: no CUDA emitter for this plan */\n"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.strategy})"


def first_use(builder: Callable[[], Any]) -> Callable[[], Any]:
    """A thunk that runs ``builder`` on its first call only.

    Kernel bodies use it for artifacts only one execution path reads —
    the REFERENCE oracle's scalar element functions — so the other paths
    never bind (or compile) them.  The value is immutable once built, so
    a bound plan may be shared by threads (a race builds it twice).
    """
    box: List[Any] = []

    def get():
        if not box:
            box.append(builder())
        return box[0]
    return get


def freeze_scalars(params) -> tuple:
    """Hashable projection of a parameter binding onto its scalars.

    The canonical cache key for anything that depends on a parameter
    binding only through the analytic model (costs, schedules, reducers).
    """
    return tuple(sorted((k, v) for k, v in (params or {}).items()
                        if np.isscalar(v)))


def freeze_arrays(params) -> tuple:
    """Hashable identity projection of the non-scalar parameter entries.

    Complements :func:`freeze_scalars` for caches whose artifacts embed
    auxiliary arrays (bound element functions close over them): arrays
    are keyed by ``id()``, so the cache owner must pin the array objects to
    keep ids unambiguous.  ``None`` placeholders participate by identity
    too, which is stable and cheap.
    """
    return tuple(sorted((k, id(v)) for k, v in (params or {}).items()
                        if not np.isscalar(v)))


def expr_ops(expr) -> int:
    """Dynamic instruction estimate for one evaluation of an IR expression."""
    from ...ir import nodes as N
    return sum(1 for n in expr.walk()
               if isinstance(n, (N.BinOp, N.UnaryOp, N.Call, N.Index)))


def expr_aux_loads(expr) -> int:
    from ...ir import nodes as N
    return sum(1 for n in expr.walk() if isinstance(n, N.Index))
