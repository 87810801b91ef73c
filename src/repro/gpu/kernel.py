"""Kernel and thread-context abstractions for the SIMT substrate.

A :class:`Kernel` couples a per-thread body with the metadata the occupancy
and performance models need (register pressure, shared-memory footprint).
Bodies are plain Python callables taking a :class:`ThreadCtx`; bodies that
use ``__syncthreads`` are *generator functions* that ``yield`` at each
barrier, which lets the executor run all threads of a block to the barrier
before any proceeds — the same semantics CUDA guarantees.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .memory import AccessEvent, DeviceArray, MemoryTracer, SharedMemory

#: Sentinel yielded by kernel bodies at ``__syncthreads()`` barriers.
SYNC = "sync"


@dataclasses.dataclass(frozen=True)
class Dim3:
    """CUDA-style launch dimension (x fastest-varying)."""

    x: int
    y: int = 1
    z: int = 1

    @property
    def count(self) -> int:
        return self.x * self.y * self.z

    @staticmethod
    def of(value) -> "Dim3":
        if isinstance(value, Dim3):
            return value
        if isinstance(value, int):
            return Dim3(value)
        return Dim3(*value)


class ThreadCtx:
    """Per-thread execution context handed to kernel bodies.

    Exposes CUDA's builtin coordinates plus traced accessors for global and
    shared memory.  Kernel code should route all memory traffic through
    :meth:`gload`/:meth:`gstore`/:meth:`sload`/:meth:`sstore` so the memory
    instrumentation sees it.
    """

    __slots__ = ("tx", "ty", "tz", "bx", "by", "bz", "bdim", "gdim",
                 "args", "shared", "_tracer", "_block_linear",
                 "_thread_linear", "_smem")

    def __init__(self, tx: int, ty: int, tz: int, bx: int, by: int, bz: int,
                 bdim: Dim3, gdim: Dim3, args: Dict[str, Any],
                 smem: SharedMemory, tracer: Optional[MemoryTracer],
                 block_linear: int, thread_linear: int):
        self.tx, self.ty, self.tz = tx, ty, tz
        self.bx, self.by, self.bz = bx, by, bz
        self.bdim = bdim
        self.gdim = gdim
        self.args = args
        self.shared = smem.arrays
        self._smem = smem
        self._tracer = tracer
        self._block_linear = block_linear
        self._thread_linear = thread_linear

    # -- CUDA-style coordinates ---------------------------------------
    @property
    def thread_linear(self) -> int:
        return self._thread_linear

    @property
    def block_linear(self) -> int:
        return self._block_linear

    @property
    def global_tid(self) -> int:
        """Linear global thread id (bx * blockDim + tx for 1-D launches)."""
        return self._block_linear * self.bdim.count + self._thread_linear

    # -- global memory --------------------------------------------------
    def gload(self, array: DeviceArray, index) -> Any:
        index = int(index)
        if self._tracer is not None:
            self._tracer.record(
                self._block_linear, self._thread_linear,
                AccessEvent("global", array.address_of(index), False,
                            array.itemsize))
        # Registers are 64-bit: loads widen to Python floats so both
        # executor paths do arithmetic in float64 regardless of the
        # array's storage dtype (stores round back identically).
        return float(array.data[index])

    def gstore(self, array: DeviceArray, index, value) -> None:
        index = int(index)
        if self._tracer is not None:
            self._tracer.record(
                self._block_linear, self._thread_linear,
                AccessEvent("global", array.address_of(index), True,
                            array.itemsize))
        array.data[index] = value

    # -- shared memory ---------------------------------------------------
    def sload(self, name: str, index) -> Any:
        index = int(index)
        array = self.shared[name]
        if self._tracer is not None:
            self._tracer.record(
                self._block_linear, self._thread_linear,
                AccessEvent("shared", self._smem.addr(name, index),
                            False, array.itemsize))
        return float(array[index])

    def sstore(self, name: str, index, value) -> None:
        index = int(index)
        array = self.shared[name]
        if self._tracer is not None:
            self._tracer.record(
                self._block_linear, self._thread_linear,
                AccessEvent("shared", self._smem.addr(name, index),
                            True, array.itemsize))
        array[index] = value


#: Shared-memory request: name -> (element count, numpy dtype).
SharedSpec = Dict[str, Tuple[int, Any]]


class AmbiguousKernelBodyError(TypeError):
    """Raised when barrier usage cannot be inferred from a kernel body.

    Generator bodies get barrier semantics, plain callables do not — so a
    body whose kind cannot be determined (an exotic callable hiding its
    code object) must declare itself via ``kernel.meta["barriers"]`` rather
    than silently lose its barriers.
    """


def _unwrap_body(fn):
    """Peel ``functools.partial`` layers and ``__wrapped__`` chains."""
    seen = {id(fn)}
    while True:
        nxt = (fn.func if isinstance(fn, functools.partial)
               else getattr(fn, "__wrapped__", None))
        if nxt is None or id(nxt) in seen:
            return fn
        seen.add(id(nxt))
        fn = nxt


def kernel_uses_barriers(kernel: "Kernel") -> bool:
    """Whether a kernel body must run under barrier (generator) semantics.

    ``kernel.meta["barriers"]`` overrides inference.  Otherwise the body is
    unwrapped through ``functools.partial`` and decorator ``__wrapped__``
    chains before testing for generator-ness, so wrapped barrier kernels
    are never misclassified as straight-line code.  Raises
    :class:`AmbiguousKernelBodyError` for callables whose kind cannot be
    determined.
    """
    meta = getattr(kernel, "meta", None) or {}
    if "barriers" in meta:
        return bool(meta["barriers"])
    fn = _unwrap_body(kernel.body)
    if inspect.isgeneratorfunction(fn):
        return True
    if inspect.isfunction(fn) or inspect.ismethod(fn) or \
            inspect.isbuiltin(fn):
        return False
    call = getattr(type(fn), "__call__", None)
    if call is not None and not inspect.isclass(fn):
        call = _unwrap_body(call)
        if inspect.isgeneratorfunction(call):
            return True
        if inspect.isfunction(call):
            return False
    raise AmbiguousKernelBodyError(
        f"cannot tell whether kernel body {kernel.body!r} uses barriers; "
        "set kernel.meta['barriers'] explicitly")


@dataclasses.dataclass
class Kernel:
    """An executable GPU kernel plus its resource metadata.

    ``shared_spec`` may be a static mapping or a callable
    ``(args, block_dim) -> mapping`` for kernels whose shared footprint
    depends on launch parameters (e.g. reduction kernels allocating one word
    per thread).
    """

    name: str
    body: Callable[[ThreadCtx], Any]
    regs_per_thread: int = 16
    shared_spec: Any = None
    source: Optional[str] = None          # generated CUDA C, when available
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Optional whole-grid numpy implementation with identical semantics to
    #: ``body``; the executor's vectorized mode uses it when present.
    vector_body: Optional[Callable] = None
    #: Optional zero-argument whole-array implementation (closed over the
    #: launch's buffers) with identical results to ``body``.  It performs
    #: no per-access bookkeeping, so the executor runs it only for
    #: untraced vectorized launches; traced launches keep ``vector_body``.
    direct_body: Optional[Callable[[], None]] = None

    def shared_for(self, args: Dict[str, Any], block: Dim3) -> SharedSpec:
        if self.shared_spec is None:
            return {}
        if callable(self.shared_spec):
            return self.shared_spec(args, block)
        return dict(self.shared_spec)

    def shared_bytes(self, args: Dict[str, Any], block: Dim3) -> int:
        return sum(int(size) * np.dtype(dtype).itemsize
                   for size, dtype in self.shared_for(args, block).values())


@dataclasses.dataclass(frozen=True)
class LaunchConfig:
    """Grid/block shape for one kernel launch."""

    grid: Dim3
    block: Dim3

    @staticmethod
    def of(grid, block) -> "LaunchConfig":
        return LaunchConfig(Dim3.of(grid), Dim3.of(block))

    @property
    def total_threads(self) -> int:
        return self.grid.count * self.block.count

    @property
    def blocks(self) -> int:
        return self.grid.count

    def warps_per_block(self, warp_size: int) -> int:
        return math.ceil(self.block.count / warp_size)
