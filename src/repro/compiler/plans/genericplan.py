"""Generic actor plan — the input-unaware baseline mapping.

"A StreamIt program consists of several actors that can be described as
fine-grained jobs executed by each thread" (§3): the baseline maps one work
invocation to one thread.  Each thread interprets the actor's work function
against its slice of the stream.  The two layouts reproduce Figure 3: in the
canonical (interleaved) layout a thread's pops walk *consecutive* addresses,
so the warp's simultaneous accesses are strided and uncoalesced; after
memory restructuring each pop position is contiguous across threads and all
accesses coalesce.

This plan also serves as the universal fallback: any actor the pattern
matchers cannot classify still compiles and runs through it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

from ...gpu import Device, DeviceArray, GPUSpec, Kernel
from ...ir import nodes as N
from ...ir.interp import WorkInterpreter
from ...perfmodel import KernelWorkload
from ..costing import count_dynamic
from .base import (LAYOUT_INTERLEAVED, LAYOUT_RESTRUCTURED, KernelPlan,
                   PlannedLaunch)


class GenericShape:
    """Geometry of a generic actor segment."""

    def __init__(self, invocations: Callable[[Dict], int],
                 pop: Callable[[Dict], int], push: Callable[[Dict], int],
                 peek: Callable[[Dict], int] = None):
        self._invocations = invocations
        self._pop = pop
        self._push = push
        self._peek = peek or pop

    def invocations(self, params) -> int:
        return int(self._invocations(params))

    def pop(self, params) -> int:
        return int(self._pop(params))

    def push(self, params) -> int:
        return int(self._push(params))

    def peek(self, params) -> int:
        return int(self._peek(params))


class _TapeView:
    """Per-thread window onto the segment input, routed through the tracer."""

    __slots__ = ("ctx", "buf", "map_fn", "length")

    def __init__(self, ctx, buf, map_fn, length):
        self.ctx = ctx
        self.buf = buf
        self.map_fn = map_fn
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int):
        return self.ctx.gload(self.buf, self.map_fn(index))


class GenericActorPlan(KernelPlan):
    """One thread per work invocation, interpreting the work function."""

    def __init__(self, spec: GPUSpec, name: str, work: N.WorkFunction,
                 shape: GenericShape,
                 arrays_fn: Callable[[Dict], Dict[str, np.ndarray]] = None,
                 layout: str = LAYOUT_INTERLEAVED, threads: int = 256):
        super().__init__(spec, name)
        self.work = work
        self.shape = shape
        self.arrays_fn = arrays_fn or (lambda params: {})
        self.layout = layout
        self.input_layout = layout
        self.threads = threads
        self.strategy = "generic.thread_per_invocation"
        self.optimizations = (["memory_restructuring"]
                              if layout == LAYOUT_RESTRUCTURED else [])

    # ------------------------------------------------------------------
    def output_size(self, params) -> int:
        return self.shape.invocations(params) * self.shape.push(params)

    def restructure_input(self, data, params):
        data = np.asarray(data).reshape(-1)
        if self.layout == LAYOUT_INTERLEAVED:
            return data
        inv = self.shape.invocations(params)
        peek = self.shape.peek(params)
        pop = self.shape.pop(params)
        if peek != pop:
            raise ValueError(
                f"{self.name}: cannot restructure with peek({peek}) != "
                f"pop({pop}) — lookahead windows overlap")
        return data[:inv * pop].reshape(inv, pop).T

    # ------------------------------------------------------------------
    def launches(self, params) -> List[PlannedLaunch]:
        inv = self.shape.invocations(params)
        counts = count_dynamic(self.work, params)
        blocks = max(1, math.ceil(inv / self.threads))
        loads = counts.pops + counts.peeks
        stores = counts.pushes
        requests = loads + stores
        if self.layout == LAYOUT_RESTRUCTURED or requests <= 1:
            coal, uncoal = requests, 0.0
        else:
            coal, uncoal = 0.0, requests
        pop = max(1, self.shape.pop(params))
        degree = float(min(32, pop))
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=counts.comp + 4,
            coal_mem_insts=coal + counts.aux_loads,
            uncoal_mem_insts=uncoal, uncoal_degree=degree,
            regs_per_thread=24, shared_per_block=0)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    # ------------------------------------------------------------------
    def bind(self, params):
        inv = self.shape.invocations(params)
        pop = self.shape.pop(params)
        peek = self.shape.peek(params)
        push = self.shape.push(params)
        env = dict(params)
        env.update(self.arrays_fn(params))
        size = self.output_size(params)
        restructured = self.layout == LAYOUT_RESTRUCTURED
        window = peek if not restructured else pop
        work = self.work
        blocks = max(1, math.ceil(inv / self.threads))
        threads = self.threads
        name = self.name

        def run(device: Device, inbuf: DeviceArray) -> DeviceArray:
            out = device.alloc(size, dtype=np.float64, name=f"{name}.out")

            def body(ctx):
                t = ctx.global_tid
                if t >= inv:
                    return
                if restructured:
                    map_fn = lambda i: i * inv + t  # noqa: E731
                else:
                    map_fn = lambda i: t * pop + i  # noqa: E731
                tape = _TapeView(ctx, inbuf, map_fn, window)
                interp = WorkInterpreter(work, env)
                outputs, _cursor = interp.run(tape, 0)
                for j, value in enumerate(outputs):
                    ctx.gstore(out, t * push + j, value)

            kernel = Kernel(f"{name}_generic", body, regs_per_thread=24)
            device.launch(kernel, blocks, threads, {"in": inbuf, "out": out})
            return out
        return run

    def cuda_source(self) -> str:
        return (f"// {self.name}: baseline thread-per-invocation kernel\n"
                f"// (work function {self.work.name!r} inlined per thread; "
                f"layout={self.layout})\n")


class FusedGenericPlan(KernelPlan):
    """Vertically integrated chain of generic actors (§4.3.1).

    "Integrated actors can communicate through shared memory and there is
    no need to write back to the global off-chip memory."  Each thread
    executes the whole chain for its invocation; the intermediate buffers
    between actors live in on-chip storage (thread-local here, since one
    invocation's intermediate belongs to one thread), so only the first
    actor's pops and the last actor's pushes touch global memory.
    """

    strategy = "generic.fused_chain"

    def __init__(self, spec: GPUSpec, name: str,
                 works: List[N.WorkFunction], shape: GenericShape,
                 arrays_fn: Callable[[Dict], Dict[str, np.ndarray]] = None,
                 threads: int = 256):
        super().__init__(spec, name)
        if len(works) < 2:
            raise ValueError("a fused chain needs at least two actors")
        self.works = list(works)
        self.shape = shape          # first actor's pops, last actor's pushes
        self.arrays_fn = arrays_fn or (lambda params: {})
        self.threads = threads
        self.optimizations = ["vertical_integration"]

    def output_size(self, params) -> int:
        return self.shape.invocations(params) * self.shape.push(params)

    def launches(self, params) -> List[PlannedLaunch]:
        inv = self.shape.invocations(params)
        blocks = max(1, math.ceil(inv / self.threads))
        comp = 4.0
        for work in self.works:
            counts = count_dynamic(work, params)
            comp += counts.comp
        first = count_dynamic(self.works[0], params)
        last = count_dynamic(self.works[-1], params)
        aux = sum(count_dynamic(w, params).aux_loads for w in self.works)
        loads = first.pops + first.peeks
        stores = last.pushes
        requests = loads + stores
        pop = max(1, self.shape.pop(params))
        coal, uncoal = (requests, 0.0) if requests <= 1 else (0.0, requests)
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=comp,
            coal_mem_insts=coal + aux,
            uncoal_mem_insts=uncoal,
            uncoal_degree=float(min(32, pop)),
            regs_per_thread=28, shared_per_block=0)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    def bind(self, params):
        inv = self.shape.invocations(params)
        pop = self.shape.pop(params)
        peek = self.shape.peek(params)
        push = self.shape.push(params)
        env = dict(params)
        env.update(self.arrays_fn(params))
        size = self.output_size(params)
        works = self.works
        blocks = max(1, math.ceil(inv / self.threads))
        threads = self.threads
        name = self.name

        def run(device: Device, inbuf: DeviceArray) -> DeviceArray:
            out = device.alloc(size, dtype=np.float64, name=f"{name}.out")

            def body(ctx):
                t = ctx.global_tid
                if t >= inv:
                    return
                tape = _TapeView(ctx, inbuf, lambda i: t * pop + i, peek)
                values = tape
                for work in works:
                    interp = WorkInterpreter(work, env)
                    outputs, _cursor = interp.run(values, 0)
                    values = outputs  # intermediate stays on-chip
                for j, value in enumerate(values):
                    ctx.gstore(out, t * push + j, value)

            kernel = Kernel(f"{name}_fused", body, regs_per_thread=28)
            device.launch(kernel, blocks, threads, {"in": inbuf, "out": out})
            return out
        return run

    def cuda_source(self) -> str:
        names = " -> ".join(w.name for w in self.works)
        return (f"// {self.name}: vertically integrated actor chain "
                f"({names}); intermediates in on-chip memory\n")
