"""Host (CPU) execution plan.

Adaptic's input-unaware stage "decides whether each actor should be executed
on the CPU or GPU" (§3).  Actors that do not profit from the GPU — or whose
work functions fall outside every GPU template — run on the host through the
reference interpreter.  The cost model is a simple per-element throughput
curve, which is all the CPU/GPU placement decision needs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ...gpu import GPUSpec
from ...ir import nodes as N
from ...ir.interp import WorkInterpreter
from ...perfmodel import PerformanceModel
from ...perfmodel.hostmodel import (HOST_MEM_BANDWIDTH_GBPS,
                                    HOST_VECTOR_DISPATCH_SECONDS,
                                    HOST_VECTOR_OPS_PER_SECOND)
from ..costing import count_dynamic
from ..exprgen import compile_vector_fn
from .base import KernelPlan, PlannedLaunch, expr_aux_loads, expr_ops

#: Sustained host throughput for interpreter-style scalar work, ops/second.
CPU_OPS_PER_SECOND = 2.0e9
#: Fixed host dispatch cost per segment execution, seconds.
CPU_DISPATCH_SECONDS = 2.0e-6


class CpuPlan(KernelPlan):
    """Run the actor's work function on the host."""

    strategy = "cpu.interpreter"
    placement = "cpu"

    def __init__(self, spec: GPUSpec, name: str, work: N.WorkFunction,
                 invocations: Callable[[Dict], int],
                 pop: Callable[[Dict], int], push: Callable[[Dict], int],
                 state: Optional[Dict[str, float]] = None):
        super().__init__(spec, name)
        self.work = work
        self._invocations = invocations
        self._pop = pop
        self._push = push
        #: Initial persistent actor state (stateful filters are inherently
        #: serial, which is exactly why they stay on the CPU).
        self.state = dict(state or {})
        self.optimizations = ["cpu_placement"]

    def launches(self, params) -> List[PlannedLaunch]:
        return []

    def predicted_seconds(self, model: PerformanceModel, params) -> float:
        counts = count_dynamic(self.work, params)
        per_invocation = (counts.comp + counts.pops + counts.pushes
                          + counts.peeks + counts.aux_loads)
        total_ops = per_invocation * self._invocations(params)
        return CPU_DISPATCH_SECONDS + total_ops / CPU_OPS_PER_SECOND

    def output_size(self, params) -> int:
        return self._invocations(params) * int(self._push(params))

    def bind_host(self, params):
        return self._invocations(params), dict(params)

    def execute_host(self, data, bound) -> np.ndarray:
        invocations, params = bound
        tape = list(data)
        interp = WorkInterpreter(self.work, params, state=dict(self.state))
        outputs: List[float] = []
        cursor = 0
        for _ in range(invocations):
            out, cursor = interp.run(tape, cursor)
            outputs.extend(out)
        return np.asarray(outputs, dtype=np.float64)

    def cuda_source(self) -> str:
        return f"// {self.name}: executed on the host CPU\n"


class HostMapPlan(KernelPlan):
    """Whole-stream vectorized host execution of a map segment.

    The heterogeneous-placement counterpart of
    :class:`~repro.compiler.plans.mapplan.MapPlan`: the same compiled
    vector element functions applied to the full iteration space as one
    numpy expression on the host — no device buffers, no launches, no
    transfers.  Elementwise numpy arithmetic is chunk-size independent,
    so the host result is bit-identical to the GPU vectorized path's.

    Priced by the host vector model (dispatch + compute throughput +
    memory bandwidth): wins small and awkward shapes where kernel-launch
    overhead and PCIe hops dominate, loses large ones where GPU
    throughput does.
    """

    strategy = "cpu.vector_map"
    placement = "cpu"

    def __init__(self, spec: GPUSpec, name: str, shape,
                 outputs: Sequence[N.Expr],
                 arrays_fn: Callable[[Dict], Dict[str, np.ndarray]] = None,
                 gather: N.Expr = None):
        super().__init__(spec, name)
        self.shape = shape
        self.outputs = list(outputs)
        self.arrays_fn = arrays_fn or (lambda params: {})
        self.gather = gather
        if gather is not None and shape.pops_per_iter != 1:
            raise ValueError("gather maps require pops_per_iter == 1")
        self.optimizations = ["cpu_placement", "host_vectorization"]
        #: Per-iteration instruction and aux-load counts (they depend
        #: only on the expressions, so they are counted once).
        self._ops = sum(expr_ops(o) for o in self.outputs) + 3
        if gather is not None:
            self._ops += expr_ops(gather)
        self._aux_loads = sum(expr_aux_loads(o) for o in self.outputs)

    def launches(self, params) -> List[PlannedLaunch]:
        return []

    def predicted_seconds(self, model: PerformanceModel, params) -> float:
        iterations = self.shape.iterations(params)
        k = self.shape.pops_per_iter
        m = self.shape.pushes_per_iter
        traffic_bytes = (k + m + self._aux_loads) * iterations * 8
        return (HOST_VECTOR_DISPATCH_SECONDS
                + self._ops * iterations / HOST_VECTOR_OPS_PER_SECOND
                + traffic_bytes / (HOST_MEM_BANDWIDTH_GBPS * 1e9))

    def output_size(self, params) -> int:
        return self.shape.output_size(params)

    def bind_host(self, params):
        arrays = self.arrays_fn(params)
        k = self.shape.pops_per_iter
        arg_names = [f"_x{j}" for j in range(k)] + ["_i"]
        vfns = [compile_vector_fn(o, arg_names, params, name=f"vout{idx}",
                                  arrays=arrays, factories=self.factories)
                for idx, o in enumerate(self.outputs)]
        vgather = None
        if self.gather is not None:
            vgather = compile_vector_fn(self.gather, ["_i"], params,
                                        name="vgather", arrays=arrays,
                                        factories=self.factories)
        iterations = self.shape.iterations(params)
        return iterations, k, self.shape.pushes_per_iter, vfns, vgather

    def execute_host(self, data, bound) -> np.ndarray:
        iterations, k, m, vfns, vgather = bound
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        out = np.empty(iterations * m, dtype=np.float64)
        i = np.arange(iterations, dtype=np.int64)
        if vgather is not None:
            gidx = np.asarray(vgather(i)).astype(np.int64)
            vals = [data[gidx]]
        else:
            # Component j of every iteration is one strided slice.
            vals = [data[j:iterations * k:k] for j in range(k)]
        for idx, vfn in enumerate(vfns):
            out[idx::m] = vfn(*vals, i)
        return out

    def cuda_source(self) -> str:
        return (f"// {self.name}: vectorized host map "
                f"(heterogeneous placement)\n")
