"""CPU fallback for stream subgraphs the GPU templates cannot express.

Adaptic's input-unaware stage assigns actors to the CPU or GPU (§3).
Structures outside every GPU template — feedback-ish split-joins, exotic
joiner patterns — execute on the host via the reference stream interpreter,
so *any* valid StreamIt program compiles and runs end to end.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...gpu import GPUSpec
from ...perfmodel import PerformanceModel
from ...streamit import flatten, rate_match, run_graph
from ..costing import count_dynamic
from .base import KernelPlan, PlannedLaunch
from .cpuplan import CPU_DISPATCH_SECONDS, CPU_OPS_PER_SECOND


class CpuGraphPlan(KernelPlan):
    """Interpret a stream subgraph on the host."""

    strategy = "cpu.subgraph"
    placement = "cpu"

    def __init__(self, spec: GPUSpec, name: str, stream, threads: int = 256):
        super().__init__(spec, name)
        self.stream = stream
        self.graph = flatten(stream)
        self.optimizations = ["cpu_placement"]

    # ------------------------------------------------------------------
    def _schedule(self, params):
        return rate_match(self.graph, params)

    def expected_input_size(self, params) -> int:
        return self._schedule(params).inputs_per_steady

    def output_size(self, params) -> int:
        return self._schedule(params).outputs_per_steady

    def launches(self, params) -> List[PlannedLaunch]:
        return []

    def predicted_seconds(self, model: PerformanceModel, params) -> float:
        sched = self._schedule(params)
        total_ops = 0.0
        for node in self.graph.filter_nodes():
            counts = count_dynamic(node.filter.work, params)
            per = (counts.comp + counts.pops + counts.pushes + counts.peeks
                   + counts.aux_loads)
            total_ops += per * sched.repetitions[node.id]
        return CPU_DISPATCH_SECONDS + total_ops / CPU_OPS_PER_SECOND

    def bind_host(self, params):
        return self._schedule(params), dict(params)

    def execute_host(self, data, bound) -> np.ndarray:
        sched, params = bound
        states = (1 if sched.inputs_per_steady == 0
                  else max(1, len(data) // sched.inputs_per_steady))
        output = run_graph(self.graph, sched, data, params,
                           steady_states=states)
        return np.asarray(output, dtype=np.float64)

    def cuda_source(self) -> str:
        return f"// {self.name}: subgraph executed on the host CPU\n"
