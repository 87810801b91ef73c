"""Fused-execution gate: whole-segment-chain fusion.

Chain fusion (``AdapticOptions.fuse_chains``) collapses a linear run of
map segments into one emitted kernel, so a warm run launches strictly
fewer kernels than the unfused plan while staying bit-identical.

The benchmark records its measured numbers through the ``bench_record``
fixture under the ``fusedexec`` suite; the session writes them to
``BENCH_fusedexec.json`` (see ``conftest.py``).
"""

import time

import numpy as np
import pytest

from repro.compiler import AdapticCompiler, AdapticOptions
from repro.gpu import MODE_VECTORIZED, TESLA_C2050
from repro.streamit import Filter, Pipeline, StreamProgram
from repro.compiler import RunOptions

pytestmark = pytest.mark.fusedexec

SCALE_SRC = """
def scale(n, a):
    for i in range(n):
        push(a * pop())
"""

SQUARE_SRC = """
def square(n):
    for i in range(n):
        x = pop()
        push(x * x + 0.5)
"""

OFFSET_SRC = """
def offset(n):
    for i in range(n):
        push(pop() + 1.0)
"""

SUM_SRC = """
def total(n):
    acc = 0.0
    for i in range(n):
        acc = acc + pop()
    push(acc)
"""

#: Small enough that per-launch overhead dominates the chain — the
#: regime the fusion cost model targets.
CHAIN_N = 1 << 10
CHAIN_REPEATS = 40


def _chain_program():
    return StreamProgram(
        Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                 Filter(SQUARE_SRC, pop="n", push="n"),
                 Filter(OFFSET_SRC, pop="n", push="n"),
                 Filter(SUM_SRC, pop="n", push=1)),
        params=["n", "a"], input_size="n")


class TestFusedChainThroughput:
    def test_fused_warm_runs_beat_unfused(self, bench_record):
        """Fused chain: fewer launches, bit-identical, measured speedup."""
        rng = np.random.default_rng(21)
        data = rng.standard_normal(CHAIN_N)
        params = {"n": CHAIN_N, "a": 1.25}
        # integration=False keeps the three maps as separate segments so
        # chain fusion (not pattern fusion) is what gets measured.
        plain = AdapticCompiler(TESLA_C2050, AdapticOptions(
            integration=False)).compile(_chain_program())
        fused = AdapticCompiler(TESLA_C2050, AdapticOptions(
            integration=False, fuse_chains=True,
            fuse_min_gain=0.0)).compile(_chain_program())

        baseline = plain.run(data, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        result = fused.run(data, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert result.output.tobytes() == baseline.output.tobytes()
        assert fused.stats.fused_chain_runs == 1

        started = time.perf_counter()
        for _ in range(CHAIN_REPEATS):
            plain.run(data, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        plain_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(CHAIN_REPEATS):
            fused.run(data, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        fused_seconds = time.perf_counter() - started

        assert fused.stats.fused_chain_runs == 1 + CHAIN_REPEATS
        pdev = plain._run_devices[MODE_VECTORIZED]
        fdev = fused._run_devices[MODE_VECTORIZED]
        # The accounting fusion exists to create: one launch per chain.
        assert fdev.launch_count < pdev.launch_count

        bench_record(
            "fusedexec", "fused_chain",
            n=CHAIN_N,
            repeats=CHAIN_REPEATS,
            unfused_runs_per_s=CHAIN_REPEATS / plain_seconds,
            fused_runs_per_s=CHAIN_REPEATS / fused_seconds,
            speedup=plain_seconds / fused_seconds,
            unfused_launches=pdev.launch_count,
            fused_launches=fdev.launch_count,
        )

