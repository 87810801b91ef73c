"""Tests for the compiled-program runtime: selection, reporting, transfers."""

import numpy as np
import pytest

from repro import (AdapticOptions, Filter, GTX_480, Pipeline, StreamProgram,
                   compile_program)
from repro.compiler import AdapticCompiler, InputLocation, RunOptions
from repro.apps import blas1
from repro.gpu import Device, TESLA_C2050

from workloads import SCALE_SRC, SUM_SRC


def sum_program(**kwargs):
    defaults = dict(params=["n", "r"], input_size="n*r",
                    input_ranges={"n": (256, 1 << 20)})
    defaults.update(kwargs)
    return StreamProgram(Filter(SUM_SRC, pop="n", push=1), **defaults)


class TestRunResult:
    def test_selection_report_fields(self, rng):
        compiled = compile_program(sum_program())
        data = rng.standard_normal(128)
        result = compiled.run(data, {"n": 128, "r": 1})
        (sel,) = result.selections
        assert sel.kind == "reduction"
        assert sel.predicted_seconds > 0
        assert "actor_segmentation" in sel.optimizations or sel.optimizations
        assert result.predicted_total_seconds > \
            result.predicted_kernel_seconds
        assert result.strategy_of(sel.segment) == sel.strategy
        with pytest.raises(KeyError):
            result.strategy_of("nonexistent")

    def test_run_reuses_supplied_device(self, rng):
        compiled = compile_program(sum_program())
        device = Device(TESLA_C2050)
        compiled.run(rng.standard_normal(64), {"n": 64, "r": 1},
                     device=device)
        assert device.launch_count >= 1
        assert device.transfer_seconds > 0


class TestTransferAccounting:
    def test_transfer_scales_with_input(self):
        compiled = compile_program(sum_program())
        small = compiled.transfer_seconds({"n": 1 << 10, "r": 1})
        large = compiled.transfer_seconds({"n": 1 << 22, "r": 1})
        assert large > 10 * small

    def test_predicted_with_and_without_transfers(self):
        compiled = compile_program(sum_program())
        params = {"n": 1 << 16, "r": 1}
        with_t = compiled.predicted_seconds(params)
        without = compiled.predicted_seconds(params,
                                             include_transfers=False)
        assert with_t > without


class TestRangeReport:
    def test_single_axis_subranges(self):
        compiled = compile_program(sum_program())
        report = compiled.range_report(samples=10, extra_params={"r": 1})
        assert "->" in report
        assert "reduce.two_kernel" in report
        # Subranges must cover the endpoints.
        assert "256" in report and str(1 << 20) in report

    def test_no_ranges_declared(self):
        prog = sum_program(input_ranges={})
        compiled = compile_program(prog)
        assert "no input ranges" in compiled.range_report()

    def test_multi_axis_lists_points(self):
        prog = sum_program(input_ranges={"n": (256, 4096),
                                         "r": (1, 64)})
        compiled = compile_program(prog)
        report = compiled.range_report(samples=3)
        assert "segment" in report and "->" in report


class TestMultiSegmentExecution:
    def test_chain_runs_and_accounts_each_segment(self, rng):
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")
        options = AdapticOptions(integration=False)
        compiled = AdapticCompiler(TESLA_C2050, options).compile(prog)
        assert len(compiled.segments) == 2
        data = rng.standard_normal(96)
        result = compiled.run(data, {"n": 96, "a": 2.0})
        assert len(result.selections) == 2
        assert result.output[0] == pytest.approx(2.0 * data.sum())

    def test_force_per_segment(self, rng):
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")
        options = AdapticOptions(integration=False)
        compiled = AdapticCompiler(TESLA_C2050, options).compile(prog)
        seg0, seg1 = compiled.segments
        data = rng.standard_normal(64)
        result = compiled.run(
            data, {"n": 64, "a": 0.5},
            force={seg1.name: "reduce.two_kernel"})
        assert result.selections[1].strategy == "reduce.two_kernel"


class TestMissingParameter:
    """Regression: an unbound parameter fails only its own request.

    It used to surface as a raw ``NameError`` from evaluating the input
    size, and inside a batch it aborted every item.
    """

    GOOD = {"n": 4096, "r": 1}
    BAD = {"n": 4096}

    def _sdot(self):
        return compile_program(blas1.build("sdot"))

    def test_run_and_warmup_name_the_missing_parameter(self):
        compiled = self._sdot()
        data = blas1.make_input("sdot", 4096)
        with pytest.raises(ValueError, match="'r'"):
            compiled.run(data, self.BAD)
        with pytest.raises(ValueError, match="'r'"):
            compiled.warmup(self.BAD)

    @pytest.mark.parametrize("warm", [True, False])
    def test_bad_binding_fails_only_its_own_items(self, warm):
        compiled = self._sdot()
        data = blas1.make_input("sdot", 4096)
        outcome = compiled.run_batch([data, data, data],
                                     [self.GOOD, self.BAD, self.GOOD],
                                     warm=warm)
        assert sorted(outcome.errors) == [1]
        assert isinstance(outcome.errors[1], ValueError)
        assert "'r'" in str(outcome.errors[1])
        expected = compiled.run(data, self.GOOD).output
        for index in (0, 2):
            assert outcome.results[index].output.tobytes() \
                == expected.tobytes()
        with pytest.raises(Exception) as exc_info:
            compiled.run_many([data, data], [self.GOOD, self.BAD],
                              warm=warm)
        assert exc_info.value.batch_index == 1
        assert isinstance(exc_info.value.batch_errors[1], ValueError)
        assert exc_info.value.partial_results[0] is not None


class TestDeviceResidentInput:
    """Regression: ``run()`` must honor ``input_on_host=False``."""

    def _params(self):
        # Wide-short shape: host-side selection restructures to the
        # transposed layout; device-resident data cannot be restructured.
        return {"n": 8, "r": 1 << 12}

    def test_run_threads_input_on_host_through_selection(self, rng):
        compiled = compile_program(sum_program())
        params = self._params()
        data = rng.standard_normal(params["n"] * params["r"])
        host = compiled.run(data, params)
        device = compiled.run(data, params,
                              options=RunOptions(location=InputLocation.DEVICE))
        assert host.selections[0].strategy.endswith("transposed")
        assert not device.selections[0].strategy.endswith("transposed")

    def test_device_resident_run_is_still_correct(self, rng):
        compiled = compile_program(sum_program())
        params = self._params()
        data = rng.standard_normal(params["n"] * params["r"])
        host = compiled.run(data, params)
        device = compiled.run(data, params,
                              options=RunOptions(location=InputLocation.DEVICE))
        np.testing.assert_allclose(device.output, host.output, rtol=1e-9)

    def test_canonical_plan_identical_on_both_paths(self, rng):
        # A canonical-layout plan needs no restructuring, so host and
        # device-resident execution must agree exactly.
        compiled = compile_program(sum_program())
        seg = compiled.segments[0]
        canonical = next(p for p in seg.plans
                         if p.input_layout in ("interleaved", "rows"))
        data = rng.standard_normal(64 * 4)
        params = {"n": 64, "r": 4}
        force = {seg.name: canonical.strategy}
        host = compiled.run(data, params, force=force)
        device = compiled.run(data, params, force=force,
                              options=RunOptions(location=InputLocation.DEVICE))
        np.testing.assert_array_equal(host.output, device.output)


class TestDispatchTables:
    def test_prune_variants_bakes_tables(self):
        compiled = compile_program(sum_program())
        compiled.prune_variants(extra_params={"r": 1})
        assert any(seg.dispatch is not None for seg in compiled.segments)
        description = compiled.describe()
        assert "dispatch table" in description
        assert "selection stats" in description

    def test_in_range_select_uses_table(self):
        compiled = compile_program(sum_program())
        compiled.prune_variants(extra_params={"r": 1})
        before = compiled.stats.snapshot()
        compiled.select({"n": 1 << 15, "r": 1})
        delta = compiled.stats.since(before)
        assert delta.table_hits == 1
        assert delta.model_evals == 0

    def test_range_report_includes_stats(self):
        compiled = compile_program(sum_program())
        assert "selection stats:" in compiled.range_report(
            samples=4, extra_params={"r": 1})


class TestThirdTarget:
    def test_gtx480_compiles_and_runs(self, rng):
        compiled = AdapticCompiler(GTX_480).compile(sum_program())
        data = rng.standard_normal(256)
        result = compiled.run(data, {"n": 256, "r": 1})
        assert result.output[0] == pytest.approx(data.sum())

    def test_targets_can_disagree_on_selection(self):
        # Different shared-memory and SM counts can shift break-evens;
        # at minimum both targets must produce valid selections.
        for spec in (TESLA_C2050, GTX_480):
            compiled = AdapticCompiler(spec).compile(sum_program())
            plan = compiled.select({"n": 1 << 18, "r": 1})[0]
            assert plan.predicted_seconds(compiled.model,
                                          {"n": 1 << 18, "r": 1}) > 0


class TestChainFusionRuntime:
    """Whole-segment-chain fused execution (``fuse_chains=True``)."""

    SQUARE_SRC = """
def square(n):
    for i in range(n):
        x = pop()
        push(x * x + 0.5)
"""

    def _program(self):
        return StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(self.SQUARE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")

    def _compile(self, **kwargs):
        options = AdapticOptions(integration=False, **kwargs)
        return AdapticCompiler(TESLA_C2050, options).compile(self._program())

    def test_fused_bit_identical_and_counted(self, rng):
        from repro.gpu import ExecMode
        data = rng.standard_normal(2048)
        params = {"n": 2048, "a": 1.25}
        plain = self._compile()
        fused = self._compile(fuse_chains=True, fuse_min_gain=0.0)
        baseline = plain.run(data, params, options=RunOptions(exec_mode=ExecMode.VECTORIZED))
        result = fused.run(data, params, options=RunOptions(exec_mode=ExecMode.VECTORIZED))
        assert result.output.tobytes() == baseline.output.tobytes()
        assert fused.stats.fused_chain_runs == 1
        # One launch covers the two map segments; the reduction keeps
        # its own launches — strictly fewer than the unfused chain.
        fdev = fused._run_devices[ExecMode.VECTORIZED]
        pdev = plain._run_devices[ExecMode.VECTORIZED]
        assert fdev.launch_count < pdev.launch_count
        assert fdev.executor.fused_chain_launches == 1

    def test_infinite_gain_guard_disables_fusion(self, rng):
        from repro.gpu import ExecMode
        fused = self._compile(fuse_chains=True,
                              fuse_min_gain=float("inf"))
        fused.run(rng.standard_normal(512), {"n": 512, "a": 2.0},
                  options=RunOptions(exec_mode=ExecMode.VECTORIZED))
        assert fused.stats.fused_chain_runs == 0

    def test_reference_mode_never_fuses(self, rng):
        fused = self._compile(fuse_chains=True, fuse_min_gain=0.0)
        fused.run(rng.standard_normal(512), {"n": 512, "a": 2.0})
        assert fused.stats.fused_chain_runs == 0

    def test_clear_warm_caches_evicts_chain_kernels(self, rng):
        from repro.compiler.exprgen import COMPILE_COUNTER
        from repro.gpu import ExecMode
        fused = self._compile(fuse_chains=True, fuse_min_gain=0.0)
        data = rng.standard_normal(1024)
        params = {"n": 1024, "a": 0.5}
        fused.run(data, params, options=RunOptions(exec_mode=ExecMode.VECTORIZED))
        before = COMPILE_COUNTER.snapshot()
        fused.run(data, params, options=RunOptions(exec_mode=ExecMode.VECTORIZED))
        assert COMPILE_COUNTER.since(before).total == 0  # warm
        fused.clear_warm_caches()
        before = COMPILE_COUNTER.snapshot()
        fused.run(data, params, options=RunOptions(exec_mode=ExecMode.VECTORIZED))
        assert COMPILE_COUNTER.since(before).total > 0   # cold again
        assert fused.stats.fused_chain_runs == 3

    def test_fused_chain_rides_artifact_bundle(self, rng, tmp_path):
        from repro.compiler.exprgen import COMPILE_COUNTER, SOURCE_REGISTRY
        from repro.gpu import ExecMode
        data = rng.standard_normal(1024)
        params = {"n": 1024, "a": 3.0}
        # One program object for both compiles: auto-assigned pipeline
        # names participate in the bundle's program fingerprint.
        program = self._program()
        options = AdapticOptions(integration=False, fuse_chains=True,
                                 fuse_min_gain=0.0)
        # save_bundle exports the process-global source registry, and
        # load_bundle feeds the global hydration map — snapshot both so
        # this test leaves no other suite's compiles hydration-eligible.
        recorded = dict(SOURCE_REGISTRY._recorded)
        loaded = dict(SOURCE_REGISTRY._loaded)
        try:
            warm = AdapticCompiler(TESLA_C2050, options).compile(program)
            baseline = warm.run(data, params, options=RunOptions(exec_mode=ExecMode.VECTORIZED))
            assert any(key.startswith("chain|")
                       for key in SOURCE_REGISTRY.export())
            path = tmp_path / "fused.bundle.json"
            warm.save_bundle(str(path))
            cold = AdapticCompiler(TESLA_C2050, options).compile(program)
            cold.load_bundle(str(path))
            # Simulate a fresh process: only bundle-loaded sources serve.
            SOURCE_REGISTRY._recorded.clear()
            before = COMPILE_COUNTER.snapshot()
            result = cold.run(data, params, options=RunOptions(exec_mode=ExecMode.VECTORIZED))
            delta = COMPILE_COUNTER.since(before)
        finally:
            SOURCE_REGISTRY._recorded.clear()
            SOURCE_REGISTRY._recorded.update(recorded)
            SOURCE_REGISTRY._loaded.clear()
            SOURCE_REGISTRY._loaded.update(loaded)
        assert delta.total == 0
        assert delta.hydrated > 0
        assert result.output.tobytes() == baseline.output.tobytes()
        assert cold.stats.fused_chain_runs == 1
