"""Bound execution schedules: lower once per key, replay after.

A run lowers its selected chain once per (binding, selection, input
location, exec mode) and every later run at that key replays the bound
steps.  These gates count lowerings through ``SelectionStats``, check
that anything changing the key lowers afresh, that lowering's compile
time is reported where it belongs, and that replays are bit-identical
to the REFERENCE oracle for every app in both input locations.
"""

import sys

import numpy as np
import pytest

from repro import apps
from repro.apps import blas1, imagepipe, tmv
from repro.compiler import AdapticCompiler, AdapticOptions, RunOptions
from repro.compiler.runtime import InputLocation
from repro.faults import FaultInjector, FaultPlan
from repro.gpu import MODE_REFERENCE, MODE_VECTORIZED, TESLA_C2050

pytestmark = pytest.mark.serving

VECTORIZED = RunOptions(exec_mode=MODE_VECTORIZED)


def _compile(build, **options):
    return AdapticCompiler(TESLA_C2050,
                           AdapticOptions(**options)).compile(build())


def _builds(compiled, run):
    """Schedules lowered while ``run()`` executes."""
    before = compiled.stats.snapshot()
    run()
    return compiled.stats.since(before).schedule_builds


class TestLowerOnce:
    def test_warm_binding_lowers_nothing_new_binding_lowers_once(self, rng):
        compiled = _compile(tmv.build)
        matrix, _vec, params = tmv.make_input(16, 64, rng)
        assert _builds(compiled, lambda: compiled.run(
            matrix, params, options=VECTORIZED)) == 1
        for _ in range(3):
            assert _builds(compiled, lambda: compiled.run(
                matrix, params, options=VECTORIZED)) == 0
        other, _vec, fresh = tmv.make_input(32, 8, rng)
        assert _builds(compiled, lambda: compiled.run(
            other, fresh, options=VECTORIZED)) == 1
        assert _builds(compiled, lambda: compiled.run(
            other, fresh, options=VECTORIZED)) == 0

    def test_location_and_exec_mode_are_part_of_the_key(self, rng):
        compiled = _compile(tmv.build)
        matrix, _vec, params = tmv.make_input(8, 16, rng)
        compiled.run(matrix, params, options=VECTORIZED)
        device = RunOptions(exec_mode=MODE_VECTORIZED,
                            location=InputLocation.DEVICE)
        assert _builds(compiled, lambda: compiled.run(
            matrix, params, options=device)) == 1
        reference = RunOptions(exec_mode=MODE_REFERENCE)
        assert _builds(compiled, lambda: compiled.run(
            matrix, params, options=reference)) == 1
        assert _builds(compiled, lambda: compiled.run(
            matrix, params, options=reference)) == 0

    def test_run_batch_lowers_before_fan_out(self, rng):
        compiled = _compile(tmv.build)
        cases = [tmv.make_input(rows, cols, rng)
                 for rows, cols in ((8, 32), (32, 8))]
        inputs = [m for m, _v, _p in cases] * 2
        params = [p for _m, _v, p in cases] * 2
        before = compiled.stats.snapshot()
        compiled.run_batch(inputs, params, warm=False,
                           options=RunOptions(exec_mode=MODE_VECTORIZED,
                                              workers=2))
        assert compiled.stats.since(before).schedule_builds == 2
        assert compiled.stats.since(before).runs == 4


class TestSharedReplay:
    def test_workers_replay_one_schedule_concurrently(self, rng):
        """More workers than cores replay one schedule, with frequent
        thread switches: a lost update (a second lowering, or a scalar
        function bound twice into a mixed-up state) would show here."""
        matrix, _vec, params = tmv.make_input(8, 32, rng)
        inputs = [matrix * (1 + i) for i in range(16)]
        reference = RunOptions(exec_mode=MODE_REFERENCE)
        serial = _compile(tmv.build)
        expected = [serial.run(x, params, options=reference).output
                    for x in inputs]
        compiled = _compile(tmv.build)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = compiled.stats.snapshot()
            outcome = compiled.run_batch(
                inputs, params, warm=False,
                options=RunOptions(exec_mode=MODE_REFERENCE, workers=6))
        finally:
            sys.setswitchinterval(interval)
        assert outcome.ok
        assert compiled.stats.since(before).schedule_builds == 1
        for want, result in zip(expected, outcome.results):
            assert result.output.tobytes() == want.tobytes()


class TestFreshSchedules:
    def test_force_change_lowers_a_new_schedule(self, rng):
        compiled = _compile(tmv.build)
        matrix, _vec, params = tmv.make_input(16, 64, rng)
        segment = compiled.segments[0]
        chosen = compiled.select(params)[0].strategy
        other = next(p.strategy for p in segment.plans
                     if p.strategy != chosen)
        compiled.run(matrix, params, options=VECTORIZED)
        force = {segment.name: other}
        assert _builds(compiled, lambda: compiled.run(
            matrix, params, options=VECTORIZED, force=force)) == 1
        forced = compiled.run(matrix, params, options=VECTORIZED,
                              force=force)
        assert forced.selections[0].strategy == other
        assert _builds(compiled, lambda: compiled.run(
            matrix, params, options=VECTORIZED, force=force)) == 0

    def test_quarantine_degraded_plan_gets_its_own_schedule(self, rng):
        matrix, _vec, params = tmv.make_input(16, 64, rng)
        probe = _compile(tmv.build)
        failing = probe.select(params)[0].strategy
        compiled = _compile(tmv.build, faults=FaultInjector(
            [FaultPlan(family=failing, count=1)]))
        # The failed attempt's schedule, then the replacement's.
        assert _builds(compiled, lambda: compiled.run(
            matrix, params, options=VECTORIZED)) == 2
        assert compiled.stats.degraded_runs == 1
        result = compiled.run(matrix, params, options=VECTORIZED)
        assert result.selections[0].strategy != failing
        assert _builds(compiled, lambda: compiled.run(
            matrix, params, options=VECTORIZED)) == 0
        expected = tmv.reference(matrix, params["vec"], 16, 64)
        np.testing.assert_allclose(result.output, expected, rtol=1e-10)

    def test_clear_warm_caches_lowers_again(self, rng):
        compiled = _compile(tmv.build)
        matrix, _vec, params = tmv.make_input(16, 64, rng)
        cold = compiled.run(matrix, params, options=VECTORIZED)
        compiled.clear_warm_caches()
        assert _builds(compiled, lambda: compiled.run(
            matrix, params, options=VECTORIZED)) == 1
        again = compiled.run(matrix, params, options=VECTORIZED)
        assert again.output.tobytes() == cold.output.tobytes()


class TestLoweringCompileTime:
    def test_first_run_reports_lowering_compiles_and_kernel_time(self, rng):
        compiled = _compile(lambda: blas1.build("sdot"))
        data = blas1.make_input("sdot", 4096, 1, rng)
        first = compiled.run(data, {"n": 4096, "r": 1}, options=VECTORIZED)
        assert compiled.stats.expr_compiles > 0
        assert first.stage_seconds["compile"] > 0.0
        assert first.stage_seconds["kernel"] > 0.0
        warm = compiled.run(data, {"n": 4096, "r": 1}, options=VECTORIZED)
        assert warm.stage_seconds["compile"] == 0.0
        assert warm.stage_seconds["kernel"] > 0.0


def _svm_row(rng):
    x = rng.standard_normal((10, 8))
    norms = (x * x).sum(axis=1)
    return x.reshape(-1), {"nfeat": 8, "m": 10, "gamma": 0.1,
                           "norm_i": norms[4], "xi": x[4], "norms": norms}


#: app -> rng -> (input, params): small bindings, so the REFERENCE
#: oracle stays quick.
APP_CASES = {
    "tmv": lambda rng: (lambda m, v, p: (m, p))(*tmv.make_input(24, 40,
                                                                rng)),
    "sdot": lambda rng: (blas1.make_input("sdot", 1024, 1, rng),
                         {"n": 1024, "r": 1}),
    "sasum": lambda rng: (blas1.make_input("sasum", 1024, 2, rng),
                          {"n": 1024, "r": 2}),
    "snrm2": lambda rng: (blas1.make_input("snrm2", 1024, 1, rng),
                          {"n": 1024, "r": 1}),
    "isamax": lambda rng: (blas1.make_input("isamax", 1024, 1, rng),
                           {"n": 1024, "r": 1}),
    "scalar_product": lambda rng: (
        apps.scalar_product.make_input(3, 256, rng), {"pairs": 3, "n": 256}),
    "montecarlo": lambda rng: (apps.montecarlo.make_input(256, 2, rng),
                               apps.montecarlo.make_params(256, 2)),
    "ocean_fft": lambda rng: apps.stencil2d.make_input(24, 20, rng),
    "imagepipe": lambda rng: imagepipe.make_input(24, 20, rng),
    "convolution": lambda rng: apps.convolution.make_input(24, 20, rng),
    "blackscholes": lambda rng: apps.insensitive.blackscholes_input(30, rng),
    "histogram": lambda rng: apps.insensitive.histogram_input(3, rng),
    "kernel_row": _svm_row,
    "pair_search": lambda rng: (rng.standard_normal(48), {"m": 48}),
}


class TestReplayMatchesReference:
    @pytest.mark.parametrize("location", list(InputLocation))
    @pytest.mark.parametrize("app", sorted(apps.BUILDERS))
    def test_replay_bit_identical_to_reference(self, rng, app, location):
        data, params = APP_CASES[app](rng)
        build = apps.BUILDERS[app][0]
        oracle = _compile(build).run(
            data, params, options=RunOptions(exec_mode=MODE_REFERENCE,
                                             location=location))
        compiled = _compile(build)
        options = RunOptions(exec_mode=MODE_VECTORIZED, location=location)
        compiled.run(data, params, options=options)
        replayed = compiled.run(data, params, options=options)
        assert replayed.output.tobytes() == oracle.output.tobytes()

    @pytest.mark.parametrize("location", list(InputLocation))
    def test_placed_and_fused_chain(self, rng, location):
        """Host steps, hops between sides, and fused spans replay exactly."""
        data, params = imagepipe.make_input(40, 24, rng)
        oracle = _compile(imagepipe.build).run(
            data, params, options=RunOptions(exec_mode=MODE_REFERENCE,
                                             location=location))
        for placement in ("cpu", "gpu", "auto"):
            compiled = _compile(imagepipe.build, placement=True,
                                fuse_chains=True, fuse_min_gain=0.0)
            options = RunOptions(exec_mode=MODE_VECTORIZED,
                                 location=location, placement=placement)
            compiled.run(data, params, options=options)
            replayed = compiled.run(data, params, options=options)
            assert replayed.output.tobytes() == oracle.output.tobytes(), \
                placement
