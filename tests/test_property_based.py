"""Property-based tests (hypothesis) for core invariants."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.apps import blas1, imagepipe, tmv
from repro.compiler import AdapticCompiler, AdapticOptions
from repro.gpu import Device, TESLA_C2050
from repro.gpu.memory import bank_conflict_degree, coalesce_transactions
from repro.ir import classify, lift_code, run_work
from repro.ir import nodes as N
from repro.ir.rates import RateExpr
from repro.compiler.exprgen import compile_scalar_fn, compile_vector_fn
from repro.compiler.fusion import compose_maps, fuse_map_into_reduction
from repro.compiler.plans import (NaiveStencilPlan, ReduceShape,
                                  ReduceSingleKernelPlan,
                                  ReduceThreadPerArrayPlan,
                                  ReduceTwoKernelPlan, StencilShape,
                                  TiledStencilPlan)
from repro.compiler.plans.multireduce import HorizontalReducePlan
from repro.compiler.plans.reduceplan import (LAYOUT_ROW_SOA, LAYOUT_ROWS,
                                             LAYOUT_TRANSPOSED)
from repro.compiler.reducers import ScalarReducer, reducer_for
from repro.compiler.segments import RegionDispatch, SegmentDispatch
from repro.perfmodel import geometric_points
from repro.streamit import Filter, Pipeline, flatten, rate_match

from workloads import (ISAMAX_SRC, MIN_SRC, STENCIL5_SRC, SUM_SRC,
                       assert_direct, special_rows)

SPEC = TESLA_C2050


# ---------------------------------------------------------------------------
# Memory system
# ---------------------------------------------------------------------------

class TestCoalescingProperties:
    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=32))
    def test_transactions_bounded(self, addrs):
        txns = coalesce_transactions(addrs, 128)
        assert 1 <= txns <= len(addrs)

    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=32),
           st.integers(0, 1 << 20))
    def test_translation_within_segment_alignment(self, addrs, shift):
        """Shifting all addresses by a segment multiple preserves txns."""
        txns = coalesce_transactions(addrs, 128)
        shifted = [a + 128 * shift for a in addrs]
        assert coalesce_transactions(shifted, 128) == txns

    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=32))
    def test_monotone_in_subsets(self, addrs):
        txns = coalesce_transactions(addrs, 128)
        assert coalesce_transactions(addrs[: len(addrs) // 2 + 1], 128) \
            <= txns

    @given(st.lists(st.integers(0, 4096), min_size=1, max_size=32),
           st.sampled_from([16, 32]))
    def test_bank_conflict_bounds(self, words, banks):
        degree = bank_conflict_degree(words, banks)
        assert 1 <= degree <= len(set(words))


# ---------------------------------------------------------------------------
# Rate matching
# ---------------------------------------------------------------------------

class TestRateMatchingProperties:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_balance_equations_hold(self, push_a, pop_b, push_b, pop_c):
        a = Filter(f"def a():\n    _ = pop()\n"
                   + "".join(f"    push({i}.0)\n" for i in range(push_a)),
                   pop=1, push=push_a, name="a")
        body_b = "".join("    _ = pop()\n" for _ in range(pop_b))
        body_b += "".join(f"    push({i}.0)\n" for i in range(push_b))
        b = Filter("def b():\n" + body_b, pop=pop_b, push=push_b, name="b")
        body_c = "".join("    _ = pop()\n" for _ in range(pop_c))
        c = Filter("def c():\n" + body_c + "    push(1.0)\n",
                   pop=pop_c, push=1, name="c")
        graph = flatten(Pipeline(a, b, c))
        schedule = rate_match(graph, {})
        nodes = graph.topological_order()
        # Every channel is balanced: produced == consumed per steady state.
        for chan in graph.channels:
            produced = (schedule.repetitions[chan.src.id]
                        * chan.src.push_rates({})[chan.src_port])
            consumed = (schedule.repetitions[chan.dst.id]
                        * chan.dst.pop_rates({})[chan.dst_port])
            assert produced == consumed
        # Minimality: the repetition vector has gcd 1.
        reps = [schedule.repetitions[n.id] for n in nodes]
        assert math.gcd(*reps) == 1 if len(reps) > 1 else reps[0] == 1


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------

class TestRateExprProperties:
    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_arithmetic_matches_python(self, a, b):
        expr = RateExpr("x*y + x + 2")
        assert expr.evaluate({"x": a, "y": b}) == a * b + a + 2

    @given(st.integers(1, 100), st.integers(1, 100))
    def test_mul_add_operators(self, a, b):
        r = RateExpr("n") * 2 + RateExpr("m")
        assert r.evaluate({"n": a, "m": b}) == 2 * a + b


# ---------------------------------------------------------------------------
# Whole-array lowering: untraced vectorized launches vs the oracle
# ---------------------------------------------------------------------------

def _horizontal(spec, name, shape, fn, two_kernel, **kw):
    argmax = classify(lift_code(ISAMAX_SRC))
    fns = [fn, lambda p: reducer_for(argmax, p)]
    return HorizontalReducePlan(spec, name, shape, fns,
                                two_kernel=two_kernel, **kw)


_REDUCE_PLANS = {
    "single_kernel": ReduceSingleKernelPlan,
    "rows_merged": functools.partial(ReduceSingleKernelPlan,
                                     rows_per_block=2),
    "two_kernel": ReduceTwoKernelPlan,
    "thread_per_array": ReduceThreadPerArrayPlan,
    "hreduce_single": functools.partial(_horizontal, two_kernel=False),
    "hreduce_two": functools.partial(_horizontal, two_kernel=True),
}


@pytest.mark.differential
class TestDirectLoweringProperty:
    @given(st.sampled_from(sorted(_REDUCE_PLANS) + ["stencil.global",
                                                   "stencil.super_tile"]),
           st.sampled_from([LAYOUT_ROWS, LAYOUT_ROW_SOA,
                            LAYOUT_TRANSPOSED]),
           st.sampled_from([SUM_SRC, MIN_SRC, ISAMAX_SRC]),
           st.sampled_from([32, 64]),
           st.integers(1, 12), st.integers(0, 150),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_untraced_launches_match_reference(
            self, family, layout, source, threads, rows, cols, seed):
        """Random shapes of every lowered family are bit-identical to the
        REFERENCE oracle; ``rows x cols`` is (arrays x length) for a
        reduction and (height x width) for a stencil."""
        rng = np.random.default_rng(seed)
        if family.startswith("stencil"):
            cols = max(1, cols // 3)
            pattern = classify(lift_code(STENCIL5_SRC)).pattern
            shape = StencilShape(lambda p: p["width"],
                                 lambda p: p["size"] // p["width"])
            cls = (NaiveStencilPlan if family == "stencil.global"
                   else TiledStencilPlan)
            plan = cls(SPEC, "st", shape, pattern, threads=threads)
            params = {"size": rows * cols, "width": cols}
        else:
            red = classify(lift_code(source))
            shape = ReduceShape(lambda p: p["r"], lambda p: p["n"], 1)
            plan = _REDUCE_PLANS[family](
                SPEC, "red", shape, lambda p: reducer_for(red, p),
                layout=layout, threads=threads)
            params = {"r": rows, "n": cols}
        assert_direct(plan, special_rows(rng, rows, cols), params)


# ---------------------------------------------------------------------------
# Pattern matching + execution round trips
# ---------------------------------------------------------------------------

_ELEMENTS = {
    "x": "pop()",
    "abs": "abs(pop())",
    "square": "pop() * pop()",
    "affine": "2.0 * pop() + 1.0",
}


class TestReductionRoundTrip:
    @given(st.sampled_from(sorted(_ELEMENTS)),
           st.sampled_from(["+", "max"]),
           st.integers(1, 5), st.integers(4, 40),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_compiled_reduction_matches_interpreter(
            self, elem_key, kind, narrays, nelements, seed):
        elem = _ELEMENTS[elem_key]
        if kind == "+":
            src = (f"def w(n):\n    acc = 0.0\n    for i in range(n):\n"
                   f"        acc = acc + {elem}\n    push(acc)\n")
        else:
            src = (f"def w(n):\n    acc = -1e30\n    for i in range(n):\n"
                   f"        acc = max(acc, {elem})\n    push(acc)\n")
        work = lift_code(src)
        result = classify(work)
        assume(result.category == "reduction")
        pattern = result.pattern
        k = pattern.pops_per_iter

        rng = np.random.default_rng(seed)
        data = rng.standard_normal(narrays * nelements * k)
        params = {"n": nelements}
        expected = []
        cursor = 0
        for _ in range(narrays):
            out = run_work(work, data[cursor:cursor + nelements * k],
                           params)
            expected.extend(out)
            cursor += nelements * k

        shape = ReduceShape(lambda p: narrays, lambda p: nelements, k)
        reducer_fn = lambda p: ScalarReducer(pattern, p)  # noqa: E731
        for plan_cls in (ReduceSingleKernelPlan, ReduceTwoKernelPlan):
            plan = plan_cls(SPEC, "w", shape, reducer_fn, threads=32)
            dev = Device(SPEC)
            buf = dev.to_device(data, "in")
            out = plan.execute(dev, {"in": buf}, params)
            assert np.allclose(out.data, expected, rtol=1e-6, atol=1e-9)


class TestFusionAlgebra:
    @given(st.floats(-4, 4, allow_nan=False),
           st.floats(-4, 4, allow_nan=False),
           st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_compose_maps_is_function_composition(self, a, b, x):
        up = classify(lift_code(
            "def u(n, a):\n    for i in range(n):\n"
            "        push(a * pop() + 1.0)\n")).pattern
        down = classify(lift_code(
            "def d(n, b):\n    for i in range(n):\n"
            "        push(pop() * pop() + b)\n")).pattern
        # down consumes 2 per iteration, up produces 1: grouping by 2.
        fused = compose_maps(up, down)
        assert fused is not None
        fn = compile_scalar_fn(fused.outputs[0], ["_x0", "_x1", "_i"],
                               {"a": a, "b": b})
        up_fn = lambda v: a * v + 1.0  # noqa: E731
        expected = up_fn(x) * up_fn(-x) + b
        assert fn(x, -x, 0) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(st.floats(-4, 4, allow_nan=False),
           st.lists(st.floats(-10, 10, allow_nan=False), min_size=1,
                    max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_fused_map_reduce_equals_sequential(self, scale, values):
        up = classify(lift_code(
            "def u(n, a):\n    for i in range(n):\n"
            "        push(a * pop())\n")).pattern
        down = classify(lift_code(
            "def d(n):\n    acc = 0.0\n    for i in range(n):\n"
            "        acc = acc + pop()\n    push(acc)\n")).pattern
        fused = fuse_map_into_reduction(up, down)
        assert fused is not None
        elem = compile_scalar_fn(fused.element, ["_x0", "_i"],
                                 {"a": scale})
        total = sum(elem(v, i) for i, v in enumerate(values))
        assert total == pytest.approx(scale * sum(values), rel=1e-9,
                                      abs=1e-9)


class TestWorkInterpreterProperties:
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                    max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_sum_reduction_semantics(self, values):
        work = lift_code("def s(n):\n    acc = 0.0\n"
                         "    for i in range(n):\n"
                         "        acc = acc + pop()\n    push(acc)\n")
        (out,) = run_work(work, values, {"n": len(values)})
        assert out == pytest.approx(sum(values), rel=1e-12, abs=1e-9)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2,
                    max_size=30).filter(lambda v: len(v) % 2 == 0))
    @settings(max_examples=40, deadline=None)
    def test_map_consumes_exactly_its_rate(self, values):
        work = lift_code("def m(n):\n    for i in range(n):\n"
                         "        push(pop() + pop())\n")
        out = run_work(work, values, {"n": len(values) // 2})
        assert len(out) == len(values) // 2


class TestOccupancyProperties:
    @given(st.integers(1, 1024), st.integers(1, 64),
           st.integers(0, 48 * 1024))
    def test_blocks_per_sm_monotone_in_resources(self, threads, regs,
                                                 shared):
        fit = SPEC.blocks_per_sm(threads, regs, shared)
        assert fit >= SPEC.blocks_per_sm(threads, regs + 4, shared)
        assert fit >= SPEC.blocks_per_sm(threads, regs, shared + 1024)
        assert 0 <= fit <= SPEC.max_blocks_per_sm


class TestTransformProperties:
    @given(st.integers(-20, 20), st.integers(1, 8),
           st.floats(-10, 10, allow_nan=False),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_induction_substitution_preserves_semantics(
            self, init, step, base, seed):
        """Random counter-recurrence programs: the rewritten work function
        agrees with the original on random inputs of several lengths."""
        from repro.ir import substitute_recurrences
        src = (f"def f(n):\n"
               f"    count = {init}\n"
               f"    for i in range(n):\n"
               f"        count = count + {step}\n"
               f"        push(count * pop() + {base!r})\n"
               f"    push(count)\n")
        work = lift_code(src)
        rewritten = substitute_recurrences(work)
        assert rewritten is not None
        rng = np.random.default_rng(seed)
        for n in (0, 1, 5):
            data = list(rng.standard_normal(max(n, 1)))
            original = run_work(work, data, {"n": n})
            transformed = run_work(rewritten, data, {"n": n})
            assert len(original) == len(transformed)
            for a, b in zip(original, transformed):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestPruneProperties:
    @given(st.integers(2, 6), st.integers(2, 8),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_greedy_cover_keeps_every_point_near_optimal(
            self, n_variants, n_points, seed):
        """After pruning, every sampled point is still served within the
        tolerance by some surviving plan."""
        from repro.compiler.segments import Segment
        from repro.compiler.plans.base import KernelPlan

        rng = np.random.default_rng(seed)
        times = rng.uniform(1.0, 10.0, size=(n_variants, n_points))

        class FakePlan(KernelPlan):
            def __init__(self, idx):
                super().__init__(SPEC, f"fake{idx}")
                self.strategy = f"fake{idx}"
                self.idx = idx

            def launches(self, params):
                return []

            def predicted_seconds(self, model, params):
                return float(times[self.idx][params["p"]])

            def execute(self, device, buffers, params):
                raise NotImplementedError

            def output_size(self, params):
                return 1

        from repro.perfmodel import PerformanceModel
        plans = [FakePlan(i) for i in range(n_variants)]
        seg = Segment(name="s", kind="fake", plans=list(plans),
                      input_size=lambda p: 1, output_size=lambda p: 1)
        points = [{"p": j} for j in range(n_points)]
        model = PerformanceModel(SPEC)
        tolerance = 0.10
        kept = seg.prune(model, points, tolerance=tolerance)
        assert kept
        for j in range(n_points):
            best = times[:, j].min()
            served = min(times[p.idx][j] for p in kept)
            assert served <= best * (1 + tolerance) + 1e-12


# ---------------------------------------------------------------------------
# Parameter binding (exprgen)
# ---------------------------------------------------------------------------

_BIND_PARAMS = ("p", "q", "k")

_bind_values = st.one_of(
    st.integers(-7, 7), st.booleans(), st.integers(-7, 7).map(np.int64),
    st.floats(-7, 7, width=32).map(np.float32), st.just(-0.0),
    st.floats(-7, 7))

_bind_leaves = st.one_of(
    st.just(N.Var("x")),
    st.sampled_from(_BIND_PARAMS).map(N.Var),
    st.floats(-4, 4).map(N.Const),
    st.sampled_from(("_i",) + _BIND_PARAMS).map(
        lambda name: N.Index("aux", N.Var(name))))


def _bind_nodes(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: N.BinOp(*t)),
        st.tuples(st.sampled_from(("min", "max")), children, children).map(
            lambda t: N.Call(t[0], [t[1], t[2]])),
        st.tuples(children, children, children, children).map(
            lambda t: N.Call("select",
                             [N.BinOp("<", t[0], t[1]), t[2], t[3]])),
        st.tuples(st.sampled_from(("sqrt", "exp")), children).map(
            lambda t: N.Call(t[0], [t[1]])))


def _outcome(fn, *args):
    """A call's result as bytes, or the arithmetic error it raised."""
    try:
        with np.errstate(all="ignore"):
            value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    value = np.asarray(value)
    return value.dtype, value.tobytes()


#: Arithmetic on a bool parameter through min/max: Python computes on
#: the ints 0/1, numpy's bool arithmetic would give ``True`` for the
#: first and raise for the second.
_K = N.Var("k")
_BOOL_ARITHMETIC = (
    N.BinOp("+", N.Call("max", [_K, _K]), N.Call("max", [_K, _K])),
    N.BinOp("-", _K, N.Call("min", [_K, _K])),
)


class TestBindingProperty:
    """Binding a parameter is bit-identical to folding its value in as
    a constant, in both the scalar and the vector emitter."""

    @given(st.recursive(_bind_leaves, _bind_nodes, max_leaves=12),
           st.tuples(*[_bind_values] * len(_BIND_PARAMS)),
           st.lists(st.floats(-8, 8), min_size=1, max_size=8))
    @example(expr=_BOOL_ARITHMETIC[0], values=(0, 0, True), xs=[1.0])
    @example(expr=_BOOL_ARITHMETIC[1], values=(0, 0, True), xs=[1.0])
    @settings(max_examples=200, deadline=None)
    def test_bound_equals_folded_constant(self, expr, values, xs):
        params = dict(zip(_BIND_PARAMS, values))
        folded = N.substitute(expr, {
            name: v if isinstance(v, int) else float(v)
            for name, v in params.items()})
        aux = {"aux": np.linspace(-3.0, 4.0, 8)}
        args = ["x", "_i"]
        xv = np.asarray(xs, dtype=np.float64)
        iv = np.arange(len(xs), dtype=np.int64)

        bound_s = compile_scalar_fn(expr, args, params, arrays=aux)
        const_s = compile_scalar_fn(folded, args, {}, arrays=aux)
        for x, i in zip(xs, range(len(xs))):
            assert _outcome(bound_s, x, i) == _outcome(const_s, x, i)

        bound_v = compile_vector_fn(expr, args, params, arrays=aux)
        const_v = compile_vector_fn(folded, args, {}, arrays=aux)
        assert _outcome(bound_v, xv, iv) == _outcome(const_v, xv, iv)

    @pytest.mark.parametrize("expr", _BOOL_ARITHMETIC, ids=str)
    @pytest.mark.parametrize("k", [True, False])
    def test_bool_arithmetic_matches_the_scalar_path(self, expr, k):
        scalar = compile_scalar_fn(expr, ["x"], {"k": k})(0.5)
        vector = compile_vector_fn(expr, ["x"], {"k": k})(np.zeros(3))
        assert not isinstance(scalar, bool)
        assert np.asarray(vector).dtype != np.bool_
        assert np.array_equal(np.broadcast_to(vector, (3,)),
                              np.full(3, scalar))


# ---------------------------------------------------------------------------
# Baked dispatch tables
# ---------------------------------------------------------------------------

#: name -> (program builder, compile options, pinned extras).  Pinning all
#: but one input axis bakes a 1-D table (k=1); two free axes bake a k-d
#: region table (k=2).
_BAKES = {
    "sdot r=1": (lambda: blas1.build("sdot"), {}, {"r": 1}),
    "tmv cols=64": (tmv.build, {}, {"cols": 64}),
    "tmv": (tmv.build, {}, {}),
    "imagepipe placed+fused": (imagepipe.build,
                               {"placement": True, "fuse_chains": True}, {}),
}


@functools.lru_cache(maxsize=None)
def _baked(name, samples):
    build, options, extras = _BAKES[name]
    compiled = AdapticCompiler(SPEC, AdapticOptions(**options)).compile(
        build())
    compiled.bake_decision_tables(samples=samples, extra_params=extras)
    return compiled


class TestBakedTableProperty:
    """A baked table answers every in-range point of its sweep grid with
    the exact model-argmin winner, for 1-D and k-d tables alike.  A 1-D
    table's refined break-even points are swept points too."""

    @given(st.sampled_from(sorted(_BAKES)), st.integers(4, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_lookup_equals_argmin_on_sweep_grid(self, name, samples, data):
        compiled = _baked(name, samples)
        extras = _BAKES[name][2]
        ranges = compiled.program.input_ranges
        free = sorted(set(ranges) - set(extras))
        point = dict(extras)
        family = SegmentDispatch if len(free) == 1 else RegionDispatch
        for axis in free:
            values = set(geometric_points(*ranges[axis], samples))
            if family is SegmentDispatch:
                values.update(bound for segment in compiled.segments
                              if segment.dispatch is not None
                              for sub in segment.dispatch.table.subranges
                              for bound in (sub.lo, sub.hi))
            point[axis] = data.draw(st.sampled_from(sorted(values)),
                                    label=axis)
        exact = compiled.select_argmin(point)
        baked = [(index, segment.dispatch)
                 for index, segment in enumerate(compiled.segments)
                 if segment.dispatch is not None]
        assert baked
        for index, dispatch in baked:
            assert type(dispatch) is family
            assert dispatch.lookup(point, index == 0) \
                == exact[index].strategy
