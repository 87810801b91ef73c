"""Tests for expression codegen (Python + CUDA C) and dynamic costing."""

import math

import numpy as np
import pytest

from repro.compiler.costing import DynamicCounts, count_dynamic
from repro.compiler.exprgen import (ExprGenError, c_combine, c_expr,
                                    combine_identity, compile_scalar_fn,
                                    python_expr)
from repro.ir import lift_code, parse_expr
from repro.ir import nodes as N


class TestPythonEmission:
    def test_arithmetic(self):
        expr = parse_expr("a * x + b")
        fn = compile_scalar_fn(expr, ["x"], {"a": 2.0, "b": 1.0})
        assert fn(3.0) == 7.0

    def test_params_bound_not_folded(self):
        expr = parse_expr("a * x")
        text = python_expr(expr, ["x"])
        assert text == "(_s_a * x)"
        fn = compile_scalar_fn(expr, ["x"], {"a": 2.5})
        assert "2.5" not in fn.__source__
        assert fn(2.0) == 5.0

    def test_numpy_scalar_params_normalized(self):
        expr = parse_expr("a + x")
        fn = compile_scalar_fn(expr, ["x"], {"a": np.float64(0.5)})
        assert fn(1.0) == 1.5
        assert "np." not in fn.__source__

    def test_intrinsics(self):
        expr = parse_expr("sqrt(x) + exp(0.0) + abs(0 - x)")
        fn = compile_scalar_fn(expr, ["x"], {})
        assert fn(4.0) == pytest.approx(2.0 + 1.0 + 4.0)

    def test_select_lowered_to_conditional(self):
        work = lift_code("def f(x):\n    push(x if x > 0 else 0.0)\n")
        expr = work.body[0].value
        fn = compile_scalar_fn(expr, ["x"], {})
        assert fn(5.0) == 5.0 and fn(-5.0) == 0.0

    def test_index_into_bound_array(self):
        expr = N.Index("v", N.Var("_i"))
        fn = compile_scalar_fn(expr, ["_i"], {},
                               arrays={"v": np.array([10.0, 20.0])})
        assert fn(1) == 20.0

    def test_unbound_variable_raises(self):
        with pytest.raises(ExprGenError) as exc:
            compile_scalar_fn(parse_expr("mystery"), [], {})
        assert "mystery" in str(exc.value)


class TestCEmission:
    def test_floats_get_f_suffix(self):
        assert c_expr(N.Const(1.5)) == "1.5f"
        assert c_expr(N.Const(3)) == "3"

    def test_operators(self):
        assert c_expr(parse_expr("a // b")) == "(a / b)"
        assert c_expr(parse_expr("a ** b")) == "powf(a, b)"

    def test_intrinsic_mapping(self):
        assert c_expr(parse_expr("sqrt(x)")) == "sqrtf(x)"
        assert c_expr(parse_expr("abs(x)")) == "fabsf(x)"
        assert c_expr(parse_expr("max(a, b)")) == "fmaxf(a, b)"

    def test_select_is_ternary(self):
        work = lift_code("def f(x):\n    push(x if x > 0 else 0.0)\n")
        text = c_expr(work.body[0].value)
        assert "?" in text and ":" in text

    def test_renames(self):
        assert c_expr(parse_expr("x + 1"), {"x": "in[i]"}) == "(in[i] + 1)"

    def test_combine_templates(self):
        assert c_combine("+", "a", "b") == "a + b"
        assert c_combine("max", "a", "b") == "fmaxf(a, b)"
        with pytest.raises(ExprGenError):
            c_combine("xor", "a", "b")

    def test_combine_identities(self):
        assert combine_identity("+") == 0.0
        assert combine_identity("*") == 1.0
        assert combine_identity("max") == -math.inf
        assert combine_identity("min") == math.inf


class TestDynamicCosting:
    def test_loop_scales_counts(self):
        work = lift_code("""
def f(n):
    for i in range(n):
        push(pop() * 2.0)
""")
        counts = count_dynamic(work, {"n": 100})
        assert counts.pops == 100
        assert counts.pushes == 100
        assert counts.comp >= 100  # at least the multiply per iteration

    def test_nested_loops_multiply(self):
        work = lift_code("""
def f(r, c):
    for i in range(r):
        for j in range(c):
            push(pop())
""")
        counts = count_dynamic(work, {"r": 4, "c": 8})
        assert counts.pops == 32

    def test_if_takes_heavier_branch(self):
        work = lift_code("""
def f(n):
    x = pop()
    if x > 0:
        push(x * x * x + x * x)
    else:
        push(x)
""")
        heavy = count_dynamic(work, {"n": 0})
        assert heavy.comp >= 4

    def test_peeks_and_aux_counted(self):
        work = lift_code("""
def f(n):
    for i in range(n):
        push(peek(i) + v[i])
    for j in range(n):
        _ = pop()
""")
        counts = count_dynamic(work, {"n": 10})
        assert counts.peeks == 10
        assert counts.aux_loads == 10
        assert counts.pops == 10

    def test_counts_arithmetic(self):
        a = DynamicCounts(comp=1, pops=2)
        b = DynamicCounts(comp=3, pushes=1)
        total = a + b
        assert total.comp == 4 and total.pops == 2 and total.pushes == 1
        assert a.scaled(3).pops == 6
