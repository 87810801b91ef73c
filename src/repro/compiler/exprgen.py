"""Expression code generation: IR → Python (simulator) and IR → CUDA C.

Kernel templates inline actor element functions into their thread bodies.
The Python emitter generates each element function once per expression,
over symbolic parameters: a program parameter renders as a bound name, and
the compiled source is a factory that returns the element function for one
binding.  A new input shape therefore costs one factory call, never a
re-render or a re-``exec``.  The C emitter produces the expression text
spliced into generated CUDA kernels.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as _np

from ..ir import nodes as N


@dataclasses.dataclass
class CompileCounter:
    """Process-wide tally of expression-compiler invocations.

    The warm-path serving contract ("the Nth run at a shape compiles
    nothing") is asserted against these counters: a warm ``run()`` must
    leave them untouched.  ``seconds`` is the accumulated wall-clock spent
    inside ``compile_scalar_fn``/``compile_vector_fn``, which the runtime
    subtracts out of its kernel-stage timing.

    ``hydrated`` counts functions rebuilt by exec'ing source *loaded from
    an artifact bundle* instead of being rendered from IR.  Hydrations
    are deliberately excluded from :attr:`total`: the zero-cold-start
    contract ("a bundle-loaded process's first run compiles nothing") is
    asserted as ``total == 0`` while hydrations stay observable.
    """

    scalar: int = 0
    vector: int = 0
    seconds: float = 0.0
    hydrated: int = 0

    @property
    def total(self) -> int:
        return self.scalar + self.vector

    def snapshot(self) -> "CompileCounter":
        return CompileCounter(self.scalar, self.vector, self.seconds,
                              self.hydrated)

    def since(self, earlier: "CompileCounter") -> "CompileCounter":
        return CompileCounter(self.scalar - earlier.scalar,
                              self.vector - earlier.vector,
                              self.seconds - earlier.seconds,
                              self.hydrated - earlier.hydrated)


#: Shared by every plan's codegen; snapshot/since around a region to
#: attribute compiles to it.  Mutated only under the GIL (plain int/float
#: bumps); the runtime takes care to warm caches before fanning out to
#: worker threads, so concurrent warm runs never touch it.
COMPILE_COUNTER = CompileCounter()

_PY_INTRINSICS = {
    "sqrt": "math.sqrt", "exp": "math.exp", "log": "math.log",
    "sin": "math.sin", "cos": "math.cos", "floor": "math.floor",
    "abs": "abs", "min": "min", "max": "max", "int": "int", "float": "float",
}

_C_INTRINSICS = {
    "sqrt": "sqrtf", "exp": "expf", "log": "logf", "sin": "sinf",
    "cos": "cosf", "floor": "floorf", "abs": "fabsf",
    "min": "fminf", "max": "fmaxf", "int": "(int)", "float": "(float)",
}

#: Identity and absorbing elements for reduction combine operators.
COMBINE_IDENTITY = {"+": 0.0, "*": 1.0, "min": math.inf, "max": -math.inf}

_C_COMBINE = {
    "+": "{a} + {b}", "*": "{a} * {b}",
    "min": "fminf({a}, {b})", "max": "fmaxf({a}, {b})",
}


class ExprGenError(ValueError):
    """The expression contains constructs the emitter cannot lower."""


# ---------------------------------------------------------------------------
# Kernel-source registry (zero-cold-start hydration)
# ---------------------------------------------------------------------------

def expr_fingerprint(expr: N.Expr) -> str:
    """Stable digest of an IR expression's structure.

    Part of the kernel-source registry key: two expressions with the
    same fingerprint render to the same source under the same arguments,
    so a bundle-loaded source can only ever be exec'd in place of an
    identical rendering.
    """
    parts = []

    def walk(node):
        if isinstance(node, N.Const):
            parts.append(f"C:{type(node.value).__name__}:{node.value!r}")
        elif isinstance(node, N.Var):
            parts.append(f"V:{node.name}")
        elif isinstance(node, N.BinOp):
            parts.append(f"B:{node.op}(")
            walk(node.left)
            walk(node.right)
            parts.append(")")
        elif isinstance(node, N.UnaryOp):
            parts.append(f"U:{node.op}(")
            walk(node.operand)
            parts.append(")")
        elif isinstance(node, N.Call):
            parts.append(f"F:{node.fn}(")
            for arg in node.args:
                walk(arg)
            parts.append(")")
        elif isinstance(node, N.Index):
            parts.append(f"I:{node.array}(")
            walk(node.index)
            parts.append(")")
        elif isinstance(node, N.Peek):
            parts.append("P(")
            walk(node.offset)
            parts.append(")")
        elif isinstance(node, N.Pop):
            parts.append("pop")
        else:
            parts.append(f"X:{type(node).__name__}:{node}")

    walk(expr)
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()[:16]


def source_key(kind: str, name: str, args: Sequence[str],
               expr: N.Expr) -> str:
    """Registry key of one compiled element factory.

    The generated source depends on exactly these inputs: the emitter
    kind (scalar vs vector namespace), the function name, the argument
    list and the expression itself.  Parameter values and auxiliary
    arrays are bound per call (:meth:`ElementFactory.bind`), so neither
    is part of the key: one source serves every binding, in this process
    or in a fresh one that loads it from a bundle.
    """
    return f"{kind}|{name}|{','.join(args)}|{expr_fingerprint(expr)}"


class KernelSourceRegistry:
    """Process-wide store of generated kernel source text.

    Two roles:

    * every compile records ``key -> source``, which is what
      :meth:`CompiledProgram.save_bundle` exports as the bundle's
      compiled-kernel artifacts — one factory source per expression,
      which serves every parameter binding;
    * sources *loaded* from a bundle are consulted before rendering: a
      hit re-execs the stored text (a hydration, counted in
      :attr:`CompileCounter.hydrated`) instead of re-deriving it from
      IR, which is how a bundle-loaded process serves its first run —
      at any input shape — with a zero compile-counter delta.

    Self-recorded sources are never consulted on the compile path — a
    cold re-run after :meth:`CompiledProgram.clear_warm_caches` must
    count real compiles, exactly as before this registry existed.
    """

    def __init__(self):
        self._recorded: Dict[str, str] = {}
        self._loaded: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._recorded) + len(self._loaded)

    def record(self, key: str, source: str) -> None:
        self._recorded[key] = source

    def loaded_source(self, key: str) -> Optional[str]:
        return self._loaded.get(key)

    def load(self, entries: Dict[str, str]) -> None:
        """Merge bundle-carried sources into the hydration map."""
        for key, source in entries.items():
            self._loaded[str(key)] = str(source)

    def export(self) -> Dict[str, str]:
        """Every known source (loaded entries carry over into re-saves)."""
        merged = dict(self._loaded)
        merged.update(self._recorded)
        return merged

    def clear(self) -> None:
        self._recorded.clear()
        self._loaded.clear()

    def clear_loaded(self) -> None:
        """Drop bundle-carried sources (for cold-start benchmarking)."""
        self._loaded.clear()


#: Process-wide registry shared by every compiled program; keys embed an
#: expression fingerprint, so programs can never collide on a source.
SOURCE_REGISTRY = KernelSourceRegistry()


# ---------------------------------------------------------------------------
# Python emission
#
# A program parameter is never folded into generated source.  A ``Var``
# that is not an argument renders as the bound name ``_s_<name>`` (the
# prefix keeps it clear of ``math``, ``_np`` and the function's own name),
# and an auxiliary array by its own name.  Both are parameters of a
# factory ``_make(<scalars>, <arrays>)`` that returns the element function,
# so each expression is compiled once and every binding only calls
# ``_make``.
# ---------------------------------------------------------------------------

def _bound_name(name: str) -> str:
    return "_s_" + name


def python_expr(expr: N.Expr, args: Sequence[str]) -> str:
    """Render ``expr`` as a Python expression over ``args``.

    Variables outside ``args`` render as bound parameter names
    (``_s_<name>``), supplied per binding by :meth:`ElementFactory.bind`.
    """
    if isinstance(expr, N.Const):
        return repr(expr.value)
    if isinstance(expr, N.Var):
        return expr.name if expr.name in args else _bound_name(expr.name)
    if isinstance(expr, N.BinOp):
        left = python_expr(expr.left, args)
        right = python_expr(expr.right, args)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, N.UnaryOp):
        inner = python_expr(expr.operand, args)
        return f"(not {inner})" if expr.op == "not" else f"(-{inner})"
    if isinstance(expr, N.Call):
        if expr.fn == "select":
            cond, a, b = (python_expr(e, args) for e in expr.args)
            return f"({a} if {cond} else {b})"
        fn = _PY_INTRINSICS.get(expr.fn)
        if fn is None:
            raise ExprGenError(f"unknown intrinsic {expr.fn!r}")
        inner = ", ".join(python_expr(a, args) for a in expr.args)
        return f"{fn}({inner})"
    if isinstance(expr, N.Index):
        idx = python_expr(expr.index, args)
        # float() widens auxiliary-array elements to 64-bit registers, the
        # same contract ThreadCtx.gload follows, so the scalar and vector
        # emitters do identical float64 arithmetic.
        return f"float({expr.array}[int({idx})])"
    raise ExprGenError(
        f"cannot lower {type(expr).__name__} to a scalar expression "
        "(pops/peeks must be pre-substituted by the kernel template)")


def _free_names(expr: N.Expr, args: Sequence[str], scalars: List[str],
                arrays: List[str]) -> None:
    """Append ``expr``'s parameter and auxiliary-array names, in the
    order the emitters render them, skipping names already listed."""
    if isinstance(expr, N.Var):
        if expr.name not in args and expr.name not in scalars:
            scalars.append(expr.name)
        return
    if isinstance(expr, N.Index) and expr.array not in arrays:
        arrays.append(expr.array)
    for child in expr.children():
        _free_names(child, args, scalars, arrays)


def _bind_scalar(name: str, args: Sequence[str], params) -> object:
    """The value a parameter binds to: ints (and bools) as-is, anything
    else — numpy scalars included — as a Python float."""
    if name not in params:
        raise ExprGenError(
            f"unbound variable {name!r} (args={list(args)}, "
            f"params={sorted(params)})")
    value = params[name]
    return value if isinstance(value, int) else float(value)


class ElementFactory:
    """One generated source, compiled once; :meth:`bind` specializes it.

    ``make`` is the compiled ``_make``; ``scalars`` and ``arrays`` name
    its parameters in order (parameter names unprefixed, array names as
    the source spells them).
    """

    __slots__ = ("make", "source", "args", "scalars", "arrays")

    def __init__(self, make: Callable, source: str, args: Sequence[str],
                 scalars: Sequence[str], arrays: Sequence[str]):
        self.make = make
        self.source = source
        self.args = list(args)
        self.scalars = tuple(scalars)
        self.arrays = tuple(arrays)

    def bind(self, params, arrays: Dict[str, object] = None) -> Callable:
        """The element function under one parameter binding.

        Raises :class:`ExprGenError` for a variable that is neither an
        argument nor a parameter.  A missing auxiliary array binds as
        ``None`` and fails only if the function reads it.
        """
        params = params or {}
        arrays = arrays or {}
        fn = self.make(
            *[_bind_scalar(name, self.args, params)
              for name in self.scalars],
            *[arrays.get(name) for name in self.arrays])
        fn.__source__ = self.source
        return fn


def _factory_source(name: str, args: Sequence[str], scalars: Sequence[str],
                    arrays: Sequence[str], body_lines: Sequence[str]) -> str:
    header = ", ".join([_bound_name(s) for s in scalars] + list(arrays))
    lines = [f"def _make({header}):",
             f"    def {name}({', '.join(args)}):"]
    lines += [f"        {line}" for line in body_lines]
    lines += [f"    return {name}"]
    return "\n".join(lines) + "\n"


def _exec_factory(kind: str, key: str, name: str, args: Sequence[str],
                     scalars: Sequence[str], arrays: Sequence[str],
                     render: Callable[[], str],
                     namespace: Dict[str, object]) -> ElementFactory:
    """Exec one factory source, hydrating from a bundle when possible.

    ``render`` runs only when no bundle-loaded source exists for ``key``;
    either way the source is recorded for later bundle exports.
    """
    started = time.perf_counter()
    source = SOURCE_REGISTRY.loaded_source(key)
    hydrated = source is not None
    if not hydrated:
        source = render()
    exec(compile(source, f"<exprgen:{name}>", "exec"), namespace)
    SOURCE_REGISTRY.record(key, source)
    if hydrated:
        COMPILE_COUNTER.hydrated += 1
    elif kind == "scalar":
        COMPILE_COUNTER.scalar += 1
    else:
        COMPILE_COUNTER.vector += 1
    COMPILE_COUNTER.seconds += time.perf_counter() - started
    return ElementFactory(namespace["_make"], source, args, scalars, arrays)


def _expr_factory(kind: str, expr: N.Expr, args: Sequence[str],
                    name: str) -> ElementFactory:
    """Compile ``expr`` once into a binding-independent factory.

    ``kind`` is ``"scalar"`` (math-module semantics, one element per
    call) or ``"vector"`` (the numpy namespace below, arrays per call).
    """
    render_body = python_expr if kind == "scalar" else vector_expr
    scalars: List[str] = []
    arrays: List[str] = []
    _free_names(expr, args, scalars, arrays)
    namespace = ({"math": math} if kind == "scalar"
                 else dict(_VEC_NAMESPACE))
    return _exec_factory(
        kind, source_key(kind, name, args, expr), name, args, scalars,
        arrays,
        lambda: _factory_source(name, args, scalars, arrays,
                                [f"return {render_body(expr, args)}"]),
        namespace)


class KernelFactories:
    """The element factories one owner has compiled.

    Keyed per ``(kind, name, args, expression)``.  Expressions are keyed
    by identity — hashing an IR tree per lookup would cost as much as a
    bind — and each entry pins its expression, so a key is never
    recycled while the cache holds it.  The owner keeps the cache beside
    its other warm state and clears it with that state — a compiled
    program shares one across its plans, a standalone plan or a caller
    of a module-level helper holds its own; nothing here is
    process-global.
    """

    def __init__(self):
        self._entries: Dict[tuple, tuple] = {}

    def factory(self, kind: str, expr: N.Expr, args: Sequence[str],
                name: str) -> ElementFactory:
        key = (kind, name, tuple(args), id(expr))
        entry = self._entries.get(key)
        if entry is None:
            entry = (expr, _expr_factory(kind, expr, args, name))
            self._entries[key] = entry
        return entry[1]

    def clear(self) -> None:
        self._entries.clear()


def _bound_fn(kind: str, expr: N.Expr, args: Sequence[str], params,
              name: str, arrays, factories: Optional[KernelFactories]
              ) -> Callable:
    if factories is None:
        factory = _expr_factory(kind, expr, args, name)
    else:
        factory = factories.factory(kind, expr, args, name)
    return factory.bind(params, arrays)


def compile_scalar_fn(expr: N.Expr, args: Sequence[str],
                      params: Dict[str, float],
                      name: str = "elem",
                      arrays: Dict[str, object] = None,
                      factories: Optional[KernelFactories] = None
                      ) -> Callable:
    """Build ``expr`` as a Python function ``f(*args)`` under ``params``.

    ``arrays`` binds auxiliary (:class:`~repro.ir.nodes.Index`) arrays.
    With ``factories`` the expression compiles at most once for that
    cache and this call only binds; without it, it compiles afresh.
    """
    return _bound_fn("scalar", expr, args, params, name, arrays, factories)


def compile_combine_fn(kind: str) -> Callable:
    """Binary combine function for a reduction kind (+, *, min, max)."""
    if kind == "+":
        return lambda a, b: a + b
    if kind == "*":
        return lambda a, b: a * b
    if kind == "min":
        return min
    if kind == "max":
        return max
    raise ExprGenError(f"unknown combine kind {kind!r}")


# ---------------------------------------------------------------------------
# Vectorized (numpy) emission
#
# Mirrors the scalar emitter operation-for-operation over float64 arrays so
# the vectorized executor reproduces the reference path bit-for-bit.  The
# libm transcendentals (exp/log/sin/cos) are applied through the *scalar*
# math functions element-wise: numpy's own ufuncs may differ from libm in
# the last ulp, which would break the differential harness.
# ---------------------------------------------------------------------------

def _v_exact(fn: Callable) -> Callable:
    ufunc = _np.frompyfunc(fn, 1, 1)

    def apply(x):
        # asarray, not astype: on a 0-d input the ufunc returns a float.
        return _np.asarray(ufunc(_np.asarray(x, dtype=_np.float64)),
                           dtype=_np.float64)
    return apply


def _v_min(a, b):
    # Matches Python's min tie/ordering rule (returns a unless b < a).
    return _np.where(_np.asarray(b) < _np.asarray(a), b, a)


def _v_max(a, b):
    return _np.where(_np.asarray(b) > _np.asarray(a), b, a)


def _v_num(x):
    """A bool as Python arithmetic sees it, the int 0 or 1 (numpy's bool
    ``+`` is *or* and its ``-`` raises): ``max(k, k) + max(k, k)`` is 2
    and ``k - min(k, k)`` is 0 on both executor paths."""
    if isinstance(x, (bool, _np.bool_)):
        return int(x)
    if isinstance(x, _np.ndarray) and x.dtype == _np.bool_:
        return x.astype(_np.int64)
    return x


def _v_int(x):
    return _np.asarray(x).astype(_np.int64)


def _v_float(x):
    return _np.asarray(x).astype(_np.float64)


def _v_index(array, idx):
    return array[_v_int(idx)].astype(_np.float64)


_VEC_INTRINSICS = {
    "sqrt": "_np.sqrt", "floor": "_np.floor", "abs": "_np.abs",
    "exp": "_v_exp", "log": "_v_log", "sin": "_v_sin", "cos": "_v_cos",
    "int": "_v_int", "float": "_v_float",
}


#: Globals of every vector factory; each compile execs into a copy.
_VEC_NAMESPACE: Dict[str, object] = {
    "_np": _np, "math": math,
    "_v_exp": _v_exact(math.exp), "_v_log": _v_exact(math.log),
    "_v_sin": _v_exact(math.sin), "_v_cos": _v_exact(math.cos),
    "_v_min": _v_min, "_v_max": _v_max, "_v_num": _v_num,
    "_v_int": _v_int, "_v_float": _v_float, "_v_index": _v_index,
    "_v_where": _np.where,
    "_v_and": _np.logical_and, "_v_or": _np.logical_or,
    "_v_not": _np.logical_not,
}


_ARITHMETIC = frozenset(("+", "-", "*", "/", "//", "%", "**"))
#: numpy keeps (``abs``) or narrows (``sqrt``/``floor``: float16) a bool.
_NUMERIC_INTRINSICS = frozenset(("sqrt", "floor", "abs"))


def _vector_number(expr: N.Expr, args: Sequence[str]) -> str:
    """Render an arithmetic operand, through ``_v_num`` when its value
    can be a bool: a parameter, a bool constant, a comparison or logical
    operator, or ``min``/``max``/``select``/``abs`` of one."""
    text = vector_expr(expr, args)
    if isinstance(expr, N.Const):
        maybe_bool = isinstance(expr.value, bool)
    elif isinstance(expr, N.Var):
        maybe_bool = expr.name not in args
    elif isinstance(expr, N.BinOp):
        maybe_bool = expr.op not in _ARITHMETIC
    elif isinstance(expr, N.Call):
        maybe_bool = expr.fn in ("min", "max", "select", "abs")
    else:
        maybe_bool = isinstance(expr, N.UnaryOp) and expr.op == "not"
    return f"_v_num({text})" if maybe_bool else text


def vector_expr(expr: N.Expr, args: Sequence[str]) -> str:
    """Render ``expr`` as a numpy expression over array-valued ``args``."""
    if isinstance(expr, (N.Const, N.Var)):
        return python_expr(expr, args)
    if isinstance(expr, N.BinOp):
        if expr.op in _ARITHMETIC:
            left = _vector_number(expr.left, args)
            right = _vector_number(expr.right, args)
            return f"({left} {expr.op} {right})"
        left = vector_expr(expr.left, args)
        right = vector_expr(expr.right, args)
        if expr.op == "and":
            return f"_v_and({left}, {right})"
        if expr.op == "or":
            return f"_v_or({left}, {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, N.UnaryOp):
        if expr.op == "not":
            return f"_v_not({vector_expr(expr.operand, args)})"
        return f"(-{_vector_number(expr.operand, args)})"
    if isinstance(expr, N.Call):
        if expr.fn == "select":
            cond, a, b = (vector_expr(e, args) for e in expr.args)
            return f"_v_where({cond}, {a}, {b})"
        if expr.fn in _NUMERIC_INTRINSICS:
            inners = [_vector_number(a, args) for a in expr.args]
        else:
            inners = [vector_expr(a, args) for a in expr.args]
        if expr.fn in ("min", "max"):
            acc = inners[0]
            for nxt in inners[1:]:
                acc = f"_v_{expr.fn}({acc}, {nxt})"
            return acc
        fn = _VEC_INTRINSICS.get(expr.fn)
        if fn is None:
            raise ExprGenError(f"unknown intrinsic {expr.fn!r}")
        return f"{fn}({', '.join(inners)})"
    if isinstance(expr, N.Index):
        idx = vector_expr(expr.index, args)
        return f"_v_index({expr.array}, {idx})"
    raise ExprGenError(
        f"cannot lower {type(expr).__name__} to a vector expression "
        "(pops/peeks must be pre-substituted by the kernel template)")


def compile_vector_fn(expr: N.Expr, args: Sequence[str],
                      params: Dict[str, float],
                      name: str = "velem",
                      arrays: Dict[str, object] = None,
                      factories: Optional[KernelFactories] = None
                      ) -> Callable:
    """Build ``expr`` as a numpy function ``f(*args)`` over arrays.

    Semantically identical to :func:`compile_scalar_fn` applied lane-wise
    (same float64 arithmetic, same tie rules, same libm transcendentals,
    same bound parameter values); ``factories`` works the same way.
    """
    return _bound_fn("vector", expr, args, params, name, arrays, factories)


# ---------------------------------------------------------------------------
# Fused segment-chain emission (vectorized path)
#
# A linear producer→consumer chain of map-shaped segments is emitted as ONE
# numpy source: each stage loads from the previous stage's buffer with the
# exact index arithmetic its plan's vector_body uses (interleaved, SoA, or
# gather-translated), evaluates its output expressions over the whole
# iteration space at once, and stores into the next in-arena buffer — the
# intermediates are never re-materialized between kernel launches.  Because
# map lanes are independent and every operator in the vector namespace is
# elementwise, whole-array evaluation is bit-identical to the chunked
# grid-stride vector_body the unfused path runs.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ChainStage:
    """One map-shaped stage of a fusable segment chain.

    Produced by :meth:`KernelPlan.chain_stage`; consumed by
    :func:`render_chain_source`.  ``outputs``/``gather`` are the plan's IR
    expressions (un-renamed — the emitter prefixes auxiliary array names
    per stage so chains never collide in one namespace); ``iterations`` /
    ``k`` / ``m`` fix the stage geometry under one scalar binding.
    """

    name: str
    outputs: list
    k: int                      # pops per iteration
    m: int                      # pushes per iteration
    iterations: int
    restructured: bool = False  # SoA input layout (j*n + i loads)
    gather: Optional[N.Expr] = None
    arrays: Dict[str, object] = dataclasses.field(default_factory=dict)


def _rename_arrays(expr: N.Expr, mapping: Dict[str, str]) -> N.Expr:
    """Rebuild ``expr`` with :class:`~repro.ir.nodes.Index` arrays renamed."""
    if isinstance(expr, (N.Const, N.Var, N.Pop)):
        return expr
    if isinstance(expr, N.BinOp):
        return N.BinOp(expr.op, _rename_arrays(expr.left, mapping),
                       _rename_arrays(expr.right, mapping))
    if isinstance(expr, N.UnaryOp):
        return N.UnaryOp(expr.op, _rename_arrays(expr.operand, mapping))
    if isinstance(expr, N.Call):
        return N.Call(expr.fn,
                      [_rename_arrays(a, mapping) for a in expr.args])
    if isinstance(expr, N.Index):
        return N.Index(mapping.get(expr.array, expr.array),
                       _rename_arrays(expr.index, mapping))
    if isinstance(expr, N.Peek):
        return N.Peek(_rename_arrays(expr.offset, mapping))
    return expr


def _stage_aux_name(stage_index: int, array: str) -> str:
    return f"_a{stage_index}_{array}"


def _stage_renames(stage_index: int, stage: ChainStage) -> Dict[str, str]:
    return {name: _stage_aux_name(stage_index, name)
            for name in stage.arrays}


def chain_fingerprint(stages: Sequence[ChainStage]) -> str:
    """Stable digest of a chain's structure (geometry + stage expressions).

    Auxiliary arrays enter through their deterministic per-stage renames
    (value-free, like :func:`source_key`'s array treatment), so the same
    source re-binds to a fresh process's arrays on hydration.
    """
    parts = []
    for si, stage in enumerate(stages):
        renames = _stage_renames(si, stage)
        parts.append(f"S{si}:k={stage.k}:m={stage.m}:"
                     f"n={stage.iterations}:"
                     f"soa={int(stage.restructured)}")
        if stage.gather is not None:
            parts.append(
                "g:" + expr_fingerprint(_rename_arrays(stage.gather,
                                                       renames)))
        for out in stage.outputs:
            parts.append(expr_fingerprint(_rename_arrays(out, renames)))
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]


def chain_source_key(chain_id: str, stages: Sequence[ChainStage]) -> str:
    """Registry key of one fused-chain function (bundle participation).

    Geometry is part of :func:`chain_fingerprint`; parameter values are
    bound per call, so they are not part of the key.
    """
    return f"chain|{chain_id}|{len(stages)}|{chain_fingerprint(stages)}"


def _chain_buffers(n_stages: int) -> list:
    return (["_src"] + [f"_t{i}" for i in range(n_stages - 1)] + ["_out"])


def _stage_args(stage: ChainStage) -> List[str]:
    return [f"_x{j}" for j in range(stage.k)] + ["_i"]


def _chain_parts(stages: Sequence[ChainStage]):
    """Per-stage renamed ``(gather, outputs)`` plus the chain's parameter
    and auxiliary-array names, in rendering order."""
    renamed, scalars, arrays = [], [], []
    for si, stage in enumerate(stages):
        renames = _stage_renames(si, stage)
        gather = (None if stage.gather is None
                  else _rename_arrays(stage.gather, renames))
        outputs = [_rename_arrays(out, renames) for out in stage.outputs]
        if gather is not None:
            _free_names(gather, ["_i"], scalars, arrays)
        for out in outputs:
            _free_names(out, _stage_args(stage), scalars, arrays)
        renamed.append((gather, outputs))
    return renamed, scalars, arrays


def _load_index(j: int, k: int, n: int, restructured: bool) -> str:
    """Index expression of pop component ``j``, matching vector_body."""
    if restructured:
        return "_i" if j == 0 else f"({j} * {n} + _i)"
    return "_i" if k == 1 else f"(_i * {k} + {j})"


def _store_index(idx: int, m: int) -> str:
    return "_i" if m == 1 else f"(_i * {m} + {idx})"


def render_chain_source(stages: Sequence[ChainStage],
                        name: str = "chain") -> str:
    """Render a fused-chain numpy factory source over raw buffer arrays.

    The factory's ``_make(<parameters>, <aux arrays>)`` returns a
    function ``(src, t0, ..., out)``: one buffer per stage boundary.  Per
    stage the loads replicate the plan's exact vector_body indexing (so
    layout variants need no special-casing), the bodies reuse
    :func:`vector_expr` (same float64 arithmetic, same libm
    transcendentals, same bound parameters), and the stores cover every
    output element — which is what makes zero-filled recycled arena
    buffers safe.  Stage geometry (iteration counts, strides) is baked
    into the source.
    """
    bufs = _chain_buffers(len(stages))
    renamed, scalars, arrays = _chain_parts(stages)
    lines = []
    for si, (stage, (gather, outputs)) in enumerate(zip(stages, renamed)):
        src, dst = bufs[si], bufs[si + 1]
        n = stage.iterations
        lines.append(f"_i = _np.arange({n}, dtype=_np.int64)")
        if gather is not None:
            lines.append(f"_gi = _v_int({vector_expr(gather, ['_i'])})")
            lines.append(f"_x0 = {src}[_gi].astype(_np.float64)")
        else:
            for j in range(stage.k):
                idx = _load_index(j, stage.k, n, stage.restructured)
                lines.append(f"_x{j} = {src}[{idx}].astype(_np.float64)")
        for idx, out in enumerate(outputs):
            body = vector_expr(out, _stage_args(stage))
            lines.append(f"{dst}[{_store_index(idx, stage.m)}] = {body}")
    return _factory_source(name, bufs, scalars, arrays, lines)


def compile_chain_fn(stages: Sequence[ChainStage], params,
                     chain_id: str, name: str = "chain") -> Callable:
    """Compile a fused segment chain to one numpy function.

    Rides the same registry mechanics as the per-kernel compilers: the
    rendered factory is recorded under :func:`chain_source_key` (so it
    participates in :class:`ArtifactBundle` save/load), a bundle-loaded
    source hydrates instead of re-rendering — a bundle-warmed process's
    first fused run compiles nothing — and ``params`` bind exactly as
    for :func:`compile_vector_fn`.
    """
    _renamed, scalars, arrays = _chain_parts(stages)
    factory = _exec_factory(
        "vector", chain_source_key(chain_id, stages), name,
        _chain_buffers(len(stages)), scalars, arrays,
        lambda: render_chain_source(stages, name=name),
        dict(_VEC_NAMESPACE))
    aux = {_stage_aux_name(si, aname): arr
           for si, stage in enumerate(stages)
           for aname, arr in stage.arrays.items()}
    return factory.bind(params, aux)


_VEC_COMBINE = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "min": _v_min,
    "max": _v_max,
}


def compile_vector_combine_fn(kind: str) -> Callable:
    """Array-valued counterpart of :func:`compile_combine_fn`."""
    fn = _VEC_COMBINE.get(kind)
    if fn is None:
        raise ExprGenError(f"unknown combine kind {kind!r}")
    return fn


# ---------------------------------------------------------------------------
# CUDA C emission
# ---------------------------------------------------------------------------

def c_expr(expr: N.Expr, renames: Dict[str, str] = None) -> str:
    """Render ``expr`` as a C expression; ``renames`` maps IR names to C."""
    renames = renames or {}
    if isinstance(expr, N.Const):
        if isinstance(expr.value, bool):
            return "1" if expr.value else "0"
        if isinstance(expr.value, float):
            return f"{expr.value}f"
        return str(expr.value)
    if isinstance(expr, N.Var):
        return renames.get(expr.name, expr.name)
    if isinstance(expr, N.BinOp):
        left = c_expr(expr.left, renames)
        right = c_expr(expr.right, renames)
        if expr.op == "//":
            return f"({left} / {right})"   # integer division in C
        if expr.op == "**":
            return f"powf({left}, {right})"
        if expr.op == "and":
            return f"({left} && {right})"
        if expr.op == "or":
            return f"({left} || {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, N.UnaryOp):
        inner = c_expr(expr.operand, renames)
        return f"(!{inner})" if expr.op == "not" else f"(-{inner})"
    if isinstance(expr, N.Call):
        if expr.fn == "select":
            cond, a, b = (c_expr(e, renames) for e in expr.args)
            return f"({cond} ? {a} : {b})"
        fn = _C_INTRINSICS.get(expr.fn)
        if fn is None:
            raise ExprGenError(f"unknown intrinsic {expr.fn!r}")
        inner = ", ".join(c_expr(a, renames) for a in expr.args)
        return f"{fn}({inner})"
    if isinstance(expr, N.Index):
        name = renames.get(expr.array, expr.array)
        return f"{name}[{c_expr(expr.index, renames)}]"
    raise ExprGenError(f"cannot lower {type(expr).__name__} to C")


def c_combine(kind: str, a: str, b: str) -> str:
    template = _C_COMBINE.get(kind)
    if template is None:
        raise ExprGenError(f"unknown combine kind {kind!r}")
    return template.format(a=a, b=b)


def combine_identity(kind: str) -> float:
    if kind not in COMBINE_IDENTITY:
        raise ExprGenError(f"unknown combine kind {kind!r}")
    return COMBINE_IDENTITY[kind]
