"""Stream-reduction kernel plans (§4.2.1, Figures 7 and 8).

A reduction segment computes ``narrays`` independent reductions, each over
``nelements`` iterations consuming ``pops_per_iter`` stream elements.  The
paper generates different kernel structures depending on how ``nelements``
compares with ``narrays``; together with horizontal thread integration
(§4.3.2) these are exactly the five TMV kernels of §5.2.1:

* :class:`ReduceTwoKernelPlan` — initial + merge kernels; the whole GPU
  reduces each array (best for few, long arrays);
* :class:`ReduceSingleKernelPlan` (``rows_per_block=1``) — one block per
  array (best near-square);
* :class:`ReduceSingleKernelPlan` (``rows_per_block=R``) — horizontal
  thread integration merges several arrays per block (more rows than
  columns);
* :class:`ReduceSingleKernelPlan` (``outputs_per_thread=True``) — the
  shared-memory phase computes one output per thread;
* :class:`ReduceThreadPerArrayPlan` — one thread per array (many tiny
  rows); with the transposed layout from memory restructuring its loads
  are fully coalesced.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...gpu import SYNC, Device, DeviceArray, GPUSpec, Kernel
from ...perfmodel import KernelWorkload
from ..reducers import Reducer
from .base import IN, KernelPlan, PlannedLaunch, freeze_scalars

#: Input layouts understood by reduction plans.
LAYOUT_ROWS = "rows"            # canonical: array r contiguous, iterations AoS
LAYOUT_ROW_SOA = "row_soa"      # within each array, pop-components SoA
LAYOUT_TRANSPOSED = "transposed"  # element-major across arrays


class ReduceShape:
    """Segment geometry: how many arrays, how long each one is.

    Both counts come from rate expressions whose evaluation is pure in
    the scalar params, so they are memoized per frozen-scalar binding —
    the warm serving path asks for them on every run.
    """

    def __init__(self, narrays: Callable[[Dict], int],
                 nelements: Callable[[Dict], int], pops_per_iter: int):
        self._narrays = narrays
        self._nelements = nelements
        self.pops_per_iter = pops_per_iter
        self._memo: Dict[tuple, Tuple[int, int]] = {}

    def _counts(self, params) -> Tuple[int, int]:
        key = freeze_scalars(params)
        counts = self._memo.get(key)
        if counts is None:
            counts = (int(self._narrays(params)),
                      int(self._nelements(params)))
            self._memo[key] = counts
        return counts

    def narrays(self, params) -> int:
        return self._counts(params)[0]

    def nelements(self, params) -> int:
        return self._counts(params)[1]

    def input_size(self, params) -> int:
        return (self.narrays(params) * self.nelements(params)
                * self.pops_per_iter)


def _index_fn(layout: str, narrays: int, length: int, k: int):
    """Address of pop component ``j`` of iteration ``i`` of array ``r``."""
    if layout == LAYOUT_ROWS:
        return lambda r, i, j: (r * length + i) * k + j
    if layout == LAYOUT_ROW_SOA:
        return lambda r, i, j: r * length * k + j * length + i
    if layout == LAYOUT_TRANSPOSED:
        return lambda r, i, j: (i * k + j) * narrays + r
    raise ValueError(f"unknown reduction layout {layout!r}")


def _select_state(mask, new, old):
    """Lane-wise pick of reducer state tuples (arrays) by ``mask``."""
    return tuple(np.where(mask, n, o) for n, o in zip(new, old))


# ---------------------------------------------------------------------------
# Whole-array lowering (``Kernel.direct_body``)
#
# Untraced vectorized launches skip the per-warp emulation: the lanes of
# every block become one numpy array, and each kernel loop becomes a slice
# of a reshaped input view.  The fold order is the plan's, operation for
# operation, so outputs stay bit-identical to the oracle: lane ``tx`` of
# block ``c`` folds iterations ``c*chunk + tx + s*threads`` in ``s`` order
# over ``(threads, arrays, blocks)`` slices, then the shared-memory tree
# halves the lane axis.  Nothing calls ``np.sum``, and lanes without work
# keep their state through a select — never a padded combine identity,
# since ``-0.0 + 0.0`` is ``+0.0``.
# ---------------------------------------------------------------------------

def lane_view(data: np.ndarray, layout: str, narrays: int, length: int,
              k: int) -> np.ndarray:
    """``(narrays, length, k)`` float64 view of a reduction input buffer."""
    x = data[:narrays * length * k].astype(np.float64, copy=False)
    if layout == LAYOUT_ROWS:
        return x.reshape(narrays, length, k)
    if layout == LAYOUT_ROW_SOA:
        return x.reshape(narrays, k, length).transpose(0, 2, 1)
    if layout == LAYOUT_TRANSPOSED:
        return x.reshape(length, k, narrays).transpose(2, 0, 1)
    raise ValueError(f"unknown reduction layout {layout!r}")


def fold_lanes(reducers, view: np.ndarray, nblocks: int, chunk: int,
               threads: int):
    """Accumulation phase of ``nblocks`` blocks per array, all lanes at once.

    Block ``c`` of array ``r`` covers iterations ``[c*chunk, min(length,
    (c+1)*chunk))``.  Returns one state tuple per reducer, each of
    ``(threads, narrays, nblocks)`` arrays: lanes lead, so the halves the
    tree combines are contiguous.
    """
    narrays, length, k = view.shape
    span = nblocks * chunk
    if span != length:
        # Lanes past the end read these zeros; the select discards them.
        padded = np.zeros((narrays, span, k))
        padded[:, :length] = view
        view = padded
    # (chunk, k, narrays, nblocks): iteration within the block leads.
    blocks = view.reshape(narrays, nblocks, chunk, k).transpose(2, 3, 0, 1)
    states = [red.videntity((threads, narrays, nblocks)) for red in reducers]
    first = np.arange(nblocks, dtype=np.int64) * chunk
    for lo in range(0, chunk, threads):
        n = min(threads, chunk - lo)
        i = np.arange(lo, lo + n, dtype=np.int64)[:, None, None] + first
        partial = span != length and i[-1].max() >= length
        if partial:
            live = i < length
            i = np.where(live, i, 0)
        vals = [blocks[lo:lo + n, j] for j in range(k)]
        for red, state in zip(reducers, states):
            cur = tuple(s[:n] for s in state)
            new = red.vcombine(cur, red.velement(vals, i))
            if partial:
                new = _select_state(live, new, cur)
            for s, v in zip(state, new):
                s[:n] = v
    return states


def fold_partials(reducer: Reducer, parts, threads: int):
    """Merge phase: lane ``tx`` folds partials ``tx + s*threads``.

    ``parts`` is the state tuple of ``(narrays, nblocks)`` partials;
    returns ``(threads, narrays)`` lane states.
    """
    narrays, nblocks = parts[0].shape
    state = reducer.videntity((threads, narrays))
    for lo in range(0, nblocks, threads):
        n = min(threads, nblocks - lo)
        cur = tuple(s[:n] for s in state)
        new = reducer.vcombine(cur, tuple(p[:, lo:lo + n].T for p in parts))
        for s, v in zip(state, new):
            s[:n] = v
    return state


def tree_fold(reducer: Reducer, state):
    """Shared-memory tree over the leading lane axis: lane ``tx`` absorbs
    lane ``tx + active`` for ``active = threads/2, ..., 1``; returns lane
    0's state."""
    active = state[0].shape[0] // 2
    while active:
        merged = reducer.vcombine(tuple(s[:active] for s in state),
                                  tuple(s[active:2 * active] for s in state))
        for s, v in zip(state, merged):
            s[:active] = v
        active //= 2
    return tuple(s[0] for s in state)


def store_outputs(out: DeviceArray, values, per_array: int,
                  offset: int = 0) -> None:
    """Write epilogue value ``m`` of every array to ``r*per_array +
    offset + m``."""
    rows = out.data.reshape(-1, per_array)
    for m, value in enumerate(values):
        rows[:, offset + m] = value


def restructure_host(data: np.ndarray, layout: str, shape: ReduceShape,
                     params) -> np.ndarray:
    """CPU-side memory restructuring (§4.1.1) into the plan's layout."""
    narrays = shape.narrays(params)
    length = shape.nelements(params)
    k = shape.pops_per_iter
    data = np.asarray(data).reshape(narrays, length, k)
    if layout == LAYOUT_ROWS:
        return data.reshape(-1)
    if layout == LAYOUT_ROW_SOA:
        return data.transpose(0, 2, 1).reshape(-1)
    if layout == LAYOUT_TRANSPOSED:
        return data.reshape(narrays, length * k).T.reshape(-1)
    raise ValueError(f"unknown reduction layout {layout!r}")


class _ReducePlanBase(KernelPlan):
    """Shared machinery for reduction plans."""

    def __init__(self, spec: GPUSpec, name: str, shape: ReduceShape,
                 reducer_fn: Callable[[Dict], Reducer],
                 layout: str = LAYOUT_ROWS, threads: int = 256):
        super().__init__(spec, name)
        if threads & (threads - 1):
            raise ValueError("threads per block must be a power of two")
        self.shape = shape
        self.reducer_fn = reducer_fn
        self.layout = layout
        self.threads = threads
        self.input_layout = layout

    def _reducer(self, params):
        """Reducer for this binding, compiled once and reused warm.

        ``reducer_fn`` may compile several element/epilogue functions per
        call (e.g. :class:`~repro.compiler.reducers.ScalarReducer`); the
        per-plan artifact cache keys on scalars *and* auxiliary-array
        identity, so bindings that carry different const arrays never share
        a reducer.
        """
        return self.cached_artifact("reducer", params,
                                    lambda: self.reducer_fn(params))

    def output_size(self, params) -> int:
        reducer = self._reducer(params)
        return self.shape.narrays(params) * reducer.outputs_per_array

    def restructure_permutation(self, size, params):
        if self.layout == LAYOUT_ROWS:
            return None
        return restructure_host(np.arange(size), self.layout, self.shape,
                                params)

    # -- workload helpers -------------------------------------------------
    def _mem_split(self, requests: float):
        """Split per-warp load requests into (coalesced, uncoalesced, degree)."""
        k = self.shape.pops_per_iter
        if self.layout == LAYOUT_ROWS and k > 1:
            return 0.0, requests, float(min(k, 32))
        return requests, 0.0, 32.0


class ReduceSingleKernelPlan(_ReducePlanBase):
    """One block per array (or per ``rows_per_block`` arrays).

    Figure 7(b): each block reduces its array from global memory into
    shared memory, then tree-reduces the shared slots; thread 0 applies the
    epilogue and writes the result.
    """

    def __init__(self, spec, name, shape, reducer_fn,
                 layout=LAYOUT_ROWS, threads=256, rows_per_block: int = 1):
        super().__init__(spec, name, shape, reducer_fn, layout, threads)
        self.rows_per_block = rows_per_block
        self.strategy = ("reduce.single_kernel" if rows_per_block == 1
                         else f"reduce.rows_merged[{rows_per_block}]")
        if layout != LAYOUT_ROWS:
            self.strategy += f"+{layout}"
        self.optimizations = ["actor_segmentation"]
        if rows_per_block > 1:
            self.optimizations.append("horizontal_integration")
        if layout != LAYOUT_ROWS:
            self.optimizations.append("memory_restructuring")

    # -- modeling ---------------------------------------------------------
    def launches(self, params) -> List[PlannedLaunch]:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        blocks = max(1, math.ceil(narrays / self.rows_per_block))
        iters_per_thread = math.ceil(length / self.threads)
        requests = iters_per_thread * k * self.rows_per_block
        coal, uncoal, degree = self._mem_split(requests)
        tree_steps = int(math.log2(self.threads))
        comp = (iters_per_thread * (reducer.element_ops() + 2)
                + tree_steps * (reducer.combine_ops() + 2)
                ) * self.rows_per_block
        aux = (iters_per_thread * reducer.element_aux_loads()
               * self.rows_per_block)
        shared = self.threads * reducer.state_width * 4
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=comp, coal_mem_insts=coal + aux,
            uncoal_mem_insts=uncoal, uncoal_degree=degree,
            synch_insts=(tree_steps + 1) * self.rows_per_block,
            regs_per_thread=18, shared_per_block=shared)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    # -- execution ----------------------------------------------------------
    def execute(self, device: Device, buffers, params) -> DeviceArray:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        addr = _index_fn(self.layout, narrays, length, k)
        out = device.alloc(narrays * reducer.outputs_per_array,
                           dtype=np.float64, name=f"{self.name}.out")
        threads = self.threads
        rows_per_block = self.rows_per_block
        width = reducer.state_width
        out_w = reducer.outputs_per_array
        tree_steps = int(math.log2(threads))
        inbuf = buffers[IN]

        def body(ctx):
            for rr in range(rows_per_block):
                r = ctx.bx * rows_per_block + rr
                in_range = r < narrays
                if in_range:
                    state = reducer.identity()
                    i = ctx.tx
                    while i < length:
                        vals = [ctx.gload(inbuf, addr(r, i, j))
                                for j in range(k)]
                        state = reducer.combine(state,
                                                reducer.element(vals, i))
                        i += threads
                    for w in range(width):
                        ctx.sstore(f"s{w}", ctx.tx, state[w])
                yield SYNC
                active = threads // 2
                for _step in range(tree_steps):
                    if in_range and ctx.tx < active:
                        a = tuple(ctx.sload(f"s{w}", ctx.tx)
                                  for w in range(width))
                        b = tuple(ctx.sload(f"s{w}", ctx.tx + active)
                                  for w in range(width))
                        merged = reducer.combine(a, b)
                        for w in range(width):
                            ctx.sstore(f"s{w}", ctx.tx, merged[w])
                    yield SYNC
                    active //= 2
                if in_range and ctx.tx == 0:
                    final = tuple(ctx.sload(f"s{w}", 0)
                                  for w in range(width))
                    for m, value in enumerate(reducer.epilogue(final)):
                        ctx.gstore(out, r * out_w + m, value)

        acc_steps = math.ceil(length / threads) if length else 0

        def vector_body(ctx):
            tx = ctx.tx
            for rr in range(rows_per_block):
                r = ctx.bx * rows_per_block + rr
                in_range = np.broadcast_to(r < narrays, ctx.shape)
                state = reducer.videntity(ctx.shape)
                for s in range(acc_steps):
                    i = tx + s * threads
                    m = in_range & (i < length)
                    if not m.any():
                        break
                    vals = [ctx.gload(inbuf, addr(r, i, j), m)
                            for j in range(k)]
                    safe_i = np.where(m, i, 0)
                    state = _select_state(
                        m,
                        reducer.vcombine(state,
                                         reducer.velement(vals, safe_i)),
                        state)
                for w in range(width):
                    ctx.sstore(f"s{w}", tx, state[w], in_range)
                ctx.sync()
                active = threads // 2
                for _step in range(tree_steps):
                    m = in_range & (tx < active)
                    a = tuple(ctx.sload(f"s{w}", tx, m)
                              for w in range(width))
                    b = tuple(ctx.sload(f"s{w}", tx + active, m)
                              for w in range(width))
                    merged = reducer.vcombine(a, b)
                    for w in range(width):
                        ctx.sstore(f"s{w}", tx, merged[w], m)
                    ctx.sync()
                    active //= 2
                m0 = in_range & (tx == 0)
                final = tuple(ctx.sload(f"s{w}", 0, m0)
                              for w in range(width))
                for m_out, value in enumerate(reducer.vepilogue(final)):
                    ctx.gstore(out, r * out_w + m_out, value, m0)

        def direct_body():
            view = lane_view(inbuf.data, self.layout, narrays, length, k)
            (state,) = fold_lanes([reducer], view, 1, length, threads)
            final = tuple(f[:, 0] for f in tree_fold(reducer, state))
            store_outputs(out, reducer.vepilogue(final), out_w)

        kernel = Kernel(
            f"{self.name}_single", body, regs_per_thread=18,
            shared_spec={f"s{w}": (threads, np.float64)
                         for w in range(width)},
            vector_body=vector_body, direct_body=direct_body)
        blocks = max(1, math.ceil(narrays / rows_per_block))
        device.launch(kernel, blocks, threads, {"in": inbuf, "out": out})
        return out

    # -- CUDA emission ----------------------------------------------------
    def cuda_source(self) -> str:
        reducer = self.reducer_fn(None)
        return _single_kernel_cuda(self.name, reducer, self.threads,
                                   self.rows_per_block,
                                   self.shape.pops_per_iter)


class ReduceTwoKernelPlan(_ReducePlanBase):
    """Initial + merge kernels (Figure 7(c), Figure 8).

    The initial kernel chunks each array over ``initial_blocks`` blocks;
    because blocks cannot synchronize globally, their partials go back to
    global memory and a second *merge* kernel (one block per array) reduces
    them to the final outputs.
    """

    def __init__(self, spec, name, shape, reducer_fn,
                 layout=LAYOUT_ROWS, threads=256,
                 initial_blocks: Optional[int] = None):
        super().__init__(spec, name, shape, reducer_fn, layout, threads)
        self._initial_blocks = initial_blocks
        self.strategy = "reduce.two_kernel"
        if layout != LAYOUT_ROWS:
            self.strategy += f"+{layout}"
        self.optimizations = ["actor_segmentation"]
        if layout != LAYOUT_ROWS:
            self.optimizations.append("memory_restructuring")

    def initial_blocks(self, params) -> int:
        """Blocks per array for the initial kernel (input/target dependent)."""
        if self._initial_blocks is not None:
            return self._initial_blocks
        length = self.shape.nelements(params)
        narrays = self.shape.narrays(params)
        # Fill the machine: enough blocks for every SM, but never so many
        # that blocks fall below one stride of useful work.
        fit = max(1, self.spec.blocks_per_sm(self.threads, 18,
                                             self.threads * 4))
        want = max(1, (self.spec.num_sms * fit) // max(1, narrays))
        max_useful = max(1, math.ceil(length / self.threads))
        return int(min(want, max_useful, 64))

    # -- modeling ---------------------------------------------------------
    def launches(self, params) -> List[PlannedLaunch]:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        nblocks = self.initial_blocks(params)
        chunk = math.ceil(length / nblocks)
        iters_per_thread = math.ceil(chunk / self.threads)
        requests = iters_per_thread * k
        coal, uncoal, degree = self._mem_split(requests)
        tree_steps = int(math.log2(self.threads))
        comp = (iters_per_thread * (reducer.element_ops() + 2)
                + tree_steps * (reducer.combine_ops() + 2))
        aux = iters_per_thread * reducer.element_aux_loads()
        shared = self.threads * reducer.state_width * 4
        initial = KernelWorkload(
            blocks=narrays * nblocks, threads_per_block=self.threads,
            comp_insts=comp, coal_mem_insts=coal + aux,
            uncoal_mem_insts=uncoal, uncoal_degree=degree,
            synch_insts=tree_steps + 1, regs_per_thread=18,
            shared_per_block=shared)

        merge_iters = math.ceil(nblocks / self.threads)
        merge = KernelWorkload(
            blocks=narrays, threads_per_block=self.threads,
            comp_insts=(merge_iters + tree_steps)
            * (reducer.combine_ops() + 2),
            coal_mem_insts=merge_iters * reducer.state_width,
            synch_insts=tree_steps + 1, regs_per_thread=16,
            shared_per_block=shared)
        return [
            PlannedLaunch(f"{self.name}_initial", narrays * nblocks,
                          self.threads, initial),
            PlannedLaunch(f"{self.name}_merge", narrays, self.threads,
                          merge),
        ]

    # -- execution ----------------------------------------------------------
    def execute(self, device: Device, buffers, params) -> DeviceArray:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        addr = _index_fn(self.layout, narrays, length, k)
        nblocks = self.initial_blocks(params)
        chunk = math.ceil(length / nblocks)
        threads = self.threads
        width = reducer.state_width
        out_w = reducer.outputs_per_array
        tree_steps = int(math.log2(threads))
        inbuf = buffers[IN]
        partials = device.alloc(narrays * nblocks * width, dtype=np.float64,
                                name=f"{self.name}.partials")
        out = device.alloc(narrays * reducer.outputs_per_array,
                           dtype=np.float64, name=f"{self.name}.out")

        def initial_body(ctx):
            r, c = divmod(ctx.bx, nblocks)
            lo = c * chunk
            hi = min(length, lo + chunk)
            state = reducer.identity()
            i = lo + ctx.tx
            while i < hi:
                vals = [ctx.gload(inbuf, addr(r, i, j)) for j in range(k)]
                state = reducer.combine(state, reducer.element(vals, i))
                i += threads
            for w in range(width):
                ctx.sstore(f"s{w}", ctx.tx, state[w])
            yield SYNC
            active = threads // 2
            for _step in range(tree_steps):
                if ctx.tx < active:
                    a = tuple(ctx.sload(f"s{w}", ctx.tx)
                              for w in range(width))
                    b = tuple(ctx.sload(f"s{w}", ctx.tx + active)
                              for w in range(width))
                    merged = reducer.combine(a, b)
                    for w in range(width):
                        ctx.sstore(f"s{w}", ctx.tx, merged[w])
                yield SYNC
                active //= 2
            if ctx.tx == 0:
                final = tuple(ctx.sload(f"s{w}", 0) for w in range(width))
                for w in range(width):
                    ctx.gstore(partials, (w * narrays + r) * nblocks + c,
                               final[w])

        def merge_body(ctx):
            r = ctx.bx
            state = reducer.identity()
            c = ctx.tx
            while c < nblocks:
                part = tuple(
                    ctx.gload(partials, (w * narrays + r) * nblocks + c)
                    for w in range(width))
                state = reducer.combine(state, part)
                c += threads
            for w in range(width):
                ctx.sstore(f"s{w}", ctx.tx, state[w])
            yield SYNC
            active = threads // 2
            for _step in range(tree_steps):
                if ctx.tx < active:
                    a = tuple(ctx.sload(f"s{w}", ctx.tx)
                              for w in range(width))
                    b = tuple(ctx.sload(f"s{w}", ctx.tx + active)
                              for w in range(width))
                    merged = reducer.combine(a, b)
                    for w in range(width):
                        ctx.sstore(f"s{w}", ctx.tx, merged[w])
                yield SYNC
                active //= 2
            if ctx.tx == 0:
                final = tuple(ctx.sload(f"s{w}", 0) for w in range(width))
                for m, value in enumerate(reducer.epilogue(final)):
                    ctx.gstore(out, r * out_w + m, value)

        acc_steps = math.ceil(chunk / threads) if chunk else 0
        merge_steps = math.ceil(nblocks / threads)

        def _vector_tree(ctx, tx):
            active = threads // 2
            for _step in range(tree_steps):
                m = tx < active
                a = tuple(ctx.sload(f"s{w}", tx, m) for w in range(width))
                b = tuple(ctx.sload(f"s{w}", tx + active, m)
                          for w in range(width))
                merged = reducer.vcombine(a, b)
                for w in range(width):
                    ctx.sstore(f"s{w}", tx, merged[w], m)
                ctx.sync()
                active //= 2

        def initial_vector(ctx):
            tx = ctx.tx
            r = ctx.bx // nblocks
            c = ctx.bx % nblocks
            lo = c * chunk
            hi = np.minimum(length, lo + chunk)
            state = reducer.videntity(ctx.shape)
            for s in range(acc_steps):
                i = lo + tx + s * threads
                m = i < hi
                if not m.any():
                    break
                vals = [ctx.gload(inbuf, addr(r, i, j), m)
                        for j in range(k)]
                safe_i = np.where(m, i, 0)
                state = _select_state(
                    m,
                    reducer.vcombine(state, reducer.velement(vals, safe_i)),
                    state)
            for w in range(width):
                ctx.sstore(f"s{w}", tx, state[w])
            ctx.sync()
            _vector_tree(ctx, tx)
            m0 = tx == 0
            final = tuple(ctx.sload(f"s{w}", 0, m0) for w in range(width))
            for w in range(width):
                ctx.gstore(partials, (w * narrays + r) * nblocks + c,
                           final[w], m0)

        def merge_vector(ctx):
            tx = ctx.tx
            r = ctx.bx
            state = reducer.videntity(ctx.shape)
            for s in range(merge_steps):
                c = tx + s * threads
                m = c < nblocks
                if not np.any(m):
                    break
                part = tuple(
                    ctx.gload(partials, (w * narrays + r) * nblocks + c, m)
                    for w in range(width))
                state = _select_state(
                    m, reducer.vcombine(state, part), state)
            for w in range(width):
                ctx.sstore(f"s{w}", tx, state[w])
            ctx.sync()
            _vector_tree(ctx, tx)
            m0 = tx == 0
            final = tuple(ctx.sload(f"s{w}", 0, m0) for w in range(width))
            for m_out, value in enumerate(reducer.vepilogue(final)):
                ctx.gstore(out, r * out_w + m_out, value, m0)

        parts = partials.data.reshape(width, narrays, nblocks)

        def initial_direct():
            view = lane_view(inbuf.data, self.layout, narrays, length, k)
            (state,) = fold_lanes([reducer], view, nblocks, chunk, threads)
            parts[:] = tree_fold(reducer, state)

        def merge_direct():
            state = fold_partials(reducer, tuple(parts), threads)
            store_outputs(out, reducer.vepilogue(tree_fold(reducer, state)),
                          out_w)

        shared = {f"s{w}": (threads, np.float64) for w in range(width)}
        # Each launch names every buffer it writes, so a launch-scope NaN
        # fault poisons what the next stage (or the caller) reads.
        device.launch(
            Kernel(f"{self.name}_initial", initial_body, 18, shared,
                   vector_body=initial_vector, direct_body=initial_direct),
            narrays * nblocks, threads, {"in": inbuf, "partials": partials})
        device.launch(
            Kernel(f"{self.name}_merge", merge_body, 16, shared,
                   vector_body=merge_vector, direct_body=merge_direct),
            narrays, threads, {"partials": partials, "out": out})
        return out

    def cuda_source(self) -> str:
        reducer = self.reducer_fn(None)
        return _two_kernel_cuda(self.name, reducer, self.threads)


class ReduceThreadPerArrayPlan(_ReducePlanBase):
    """One thread per array — the paper's fifth TMV kernel.

    For matrices with a huge number of tiny rows the pop rate is small and
    the baseline per-thread mapping is already right; with the transposed
    layout produced by memory restructuring each warp load touches 32
    consecutive rows' elements, i.e. it is fully coalesced.
    """

    def __init__(self, spec, name, shape, reducer_fn,
                 layout=LAYOUT_TRANSPOSED, threads=256):
        super().__init__(spec, name, shape, reducer_fn, layout, threads)
        self.strategy = f"reduce.thread_per_array+{layout}"
        self.optimizations = ["actor_segmentation"]
        if layout == LAYOUT_TRANSPOSED:
            self.optimizations.append("memory_restructuring")

    def launches(self, params) -> List[PlannedLaunch]:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        blocks = max(1, math.ceil(narrays / self.threads))
        requests = length * k
        if self.layout == LAYOUT_TRANSPOSED:
            coal, uncoal, degree = requests, 0.0, 32.0
        else:
            coal, uncoal, degree = 0.0, requests, 32.0
        comp = length * (reducer.element_ops() + 2) + reducer.combine_ops()
        aux = length * reducer.element_aux_loads()
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=comp, coal_mem_insts=coal + aux,
            uncoal_mem_insts=uncoal, uncoal_degree=degree,
            regs_per_thread=16, shared_per_block=0)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    def execute(self, device: Device, buffers, params) -> DeviceArray:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        addr = _index_fn(self.layout, narrays, length, k)
        out = device.alloc(narrays * reducer.outputs_per_array,
                           dtype=np.float64, name=f"{self.name}.out")
        out_w = reducer.outputs_per_array
        inbuf = buffers[IN]

        def body(ctx):
            r = ctx.global_tid
            if r >= narrays:
                return
            state = reducer.identity()
            for i in range(length):
                vals = [ctx.gload(inbuf, addr(r, i, j)) for j in range(k)]
                state = reducer.combine(state, reducer.element(vals, i))
            for m, value in enumerate(reducer.epilogue(state)):
                ctx.gstore(out, r * out_w + m, value)

        def vector_body(ctx):
            r = ctx.global_tid
            mask = r < narrays
            state = reducer.videntity(ctx.shape)
            for i in range(length):
                vals = [ctx.gload(inbuf, addr(r, i, j), mask)
                        for j in range(k)]
                state = reducer.vcombine(state, reducer.velement(vals, i))
            for m_out, value in enumerate(reducer.vepilogue(state)):
                ctx.gstore(out, r * out_w + m_out, value, mask)

        def direct_body():
            view = lane_view(inbuf.data, self.layout, narrays, length, k)
            state = reducer.videntity((narrays,))
            for i in range(length):
                vals = [view[:, i, j] for j in range(k)]
                state = reducer.vcombine(state, reducer.velement(vals, i))
            store_outputs(out, reducer.vepilogue(state), out_w)

        kernel = Kernel(f"{self.name}_tpa", body, regs_per_thread=16,
                        vector_body=vector_body, direct_body=direct_body)
        blocks = max(1, math.ceil(narrays / self.threads))
        device.launch(kernel, blocks, self.threads,
                      {"in": inbuf, "out": out})
        return out

    def cuda_source(self) -> str:
        reducer = self.reducer_fn(None)
        return _thread_per_array_cuda(self.name, reducer, self.threads)


# ---------------------------------------------------------------------------
# CUDA C templates
# ---------------------------------------------------------------------------

def _single_kernel_cuda(name: str, reducer: Reducer, threads: int,
                        rows_per_block: int, pops_per_iter: int = 1) -> str:
    value_names = [f"in[idx + {j}]" if j else "in[idx]"
                   for j in range(pops_per_iter)]
    elem = reducer.c_element(value_names, "i") if hasattr(
        reducer, "c_element") else value_names[0]
    stride = (f" * {pops_per_iter}" if pops_per_iter > 1 else "")
    return f"""\
// {name}: single-kernel stream reduction (one block per array group)
__global__ void {name}_single(const float* in, float* out,
                              int narrays, int nelements) {{
    __shared__ float sdata[{threads}];
    for (int rr = 0; rr < {rows_per_block}; ++rr) {{
        int r = blockIdx.x * {rows_per_block} + rr;
        {reducer.c_state_decl("acc")}
        if (r < narrays) {{
            for (int i = threadIdx.x; i < nelements; i += {threads}) {{
                int idx = (r * nelements + i){stride};
                float v = {elem};
                {reducer.c_combine_stmt("acc", "v")}
            }}
        }}
        sdata[threadIdx.x] = acc;
        __syncthreads();
        for (int active = {threads} / 2; active >= 1; active >>= 1) {{
            if (threadIdx.x < active) {{
                {reducer.c_combine_stmt("sdata[threadIdx.x]",
                                        "sdata[threadIdx.x + active]")}
            }}
            __syncthreads();
        }}
        if (r < narrays && threadIdx.x == 0)
            out[r] = sdata[0];
    }}
}}
"""


def _two_kernel_cuda(name: str, reducer: Reducer, threads: int) -> str:
    return f"""\
// {name}: two-kernel stream reduction (initial + merge, Figure 8)
__global__ void {name}_initial(const float* in, float* partials,
                               int nelements, int nblocks) {{
    __shared__ float sdata[{threads}];
    int chunk = (nelements + nblocks - 1) / nblocks;
    int lo = (blockIdx.x % nblocks) * chunk;
    int hi = min(nelements, lo + chunk);
    int r = blockIdx.x / nblocks;
    {reducer.c_state_decl("acc")}
    for (int i = lo + threadIdx.x; i < hi; i += {threads}) {{
        float v = in[r * nelements + i];
        {reducer.c_combine_stmt("acc", "v")}
    }}
    sdata[threadIdx.x] = acc;
    __syncthreads();
    for (int active = {threads} / 2; active > WARP_SIZE; active >>= 1) {{
        if (threadIdx.x < active) {{
            {reducer.c_combine_stmt("sdata[threadIdx.x]",
                                    "sdata[threadIdx.x + active]")}
        }}
        __syncthreads();
    }}
    if (threadIdx.x < WARP_SIZE) {{
        for (int stride = WARP_SIZE; stride >= 1; stride >>= 1) {{
            {reducer.c_combine_stmt("sdata[threadIdx.x]",
                                    "sdata[threadIdx.x + stride]")}
        }}
    }}
    if (threadIdx.x == 0)
        partials[blockIdx.x] = sdata[0];
}}

__global__ void {name}_merge(const float* partials, float* out,
                             int nblocks) {{
    __shared__ float sdata[{threads}];
    int r = blockIdx.x;
    {reducer.c_state_decl("acc")}
    for (int c = threadIdx.x; c < nblocks; c += {threads}) {{
        float v = partials[r * nblocks + c];
        {reducer.c_combine_stmt("acc", "v")}
    }}
    sdata[threadIdx.x] = acc;
    __syncthreads();
    for (int active = {threads} / 2; active >= 1; active >>= 1) {{
        if (threadIdx.x < active) {{
            {reducer.c_combine_stmt("sdata[threadIdx.x]",
                                    "sdata[threadIdx.x + active]")}
        }}
        __syncthreads();
    }}
    if (threadIdx.x == 0)
        out[r] = sdata[0];
}}
"""


def _thread_per_array_cuda(name: str, reducer: Reducer,
                           threads: int) -> str:
    return f"""\
// {name}: thread-per-array reduction over transposed (restructured) input
__global__ void {name}_tpa(const float* in, float* out,
                           int narrays, int nelements) {{
    int r = blockIdx.x * {threads} + threadIdx.x;
    if (r >= narrays) return;
    {reducer.c_state_decl("acc")}
    for (int i = 0; i < nelements; ++i) {{
        float v = in[i * narrays + r];   // coalesced across the warp
        {reducer.c_combine_stmt("acc", "v")}
    }}
    out[r] = acc;
}}
"""
