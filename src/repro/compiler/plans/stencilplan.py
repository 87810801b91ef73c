"""Neighboring-access (stencil) kernel plans (§4.1.2, Figures 4–6).

A stencil segment computes each output cell from a fixed set of neighbor
offsets of the corresponding input cell on a ``height × width`` grid.

* :class:`NaiveStencilPlan` — thread per cell, every neighbor read from
  global memory: the whole input is fetched once per offset ("accessing the
  whole input five times" for a 5-point stencil).
* :class:`TiledStencilPlan` — each block stages a *super tile* plus its halo
  into shared memory, synchronizes, and computes several output cells per
  thread.  Tile size/shape is chosen per input with the paper's reuse
  metric (sum of element accesses over the tile divided by halo size),
  shrinking for small inputs to keep enough blocks and growing for large
  inputs to amortize halo traffic.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...gpu import SYNC, Device, DeviceArray, GPUSpec, Kernel
from ...ir.patterns import StencilPattern
from ...perfmodel import KernelWorkload
from ..exprgen import KernelFactories, compile_scalar_fn, compile_vector_fn
from .base import KernelPlan, PlannedLaunch, expr_ops, first_use


class StencilShape:
    """Grid geometry of a stencil segment."""

    def __init__(self, width: Callable[[Dict], int],
                 height: Callable[[Dict], int]):
        self._width = width
        self._height = height

    def width(self, params) -> int:
        return int(self._width(params))

    def height(self, params) -> int:
        return int(self._height(params))

    def size(self, params) -> int:
        return self.width(params) * self.height(params)


def linear_offsets(pattern: StencilPattern, params: Dict[str, float],
                   factories: Optional[KernelFactories] = None
                   ) -> List[int]:
    """Evaluate the pattern's displacement expressions to integers.

    Each displacement compiles once per ``factories`` cache (a fresh one
    when omitted) and is only bound to ``params``.
    """
    factories = KernelFactories() if factories is None else factories
    return [int(compile_scalar_fn(disp, [], params, name="disp",
                                  factories=factories)())
            for disp in pattern.offsets]


def _decompose(disps: List[int], width: int) -> List[Tuple[int, int]]:
    pairs = []
    for d in disps:
        dy = int(round(d / width)) if width > 0 else 0
        dx = d - dy * width
        if abs(dx) >= width and width > 1:
            raise ValueError(
                f"stencil displacement {d} does not decompose on width "
                f"{width}")
        pairs.append((dy, dx))
    return pairs


def decompose_offsets(pattern: StencilPattern,
                      params: Dict[str, float],
                      width: int,
                      factories: Optional[KernelFactories] = None
                      ) -> List[Tuple[int, int]]:
    """Evaluate the pattern's linear displacements into (dy, dx) pairs.

    Valid under the actor's edge guard, which must exclude cells whose
    neighbors would wrap across row boundaries (linear offset semantics
    agree with 2-D semantics exactly on guarded-interior cells).
    """
    return _decompose(linear_offsets(pattern, params, factories), width)


def _halo(pairs: List[Tuple[int, int]]) -> Tuple[int, int]:
    """Halo ``(hx, hy)``: the largest |dx| and |dy| of the taps."""
    return (max((abs(dx) for _dy, dx in pairs), default=0),
            max((abs(dy) for dy, _dx in pairs), default=0))


def reuse_metric(tile_w: int, tile_h: int, halo_x: int, halo_y: int,
                 accesses_per_cell: int) -> float:
    """The paper's tile-shape score: served accesses per halo element."""
    halo_size = ((tile_w + 2 * halo_x) * (tile_h + 2 * halo_y)
                 - tile_w * tile_h)
    if halo_size <= 0:
        return math.inf
    return tile_w * tile_h * accesses_per_cell / halo_size


class _StencilPlanBase(KernelPlan):
    def __init__(self, spec: GPUSpec, name: str, shape: StencilShape,
                 pattern: StencilPattern, threads: int = 256):
        super().__init__(spec, name)
        self.shape = shape
        self.pattern = pattern
        self.threads = threads
        #: Per-cell instructions; depends only on the compute expression.
        self._cell_ops = expr_ops(pattern.compute) + 4

    def output_size(self, params) -> int:
        return self.shape.size(params)

    def _element_fns(self, kind: str, params):
        """``(compute, guard, fallback)`` of one emitter ``kind``, bound
        to ``params`` (``None`` where the pattern has no such part)."""
        compile_fn, tag = ((compile_scalar_fn, "")
                           if kind == "scalar" else (compile_vector_fn, "v"))
        noff = len(self.pattern.offsets)
        args = [f"_p{k}" for k in range(noff)] + ["_i"]
        parts = ((self.pattern.compute, args, "compute"),
                 (self.pattern.guard, ["_i"], "guard"),
                 (self.pattern.guard_else, args, "fallback"))
        return tuple(
            None if expr is None else
            compile_fn(expr, part_args, params, name=tag + name,
                       factories=self.factories)
            for expr, part_args, name in parts)

    def _linear_offsets(self, params) -> List[int]:
        """Displacements for this binding, from evaluators this plan
        compiles once per displacement."""
        return linear_offsets(self.pattern, params, self.factories)

    def _decomposed_offsets(self, params) -> List[Tuple[int, int]]:
        width = max(1, self.shape.width(params))
        return _decompose(self._linear_offsets(params), width)


class NaiveStencilPlan(_StencilPlanBase):
    """Thread per cell, all neighbors read from global memory."""

    strategy = "stencil.global"

    def __init__(self, spec, name, shape, pattern, threads=256):
        super().__init__(spec, name, shape, pattern, threads)
        self.optimizations = []

    def launches(self, params) -> List[PlannedLaunch]:
        size = self.shape.size(params)
        noff = len(self.pattern.offsets)
        blocks = max(1, math.ceil(size / self.threads))
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=self._cell_ops,
            coal_mem_insts=float(noff + 1),   # neighbor loads + store
            regs_per_thread=18, shared_per_block=0)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    def bind(self, params):
        width = self.shape.width(params)
        height = self.shape.height(params)
        size = width * height
        disps = self._linear_offsets(params)
        scalar_fns = first_use(lambda: self._element_fns("scalar", params))
        vcompute, vguard, vfallback = self._element_fns("vector", params)
        threads = self.threads
        blocks = max(1, math.ceil(size / threads))
        lo = min(disps, default=0)
        hi = max(disps, default=0)
        pad_lo, pad_hi = max(0, -lo), max(0, hi)
        # Per-cell tap/fallback choice, and whether the guard admits a
        # tap outside the input: fixed by the binding.
        ok = np.zeros(size, dtype=bool)
        ok[pad_lo:max(0, min(size, size - hi))] = True
        outside = False
        if vguard is not None:
            inside = ok
            ok = np.asarray(vguard(np.arange(size, dtype=np.int64)),
                            dtype=bool)
            outside = bool(np.any(ok & ~inside))
        name = self.name

        def run(device: Device, inbuf: DeviceArray) -> DeviceArray:
            out = device.alloc(size, dtype=np.float64, name=f"{name}.out")

            def body(ctx):
                i = ctx.global_tid
                if i >= size:
                    return
                compute, guard, fallback = scalar_fns()
                in_bounds = all(0 <= i + d < size for d in disps)
                ok = in_bounds if guard is None else guard(i)
                if ok:
                    vals = [ctx.gload(inbuf, i + d) for d in disps]
                    ctx.gstore(out, i, compute(*vals, i))
                else:
                    center = ctx.gload(inbuf, i)
                    if fallback is not None:
                        vals = [center] * len(disps)
                        ctx.gstore(out, i, fallback(*vals, i))
                    else:
                        ctx.gstore(out, i, center)

            def vector_body(ctx):
                # Mirrors the scalar per-lane access sequences: ok lanes
                # load every tap, guard-excluded lanes load only the
                # center, and all alive lanes store once.
                i = ctx.global_tid
                alive = i < size
                if not alive.any():
                    return
                safe_i = np.where(alive, i, 0)
                if vguard is None:
                    ok = np.ones(i.shape, dtype=bool)
                    for d in disps:
                        ok &= (i + d >= 0) & (i + d < size)
                else:
                    ok = np.asarray(vguard(safe_i), dtype=bool)
                okm = alive & ok
                elm = alive & ~ok
                vals = [ctx.gload(inbuf, np.where(okm, i + d, 0), okm)
                        for d in disps]
                center = ctx.gload(inbuf, i, elm)
                result = vcompute(*vals, safe_i)
                if vfallback is not None:
                    alt = vfallback(*([center] * len(disps)), safe_i)
                else:
                    alt = center
                ctx.gstore(out, i, np.where(ok, result, alt), alive)

            def direct_body():
                # Linear taps are slices of one zero-padded copy of the
                # input.
                x = inbuf.data[:size].astype(np.float64, copy=False)
                cells = np.arange(size, dtype=np.int64)
                if outside:
                    # The guard admits taps outside the input: gather
                    # them like the emulated path (same wrap-around or
                    # IndexError).
                    vals = [inbuf.data[np.where(ok, cells + d, 0)].astype(
                        np.float64) for d in disps]
                else:
                    padded = np.zeros(pad_lo + size + pad_hi)
                    padded[pad_lo:pad_lo + size] = x
                    vals = [padded[pad_lo + d:pad_lo + d + size]
                            for d in disps]
                result = vcompute(*vals, cells)
                if vfallback is not None:
                    alt = vfallback(*([x] * len(disps)), cells)
                else:
                    alt = x
                out.data[:size] = np.where(ok, result, alt)

            kernel = Kernel(f"{name}_naive", body, regs_per_thread=18,
                            vector_body=vector_body, direct_body=direct_body)
            device.launch(kernel, blocks, threads, {"in": inbuf, "out": out})
            return out
        return run

    def cuda_source(self) -> str:
        return (f"// {self.name}: naive global-memory stencil "
                f"({len(self.pattern.offsets)} loads per cell)\n")


class TiledStencilPlan(_StencilPlanBase):
    """Super-tile shared-memory stencil with halo staging (Figures 5–6)."""

    strategy = "stencil.super_tile"

    #: Candidate tile widths (multiples of the warp size, §4.1.2) and
    #: heights enumerated by the reuse-metric search.
    TILE_WIDTHS = (32, 64, 128)
    TILE_HEIGHTS = (4, 8, 16, 32)

    def __init__(self, spec, name, shape, pattern, threads=256,
                 tile: Tuple[int, int] = None):
        super().__init__(spec, name, shape, pattern, threads)
        self._fixed_tile = tile
        self.optimizations = ["neighboring_access"]

    # ------------------------------------------------------------------
    def halo(self, params) -> Tuple[int, int]:
        return _halo(self._decomposed_offsets(params))

    def choose_tile(self, params, pairs=None) -> Tuple[int, int]:
        """Pick the super-tile shape by reuse metric under constraints.

        Constraints: tile width a warp multiple, the staged region fits in
        a shared-memory budget, and — the input-aware part — the grid keeps
        at least ~2 blocks per SM when the input allows it, shrinking the
        tile for small inputs.  ``pairs`` are the binding's decomposed
        offsets when the caller already has them.
        """
        if self._fixed_tile is not None:
            return self._fixed_tile
        width = self.shape.width(params)
        height = self.shape.height(params)
        hx, hy = _halo(self._decomposed_offsets(params)
                       if pairs is None else pairs)
        budget = self.spec.max_shared_mem_per_block // 2
        target_blocks = 2 * self.spec.num_sms
        accesses = len(self.pattern.offsets)
        best = None
        best_score = -math.inf
        for tw in self.TILE_WIDTHS:
            if tw > max(32, width):
                continue
            for th in self.TILE_HEIGHTS:
                if th > max(1, height):
                    continue
                staged = (tw + 2 * hx) * (th + 2 * hy) * 4
                if staged > budget:
                    continue
                blocks = (math.ceil(width / tw) * math.ceil(height / th))
                score = reuse_metric(tw, th, hx, hy, accesses)
                if blocks < target_blocks:
                    # Small input: prefer more blocks over reuse.
                    score /= (1 + target_blocks - blocks)
                if score > best_score:
                    best_score = score
                    best = (tw, th)
        if best is None:
            best = (32, 4)
        return best

    def _grid(self, params, tile=None) -> int:
        tw, th = tile or self.choose_tile(params)
        return max(1, math.ceil(self.shape.width(params) / tw)
                   * math.ceil(self.shape.height(params) / th))

    # ------------------------------------------------------------------
    def launches(self, params) -> List[PlannedLaunch]:
        pairs = self._decomposed_offsets(params)
        tw, th = self.choose_tile(params, pairs)
        hx, hy = _halo(pairs)
        blocks = self._grid(params, (tw, th))
        cells = tw * th
        staged = (tw + 2 * hx) * (th + 2 * hy)
        warps = max(1, self.threads // self.spec.warp_size)
        loads = staged / (self.spec.warp_size * warps)
        stores = cells / (self.spec.warp_size * warps)
        cells_per_thread = max(1, cells // self.threads)
        comp = cells_per_thread * (self._cell_ops
                                   + len(self.pattern.offsets))
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=comp, coal_mem_insts=loads + stores,
            synch_insts=2, regs_per_thread=20,
            shared_per_block=staged * 4)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    # ------------------------------------------------------------------
    def bind(self, params):
        width = self.shape.width(params)
        height = self.shape.height(params)
        size = width * height
        pairs = self._decomposed_offsets(params)
        scalar_fns = first_use(lambda: self._element_fns("scalar", params))
        vcompute, vguard, vfallback = self._element_fns("vector", params)
        tw, th = self.choose_tile(params, pairs)
        hx, hy = _halo(pairs)
        sw, sh = tw + 2 * hx, th + 2 * hy
        tiles_x = math.ceil(width / tw)
        tiles_y = math.ceil(height / th)
        threads = self.threads
        staged = sw * sh
        stage_steps = math.ceil(staged / threads)
        comp_steps = math.ceil(tw * th / threads)
        dys = [dy for dy, _dx in pairs] or [0]
        dxs = [dx for _dy, dx in pairs] or [0]
        # Cells computed from their taps (interior and guarded); the rest
        # take the fallback.  Fixed by the binding.
        ok = np.zeros((height, width), dtype=bool)
        ok[max(0, -min(dys)):max(0, min(height, height - max(dys))),
           max(0, -min(dxs)):max(0, min(width, width - max(dxs)))] = True
        if vguard is not None:
            ok &= np.asarray(vguard(np.arange(size, dtype=np.int64).reshape(
                height, width)), dtype=bool)
        shared = {"tile": (staged, np.float64)}
        name = self.name

        def run(device: Device, inbuf: DeviceArray) -> DeviceArray:
            out = device.alloc(size, dtype=np.float64, name=f"{name}.out")

            def body(ctx):
                compute, guard, fallback = scalar_fns()
                ty, tx = divmod(ctx.bx, tiles_x)
                x0 = tx * tw - hx
                y0 = ty * th - hy
                # Cooperative staging: threads stride over the staged
                # region.
                s = ctx.tx
                while s < staged:
                    sy, sx = divmod(s, sw)
                    gy, gx = y0 + sy, x0 + sx
                    if 0 <= gy < height and 0 <= gx < width:
                        ctx.sstore("tile", s,
                                   ctx.gload(inbuf, gy * width + gx))
                    else:
                        ctx.sstore("tile", s, 0.0)
                    s += threads
                yield SYNC
                # Each thread computes its cells of the tile.
                c = ctx.tx
                while c < tw * th:
                    cy, cx = divmod(c, tw)
                    gy, gx = ty * th + cy, tx * tw + cx
                    if gy < height and gx < width:
                        i = gy * width + gx
                        interior = all(0 <= gy + dy < height
                                       and 0 <= gx + dx < width
                                       for dy, dx in pairs)
                        if guard is None:
                            ok = interior
                        else:
                            ok = guard(i) and interior
                        ly, lx = cy + hy, cx + hx
                        if ok:
                            vals = [ctx.sload("tile",
                                              (ly + dy) * sw + (lx + dx))
                                    for dy, dx in pairs]
                            ctx.gstore(out, i, compute(*vals, i))
                        else:
                            center = ctx.sload("tile", ly * sw + lx)
                            if fallback is not None:
                                vals = [center] * len(pairs)
                                ctx.gstore(out, i, fallback(*vals, i))
                            else:
                                ctx.gstore(out, i, center)
                    c += threads

            def vector_body(ctx):
                t_y = ctx.bx // tiles_x
                t_x = ctx.bx % tiles_x
                x0 = t_x * tw - hx
                y0 = t_y * th - hy
                for step in range(stage_steps):
                    s = ctx.tx + step * threads
                    m = s < staged
                    if not m.any():
                        break
                    sy, sx = np.divmod(s, sw)
                    gy = y0 + sy
                    gx = x0 + sx
                    inb = (m & (gy >= 0) & (gy < height)
                           & (gx >= 0) & (gx < width))
                    v = ctx.gload(inbuf, gy * width + gx, inb)
                    ctx.sstore("tile", s, np.where(inb, v, 0.0), m)
                ctx.sync()
                for step in range(comp_steps):
                    c = ctx.tx + step * threads
                    cy, cx = np.divmod(c, tw)
                    gy = t_y * th + cy
                    gx = t_x * tw + cx
                    cell = (c < tw * th) & (gy < height) & (gx < width)
                    if not cell.any():
                        continue
                    i = gy * width + gx
                    safe_i = np.where(cell, i, 0)
                    interior = np.ones(cell.shape, dtype=bool)
                    for dy, dx in pairs:
                        interior &= ((gy + dy >= 0) & (gy + dy < height)
                                     & (gx + dx >= 0) & (gx + dx < width))
                    if vguard is None:
                        ok = interior
                    else:
                        ok = np.asarray(vguard(safe_i), dtype=bool) \
                            & interior
                    okm = cell & ok
                    elm = cell & ~ok
                    ly = cy + hy
                    lx = cx + hx
                    vals = [ctx.sload("tile", (ly + dy) * sw + (lx + dx),
                                      okm)
                            for dy, dx in pairs]
                    center = ctx.sload("tile", ly * sw + lx, elm)
                    result = vcompute(*vals, safe_i)
                    if vfallback is not None:
                        alt = vfallback(*([center] * len(pairs)), safe_i)
                    else:
                        alt = center
                    ctx.gstore(out, i, np.where(ok, result, alt), cell)

            def direct_body():
                # Every super tile's staged region is a window of one
                # zero-padded (height+2hy, width+2hx) grid, so each tap is
                # a single slice of it.
                grid = inbuf.data[:size].astype(
                    np.float64, copy=False).reshape(height, width)
                padded = np.zeros((height + 2 * hy, width + 2 * hx))
                padded[hy:hy + height, hx:hx + width] = grid
                vals = [padded[hy + dy:hy + dy + height,
                               hx + dx:hx + dx + width]
                        for dy, dx in pairs]
                i = np.arange(size, dtype=np.int64).reshape(height, width)
                result = vcompute(*vals, i)
                if vfallback is not None:
                    alt = vfallback(*([grid] * len(pairs)), i)
                else:
                    alt = grid
                out.data[:size].reshape(height, width)[...] = np.where(
                    ok, result, alt)

            kernel = Kernel(f"{name}_tiled", body, regs_per_thread=20,
                            shared_spec=shared, vector_body=vector_body,
                            direct_body=direct_body)
            device.launch(kernel, tiles_x * tiles_y, threads,
                          {"in": inbuf, "out": out})
            return out
        return run

    def cuda_source(self) -> str:
        return f"""\
// {self.name}: super-tile stencil with halo staging
__global__ void {self.name}_tiled(const float* in, float* out,
                                  int width, int height,
                                  int tw, int th, int hx, int hy) {{
    extern __shared__ float tile[];
    int sw = tw + 2 * hx, sh = th + 2 * hy;
    int tiles_x = (width + tw - 1) / tw;
    int ty = blockIdx.x / tiles_x, tx = blockIdx.x % tiles_x;
    int x0 = tx * tw - hx, y0 = ty * th - hy;
    for (int s = threadIdx.x; s < sw * sh; s += blockDim.x) {{
        int gy = y0 + s / sw, gx = x0 + s % sw;
        tile[s] = (gy >= 0 && gy < height && gx >= 0 && gx < width)
                      ? in[gy * width + gx] : 0.0f;
    }}
    __syncthreads();
    for (int c = threadIdx.x; c < tw * th; c += blockDim.x) {{
        int cy = c / tw, cx = c % tw;
        int gy = ty * th + cy, gx = tx * tw + cx;
        if (gy < height && gx < width) {{
            /* compute from tile[(cy+hy+dy)*sw + (cx+hx+dx)] */
            out[gy * width + gx] = 0.0f;  /* generated per-pattern */
        }}
    }}
}}
"""
