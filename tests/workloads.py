"""Shared work-function sources and plan runners used across the test suite."""

import numpy as np

from repro.gpu import (Device, DeviceArray, MODE_REFERENCE, MODE_VECTORIZED,
                       TESLA_C2050)

# Work-function sources reused across tests.

SUM_SRC = """
def total(n):
    acc = 0.0
    for i in range(n):
        acc = acc + pop()
    push(acc)
"""

SDOT_SRC = """
def sdot(n):
    acc = 0.0
    for i in range(n):
        acc = acc + pop() * pop()
    push(acc)
"""

SNRM2_SRC = """
def snrm2(n):
    acc = 0.0
    for i in range(n):
        x = pop()
        acc = acc + x * x
    push(sqrt(acc))
"""

SASUM_SRC = """
def sasum(n):
    acc = 0.0
    for i in range(n):
        acc = acc + abs(pop())
    push(acc)
"""

ISAMAX_SRC = """
def isamax(n):
    best = -1.0
    besti = 0
    for i in range(n):
        x = abs(pop())
        if x > best:
            best = x
            besti = i
    push(besti)
"""

SCALE_SRC = """
def scale(n, a):
    for i in range(n):
        push(a * pop())
"""

SAXPY_SRC = """
def saxpy(n, a):
    for i in range(n):
        x = pop()
        y = pop()
        push(a * x + y)
"""

STENCIL5_SRC = """
def stencil5(size, width):
    for index in range(size):
        if (index % width >= 1) and (index % width < width - 1) \
                and (index >= width) and (index < size - width):
            push(0.25 * (peek(index - width) + peek(index + width)
                         + peek(index - 1) + peek(index + 1)))
        else:
            push(peek(index))
    for j in range(size):
        _ = pop()
"""

MIN_SRC = """
def vmin(n):
    acc = 1e300
    for i in range(n):
        acc = min(acc, pop())
    push(acc)
"""

MAX2_SRC = """
def vmax(n):
    acc = -1e300
    for i in range(n):
        acc = max(acc, pop() * pop())
    push(acc)
"""

BLUR3_SRC = """
def blur3(size, width):
    for index in range(size):
        push(0.5 * peek(index) + 0.25 * (peek(index - 1) + peek(index + 1)))
    for j in range(size):
        _ = pop()
"""

# Guarded stencil whose fallback is an expression of the center, not the
# center itself.
CROSS_SRC = """
def cross(size, width):
    for index in range(size):
        if (index % width >= 1) and (index % width < width - 1) \
                and (index >= width) and (index < size - width):
            push(peek(index - width) - peek(index + width)
                 + 2.0 * peek(index - 1) * peek(index + 1))
        else:
            push(0.5 * peek(index) - 1.0)
    for j in range(size):
        _ = pop()
"""

# The guard admits index 0, whose left tap wraps to the last element.
LOOSE_SRC = """
def loose(size, width):
    for index in range(size):
        if index < size - 1:
            push(peek(index - 1) + 2.0 * peek(index + 1))
        else:
            push(peek(index))
    for j in range(size):
        _ = pop()
"""


def special_rows(rng, rows, width):
    """Tie-heavy rows with IEEE corner cases, flattened row-major.

    Row ``r`` cycles through seven kinds: all ``-0.0``; a random mix of
    ``-0.0`` and ``+0.0``; values rounded to one decimal (ties for
    arg-reductions); the same with one NaN; with one ``+inf`` and one
    ``-inf``; all positive; and alternating signs (so products of
    adjacent pairs are all negative).  Lanes that wrongly fold a padded
    ``0.0`` or reorder a tie change the result on some of these rows.
    """
    x = np.round(rng.standard_normal((rows, width)), 1)
    for r in range(rows if width else 0):
        kind = r % 7
        if kind == 0:
            x[r] = -0.0
        elif kind == 1:
            x[r] = np.where(rng.random(width) < 0.5, -0.0, 0.0)
        elif kind == 3:
            x[r, rng.integers(width)] = np.nan
        elif kind == 4:
            x[r, rng.integers(width)] = np.inf
            x[r, rng.integers(width)] = -np.inf
        elif kind == 5:
            x[r] = np.abs(x[r]) + 0.5
        elif kind == 6:
            x[r] = (np.abs(x[r]) + 0.5) * np.where(np.arange(width) % 2,
                                                   -1.0, 1.0)
    return x.reshape(-1)


def run_plan(plan, data, params, mode, spec=TESLA_C2050):
    """Run one plan untraced under ``mode``; returns (output, device)."""
    DeviceArray.reset_base_allocator()
    device = Device(spec, exec_mode=mode)
    staged = plan.restructure_input(np.asarray(data), params)
    buf = device.to_device(staged, "in")
    out = plan.execute(device, {"in": buf}, params)
    return out.data.copy(), device


def assert_direct(plan, data, params):
    """Untraced vectorized run vs the REFERENCE oracle, bit for bit.

    Every launch must take the kernel's ``direct_body``: the lowered
    families never fall back to the per-warp emulation when untraced.
    """
    ref, _ = run_plan(plan, data, params, MODE_REFERENCE)
    got, device = run_plan(plan, data, params, MODE_VECTORIZED)
    ex = device.executor
    assert ex.direct_launches == device.launch_count \
        == len(plan.launches(params))
    assert ex.reference_launches == ex.vector_fallbacks == 0
    assert ref.dtype == got.dtype
    assert ref.tobytes() == got.tobytes(), (
        "outputs differ at "
        f"{np.nonzero(ref.view(np.int64) != got.view(np.int64))[0][:8]}")
    return ref
