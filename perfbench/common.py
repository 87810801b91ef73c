"""Shared helpers: checkout discovery, environment record, statistics.

Kept free of ``repro`` imports so the comparison tool and the self-tests
can load it without the program on the path.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Sequence

#: Directory holding the benchmark; its parent is the checkout root.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Where traces and per-run result files go (inside the checkout).
OUT_DIR = ROOT / ".perfbench"


def program_src() -> Path:
    """The checkout's ``src`` directory, or exit when it holds no program.

    The benchmark measures the code of the checkout it sits in and nothing
    else, so an installed or foreign ``repro`` must never be picked up.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program found at {src}/repro; "
                         f"run from the root of a repository checkout\n")
        raise SystemExit(2)
    return src


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class SequenceHash:
    """Digest of a request sequence: scalars plus input bytes, in order."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, tag: str, scalars: Dict, arrays: Iterable) -> None:
        self._h.update(repr((tag, sorted(scalars.items()))).encode())
        for array in arrays:
            self._h.update(array.tobytes())
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def reference_loop_ms() -> float:
    """Median time of a fixed numpy loop: this machine's speed, right now.

    Stored with every result so runs from different machines (or a
    throttled machine) are never compared silently.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    matrix = rng.standard_normal((256, 256))
    vec = rng.standard_normal(256)
    data = rng.standard_normal(1 << 14)
    times = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(50):
            (matrix @ vec).sum()
            np.sort(data)
            np.cumsum(data * 1.0001)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def environment(seed: int, exec_mode: str) -> Dict[str, object]:
    """Where and how a result was measured."""
    import numpy as np
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "exec_mode": exec_mode,
        "seed": seed,
        "reference_loop_ms": reference_loop_ms(),
    }


#: Environment keys that must agree before two result sets are compared.
COMPARABLE_ENV = ("cpu_count", "cpus_usable", "machine", "python", "numpy",
                  "exec_mode")
