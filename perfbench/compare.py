#!/usr/bin/env python3
"""Parent-vs-change comparison of two sets of benchmark results.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py`` writes to
``.perfbench/results/`` (one per workload, seed and trace flag); copy
them aside after running each commit with identical settings.  For
every workload and end-to-end metric the verdict is one of:

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``win`` — the change reads better in at least nine tenths of the
  seed-paired runs *and* the medians differ by more than the parent's
  own inter-quartile distance;
* ``unresolved`` — the parent's spread is wider than the bound, so
  "no change" cannot be claimed;
* ``no change`` — otherwise.

Failures guard every verdict.  Each workload also gets a ``fail_share``
row (``failed / attempted`` over its paired runs): it is a
``regression`` when the change fails a larger share of its requests
than the parent, or when any of the change's results is not correct.
A workload with such a row has no ``win``: those verdicts read
``unresolved``, because a gain does not count when more requests fail.

Results measured on different machines or toolchains are refused
(exit 2) unless ``--allow-env-mismatch`` is given, and then every
difference is printed.  A different host speed (the environment's
reference loop) is printed but not refused, because every time is
scaled to a nominal host speed.  Exit 1 when any regression is found.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from common import COMPARABLE_ENV, ROOT

#: Machine-speed drift (reference loop medians) tolerated between sides.
SPEED_TOLERANCE = 0.25


@dataclasses.dataclass
class Row:
    workload: str
    metric: str
    unit: str
    parent_median: float
    change_median: float
    parent_spread: float
    worse_by: float
    wins: float
    verdict: str


def load(directory) -> List[dict]:
    """The timed (untraced) results in ``directory``."""
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            result = json.load(fh)
        if "self_ms" not in result["report"]:
            results.append(result)
    return results


def env_differences(parent: List[dict], change: List[dict]) -> List[str]:
    """Every way the two sides' machines or toolchains differ."""
    notes = []
    for key in COMPARABLE_ENV:
        values = {repr(r["environment"].get(key)) for r in parent + change}
        if len(values) > 1:
            notes.append(f"{key} differs: {sorted(values)}")
    return notes


def speed_note(parent: List[dict], change: List[dict]) -> str:
    """A note when the host ran at another speed for one side, else ''.

    Times are scaled to a nominal host speed, so this is reported, not
    refused; a large gap still says the two sides saw different hosts.
    """
    speeds = [statistics.median(r["environment"]["reference_loop_ms"]
                                for r in side) for side in (parent, change)]
    if abs(speeds[1] - speeds[0]) > SPEED_TOLERANCE * speeds[0]:
        return (f"reference loop {speeds[0]:.3g} ms vs {speeds[1]:.3g} ms: "
                f"machine speed differs")
    return ""


def _by_workload(results: List[dict]) -> Dict[str, Dict[int, dict]]:
    out: Dict[str, Dict[int, dict]] = {}
    for result in results:
        out.setdefault(result["report"]["workload"], {})[
            result["environment"]["seed"]] = result
    return out


def fail_row(workload: str, parent: List[dict], change: List[dict]) -> Row:
    """``failed / attempted`` of each side; worse or incorrect: regression."""
    shares = [sum(r["failed"] for r in side) / sum(r["attempted"]
                                                    for r in side)
              for side in (parent, change)]
    worse = shares[1] > shares[0] or not all(r["correct"] for r in change)
    return Row(workload, "fail_share", "share", shares[0], shares[1], 0.0,
               shares[1] - shares[0], 0.0,
               "regression" if worse else "no change")


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> tuple:
    """(worse_by, win share, parent spread, verdict) for paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    q1, p_med, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                     else (parent[0],) * 3)
    c_med = statistics.median(change)
    worse_by = sign * (c_med - p_med) / p_med
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs) / len(pairs)
    spread = (q3 - q1) / p_med
    if worse_by > bound:
        label = "regression"
    elif wins >= 0.9 and abs(c_med - p_med) > q3 - q1:
        label = "win"
    elif spread > bound:
        label = "unresolved"
    else:
        label = "no change"
    return worse_by, wins, spread, label


def compare(parent: List[dict], change: List[dict], spec: dict) -> List[Row]:
    rows = []
    parents, changes = _by_workload(parent), _by_workload(change)
    for workload in sorted(parents):
        seeds = sorted(set(parents[workload]) & set(changes.get(workload, {})))
        if not seeds:
            continue
        failing = fail_row(workload, [parents[workload][s] for s in seeds],
                           [changes[workload][s] for s in seeds])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parents[workload][s]["metrics"][name]["value"]
                 for s in seeds]
            c = [changes[workload][s]["metrics"][name]["value"]
                 for s in seeds]
            worse_by, wins, spread, label = verdict(
                p, c, metric["better"], metric["bound"])
            if label == "win" and failing.verdict == "regression":
                label = "unresolved"
            rows.append(Row(workload, name, metric["unit"],
                            statistics.median(p), statistics.median(c),
                            spread, worse_by, wins, label))
        rows.append(failing)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--allow-env-mismatch", action="store_true")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    notes = env_differences(parent, change)
    for note in notes + [speed_note(parent, change)]:
        if note:
            print(f"environment: {note}")
    if notes and not args.allow_env_mismatch:
        print("refusing to compare results from different environments")
        return 2
    rows = compare(parent, change, spec)
    for row in rows:
        print(f"{row.workload:16s} {row.metric:18s} "
              f"{row.parent_median:12.5g} -> {row.change_median:12.5g} "
              f"{row.unit:6s} worse {row.worse_by:+7.2%} "
              f"spread {row.parent_spread:6.2%} wins {row.wins:4.0%}  "
              f"{row.verdict}")
    return 1 if any(r.verdict == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
