"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures through the
drivers in :mod:`repro.experiments` and prints the same rows/series the
paper reports.  Run with::

    pytest benchmarks/ --benchmark-only -s

Suite benchmarks (``-m fusedexec``, ``-m multiaxis``, ``-m placement``)
additionally record their measured numbers through ``bench_record``,
and the session writes each suite's rows to ``BENCH_<suite>.json`` in
the working directory, so CI can archive the machine-readable series
next to the rendered tables.
"""

import json
import os

import pytest

#: Metrics recorded this session: ``{suite: {metric_name: {...numbers...}}}``.
_RECORDS = {}


def emit(result) -> None:
    """Print a figure table (visible with ``-s``; captured otherwise)."""
    print()
    print(result.render())


@pytest.fixture
def report():
    return emit


@pytest.fixture
def bench_record():
    """Record one metric row of a suite for ``BENCH_<suite>.json``."""
    def record(suite: str, name: str, **numbers) -> None:
        _RECORDS.setdefault(suite, {})[name] = numbers
    return record


def pytest_sessionfinish(session, exitstatus):
    for suite, records in _RECORDS.items():
        path = os.path.join(os.getcwd(), f"BENCH_{suite}.json")
        with open(path, "w") as handle:
            json.dump(records, handle, indent=2, sort_keys=True)
            handle.write("\n")
