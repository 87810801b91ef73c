"""Self-tests of the benchmark: determinism, comparison, failure paths.

    python3 -m pytest perfbench -q

Short counted runs (a few dozen requests) keep this suite to about a
minute; they exercise the same code paths as full runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
from common import ROOT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CLOSED = ("warm-kernels", "shape-churn", "feedback-writes")
#: Per-layer counts a counted run must repeat exactly.
EXACT = ("exprgen.compiles", "runtime.select_calls",
         "runtime.table_hit_share", "calibration.observations",
         "calibration.probes", "calibration.mispredicts",
         "calibration.patches", "calibration.rebakes",
         "calibration.subtree_resweeps", "calibration.accuracy")


def bench(*args, cwd=ROOT):
    """Run the benchmark command; returns (exit code, report, result)."""
    cmd = [sys.executable, str(BENCH / "run.py"), *map(str, args)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        return done.returncode, None, None
    return (done.returncode, json.loads(lines[-2]).get("report"),
            json.loads(lines[-1]))


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


# -- determinism ------------------------------------------------------------
#: Counted-run length per workload; feedback-writes crosses into a
#: second episode (a fresh set-up) so its counters span two programs.
COUNTED = {"warm-kernels": 40, "shape-churn": 40, "feedback-writes": 230}


@pytest.mark.parametrize("workload", CLOSED)
def test_same_seed_repeats_sequence_and_counters(workload):
    runs = [bench("--workload", workload, "--seed", 7, "--trace", 1,
                  "--requests", COUNTED[workload]) for _ in range(2)]
    (code_a, rep_a, res_a), (code_b, rep_b, res_b) = runs
    assert code_a == code_b == 0
    assert res_a["correct"] and res_b["correct"]
    assert rep_a["sequence_hash"] == rep_b["sequence_hash"]
    a, b = values(res_a), values(res_b)
    for name in EXACT:
        assert a[name] == b[name], name


@pytest.mark.parametrize("workload", CLOSED)
def test_device_ms_repeats_exactly_on_closed_loops(workload):
    runs = [bench("--workload", workload, "--seed", 3, "--trace", 0,
                  "--requests", 30) for _ in range(2)]
    assert values(runs[0][2])["device_ms_per_req"] \
        == values(runs[1][2])["device_ms_per_req"]
    assert runs[0][1]["sequence_hash"] == runs[1][1]["sequence_hash"]


def test_other_seed_other_sequence():
    hashes = {bench("--workload", "serve-burst", "--seed", seed,
                    "--requests", 60)[1]["sequence_hash"]
              for seed in (1, 2)}
    assert len(hashes) == 2


def test_result_line_matches_contract():
    code, report, result = bench("--workload", "serve-burst", "--seed", 1,
                                 "--requests", 60)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert report["latency_samples"] == result["attempted"] - \
        result["failed"]


# -- failure paths ----------------------------------------------------------
def test_checkout_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload",
           "warm-kernels", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_wrong_output_counts_as_failure():
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from workloads import WarmKernels

    class Corrupted(WarmKernels):
        def execute(self, request):
            result = super().execute(request)
            result.output = np.asarray(result.output) + 1.0
            return result

    workload = Corrupted(seed=5)
    workload.prepare()
    workload.setup()
    outcome = harness.run_closed(workload, harness.Budget(seconds=0.0, requests=9))
    assert outcome.wrong == 9 and outcome.failed == 9


def test_feedback_counters_span_every_episode():
    # 230 requests: the first program serves 200, a fresh one 30.
    *_, result = bench("--workload", "feedback-writes", "--seed", 7,
                       "--trace", 1, "--requests", 230)
    assert values(result)["runtime.select_calls"] == 230


# -- the clock --------------------------------------------------------------
def test_slower_probe_scales_times_down():
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    probe = harness.SpeedProbe()
    nominal = probe.NOMINAL_S
    probe.samples = [nominal] * 20 + [2 * nominal] * 20
    outcome = harness.Outcome(cpu_latencies=[0.004, 0.004])
    outcome.scale(probe, [0, 39])
    assert outcome.latencies == pytest.approx([0.004, 0.002])


# -- comparison -------------------------------------------------------------
def fake_results(medians, noise, seeds, rng, failed=0):
    """Result payloads as run.py writes them, values = median * noise."""
    out = []
    for seed in seeds:
        metrics = {name: {"value": value * (1 + rng.normal(0, noise)),
                          "unit": "x"} for name, value in medians.items()}
        out.append({"environment": {"seed": seed, "cpu_count": 2,
                                    "cpus_usable": 2, "machine": "x86_64",
                                    "python": "3", "numpy": "2",
                                    "exec_mode": "vectorized",
                                    "reference_loop_ms": 10.0},
                    "report": {"workload": "w"}, "metrics": metrics,
                    "correct": True, "attempted": 1000, "failed": failed})
    return out


MEDIANS = {m["name"]: 10.0 for m in SPEC["end_to_end"]}


def test_aa_pair_reports_no_change_and_no_win():
    rng = np.random.default_rng(0)
    for trial in range(20):
        parent = fake_results(MEDIANS, 0.01, range(10), rng)
        change = fake_results(MEDIANS, 0.01, range(10), rng)
        verdicts = {row.verdict for row in
                    compare.compare(parent, change, SPEC)}
        assert verdicts == {"no change"}, trial


def test_identical_pair_reports_no_change():
    parent = fake_results(MEDIANS, 0.02, range(10),
                          np.random.default_rng(1))
    rows = compare.compare(parent, parent, SPEC)
    assert {row.verdict for row in rows} == {"no change"}


def test_synthetic_regression_is_flagged():
    rng = np.random.default_rng(2)
    parent = fake_results(MEDIANS, 0.01, range(10), rng)
    change = fake_results(MEDIANS, 0.01, range(10), rng)
    metric = SPEC["end_to_end"][1]
    worse = 1 + 2 * metric["bound"]
    for result in change:
        value = result["metrics"][metric["name"]]
        value["value"] *= worse if metric["better"] == "lower" else 1 / worse
    rows = {row.metric: row.verdict
            for row in compare.compare(parent, change, SPEC)}
    assert rows[metric["name"]] == "regression"
    assert list(rows.values()).count("regression") == 1


def test_clear_gain_is_a_win():
    rng = np.random.default_rng(3)
    parent = fake_results(MEDIANS, 0.01, range(10), rng)
    change = fake_results({k: 5.0 for k in MEDIANS}, 0.01, range(10), rng)
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    for row in compare.compare(parent, change, SPEC):
        expected = ("no change" if row.metric == "fail_share" else
                    "win" if better[row.metric] == "lower" else "regression")
        assert row.verdict == expected, row


def test_environment_mismatch_is_never_silent():
    rng = np.random.default_rng(4)
    parent = fake_results(MEDIANS, 0.01, range(3), rng)
    change = fake_results(MEDIANS, 0.01, range(3), rng)
    change[0]["environment"]["cpu_count"] = 8
    for result in change:
        result["environment"]["reference_loop_ms"] = 20.0
    notes = compare.env_differences(parent, change)
    assert any("cpu_count" in n for n in notes)
    assert "machine speed" in compare.speed_note(parent, change)


def test_more_failures_are_never_a_win():
    rng = np.random.default_rng(5)
    parent = fake_results(MEDIANS, 0.01, range(10), rng)
    change = fake_results({k: 5.0 for k in MEDIANS}, 0.01, range(10), rng,
                          failed=30)
    rows = compare.compare(parent, change, SPEC)
    assert "win" not in {row.verdict for row in rows}
    assert [row.verdict for row in rows if row.metric == "fail_share"] \
        == ["regression"]


def test_incorrect_change_is_a_regression():
    rng = np.random.default_rng(6)
    parent = fake_results(MEDIANS, 0.01, range(10), rng)
    change = fake_results(MEDIANS, 0.01, range(10), rng)
    change[4]["correct"] = False
    rows = {row.metric: row.verdict
            for row in compare.compare(parent, change, SPEC)}
    assert rows["fail_share"] == "regression"
