#!/usr/bin/env python3
"""Repository benchmark: four seeded input-portability workloads.

Run from the root of a checkout::

    python3 perfbench/run.py                          # all workloads, table
    python3 perfbench/run.py --workload shape-churn --seed 3 --seconds 20
    python3 perfbench/run.py --workload warm-kernels --trace 1

``--trace 0`` measures the end-to-end metrics over a timed window with
tracing off.  ``--trace 1`` is the traced run: a fixed number of
requests with spans around the program's public entry points, reporting
the per-layer metrics, plus the same requests untraced in a fresh
process for the tracing overhead.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Any output
that differs from the numpy reference or the REFERENCE oracle makes the
command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# At most two threads per workload: no BLAS pool on top of the server's
# dispatch thread.  Set before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from common import OUT_DIR, ROOT, environment, percentile, program_src  # noqa: E402

sys.path.insert(0, str(program_src()))

#: Full set-ups a timed run makes; ``setup_s`` is their median.
SETUP_REPEATS = 9


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.stderr.write(f"perfbench: {path} is missing\n")
        raise SystemExit(2)
    with open(path) as fh:
        return json.load(fh)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="make exactly this many requests (counted run: "
                             "one set-up, no result file)")
    return parser.parse_args(argv)


def _measure(args, tracer=None):
    """Set up, measure, check; returns (workload, outcome, setup_s, mark)."""
    from repro import api
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()
    if tracer is not None:
        tracer.install(api)
        if workload.observer_class is not None:
            tracer.wrap(workload.observer_class, "__call__", "bench.observer")
    # A counted run (every traced run is one) sets up once.
    setup_s = harness.timed_setup(
        workload, 1 if args.requests is not None else SETUP_REPEATS)
    mark = time.perf_counter()
    budget = harness.Budget(seconds=args.seconds, requests=args.requests)
    accuracy = tracer is not None
    if workload.via_server:
        outcome = harness.run_bursts(workload, budget, tracer, accuracy)
        setup_s += outcome.serve["start_s"]
    else:
        outcome = harness.run_closed(workload, budget, tracer, accuracy)
    if tracer is not None:
        tracer.uninstall()
    harness.oracle_check(workload, outcome)
    return workload, outcome, setup_s, mark


def end_to_end(outcome, setup_s) -> dict:
    lat = outcome.latencies
    return {
        "setup_s": setup_s,
        "req_per_s": outcome.rate(),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p99_ms": percentile(lat, 99) * 1e3,
        "device_ms_per_req": (statistics.fmean(outcome.device_ms)
                              if outcome.device_ms else 0.0),
        "peak_rss_mb": outcome.rss_mb,
    }


def per_layer(workload, outcome, tracer, mark, untraced_rps) -> tuple:
    """Per-layer metrics of a traced run, plus its self-time table."""
    from harness import NEXT_SPAN
    from tracing import SpanView

    setup = SpanView(tracer, until=mark)
    view = SpanView(tracer, since=mark, exclude=NEXT_SPAN)
    stats = outcome.stats
    programs = workload.programs.values()
    traced_rps = outcome.rate()
    serve = outcome.serve
    busy = sum(s.seconds for s in view.spans
               if s.parent is None and s.thread.startswith("repro-serve"))
    selects = view.durations("runtime.select")
    metrics = {
        "adaptic.compile_ms": setup.total_ms("adaptic.compile"),
        "adaptic.variants": sum(p.variant_count() for p in programs),
        "breakeven.bake_ms": setup.total_ms("breakeven.bake"),
        "breakeven.tables": workload.tables,
        "breakeven.bake_evals": outcome.setup_compile_evals,
        "runtime.select_calls": len(selects),
        "runtime.select_us_p50": percentile(selects, 50) * 1e6,
        "runtime.select_ms": sum(selects) * 1e3,
        "runtime.table_hit_share": (stats.table_hits / outcome.decisions
                                    if outcome.decisions else 0.0),
        "runtime.runtime_evals": stats.runtime_evals,
        "exprgen.compiles": stats.expr_compiles,
        "exprgen.compile_ms": stats.compile_seconds * 1e3,
        "runtime.restructure_builds": stats.restructure_builds,
        "runtime.restructure_ms": view.total_ms("runtime.restructure"),
        "device.launches": view.count("device.launch"),
        "device.fused_launches": view.count("device.launch_fused_chain"),
        "device.kernel_ms": view.total_ms("device.launch",
                                          "device.launch_fused_chain"),
        "device.h2d_ms": view.total_ms("device.to_device"),
        "device.d2h_ms": view.total_ms("device.to_host"),
        "cpuplan.host_ms": view.total_ms("cpuplan.execute_host"),
        "runtime.unattributed_share": view.unattributed_share("runtime.run"),
        "calibration.observations": stats.feedback_observations,
        "calibration.probes": stats.probe_runs,
        "calibration.mispredicts": stats.mispredicts,
        "calibration.patches": stats.table_patches,
        "calibration.rebakes": stats.table_rebakes,
        "calibration.subtree_resweeps": stats.subtree_resweeps,
        "calibration.accuracy": (statistics.fmean(outcome.matches)
                                 if outcome.matches else 0.0),
        "calibration.write_ms": view.total_ms(
            "calibration.observe", "segments.patch_at",
            "breakeven.resweep_subtree"),
        "serve.queue_ms_p50": serve.get("queue_ms_p50", 0.0),
        "serve.queue_ms_p99": serve.get("queue_ms_p99", 0.0),
        "serve.batch_ms_p50": serve.get("batch_ms_p50", 0.0),
        "serve.mean_batch": serve.get("mean_batch", 0.0),
        "serve.fused_share": serve.get("fused_share", 0.0),
        "serve.rejections": serve.get("rejections", 0.0),
        "serve.dispatch_busy_share": (busy / outcome.wall_s
                                      if serve and outcome.wall_s
                                      else 0.0),
        "trace.req_per_s": traced_rps,
        "trace.untraced_req_per_s": untraced_rps,
        "trace.overhead_share": (1.0 - traced_rps / untraced_rps
                                 if untraced_rps else 0.0),
    }
    return metrics, {"setup": setup.self_ms(), "requests": view.self_ms()}


def with_units(metrics: dict, names: list) -> dict:
    """Attach units from BENCHMARK.json; every named metric must exist."""
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in names}


def _save(args, payload) -> None:
    path = OUT_DIR / "results" / (f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _report(args, workload, outcome, started) -> dict:
    return {
        "workload": args.workload,
        "kind": ("closed loop of bursts, one caller" if workload.via_server
                 else "closed loop, one caller"),
        "sequence_hash": outcome.sequence,
        "attempted": outcome.attempted,
        "latency_samples": outcome.completed,
        "errors": outcome.errors,
        "rejections": outcome.rejections,
        "wrong_outputs": outcome.wrong,
        "fail_share": outcome.failed / max(outcome.attempted, 1),
        "oracle_checked": outcome.oracle_checked,
        "oracle_mismatches": outcome.oracle_mismatches,
        "clock": "process CPU time scaled to nominal host speed",
        "window_s": outcome.window_s,
        "unscaled": {"cpu_req_per_s": (outcome.completed / outcome.cpu_s
                                       if outcome.cpu_s else 0.0),
                     "wall_req_per_s": (outcome.completed / outcome.wall_s
                                        if outcome.wall_s else 0.0),
                     "cpu_latency_p50_ms": percentile(
                         outcome.cpu_latencies, 50) * 1e3},
        "probe_unit_ms": outcome.unit_ms,
        "device_ms_prefix": len(outcome.device_ms),
        "wall_s": time.perf_counter() - started,
    }


def run_one(args, spec) -> int:
    """One workload in this process; prints the report and result lines."""
    started = time.perf_counter()
    env = environment(args.seed, "vectorized")
    save = args.requests is None
    if args.trace:
        from tracing import Tracer
        if args.requests is None:
            from workloads import WORKLOADS
            args.requests = WORKLOADS[args.workload].trace_requests
        untraced_rps = _untraced_rps(args)
        tracer = Tracer()
        workload, outcome, _setup_s, mark = _measure(args, tracer)
        raw, self_ms = per_layer(workload, outcome, tracer, mark,
                                 untraced_rps)
        metrics = with_units(raw, spec["per_layer"])
        trace_path = OUT_DIR / "trace" / (f"{args.workload}-seed"
                                          f"{args.seed}.jsonl")
        tracer.write_jsonl(trace_path)
        extra = {"self_ms": self_ms, "spans": len(tracer.spans),
                 "trace_file": str(trace_path.relative_to(ROOT))}
    else:
        workload, outcome, setup_s, _mark = _measure(args)
        metrics = with_units(end_to_end(outcome, setup_s),
                             spec["end_to_end"])
        extra = {}
    report = {**_report(args, workload, outcome, started), **extra}
    correct = outcome.wrong == 0
    if save:
        _save(args, {"environment": env, "report": report,
                     "metrics": metrics, "correct": correct,
                     "attempted": outcome.attempted,
                     "failed": outcome.failed})
    print(json.dumps({"environment": env, "report": report}))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def _untraced_rps(args) -> float:
    """The traced run's requests, untraced, in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "0", "--requests", str(args.requests)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=str(ROOT))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("perfbench: untraced reference pass failed")
    last = done.stdout.strip().splitlines()[-1]
    return json.loads(last)["metrics"]["req_per_s"]["value"]


def run_all(args, spec) -> int:
    """Every workload, each in its own process; prints one table."""
    rows, correct, attempted, failed, merged = [], True, 0, 0, {}
    for entry in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", entry["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.requests is not None:
            cmd += ["--requests", str(args.requests)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=str(ROOT))
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: {entry['name']} failed")
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            merged[f"{entry['name']}.{name}"] = metric
            rows.append((entry["name"], name, metric["value"],
                         metric["unit"]))
        rows.append((entry["name"], "outputs",
                     "ok" if result["correct"] else "WRONG",
                     f"{report['fail_share']:.4f} fail share, "
                     f"{report['latency_samples']} samples, "
                     f"seq {report['sequence_hash']}"))
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:16s} {name:{width}s} {shown:>14s} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload == "all":
        return run_all(args, spec)
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"expected one of {known}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
