#!/usr/bin/env python3
"""tools/bench_record.py --compare-last must fail (exit 1) when a matched
row's exact counters (solver effort, simulated requests, re-planned bytes)
change, and only print timing deltas.

    python3 tests/bench_record_gate_test.py <path to tools/bench_record.py>
"""

import json
import os
import subprocess
import sys
import tempfile


def fig19_row(**changes):
    row = {"workload": "4xconsolidation", "n": 160, "m": 10, "threads": 4,
           "analytic_solver_seconds": 1.5, "gradient_evaluations": 40000,
           "analytic_iterations": 700, "interp_queries": 9000000,
           "analytic_max_utilization": 0.81}
    row.update(changes)
    return row


def fig15_row(**changes):
    row = {"workload": "consolidation-olap1-21", "see_seconds": 60.0,
           "optimized_seconds": 48.0, "advisor_seconds": 0.02,
           "simulated_requests": 131000}
    row.update(changes)
    return row


def failover_row(**changes):
    row = {"row": "disk_loss/replan", "scenario": "disk_loss",
           "config": "replan", "elapsed_s": 30.0, "migration_mb": 512.0,
           "moved_bytes": 536870912}
    row.update(changes)
    return row


def micro_row(**changes):
    row = {"name": "BM_SimplexProjection/10", "real_time": 300.0,
           "cpu_time": 299.0, "iterations": 1000}
    row.update(changes)
    return row


def record(script, out, bench, rows):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(rows, f)
        path = f.name
    try:
        proc = subprocess.run(
            [sys.executable, script, "--bench", bench, "--input", path,
             "--out", out, "--compare-last"],
            capture_output=True, text=True)
    finally:
        os.unlink(path)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    script = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "trajectory.json")
        cases = [
            # (bench, rows, expected exit code, what)
            ("bench_fig19_opttime", [fig19_row()], 0, "first entry"),
            ("bench_fig19_opttime",
             [fig19_row(analytic_solver_seconds=2.5, interp_queries=1)], 0,
             "timing and interp_queries moved"),
            ("bench_fig19_opttime", [fig19_row(gradient_evaluations=40001)],
             1, "gradient_evaluations moved"),
            ("bench_fig19_opttime",
             [fig19_row(gradient_evaluations=40001, analytic_iterations=650)],
             1, "analytic_iterations moved"),
            ("bench_fig19_opttime", [fig19_row(m=20, gradient_evaluations=1)],
             0, "unmatched row"),
            ("bench_fig15_consolidation", [fig15_row()], 0,
             "fig15 first entry"),
            ("bench_fig15_consolidation",
             [fig15_row(see_seconds=61.0, advisor_seconds=0.05)], 0,
             "fig15 timings moved"),
            ("bench_fig15_consolidation",
             [fig15_row(simulated_requests=131001)], 1,
             "simulated_requests moved"),
            ("bench_failover", [failover_row()], 0, "failover first entry"),
            ("bench_failover", [failover_row(elapsed_s=31.0)], 0,
             "failover timing moved"),
            ("bench_failover", [failover_row(moved_bytes=536870913)], 1,
             "moved_bytes moved"),
            ("bench_micro", [micro_row()], 0, "other bench, first entry"),
            ("bench_micro", [micro_row(real_time=900.0)], 0,
             "micro timing moved"),
        ]
        for bench, rows, want, what in cases:
            rc, output = record(script, out, bench, rows)
            if rc != want:
                failures.append(f"{what}: exit {rc}, want {want}\n{output}")
        with open(out) as f:
            if len(json.load(f)) != len(cases):
                failures.append("not every run appended its entry")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
