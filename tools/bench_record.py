#!/usr/bin/env python3
"""Append bench --json results to a perf-trajectory file.

The benches emit a JSON array of result rows (``--json`` to stdout,
``--json=<path>`` to a file). This script wraps one such array together
with the bench name, the git revision, and a UTC timestamp, and appends
the entry to a trajectory file (default ``BENCH_solver.json``) that is
checked in — so solver speedups are tracked across PRs instead of being
re-measured from scratch whenever someone asks "did we regress?".

Usage:
    ./build/bench/bench_fig19_opttime --row=4xconsolidation --json | \
        tools/bench_record.py --bench bench_fig19_opttime
    tools/bench_record.py --bench bench_micro --input micro.json \
        --note "after trilinear kernel specialization"

The trajectory file is a JSON array of entries:
    {"bench": ..., "recorded_utc": ..., "git_rev": ...,
     "note": ...,  # optional
     "rows": [...]}  # the bench's rows, verbatim

With ``--compare-last``, after appending the script also diffs the new
rows against the previous recorded entry of the same bench: rows are
matched by their ``row`` (or ``name``) field, or for bench_fig19_opttime
rows by workload, N and M, and every shared numeric field is reported as
a relative delta, so a row's timings and quality numbers can be tracked
across PRs. Timings only print. The solver's effort counters and the
simulated request count and the bytes a failure re-plan moves in
``EXACT_FIELDS`` are deterministic for a given build, so a matched row whose
value differs from the previous entry fails the comparison: the script
exits 1.

``git_rev`` is ``git describe --always --dirty``: an entry recorded from
uncommitted changes reads ``<parent rev>-dirty``.

Only the Python standard library is used.
"""

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Counters gated exactly by --compare-last. The solver is bit-identical
# for every thread count and the simulator is deterministic, so on one
# build these only move when the solver's arithmetic or schedule, the
# trace fit, the simulation, or the failure re-plan's placement changes.
EXACT_FIELDS = ("gradient_evaluations", "analytic_iterations",
                "simulated_requests", "moved_bytes")


def git_rev():
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def extract_rows(text):
    """Parses the bench's JSON row array, tolerating the human-readable
    table the benches print before it when --json targets stdout (the
    table itself contains brackets — [ok], [MISMATCH] — so only
    line-initial '[' positions are candidate array starts)."""
    pos = 0
    candidates = []
    for line in text.splitlines(keepends=True):
        if line.lstrip().startswith(("[", "{")):
            stripped = line.lstrip()
            candidates.append(pos + len(line) - len(stripped))
        pos += len(line)
    for start in reversed(candidates):
        try:
            rows = json.loads(text[start:])
        except json.JSONDecodeError:
            continue
        if isinstance(rows, list):
            return rows
        # Google Benchmark --benchmark_format=json (bench_micro): an
        # object whose "benchmarks" array holds the per-kernel rows.
        if isinstance(rows, dict) and isinstance(rows.get("benchmarks"),
                                                 list):
            return rows["benchmarks"]
    raise ValueError("no JSON array found in input")


def row_key(row):
    key = row.get("row") or row.get("name")
    if key is None and "workload" in row:
        key = f"{row['workload']}/n{row.get('n')}/m{row.get('m')}"
    return key


def number(value):
    """Integers in full (a one-byte change must show), floats short."""
    return str(value) if isinstance(value, int) else f"{value:g}"


def compare_entries(prev_rows, rows):
    """Relative deltas of every shared numeric field between two row sets
    matched by key. Returns (printable lines, EXACT_FIELDS mismatches)."""
    prev_by_key = {row_key(r): r for r in prev_rows if row_key(r)}
    lines = []
    mismatches = []
    for row in rows:
        key = row_key(row)
        prev = prev_by_key.get(key)
        if prev is None:
            lines.append(f"  {key}: new row")
            continue
        deltas = []
        for field, value in row.items():
            old = prev.get(field)
            if (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and isinstance(old, (int, float))
                    and not isinstance(old, bool)):
                if old == value:
                    continue
                rel = (value - old) / abs(old) if old else float("inf")
                change = f"{field} {number(old)} -> {number(value)}"
                deltas.append(f"{change} ({rel:+.1%})")
                if field in EXACT_FIELDS:
                    mismatches.append(f"{key}: {change}")
        lines.append(f"  {key}: " + ("; ".join(deltas) if deltas
                                     else "unchanged"))
    return lines, mismatches


def main():
    parser = argparse.ArgumentParser(
        description="append bench --json output to a perf-trajectory file")
    parser.add_argument("--bench", required=True,
                        help="bench name, e.g. bench_fig19_opttime")
    parser.add_argument("--input", default="-",
                        help="bench JSON output (default: stdin)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_solver.json"),
                        help="trajectory file to append to")
    parser.add_argument("--note", default=None,
                        help="optional free-form context for this entry")
    parser.add_argument("--compare-last", action="store_true",
                        help="after appending, diff against the previous "
                             "entry of the same bench (rows matched by "
                             "'row'/'name'); exit 1 if a matched row's "
                             + "/".join(EXACT_FIELDS) + " differs")
    args = parser.parse_args()

    text = (sys.stdin.read() if args.input == "-"
            else Path(args.input).read_text())
    rows = extract_rows(text)

    out_path = Path(args.out)
    trajectory = []
    if out_path.exists():
        trajectory = json.loads(out_path.read_text())
        if not isinstance(trajectory, list):
            raise SystemExit(f"{out_path} is not a JSON array")

    entry = {
        "bench": args.bench,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_rev": git_rev(),
        "rows": rows,
    }
    if args.note:
        entry["note"] = args.note
    previous = [e for e in trajectory if e.get("bench") == args.bench]
    trajectory.append(entry)
    out_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"recorded {len(rows)} row(s) from {args.bench} -> {out_path}")
    if args.compare_last:
        if not previous:
            print("no previous entry to compare against")
            return 0
        print(f"vs previous entry ({previous[-1]['git_rev']}, "
              f"{previous[-1]['recorded_utc']}):")
        lines, mismatches = compare_entries(previous[-1]["rows"], rows)
        for line in lines:
            print(line)
        if mismatches:
            print("FAILED: exact counters changed:", file=sys.stderr)
            for m in mismatches:
                print(f"  {m}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
