#!/usr/bin/env python3
"""Perf regression gate over BENCH_batch.json records.

Compares a freshly measured batch-throughput matrix against the committed
baseline (bench/baselines/BENCH_batch.json) cell by cell, where a cell is
one (workload, schedule, threads) combination and the metric is
inst_per_s. The gate fails (exit 1) when any cell's fresh throughput
drops more than --threshold (default 15%) below the baseline.

Both inputs may be a bare JSON record or a full bench log; the first line
containing `"bench":"batch_throughput"` is used. Cells present on only
one side are reported but never fail the gate (CI machines differ in
core count, so e.g. a threads=ncpu row may not match). The gate fails
closed otherwise: a (workload, schedule) pair that vanished entirely
means the matrix was renamed or reshaped, and zero matching cells means
nothing was compared; both exit 1.

Usage:
  scripts/compare_bench.py BASELINE FRESH [--threshold 0.15]
  scripts/compare_bench.py --update FRESH   # rewrite the baseline in place

Override: pushes whose head commit message contains [perf-override] skip
the gate in CI (see .github/workflows/ci.yml and CONTRIBUTING.md) — use
it for commits that knowingly trade batch throughput for something else.
"""

import argparse
import json
import pathlib
import sys

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "bench/baselines/BENCH_batch.json"
)
RECORD_MARK = '"bench":"batch_throughput"'


def load_record(path):
    """Returns the parsed batch_throughput record found in `path`."""
    text = pathlib.Path(path).read_text()
    for line in text.splitlines():
        if RECORD_MARK in line:
            return json.loads(line[line.index("{"):])
    raise SystemExit(f"{path}: no {RECORD_MARK} record found")


def cell_key(row):
    return (row["workload"], row["schedule"], int(row["threads"]))


def cells_of(record):
    cells = {}
    for row in record.get("rows", []):
        cells[cell_key(row)] = float(row["inst_per_s"])
    return cells


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline (or FRESH with --update)")
    parser.add_argument("fresh", nargs="?", help="freshly measured record")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated relative drop per cell (default 0.15)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite bench/baselines/BENCH_batch.json from the record")
    args = parser.parse_args()

    if args.update:
        record = load_record(args.baseline)
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(record, separators=(",", ":")) + "\n")
        print(f"baseline updated: {BASELINE_PATH} ({len(record['rows'])} cells)")
        return 0

    if args.fresh is None:
        parser.error("FRESH is required unless --update is given")
    base = cells_of(load_record(args.baseline))
    fresh = cells_of(load_record(args.fresh))

    regressions = []
    matched = 0
    print(f"{'cell':<40} {'baseline':>12} {'fresh':>12} {'ratio':>7}")
    for key in sorted(base):
        name = f"{key[0]}/{key[1]}/t{key[2]}"
        if key not in fresh:
            print(f"{name:<40} {base[key]:>12.0f} {'missing':>12} {'-':>7}")
            continue
        matched += 1
        ratio = fresh[key] / base[key] if base[key] > 0 else float("inf")
        flag = ""
        if ratio < 1.0 - args.threshold:
            regressions.append((name, ratio))
            flag = "  << REGRESSION"
        print(f"{name:<40} {base[key]:>12.0f} {fresh[key]:>12.0f} "
              f"{ratio:>7.3f}{flag}")
    for key in sorted(set(fresh) - set(base)):
        name = f"{key[0]}/{key[1]}/t{key[2]}"
        print(f"{name:<40} {'missing':>12} {fresh[key]:>12.0f} {'-':>7}  (new cell)")

    # Only the threads dimension legitimately differs across machines
    # (core counts); a (workload, schedule) pair that vanished entirely
    # means the matrix was renamed/reshaped, and tolerating it would
    # silently disarm the gate for those cells forever. Refresh the
    # baseline deliberately instead.
    missing_pairs = sorted({(w, s) for (w, s, _) in base} -
                           {(w, s) for (w, s, _) in fresh})
    if missing_pairs or matched == 0:
        what = (", ".join(f"{w}/{s}" for w, s in missing_pairs)
                if missing_pairs else "every cell")
        print(f"\nFAIL: baseline (workload, schedule) pairs absent from "
              f"the fresh record: {what} — the matrix shape changed; "
              f"refresh bench/baselines via compare_bench.py --update "
              f"(see CONTRIBUTING.md).")
        return 1
    if regressions:
        worst = min(regressions, key=lambda r: r[1])
        print(f"\nFAIL: {len(regressions)} cell(s) regressed more than "
              f"{args.threshold:.0%} (worst: {worst[0]} at {worst[1]:.3f}x). "
              f"If intentional, push with [perf-override] in the commit "
              f"message (see CONTRIBUTING.md).")
        return 1
    print(f"\nOK: no cell regressed more than {args.threshold:.0%} "
          f"({len(base)} baseline cells).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
