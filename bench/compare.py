"""Compare two program trees with the same benchmark code and settings.

Usage, from the root of the checkout holding this benchmark:

    python3 bench/compare.py --parent ../parent --change .

Both trees are measured by this copy of bench/run.py (--root selects the
tree), with tracing off, on every workload and for run_seconds, both as
fixed in BENCHMARK.json. It runs PAIRS alternating pairs: pair k uses seed
SEED_BASE + k and runs the parent first when k is even, the change first
when k is odd. For every end-to-end metric and workload the report gives
each side's median and quartiles and one verdict:

  gain          the change wins at least 9 of every 10 pairs (ties count for
                neither side) and the medians differ by more than the
                parent's interquartile range
  unresolved    the run-to-run spread (IQR over median, on either side)
                exceeds the metric's bound and not every change run reads
                better than every parent run
  regression    the change's median is worse than the parent's by more than
                the bound fixed in BENCHMARK.json
  within bound  none of the above

A gain on a workload whose failed calls rose is reported as "gain void:
failures rose", and the rise is flagged on its own line. The report is printed and
written to bench/out/compare.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
WIN_SHARE = 0.9
PAIRS = 10
SEED_BASE = 1000


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--root", root],
        stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"compare: benchmark failed on {root} ({workload}, seed {seed})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float, failures_rose: bool) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gap = sign * (cm - pm)                      # > 0 means the change is better
    worse_by = -gap / abs(pm) if pm else (math.inf if gap < 0 else 0.0)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= math.ceil(WIN_SHARE * len(parent)) and gap > (p3 - p1):
        result = "gain void: failures rose" if failures_rose else "gain"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regression"
    else:
        result = "within bound"
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins, "pairs": len(parent),
            "worse_by": worse_by, "spread": spread, "bound": bound, "verdict": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare a change against its parent")
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs = {side: {w: [] for w in workloads} for side in roots}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                runs[side][w].append(run_side(roots[side], w, SEED_BASE + k, seconds))
                print(f"pair {k + 1}/{PAIRS} {w} {side} done", file=sys.stderr)

    report = {"pairs": PAIRS, "seconds": seconds, "seed_base": SEED_BASE, "roots": roots, "rows": []}
    print(f"{'workload':<9} {'metric':<24} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} wins  verdict")
    for w in workloads:
        failed = {side: sum(r["failed"] for r in runs[side][w]) for side in roots}
        attempted = {side: sum(r["attempted"] for r in runs[side][w]) for side in roots}
        rose = failed["change"] > failed["parent"]
        for name, m in metrics.items():
            p = [r["metrics"][name]["value"] for r in runs["parent"][w]]
            c = [r["metrics"][name]["value"] for r in runs["change"][w]]
            row = dict(workload=w, metric=name, unit=m["unit"], **verdict(p, c, m["better"], m["bound"], rose))
            report["rows"].append(row)
            fmt = "{1:.5g} [{0:.5g}, {2:.5g}]"
            print(f"{w:<9} {name:<24} {fmt.format(*row['parent']):>34} {fmt.format(*row['change']):>34}"
                  f" {row['wins']:>2}/{row['pairs']}  {row['verdict']}")
        report["rows"].append({"workload": w, "failed": failed, "attempted": attempted, "failures_rose": rose})
        if rose:
            print(f"{w:<9} FAILED CALLS ROSE: parent {failed['parent']}/{attempted['parent']},"
                  f" change {failed['change']}/{attempted['change']}")
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "compare.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
