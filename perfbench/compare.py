"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/run.py --workload all --seed 1 --record base.jsonl
    ...                                           (more seeds, each side)
    python3 perfbench/compare.py base.jsonl head.jsonl

Each input is a JSON-lines file written by ``run.py --record``.  For every
workload and end-to-end metric the report gives each side's median and
quartiles, the spread (quartile distance over median) and the change of
the second median against the first.  A change larger than the metric's
bound, in the metric's worse direction, is marked ``WORSE``; in its
better direction ``better``.  It also compares the share of failed
operations.  With one file it prints that side's figures alone.  The exit
status is 1 when any metric is worse beyond its bound or the failed
shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> Dict[str, List[dict]]:
    """Untraced results of one file, by workload."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs[record["workload"]].append(record["result"])
    return runs


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def failed_share(results: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    metrics = spec["end_to_end"]
    sides = [load(args.base)] + ([load(args.head)] if args.head else [])
    status = 0
    for workload in sorted(set().union(*sides)):
        sets = [side.get(workload, []) for side in sides]
        counts = " vs ".join(str(len(s)) for s in sets)
        print(f"\n{workload}  (runs: {counts})")
        print(f"  {'metric':20s} {'side':5s} {'q1':>12s} {'median':>12s} "
              f"{'q3':>12s} {'spread':>8s}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for label, results in zip(("base", "head"), sets):
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                if not values:
                    medians.append(None)
                    continue
                q1, median, q3 = quartiles(values)
                medians.append(median)
                spread = (q3 - q1) / median if median else 0.0
                flag = "  (spread > bound)" if spread > bound else ""
                print(f"  {name:20s} {label:5s} {q1:12.4f} {median:12.4f} "
                      f"{q3:12.4f} {spread:8.3f}{flag}")
            if len(medians) == 2 and None not in medians and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                verdict = "within bound"
                if worse > bound:
                    verdict, status = "WORSE", 1
                elif -worse > bound:
                    verdict = "better"
                print(f"  {'':20s} {'':5s} change {change:+.3f} "
                      f"(bound {bound})  {verdict}")
        shares = [failed_share(s) for s in sets]
        line = "  failed share: " + " vs ".join(f"{x:.6f}" for x in shares)
        if len(shares) == 2 and shares[0] != shares[1]:
            line += "  DIFFERENT"
            status = 1
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
