"""``python -m perf compare A.json B.json``: did B get worse than A?

A and B are files written by ``python -m perf all --out`` (one or more
runs of every workload).  For every pairing of end-to-end metric and
workload the verdict is

* ``worse`` — B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved`` — a side's own runs spread (first to third quartile,
  as a share of the median) wider than the bound, so the comparison
  cannot tell; unless every run of B is better than every run of A;
* ``within`` — otherwise.

Exit code 1 when any pairing is ``worse``.  Comparing two sets of runs
of one commit is the A/A check: everything must read ``within``.
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles
from typing import Dict, List, Sequence, Tuple

from perf.run import load_benchmark


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run:
    a single run says nothing about its own noise)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, share by which B's median is worse, wider spread)``."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median(b) - median(a)) / median(a)
    noise = max(spread(a), spread(b))
    if noise > bound:
        clear_win = all(sign * (y - x) < 0 for x in a for y in b)
        return ("within" if clear_win else "unresolved"), worse_by, noise
    return ("worse" if worse_by > bound else "within"), worse_by, noise


def end_to_end_values(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(metric, workload) -> one value per untraced run`` of a file."""
    with open(path) as handle:
        records = json.load(handle)["records"]
    values: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if record["trace"]:
            continue
        for name, metric in record["metrics"].items():
            values.setdefault((name, record["workload"]), []).append(
                metric["value"]
            )
    return values


def compare(path_a: str, path_b: str) -> List[dict]:
    declared = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    side_a, side_b = end_to_end_values(path_a), end_to_end_values(path_b)
    rows = []
    for key in sorted(side_a.keys() & side_b.keys()):
        metric = declared[key[0]]
        outcome, worse_by, noise = verdict(
            side_a[key], side_b[key], metric["better"], metric["bound"]
        )
        rows.append({
            "metric": key[0], "workload": key[1], "verdict": outcome,
            "a": median(side_a[key]), "b": median(side_b[key]),
            "runs": (len(side_a[key]), len(side_b[key])),
            "worse_by": worse_by, "spread": noise,
            "bound": metric["bound"], "unit": metric["unit"],
        })
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m perf compare A.json B.json", file=sys.stderr)
        return 2
    rows = compare(*argv)
    print("%-20s %-24s %14s %14s %8s %8s %6s  %s" % (
        "metric", "workload", "A median", "B median", "worse by",
        "spread", "bound", "verdict"))
    for row in rows:
        print("%-20s %-24s %14.4f %14.4f %7.1f%% %7.1f%% %5.0f%%  %s" % (
            row["metric"], row["workload"], row["a"], row["b"],
            row["worse_by"] * 100, row["spread"] * 100, row["bound"] * 100,
            row["verdict"]))
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("within", "worse", "unresolved")}
    print("%(within)d within, %(worse)d worse, %(unresolved)d unresolved"
          % counts)
    return 1 if counts["worse"] else 0
