#!/usr/bin/env python3
"""One workload's benchmark trajectory across changes.

Every ``docs/measurements/prN-*.md`` from change 45 on carries its
benchmark pairs as exactly one fenced ``json`` block (``"parent"``,
``"command"`` and a list of ``"pairs"``, each with the workload, the
seed and both sides' end-to-end metrics; ``tools/check_links.py`` holds
the files to that).  This script reads those blocks and prints, for one
workload, one line per change: how many pairs it measured and the
median of each end-to-end metric ``BENCHMARK.json`` declares, on the
parent's side and on the change's::

    python tools/trajectory.py audit_replay_n15
    python tools/trajectory.py batch_adversarial_n127 --seed 11

A change whose block has no pair of the workload (at that seed) is
left out.  The medians are of what each file recorded; two changes'
figures were measured at different times on a shared machine, so the
parent → change step within a line is the comparison to read.

A second table measures that machine: whenever no commit between
change k − 1 (the commit that added its measurements file) and change
k's parent touched ``src/`` (``git rev-parse <commit>:src`` agrees),
the two sessions ran the same code, and the step from change k − 1's
change-side median to change k's parent-side median is the workload's
session noise.  Without a git repository the table is left out.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: The first change whose measurements file carries a ``json`` block.
FIRST = 45
_BLOCK = re.compile(r"^```json\n(.*?)^```", re.S | re.M)
_NAME = re.compile(r"pr(\d+)-.*\.md")


def end_to_end_metrics() -> List[str]:
    """The end-to-end metric names ``BENCHMARK.json`` declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in declared["end_to_end"]]


def measurement_files(directory: Path) -> List[Tuple[int, Path]]:
    """``(change number, path)`` of every measurements file from change
    :data:`FIRST` on, in change order."""
    files = []
    for path in directory.glob("pr*-*.md"):
        match = _NAME.fullmatch(path.name)
        if match and int(match.group(1)) >= FIRST:
            files.append((int(match.group(1)), path))
    return sorted(files)


def blocks(directory: Path) -> Iterator[Tuple[int, dict]]:
    """``(change number, its json block)`` of every measurements file
    from change :data:`FIRST` on, in change order."""
    for number, path in measurement_files(directory):
        found = _BLOCK.findall(path.read_text())
        if len(found) != 1:
            raise ValueError(
                "%s: %d json blocks, expected one" % (path, len(found))
            )
        yield number, json.loads(found[0])


def trajectory(
    workload: str, directory: Path, metrics: Sequence[str],
    seed: Optional[int] = None,
) -> List[Tuple[int, int, Dict[str, Tuple[float, float]]]]:
    """``(change, pairs, {metric: (parent median, change median)})`` a
    change that measured ``workload`` (at ``seed``, when given)."""
    rows = []
    for number, block in blocks(directory):
        pairs = [
            pair for pair in block["pairs"]
            if pair["workload"] == workload
            and (seed is None or pair["seed"] == seed)
        ]
        if not pairs:
            continue
        medians = {
            metric: tuple(
                statistics.median(pair[side][metric] for pair in pairs)
                for side in ("parent", "change")
            )
            for metric in metrics
        }
        rows.append((number, len(pairs), medians))
    return rows


def _git(root: Path, *args: str) -> Optional[str]:
    """``git args`` in ``root``: its first output line, or None when git
    cannot answer (no repository, an unknown commit)."""
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
        )
    except OSError:
        return None
    lines = done.stdout.split()
    return lines[0] if done.returncode == 0 and lines else None


def same_tree(
    rows, directory: Path, root: Path = ROOT,
) -> List[Tuple[int, int, Dict[str, Tuple[float, float]]]]:
    """``(k - 1, k, {metric: (k - 1's change median, k's parent
    median)})`` for each pair of consecutive changes in ``rows`` (what
    :func:`trajectory` returns) between whose commits no commit touched
    ``src/``: change k − 1's commit is the one that added its
    measurements file, change k's parent is its block's ``parent``."""
    medians = {number: measured for number, _, measured in rows}
    parents = {number: block["parent"] for number, block in blocks(directory)}
    paths = dict(measurement_files(directory))
    found = []
    for number, _, after in rows:
        before = medians.get(number - 1)
        if before is None:
            continue
        change = _git(
            root, "log", "--diff-filter=A", "--format=%H", "-1", "--",
            str(paths[number - 1].resolve()),
        )
        tree = change and _git(root, "rev-parse", "--verify", change + ":src")
        if tree and tree == _git(
            root, "rev-parse", "--verify", parents[number] + ":src"
        ):
            found.append((number - 1, number, {
                metric: (before[metric][1], after[metric][0])
                for metric in after
            }))
    return found


def render(rows, metrics: Sequence[str]) -> List[str]:
    """Aligned text lines: a header, then one line a change, each
    metric as ``parent median -> change median``."""
    table = [["change", "pairs", *metrics]]
    for number, count, medians in rows:
        table.append([str(number), str(count)] + [
            "%.6g -> %.6g" % medians[metric] for metric in metrics
        ])
    return _aligned(table)


def render_same_tree(rows, metrics: Sequence[str]) -> List[str]:
    """Aligned text lines: a header, then one line a same-tree pair of
    changes, each metric as ``k - 1's change median -> k's parent
    median`` and the step in percent."""
    table = [["same src/", *metrics]]
    for before, after, medians in rows:
        table.append(["%d -> %d" % (before, after)] + [
            "%.6g -> %.6g (%+.1f%%)" % (
                *medians[metric], _step(*medians[metric])
            )
            for metric in metrics
        ])
    return _aligned(table)


def _step(before: float, after: float) -> float:
    return 100.0 * (after - before) / before if before else 0.0


def _aligned(table: List[List[str]]) -> List[str]:
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return [
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in table
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-change medians of one workload's end-to-end"
        " metrics, from the measurements files' json blocks."
    )
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="only the pairs measured at this seed")
    parser.add_argument("--dir", type=Path,
                        default=ROOT / "docs" / "measurements",
                        help="the measurements directory")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    rows = trajectory(args.workload, args.dir, metrics, args.seed)
    if not rows:
        print("no pairs of %s in %s" % (args.workload, args.dir),
              file=sys.stderr)
        return 1
    print("\n".join(render(rows, metrics)))
    noise = same_tree(rows, args.dir)
    if noise:
        print("\n".join(render_same_tree(noise, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
