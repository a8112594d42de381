"""Wall-clock benchmark of full consensus runs over an (n, L) grid.

Unlike the bench_eq* experiments (which reproduce the paper's *bit
counts*), this benchmark tracks how fast the engine actually runs, so
performance regressions and improvements are visible PR-over-PR.  It
writes ``BENCH_wallclock.json`` next to the repo root with one record per
grid point, the per-point speedup over the recorded pre-vectorization
seed baseline, and an assertion-friendly copy of the metered bit totals
(the optimisations must never change a single bit on the wire).

``--faults`` adds the adversarial grid: every attack from
the pinned ``repro.processors.FAULT_GRID_ATTACKS`` set over
fault-injection (n, L) points
(n = 7 through 255), each run on the default engine — a one-shot run
whose honest processors share one input is a cold cohort of one, its
diagnosis stages dispatching through the grouped
``broadcast_bits_many_grouped`` backend call — *and* the forced-scalar
reference engine.  The two runs must agree byte-for-byte (decisions,
bits and messages by tag) and match the expected bit-total table — the
adversarial analogue of the failure-free ``--check`` discipline — and
the vectorized/scalar wall-clock ratio is recorded as the adversarial
speedup column.  See ``docs/BENCHMARKS.md`` for how to read the JSON
report and reproduce the README tables.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py                # full grid
    PYTHONPATH=src python benchmarks/bench_wallclock.py --faults       # + adversarial grid
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick --check --faults  # CI gate

The ``--quick`` grid keeps L small so the smoke run finishes in seconds;
CI uses it to catch order-of-magnitude regressions and metering drift at
PR time without burning minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import time
from pathlib import Path

from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.processors import FAULT_GRID_ATTACKS, make_attack

#: Failure-free wall-clock of the scalar per-row coding engine (the state
#: of the repo before the batched matmat engine landed), measured with
#: this same harness.  Kept as the fixed "before" so every future run
#: reports its cumulative speedup against the same origin.
SEED_BASELINE = {
    (4, 16384): {"seconds": 0.0993, "total_bits": 126000},
    (7, 65536): {"seconds": 0.4037, "total_bits": 1448384},
    (7, 524288): {"seconds": 3.0954, "total_bits": 8834070},
    (10, 65536): {"seconds": 0.6769, "total_bits": 3731640},
}

#: Failure-free wall-clock after PR 1 (batched coding engine, scalar
#: simulator), the "before" of the PR 2 simulator vectorization.  The
#: n = 31 points have no earlier baseline: the scalar simulator made
#: them impractical to track.
PR1_BASELINE = {
    (4, 16384): {"seconds": 0.0186},
    (7, 65536): {"seconds": 0.0604},
    (7, 524288): {"seconds": 0.1779},
    (10, 65536): {"seconds": 0.0986},
}

#: Failure-free wall-clock after PR 3 (vectorized adversarial path),
#: the "before" of the PR 4 bulk-bookkeeping fast path (grouped
#: diagnosis broadcasts + O(1)-per-generation all-match replay).
#: Re-measured alongside the PR 4 numbers on one machine, so the
#: speedup_vs_pr3 column is apples-to-apples; the n = 127 point is the
#: regime the bulk replay opened up.
PR3_BASELINE = {
    (4, 16384): {"seconds": 0.0034},
    (7, 65536): {"seconds": 0.0090},
    (7, 524288): {"seconds": 0.0327},
    (10, 65536): {"seconds": 0.0110},
    (31, 65536): {"seconds": 0.0393},
    (127, 65536): {"seconds": 0.5422},
}

#: Deterministic (machine-independent) failure-free bit totals for every
#: grid point, including the quick grid — asserted on every run so the
#: CI smoke actually catches on-wire behaviour drift.  The (7, 8192)
#: entry cross-checks the seed's bench_eq2 table.
EXPECTED_BITS = {
    (4, 4096): 38656,
    (7, 8192): 306152,
    (4, 16384): 126000,
    (7, 65536): 1448384,
    (7, 524288): 8834070,
    (10, 65536): 3731640,
    (31, 4096): 58170880,
    (31, 65536): 222381600,
    (127, 65536): 61095134604,
    (255, 4096): 50608685160,
    (255, 16384): 202434740640,
    (511, 16384): 1498118756750,
}

FULL_GRID = [
    (4, 1 << 14),
    (7, 1 << 16),
    (7, 1 << 19),
    (10, 1 << 16),
    (31, 1 << 16),
    (127, 1 << 16),
    (255, 1 << 14),
    (511, 1 << 14),
]
QUICK_GRID = [(4, 1 << 12), (7, 1 << 13), (31, 1 << 12), (255, 1 << 12)]

#: Fault-injection grids: every FAULT_GRID_ATTACKS entry at each (n, L)
#: point, run on both the vectorized and forced-scalar adversarial path.  The
#: scalar engine made n = 31/63 impractical, the grouped diagnosis
#: broadcasts extended the practical range to n = 127, and the packed
#: wire format + exchange arenas open n = 255; the quick grid keeps the
#: n = 7 acceptance point (one Byzantine generation per attack type),
#: an n = 31 point, the n = 127 point, and a small-L n = 255 point so
#: CI exercises the packed-lane byte-identity check on every PR (the
#: n = 255 row is time-budgeted: the forced-scalar half dominates at
#: roughly five seconds per attack, so it rides on L = 2^10).
FULL_FAULT_GRID = [
    (7, 1 << 16),
    (31, 1 << 12),
    (63, 1 << 12),
    (127, 1 << 12),
    (255, 1 << 12),
]
QUICK_FAULT_GRID = [(7, 1 << 12), (31, 1 << 12), (127, 1 << 12), (255, 1 << 10)]

#: Deterministic (machine-independent) adversarial bit totals per
#: (n, L, attack) — asserted on every --faults run, against both engine
#: paths, so adversarial metering drift fails the build exactly like
#: failure-free drift does.
EXPECTED_FAULT_BITS = {
    (7, 4096, "corrupt"): 215042,
    (7, 4096, "crash"): 175522,
    (7, 4096, "equivocate"): 215042,
    (7, 4096, "false_detect"): 146882,
    (7, 4096, "slow_bleed"): 283922,
    (7, 4096, "trust_poison"): 146882,
    (7, 65536, "corrupt"): 1496454,
    (7, 65536, "crash"): 1184864,
    (7, 65536, "equivocate"): 1496454,
    (7, 65536, "false_detect"): 894842,
    (7, 65536, "slow_bleed"): 1642824,
    (7, 65536, "trust_poison"): 894842,
    (31, 4096, "corrupt"): 59905702,
    (31, 4096, "crash"): 58055680,
    (31, 4096, "equivocate"): 59905702,
    (31, 4096, "false_detect"): 41246306,
    (31, 4096, "slow_bleed"): 113697088,
    (31, 4096, "trust_poison"): 41246306,
    (63, 4096, "corrupt"): 959192418,
    (63, 4096, "crash"): 935417520,
    (63, 4096, "equivocate"): 959192418,
    (63, 4096, "false_detect"): 668772846,
    (63, 4096, "slow_bleed"): 1642196880,
    (63, 4096, "trust_poison"): 668772846,
    (127, 4096, "corrupt"): 7614649562,
    (127, 4096, "crash"): 7246712508,
    (127, 4096, "equivocate"): 7614649562,
    (127, 4096, "false_detect"): 5377009066,
    (127, 4096, "slow_bleed"): 12391090530,
    (127, 4096, "trust_poison"): 5377009066,
    (255, 1024, "corrupt"): 22718300354,
    (255, 1024, "crash"): 16869220344,
    (255, 1024, "equivocate"): 22718300354,
    (255, 1024, "false_detect"): 19932343770,
    (255, 1024, "slow_bleed"): 28567039004,
    (255, 1024, "trust_poison"): 19932343770,
    (255, 4096, "corrupt"): 56457423730,
    (255, 4096, "crash"): 50607661032,
    (255, 4096, "equivocate"): 56457423730,
    (255, 4096, "false_detect"): 42527640810,
    (255, 4096, "slow_bleed"): 85701116820,
    (255, 4096, "trust_poison"): 42527640810,
}

#: Deterministic input seed: every run times the identical workload.
INPUT_SEED = 12345


def run_point(n: int, l_bits: int) -> dict:
    """One failure-free run with all-equal random inputs; returns a record."""
    config = ConsensusConfig.create(n=n, l_bits=l_bits)
    value = random.Random(INPUT_SEED).getrandbits(l_bits)
    start = time.perf_counter()
    result = MultiValuedConsensus(config).run([value] * n)
    elapsed = time.perf_counter() - start
    record = {
        "n": n,
        "t": config.t,
        "l_bits": l_bits,
        "d_bits": config.d_bits,
        "generations": config.generations,
        "seconds": round(elapsed, 4),
        "total_bits": result.meter.total_bits,
        "error_free": result.error_free,
    }
    expected = EXPECTED_BITS.get((n, l_bits))
    if expected is not None and result.meter.total_bits != expected:
        raise AssertionError(
            "bit total changed at (n=%d, L=%d): %d != expected %d — the "
            "coding engine altered on-wire behaviour"
            % (n, l_bits, result.meter.total_bits, expected)
        )
    baseline = SEED_BASELINE.get((n, l_bits))
    if baseline is not None:
        record["seed_seconds"] = baseline["seconds"]
        record["speedup_vs_seed"] = round(
            baseline["seconds"] / elapsed, 2
        ) if elapsed else None
    pr1 = PR1_BASELINE.get((n, l_bits))
    if pr1 is not None:
        record["pr1_seconds"] = pr1["seconds"]
        record["speedup_vs_pr1"] = round(
            pr1["seconds"] / elapsed, 2
        ) if elapsed else None
    pr3 = PR3_BASELINE.get((n, l_bits))
    if pr3 is not None:
        record["pr3_seconds"] = pr3["seconds"]
        record["speedup_vs_pr3"] = round(
            pr3["seconds"] / elapsed, 2
        ) if elapsed else None
    return record


def run_fault_point(n: int, l_bits: int, attack: str) -> dict:
    """One fault-injection point: the default engine vs forced-scalar.

    Both runs must produce byte-identical metering (bits *and* messages
    by tag) and identical decisions; the default/scalar wall-clock
    ratio is the adversarial speedup this benchmark tracks.
    """
    value = random.Random(INPUT_SEED).getrandbits(l_bits)
    runs = {}
    for vectorized in (True, False):
        config = ConsensusConfig.create(n=n, l_bits=l_bits)
        consensus = MultiValuedConsensus(
            config,
            adversary=make_attack(attack, n, config.t, l_bits),
            vectorized=vectorized,
        )
        start = time.perf_counter()
        result = consensus.run([value] * n)
        elapsed = time.perf_counter() - start
        if not (result.consistent and result.valid):
            raise AssertionError(
                "attack %s broke consensus at (n=%d, L=%d)"
                % (attack, n, l_bits)
            )
        runs[vectorized] = (elapsed, result, config)
    elapsed, result, config = runs[True]
    scalar_elapsed, scalar_result, _ = runs[False]
    if result.meter.bits_by_tag != scalar_result.meter.bits_by_tag or (
        result.meter.messages_by_tag != scalar_result.meter.messages_by_tag
    ):
        raise AssertionError(
            "vectorized adversarial path metered differently from the "
            "scalar path at (n=%d, L=%d, %s)" % (n, l_bits, attack)
        )
    if result.decisions != scalar_result.decisions:
        raise AssertionError(
            "vectorized adversarial path decided differently from the "
            "scalar path at (n=%d, L=%d, %s)" % (n, l_bits, attack)
        )
    expected = EXPECTED_FAULT_BITS.get((n, l_bits, attack))
    if expected is not None and result.meter.total_bits != expected:
        raise AssertionError(
            "adversarial bit total changed at (n=%d, L=%d, %s): %d != "
            "expected %d — the engine altered on-wire behaviour"
            % (n, l_bits, attack, result.meter.total_bits, expected)
        )
    return {
        "n": n,
        "t": config.t,
        "l_bits": l_bits,
        "attack": attack,
        "generations": config.generations,
        "diagnosis_count": result.diagnosis_count,
        "seconds": round(elapsed, 4),
        "scalar_seconds": round(scalar_elapsed, 4),
        "speedup_vs_scalar": round(scalar_elapsed / elapsed, 2)
        if elapsed else None,
        "total_bits": result.meter.total_bits,
    }


def check_tracked_report(path: Path) -> None:
    """Assert the tracked full-grid report's bit totals still match
    :data:`EXPECTED_BITS` — metering drift (an edited expectation table, a
    stale tracked record, or an engine change that altered on-wire
    behaviour) fails loudly instead of silently corrupting the perf
    trajectory."""
    if not path.exists():
        raise AssertionError("tracked report %s is missing" % path)
    tracked = json.loads(path.read_text())
    checked = 0
    for record in tracked.get("results", []):
        key = (record["n"], record["l_bits"])
        expected = EXPECTED_BITS.get(key)
        if expected is None:
            raise AssertionError(
                "tracked grid point (n=%d, L=%d) has no expected bit "
                "total — add it to EXPECTED_BITS" % key
            )
        if record["total_bits"] != expected:
            raise AssertionError(
                "tracked report disagrees at (n=%d, L=%d): %d != %d"
                % (key[0], key[1], record["total_bits"], expected)
            )
        checked += 1
    if not checked:
        raise AssertionError("tracked report %s has no results" % path)
    fault_checked = 0
    for record in tracked.get("fault_results", []):
        key = (record["n"], record["l_bits"], record["attack"])
        expected = EXPECTED_FAULT_BITS.get(key)
        if expected is None:
            raise AssertionError(
                "tracked fault point (n=%d, L=%d, %s) has no expected "
                "bit total — add it to EXPECTED_FAULT_BITS" % key
            )
        if record["total_bits"] != expected:
            raise AssertionError(
                "tracked fault record disagrees at (n=%d, L=%d, %s): "
                "%d != %d"
                % (*key, record["total_bits"], expected)
            )
        fault_checked += 1
    print(
        "checked %d tracked grid points (+%d adversarial) against "
        "expected bit totals" % (checked, fault_checked)
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-L smoke grid for CI (sub-second)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: BENCH_wallclock.json "
        "at the repo root; quick mode writes BENCH_wallclock_quick.json so "
        "the tracked full-grid record is never clobbered)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also assert the tracked BENCH_wallclock.json bit totals "
        "against the expected table (CI uses this so metering drift "
        "fails the build)",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="also run the fault-injection grid: every pinned fault-grid "
        "attack "
        "per (n, L) point, vectorized vs forced-scalar, asserting "
        "byte-identical metering and the expected adversarial bit totals",
    )
    args = parser.parse_args()
    if args.output is None:
        name = (
            "BENCH_wallclock_quick.json" if args.quick
            else "BENCH_wallclock.json"
        )
        args.output = Path(__file__).resolve().parent.parent / name

    if args.check:
        check_tracked_report(
            Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"
        )

    grid = QUICK_GRID if args.quick else FULL_GRID
    results = []
    for n, l_bits in grid:
        record = run_point(n, l_bits)
        results.append(record)
        speedup = record.get("speedup_vs_seed")
        print(
            "n=%-3d L=2^%-3d %8.4fs  %9d bits%s"
            % (
                n,
                l_bits.bit_length() - 1,
                record["seconds"],
                record["total_bits"],
                "  (%.1fx vs seed)" % speedup if speedup else "",
            )
        )

    fault_results = []
    if args.faults:
        fault_grid = QUICK_FAULT_GRID if args.quick else FULL_FAULT_GRID
        for n, l_bits in fault_grid:
            for attack in sorted(FAULT_GRID_ATTACKS):
                record = run_fault_point(n, l_bits, attack)
                fault_results.append(record)
                print(
                    "n=%-3d L=2^%-3d %-13s %8.4fs (scalar %8.4fs, "
                    "%.1fx)  %10d bits  diag=%d"
                    % (
                        n,
                        l_bits.bit_length() - 1,
                        attack,
                        record["seconds"],
                        record["scalar_seconds"],
                        record["speedup_vs_scalar"],
                        record["total_bits"],
                        record["diagnosis_count"],
                    )
                )

    report = {
        "benchmark": "bench_wallclock",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Both CPU counts: the box's total and the slice this process may
        # actually schedule on (cgroup/affinity limited) — wall-clock
        # numbers are only comparable between runs with similar slices.
        "cpus": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "input_seed": INPUT_SEED,
        "seed_baseline": [
            {"n": n, "l_bits": l, **vals}
            for (n, l), vals in sorted(SEED_BASELINE.items())
        ],
        "pr1_baseline": [
            {"n": n, "l_bits": l, **vals}
            for (n, l), vals in sorted(PR1_BASELINE.items())
        ],
        "pr3_baseline": [
            {"n": n, "l_bits": l, **vals}
            for (n, l), vals in sorted(PR3_BASELINE.items())
        ],
        "results": results,
    }
    if fault_results:
        report["fault_results"] = fault_results
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % args.output)


if __name__ == "__main__":
    main()
