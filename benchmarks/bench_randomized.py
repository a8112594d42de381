"""Expected-round statistics of the randomized common-coin backend.

The Mostefaoui backend's cost is a random variable: under a fair coin
each round decides with probability >= 1/2, so the expected round count
is a small constant (<= 4 is the budget asserted here), while a rigged
coin stalls exactly to the ``round_cap`` derandomization bound.  This
sweep measures both across deployments and seeds, plus the timing-fault
grid (omission / delay attacks from ``TIMING_FAULT_ATTACKS``) on the
full engine.  Counts of rounds and bits, seeded: every run repeats.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q -s   # assert
    PYTHONPATH=src python benchmarks/bench_randomized.py   # + write the report
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from _common import print_table
from repro.broadcast_bit.mostefaoui import MostefaouiBroadcast, RiggedCoin
from repro.processors import TIMING_FAULT_ATTACKS
from repro.service import ConsensusService, RunSpec

SIZES = ((4, 1), (7, 2), (10, 3))
INSTANCES = 200
SEEDS = range(5)
#: Budget on the measured mean rounds per instance under a fair coin.
EXPECTED_ROUNDS_BUDGET = 4.0


def run_round_sweep(instances: int, seeds) -> list:
    records = []
    for n, t in SIZES:
        for seed in seeds:
            backend = MostefaouiBroadcast(n=n, t=t, seed=seed)
            for instance in range(instances):
                backend.broadcast_bit(
                    source=instance % n, bit=instance & 1, tag="sweep"
                )
            extras = backend.stats.extras
            records.append(
                {
                    "n": n,
                    "t": t,
                    "seed": seed,
                    "instances": instances,
                    "expected_rounds": round(backend.expected_rounds(), 4),
                    "rounds_max": extras["rounds_max"],
                    "analytic_bits_per_instance": backend.bits_per_instance(),
                }
            )
    return records


def run_worst_case() -> dict:
    """Rigged-coin stall: bounded exactly by the derandomization cap."""
    backend = MostefaouiBroadcast(n=4, t=1, coin=RiggedCoin([0]))
    backend.broadcast_bit(source=0, bit=1, tag="worst")
    return {
        "round_cap": backend.round_cap,
        "rounds_max": backend.stats.extras["rounds_max"],
        "derandomized_rounds": backend.stats.extras["derandomized_rounds"],
    }


def run_timing_grid(l_bits: int) -> list:
    """Every timing-fault attack end-to-end on the full engine."""
    records = []
    for attack in sorted(TIMING_FAULT_ATTACKS):
        for n, t in SIZES[:2]:
            spec = RunSpec(n=n, l_bits=l_bits, t=t, attack=attack, seed=3)
            service = ConsensusService(spec)
            result = service.run_many([[0x5A] * n])[0]
            honest = sorted(
                set(result.decisions) - spec.make_adversary().faulty
            )
            values = {result.decisions[pid] for pid in honest}
            assert len(values) == 1, (attack, n, values)
            records.append(
                {
                    "attack": attack,
                    "n": n,
                    "t": t,
                    "l_bits": l_bits,
                    "total_bits": result.total_bits,
                    "agreement": True,
                }
            )
    return records


def run_report() -> dict:
    """Measure, print and assert all three sections; the tracked report."""
    rounds = run_round_sweep(INSTANCES, SEEDS)
    worst = run_worst_case()
    grid = run_timing_grid(l_bits=64)
    print_table(
        "randomized backend: measured expected rounds (fair coin, %d "
        "instances per cell; budget <= %.1f)"
        % (INSTANCES, EXPECTED_ROUNDS_BUDGET),
        ("n", "t", "seed", "E[rounds]", "max"),
        [
            (r["n"], r["t"], r["seed"], "%.3f" % r["expected_rounds"],
             r["rounds_max"])
            for r in rounds
        ],
    )
    print_table(
        "rigged-coin worst case (cap=%d)" % worst["round_cap"],
        ("rounds", "derandomized"),
        [(worst["rounds_max"], worst["derandomized_rounds"])],
    )
    print_table(
        "timing-fault grid (full engine, agreement checked)",
        ("attack", "n", "t", "total bits"),
        [(r["attack"], r["n"], r["t"], r["total_bits"]) for r in grid],
    )
    # Every cell's measured mean is within the fair-coin expectation
    # budget, and the rigged coin never escapes the derandomization cap.
    worst_mean = max(r["expected_rounds"] for r in rounds)
    assert worst_mean <= EXPECTED_ROUNDS_BUDGET, worst_mean
    assert worst["rounds_max"] <= worst["round_cap"] + 2
    return {
        "benchmark": "bench_randomized",
        "expected_rounds_budget": EXPECTED_ROUNDS_BUDGET,
        "expected_rounds_worst_cell": worst_mean,
        "rounds": rounds,
        "rigged_worst_case": worst,
        "timing_fault_grid": grid,
    }


def test_randomized_backend_and_timing_faults():
    run_report()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_randomized.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()
    args.output.write_text(json.dumps(run_report(), indent=2) + "\n")
    print("\nwrote %s" % args.output)


if __name__ == "__main__":
    main()
