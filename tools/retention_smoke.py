#!/usr/bin/env python3
"""Memory-retention smoke: a long-lived service must not grow.

Drives ``--instances`` seeded ``random``-attack instances at n=31 (a
fresh value and a fresh seed each — the attack whose deviation patterns
never recur) through one :class:`ConsensusService` and fails when the
process's peak resident size grows by more than 4 MiB over the second
half of them.  Every fifth instance splits its honest processors over
two fresh values, so the per-generation lane writes into the same
deployment-lifetime context as the cohort lane.  What a deployment
keeps is value-independent (``docs/ARCHITECTURE.md``), so the peak is
reached early and stays.

Usage::

    PYTHONPATH=src python tools/retention_smoke.py [--instances 300]
"""

import argparse
import random
import resource
import sys

from repro.service import ConsensusService, InstanceSpec, RunSpec

SPEC = RunSpec(n=31, l_bits=4096)
BATCH = 10
LIMIT_MIB = 4.0
#: The attack's faulty pids, and the honest ones a split instance gives
#: its second value.
FAULTY = InstanceSpec(inputs=(0,) * SPEC.n, attack="random").resolve(
    SPEC
).make_adversary().faulty
SPLIT = [pid for pid in range(SPEC.n) if pid not in FAULTY][-2:]


def inputs(rng: random.Random, split: bool) -> tuple:
    """One fresh value for every processor, or, when ``split``, a second
    fresh one for the :data:`SPLIT` processors."""
    values = [rng.getrandbits(SPEC.l_bits)] * SPEC.n
    if split:
        other = rng.getrandbits(SPEC.l_bits)
        for pid in SPLIT:
            values[pid] = other
    return tuple(values)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=300)
    args = parser.parse_args()

    service = ConsensusService(SPEC)
    rng = random.Random(15)
    marks = []
    for _ in range(2):
        for _ in range(args.instances // 2 // BATCH):
            results = service.run_many([
                InstanceSpec(
                    inputs=inputs(rng, i % 5 == 4),
                    attack="random",
                    seed=rng.getrandbits(31),
                )
                for i in range(BATCH)
            ])
            if not all(result.error_free for result in results):
                print("a result is not error-free")
                return 1
        marks.append(peak_rss_mib())
    grown = marks[1] - marks[0]
    print(
        "peak RSS %.1f MiB at %d instances, %.1f MiB at %d: +%.1f MiB "
        "(limit %.1f)" % (
            marks[0], args.instances // 2, marks[1], args.instances,
            grown, LIMIT_MIB,
        )
    )
    return 0 if grown <= LIMIT_MIB else 1


if __name__ == "__main__":
    sys.exit(main())
