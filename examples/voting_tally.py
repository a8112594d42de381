#!/usr/bin/env python3
"""Electronic voting: authorities agree on every precinct's ballot batch.

The paper (after Fitzi-Hirt) cites voting as a motivating workload: "the
authorities must agree on the set of all ballots to be tallied (which can
be gigabytes of data)".  A real election is not one consensus instance
but a *stream* of them — one per precinct batch — over a fixed set of
authorities: exactly the many-instances shape
:class:`repro.ConsensusService` serves.  This example commits 12
precinct batches through one service (``submit`` + ``drain``), then
contrasts the error-free algorithm with the Fitzi-Hirt baseline under a
hash-collision attack on the ballot encoding.

Usage::

    python examples/voting_tally.py

See docs/ARCHITECTURE.md ("Service layer") for the cross-instance
batching the drain performs, and docs/BENCHMARKS.md for how measured
bit totals like the ones printed here are pinned and checked in CI.
"""

import json

from repro import ConsensusConfig, ConsensusService
from repro.baselines import FitziHirtConsensus, PolynomialHash, collision_for


def serialize_ballots(ballots) -> int:
    blob = json.dumps(ballots, sort_keys=True).encode()
    return int.from_bytes(blob, "big"), 8 * len(blob)


def precinct_ballots(precinct: int):
    return [
        {
            "precinct": precinct,
            "voter": "v%04d" % i,
            "choice": ["yes", "no", "abstain"][(i + precinct) % 3],
        }
        for i in range(8)
    ]


def main() -> None:
    n, t, precincts = 10, 3, 12
    batches = [serialize_ballots(precinct_ballots(p)) for p in range(precincts)]
    l_bits = max(bits for _, bits in batches)
    print(
        "%d precinct batches, up to %d bits serialized each"
        % (precincts, l_bits)
    )

    # --- one service commits the whole election --------------------------------
    service = ConsensusService(ConsensusConfig.create(n=n, t=t, l_bits=l_bits))
    tickets = {service.submit(value): value for value, _ in batches}
    results = service.drain()  # one batched run_many over all precincts
    committed = sum(
        1
        for ticket, value in tickets.items()
        if results[ticket].consistent and results[ticket].value == value
    )
    total_bits = sum(result.total_bits for result in results)
    assert committed == precincts
    print(
        "error-free consensus: committed %d/%d identical batches at all %d "
        "honest authorities (%d bits on the wire total)"
        % (committed, precincts, n - t, total_bits)
    )

    # --- the Fitzi-Hirt failure mode -----------------------------------------------
    # Two honest factions end up with byte-identical-looking but different
    # ballot encodings that collide under the session hash key.  Fitzi-Hirt
    # concludes "all equal" and the authorities commit DIFFERENT batches.
    value, _ = batches[0]
    kappa = 12
    fh = FitziHirtConsensus(n=n, t=t, l_bits=l_bits, kappa=kappa, key_seed=7)
    key = fh.draw_key()
    family = PolynomialHash(l_bits, kappa)
    tampered = collision_for(family, value, key)
    inputs = [value] * 6 + [tampered] * 4  # honest authorities split
    fh_result = fh.run(inputs)
    print()
    print("Fitzi-Hirt under a digest collision (kappa=%d):" % kappa)
    print("  digests equal: %s" % (
        family.digest(value, key) == family.digest(tampered, key)
    ))
    print("  consistent: %s  -> erred: %s" % (
        fh_result.consistent, not fh_result.error_free
    ))

    ours = service.run(inputs)
    print("error-free algorithm on the same inputs:")
    print("  consistent: %s, default used: %s (differing inputs detected)"
          % (ours.consistent, ours.default_used))
    assert ours.error_free


if __name__ == "__main__":
    main()
