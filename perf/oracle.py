"""The pinned digests of ``perf/expected.json`` and the scalar oracle
that guards them.

At the default seed every run's first units must hash to the pinned
digest (decisions, metered bits and messages of each result, in order).
``python -m perf regen-expected`` recomputes the digests, and refuses to
write them unless a sample of each workload's instances — one of every
attack it uses — comes out of the forced-scalar reference engine
(``vectorized=False, batch_generations=False``, no result cloning) equal
to the fast path's result field for field.  Other seeds are checked by
the invariants of :func:`perf.workloads.check_result` only.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from typing import Dict, List

from perf import DEFAULT_SEED
from perf.child import EXPECTED_PATH
from perf.workloads import WORKLOADS, Tally, audit_one
from repro.service import ConsensusService


def pinned_digest(name: str, seed: int):
    """``(digest, instances, fast results)`` of a workload's pinned
    units, computed in-process through the service layer (a served
    result is byte-identical to ``run_many``'s)."""
    workload = WORKLOADS[name](seed)
    instances = workload.pinned()
    service = ConsensusService(workload.spec)
    tally = Tally(workload.spec)
    if name == "audit_replay_n15":
        results = []
        for instance in instances:
            result, _, proof, why = audit_one(service, instance)
            if why is not None:
                raise RuntimeError("%s: %s" % (name, why))
            tally.pin(result, (proof.culprits,))
            results.append(result)
    else:
        results = service.run_many(instances)
        for result in results:
            tally.pin(result)
    return tally.digest, instances, results


def scalar_mismatches(name: str, instances, results) -> List[str]:
    """Attacks whose sampled instance the scalar reference disagrees on."""
    spec = replace(
        WORKLOADS[name].spec, vectorized=False, batch_generations=False
    )
    reference = ConsensusService(spec, reuse_results=False)
    sample: Dict[str, int] = {}
    for index, instance in enumerate(instances):
        sample.setdefault(instance.attack or "none", index)
    return [
        attack for attack, index in sample.items()
        if reference.run(instances[index]) != results[index]
    ]


def regenerate() -> int:
    digests = {}
    for name in WORKLOADS:
        digest, instances, results = pinned_digest(name, DEFAULT_SEED)
        wrong = scalar_mismatches(name, instances, results)
        if wrong:
            print("%s: scalar reference disagrees on %s; not writing"
                  % (name, ", ".join(wrong)), file=sys.stderr)
            return 1
        print("%s  %s  (%d pinned, scalar-checked)"
              % (digest[:16], name, len(instances)))
        digests[name] = digest
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, handle, indent=2)
        handle.write("\n")
    return 0
