"""Every registry attack's behaviour, pinned.

For each of the twelve attacks of ``repro.processors.ATTACKS``, on
three deployments, with its default faulty set and with one declared
set, under two seeds, ``tests/data/attack_pins.json`` holds what
``make_attack`` builds (class, faulty set, fault plan) and what one run
against it does (a digest of the decisions and the meter, the total
bits and messages, the diagnosis count; for ``adaptive_split`` also its
phase walk and the corruptions it spent).  The values were taken from
the registry as it stood before its attacks became one constructor call
each; a change that moves one changes an attack's behaviour and has to
say so by re-pinning (``PYTHONPATH=src python
tests/test_attack_pins.py`` rewrites the file).
"""

import hashlib
import json
import os
import random

import pytest

from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.processors import ATTACKS, make_attack

PINS = os.path.join(os.path.dirname(__file__), "data", "attack_pins.json")

SHAPES = [(4, 64), (7, 256), (31, 1024)]
SEEDS = [0, 5]


def declared_faulty(n, t):
    """A faulty set no default uses: the t pids just below the top t."""
    return list(range(n - 2 * t, n - t))


CELLS = [
    (name, n, l_bits, declared, seed)
    for name in sorted(ATTACKS)
    for n, l_bits in SHAPES
    for declared in ("default", "declared")
    for seed in SEEDS
]


def plain(value):
    """``value`` with sets sorted and tuples listed, for JSON."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def fault_plan_document(plan):
    if plan is None:
        return None
    return {
        "seed": plan.seed,
        "rules": [
            {name: plain(getattr(rule, name)) for name in sorted(vars(rule))}
            for rule in plan.rules
        ],
    }


def attack_document(name, n, l_bits, declared, seed):
    config = ConsensusConfig.create(n=n, l_bits=l_bits)
    faulty = declared_faulty(n, config.t) if declared == "declared" else None
    adversary = make_attack(name, n, config.t, l_bits, seed=seed,
                            faulty=faulty)
    document = {
        "class": type(adversary).__name__,
        "faulty": sorted(adversary.faulty),
        "fault_plan": fault_plan_document(
            getattr(adversary, "fault_plan", None)
        ),
    }
    value = random.Random("%d-%d-%d" % (n, l_bits, seed)).getrandbits(l_bits)
    result = MultiValuedConsensus(config, adversary=adversary).run(
        [value] * n
    )
    run = {
        "decisions": sorted(result.decisions.items()),
        "bits": sorted(result.meter.bits_by_tag.items()),
        "messages": sorted(result.meter.messages_by_tag.items()),
        "diagnoses": result.diagnosis_count,
        "default": result.default_used,
    }
    document["run"] = hashlib.sha256(
        json.dumps(run, sort_keys=True).encode()
    ).hexdigest()
    document["total_bits"] = sum(result.meter.bits_by_tag.values())
    document["total_messages"] = sum(result.meter.messages_by_tag.values())
    document["diagnoses"] = result.diagnosis_count
    if name == "adaptive_split":
        document["phase_log"] = list(adversary.phase_log)
        document["corruptions_spent"] = adversary.corruptions_spent
    return document


def cell_id(cell):
    return "-".join(map(str, cell))


def load_pins():
    with open(PINS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_attack_is_pinned(cell):
    assert attack_document(*cell) == load_pins()[cell_id(cell)]


if __name__ == "__main__":
    with open(PINS, "w") as handle:
        json.dump(
            {cell_id(cell): attack_document(*cell) for cell in CELLS},
            handle, sort_keys=True, indent=1,
        )
        handle.write("\n")
