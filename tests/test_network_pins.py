"""The network's observable behaviour, pinned: faults, journals, real rounds.

Each cell runs once and hashes what a caller, the meter, the round clock,
the journal and the fault schedule can see:

* consensus under a :class:`~repro.faults.FaultPlanAdversary` whose one
  rule (omit, delay by 1 and by 3, duplicate, partition; probability
  one half, so a batch mixes passed and faulted edges) is scoped to
  sender 1, at n in {4, 7}, two plan seeds, equal and split honest
  inputs: decisions, bits and messages by tag, the round clock, a
  digest of the type-tagged journal rows and one of the fault-event
  log;
* the ``omit_rounds`` and ``delay_storm`` registry attacks, the same
  columns;
* :meth:`~repro.service.ConsensusService.record` transcript digests
  under ``omit_rounds``, ``delay_storm`` and ``corrupt``;
* the ``mostefaoui`` backend, whose rounds run on a network of their
  own, under ``none``, ``random``, ``crash`` and ``corrupt``: decisions,
  the meter, both round clocks and the backend's round statistics;
* the §4 broadcast with a faulty source and with faulty relayers.

The digests in ``tests/data/network_pins.json`` were taken before the
network lost its per-message send path; a change that moves one changes
observable behaviour and has to say so by re-pinning
(``PYTHONPATH=src python -m tests.test_network_pins`` rewrites the
file).
"""

import hashlib
import json
import os

import pytest

from repro.core import MultiValuedBroadcast
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.faults import FaultPlan, FaultPlanAdversary, FaultRule
from repro.processors import (
    CrashAdversary,
    RandomAdversary,
    SymbolCorruptionAdversary,
    make_attack,
)
from repro.service import ConsensusService, RunSpec

from tests.conftest import typed_rows

PINS = os.path.join(os.path.dirname(__file__), "data", "network_pins.json")

L_BITS = 64
VALUE = 0xA5C3_96E1_0F5A_3C69
OTHER = 0x5A3C_691E_F0A5_C396

#: One rule each, scoped to sender 1; half the edges it covers fault.
RULES = {
    "omit": dict(kind="omit"),
    "delay1": dict(kind="delay", delay=1),
    "delay3": dict(kind="delay", delay=3),
    "duplicate": dict(kind="duplicate", copies=2),
    "partition": dict(kind="partition", groups=((0, 1),)),
}


def inputs_for(n, inputs):
    """Equal inputs, or pid 2 (honest in every cell) alone on another
    value."""
    if inputs == "equal":
        return [VALUE] * n
    return [OTHER if pid == 2 else VALUE for pid in range(n)]


def _sha(document):
    return hashlib.sha256(repr(document).encode()).hexdigest()


def consensus_document(n, adversary, inputs, backend="ideal"):
    config = ConsensusConfig.create(n=n, l_bits=L_BITS, backend=backend)
    engine = MultiValuedConsensus(config, adversary=adversary, journal=True)
    result = engine.run(inputs_for(n, inputs))
    network = engine.network
    schedule = network.fault_schedule
    document = {
        "decisions": sorted(result.decisions.items()),
        "bits": sorted(result.meter.bits_by_tag.items()),
        "messages": sorted(result.meter.messages_by_tag.items()),
        "round": network.round_index,
        "journal": _sha(typed_rows(network.journal)),
        "faults": _sha(schedule.event_log() if schedule else []),
    }
    backend_network = getattr(engine.backend, "network", None)
    if backend_network is not None:
        document["backend_round"] = backend_network.round_index
        document["backend_stats"] = sorted(
            engine.backend.stats.extras.items()
        )
    return document


def fault_cell(kind, n, seed, inputs):
    rule = FaultRule(
        senders=frozenset({1}), probability=0.5, **RULES[kind]
    )
    adversary = FaultPlanAdversary([1], FaultPlan(rules=(rule,), seed=seed))
    return consensus_document(n, adversary, inputs)


def attack_cell(attack, n, inputs):
    t = (n - 1) // 3
    return consensus_document(
        n, make_attack(attack, n, t, L_BITS, seed=11), inputs
    )


def record_cell(attack, n):
    spec = RunSpec(n=n, l_bits=L_BITS, attack=attack, seed=11)
    _, transcript = ConsensusService(spec).record(VALUE)
    return {"transcript": transcript.digest()}


def mostefaoui_cell(attack, n, inputs):
    t = (n - 1) // 3
    return consensus_document(
        n, make_attack(attack, n, t, L_BITS, seed=11), inputs,
        backend="mostefaoui",
    )


#: Faulty sources and faulty relayers (the relay is the last pid).
BROADCAST_ADVERSARIES = {
    "corrupt_source": lambda n, t, source: SymbolCorruptionAdversary(
        [source]
    ),
    "crash_source": lambda n, t, source: CrashAdversary([source]),
    "random_source": lambda n, t, source: RandomAdversary([source], seed=3),
    "corrupt_relay": lambda n, t, source: SymbolCorruptionAdversary(
        [n - 1]
    ),
    "crash_relay": lambda n, t, source: CrashAdversary([n - 1]),
    "random_relays": lambda n, t, source: RandomAdversary(
        list(range(n - t, n)), seed=3
    ),
}


def broadcast_cell(attack, backend, n):
    t = (n - 1) // 3
    source = 0
    broadcast = MultiValuedBroadcast(
        n=n, t=t, l_bits=L_BITS, backend=backend,
        adversary=BROADCAST_ADVERSARIES[attack](n, t, source),
    )
    result = broadcast.run(source=source, value=VALUE)
    return {
        "decisions": sorted(result.decisions.items()),
        "bits": sorted(result.meter.bits_by_tag.items()),
        "messages": sorted(result.meter.messages_by_tag.items()),
        "diagnoses": result.diagnosis_count,
        "default": result.default_used,
        "removed": [list(edge) for edge in result.removed_edges],
        "graph": broadcast.graph.to_dict(),
        "round": broadcast.network.round_index,
        "instances": broadcast.backend.stats.instances,
    }


CELLS = {}
for kind in RULES:
    for n in (4, 7):
        for seed in (0, 1):
            for inputs in ("equal", "split"):
                CELLS["fault-%s-n%d-s%d-%s" % (kind, n, seed, inputs)] = (
                    fault_cell, (kind, n, seed, inputs)
                )
for attack in ("omit_rounds", "delay_storm"):
    for n in (4, 7):
        for inputs in ("equal", "split"):
            CELLS["attack-%s-n%d-%s" % (attack, n, inputs)] = (
                attack_cell, (attack, n, inputs)
            )
for attack in ("omit_rounds", "delay_storm", "corrupt"):
    for n in (4, 7):
        CELLS["record-%s-n%d" % (attack, n)] = (record_cell, (attack, n))
for attack in ("none", "random", "crash", "corrupt"):
    for n in (4, 7):
        for inputs in ("equal", "split"):
            CELLS["mostefaoui-%s-n%d-%s" % (attack, n, inputs)] = (
                mostefaoui_cell, (attack, n, inputs)
            )
for attack in BROADCAST_ADVERSARIES:
    for backend in ("ideal", "phase_king"):
        CELLS["broadcast-%s-%s" % (attack, backend)] = (
            broadcast_cell, (attack, backend, 7)
        )


def cell_digest(cell):
    run, args = CELLS[cell]
    encoded = json.dumps(run(*args), sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def load_pins():
    with open(PINS) as handle:
        return json.load(handle)


def test_the_pins_cover_the_cells():
    assert sorted(load_pins()) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_network_cell_is_pinned(cell):
    assert cell_digest(cell) == load_pins()[cell]


if __name__ == "__main__":
    with open(PINS, "w") as handle:
        json.dump(
            {cell: cell_digest(cell) for cell in sorted(CELLS)},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
