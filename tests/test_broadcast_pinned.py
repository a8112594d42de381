"""The §4 broadcast, pinned: one digest per (backend, n, source, attack).

Each cell runs :class:`~repro.core.MultiValuedBroadcast` once and hashes
everything a caller, the meter or the round clock can see: the
decisions, bits and messages by tag, the diagnosis count, the default
flag, the removed edges, the final diagnosis graph, the network's round
clock and the backend's instance count.  The digests in
``tests/data/broadcast_grid.json`` were taken from the module as it
stood before its rewrite onto the consensus code's shared rules; a
change that moves one changes observable behaviour and has to say so
by re-pinning (``PYTHONPATH=src python tests/test_broadcast_pinned.py``
rewrites the file).
"""

import hashlib
import json
import os

import pytest

from repro.core import MultiValuedBroadcast
from repro.processors import (
    Adversary,
    CrashAdversary,
    FalseDetectionAdversary,
    RandomAdversary,
    SymbolCorruptionAdversary,
    TrustPoisoningAdversary,
)

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "broadcast_grid.json")

#: Each backend's value width: 100 bits span several generations of the
#: ideal backend; the real-round backend stays short.
L_BITS = {"ideal": 100, "phase_king": 24}

#: Crash and corrupt at a relay and at the source, the outsider attacks,
#: and ``random`` seeds with the faulty set off and on the source.
ATTACKS = (
    ["none", "crash_relay", "crash_source", "corrupt_relay",
     "corrupt_source", "false_detect", "trust_poison"]
    + ["random%d" % seed for seed in range(3)]
    + ["random_src%d" % seed for seed in range(3)]
)

CELLS = [
    ("ideal", n, source, attack)
    for n in (4, 7, 10) for source in (0, 2) for attack in ATTACKS
] + [("phase_king", 4, 0, attack) for attack in ATTACKS]


def adversary_for(attack, n, t, source):
    """The cell's adversary; the relay is the last pid, never a source."""
    relay = n - 1
    high = list(range(n - t, n))
    if attack.startswith("random_src"):
        return RandomAdversary(
            [source] + high[1:], seed=int(attack[len("random_src"):])
        )
    if attack.startswith("random"):
        return RandomAdversary(high, seed=int(attack[len("random"):]))
    return {
        "none": lambda: Adversary(),
        "crash_relay": lambda: CrashAdversary([relay]),
        "crash_source": lambda: CrashAdversary([source]),
        "corrupt_relay": lambda: SymbolCorruptionAdversary([relay]),
        "corrupt_source": lambda: SymbolCorruptionAdversary([source]),
        "false_detect": lambda: FalseDetectionAdversary(high),
        "trust_poison": lambda: TrustPoisoningAdversary(high),
    }[attack]()


def cell_digest(backend, n, source, attack):
    t = (n - 1) // 3
    l_bits = L_BITS[backend]
    broadcast = MultiValuedBroadcast(
        n=n, t=t, l_bits=l_bits, backend=backend,
        adversary=adversary_for(attack, n, t, source),
    )
    value = 0xA5C3_96E1_0F5A_3C69_D2B4_871E % (1 << l_bits) | 1
    result = broadcast.run(source=source, value=value)
    document = {
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
    encoded = json.dumps(document, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def cell_id(cell):
    return "-".join(map(str, cell))


def load_digests():
    with open(DIGESTS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_broadcast_cell_is_pinned(cell):
    assert cell_digest(*cell) == load_digests()[cell_id(cell)]


if __name__ == "__main__":
    with open(DIGESTS, "w") as handle:
        json.dump(
            {cell_id(cell): cell_digest(*cell) for cell in CELLS},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
