"""The value layout and the D width rule, pinned.

An L-bit value becomes padded symbols in one place,
``repro.utils.bits.split_symbols``/``join_symbols``, and D is sized by
one rule, ``repro.analysis.complexity.feasible_width``.  The values in
``tests/data/layout_pins.json`` were taken from the code as it stood
before the baselines and the §4 broadcast moved onto them: Fitzi-Hirt
decisions and meters on E6's cells (and on cells that reach its
recovery path), ``PolynomialHash`` digests and chunkings of fixed
values, and the ``d_bits`` that ``ConsensusConfig.create`` and
``MultiValuedBroadcast`` choose over a grid of n and L (the §4 rows
for all but 21 of the n were added later, from the code as it stood
before its interpolation matrices were computed in closed form).  A
change that moves one changes observable behaviour and has to say so by
re-pinning (``PYTHONPATH=src python tests/test_layout_pinned.py``
rewrites the file).
"""

import hashlib
import json
import os

import pytest

from repro.baselines import FitziHirtConsensus, PolynomialHash, collision_for
from repro.core import MultiValuedBroadcast
from repro.core.config import ConsensusConfig
from repro.processors import CollidingInputAdversary

PINS = os.path.join(os.path.dirname(__file__), "data", "layout_pins.json")

#: E6's constants (``benchmarks/bench_e6_error_freedom.py``).
N, T, L_BITS, KAPPA = 7, 2, 64, 8
BASE = 0x0123456789ABCDEF


def fitzi_hirt_cell(kind, seed):
    """``(constructor arguments, inputs, adversary)`` of one cell.

    ``attack`` and ``random`` are E6's two trial families.  ``split``
    leaves two honest processors unhappy, so they recover the value
    from delivered symbols; ``forged`` has the faulty happy processor 6
    deliver a colliding value to the unhappy 5; ``wide`` runs a several-symbol
    value (L not a multiple of the symbol width) on the real-round
    substrate."""
    args = dict(n=N, t=T, l_bits=L_BITS, kappa=KAPPA, key_seed=seed)
    if kind == "attack":
        key = FitziHirtConsensus(**args).draw_key()
        forged = collision_for(PolynomialHash(L_BITS, KAPPA), BASE, key)
        return args, [BASE] * 4 + [forged] * 3, None
    if kind == "random":
        inputs = [(seed * 7919 + pid * 104729) % (1 << L_BITS)
                  for pid in range(N)]
        return args, inputs, None
    if kind == "split":
        other = (BASE * (seed + 3)) % (1 << L_BITS)
        return args, [BASE] * 5 + [other] * 2, None
    if kind == "forged":
        key = FitziHirtConsensus(**args).draw_key()
        forged = collision_for(PolynomialHash(L_BITS, KAPPA), BASE, key)
        adversary = CollidingInputAdversary([6], forged_value=forged)
        return args, [BASE] * 5 + [forged + 1, BASE], adversary
    # wide
    l_bits = 1001
    args = dict(n=10, t=3, l_bits=l_bits, kappa=16, key_seed=seed,
                substrate="phase_king")
    value = (BASE << 900 | seed) % (1 << l_bits)
    return args, [value] * 8 + [value ^ 5] * 2, None


FITZI_HIRT_CELLS = [
    (kind, seed) for kind in ("attack", "random") for seed in range(25)
] + [
    (kind, seed) for kind in ("split", "forged", "wide") for seed in range(3)
]


def fitzi_hirt_digest(kind, seed):
    args, inputs, adversary = fitzi_hirt_cell(kind, seed)
    result = FitziHirtConsensus(adversary=adversary, **args).run(inputs)
    document = {
        "decisions": sorted(result.decisions.items()),
        "bits": sorted(result.meter.bits_by_tag.items()),
        "messages": sorted(result.meter.messages_by_tag.items()),
        "key": result.key,
        "agreed": result.agreed_digest,
        "default": result.default_used,
    }
    encoded = json.dumps(document, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


#: ``(l_bits, kappa)`` families: one chunk, a padded tail, a width of 1.
HASH_FAMILIES = [(64, 8), (100, 7), (1, 1), (17, 5), (1000, 16), (33, 1)]


def hash_document(l_bits, kappa):
    """Digests under four keys, the chunking and a forged collision of
    four fixed values."""
    family = PolynomialHash(l_bits, kappa)
    top = (1 << l_bits) - 1
    values = [0, 1, top, (0xA5C396E10F5A3C69 << 960 | BASE) & top]
    keys = [key % (1 << kappa) for key in (0, 1, 3, -1)]
    document = []
    for value in values:
        coefficients = family.coefficients(value)
        assert family.value_from_coefficients(coefficients) == value
        try:
            forged = collision_for(family, value, 3 % (1 << kappa) or 1)
        except ValueError:
            forged = None
        document.append({
            "digests": [family.digest(value, key) for key in keys],
            "coefficients": coefficients,
            "forged": forged,
        })
    return document


#: The d_bits grid: every n from 4 to 64, for ConsensusConfig and for
#: the §4 broadcast, and L from 1 to 2^16 around the powers of two.
D_BITS_L = [1, 2, 3, 7, 16, 31, 64, 100, 255, 256, 1000, 1023, 1024, 4095,
            4096, 10000, 16383, 16384, 30000, 32768, 65535, 65536]
D_BITS_N = list(range(4, 65))


def d_bits_row(n):
    """``n``'s consensus and §4 broadcast ``d_bits`` per L."""
    return {
        "consensus": [
            ConsensusConfig.create(n=n, l_bits=l_bits).d_bits
            for l_bits in D_BITS_L
        ],
        "broadcast": [
            MultiValuedBroadcast(n=n, l_bits=l_bits).d_bits
            for l_bits in D_BITS_L
        ],
    }


def load_pins():
    with open(PINS) as handle:
        return json.load(handle)


def cell_id(cell):
    return "-".join(map(str, cell))


@pytest.mark.parametrize("cell", FITZI_HIRT_CELLS, ids=cell_id)
def test_fitzi_hirt_cell_is_pinned(cell):
    assert fitzi_hirt_digest(*cell) == load_pins()["fitzi_hirt"][cell_id(cell)]


@pytest.mark.parametrize("family", HASH_FAMILIES, ids=cell_id)
def test_polynomial_hash_is_pinned(family):
    assert hash_document(*family) == load_pins()["hash"][cell_id(family)]


@pytest.mark.parametrize("n", D_BITS_N)
def test_d_bits_are_pinned(n):
    assert d_bits_row(n) == load_pins()["d_bits"][str(n)]


if __name__ == "__main__":
    with open(PINS, "w") as handle:
        json.dump({
            "fitzi_hirt": {
                cell_id(cell): fitzi_hirt_digest(*cell)
                for cell in FITZI_HIRT_CELLS
            },
            "hash": {
                cell_id(family): hash_document(*family)
                for family in HASH_FAMILIES
            },
            "d_bits": {str(n): d_bits_row(n) for n in D_BITS_N},
        }, handle, sort_keys=True)
        handle.write("\n")
