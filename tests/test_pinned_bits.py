"""The paper's metric, pinned: exact metered bit totals of 54 runs.

Every optimisation in this repository is held to "not a single bit on
the wire changes".  The differential grid (``test_differential.py``)
says the engines agree with each other; this table says what they agree
*on*: the total of a one-shot run on the default engine at 12
failure-free points out to n = 511 and at every
:data:`~repro.processors.FAULT_GRID_ATTACKS` attack on seven (n, L)
points out to n = 255.  The totals are machine-independent; a change
that moves one is a change of protocol behaviour and has to say so by
editing the pin.  (The ``(7, 8192)`` row is also E2's table row in
``benchmarks/bench_complexity.py``, ``(7, 524288)`` the README's
8 834 070.)
"""

import random

import pytest

from repro.core.consensus import MultiValuedConsensus
from repro.service import RunSpec

#: Every run's honest processors hold this seed's first ``L`` bits.
INPUT_SEED = 12345

#: (n, L, attack) -> total bits metered.
PINNED_BITS = {
    (4, 4096, "none"): 38656,
    (7, 8192, "none"): 306152,
    (4, 16384, "none"): 126000,
    (7, 65536, "none"): 1448384,
    (7, 524288, "none"): 8834070,
    (10, 65536, "none"): 3731640,
    (31, 4096, "none"): 58170880,
    (31, 65536, "none"): 222381600,
    (127, 65536, "none"): 61095134604,
    (255, 4096, "none"): 50608685160,
    (255, 16384, "none"): 202434740640,
    (511, 16384, "none"): 1498118756750,
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


@pytest.mark.parametrize("n, l_bits, attack", PINNED_BITS)
def test_total_bits_are_the_pinned_ones(n, l_bits, attack):
    spec = RunSpec(n=n, l_bits=l_bits, attack=attack)
    value = random.Random(INPUT_SEED).getrandbits(l_bits)
    result = MultiValuedConsensus(
        spec.make_config(), adversary=spec.make_adversary()
    ).run([value] * n)
    assert result.error_free
    assert result.total_bits == PINNED_BITS[n, l_bits, attack]
