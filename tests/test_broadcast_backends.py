"""Contract tests for every ``Broadcast_Single_Bit`` backend.

The error-free backends (ideal, phase_king, eig) must provide Agreement
and Validity in *every* execution; the probabilistic backend (dolev_strong)
must provide them whenever no forgery succeeds.  All backends must meter
their traffic.
"""

import pytest

from repro.broadcast_bit import (
    AccountedIdealBroadcast,
    BernoulliForgingAdversary,
    DolevStrongBroadcast,
    EIGBroadcast,
    MostefaouiBroadcast,
    PhaseKingBroadcast,
    phase_king_bits,
)
from repro.broadcast_bit.eig import eig_message_count
from repro.core.config import BACKENDS
from repro.broadcast_bit.phase_king import (
    king_consensus_bits,
    run_king_consensus,
)
from repro.network.metrics import BitMeter
from repro.utils.bits import PackedBits
from repro.processors import Adversary, CompositeAdversary, RandomAdversary
from repro.processors.adversary import GlobalView

ERROR_FREE_BACKENDS = [AccountedIdealBroadcast, PhaseKingBroadcast, EIGBroadcast]
# Probabilistic backends: dolev_strong errs (only) when a forgery lands;
# mostefaoui is probabilistic in *round count* but deterministically safe.
ALL_BACKENDS = ERROR_FREE_BACKENDS + [DolevStrongBroadcast, MostefaouiBroadcast]


def honest_results(backend, outcome):
    return {
        pid: bit
        for pid, bit in outcome.items()
        if pid not in backend.adversary.faulty
    }


class TestContractHonest:
    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity_honest_source(self, cls, bit):
        backend = cls(n=7, t=2)
        outcome = backend.broadcast_bit(source=3, bit=bit, tag="x")
        assert all(v == bit for v in outcome.values())

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_every_processor_reported(self, cls):
        backend = cls(n=7, t=2)
        outcome = backend.broadcast_bit(source=0, bit=1, tag="x")
        assert set(outcome) == set(range(7))

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_bits_metered(self, cls):
        meter = BitMeter()
        backend = cls(n=7, t=2, meter=meter)
        backend.broadcast_bit(source=0, bit=1, tag="x")
        assert meter.total_bits > 0
        assert backend.stats.instances == 1

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_bit_string(self, cls):
        backend = cls(n=5, t=1)
        outcome = backend.broadcast_bits(source=2, bits=[1, 0, 1, 1], tag="x")
        for pid in range(5):
            assert outcome[pid] == [1, 0, 1, 1]
        assert backend.stats.instances == 4

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_invalid_bit_rejected(self, cls):
        backend = cls(n=4, t=1)
        with pytest.raises(ValueError):
            backend.broadcast_bit(source=0, bit=2, tag="x")

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_invalid_source_rejected(self, cls):
        backend = cls(n=4, t=1)
        with pytest.raises(ValueError):
            backend.broadcast_bit(source=4, bit=1, tag="x")

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_ignored_source_yields_default(self, cls):
        backend = cls(n=5, t=1)
        outcome = backend.broadcast_bit(
            source=1, bit=1, tag="x", ignored=frozenset({1})
        )
        assert all(v == 0 for v in outcome.values())
        # No communication happens for an ignored source.
        assert backend.meter.total_bits == 0


class TestContractAdversarial:
    @pytest.mark.parametrize("cls", ERROR_FREE_BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_faulty_source(self, cls, seed):
        adversary = RandomAdversary(faulty=[0, 5], seed=seed, rate=0.8)
        backend = cls(n=7, t=2, adversary=adversary)
        outcome = backend.broadcast_bit(source=0, bit=1, tag="x")
        values = set(honest_results(backend, outcome).values())
        assert len(values) == 1

    @pytest.mark.parametrize("cls", ERROR_FREE_BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_validity_with_faulty_participants(self, cls, seed):
        adversary = RandomAdversary(faulty=[4, 6], seed=seed, rate=0.9)
        backend = cls(n=7, t=2, adversary=adversary)
        outcome = backend.broadcast_bit(source=1, bit=1, tag="x")
        honest = honest_results(backend, outcome)
        assert all(v == 1 for v in honest.values())

    @pytest.mark.parametrize("seed", range(6))
    def test_backends_cross_validate(self, seed):
        """Identical adversary behaviour -> all error-free backends obey the
        same contract (not necessarily the same bit for a faulty source,
        but agreement + validity each)."""
        for cls in ERROR_FREE_BACKENDS:
            adversary = RandomAdversary(faulty=[2], seed=seed, rate=1.0)
            backend = cls(n=4, t=1, adversary=adversary)
            for source in range(4):
                outcome = backend.broadcast_bit(source, 1, tag="x")
                honest = honest_results(backend, outcome)
                assert len(set(honest.values())) == 1
                if source != 2:
                    assert all(v == 1 for v in honest.values())

    def test_ideal_faulty_source_picks_outcome(self):
        class FlipSource(Adversary):
            def ideal_broadcast_bit(self, source, bit, instance, view):
                return bit ^ 1

        backend = AccountedIdealBroadcast(n=4, t=1, adversary=FlipSource([1]))
        outcome = backend.broadcast_bit(source=1, bit=1, tag="x")
        assert all(v == 0 for v in outcome.values())

    def test_phase_king_equivocating_source(self):
        class Equivocator(Adversary):
            def bsb_source_bit(self, source, recipient, bit, instance, view):
                return recipient & 1

        backend = PhaseKingBroadcast(n=7, t=2, adversary=Equivocator([0]))
        outcome = backend.broadcast_bit(source=0, bit=1, tag="x")
        honest = honest_results(backend, outcome)
        assert len(set(honest.values())) == 1

    def test_eig_equivocating_source(self):
        class Equivocator(Adversary):
            def bsb_source_bit(self, source, recipient, bit, instance, view):
                return recipient & 1

        backend = EIGBroadcast(n=4, t=1, adversary=Equivocator([0]))
        outcome = backend.broadcast_bit(source=0, bit=1, tag="x")
        honest = honest_results(backend, outcome)
        assert len(set(honest.values())) == 1


class TestAccounting:
    def test_ideal_charges_b_per_bit(self):
        meter = BitMeter()
        backend = AccountedIdealBroadcast(n=6, t=1, meter=meter)
        backend.broadcast_bits(source=0, bits=[1, 0, 1], tag="x")
        assert meter.total_bits == 3 * 2 * 36

    def test_phase_king_within_worst_case(self):
        meter = BitMeter()
        backend = PhaseKingBroadcast(n=7, t=2, meter=meter)
        backend.broadcast_bit(source=0, bit=1, tag="x")
        assert meter.total_bits <= phase_king_bits(7, 2)
        # At least the mandatory round-1 traffic happened.
        assert meter.total_bits >= (7 - 1) + 3 * 7 * 6

    def test_phase_king_bits_formula(self):
        assert phase_king_bits(7, 2) == 6 + 3 * (2 * 42 + 6)
        assert king_consensus_bits(7, 2) == 3 * (2 * 42 + 6)

    def test_eig_message_count_small(self):
        # n=4, t=1: round 0 sends 3; round 1: 3 relays x 3 recipients = 9.
        assert eig_message_count(4, 1) == 12

    def test_stats_accumulate(self):
        backend = AccountedIdealBroadcast(n=4, t=1)
        backend.broadcast_bits(source=0, bits=[1] * 5, tag="x")
        assert backend.stats.instances == 5
        assert backend.stats.bits_charged == 5 * 32


class TestKingConsensusDirect:
    def _view(self, n, t, faulty):
        return GlobalView(n=n, t=t, faulty=set(faulty))

    def test_unanimous_inputs_persist(self):
        meter = BitMeter()
        result = run_king_consensus(
            7, 2, {pid: 1 for pid in range(7)}, Adversary(), meter,
            self._view(7, 2, []), "k",
        )
        assert all(v == 1 for v in result.values())

    def test_mixed_inputs_agree(self):
        meter = BitMeter()
        inputs = {pid: pid % 2 for pid in range(7)}
        result = run_king_consensus(
            7, 2, inputs, Adversary(), meter, self._view(7, 2, []), "k",
        )
        assert len(set(result.values())) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_byzantine_agreement(self, seed):
        adversary = RandomAdversary(faulty=[0, 3], seed=seed, rate=1.0)
        meter = BitMeter()
        inputs = {pid: 1 for pid in range(7)}
        result = run_king_consensus(
            7, 2, inputs, adversary, meter, self._view(7, 2, [0, 3]), "k",
        )
        honest = {p: v for p, v in result.items() if p not in (0, 3)}
        assert all(v == 1 for v in honest.values())

    @pytest.mark.parametrize("seed", range(10))
    def test_byzantine_agreement_mixed(self, seed):
        adversary = RandomAdversary(faulty=[1, 5], seed=seed, rate=1.0)
        meter = BitMeter()
        inputs = {pid: (pid // 3) % 2 for pid in range(7)}
        result = run_king_consensus(
            7, 2, inputs, adversary, meter, self._view(7, 2, [1, 5]), "k",
        )
        honest = {p: v for p, v in result.items() if p not in (1, 5)}
        assert len(set(honest.values())) == 1

    def test_ignored_participants_excluded(self):
        meter = BitMeter()
        result = run_king_consensus(
            7, 2, {pid: 1 for pid in range(7)}, Adversary(), meter,
            self._view(7, 2, []), "k", ignored=frozenset({6}),
        )
        assert result[6] == 0  # ignored: default entry
        assert all(result[p] == 1 for p in range(6))


class TestDolevStrong:
    def test_tolerates_t_ge_n3(self):
        backend = DolevStrongBroadcast(n=4, t=3)
        outcome = backend.broadcast_bit(source=0, bit=1, tag="x")
        assert all(v == 1 for v in outcome.values())

    def test_max_faults(self):
        assert DolevStrongBroadcast.max_faults(7) == 6
        assert PhaseKingBroadcast.max_faults(7) == 2

    def test_equivocating_source_no_forgery_agrees(self):
        adversary = BernoulliForgingAdversary(faulty=[0], kappa=64, seed=0)
        backend = DolevStrongBroadcast(n=5, t=2, adversary=adversary, kappa=64)
        outcome = backend.broadcast_bit(source=0, bit=1, tag="x")
        honest = {p: v for p, v in outcome.items() if p != 0}
        assert len(set(honest.values())) == 1

    def test_forgery_can_break_agreement(self):
        class AlwaysForge(BernoulliForgingAdversary):
            def forge_signature(self, forger, victim, message, view):
                self.forgeries_attempted += 1
                self.forgeries_succeeded += 1
                return True

            def bsb_source_bit(self, source, recipient, bit, instance, view):
                return 1  # consistent sends; the forgery does the damage

        adversary = AlwaysForge(faulty=[0, 1], kappa=1, seed=0)
        backend = DolevStrongBroadcast(n=5, t=2, adversary=adversary, kappa=1)
        outcome = backend.broadcast_bit(source=0, bit=1, tag="x")
        honest = {p: v for p, v in outcome.items() if p not in (0, 1)}
        assert len(set(honest.values())) == 2
        assert backend.stats.disagreements == 1

    def test_forgeries_are_attempted_through_a_composite(self):
        # The router used to play forge_signature honestly itself, so
        # the wrapped strategy never saw an attempt.
        forger = BernoulliForgingAdversary(faulty=[3], kappa=1, seed=0)
        adversary = CompositeAdversary({3: forger})
        backend = DolevStrongBroadcast(n=5, t=2, adversary=adversary, kappa=1)
        backend.broadcast_bit(source=3, bit=1, tag="x")
        assert forger.forgeries_attempted > 0

    def test_forgery_rate_tracks_kappa(self):
        adversary = BernoulliForgingAdversary(faulty=[0], kappa=1, seed=3)
        view = GlobalView(n=4, t=1, faulty={0})
        successes = sum(
            adversary.forge_signature(0, 1, ("m", i), view)
            for i in range(400)
        )
        assert 120 < successes < 280  # ~200 expected at p=0.5

    def test_signature_bits_charged(self):
        meter = BitMeter()
        backend = DolevStrongBroadcast(n=5, t=2, meter=meter, kappa=32)
        backend.broadcast_bit(source=0, bit=1, tag="x")
        # Round 0 alone: 4 chains of 1 + 32 bits.
        assert meter.total_bits >= 4 * 33


class TestPackedRowEquivalence:
    """Packed rows must match the list path bit-for-bit on every backend.

    The packed `PackedBits` wire format is an encoding change, not a
    semantic one: for identical deployments, `broadcast_bits_many` over
    packed rows must produce the same outcomes, meter Counter state and
    instance ids as the same call over plain bit lists.  Only the
    priced-honest backend (the vectorized engines' one) hands packed
    rows back packed; the others read a packed row as the bit sequence
    it is and answer with lists.  n = 31 runs the protocol-simulating
    backends at t = 1 to keep EIG's exponential tree small; the packed
    path is per-bit identical regardless of t.
    """

    NS = [(4, 1), (7, 2), (31, 1)]

    @staticmethod
    def _rows(n, packed):
        bit_rows = [
            [(src + idx) % 2 for idx in range(5)]
            for src in (0, 1, n - 1)
        ]
        rows = []
        for src, bits in zip((0, 1, n - 1), bit_rows):
            row = PackedBits.from_bits(bits) if packed else bits
            rows.append((src, row))
        return rows

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    @pytest.mark.parametrize("n,t", NS)
    def test_many_packed_matches_list(self, cls, n, t):
        meters = {}
        outcomes = {}
        backends = {}
        for packed in (False, True):
            meter = BitMeter()
            backend = cls(n=n, t=t, meter=meter)
            outcomes[packed] = backend.broadcast_bits_many(
                self._rows(n, packed), "pkd"
            )
            meters[packed] = meter
            backends[packed] = backend
        assert (
            meters[True].snapshot().bits_by_tag
            == meters[False].snapshot().bits_by_tag
        )
        assert (
            meters[True].snapshot().messages_by_tag
            == meters[False].snapshot().messages_by_tag
        )
        assert (
            backends[True].stats.instances == backends[False].stats.instances
        )
        for listed, packed in zip(outcomes[False], outcomes[True]):
            assert set(listed) == set(packed) == set(range(n))
            for pid in range(n):
                assert (
                    isinstance(packed[pid], PackedBits)
                    == cls.constant_cost_honest
                )
                assert list(packed[pid]) == listed[pid]

    @pytest.mark.parametrize("cls", [AccountedIdealBroadcast])
    def test_grouped_packed_matches_list(self, cls):
        n, t = 7, 2
        results = {}
        meters = {}
        for packed in (False, True):
            meter = BitMeter()
            backend = cls(n=n, t=t, meter=meter)
            rows = [
                (
                    src,
                    PackedBits.from_bits([src % 2, 1, 0]) if packed
                    else [src % 2, 1, 0],
                )
                for src in (0, 2, 5)
            ]
            results[packed] = backend.broadcast_bits_many_grouped(
                rows, "pkd.grouped"
            )
            meters[packed] = meter
        assert (
            meters[True].snapshot().bits_by_tag
            == meters[False].snapshot().bits_by_tag
        )
        for listed, packed_out in zip(results[False], results[True]):
            # One flat row per source, the same object for every pid.
            assert packed_out.tolist() == listed

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_packed_ignored_source_yields_zero_row(self, cls):
        backend = cls(n=4, t=1)
        outcome = backend.broadcast_bits(
            source=2,
            bits=PackedBits.from_bits([1, 1, 0]),
            tag="pkd.ignored",
            ignored=frozenset({2}),
        )
        assert backend.meter.total_bits == 0
        for pid in range(4):
            assert list(outcome[pid]) == [0, 0, 0]


#: The entry points only the vectorized engines call.
VECTORIZED_ENTRY_POINTS = (
    "charge_honest_instances",
    "broadcast_bits_many_grouped",
)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_vectorized_entry_points_exactly_on_priced_backends(name):
    """The planner picks a vectorized engine by ``constant_cost_honest``
    alone, so that flag must promise the engines' entry points: a
    priced-honest backend defines both, and no other backend
    defines any (nothing inherits a fallback that would run)."""
    cls = BACKENDS[name]
    assert {
        entry: hasattr(cls, entry) for entry in VECTORIZED_ENTRY_POINTS
    } == dict.fromkeys(VECTORIZED_ENTRY_POINTS, cls.constant_cost_honest)
