"""Baseline tests: bitwise consensus, universal hashing, Fitzi-Hirt."""

import pytest

from repro import ConsensusConfig, MultiValuedConsensus
from repro.baselines import (
    BitwiseConsensus,
    FitziHirtConsensus,
    PolynomialHash,
    collision_for,
)
from repro.processors import (
    CollidingInputAdversary, CompositeAdversary, RandomAdversary,
)


class TestPolynomialHash:
    def test_digest_deterministic(self):
        family = PolynomialHash(l_bits=64, kappa=8)
        assert family.digest(12345, key=7) == family.digest(12345, key=7)

    def test_digest_range(self):
        family = PolynomialHash(l_bits=64, kappa=8)
        for value in (0, 1, 2**64 - 1):
            assert 0 <= family.digest(value, key=99) < 256

    def test_key_sensitivity(self):
        family = PolynomialHash(l_bits=64, kappa=8)
        digests = {family.digest(0xDEADBEEF, key) for key in range(1, 40)}
        assert len(digests) > 1

    def test_coefficients_roundtrip(self):
        family = PolynomialHash(l_bits=60, kappa=8)
        value = (1 << 60) - 7
        coeffs = family.coefficients(value)
        assert family.value_from_coefficients(coeffs) == value

    def test_chunk_count(self):
        assert PolynomialHash(64, 8).chunks == 8
        assert PolynomialHash(65, 8).chunks == 9

    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            PolynomialHash(64, 0)
        with pytest.raises(ValueError):
            PolynomialHash(64, 17)

    def test_oversized_value_rejected(self):
        family = PolynomialHash(8, 4)
        with pytest.raises(ValueError):
            family.digest(256, key=1)

    def test_collision_probability_bound(self):
        family = PolynomialHash(l_bits=256, kappa=8)
        assert family.collision_probability_bound() == (32 - 1) / 256


class TestCollisionConstruction:
    @pytest.mark.parametrize("key", [1, 7, 100, 255])
    def test_collision_collides(self, key):
        family = PolynomialHash(l_bits=64, kappa=8)
        value = 0x0123456789ABCDEF
        forged = collision_for(family, value, key)
        assert forged != value
        assert family.digest(forged, key) == family.digest(value, key)

    def test_needs_two_chunks(self):
        family = PolynomialHash(l_bits=8, kappa=8)
        with pytest.raises(ValueError):
            collision_for(family, 5, key=3)

    def test_collision_rate_matches_bound(self):
        """Random pairs collide at ~(d-1)/2^kappa over random keys."""
        family = PolynomialHash(l_bits=32, kappa=4)
        v1, v2 = 0xDEADBEEF, 0xCAFEF00D
        collisions = sum(
            family.digest(v1, key) == family.digest(v2, key)
            for key in range(16)
        )
        # d-1 = 7 colliding keys at most; at least zero.
        assert 0 <= collisions <= 7


class TestBitwiseBaseline:
    def test_honest_run(self):
        result = BitwiseConsensus(n=7, t=2, l_bits=16).run([0xF0F0] * 7)
        assert result.error_free and result.value == 0xF0F0

    def test_ideal_cost_is_l_times_b(self):
        result = BitwiseConsensus(n=7, t=2, l_bits=16).run([0] * 7)
        assert result.total_bits == 16 * 2 * 49

    def test_phase_king_substrate(self):
        result = BitwiseConsensus(
            n=7, t=2, l_bits=8, substrate="phase_king"
        ).run([0xA5] * 7)
        assert result.error_free and result.value == 0xA5

    @pytest.mark.parametrize("seed", range(4))
    def test_phase_king_adversarial(self, seed):
        adversary = RandomAdversary(faulty=[5, 6], seed=seed, rate=1.0)
        result = BitwiseConsensus(
            n=7, t=2, l_bits=8, substrate="phase_king", adversary=adversary
        ).run([0x3C] * 7)
        assert result.error_free and result.value == 0x3C

    def test_input_validation(self):
        baseline = BitwiseConsensus(n=7, t=2, l_bits=8)
        with pytest.raises(ValueError):
            baseline.run([0] * 6)
        with pytest.raises(ValueError):
            BitwiseConsensus(n=6, t=2, l_bits=8)
        with pytest.raises(ValueError):
            BitwiseConsensus(n=7, t=2, l_bits=8, substrate="nope")

    def test_costs_n2_per_bit_vs_ours_n(self):
        """The §1 motivation: bitwise pays Θ(n²) per bit; ours pays ~3n."""
        l_bits = 4096
        bitwise = BitwiseConsensus(n=7, t=2, l_bits=l_bits).run([1] * 7)
        config = ConsensusConfig.create(n=7, t=2, l_bits=l_bits)
        ours = MultiValuedConsensus(config).run([1] * 7)
        assert ours.total_bits < bitwise.total_bits


class TestFitziHirt:
    def test_honest_equal_inputs(self):
        fh = FitziHirtConsensus(n=7, t=2, l_bits=64, kappa=8)
        result = fh.run([0xFEEDFACE] * 7)
        assert result.error_free
        assert result.value == 0xFEEDFACE

    def test_differing_inputs_default(self):
        fh = FitziHirtConsensus(n=7, t=2, l_bits=64, kappa=16, key_seed=5)
        result = fh.run(list(range(1, 8)))
        assert result.consistent
        assert result.default_used

    def test_unhappy_honest_receives_value(self):
        """An honest processor whose input differs receives the majority
        value through coded delivery."""
        fh = FitziHirtConsensus(n=7, t=2, l_bits=64, kappa=16, key_seed=5)
        inputs = [0xAAAA] * 6 + [0xBBBB]
        result = fh.run(inputs)
        assert result.consistent
        assert result.value == 0xAAAA

    def test_digest_collision_breaks_consistency(self):
        """The FH error floor: colliding honest inputs -> split decision."""
        fh = FitziHirtConsensus(n=7, t=2, l_bits=64, kappa=8, key_seed=1)
        key = fh.draw_key()
        family = PolynomialHash(64, 8)
        v1 = 0x1111222233334444
        v2 = collision_for(family, v1, key)
        result = fh.run([v1] * 4 + [v2] * 3)
        assert not result.error_free
        assert not result.consistent

    def test_error_free_algorithm_survives_same_inputs(self):
        """Head-to-head with Algorithm 1 on the colliding inputs."""
        fh = FitziHirtConsensus(n=7, t=2, l_bits=64, kappa=8, key_seed=1)
        key = fh.draw_key()
        family = PolynomialHash(64, 8)
        v1 = 0x1111222233334444
        v2 = collision_for(family, v1, key)
        inputs = [v1] * 4 + [v2] * 3
        config = ConsensusConfig.create(n=7, t=2, l_bits=64)
        ours = MultiValuedConsensus(config).run(inputs)
        assert ours.error_free

    def test_forged_delivery_caught_without_collision(self):
        """A faulty happy sender delivering garbage symbols cannot fool an
        unhappy receiver: the decoded value's digest will not match."""
        adversary = CollidingInputAdversary(faulty=[6], forged_value=0x9999)
        fh = FitziHirtConsensus(n=7, t=2, l_bits=64, kappa=16, key_seed=2,
                                adversary=adversary)
        # Processor 5 is honest-but-unhappy; 6 is faulty-happy and forges.
        inputs = [0x1234] * 5 + [0x5678] + [0x1234]
        result = fh.run(inputs)
        assert result.consistent
        assert result.value in (0x1234, fh.default_value)

    def test_delivery_value_is_asked_through_a_composite(self):
        """``delivery_value`` is a declared hook: a router asks the member
        that controls the sender."""
        asked = []

        class Forging(CollidingInputAdversary):
            def delivery_value(self, pid, honest_value, view):
                asked.append(pid)
                return super().delivery_value(pid, honest_value, view)

        inputs = [0x1234] * 5 + [0x5678] + [0x1234]
        composite = CompositeAdversary({
            6: Forging(faulty=[6], forged_value=0x9999),
        })
        FitziHirtConsensus(n=7, t=2, l_bits=64, kappa=16, key_seed=2,
                           adversary=composite).run(inputs)
        assert asked == [6]

    def test_complexity_linear_leading_term(self):
        small = FitziHirtConsensus(n=7, t=2, l_bits=1024, kappa=16)
        big = FitziHirtConsensus(n=7, t=2, l_bits=8192, kappa=16)
        bits_small = small.run([1] * 7).total_bits
        bits_big = big.run([1] * 7).total_bits
        # Delivery dominates: ~8x the bits for 8x the length.
        assert 4 < bits_big / bits_small < 12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            FitziHirtConsensus(n=6, t=2, l_bits=8)
        with pytest.raises(ValueError):
            FitziHirtConsensus(n=7, t=2, l_bits=8, substrate="nope")
        fh = FitziHirtConsensus(n=7, t=2, l_bits=8)
        with pytest.raises(ValueError):
            fh.run([0] * 6)
