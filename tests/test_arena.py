"""Arena reuse: reset rules, no stale-data leaks, forced-scalar purity.

The :class:`~repro.service.arena.ExchangeArena` hands the diagnosis
stage a *reset view* of a preallocated ``(n, n)`` Trust buffer, and
each :class:`~repro.core.batched.CohortContext` owns one.  These tests
pin the three contractual properties the batched body rides on:

* acquiring the view resets it to ``False``;
* a dirty arena — one that just served a diagnosis-heavy adversarial
  instance — must not leak a single stale cell into the next
  generation or the next instance (byte-identity with a fresh-state
  reference run);
* forced-scalar runs never touch an arena at all.
"""

import numpy as np
import pytest

from repro.core.batched import CohortContext
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.processors import make_attack
from repro.service import ConsensusService, InstanceSpec, RunSpec
from repro.service.arena import ExchangeArena

N, T, L = 7, 2, 256
#: Every buffer an arena can hold.
BUFFERS = ("_trust",)
VALUE = 0x5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A


def corrupt_context(config):
    """A context for the ``corrupt`` attack's shape on ``config``."""
    return CohortContext(
        config, config.make_code(), make_attack("corrupt", N, T, L, seed=3)
    )


class TestExchangeArenaUnit:
    def test_buffers_allocated_lazily(self):
        arena = ExchangeArena(5, np.int64)
        assert arena.acquisitions == 0
        for name in BUFFERS:
            assert getattr(arena, name) is None

    def test_detected_and_trust_reset_to_false(self):
        arena = ExchangeArena(4, np.int64)
        trust = arena.trust_view(3)
        trust[...] = True
        again = arena.trust_view(3)
        assert again.shape == (4, 3)
        assert not again.any()

    def test_trust_width_validated(self):
        arena = ExchangeArena(4, np.int64)
        with pytest.raises(ValueError):
            arena.trust_view(5)
        with pytest.raises(ValueError):
            arena.trust_view(-1)
        assert arena.trust_view(0).shape == (4, 0)

    def test_for_symbol_bits_dtype_rule(self):
        assert ExchangeArena.for_symbol_bits(4, 62).symbol_dtype is np.int64
        assert ExchangeArena.for_symbol_bits(4, 63).symbol_dtype is object

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            ExchangeArena(0, np.int64)


class TestDirtyArenaRegression:
    """A diagnosis event leaves every arena buffer dirty; whatever runs
    next on the same service must be byte-identical to a fresh run."""

    @staticmethod
    def _instances():
        return [
            # Diagnosis-heavy opener: leaves exchange/M/Trust all dirty.
            InstanceSpec(inputs=(VALUE,) * N, attack="corrupt", seed=3),
            # Failure-free follower on the same arena.
            InstanceSpec(inputs=(VALUE ^ (VALUE >> 1),) * N),
            # A different attack shape on the same arena again.
            InstanceSpec(inputs=(VALUE,) * N, attack="trust_poison", seed=5),
            # And a second diagnosis-heavy one, so generation-to-
            # generation reuse after diagnosis is also exercised.
            InstanceSpec(inputs=(VALUE,) * N, attack="corrupt", seed=3),
        ]

    @staticmethod
    def _buffers(arena):
        """``id`` of every buffer the arena has allocated so far."""
        return {
            name: id(getattr(arena, name))
            for name in BUFFERS
            if getattr(arena, name) is not None
        }

    def test_shared_arena_matches_fresh_state_reference(self):
        spec = RunSpec(n=N, l_bits=L)
        shared = ConsensusService(spec).run_many(self._instances())
        fresh = []
        for instance in self._instances():
            run_spec = instance.resolve(spec)
            # The per-generation engine on fresh state: the reference
            # the arena's (n, n) buffers were written against.
            consensus = MultiValuedConsensus(
                run_spec.make_config(),
                adversary=run_spec.make_adversary(),
                batch_generations=False,
            )
            fresh.append(consensus.run(list(instance.inputs)))
        for idx, (want, got) in enumerate(zip(fresh, shared)):
            assert want == got, "instance %d diverged on shared arena" % idx

    def test_identical_adversarial_instances_stay_identical(self):
        # The same attack twice through one warm arena: any stale cell
        # surviving the first run's diagnosis would show up as a
        # deviation in the second.
        spec = RunSpec(n=N, l_bits=L)
        service = ConsensusService(spec)
        instance = InstanceSpec(inputs=(VALUE,) * N, attack="corrupt", seed=3)
        first = service.run_many([instance])[0]
        [context] = service._cohorts.values()
        arena = context.arena
        assert arena.acquisitions > 0
        acquired, buffers = arena.acquisitions, self._buffers(arena)
        second = service.run_many([instance])[0]
        assert first == second
        # The re-run went through the same arena (the count grew) and
        # its buffers were reset, never reallocated (they did not move).
        assert list(service._cohorts.values()) == [context]
        assert context.arena is arena and arena.acquisitions > acquired
        assert buffers and self._buffers(arena) == buffers

    def test_one_shot_runs_share_no_state(self):
        # Two one-shot consensus objects build private contexts lazily;
        # an explicit shared context (and its arena) between them must
        # also be harmless.
        config = ConsensusConfig.create(n=N, t=T, l_bits=L)
        context = corrupt_context(config)
        results = []
        for _ in range(2):
            consensus = MultiValuedConsensus(
                config,
                adversary=make_attack("corrupt", N, T, L, seed=3),
                context=context,
                batch_generations=False,
            )
            results.append(consensus.run([VALUE] * N))
        private = MultiValuedConsensus(
            config, adversary=make_attack("corrupt", N, T, L, seed=3)
        ).run([VALUE] * N)
        assert results[0] == results[1] == private
        assert context.arena.acquisitions > 0


class TestForcedScalarNeverTouchesArena:
    def test_one_shot_scalar_arena_stays_none(self):
        config = ConsensusConfig.create(n=N, t=T, l_bits=L)
        consensus = MultiValuedConsensus(
            config,
            adversary=make_attack("corrupt", N, T, L, seed=3),
            vectorized=False,
        )
        result = consensus.run([VALUE] * N)
        assert result.diagnosis_count > 0  # the per-generation path ran
        assert consensus._context is None  # so no arena either

    def test_one_shot_scalar_leaves_provided_arena_untouched(self):
        config = ConsensusConfig.create(n=N, t=T, l_bits=L)
        context = corrupt_context(config)
        consensus = MultiValuedConsensus(
            config,
            adversary=make_attack("corrupt", N, T, L, seed=3),
            vectorized=False,
            context=context,
        )
        consensus.run([VALUE] * N)
        assert "arena" not in vars(context)  # never built, so:
        assert context.arena.acquisitions == 0
        assert context.arena._trust is None

    def test_service_scalar_never_builds_arena(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a forced-scalar run built an arena")

        monkeypatch.setattr(ExchangeArena, "__init__", refuse)
        spec = RunSpec(n=N, l_bits=L, vectorized=False)
        service = ConsensusService(spec)
        service.run_many(
            [
                InstanceSpec(inputs=(VALUE,) * N, attack="corrupt", seed=3),
                InstanceSpec(inputs=(VALUE,) * N),
            ]
        )
        # Every instance has its context; none built its arena.
        assert len(service._cohorts) == 2
        for context in service._cohorts.values():
            assert "arena" not in vars(context)
