"""The fault-injection subsystem: plans, schedules, the network seam,
the multi-phase ``adaptive_split`` attack, and end-to-end accountability.

Timing faults (delay, omission, duplication, partitions) are injected at
the ``SyncNetwork.send_many`` boundary, so every layer above — backends,
engines, the audit journal — sees a consistent world: omitted messages
are paid for but never delivered, delayed messages arrive in a later
round carrying their original ``round_index``, and audit replay convicts
exactly the senders whose traffic was faulted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FAULT_KINDS,
    AdaptiveSplitAdversary,
    FaultInjectionError,
    FaultPlan,
    FaultRule,
)
from repro.network.metrics import BitMeter
from repro.network.simulator import NetworkError, SyncNetwork
from repro.processors import TIMING_FAULT_ATTACKS, make_attack
from repro.service import ConsensusService, RunSpec
from repro.audit import prove, replay
from tests.conftest import inboxes, send


def _schedule(*rules, seed=0, n=4):
    return FaultPlan(rules=tuple(rules), seed=seed).compile(n)


class TestRuleValidation:
    def test_kind_must_be_known(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule(kind="teleport")
        assert set(FAULT_KINDS) == {
            "omit", "delay", "duplicate", "partition"
        }

    @pytest.mark.parametrize("bad", [(-1, 3), (5, 2)])
    def test_rounds_window_ordered(self, bad):
        with pytest.raises(ValueError):
            FaultRule(kind="omit", rounds=bad)

    @pytest.mark.parametrize("probability", [-0.1, 1.5])
    def test_probability_range(self, probability):
        with pytest.raises(ValueError):
            FaultRule(kind="omit", probability=probability)

    def test_delay_and_copies_positive(self):
        with pytest.raises(ValueError):
            FaultRule(kind="delay", delay=0)
        with pytest.raises(ValueError):
            FaultRule(kind="duplicate", copies=0)

    def test_partition_needs_groups(self):
        with pytest.raises(ValueError, match="groups"):
            FaultRule(kind="partition")
        with pytest.raises(ValueError, match="groups"):
            FaultRule(kind="omit", groups=((0, 1), (2, 3)))

    def test_schedule_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            _schedule(
                FaultRule(kind="partition", groups=((0, 9),)), n=4
            )
        with pytest.raises(ValueError):
            _schedule(
                FaultRule(kind="partition", groups=((0, 1), (1, 2))), n=4
            )


class TestScheduleSemantics:
    def test_first_matching_rule_wins(self):
        schedule = _schedule(
            FaultRule(kind="omit", senders=frozenset({1})),
            FaultRule(kind="delay", senders=frozenset({1, 2}), delay=3),
        )
        assert schedule.decide(0, 1, 0, "x").kind == "omit"
        decision = schedule.decide(0, 2, 0, "x")
        assert (decision.kind, decision.delay) == ("delay", 3)
        assert schedule.decide(0, 3, 0, "x").kind == "pass"

    def test_filters_compose(self):
        schedule = _schedule(
            FaultRule(
                kind="omit",
                rounds=(2, 4),
                senders=frozenset({0}),
                receivers=frozenset({3}),
                tag_substring="aux",
            )
        )
        assert schedule.decide(2, 0, 3, "gen0.aux").kind == "omit"
        assert schedule.decide(1, 0, 3, "gen0.aux").kind == "pass"
        assert schedule.decide(5, 0, 3, "gen0.aux").kind == "pass"
        assert schedule.decide(2, 1, 3, "gen0.aux").kind == "pass"
        assert schedule.decide(2, 0, 2, "gen0.aux").kind == "pass"
        assert schedule.decide(2, 0, 3, "gen0.est").kind == "pass"

    def test_partition_compiles_to_cross_group_omission(self):
        # pid 3 is unlisted: it forms its own implicit group.
        schedule = _schedule(
            FaultRule(kind="partition", groups=((0, 1), (2,))), n=4
        )
        assert schedule.decide(0, 0, 1, "x").kind == "pass"
        assert schedule.decide(0, 0, 2, "x").kind == "omit"
        assert schedule.decide(0, 2, 1, "x").kind == "omit"
        assert schedule.decide(0, 3, 0, "x").kind == "omit"

    def test_probability_draws_are_seeded(self):
        rule = FaultRule(kind="omit", probability=0.5)
        draws_a = [
            _schedule(rule, seed=7).decide(r, 0, 1, "x").kind
            for r in range(64)
        ]
        draws_b = [
            _schedule(rule, seed=7).decide(r, 0, 1, "x").kind
            for r in range(64)
        ]
        draws_c = [
            _schedule(rule, seed=8).decide(r, 0, 1, "x").kind
            for r in range(64)
        ]
        assert draws_a == draws_b
        assert draws_a != draws_c
        assert {"omit", "pass"} == set(draws_a)  # ~50/50 over 64 draws

    def test_event_log_and_culprits(self):
        schedule = _schedule(
            FaultRule(kind="omit", senders=frozenset({2}))
        )
        schedule.decide(0, 2, 1, "t")
        schedule.decide(0, 1, 2, "t")  # pass: not logged
        schedule.decide(1, 2, 3, "t")
        assert schedule.event_log() == [
            (0, "omit", 2, 1, "t", 0),
            (1, "omit", 2, 3, "t", 0),
        ]
        # The culprits are the event log's senders.
        assert {event[2] for event in schedule.event_log()} == {2}


class TestNetworkSeam:
    def test_omission_is_paid_but_undelivered(self):
        net = SyncNetwork(3, BitMeter())
        net.install_faults(
            _schedule(FaultRule(kind="omit", senders=frozenset({0})), n=3)
        )
        send(net, 0, 1, 7, 8, "t")
        send(net, 2, 1, 9, 8, "t")
        assert [payload for _, payload, _ in inboxes(net)[1]] == [9]
        # The sender pays for the omitted message ("sender pays").
        assert net.meter.total_bits == 16

    def test_delay_carries_to_a_later_round(self):
        net = SyncNetwork(3, BitMeter())
        net.install_faults(
            _schedule(
                FaultRule(kind="delay", senders=frozenset({0}), delay=2),
                n=3,
            )
        )
        send(net, 0, 1, 42, 8, "t")
        assert net.meter.total_bits == 8  # paid at send time
        assert inboxes(net)[1] == []     # round 0: held back
        assert inboxes(net)[1] == []     # round 1: still held
        late = inboxes(net)[1]           # round 2: arrives
        assert [payload for _, payload, _ in late] == [42]
        # The message keeps the round it was *sent* in, so journals and
        # audits can see the displacement.
        assert late[0][2] == 0

    def test_duplicate_meters_and_delivers_every_copy(self):
        net = SyncNetwork(3, BitMeter())
        net.install_faults(
            _schedule(
                FaultRule(
                    kind="duplicate", senders=frozenset({0}), copies=2
                ),
                n=3,
            )
        )
        send(net, 0, 1, 5, 8, "t")
        assert [payload for _, payload, _ in inboxes(net)[1]] == [5, 5, 5]
        assert net.meter.total_bits == 24

    def test_charge_round_refuses_installed_schedule(self):
        net = SyncNetwork(3, BitMeter())
        net.install_faults(
            _schedule(FaultRule(kind="omit", senders=frozenset({0})), n=3)
        )
        with pytest.raises(FaultInjectionError):
            net.charge_round("t", 6, 8)

    def test_install_twice_refused(self):
        net = SyncNetwork(3, BitMeter())
        schedule = _schedule(
            FaultRule(kind="omit", senders=frozenset({0})), n=3
        )
        net.install_faults(schedule)
        with pytest.raises(FaultInjectionError, match="already"):
            net.install_faults(schedule)

    def test_error_carries_edge_context(self):
        error = FaultInjectionError(
            "boom", 3, sender=1, receiver=2, kind="omit"
        )
        assert isinstance(error, NetworkError)
        assert (error.round_index, error.sender, error.receiver) == (
            3, 1, 2
        )
        assert error.kind == "omit"
        assert "round 3" in str(error) and "1->2" in str(error)

    def test_send_many_matches_scalar_sends(self):
        """A faulted batch meters and delivers exactly like the one-edge
        sends it could be split into."""
        rule = FaultRule(kind="omit", senders=frozenset({0}))
        senders = [0, 0, 1, 2]
        receivers = [1, 2, 0, 1]
        payloads = [10, 11, 12, 13]

        batched = SyncNetwork(3, BitMeter())
        batched.install_faults(_schedule(rule, n=3))
        batched.send_many(senders, receivers, payloads, 8, "t")
        batched_inboxes = inboxes(batched)

        per_edge = SyncNetwork(3, BitMeter())
        per_edge.install_faults(_schedule(rule, n=3))
        for s, r, p in zip(senders, receivers, payloads):
            send(per_edge, s, r, p, 8, "t")
        per_edge_inboxes = inboxes(per_edge)

        assert batched_inboxes == per_edge_inboxes
        assert batched.meter.snapshot() == per_edge.meter.snapshot()


class TestPlannedStrategy:
    def test_lifecycle_and_budget(self):
        adversary = AdaptiveSplitAdversary([0, 1])
        assert adversary.phase == "probe"
        assert adversary.phase_log == ["probe"]
        assert adversary.corruption_budget == 8
        for _ in range(8):
            assert adversary.spend()
        assert not adversary.spend()  # exhausted -> dormant
        assert adversary.phase == "dormant"
        assert adversary.corruption_budget - adversary.corruptions_spent == 0

    def test_adaptive_split_walks_its_phases(self):
        from repro.core.config import ConsensusConfig
        from repro.core.consensus import MultiValuedConsensus

        adversary = make_attack("adaptive_split", 7, 2, 64, seed=2)
        assert isinstance(adversary, AdaptiveSplitAdversary)
        assert adversary.phase_log == ["probe"]
        config = ConsensusConfig.create(n=7, l_bits=64)
        engine = MultiValuedConsensus(config, adversary=adversary)
        result = engine.run([0xAB] * 7)
        honest = [
            value
            for pid, value in result.decisions.items()
            if pid not in adversary.faulty
        ]
        assert set(honest) == {0xAB}
        # The multi-phase state machine advanced: probe on generation 0,
        # strike once generation 1's plan read the diagnosis graph.
        assert adversary.phase_log[0] == "probe"
        if config.generations > 1:
            assert "strike" in adversary.phase_log
        # A fresh instance of the same seed replays the identical walk.
        again = make_attack("adaptive_split", 7, 2, 64, seed=2)
        engine2 = MultiValuedConsensus(
            ConsensusConfig.create(n=7, l_bits=64), adversary=again
        )
        engine2.run([0xAB] * 7)
        assert again.phase_log == adversary.phase_log

    def test_factories_are_seed_deterministic(self):
        for name in ("omit_rounds", "delay_storm", "adaptive_split"):
            a = make_attack(name, 7, 2, 64, seed=5, faulty=[0, 1])
            b = make_attack(name, 7, 2, 64, seed=5, faulty=[0, 1])
            assert a.faulty == b.faulty == {0, 1}
            plan_a = getattr(a, "fault_plan", None)
            assert plan_a == getattr(b, "fault_plan", None)


class TestEndToEnd:
    @pytest.mark.parametrize("attack", sorted(TIMING_FAULT_ATTACKS))
    def test_timing_attack_convicted_by_audit(self, attack):
        spec = RunSpec(n=7, l_bits=64, attack=attack, seed=4)
        service = ConsensusService(spec)
        result, transcript = service.record([0xBEEF] * 7)
        assert len(set(result.decisions.values())) == 1
        report = replay(transcript)
        assert report.ok
        assert any(
            deviation.hook.startswith("fault:")
            for deviation in report.deviations
        )
        proof = prove(transcript)
        adversary = spec.make_adversary()
        assert list(proof.culprits) == sorted(adversary.faulty)

    @pytest.mark.parametrize(
        "attack", sorted(TIMING_FAULT_ATTACKS) + ["adaptive_split"]
    )
    def test_seed_determinism_digest(self, attack):
        """The same seeded run recorded twice produces byte-identical
        authenticated transcripts."""

        def digest():
            spec = RunSpec(n=7, l_bits=64, attack=attack, seed=11)
            service = ConsensusService(spec)
            _, transcript = service.record([0x1234] * 7)
            return transcript.digest()

        assert digest() == digest()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_delay_storm_agreement_fuzzed(self, seed):
        adversary = make_attack("delay_storm", 7, 2, 32, seed=seed)
        spec = RunSpec(n=7, l_bits=32, attack="delay_storm", seed=seed)
        service = ConsensusService(spec)
        results = service.run_many([[3] * 7, [9] * 7])
        for result in results:
            honest = [
                value
                for pid, value in result.decisions.items()
                if pid not in adversary.faulty
            ]
            assert len(set(honest)) == 1
