"""Grouped diagnosis broadcasts: equivalence and accounting contracts.

The per-generation engine's one dispatch rule, which its M, Detected
and both diagnosis sub-stages share: under the accounted-ideal backend
(the only one the vectorized engines run on) a fault-free source's
broadcast is priced (its outcome is the row the stage already holds)
and only the controlled sources' rows go through
``broadcast_bits_many_grouped``, one call per maximal run of controlled
sources.  The execution is observationally identical to the
forced-scalar reference — the same hooks asked with the same arguments
(``diagnosis_symbol``, ``trust_row``, the backend's per-instance
``ideal_broadcast_bit``), instance ids sequential across rows in the
scalar sequence, and the meter ``Counter`` state byte-identical.  Also
covers the backend-level contract directly (the accounted-ideal bulk
override), the cross-generation bulk bookkeeping primitives
(``SyncNetwork.charge_round``, ``charge_honest_instances``), and what a
diagnosis may cost in ``PackedBits`` conversions: at most one per live
controlled source's row, counted at n = 127.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from repro.processors import FAULT_GRID_ATTACKS, make_attack
from repro.broadcast_bit.eig import EIGBroadcast
from repro.broadcast_bit.ideal import AccountedIdealBroadcast
from repro.broadcast_bit.phase_king import PhaseKingBroadcast
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.core import batched as batched_module
from repro.core import diagnosis as diagnosis_module
from repro.core import generation as generation_module
from repro.core.generation import GenerationProtocol
from repro.core.result import GenerationOutcome
from repro.network.simulator import NetworkError, SyncNetwork
from repro.processors.adversary import Adversary
from repro.service import ConsensusService, RunSpec
from repro.utils.bits import PackedBits
from repro.utils.rng import derive_seed

from test_adversarial_vectorized import assert_runs_equivalent


class SharedRngDiagnosisAdversary(Adversary):
    """One seed shared by the diagnosis row hooks and the backend's hook.

    ``diagnosis_symbol``/``trust_row`` and ``ideal_broadcast_bit`` (asked
    per instance of a controlled source's dispatch) each draw by key
    from that seed — the generation or instance id, the pid and the
    member — so an engine that asked with other arguments, or with
    other instance ids, would change its behaviour, and with it
    decisions, graph evolution and metering.  Crying Detected from
    outside ``P_match`` forces the diagnosis stage.
    """

    def __init__(self, faulty, seed=0):
        super().__init__(faulty)
        self.seed = seed
        #: The row and dispatch hooks, in the order they fired.
        self.events = []

    def _draw(self, *key):
        return derive_seed(self.seed, *key) / 2.0 ** 64

    def detected_flag(self, pid, honest_flag, generation, view):
        return True

    def diagnosis_symbol(self, pid, honest_symbol, generation, view):
        self.events.append(("symbol", pid, honest_symbol))
        flip = self._draw("symbol", generation, pid) < 0.5
        return honest_symbol ^ (1 if flip else 0)

    def trust_row(self, pid, p_match, honest_row, generation, view):
        self.events.append(("trust", pid, tuple(zip(p_match, honest_row))))
        return {
            j: trusted and self._draw("trust", generation, pid, j) < 0.9
            for j, trusted in zip(p_match, honest_row)
        }

    def ideal_broadcast_bit(self, source, bit, instance, view):
        self.events.append(("bsb", source, bit, instance))
        flip = self._draw("bsb", instance, source) < 0.25
        return bit ^ (1 if flip else 0)


def assert_same_asks(events, expected):
    """Rule 3: the same hooks asked with the same arguments, as often,
    in any order; rule 4: the backend's instances in the same sequence
    of ids."""
    assert Counter(events) == Counter(expected)
    assert [e for e in events if e[0] == "bsb"] == [
        e for e in expected if e[0] == "bsb"
    ]


class InterleaveRecordingAdversary(Adversary):
    """Records the ``ideal_broadcast_bit`` hook stream for order checks."""

    def __init__(self, faulty, events):
        super().__init__(faulty)
        self.events = events

    def ideal_broadcast_bit(self, source, bit, instance, view):
        self.events.append(("bsb", source, bit, instance))
        return bit ^ 1


class StatefulBroadcastOnlyAdversary(InterleaveRecordingAdversary):
    """Overrides *only* ``ideal_broadcast_bit``, keyed by instance id:
    every third instance comes out flipped.  The backend may elide the
    hook for classes that leave it at the base; for this one every call
    must still fire, with its scalar instance id, or the flip positions
    move."""

    period = 3

    def ideal_broadcast_bit(self, source, bit, instance, view):
        self.events.append(("bsb", source, bit, instance))
        return bit ^ (1 if (instance + 1) % self.period == 0 else 0)


class EverySecondBitAdversary(InterleaveRecordingAdversary):
    """The same with about every second instance flipped, by a coin
    keyed by the instance id, which raises enough Detected flags to
    reach the diagnosis stage from any faulty set."""

    def ideal_broadcast_bit(self, source, bit, instance, view):
        self.events.append(("bsb", source, bit, instance))
        return bit ^ (derive_seed(0, instance) & 1)


def count_conversions(monkeypatch, *names):
    """Wrap the named ``PackedBits`` conversions for the test's
    duration; returns the live name -> call-count dict."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = PackedBits.__dict__[name]
        is_classmethod = isinstance(original, classmethod)

        def counted(*args, _name=name,
                    _inner=getattr(original, "__func__", original)):
            counts[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(
            PackedBits, name,
            classmethod(counted) if is_classmethod else counted,
        )
    return counts


def controlled_runs(sources, faulty):
    """The maximal runs of controlled pids among ``sources``, in order."""
    return [
        list(run)
        for controlled, run in itertools.groupby(
            sources, key=lambda source: source in faulty
        )
        if controlled
    ]


class TestDiagnosisVerdict:
    """Lines 3(f)-3(i) against a plain reference on every verdict of the
    n = 10 attack grid, on both engines: the verdict interpolates once
    through R#, and a consistent R# decides that codeword's data, which
    must be the part ``decode_subset`` gives over ``P_decide``; an
    inconsistent R# isolates no complainer by line 3(f) and decodes
    through ``P_decide``."""

    def test_attack_grid(self, monkeypatch):
        original = generation_module.diagnosis_verdict
        seen = Counter()

        def checked(code, graph, t, honest, error_free, generation,
                    p_match, r_sharp, detected_ref, removed_edges,
                    isolated, *args, **kwargs):
            expected_graph = graph.copy()
            n = graph.n
            consistent = code.is_consistent(r_sharp)
            expected_isolated = []
            if consistent:
                touched = {v for edge in removed_edges for v in edge}
                for q in range(n):
                    if (
                        q not in p_match and q not in isolated
                        and detected_ref[q] and q not in touched
                        and not expected_graph.is_isolated(q)
                    ):
                        expected_graph.isolate(q)
                        expected_isolated.append(q)
            expected_isolated += expected_graph.apply_overdegree_rule(t)
            result = original(
                code, graph, t, honest, error_free, generation, p_match,
                r_sharp, detected_ref, removed_edges, isolated, *args,
                **kwargs,
            )
            assert result.isolated == expected_isolated
            assert graph.to_dict() == expected_graph.to_dict()
            p_decide = expected_graph.find_trusting_set(
                n - 2 * t, candidates=sorted(p_match)
            )
            assert result.p_decide == tuple(p_decide)
            part = tuple(code.decode_subset(
                {j: r_sharp[j] for j in p_decide}
            ))
            assert set(result.decisions.values()) == {part}
            seen[consistent] += 1
            return result

        # The scalar oracle and the batched body's stage, which both
        # vectorized lanes' diagnoses run, each call the verdict.
        for module in (generation_module, diagnosis_module):
            monkeypatch.setattr(module, "diagnosis_verdict", checked)
        n = 10
        config = ConsensusConfig.create(n=n, l_bits=512)
        value = random.Random(n).getrandbits(512)
        factories = {
            attack: lambda attack=attack: make_attack(
                attack, n, config.t, 512
            )
            for attack in sorted(FAULT_GRID_ATTACKS)
        }
        # Flipped diagnosis symbols put R# off every codeword.
        factories["shared_rng"] = lambda: SharedRngDiagnosisAdversary(
            [1, n - 1], seed=3
        )
        for label, make in factories.items():
            assert_runs_equivalent(config, [value] * n, make, label)
        assert seen[True] and seen[False]


class TestGroupedDiagnosisEquivalence:
    """Vectorized (grouped) vs forced-scalar on the diagnosis stage's
    dispatch edge cases (every attack at n = 10 is
    ``test_adversarial_vectorized.py``'s registered-attack grid, and
    n ∈ {4, 7} are ``test_differential.py``'s, on every path: its
    journal rows run this per-generation engine)."""

    @pytest.mark.parametrize("n", [7, 10])
    @pytest.mark.parametrize("low", [False, True], ids=["ends", "low"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda faulty: SharedRngDiagnosisAdversary(faulty, seed=3),
            lambda faulty: EverySecondBitAdversary(faulty, []),
        ],
        ids=["shared_rng", "broadcast_only"],
    )
    def test_priced_runs_between_controlled_ones(self, make, low, n):
        """Two faulty pids with fault-free sources between them: the
        stage prices a run of honest broadcasts *between* two dispatched
        runs, so a wrong instance id or argument shows in the recorded
        hooks.  ``[1, n - 1]`` sits inside and outside
        ``P_match`` with pid 0 as the reference; ``[0, 2]`` moves the
        reference to pid 1; later diagnoses run with a controlled
        source already isolated."""
        faulty = [0, 2] if low else [1, n - 1]
        config = ConsensusConfig.create(n=n, l_bits=256)
        inputs = [random.Random(n).getrandbits(256)] * n
        runs = assert_runs_equivalent(
            config, inputs, lambda: make(faulty), "faulty %r" % faulty
        )
        (vec, vec_result), (scalar, _) = runs[True], runs[False]
        assert vec_result.diagnosis_count >= 2
        assert_same_asks(vec.adversary.events, scalar.adversary.events)
        assert any(e[0] == "bsb" for e in vec.adversary.events)
        # The cohort engine delegates to the same stage.
        cohort = MultiValuedConsensus(config, adversary=make(faulty))
        cohort_result = cohort.run(inputs)
        assert_same_asks(cohort.adversary.events, scalar.adversary.events)
        assert cohort_result.decisions == vec_result.decisions
        assert cohort_result.meter == vec_result.meter
        assert cohort.backend.stats == scalar.backend.stats
        assert cohort.graph.to_dict() == scalar.graph.to_dict()
        # The second diagnosis ran with a controlled source isolated.
        assert vec.graph.isolated == set(faulty)

    def test_grouped_path_engaged(self):
        """What reaches ``broadcast_bits_many_grouped`` in each of the
        per-generation engine's four broadcast sub-stages (M vectors,
        Detected flags, then, in a diagnosis, symbols and trust
        vectors): the sub-stage's live controlled sources, one call per
        maximal controlled run.  ``broadcast_bits_many`` is never
        called."""
        n, faulty = 7, [1, 6]
        config = ConsensusConfig.create(n=n, l_bits=64)
        consensus = MultiValuedConsensus(
            config,
            adversary=SharedRngDiagnosisAdversary(faulty, seed=3),
            batch_generations=False,
        )
        calls = []
        original = consensus.backend.broadcast_bits_many_grouped

        def spy(rows, tag, ignored=frozenset()):
            calls.append((tag, [source for source, _ in rows]))
            return original(rows, tag, ignored)

        consensus.backend.broadcast_bits_many_grouped = spy
        consensus.backend.broadcast_bits_many = None  # never called
        value = random.Random(4).getrandbits(64)
        result = consensus.run([value] * n)
        assert result.error_free
        assert result.diagnosis_count >= 2
        expected = []
        isolated = set()
        for record in result.generation_results:
            live = [i for i in range(n) if i not in isolated]
            stages = [("matching.M", live)]
            if record.p_match is not None:
                stages.append(("checking.detected", [
                    i for i in live if i not in record.p_match
                ]))
            if record.outcome is GenerationOutcome.DECIDED_DIAGNOSIS:
                stages += [
                    ("diagnosis.symbol", list(record.p_match)),
                    ("diagnosis.trust", live),
                ]
            for stage, sources in stages:
                tag = "gen%d.%s" % (record.generation, stage)
                expected.extend(
                    (tag, run) for run in controlled_runs(sources, faulty)
                )
            isolated.update(record.isolated)
        assert calls == expected
        assert {tag.split(".", 1)[1] for tag, _ in calls} >= {
            "matching.M", "checking.detected", "diagnosis.trust",
        }
        assert isolated  # some diagnosis ran with a source isolated


class TestIdealGroupedBackendContract:
    """The accounted-ideal bulk override, checked against per-row scalar."""

    @staticmethod
    def _run_rows(grouped, faulty, rows, ignored=frozenset(),
                  adversary_class=InterleaveRecordingAdversary):
        """Run the row set through one backend; return everything
        observable: outcomes (one row per source — the grouped call's
        flat row, the scalar loop's one shared view), meter snapshot,
        stats and hook events."""
        events = []
        adversary = adversary_class(faulty, events)
        backend = AccountedIdealBroadcast(5, 1, adversary=adversary)
        if grouped:
            outcomes = backend.broadcast_bits_many_grouped(
                rows, "diag", ignored
            )
        else:
            outcomes = []
            for source, bits in rows:
                outcome = backend.broadcast_bits(source, bits, "diag", ignored)
                assert all(outcome[pid] == outcome[0] for pid in range(5))
                outcomes.append(outcome[0])
        return outcomes, backend.meter.snapshot(), backend.stats, events

    def test_bulk_override_matches_scalar_rows(self):
        rows = [(0, [1, 0, 1]), (2, [0, 1, 1]), (1, [1, 1, 0])]
        faulty = [2]
        grouped = self._run_rows(True, faulty, rows)
        scalar = self._run_rows(False, faulty, rows)
        assert grouped[0] == scalar[0]
        assert grouped[1] == scalar[1]  # meter Counter state
        assert grouped[2].instances == scalar[2].instances
        assert grouped[2].bits_charged == scalar[2].bits_charged
        # The controlled source's per-instance hooks, with the scalar
        # instance ids.
        assert grouped[3] == scalar[3]
        assert grouped[3][:2] == [
            ("bsb", 2, 0, 3),  # instances 0-2 went to the honest row
            ("bsb", 2, 1, 4),
        ]

    def test_stateful_broadcast_only_adversary_fires_every_bit(self):
        """The elision's other side: a class overriding nothing but
        ``ideal_broadcast_bit`` is replayed per bit, packed or not."""
        rows = [(2, [0, 1, 1, 0]), (0, [1, 0, 1]), (2, [1, 1, 1])]
        for pack in (list, PackedBits.from_bits):
            shaped = [(source, pack(bits)) for source, bits in rows]
            grouped = self._run_rows(
                True, [2], shaped,
                adversary_class=StatefulBroadcastOnlyAdversary,
            )
            scalar = self._run_rows(
                False, [2], shaped,
                adversary_class=StatefulBroadcastOnlyAdversary,
            )
            assert grouped[0] == scalar[0]
            assert list(grouped[0][0]) == [0, 1, 0, 0]  # third flipped
            assert grouped[1] == scalar[1]
            assert grouped[2].instances == scalar[2].instances == 10
            assert grouped[3] == scalar[3]
            assert [e for e in grouped[3] if e[0] == "bsb"][-1] == (
                "bsb", 2, 1, 9
            )

    def test_base_hook_source_is_accounted_like_an_honest_one(self):
        """A controlled source whose class leaves the hook at the base
        keeps its row (the very object), its instance ids and its meter
        entry — identical to the scalar per-instance loop."""
        packed = PackedBits.from_bits([1, 0, 1])
        rows = [(0, [1, 1]), (2, packed), (1, [0])]

        def run(grouped):
            backend = AccountedIdealBroadcast(5, 1, adversary=Adversary([2]))
            if grouped:
                outcomes = backend.broadcast_bits_many_grouped(rows, "diag")
            else:
                outcomes = [
                    backend.broadcast_bits(s, bits, "diag")[0]
                    for s, bits in rows
                ]
            return outcomes, backend.meter.snapshot(), backend.stats

        grouped, scalar = run(True), run(False)
        assert grouped[0] == scalar[0]
        assert grouped[0][1] is packed
        assert grouped[1] == scalar[1]
        assert grouped[2].instances == scalar[2].instances == 6
        assert grouped[2].bits_charged == scalar[2].bits_charged

    def test_ignored_source_charges_nothing(self):
        rows = [(0, [1, 1]), (3, [0, 1]), (1, [0, 0])]
        grouped = self._run_rows(True, [], rows, ignored=frozenset([3]))
        scalar = self._run_rows(False, [], rows, ignored=frozenset([3]))
        assert grouped[0] == scalar[0]
        assert grouped[0][1] == [0, 0]
        assert grouped[1] == scalar[1]
        assert grouped[2].instances == scalar[2].instances == 4

    # Validation comes before the ignored-source shortcut, as in the
    # contractual scalar loop the other backends run.

    @staticmethod
    def _backends():
        return [
            AccountedIdealBroadcast(5, 1),
            PhaseKingBroadcast(5, 1),
            EIGBroadcast(5, 1),
        ]

    def test_invalid_bit_rejected(self):
        # The grouped call takes engine-normalized bits; the per-pid
        # entry points check every bit.
        for backend in self._backends():
            for ignored in (frozenset(), frozenset([0])):
                with pytest.raises(ValueError):
                    backend.broadcast_bits_many([(0, [2])], "diag", ignored)
                with pytest.raises(ValueError):
                    backend.broadcast_bits(0, [2], "diag", ignored)
            assert backend.stats.instances == 0

    def test_out_of_range_source_rejected(self):
        for backend in self._backends():
            for ignored in (frozenset(), frozenset([7])):
                if backend.constant_cost_honest:
                    with pytest.raises(ValueError):
                        backend.broadcast_bits_many_grouped(
                            [(7, [1, 0])], "diag", ignored
                        )
                with pytest.raises(ValueError):
                    backend.broadcast_bits(7, [1, 0], "diag", ignored)
            assert backend.stats.instances == 0


class TestDefaultGroupedDispatch:
    """Protocol-simulating backends price nothing: they have no
    accounting shortcut to offer the vectorized engines."""

    def test_constant_cost_flags(self):
        assert AccountedIdealBroadcast(4, 1).constant_cost_honest
        backend = PhaseKingBroadcast(4, 1)
        assert not backend.constant_cost_honest
        assert not hasattr(backend, "charge_honest_instances")


class TestBulkBookkeepingPrimitives:
    """The cohort engine's O(1) accounting calls."""

    def test_charge_round_matches_send_deliver(self):
        reference = SyncNetwork(4)
        senders, receivers, payloads = [], [], []
        for i in range(4):
            for j in range(4):
                if i != j:
                    senders.append(i)
                    receivers.append(j)
                    payloads.append(7)
        reference.send_many(senders, receivers, payloads, bits=3, tag="r")
        reference.deliver_arrays()

        bulk = SyncNetwork(4)
        bulk.charge_round("r", count=12, bits=3)
        assert (
            bulk.meter.snapshot().bits_by_tag
            == reference.meter.snapshot().bits_by_tag
        )
        assert (
            bulk.meter.snapshot().messages_by_tag
            == reference.meter.snapshot().messages_by_tag
        )
        assert bulk.round_index == reference.round_index == 1

    def test_charge_round_refuses_pending_traffic(self):
        net = SyncNetwork(3)
        net.send_many([0], [1], [1], bits=1, tag="x")
        with pytest.raises(NetworkError):
            net.charge_round("x", count=1, bits=1)

    def test_charge_round_refuses_journalling(self):
        net = SyncNetwork(3, journal=True)
        with pytest.raises(NetworkError):
            net.charge_round("x", count=1, bits=1)

    def test_charge_honest_instances_matches_scalar_broadcasts(self):
        reference = AccountedIdealBroadcast(4, 1)
        for _ in range(5):
            reference.broadcast_bit(0, 1, "m")
        bulk = AccountedIdealBroadcast(4, 1)
        bulk.charge_honest_instances("m", 5)
        assert (
            bulk.meter.snapshot().bits_by_tag
            == reference.meter.snapshot().bits_by_tag
        )
        assert (
            bulk.meter.snapshot().messages_by_tag
            == reference.meter.snapshot().messages_by_tag
        )
        assert bulk.stats.instances == reference.stats.instances
        assert bulk.stats.bits_charged == reference.stats.bits_charged

    def test_charging_zero_instances_leaves_no_tag(self):
        """Zero scalar broadcasts leave the meter empty; so must pricing
        zero of them, or the result is not ``==`` its reference."""
        reference = AccountedIdealBroadcast(4, 1)
        assert reference.broadcast_bits_many([], "x") == []
        bulk = AccountedIdealBroadcast(4, 1)
        bulk.charge_honest_instances("x", 0)
        assert bulk.meter.snapshot() == reference.meter.snapshot()
        assert bulk.meter.snapshot().bits_by_tag == {}
        assert bulk.stats == reference.stats


class TestLargeN:
    """The n = 127 regime the grouped diagnosis path opens up."""

    def test_n127_diagnosis_under_time_budget(self, monkeypatch):
        # One diagnosis at n = 127 (t = 42).  The budget is a count, not
        # a clock: a fault-free source's broadcast is priced and its
        # row never built, so the stage converts at most once per
        # live controlled source — a symbol row out per controlled
        # P_match member (trust_poison's faulty pids sit outside
        # P_match: none), one trust row per controlled pid (it
        # overrides that hook) — where every P_match member's symbol
        # row was planned and converted before.
        n = 127
        config = ConsensusConfig.create(n=n, l_bits=1 << 12)
        value = random.Random(127).getrandbits(1 << 12)
        adversary = make_attack("trust_poison", n, config.t, 1 << 12)
        consensus = MultiValuedConsensus(config, adversary=adversary)
        dispatched = []
        original = consensus.backend.broadcast_bits_many_grouped

        def spy(rows, tag, ignored=frozenset()):
            dispatched.extend(source for source, _ in rows)
            return original(rows, tag, ignored)

        consensus.backend.broadcast_bits_many_grouped = spy
        counts = count_conversions(
            monkeypatch, "to_int", "from_bits", "from_int"
        )
        result = consensus.run([value] * n)
        assert result.error_free
        assert result.diagnosis_count == 1
        (diagnosis,) = [
            g for g in result.generation_results if g.removed_edges
        ]
        faulty = adversary.faulty
        symbol_rows = [j for j in diagnosis.p_match if j in faulty]
        # Rows are built for controlled sources only: no honest one's.
        assert dispatched == symbol_rows + sorted(faulty)
        assert counts["from_int"] == len(symbol_rows) == 0
        assert sum(counts.values()) <= len(dispatched) == config.t

    def test_n127_failure_free_bulk_replay(self):
        # Failure-free n = 127: every generation all-match, so the whole
        # run is bulk bookkeeping — sub-second where the per-generation
        # batch machinery took ~0.5 s and the scalar engine minutes.
        n = 127
        config = ConsensusConfig.create(n=n, l_bits=1 << 14)
        value = random.Random(14).getrandbits(1 << 14)
        start = time.perf_counter()
        result = MultiValuedConsensus(config).run([value] * n)
        elapsed = time.perf_counter() - start
        assert result.error_free
        assert result.decisions == dict.fromkeys(range(n), value)
        assert elapsed < 5.0


class TestOneDiagnosisStage:
    """No engine builds a second engine: the cohort runs each diagnosis
    on its context's own stage, and the per-generation engine's
    diagnosis calls that same stage."""

    @staticmethod
    def _count_protocols(monkeypatch):
        built = []
        original = GenerationProtocol.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs["generation"])
            original(self, *args, **kwargs)

        monkeypatch.setattr(GenerationProtocol, "__init__", counted)
        return built

    def test_a_diagnosing_cohort_instance_builds_no_protocol(
        self, monkeypatch
    ):
        built = self._count_protocols(monkeypatch)
        n = 7
        config = ConsensusConfig.create(n=n, l_bits=256)
        value = random.Random(n).getrandbits(256)
        consensus = MultiValuedConsensus(
            config, adversary=make_attack("corrupt", n, config.t, 256)
        )
        result = consensus.run([value] * n)
        assert result.error_free
        assert result.diagnosis_count >= 1
        assert built == []

    def test_cohort_and_recorded_run_call_the_one_stage(self, monkeypatch):
        built = self._count_protocols(monkeypatch)
        stages = []
        original = diagnosis_module.diagnose

        def spy(ctx, graph, backend, adversary, view, g, *args):
            stages.append(g)
            return original(ctx, graph, backend, adversary, view, g, *args)

        # The generation body looks the stage up in its own module.
        monkeypatch.setattr(batched_module, "diagnose", spy)
        service = ConsensusService(RunSpec(n=7, l_bits=256))
        value = random.Random(7).getrandbits(256)

        def diagnosed(result):
            return [
                record.generation for record in result.generation_results
                if record.outcome is GenerationOutcome.DECIDED_DIAGNOSIS
            ]

        cohort = service.run(value, attack="corrupt")
        assert built == [] and stages == diagnosed(cohort) != []
        del stages[:]
        recorded, _ = service.record(value, attack="corrupt")
        assert built  # the per-generation engine ran it
        assert stages == diagnosed(recorded) == diagnosed(cohort)
