"""Single-generation tests for Algorithm 1's three stages."""

import pytest

from repro.broadcast_bit.ideal import AccountedIdealBroadcast
from repro.core.batched import CohortContext
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.core.generation import GenerationProtocol, _pid_views
from repro.core.result import GenerationOutcome
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.network.simulator import SyncNetwork
from repro.processors import (
    Adversary,
    FalseAccusationAdversary,
    FalseDetectionAdversary,
    SymbolCorruptionAdversary,
    make_attack,
)
from repro.processors.adversary import GlobalView
from repro.service import RunSpec
from tests.conftest import run_generation


def make_protocol(n=7, t=2, adversary=None, graph=None, generation=0):
    config = ConsensusConfig.create(n=n, t=t, l_bits=8 * (n - 2 * t),
                                    d_bits=8 * (n - 2 * t))
    adversary = adversary if adversary is not None else Adversary()
    graph = graph if graph is not None else DiagnosisGraph(n)
    code = config.make_code()
    network = SyncNetwork(n)

    def view():
        return GlobalView(
            n=n, t=t, faulty=set(adversary.faulty),
            extras={"code": code, "diag_graph": graph, "generation": generation},
        )

    backend = AccountedIdealBroadcast(n, t, network.meter, adversary, view)
    context = CohortContext(config, code, adversary)
    protocol = GenerationProtocol(
        config=config, code=code, network=network, graph=graph,
        backend=backend, adversary=adversary, generation=generation,
        view_provider=view, context=context,
    )
    return protocol, config, graph


def equal_parts(n, k, base=3):
    return {pid: [base + i for i in range(k)] for pid in range(n)}


class TestMatchingStage:
    def test_unanimous_inputs_decide_in_checking(self):
        protocol, config, _ = make_protocol()
        parts = equal_parts(7, config.data_symbols)
        result = run_generation(protocol, parts, [0] * config.data_symbols)
        assert result.outcome is GenerationOutcome.DECIDED_CHECKING
        assert result.p_match is not None and len(result.p_match) == 5
        for decision in result.decisions.values():
            assert list(decision) == parts[0]

    def test_fragmented_inputs_no_match(self):
        protocol, config, _ = make_protocol()
        k = config.data_symbols
        parts = {pid: [pid % 4 + 1] * k for pid in range(7)}
        result = run_generation(protocol, parts, [9] * k)
        assert result.outcome is GenerationOutcome.NO_MATCH_DEFAULT
        assert result.p_match is None
        for decision in result.decisions.values():
            assert list(decision) == [9] * k

    def test_majority_subset_matches(self):
        protocol, config, _ = make_protocol()
        k = config.data_symbols
        parts = {pid: [5] * k for pid in range(7)}
        parts[5] = [6] * k
        parts[6] = [7] * k
        result = run_generation(protocol, parts, [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_CHECKING
        assert set(result.p_match) == {0, 1, 2, 3, 4}
        for decision in result.decisions.values():
            assert list(decision) == [5] * k

    def test_all_false_accusers_excluded(self):
        adversary = FalseAccusationAdversary(faulty=[0, 1])
        protocol, config, _ = make_protocol(adversary=adversary)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(7, k), [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_CHECKING
        assert 0 not in result.p_match and 1 not in result.p_match

    def test_isolated_processors_cannot_join_match(self):
        # Only identified-faulty processors are ever isolated (Lemma 4),
        # so the isolated pid is adversary-controlled here.
        graph = DiagnosisGraph(7)
        graph.isolate(6)
        protocol, config, _ = make_protocol(
            adversary=Adversary(faulty=[6]), graph=graph
        )
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(7, k), [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_CHECKING
        assert 6 not in result.p_match

    def test_wrong_part_length_rejected(self):
        protocol, config, _ = make_protocol()
        parts = equal_parts(7, config.data_symbols)
        parts[3] = parts[3][:-1]
        with pytest.raises(ValueError):
            run_generation(protocol, parts, [0] * config.data_symbols)


class TestCheckingStage:
    def test_corruption_to_outsider_triggers_diagnosis(self):
        # Faulty 0 corrupts its symbol towards 6; P_match = {0..4} keeps 0
        # inside and 6 outside, so 6 detects.
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [6]})
        protocol, config, _ = make_protocol(adversary=adversary)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(7, k), [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_DIAGNOSIS
        assert 6 in result.detectors
        for decision in result.decisions.values():
            assert list(decision) == equal_parts(7, k)[0]

    def test_corruption_inside_match_is_invisible(self):
        # Corrupting another P_match member flips the M bits, so the match
        # set simply forms without the attacker: no diagnosis needed.
        adversary = SymbolCorruptionAdversary(faulty=[6], victims={6: [0]})
        protocol, config, _ = make_protocol(adversary=adversary)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(7, k), [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_CHECKING
        assert 6 not in result.p_match

    def test_silent_trusted_member_detected(self):
        class SilentToOne(Adversary):
            def matching_row(self, pid, recipients, honest, generation, view):
                return honest, {6: None}

        protocol, config, _ = make_protocol(adversary=SilentToOne([0]))
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(7, k), [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_DIAGNOSIS
        assert 6 in result.detectors


class TestDiagnosisStage:
    def test_removed_edge_is_bad(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [6]})
        protocol, config, graph = make_protocol(adversary=adversary)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(7, k), [0] * k)
        assert result.removed_edges == [(0, 6)]
        assert not graph.trusts(0, 6)

    def test_fault_free_clique_preserved(self):
        adversary = SymbolCorruptionAdversary(faulty=[0, 1])
        protocol, config, graph = make_protocol(adversary=adversary)
        k = config.data_symbols
        run_generation(protocol, equal_parts(7, k), [0] * k)
        for i in range(2, 7):
            for j in range(2, 7):
                assert graph.trusts(i, j)

    def test_false_detector_isolated(self):
        adversary = FalseDetectionAdversary(faulty=[6])
        protocol, config, graph = make_protocol(adversary=adversary)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(7, k), [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_DIAGNOSIS
        # Line 3(f): consistent R#, no edge at 6 removed -> liar isolated.
        assert graph.is_isolated(6)
        assert 6 in result.isolated

    def test_decision_matches_match_set_value(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [5]})
        protocol, config, _ = make_protocol(adversary=adversary)
        k = config.data_symbols
        parts = equal_parts(7, k, base=7)
        result = run_generation(protocol, parts, [0] * k)
        # Lemma 5: decision equals the fault-free P_match members' input.
        for decision in result.decisions.values():
            assert list(decision) == parts[1]

    def test_p_decide_within_p_match(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [6]})
        protocol, config, _ = make_protocol(adversary=adversary)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(7, k), [0] * k)
        assert result.p_decide is not None
        assert set(result.p_decide) <= set(result.p_match)
        assert len(result.p_decide) == 7 - 2 * 2

    def test_lying_diagnosis_broadcast_loses_edges(self):
        class LyingBroadcast(SymbolCorruptionAdversary):
            def diagnosis_symbol(self, pid, honest_symbol, generation, view):
                return honest_symbol ^ 1

        adversary = LyingBroadcast(faulty=[0], victims={0: [6]})
        protocol, config, graph = make_protocol(adversary=adversary)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(7, k), [0] * k)
        # 0 broadcast a symbol different from what it actually sent to the
        # honest P_match members: they all distrust 0 now.
        assert result.outcome is GenerationOutcome.DECIDED_DIAGNOSIS
        assert graph.removed_edges_at(0) >= 2
        for decision in result.decisions.values():
            assert list(decision) == equal_parts(7, k)[1]


class TestMinimalConfiguration:
    def test_n4_t1(self):
        protocol, config, _ = make_protocol(n=4, t=1)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(4, k), [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_CHECKING

    def test_n4_t1_with_fault(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [3]})
        protocol, config, _ = make_protocol(n=4, t=1, adversary=adversary)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(4, k), [0] * k)
        assert result.consistent

    def test_t_zero(self):
        protocol, config, _ = make_protocol(n=4, t=0)
        k = config.data_symbols
        result = run_generation(protocol, equal_parts(4, k), [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_CHECKING
        assert len(result.p_match) == 4


def _own_row_copies(backend):
    """Make ``backend`` hand every pid its own copy of each outcome row
    (the ideal backend shares one row object across pids); returns the
    list the wrapper appends to on every call."""
    calls = []
    single, many = backend.broadcast_bits, backend.broadcast_bits_many

    def copies(outcome):
        calls.append(len(outcome))
        return {pid: list(row) for pid, row in outcome.items()}

    backend.broadcast_bits = lambda *args: copies(single(*args))
    backend.broadcast_bits_many = lambda *args: [
        copies(outcome) for outcome in many(*args)
    ]
    return calls


def _scalar_oracle_run(attack, n=7, l_bits=256, copied=False):
    config = RunSpec(n=n, l_bits=l_bits).make_config()
    engine = MultiValuedConsensus(
        config,
        adversary=make_attack(attack, n, config.t, l_bits),
        vectorized=False,
        batch_generations=False,
        journal=True,
    )
    calls = _own_row_copies(engine.backend) if copied else None
    result = engine.run([0xA5C3 % (1 << l_bits)] * n)
    if copied:
        assert calls, "the scalar oracle never reached the wrapped backend"
    return result, engine.network.journal


class TestOutcomeRowConversion:
    """The scalar oracle converts each distinct broadcast outcome row
    object once and hands every pid its own view of it."""

    def test_each_distinct_row_object_converts_once(self):
        shared = [1, 0]
        outcome = {0: shared, 1: [0, 1], 2: shared, 3: [0, 1], 4: shared}
        converted = []

        def convert(row):
            converted.append(row)
            return tuple(row)

        assert _pid_views(outcome, 5, convert) == [
            (1, 0), (0, 1), (1, 0), (0, 1), (1, 0),
        ]
        assert len(converted) == 3  # ``shared`` once, each copy once

    @pytest.mark.parametrize(
        "attack", ["slow_bleed", "trust_poison", "equivocate"]
    )
    def test_per_pid_row_copies_are_indistinguishable(self, attack):
        """A backend that hands every pid its own copy of each row leaves
        the same result (generation records and meter included) and
        journal as the shared row: the conversion memo keys on the row
        object, never on a pid."""
        assert _scalar_oracle_run(attack, copied=True) == _scalar_oracle_run(
            attack
        )


@pytest.mark.parametrize("attack", ["corrupt", "slow_bleed", "crash"])
def test_the_scalar_path_searches_p_match_once_a_generation(
    attack, monkeypatch,
):
    """Under the ideal backend every honest pid is handed the same M row
    objects, so the scalar path runs one ``P_match`` search per
    generation, not one per pid, and each pid's view holds those rows."""
    searches, views, generations = [], [], []
    search = GenerationProtocol._find_match_set
    broadcast = GenerationProtocol._matching_broadcast
    run = GenerationProtocol._run_scalar

    def counted_search(self, m_view):
        searches.append(len(generations))
        return search(self, m_view)

    def kept_views(self, *args):
        m_view = broadcast(self, *args)
        views.append((self._honest, m_view))
        return m_view

    def counted_run(self, *args):
        generations.append(self.generation)
        return run(self, *args)

    monkeypatch.setattr(GenerationProtocol, "_find_match_set", counted_search)
    monkeypatch.setattr(GenerationProtocol, "_matching_broadcast", kept_views)
    monkeypatch.setattr(GenerationProtocol, "_run_scalar", counted_run)
    result, _ = _scalar_oracle_run(attack)
    assert len(generations) == len(result.generation_results) > 1
    assert searches == list(range(1, len(generations) + 1))
    for honest, m_view in views:
        reference = m_view[honest[0]]
        for pid in honest:
            assert all(map(
                lambda mine, theirs: mine is theirs, m_view[pid], reference
            ))
