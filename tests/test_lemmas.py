"""Lemma-by-lemma verification of the paper's correctness argument.

Each test class mirrors one lemma/theorem of §3 and checks its statement
on real executions, including the adversarial cases the proofs reason
about.  These are the load-bearing invariants: if a refactor breaks one,
the corresponding proof step no longer holds for the implementation.
"""

import itertools

import pytest

from repro import ConsensusConfig, MultiValuedConsensus
from repro.broadcast_bit.ideal import AccountedIdealBroadcast
from repro.core import invariants
from repro.core.batched import CohortContext
from repro.core.generation import GenerationProtocol
from repro.core.result import GenerationOutcome
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.network.simulator import SyncNetwork
from repro.processors import (
    Adversary,
    RandomAdversary,
    SymbolCorruptionAdversary,
)
from repro.processors.adversary import GlobalView
from tests.conftest import run_generation


def build(n=7, t=2, adversary=None, graph=None):
    config = ConsensusConfig.create(
        n=n, t=t, l_bits=8 * (n - 2 * t), d_bits=8 * (n - 2 * t)
    )
    adversary = adversary or Adversary()
    graph = graph or DiagnosisGraph(n)
    code = config.make_code()
    network = SyncNetwork(n)

    def view():
        return GlobalView(
            n=n, t=t, faulty=set(adversary.faulty),
            extras={"code": code, "diag_graph": graph, "generation": 0},
        )

    backend = AccountedIdealBroadcast(n, t, network.meter, adversary, view)
    return (
        GenerationProtocol(
            config=config, code=code, network=network, graph=graph,
            backend=backend, adversary=adversary, generation=0,
            view_provider=view,
            context=CohortContext(config, code, adversary),
        ),
        config,
        graph,
    )


class TestLemma1:
    """If all fault-free processors share an input, P_match exists."""

    @pytest.mark.parametrize("seed", range(8))
    def test_p_match_exists_under_any_adversary(self, seed):
        adversary = RandomAdversary(faulty=[5, 6], seed=seed, rate=1.0)
        protocol, config, _ = build(adversary=adversary)
        k = config.data_symbols
        parts = {pid: [7] * k for pid in range(7)}
        result = run_generation(protocol, parts, [0] * k)
        assert result.outcome is not GenerationOutcome.NO_MATCH_DEFAULT
        assert result.p_match is not None

    def test_converse_no_match_implies_differing_inputs(self):
        """Line 1(f)'s justification: a missing P_match is *proof* that
        fault-free inputs differ — with equal inputs it can never fire,
        so when it fires here the inputs really did differ."""
        protocol, config, _ = build()
        k = config.data_symbols
        parts = {pid: [pid] * k for pid in range(7)}
        result = run_generation(protocol, parts, [0] * k)
        assert result.outcome is GenerationOutcome.NO_MATCH_DEFAULT


class TestLemma2:
    """All fault-free members of P_match share the generation input."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fault_free_match_members_agree(self, seed):
        adversary = RandomAdversary(faulty=[1, 4], seed=seed, rate=0.8)
        protocol, config, _ = build(adversary=adversary)
        k = config.data_symbols
        parts = {pid: [3] * k for pid in range(7)}
        parts[0] = [9] * k  # one honest dissenter
        result = run_generation(protocol, parts, [0] * k)
        if result.p_match is None:
            return
        honest_members = [
            pid for pid in result.p_match if pid not in (1, 4)
        ]
        values = {tuple(parts[pid]) for pid in honest_members}
        assert len(values) == 1


class TestLemma3:
    """No Detected flags -> all fault-free decide the P_match value."""

    def test_checking_decision_equals_match_value(self):
        protocol, config, _ = build()
        k = config.data_symbols
        parts = {pid: [11] * k for pid in range(7)}
        result = run_generation(protocol, parts, [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_CHECKING
        for decision in result.decisions.values():
            assert list(decision) == [11] * k


class TestLemma4:
    """Diagnosis removes >= 1 edge, only bad edges, and never edges
    between fault-free processors."""

    @pytest.mark.parametrize("seed", range(10))
    def test_edge_removal_soundness(self, seed):
        faulty = [0, 3]
        adversary = RandomAdversary(faulty=faulty, seed=seed, rate=0.9)
        protocol, config, graph = build(adversary=adversary)
        k = config.data_symbols
        parts = {pid: [5] * k for pid in range(7)}
        result = run_generation(protocol, parts, [0] * k)
        for a, b in graph.removed_edges():
            assert a in faulty or b in faulty
        if result.outcome is GenerationOutcome.DECIDED_DIAGNOSIS:
            # Progress: at least one bad edge removed or a liar isolated.
            assert result.removed_edges or result.isolated

    @pytest.mark.parametrize("seed", range(10))
    def test_fault_free_clique_survives(self, seed):
        faulty = [2, 6]
        adversary = RandomAdversary(faulty=faulty, seed=seed, rate=1.0)
        protocol, config, graph = build(adversary=adversary)
        k = config.data_symbols
        run_generation(protocol, {pid: [1] * k for pid in range(7)}, [0] * k)
        honest = [pid for pid in range(7) if pid not in faulty]
        for i, j in itertools.combinations(honest, 2):
            assert graph.trusts(i, j)


class TestLemma5:
    """Diagnosis-stage decisions are common and equal the P_match value."""

    def test_diagnosis_decision(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [6]})
        protocol, config, _ = build(adversary=adversary)
        k = config.data_symbols
        parts = {pid: [13] * k for pid in range(7)}
        result = run_generation(protocol, parts, [0] * k)
        assert result.outcome is GenerationOutcome.DECIDED_DIAGNOSIS
        assert result.p_decide is not None
        assert len(set(result.decisions.values())) == 1
        assert list(next(iter(result.decisions.values()))) == [13] * k

    def test_p_decide_size_is_n_minus_2t(self):
        adversary = SymbolCorruptionAdversary(faulty=[0], victims={0: [6]})
        protocol, config, _ = build(adversary=adversary)
        k = config.data_symbols
        result = run_generation(
            protocol, {pid: [2] * k for pid in range(7)}, [0] * k
        )
        assert len(result.p_decide) == 7 - 2 * 2


class TestTheorem1:
    """End-to-end: every claim of Theorem 1 in all executions."""

    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_three_properties(self, n, t, seed):
        faulty = list(range(t))
        adversary = RandomAdversary(faulty=faulty, seed=seed, rate=0.7)
        config = ConsensusConfig.create(
            n=n, t=t, l_bits=(n - 2 * t) * 32
        )
        inputs = [0xC0FFEE % (1 << config.l_bits)] * n
        result = MultiValuedConsensus(config, adversary=adversary).run(inputs)
        assert invariants.violations(config, inputs, result) == []
