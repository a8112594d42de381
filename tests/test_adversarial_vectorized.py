"""Vectorized adversarial path: equivalence with the forced-scalar run.

The tentpole contract of the adversarial vectorization: with
``vectorized=True`` (the default) every generation that can deviate runs
through array-backed views, yet the execution is observationally
identical to the scalar per-edge reference implementation — decisions,
per-generation records, trust-graph evolution, bits *and* messages by
tag, the round clock and backend instance counts.  Every
:class:`~repro.processors.adversary.Adversary` hook is exercised at
n ∈ {4, 7, 10}, the seeded chaos monkey's included.

Also covers the clique-search rewrite the large-n path depends on: the
bitset/degree-pruned search must stay exactly lexicographic-first, and
n = 63 fault-injection (whose diagnosis-stage clique searches made the
unpruned search the asymptotic bottleneck) must finish within a time
budget.
"""

import random
import time

import numpy as np
import pytest

from repro.processors import FAULT_GRID_ATTACKS, make_attack
from repro.core.batched import _InstanceRun
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.graphs.cliques import find_clique, find_clique_matrix
from repro.processors.adversary import Adversary
from repro.processors.byzantine import RandomAdversary
from repro.service.arena import ExchangeArena
from repro.core.planner import Lane, plan_lane

#: Consensus-engine adversary hooks the equivalence suite must exercise.
CONSENSUS_HOOKS = {
    "input_value",
    "matching_row",
    "m_row",
    "detected_flag",
    "diagnosis_symbol",
    "trust_row",
}


class RecordingRandomAdversary(RandomAdversary):
    """Seeded chaos monkey that records which hooks actually fired."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.called = set()

    def __getattribute__(self, name):
        if name in CONSENSUS_HOOKS:
            object.__getattribute__(self, "called").add(name)
        return object.__getattribute__(self, name)


class DiagnosisLiarAdversary(Adversary):
    """Behaves honestly except for lying in the diagnosis R# broadcast.

    Triggers the diagnosis stage by crying Detected from outside
    ``P_match``; when inside, broadcasts a flipped symbol, so the
    ``diagnosis_symbol`` hook drives real edge removals.
    """

    def detected_flag(self, pid, honest_flag, generation, view):
        return True

    def diagnosis_symbol(self, pid, honest_symbol, generation, view):
        return honest_symbol ^ 1


def assert_runs_equivalent(config, inputs, adversary_factory, label):
    runs = {}
    for vectorized in (True, False):
        # batch_generations=False: this suite holds the *per-generation*
        # vectorized engine to the scalar one (the default engine for
        # these runs is the cohort, covered by test_differential.py).
        consensus = MultiValuedConsensus(
            config,
            adversary=adversary_factory(),
            vectorized=vectorized,
            batch_generations=False,
        )
        runs[vectorized] = (consensus, consensus.run(inputs))
    vec_consensus, vec = runs[True]
    scalar_consensus, scalar = runs[False]
    assert vec.decisions == scalar.decisions, label
    assert vec.meter.bits_by_tag == scalar.meter.bits_by_tag, label
    assert (
        vec.meter.messages_by_tag == scalar.meter.messages_by_tag
    ), label
    assert vec.default_used == scalar.default_used, label
    assert vec.diagnosis_count == scalar.diagnosis_count, label
    assert (
        vec_consensus.graph.removed_edges()
        == scalar_consensus.graph.removed_edges()
    ), label
    assert (
        vec_consensus.graph.isolated == scalar_consensus.graph.isolated
    ), label
    assert len(vec.generation_results) == len(
        scalar.generation_results
    ), label
    for fast, slow in zip(
        vec.generation_results, scalar.generation_results
    ):
        assert fast.generation == slow.generation
        assert fast.outcome is slow.outcome, (label, fast.generation)
        assert fast.decisions == slow.decisions, (label, fast.generation)
        assert fast.p_match == slow.p_match, (label, fast.generation)
        assert fast.p_decide == slow.p_decide, (label, fast.generation)
        assert fast.removed_edges == slow.removed_edges, (
            label, fast.generation,
        )
        assert fast.isolated == slow.isolated, (label, fast.generation)
        assert fast.detectors == slow.detectors, (label, fast.generation)
    assert (
        vec_consensus.network.round_index
        == scalar_consensus.network.round_index
    ), label
    assert (
        vec_consensus.backend.stats.instances
        == scalar_consensus.backend.stats.instances
    ), label
    assert (
        vec_consensus.backend.stats.bits_charged
        == scalar_consensus.backend.stats.bits_charged
    ), label
    return runs


class TestRegisteredAttackEquivalence:
    """Every registry attack, equal inputs, n = 10 (n ∈ {4, 7} are the
    journal rows of ``test_differential.py``: a recorded run takes this
    engine on every path)."""

    @pytest.mark.parametrize("n", [10])
    @pytest.mark.parametrize("attack", sorted(FAULT_GRID_ATTACKS))
    def test_attack(self, n, attack):
        config = ConsensusConfig.create(n=n, l_bits=512)
        value = random.Random(31 * n).getrandbits(512)
        assert_runs_equivalent(
            config,
            [value] * n,
            lambda: make_attack(attack, n, config.t, 512),
            "%s n=%d" % (attack, n),
        )


class TestRandomAdversaryEquivalence:
    """The seeded chaos monkey: its answers are drawn by key from the
    hook arguments, so any change in those arguments between the two
    paths changes what it sends and fails loudly."""

    @pytest.mark.parametrize("n", [4, 7, 10])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equal_inputs(self, n, seed):
        config = ConsensusConfig.create(n=n, l_bits=256)
        value = random.Random(seed).getrandbits(256)
        faulty = list(range(n - config.t, n))
        assert_runs_equivalent(
            config,
            [value] * n,
            lambda: RandomAdversary(faulty, seed=seed, rate=0.4),
            "random n=%d seed=%d" % (n, seed),
        )

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_differing_inputs(self, n):
        config = ConsensusConfig.create(n=n, l_bits=256)
        rng = random.Random(17 * n)
        inputs = [rng.getrandbits(256) for _ in range(n)]
        faulty = list(range(n - config.t, n))
        assert_runs_equivalent(
            config,
            inputs,
            lambda: RandomAdversary(faulty, seed=5, rate=0.3),
            "random-diff n=%d" % n,
        )

    def test_low_pid_faulty(self):
        # Faulty processors below the reference pid: the reference view
        # must track the lowest *honest* processor on both paths.
        config = ConsensusConfig.create(n=7, l_bits=256)
        value = random.Random(23).getrandbits(256)
        assert_runs_equivalent(
            config,
            [value] * 7,
            lambda: RandomAdversary([0, 1], seed=9, rate=0.5),
            "random low-pid",
        )

    @pytest.mark.parametrize("n,seed", [(4, 13), (7, 3), (10, 3)])
    def test_every_consensus_hook_fires(self, n, seed):
        # Faulty pid 0 mostly behaves (rate 0.25), so it regularly sits
        # inside P_match when another faulty processor triggers a
        # diagnosis — the only way diagnosis_symbol fires; the seeds are
        # chosen so every consensus hook fires at every n.
        config = ConsensusConfig.create(n=n, l_bits=512)
        value = random.Random(n).getrandbits(512)
        faulty = [0] + (
            list(range(n - config.t + 1, n)) if config.t > 1 else []
        )
        recorders = []

        def factory():
            recorder = RecordingRandomAdversary(
                faulty, seed=seed, rate=0.25
            )
            recorders.append(recorder)
            return recorder

        assert_runs_equivalent(
            config, [value] * n, factory, "recorded n=%d" % n
        )
        for recorder in recorders:
            assert CONSENSUS_HOOKS <= recorder.called, (
                "hooks never exercised: %r"
                % sorted(CONSENSUS_HOOKS - recorder.called)
            )


class TestDiagnosisLiarEquivalence:
    """The diagnosis_symbol hook drives real R# lies on both paths."""

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_diagnosis_liar(self, n):
        config = ConsensusConfig.create(n=n, l_bits=512)
        value = random.Random(5 * n).getrandbits(512)
        runs = assert_runs_equivalent(
            config,
            [value] * n,
            lambda: DiagnosisLiarAdversary([n - 1]),
            "diagnosis-liar n=%d" % n,
        )
        _, result = runs[True]
        assert result.diagnosis_count > 0
        assert result.error_free


class TestVectorizedDispatch:
    def test_vectorized_path_engaged(self, monkeypatch):
        # The scalar stage methods must never run when vectorized: break
        # one and make sure a faulty run still succeeds.
        from repro.core.generation import GenerationProtocol

        def boom(*args, **kwargs):
            raise AssertionError("scalar path used despite vectorized=True")

        monkeypatch.setattr(
            GenerationProtocol, "_matching_broadcast", boom
        )
        config = ConsensusConfig.create(n=7, l_bits=256)
        result = MultiValuedConsensus(
            config,
            adversary=make_attack("trust_poison", 7, 2, 256),
            batch_generations=False,
        ).run([99] * 7)
        assert result.error_free

    def test_probabilistic_backend_falls_back_to_scalar(self):
        # The shared-reference-view shortcut is only sound under the
        # error-free broadcast contract; the §4 substrate keeps the
        # scalar per-pid views, whatever the toggle asks for.
        config = ConsensusConfig.create(
            n=4, t=1, l_bits=64, backend="dolev_strong"
        )
        for batch_generations in (True, False):
            assert plan_lane(
                config, True, batch_generations, Adversary(), [7] * 4
            ) is Lane.REFERENCE

    @pytest.mark.parametrize("backend", ["phase_king", "eig"])
    def test_real_round_backends_run_the_reference(
        self, backend, monkeypatch
    ):
        # A backend whose honest broadcasts run real rounds prices
        # nothing, so a diagnosing run takes the scalar reference: the
        # batched generation body never runs, and the run builds no
        # context and acquires nothing.
        def boom(*args, **kwargs):
            raise AssertionError("batched generation under %s" % backend)

        monkeypatch.setattr(_InstanceRun, "step", boom)
        monkeypatch.setattr(ExchangeArena, "trust_view", boom)
        config = ConsensusConfig.create(n=7, l_bits=64, backend=backend)
        consensus = MultiValuedConsensus(
            config, adversary=make_attack("corrupt", 7, config.t, 64)
        )
        result = consensus.run([0x5A5A] * 7)
        assert result.error_free and result.diagnosis_count >= 1
        assert consensus._context is None

    @pytest.mark.parametrize("attack", ["omit_rounds", "delay_storm"])
    def test_fault_plans_run_the_reference(self, attack, monkeypatch):
        # A fault plan attacks the network itself: an honest batch may
        # arrive in part and stale messages arrive late, which only the
        # scalar reference reads edge by edge.  Every toggle, recorded
        # or not, takes it there; forcing the sent round is refused.
        from repro.service.engine import execute_consensus

        config = ConsensusConfig.create(n=7, l_bits=64)
        adversary = make_attack(attack, 7, config.t, 64, seed=3)
        for vectorized in (True, False):
            for batch_generations in (True, False):
                for journal in (True, False):
                    assert plan_lane(
                        config, vectorized, batch_generations, adversary,
                        [7] * 7, reuse_results=True, journal=journal,
                    ) is Lane.REFERENCE
        with pytest.raises(ValueError, match="injected faults"):
            execute_consensus(MultiValuedConsensus(
                config, adversary=make_attack(attack, 7, config.t, 64, seed=3)
            ), [7] * 7, Lane.PER_GENERATION)

        def boom(*args, **kwargs):
            raise AssertionError("batched generation under a fault plan")

        monkeypatch.setattr(_InstanceRun, "step", boom)
        monkeypatch.setattr(ExchangeArena, "trust_view", boom)
        consensus = MultiValuedConsensus(
            config, adversary=make_attack(attack, 7, config.t, 64, seed=3)
        )
        assert consensus.run([0x5A5A] * 7).error_free
        # A reference run builds no context and acquires nothing.
        assert consensus._context is None

    def test_phase_king_backend_equivalence(self):
        # A real (non-ideal) error-free backend under faults: both
        # toggles must meter its per-bit broadcasts identically.
        config = ConsensusConfig.create(
            n=4, l_bits=64, backend="phase_king"
        )
        assert_runs_equivalent(
            config,
            [0x5A5A] * 4,
            lambda: make_attack("corrupt", 4, config.t, 64),
            "phase_king corrupt",
        )


class TestSweepFaults:
    """The registry's refusals (the fault grid's agreement, validity and
    ``t(t+1)`` bound: ``tests/test_differential.py``,
    ``test_reference_holds_theorem_1``)."""

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError, match="unknown attack"):
            make_attack("nope", 7, 2, 64)

    def test_attacks_need_faults(self):
        with pytest.raises(ValueError, match="t >= 1"):
            make_attack("crash", 4, 0, 64)


class TestCliqueSearchRegression:
    """The degree-pruned bitset search: exact lexicographic-first results
    and a practical worst case at n = 63."""

    @staticmethod
    def _brute_force_clique(adjacency, size, candidates=None):
        # Independent oracle: the lexicographically-first size-subset of
        # the pool that is pairwise adjacent (itertools.combinations
        # yields sorted tuples in lexicographic order).
        from itertools import combinations

        pool = sorted(candidates) if candidates is not None else sorted(
            adjacency
        )
        pool = [v for v in pool if v in adjacency]
        if size <= 0:
            return []
        for subset in combinations(pool, size):
            if all(
                b in adjacency[a]
                for a, b in combinations(subset, 2)
            ):
                return list(subset)
        return None

    def test_matrix_matches_dict_search_and_brute_force(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randrange(2, 12)
            p = rng.choice([0.3, 0.6, 0.9])
            matrix = np.zeros((n, n), dtype=bool)
            adjacency = {i: set() for i in range(n)}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        matrix[i, j] = matrix[j, i] = True
                        adjacency[i].add(j)
                        adjacency[j].add(i)
            size = rng.randrange(0, n + 1)
            candidates = None
            if rng.random() < 0.3:
                candidates = rng.sample(range(n), rng.randrange(n + 1))
            expected = self._brute_force_clique(
                adjacency, size, candidates
            )
            assert find_clique(adjacency, size, candidates) == expected
            assert find_clique_matrix(matrix, size, candidates) == expected

    def test_lexicographic_first_preserved(self):
        # The pruning must not change which clique is returned.
        matrix = np.ones((6, 6), dtype=bool)
        np.fill_diagonal(matrix, False)
        matrix[0, 1] = matrix[1, 0] = False
        assert find_clique_matrix(matrix, 3) == [0, 2, 3]

    def test_degree_pruning_shrinks_near_threshold_graphs(self):
        # The diagnosis regime at n = 63: a near-complete graph minus
        # the accumulated bad edges.  Vertices that lost enough edges
        # fall below the (size-1)-degree bound and are peeled off by the
        # iterated core reduction before any search, so both the
        # found and not-found cases stay far under a second.
        rng = random.Random(11)
        n, t = 63, 20
        matrix = np.ones((n, n), dtype=bool)
        np.fill_diagonal(matrix, False)
        # Concentrate removals on the t highest pids (bad edges always
        # touch a faulty endpoint), pushing them under the degree bound.
        for faulty in range(n - t, n):
            for victim in rng.sample(range(n - t), t + 1):
                matrix[faulty, victim] = matrix[victim, faulty] = False
        start = time.perf_counter()
        found = find_clique_matrix(matrix, n - t)
        assert found == list(range(n - t))
        assert find_clique_matrix(matrix, n - 5) is None
        assert time.perf_counter() - start < 1.0

    def test_subcritical_graph_pruned_instantly(self):
        # Random p = 0.5 at n = 63: every vertex has degree ~31, far
        # below the 42 needed for a 43-clique, so the (size-1)-core
        # reduction empties the pool without any search.
        rng = random.Random(7)
        n = 63
        matrix = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    matrix[i, j] = matrix[j, i] = True
        start = time.perf_counter()
        assert find_clique_matrix(matrix, 43) is None
        assert time.perf_counter() - start < 0.1

    def test_n63_diagnosis_under_time_budget(self):
        # End-to-end regression for the large-n adversarial path: a
        # single-generation n = 63 run whose checking stage detects and
        # whose diagnosis stage runs P_match/P_decide clique searches on
        # 63-vertex graphs.  Budget is ~30x the observed wall-clock; the
        # unpruned per-edge engine took orders of magnitude longer.
        n = 63
        config = ConsensusConfig.create(n=n, l_bits=256)
        assert config.generations <= 2
        value = random.Random(63).getrandbits(256)
        start = time.perf_counter()
        result = MultiValuedConsensus(
            config,
            adversary=make_attack("corrupt", n, config.t, 256),
            batch_generations=False,
        ).run([value] * n)
        elapsed = time.perf_counter() - start
        assert result.error_free
        assert result.diagnosis_count == 1
        assert elapsed < 5.0
