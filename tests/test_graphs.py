"""Diagnosis graph and clique search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.cliques import (
    adjacency_masks, find_clique, find_clique_masks, find_clique_matrix,
)
from repro.graphs.diagnosis_graph import DiagnosisGraph


def complete_adjacency(n):
    return {i: set(range(n)) - {i} for i in range(n)}


class TestFindClique:
    def test_complete_graph(self):
        clique = find_clique(complete_adjacency(5), 4)
        assert clique == [0, 1, 2, 3]

    def test_size_zero(self):
        assert find_clique(complete_adjacency(3), 0) == []

    def test_no_clique(self):
        adjacency = {0: {1}, 1: {0}, 2: set()}
        assert find_clique(adjacency, 3) is None

    def test_exact_triangle(self):
        adjacency = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: set()}
        assert find_clique(adjacency, 3) == [0, 1, 2]

    def test_candidates_restriction(self):
        adjacency = complete_adjacency(6)
        clique = find_clique(adjacency, 3, candidates=[3, 4, 5])
        assert clique == [3, 4, 5]

    def test_deterministic_lexicographic(self):
        # Two disjoint triangles; search must return the lexicographically
        # first one every time (fault-free processors must agree on it).
        adjacency = {
            0: {1, 2}, 1: {0, 2}, 2: {0, 1},
            3: {4, 5}, 4: {3, 5}, 5: {3, 4},
        }
        for _ in range(3):
            assert find_clique(adjacency, 3) == [0, 1, 2]

    def test_skips_blocked_low_vertices(self):
        # Vertex 0 has high degree but its neighbourhood is sparse.
        adjacency = {
            0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0},
            4: {5, 6}, 5: {4, 6}, 6: {4, 5},
        }
        assert find_clique(adjacency, 3) == [4, 5, 6]

    def test_missing_candidate_vertices_ignored(self):
        adjacency = {0: {1}, 1: {0}}
        assert find_clique(adjacency, 2, candidates=[0, 1, 9]) == [0, 1]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_returned_set_is_clique(self, data):
        n = data.draw(st.integers(3, 9))
        edges = data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=n * n,
            )
        )
        adjacency = {i: set() for i in range(n)}
        for a, b in edges:
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)
        size = data.draw(st.integers(1, n))
        clique = find_clique(adjacency, size)
        if clique is not None:
            assert len(clique) == size
            for i in clique:
                for j in clique:
                    if i != j:
                        assert j in adjacency[i]


def brute_force_clique(adjacency, size, candidates=None):
    """The lexicographically-first ``size``-clique by enumeration: the
    pool is the distinct in-range candidates, and ``u < v`` are adjacent
    iff ``adjacency[u, v]`` (the lower endpoint's row decides)."""
    n = adjacency.shape[0]
    if size <= 0:
        return []
    pool = sorted(
        set(range(n)) if candidates is None
        else {v for v in candidates if 0 <= v < n}
    )
    for combo in itertools.combinations(pool, size):
        if all(adjacency[u, v] for u, v in itertools.combinations(combo, 2)):
            return list(combo)
    return None


class TestFindCliqueMatrix:
    """:func:`find_clique_matrix` against enumeration: the first descent
    and the pruned backtracking search both return the
    lexicographically-first clique."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force(self, data):
        n = data.draw(st.integers(1, 12))
        density = data.draw(st.sampled_from([0.3, 0.6, 0.85, 1.0]))
        size = data.draw(st.integers(0, n + 1))
        # Asymmetric, with arbitrary diagonal entries, drawn from a seed
        # (hypothesis' own booleans cluster at all-True / all-False).
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        adjacency = rng.random((n, n)) < density
        # A planted size-clique among sparse edges makes the first
        # descent dead-end often, so the backtracking search answers.
        if data.draw(st.booleans()):
            planted = np.sort(rng.permutation(n)[:size])
            adjacency[np.ix_(planted, planted)] = True
        candidates = data.draw(st.one_of(
            st.none(),
            st.lists(st.integers(-2, n + 2), max_size=2 * n),
        ))
        assert find_clique_matrix(adjacency, size, candidates) == (
            brute_force_clique(adjacency, size, candidates)
        )

    def test_dead_end_descent_backtracks(self):
        # The first descent takes 0, then 1, and 1 has no neighbour
        # beyond 0: it dead-ends at two vertices, and the search backs
        # out to {0, 2, 3}.
        adjacency = np.zeros((4, 4), dtype=bool)
        for u, v in [(0, 1), (0, 2), (0, 3), (2, 3)]:
            adjacency[u, v] = adjacency[v, u] = True
        assert find_clique_matrix(adjacency, 3) == [0, 2, 3]
        assert brute_force_clique(adjacency, 3) == [0, 2, 3]

    def test_repeated_candidate_is_one_vertex(self):
        # A repeated id once came back twice, as a 3-clique [0, 0, 1].
        adjacency = np.ones((4, 4), dtype=bool)
        assert find_clique_matrix(adjacency, 3, candidates=[0, 0, 1]) is None
        assert find_clique(
            complete_adjacency(4), 3, candidates=[0, 0, 1]
        ) is None
        assert find_clique_matrix(adjacency, 2, candidates=[1, 1, 0]) == [0, 1]


class TestPoolMasks:
    """A candidate pool is a bitmask over the full matrix's vertex ids,
    and ``slow_bleed``'s planner edits two bits of the packed masks per
    probe: both equal the search on the copied (or edited) matrix."""

    @staticmethod
    def _draw(data):
        n = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        density = data.draw(st.sampled_from([0.4, 0.7, 0.9, 1.0]))
        # Asymmetric, arbitrary diagonal: the upper triangle decides.
        return n, rng, rng.random((n, n)) < density

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_pool_bitmask_equals_the_copied_submatrix(self, data):
        n, rng, adjacency = self._draw(data)
        count = data.draw(st.integers(0, n))
        pool = sorted(rng.permutation(n)[:count].tolist())
        size = data.draw(st.integers(0, len(pool) + 1))
        sub = adjacency[np.ix_(pool, pool)]
        on_copy = find_clique_matrix(sub, size)
        expected = None if on_copy is None else [pool[p] for p in on_copy]
        bits = sum(1 << v for v in pool)
        assert find_clique_masks(adjacency_masks(adjacency), size, bits) == (
            expected
        )
        assert find_clique_matrix(adjacency, size, candidates=pool) == (
            expected
        )

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_two_bit_edit_equals_the_edited_matrix(self, data):
        n, rng, adjacency = self._draw(data)
        a, v = (int(x) for x in rng.integers(0, n, size=2))
        size = data.draw(st.integers(0, n))
        masks = adjacency_masks(adjacency)
        broken = list(masks)
        broken[a] &= ~(1 << v)
        broken[v] &= ~(1 << a)
        edited = adjacency.copy()
        edited[a, v] = edited[v, a] = False
        assert find_clique_masks(broken, size) == (
            find_clique_matrix(edited, size)
        )
        # The edit is made on a copy: the packed masks are unchanged.
        assert masks == adjacency_masks(adjacency)


class TestPoolIds:
    """Pool ids go through ``operator.index``; a bool is refused, and an
    answer is made of Python ints."""

    def test_numpy_ids_answer_python_ints(self):
        answer = find_clique_matrix(
            np.ones((4, 4), dtype=bool), 2, candidates=np.array([3, 1])
        )
        assert answer == [1, 3]
        assert all(type(v) is int for v in answer)
        answer = find_clique(
            complete_adjacency(4), 2, candidates=np.array([3, 1])
        )
        assert answer == [1, 3]
        assert all(type(v) is int for v in answer)

    @pytest.mark.parametrize("candidates", [
        [True, False, 3], [np.True_, 2], [1, 2.0],
    ])
    def test_non_ids_refused_by_both_entry_points(self, candidates):
        with pytest.raises(TypeError):
            find_clique_matrix(np.ones((4, 4), dtype=bool), 2, candidates)
        with pytest.raises(TypeError):
            find_clique(complete_adjacency(4), 2, candidates)


class TestDiagnosisGraph:
    def test_starts_complete(self):
        graph = DiagnosisGraph(5)
        for i in range(5):
            for j in range(5):
                assert graph.trusts(i, j)
        assert len(graph.edges()) == 10

    def test_self_trust(self):
        graph = DiagnosisGraph(3)
        assert graph.trusts(1, 1)

    def test_remove_edge(self):
        graph = DiagnosisGraph(4)
        assert graph.remove_edge(0, 1)
        assert not graph.trusts(0, 1)
        assert not graph.trusts(1, 0)
        assert graph.removed_edges() == [(0, 1)]

    def test_remove_twice_is_noop(self):
        graph = DiagnosisGraph(4)
        assert graph.remove_edge(0, 1)
        assert not graph.remove_edge(0, 1)

    def test_remove_self_edge_rejected(self):
        graph = DiagnosisGraph(4)
        with pytest.raises(ValueError):
            graph.remove_edge(2, 2)

    def test_removed_edges_at(self):
        graph = DiagnosisGraph(5)
        graph.remove_edge(0, 1)
        graph.remove_edge(0, 2)
        assert graph.removed_edges_at(0) == 2
        assert graph.removed_edges_at(1) == 1
        assert graph.removed_edges_at(3) == 0

    def test_degree(self):
        graph = DiagnosisGraph(5)
        assert graph.degree(0) == 4
        graph.remove_edge(0, 4)
        assert graph.degree(0) == 3

    def test_isolate(self):
        graph = DiagnosisGraph(5)
        graph.isolate(2)
        assert graph.is_isolated(2)
        assert graph.trusted_by(2) == set()
        for other in (0, 1, 3, 4):
            assert not graph.trusts(other, 2)
        assert graph.isolated == {2}

    def test_overdegree_rule(self):
        graph = DiagnosisGraph(7)
        t = 2
        graph.remove_edge(0, 1)
        graph.remove_edge(0, 2)
        assert graph.apply_overdegree_rule(t) == []
        graph.remove_edge(0, 3)  # t + 1 = 3 removed edges now
        assert graph.apply_overdegree_rule(t) == [0]
        assert graph.is_isolated(0)

    def test_overdegree_does_not_reisolate(self):
        graph = DiagnosisGraph(7)
        graph.isolate(0)
        assert graph.apply_overdegree_rule(2) == []

    def test_find_trusting_set(self):
        graph = DiagnosisGraph(6)
        graph.remove_edge(0, 1)
        clique = graph.find_trusting_set(5)
        assert clique is not None
        assert not (0 in clique and 1 in clique)

    def test_find_trusting_set_with_candidates(self):
        graph = DiagnosisGraph(6)
        assert graph.find_trusting_set(3, candidates=[2, 3, 4]) == [2, 3, 4]

    def test_find_trusting_set_none(self):
        graph = DiagnosisGraph(4)
        for j in range(1, 4):
            graph.remove_edge(0, j)
        assert graph.find_trusting_set(2, candidates=[0, 1]) is None

    def test_copy_independent(self):
        graph = DiagnosisGraph(4)
        dup = graph.copy()
        graph.remove_edge(0, 1)
        assert dup.trusts(0, 1)
        assert not graph.trusts(0, 1)

    def test_bad_vertex_rejected(self):
        graph = DiagnosisGraph(3)
        with pytest.raises(ValueError):
            graph.trusts(0, 3)
        with pytest.raises(ValueError):
            graph.remove_edge(-1, 0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            DiagnosisGraph(1)

    def test_repr(self):
        graph = DiagnosisGraph(4)
        graph.remove_edge(0, 1)
        assert "removed=1" in repr(graph)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_monotone_removal_bookkeeping(self, data):
        n = data.draw(st.integers(3, 8))
        graph = DiagnosisGraph(n)
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=20,
            )
        )
        removed = set()
        for a, b in pairs:
            if a == b:
                continue
            graph.remove_edge(a, b)
            removed.add(frozenset((a, b)))
        assert len(graph.edges()) == n * (n - 1) // 2 - len(removed)
        for i in range(n):
            expected = sum(1 for e in removed if i in e)
            assert graph.removed_edges_at(i) == expected


class TestMatrixUpdatesMatchEdgeLoops:
    """The diagnosis stage's two array updates against the per-edge
    loops they replaced, run on a copy of the same graph: same returned
    list in the same order, same matrix, same removal history."""

    @staticmethod
    def _random_graph(data, n):
        """A reachable graph state: some edges gone, some vertices
        isolated (row and column clear)."""
        graph = DiagnosisGraph(n)
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for a, b in data.draw(st.lists(pair, max_size=2 * n)):
            if a != b:
                graph.remove_edge(a, b)
        for v in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
            graph.isolate(v)
        return graph

    @staticmethod
    def _assert_same_state(graph, oracle):
        assert np.array_equal(graph.trust_mask(), oracle.trust_mask())
        assert graph.removed_edges() == oracle.removed_edges()
        assert graph.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("n", [4, 7, 10])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_remove_accused_is_the_remove_edge_loop(self, n, data):
        graph = self._random_graph(data, n)
        oracle = graph.copy()
        accuse = np.array(
            data.draw(st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=n, max_size=n,
            )),
            dtype=bool,
        )
        expected = []
        for i, j in np.argwhere(accuse):
            if i != j and oracle.remove_edge(int(i), int(j)):
                expected.append(tuple(sorted((int(i), int(j)))))
        before = accuse.copy()
        assert graph.remove_accused(accuse) == expected
        assert np.array_equal(accuse, before)  # the argument is read only
        self._assert_same_state(graph, oracle)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_remove_accused_with_mirrors_and_self_accusations(self, data):
        """The documented loop on accusations a seed draws: mirrored
        pairs (an edge accused from both ends), self-accusations, edges
        already gone and isolated vertices."""
        n = data.draw(st.integers(2, 12))
        graph = self._random_graph(data, n)
        oracle = graph.copy()
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        accuse = rng.random((n, n)) < data.draw(
            st.sampled_from([0.1, 0.3, 0.6])
        )
        mirrored = rng.random((n, n)) < 0.5
        accuse |= accuse.T & mirrored
        np.fill_diagonal(accuse, rng.random(n) < 0.5)
        expected = []
        for i, j in np.argwhere(accuse):
            if i != j and oracle.remove_edge(int(i), int(j)):
                expected.append(tuple(sorted((int(i), int(j)))))
        assert graph.remove_accused(accuse) == expected
        self._assert_same_state(graph, oracle)

    @pytest.mark.parametrize("n", [4, 7, 10])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_isolate_is_the_per_edge_loop(self, n, data):
        graph = self._random_graph(data, n)
        oracle = graph.copy()
        v = data.draw(st.integers(0, n - 1))
        for j in sorted(oracle.trusted_by(v)):
            oracle.remove_edge(v, j)
        graph.isolate(v)
        assert graph.is_isolated(v)
        assert graph.trusted_by(v) == set()
        assert np.array_equal(graph.trust_mask(), oracle.trust_mask())
        assert graph.removed_edges() == oracle.removed_edges()

    def test_edge_accused_from_both_ends_is_listed_once_at_the_first(self):
        graph = DiagnosisGraph(4)
        accuse = np.zeros((4, 4), dtype=bool)
        accuse[3, 0] = accuse[0, 3] = accuse[2, 1] = accuse[1, 1] = True
        assert graph.remove_accused(accuse) == [(0, 3), (1, 2)]
        assert graph.remove_accused(accuse) == []
        assert graph.removed_edges() == [(0, 3), (1, 2)]

    def test_history_is_read_off_the_matrix(self):
        graph = DiagnosisGraph(5)
        assert graph.removed_edges() == []
        graph.isolate(4)
        assert graph.removed_edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
        assert DiagnosisGraph.from_dict(graph.to_dict()).to_dict() == (
            graph.to_dict()
        )
        assert "removed=4" in repr(graph)
