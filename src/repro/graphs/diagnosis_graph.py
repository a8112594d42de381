"""The diagnosis graph (``Diag_Graph`` in Algorithm 1).

An undirected graph over the ``n`` processors.  An edge means mutual trust;
a missing edge means the two endpoints accuse each other.  It starts
complete, only ever loses edges, and evolves identically at every
fault-free processor because every update is driven by information
disseminated through ``Broadcast_Single_Bit``.

Invariants maintained by the protocol (paper §2, proven in Lemma 4):

* every removed edge has at least one faulty endpoint ("bad" edges only);
* fault-free processors trust each other forever;
* a vertex that loses more than ``t`` edges belongs to a faulty processor,
  which is then *isolated* (all remaining edges removed, never re-added).

The class itself enforces only the structural rules (monotone removal,
isolation bookkeeping); the semantic invariants are checked by the test
suite against ground-truth fault sets.

The graph *is* its symmetric ``(n, n)`` boolean adjacency matrix (plus
the set of isolated vertices): the engines' hot-path trust filtering is
a single mask lookup (:meth:`trust_mask`), a diagnosis removes its edges
as one matrix update (:meth:`remove_accused`), and the removal history
is read off the matrix — an edge is removed iff its entry is clear.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.cliques import find_clique_matrix, lower_triangle
from repro.utils.boundary import check_int


class DiagnosisGraph:
    """Mutable trust graph with removal history.

    >>> graph = DiagnosisGraph(4)
    >>> graph.trusts(0, 1)
    True
    >>> graph.remove_edge(0, 1)
    True
    >>> graph.trusts(0, 1)
    False
    >>> graph.removed_edges_at(0)
    1
    """

    def __init__(self, n: int):
        check_int(n, "n")
        if n < 2:
            raise ValueError("need at least 2 processors, got %d" % n)
        self.n = n
        adj = np.ones((n, n), dtype=bool)
        np.fill_diagonal(adj, False)
        self._adj: np.ndarray = adj
        self._isolated: Set[int] = set()

    # -- queries ------------------------------------------------------------

    def trusts(self, i: int, j: int) -> bool:
        """True iff the edge (i, j) is present.  A processor trusts itself."""
        self._check(i)
        self._check(j)
        if i == j:
            return True
        return bool(self._adj[i, j])

    def trust_mask(self) -> np.ndarray:
        """The adjacency matrix as a read-only boolean mask.

        ``mask[i, j]`` is True iff ``i`` and ``j`` (``i != j``) trust each
        other; the diagonal is False.  The view is backed by live graph
        state — it reflects subsequent removals — and is marked
        non-writeable so callers cannot bypass the mutators.
        """
        view = self._adj.view()
        view.flags.writeable = False
        return view

    def trusted_by(self, i: int) -> Set[int]:
        """The set of processors ``i`` trusts (excluding itself)."""
        self._check(i)
        return set(map(int, np.flatnonzero(self._adj[i])))

    def degree(self, i: int) -> int:
        self._check(i)
        return int(self._adj[i].sum())

    def removed_edges_at(self, i: int) -> int:
        """How many of ``i``'s original ``n - 1`` edges have been removed."""
        self._check(i)
        return (self.n - 1) - self.degree(i)

    def is_isolated(self, i: int) -> bool:
        """True iff ``i`` has been explicitly isolated as identified-faulty."""
        self._check(i)
        return i in self._isolated

    @property
    def isolated(self) -> Set[int]:
        return set(self._isolated)

    def edges(self) -> List[Tuple[int, int]]:
        """All present edges as sorted (i, j) pairs with i < j."""
        upper = np.triu(self._adj, k=1)
        return [(int(i), int(j)) for i, j in np.argwhere(upper)]

    def removed_edges(self) -> List[Tuple[int, int]]:
        """All removed edges as sorted (i, j) pairs with i < j."""
        upper = np.triu(~self._adj, k=1)
        return [(int(i), int(j)) for i, j in np.argwhere(upper)]

    # -- mutation -----------------------------------------------------------

    def _check(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError("vertex %d out of range [0, %d)" % (i, self.n))

    def remove_edge(self, i: int, j: int) -> bool:
        """Remove edge (i, j); returns True if it was present."""
        self._check(i)
        self._check(j)
        if i == j:
            raise ValueError("diagnosis graph has no self-edges")
        if not self._adj[i, j]:
            return False
        self._adj[i, j] = False
        self._adj[j, i] = False
        return True

    def remove_accused(self, accuse: np.ndarray) -> List[Tuple[int, int]]:
        """Line 3(e) as one matrix update: remove every present edge
        ``(i, j)`` with ``accuse[i, j]`` set (an ``(n, n)`` boolean
        matrix; self-accusations name no edge and are ignored).

        Returns the removed edges as sorted pairs, in the order the
        loop ``for i, j in np.argwhere(accuse): remove_edge(i, j)``
        removes them: row-major over the accusations, an edge accused
        from both ends listed where it is first accused.
        """
        n = self.n
        adj = self._adj
        hit = accuse & adj
        # A hit below the diagonal comes second when its mirror (an
        # earlier row) is hit too.
        hit &= ~(hit.T & lower_triangle(n))
        # The hits' row-major flat indices, then both mirrors cleared
        # through the flat view (the matrix is C-contiguous: only this
        # class builds it).
        flat = np.flatnonzero(hit)
        rows, cols = np.divmod(flat, n)
        entries = adj.reshape(-1)
        entries[flat] = False
        entries[cols * n + rows] = False
        return list(zip(
            np.minimum(rows, cols).tolist(), np.maximum(rows, cols).tolist()
        ))

    def isolate(self, i: int) -> None:
        """Mark ``i`` identified-faulty and drop all its remaining edges."""
        self._check(i)
        self._isolated.add(i)
        self._adj[i, :] = False
        self._adj[:, i] = False

    def apply_overdegree_rule(self, t: int) -> List[int]:
        """Line 3(g): isolate every vertex with more than ``t`` removed edges.

        Returns the newly isolated vertices (sorted).  Isolating a vertex
        removes edges, which can push *other* vertices over the threshold,
        but only vertices already over it at call time are isolated — the
        paper applies the rule to edges removed "so far", and cascades are
        picked up on the next diagnosis.  (Fault-free vertices can never
        exceed the threshold: they keep their >= n - t - 1 mutual edges.)
        """
        # (n - 1) - degree >= t + 1, i.e. degree <= n - t - 2.
        degrees = self._adj.sum(axis=1)
        over = [
            i
            for i in np.flatnonzero(degrees <= self.n - t - 2).tolist()
            if i not in self._isolated
        ]
        for i in over:
            self.isolate(i)
        return over

    # -- set finding ----------------------------------------------------------

    def find_trusting_set(
        self, size: int, candidates: Optional[Sequence[int]] = None
    ) -> Optional[List[int]]:
        """A ``size``-subset of ``candidates`` that pairwise trust each other.

        Used for ``P_decide`` (line 3(h)).  Deterministic; returns ``None``
        if no such set exists.  Runs on the adjacency matrix directly — no
        per-vertex set materialization.
        """
        return find_clique_matrix(self._adj, size, candidates)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible snapshot (for checkpointing across sessions).

        The diagnosis graph is the only protocol state that must survive
        between generations, so persisting it lets a deployment resume
        consensus on a new value without re-learning fault locations.
        """
        return {
            "n": self.n,
            "removed": self.removed_edges(),
            "isolated": sorted(self._isolated),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DiagnosisGraph":
        """Inverse of :meth:`to_dict`; validates structural consistency."""
        graph = cls(int(payload["n"]))
        for edge in payload.get("removed", []):
            i, j = int(edge[0]), int(edge[1])
            graph.remove_edge(i, j)
        for pid in payload.get("isolated", []):
            graph.isolate(int(pid))
        return graph

    def copy(self) -> "DiagnosisGraph":
        dup = DiagnosisGraph(self.n)
        dup._adj = self._adj.copy()
        dup._isolated = set(self._isolated)
        return dup

    def __repr__(self) -> str:
        return "DiagnosisGraph(n=%d, removed=%d, isolated=%r)" % (
            self.n,
            len(self.removed_edges()),
            sorted(self._isolated),
        )
