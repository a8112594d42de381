"""Deterministic clique search used for ``P_match`` and ``P_decide``.

Both of the paper's set-finding steps — line 1(e) (a set of ``n - t``
processors whose M flags are pairwise true) and line 3(h) (a set of
``n - 2t`` processors in ``P_match`` that pairwise trust each other) — are
clique problems.  The search below is exact (so the protocol never misses a
set that exists, which would break validity) and deterministic (sorted
iteration order), so every fault-free processor computes the same set from
the same broadcast information, as the paper requires.

Two entry points share one bitset core:

* :func:`find_clique` — the original dict-of-sets adjacency API;
* :func:`find_clique_matrix` — an ``(n, n)`` boolean adjacency-matrix
  fast path, fed directly from :meth:`DiagnosisGraph.trust_mask` and the
  vectorized engines' M-matrices without building per-vertex sets.

The core keeps the candidate pool as Python-int bitmasks (one word per 64
vertices) and first takes the depth-first search's own first descent:
repeatedly the lowest allowed position, intersecting neighbour masks.
When that descent reaches ``size`` it is the answer.  This is exact:
every position it picks is the lowest one that extends the prefix, so
no ``size``-clique is lexicographically smaller, and a member of any
``size``-clique survives the pruning below, so the descent is also the
pruned search's first leaf.  Only a descent that dead-ends pays for
the full search, which applies an iterated degree bound before
backtracking: a vertex with fewer than ``size - 1`` neighbours inside
the pool cannot belong to a ``size``-clique, and removing it can expose
further such vertices, so the pool shrinks to its ``(size - 1)``-core
first.  Neither the descent, the pruning nor the bitset DFS changes the
answer — the first clique in lexicographic depth-first order, exactly
as the original recursive search returned — they only cut the search
space, keeping the worst case practical at ``n = 63`` and beyond (the
exponential blow-up of the unpruned search was the asymptotic
bottleneck of large-n fault-injection sweeps).

Candidate pools are deduplicated and sorted before either entry point
searches them, so a repeated candidate id is one vertex.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np


def _clique_positions(sym: List[int], size: int) -> Optional[List[int]]:
    """Lexicographically-first ``size``-clique over pool positions.

    ``sym[p]`` holds the neighbour positions of pool position ``p`` as a
    bitmask; the caller guarantees the masks are symmetric (see
    :func:`_symmetric_masks`).  Returns ascending positions, or ``None``.
    """
    count = len(sym)
    if size <= 0:
        return []
    if count < size:
        return None

    # The DFS's first descent: when it reaches ``size``, it is the
    # lexicographically-first clique and no pruning is needed.
    found: List[int] = []
    allowed = (1 << count) - 1
    while allowed and len(found) < size:
        p = (allowed & -allowed).bit_length() - 1
        found.append(p)
        allowed &= sym[p]
    if len(found) == size:
        return found

    # Iterated degree bound: shrink the pool to its (size - 1)-core.
    alive = (1 << count) - 1
    changed = True
    while changed:
        changed = False
        remaining = alive
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            p = low.bit_length() - 1
            if (sym[p] & alive).bit_count() < size - 1:
                alive ^= low
                changed = True
        if alive.bit_count() < size:
            return None

    sym = [sym[p] & alive for p in range(count)]

    def extend(found: List[int], allowed: int) -> Optional[List[int]]:
        if len(found) == size:
            return found
        if len(found) + allowed.bit_count() < size:
            return None
        while allowed:
            low = allowed & -allowed
            allowed ^= low  # the loop's tail: positions after this one
            p = low.bit_length() - 1
            result = extend(found + [p], allowed & sym[p])
            if result is not None:
                return result
            if len(found) + allowed.bit_count() < size:
                return None
        return None

    return extend([], alive)


def _symmetric_masks(sub: np.ndarray) -> List[int]:
    """Per-position neighbour bitmasks of a boolean sub-matrix.

    The search treats positions ``p < q`` as adjacent iff ``sub[p, q]``
    (the lower endpoint's row decides — the original dict search's
    semantics for asymmetric inputs), so the matrix is symmetrized from
    its upper triangle before packing rows into Python-int masks.
    """
    upper = np.triu(sub, 1)
    packed = np.packbits(upper | upper.T, axis=1, bitorder="little")
    row_bytes = packed.tobytes()
    width = packed.shape[1]
    return [
        int.from_bytes(row_bytes[p * width:(p + 1) * width], "little")
        for p in range(sub.shape[0])
    ]


def find_clique(
    adjacency: Dict[int, Set[int]],
    size: int,
    candidates: Optional[Iterable[int]] = None,
) -> Optional[List[int]]:
    """Return a sorted clique of exactly ``size`` vertices, or ``None``.

    Args:
        adjacency: vertex -> set of neighbours (self-loops ignored; for
            asymmetric inputs the lower endpoint's row decides, see
            :func:`_symmetric_masks`).
        size: exact clique size sought; ``size <= 0`` returns ``[]``.
        candidates: restricts the vertex pool (defaults to all vertices);
            repeated ids count once.

    Returns:
        The first ``size``-clique in lexicographic depth-first order as
        an ascending list, or ``None``.  The search is exact — it never
        misses an existing clique (protocol validity depends on that) —
        and deterministic, so every fault-free processor computes the
        same set from the same broadcast information.

    >>> find_clique({0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: set()}, 3)
    [0, 1, 2]
    >>> print(find_clique({0: {1}, 1: {0}, 2: set()}, 2, candidates=[1, 2]))
    None
    """
    if size <= 0:
        return []
    pool = sorted(
        {v for v in candidates if v in adjacency}
        if candidates is not None else adjacency
    )
    position = {v: p for p, v in enumerate(pool)}
    sub = np.zeros((len(pool), len(pool)), dtype=bool)
    for p, v in enumerate(pool):
        for u in adjacency[v]:
            q = position.get(u)
            if q is not None and q != p:
                sub[p, q] = True
    found = _clique_positions(_symmetric_masks(sub), size)
    if found is None:
        return None
    return [pool[p] for p in found]


def find_clique_matrix(
    adjacency: np.ndarray,
    size: int,
    candidates: Optional[Sequence[int]] = None,
) -> Optional[List[int]]:
    """:func:`find_clique` over an ``(n, n)`` boolean adjacency matrix.

    The matrix fast path of the vectorized engines — fed directly from
    :meth:`DiagnosisGraph.trust_mask` (``P_decide``, line 3(h)) and the
    M-matrices of the matching stage (``P_match``, line 1(e)) without
    building per-vertex Python sets.

    Args:
        adjacency: boolean ``(n, n)`` matrix; the diagonal is ignored
            and asymmetric entries resolve to the upper triangle.
        size: exact clique size sought; ``size <= 0`` returns ``[]``.
        candidates: optional vertex pool restriction; repeated and
            out-of-range ids are dropped.

    Returns:
        Exactly :func:`find_clique`'s answer on the same graph — the
        lexicographically-first clique, or ``None`` — which the
        equivalence suite asserts by fuzzing both entry points.

    >>> import numpy as np
    >>> adj = np.ones((4, 4), dtype=bool)
    >>> find_clique_matrix(adj, 3)
    [0, 1, 2]
    """
    if size <= 0:
        return []
    n = adjacency.shape[0]
    if candidates is not None:
        pool = sorted({v for v in candidates if 0 <= v < n})
        sub = adjacency[np.ix_(pool, pool)].astype(bool, copy=True)
    else:
        pool = list(range(n))
        sub = adjacency.astype(bool, copy=True)
    np.fill_diagonal(sub, False)
    found = _clique_positions(_symmetric_masks(sub), size)
    if found is None:
        return None
    return [pool[p] for p in found]
