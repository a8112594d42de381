"""Deterministic clique search used for ``P_match`` and ``P_decide``.

Both of the paper's set-finding steps — line 1(e) (a set of ``n - t``
processors whose M flags are pairwise true) and line 3(h) (a set of
``n - 2t`` processors in ``P_match`` that pairwise trust each other) — are
clique problems.  The search below is exact (so the protocol never misses a
set that exists, which would break validity) and deterministic (sorted
iteration order), so every fault-free processor computes the same set from
the same broadcast information, as the paper requires.

Three entry points share one bitset core:

* :func:`find_clique` — the original dict-of-sets adjacency API;
* :func:`find_clique_matrix` — an ``(n, n)`` boolean adjacency-matrix
  fast path, fed directly from :meth:`DiagnosisGraph.trust_mask` and the
  vectorized engines' M-matrices without building per-vertex sets;
* :func:`find_clique_masks` — the core itself, over neighbour masks
  packed once by :func:`adjacency_masks`, for a caller that searches
  one matrix many times with small edits (``slow_bleed``'s planner
  clears two bits per probe instead of re-packing the matrix).

The core keeps each vertex's neighbours as a Python-int bitmask over
vertex ids (one word per 64 vertices) and a candidate pool as one more
mask over the same ids, so a pool restricts the search without a
sub-matrix copy: pool order is vertex order, and every neighbour count
below is taken inside the pool.  It first takes the depth-first
search's own first descent: repeatedly the lowest allowed vertex,
intersecting neighbour masks.  When that descent reaches ``size`` it is
the answer.  This is exact: every vertex it picks is the lowest one
that extends the prefix, so no ``size``-clique is lexicographically
smaller, and a member of any ``size``-clique survives the pruning
below, so the descent is also the pruned search's first leaf.  Only a
descent that dead-ends pays for the full search, which applies an
iterated degree bound before backtracking: a vertex with fewer than
``size - 1`` neighbours inside the pool cannot belong to a
``size``-clique, and removing it can expose further such vertices, so
the pool shrinks to its ``(size - 1)``-core first.  Neither the
descent, the pruning nor the bitset DFS changes the answer — the first
clique in lexicographic depth-first order, exactly as the original
recursive search returned — they only cut the search space, keeping
the worst case practical at ``n = 63`` and beyond (the exponential
blow-up of the unpruned search was the asymptotic bottleneck of
large-n fault-injection sweeps).

Candidate pools are sets of vertex ids: each id is read by the
engine-integer rule (:func:`repro.utils.boundary.engine_int`; a
``bool`` or a float is refused with :class:`TypeError`, so ``True``
never stands for vertex 1), a repeated id is one vertex, and answers
are Python ints.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.utils.boundary import engine_int


@functools.lru_cache(maxsize=None)
def lower_triangle(n: int) -> np.ndarray:
    """The read-only ``(n, n)`` mask of entries strictly below the
    diagonal (its transpose is the strict upper triangle); one per
    ``n``, shared by the clique packing and the diagnosis graph."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _vertex_id(v: object) -> int:
    """A candidate id as a Python int: an engine integer, never a bool."""
    return v if type(v) is int else engine_int(v, "candidate", TypeError)


def find_clique_masks(
    sym: Sequence[int], size: int, pool: Optional[int] = None
) -> Optional[List[int]]:
    """Lexicographically-first ``size``-clique among the vertices of
    ``pool``.

    ``sym[v]`` holds the neighbours of vertex ``v`` as a bitmask; the
    caller guarantees the masks are symmetric with no self-loops (see
    :func:`adjacency_masks`).  ``pool`` is a bitmask of vertex ids
    (default: every vertex of ``sym``).  Returns ascending vertex ids,
    or ``None``.

    >>> find_clique_masks([0b110, 0b101, 0b011], 3)
    [0, 1, 2]
    >>> print(find_clique_masks([0b110, 0b101, 0b011], 2, pool=0b100))
    None
    """
    if pool is None:
        pool = (1 << len(sym)) - 1
    if size <= 0:
        return []
    if pool.bit_count() < size:
        return None

    # The DFS's first descent: when it reaches ``size``, it is the
    # lexicographically-first clique and no pruning is needed.
    found: List[int] = []
    allowed = pool
    while allowed and len(found) < size:
        p = (allowed & -allowed).bit_length() - 1
        found.append(p)
        allowed &= sym[p]
    if len(found) == size:
        return found

    # Iterated degree bound: shrink the pool to its (size - 1)-core.
    alive = pool
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

    sym = [mask & alive for mask in sym]

    def extend(found: List[int], allowed: int) -> Optional[List[int]]:
        if len(found) == size:
            return found
        if len(found) + allowed.bit_count() < size:
            return None
        while allowed:
            low = allowed & -allowed
            allowed ^= low  # the loop's tail: vertices after this one
            p = low.bit_length() - 1
            result = extend(found + [p], allowed & sym[p])
            if result is not None:
                return result
            if len(found) + allowed.bit_count() < size:
                return None
        return None

    return extend([], alive)


def adjacency_masks(adjacency: np.ndarray) -> List[int]:
    """Per-vertex neighbour bitmasks of an ``(n, n)`` boolean matrix.

    The search treats vertices ``u < v`` as adjacent iff
    ``adjacency[u, v]`` (the lower endpoint's row decides — the original
    dict search's semantics for asymmetric inputs), so the matrix is
    symmetrized from its strict upper triangle (the diagonal never
    counts) before packing rows into Python-int masks.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    n = adjacency.shape[0]
    if not n:
        return []
    upper = adjacency & lower_triangle(n).T
    packed = np.packbits(upper | upper.T, axis=1, bitorder="little")
    row_bytes = packed.tobytes()
    width = packed.shape[1]
    return list(map(
        int.from_bytes,
        [row_bytes[start:start + width]
         for start in range(0, n * width, width)],
        ["little"] * n,
    ))


def find_clique(
    adjacency: Dict[int, Set[int]],
    size: int,
    candidates: Optional[Iterable[int]] = None,
) -> Optional[List[int]]:
    """Return a sorted clique of exactly ``size`` vertices, or ``None``.

    Args:
        adjacency: vertex -> set of neighbours (self-loops ignored; for
            asymmetric inputs the lower endpoint's row decides, see
            :func:`adjacency_masks`).
        size: exact clique size sought; ``size <= 0`` returns ``[]``.
        candidates: restricts the vertex pool (defaults to all vertices);
            repeated ids count once, a ``bool`` is refused.

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
        {v for v in map(_vertex_id, candidates) if v in adjacency}
        if candidates is not None else map(_vertex_id, adjacency)
    )
    position = {v: p for p, v in enumerate(pool)}
    sub = np.zeros((len(pool), len(pool)), dtype=bool)
    for p, v in enumerate(pool):
        for u in adjacency[v]:
            q = position.get(u)
            if q is not None:
                sub[p, q] = True
    found = find_clique_masks(adjacency_masks(sub), size)
    if found is None:
        return None
    return [pool[p] for p in found]


def find_clique_matrix(
    adjacency: np.ndarray,
    size: int,
    candidates: Optional[Iterable[int]] = None,
) -> Optional[List[int]]:
    """:func:`find_clique` over an ``(n, n)`` boolean adjacency matrix.

    The matrix fast path of the vectorized engines — fed directly from
    :meth:`DiagnosisGraph.trust_mask` (``P_decide``, line 3(h)) and the
    M-matrices of the matching stage (``P_match``, line 1(e)) without
    building per-vertex Python sets.  The whole matrix is packed once
    and ``candidates`` becomes a bitmask over its vertex ids: no
    sub-matrix is copied.

    Args:
        adjacency: boolean ``(n, n)`` matrix; the diagonal is ignored
            and asymmetric entries resolve to the upper triangle.
        size: exact clique size sought; ``size <= 0`` returns ``[]``.
        candidates: optional vertex pool restriction; repeated and
            out-of-range ids are dropped, a ``bool`` is refused.

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
    pool = None
    if candidates is not None:
        pool = 0
        for v in map(_vertex_id, candidates):
            if 0 <= v < n:
                pool |= 1 << v
    return find_clique_masks(adjacency_masks(adjacency), size, pool)
