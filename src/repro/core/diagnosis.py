"""Algorithm 1's diagnosis, and the decisions around it.

When a Detected flag is raised, the batched body hands lines 3(a)-3(i)
to :func:`diagnose`, which is array work: it prices the fault-free
sources' broadcasts, dispatches only the controlled sources' rows
(:func:`dispatch_sources`, the one dispatch rule), removes the accused
edges as one matrix update and hands lines 3(f)-3(i) to
:func:`diagnosis_verdict`, the one verdict of every engine (the scalar
reference's too).  Otherwise line 2(c) is :func:`checking_decisions`.
"""

from __future__ import annotations

import itertools
from collections import abc
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.reed_solomon import DecodingError
from repro.core.config import ProtocolInvariantError
from repro.core.result import GenerationOutcome, GenerationResult
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.processors.answers import diagnosis_symbol_value, trust_row_change
from repro.utils.bits import PackedBits

#: Sentinel for "no valid symbol received" in the vectorized view matrix
#: (symbols are non-negative, so -1 is unambiguous in every dtype).
_MISSING = -1


def diagnosis_verdict(
    code,
    graph: DiagnosisGraph,
    t: int,
    honest: Sequence[int],
    error_free: bool,
    generation: int,
    p_match: Tuple[int, ...],
    r_sharp: Dict[int, int],
    detected_ref: Sequence[bool],
    removed_edges: List[Tuple[int, int]],
    isolated: FrozenSet[int],
    default_part: Sequence[int],
    detectors: List[int],
    near: Optional[Sequence[int]] = None,
) -> GenerationResult:
    """Lines 3(f)-3(i), once the reference R# over ``P_match``
    (``r_sharp``), the reference Detected flags and the removed edges
    are known: false-alarm isolation, the over-degree rule, ``P_decide``
    and the decode, which every fault-free processor in ``honest``
    decides.  The one verdict of every engine; the scalar oracle, which
    holds a per-pid R#, checks its processors' decodes against it.

    ``near`` is a codeword the caller holds (the batched stage's
    reference codeword): R# is checked against it by the agreement rule
    (:meth:`~repro.coding.reed_solomon.ReedSolomonCode.codeword_through`)
    and interpolated only when it agrees at fewer than ``k`` positions.
    The scalar oracle passes none, so it interpolates every time.
    """
    n = graph.n
    match_set = set(p_match)

    # Line 3(f): with a consistent R#, a complainer whose vertex lost
    # no edge is provably lying; isolate it.  The codeword through R#
    # is kept for line 3(i).
    r_sharp_word = code.codeword_through(r_sharp, near=near)
    isolated_now: List[int] = []
    if r_sharp_word is not None:
        touched = {v for edge in removed_edges for v in edge}
        for q in range(n):
            if q in match_set or q in isolated:
                continue
            if (
                detected_ref[q]
                and q not in touched
                and not graph.is_isolated(q)
            ):
                graph.isolate(q)
                isolated_now.append(q)

    # Line 3(g): over-degree rule.
    isolated_now.extend(graph.apply_overdegree_rule(t))

    # Lines 3(h)-3(i): find P_decide and decode from R#.
    p_decide = graph.find_trusting_set(
        n - 2 * t, candidates=sorted(match_set)
    )
    if p_decide is None:
        if error_free:
            raise ProtocolInvariantError(
                "no P_decide of size %d inside P_match %r"
                % (n - 2 * t, p_match)
            )
        decided = tuple(default_part)
    else:
        # The code is systematic and P_decide ⊆ P_match holds k
        # positions, so with R# on a codeword the codeword through
        # R#/P_decide is that one: its data is the decode, with no
        # second interpolation.
        p_decide = tuple(p_decide)
        decided = tuple(
            code.decode_subset({j: r_sharp[j] for j in p_decide})
            if r_sharp_word is None else r_sharp_word[:code.k]
        )
    return GenerationResult(
        generation=generation,
        outcome=GenerationOutcome.DECIDED_DIAGNOSIS,
        decisions=dict.fromkeys(honest, decided),
        p_match=p_match,
        p_decide=p_decide,
        removed_edges=removed_edges,
        isolated=isolated_now,
        detectors=detectors,
    )


def diagnose(
    ctx, graph, backend, adversary, view, g: int,
    p_match: Tuple[int, ...], codewords, received_pm: np.ndarray,
    detected_ref: np.ndarray, detectors: List[int],
    isolated: FrozenSet[int], default_part: Sequence[int],
) -> GenerationResult:
    """Lines 3(a)-3(i) of generation ``g`` on context ``ctx`` for the
    instance whose ``graph``, ``backend``, ``adversary`` and hook
    ``view`` are given, as array work: R# one vector, Trust one boolean
    ``(n, |P_match|)`` matrix, edge removal one matrix update.

    ``codewords[pid]`` is ``pid``'s codeword (the first honest pid's is
    the one the verdict counts R# against), ``received_pm`` the
    checking stage's received symbols in ``P_match``'s columns only
    (the stage reads no other), an ``(n, |P_match|)`` array in which
    each member holds its own symbol, and ``detected_ref`` the
    reference Detected flags.

    Both sub-stages (symbols, then trust vectors) start from what
    validity gives — a fault-free source's row arrives as sent, so
    R# is the codeword diagonal and the Trust view the honest trust
    matrix — and hand their per-source single-bit broadcasts to
    :func:`dispatch_sources`, which reads back only the rows it had
    to dispatch: the controlled sources', each asked for up front
    (``diagnosis_symbol``, ``trust_row``) when its class overrides
    the hook.  The backend hands every pid one shared row, so the
    ``O(n)`` views-per-source assembly collapses to the reference
    view, and a symbol row costs no conversion at all when the row
    that came back is the one sent.
    """
    n = ctx.n
    pm = np.array(p_match, dtype=np.int64)
    n_pm = len(p_match)

    # Lines 3(a)-3(b): P_match members broadcast their own symbol
    # (members are live: an isolated source's M row is all zero, so
    # it is in no clique).  A controlled member's row is one packed
    # wire row (big-int safe for wide super-symbols).
    r_ref: Dict[int, int] = {j: codewords[j][j] for j in p_match}
    symbol_rows: Dict[int, PackedBits] = {}
    for j in ctx.controlled_sorted:
        if j in r_ref:
            if not ctx.ds_default:
                r_ref[j] = diagnosis_symbol_value(
                    adversary.diagnosis_symbol(j, r_ref[j], g, view),
                    ctx.symbol_limit,
                )
            symbol_rows[j] = PackedBits.from_int(r_ref[j], ctx.c)
    symbol_outcomes = dispatch_sources(
        backend, p_match, symbol_rows, ctx.c,
        "gen%d.diagnosis.symbol" % g, isolated,
    )
    for j, row in symbol_outcomes.items():
        # The row handed straight back is the symbol already held;
        # any other row is read once.
        if row is not symbol_rows[j]:
            r_ref[j] = row.to_int()

    # Lines 3(c)-3(d): Trust vectors over P_match, broadcast by
    # everyone live.  The honest baseline is one boolean matrix: a
    # trusted member's symbol equals the R# one (a valid symbol, so
    # equality already rules out a missing one), and a member's own
    # column is its own symbol.
    own_column = np.arange(n_pm)
    trusts_mat = np.asarray(graph.trust_mask())[:, pm]
    trusts_mat[pm, own_column] = True
    r_ref_arr = np.array(
        [r_ref[j] for j in p_match], dtype=ctx.arena.symbol_dtype
    )
    honest_trust_mat = trusts_mat & (received_pm == r_ref_arr)

    # Packed wire rows: one packbits over the honest trust matrix,
    # the honest rows a hook is handed read off it with one
    # ``tolist``; an honest answer keeps its packed row, an accuse
    # set is one mask and one packbits, and only an explicit
    # mapping converts bit by bit.
    trust_packed = np.packbits(honest_trust_mat, axis=1)
    live_controlled = [
        i for i in ctx.controlled_sorted if i not in isolated
    ]
    honest_rows = (
        None if ctx.tr_default
        else honest_trust_mat[live_controlled].tolist()
    )
    column = {j: index for index, j in enumerate(p_match)}
    trust_rows: Dict[int, PackedBits] = {}
    # The boolean form of each controlled row that is not the honest
    # one, so a row handed back as sent is never unpacked.
    deviant: Dict[int, np.ndarray] = {}
    for index, i in enumerate(live_controlled):
        row = PackedBits(trust_packed[i], n_pm)
        if honest_rows is not None:
            honest_row = tuple(honest_rows[index])
            change = trust_row_change(adversary.trust_row(
                i, p_match, honest_row, g, view
            ), p_match, honest_row)
            if isinstance(change, abc.Set):
                keep = honest_trust_mat[i].copy()
                keep[[column[j] for j in change if j in column]] = False
                row = PackedBits(np.packbits(keep), n_pm)
                deviant[i] = keep
            elif change is not None:
                row = PackedBits.from_bits(change)
                deviant[i] = np.array(change, dtype=bool)
        trust_rows[i] = row
    trust_outcomes = dispatch_sources(
        backend, [i for i in range(n) if i not in isolated], trust_rows,
        n_pm, "gen%d.diagnosis.trust" % g, isolated,
    )
    # The reference Trust view: validity for every row, then each
    # deviant row handed back as sent, then one bulk unpack of the
    # rows that came back changed; isolated processors' rows are
    # never read.
    trust_ref = ctx.arena.trust_view(n_pm)
    np.copyto(trust_ref, honest_trust_mat)
    changed = []
    for i, row in trust_outcomes.items():
        if row is not trust_rows[i]:
            changed.append(i)
        elif i in deviant:
            trust_ref[i] = deviant[i]
    if changed:
        lanes = np.stack([trust_outcomes[i].lanes for i in changed])
        trust_ref[changed] = np.unpackbits(
            lanes, axis=1, count=n_pm
        ).astype(bool)

    # Line 3(e): every live processor accuses the members its
    # broadcast Trust vector rejects, as one column assignment (an
    # isolated processor's row names only edges already gone, which
    # remove_accused skips); one matrix update, in the scalar
    # removal order.
    accuse = np.zeros((n, n), dtype=bool)
    accuse[:, pm] = ~trust_ref
    removed_edges = graph.remove_accused(accuse)

    return diagnosis_verdict(
        ctx.code, graph, ctx.t, ctx.honest, backend.error_free, g,
        p_match, r_ref, detected_ref.tolist(), removed_edges, isolated,
        default_part, detectors, near=codewords[ctx.honest[0]],
    )


def dispatch_sources(
    backend,
    sources: Sequence[int],
    rows: Dict[int, Sequence[int]],
    width: int,
    tag: str,
    isolated: FrozenSet[int],
) -> Dict[int, Sequence[int]]:
    """The one dispatch rule of a broadcast sub-stage in which every
    source's bits are known: ``sources`` are its live sources in
    broadcast order, each broadcasting ``width`` bits, and ``rows``
    holds the row of every controlled one.  The diagnosis stage's
    symbol and trust broadcasts and, when a broadcast hook can fire, the
    generation body's M and Detected broadcasts go through it.

    The backend's honest broadcasts are pure accounting (the planner
    sends nothing else here), so a fault-free source's outcome is its
    own row at every processor (validity), which the stage already
    holds: each maximal run of fault-free sources is priced with one
    ``charge_honest_instances`` and its row is never built, and each
    maximal run of controlled sources goes through one
    ``broadcast_bits_many_grouped`` call.  Runs are taken in order, so
    instance ids, the meter's sums, the instance count and the bits
    charged equal the scalar loop's.

    Returns ``source -> outcome`` for the dispatched rows only: the one
    row every processor holds, in the form ``rows`` gave it (a bit list
    or :class:`~repro.utils.bits.PackedBits`).
    """
    outcomes: Dict[int, Sequence[int]] = {}
    for dispatch, run in itertools.groupby(sources, key=rows.__contains__):
        run = list(run)
        if dispatch:
            outcomes.update(zip(run, backend.broadcast_bits_many_grouped(
                [(source, rows[source]) for source in run], tag, isolated
            )))
        else:
            backend.charge_honest_instances(tag, len(run) * width)
    return outcomes


def checking_decisions(
    code,
    honest: Sequence[int],
    p_match: Tuple[int, ...],
    rows: List[List[int]],
    codewords,
) -> Dict[int, Tuple[int, ...]]:
    """Line 2(c): every fault-free processor in ``honest`` decides
    ``C^{-1}(R_i / P_match)`` from its symbol row over ``P_match``
    (``rows[pid]``, :data:`_MISSING` where it holds no symbol), once per
    distinct row.

    A row equal to some processor's codeword (``codewords[pid]``;
    processors holding one value may share one list) at every
    ``P_match`` position decides that codeword's first ``k`` symbols:
    the code is systematic and MDS and ``|P_match| = n - t >= k``, so
    exactly one codeword passes through those positions, and its data
    is what ``decode_subset`` would return.  Any other row — a missing
    symbol, a Byzantine one on no processor's codeword — is decoded.
    """
    hit_of: Dict[tuple, List[int]] = {}
    for word in {id(word): word for word in codewords}.values():
        hit_of.setdefault(tuple([word[j] for j in p_match]), word)
    decided_by_row: Dict[tuple, Tuple[int, ...]] = {}
    decisions: Dict[int, Tuple[int, ...]] = {}
    for pid in honest:
        values = tuple(rows[pid])
        decided = decided_by_row.get(values)
        if decided is None:
            hit = hit_of.get(values)
            if hit is not None:
                decided = tuple(hit[:code.k])
            else:
                try:
                    decided = tuple(code.decode_subset({
                        j: v for j, v in zip(p_match, values) if v != _MISSING
                    }))
                except (DecodingError, ValueError):
                    raise ProtocolInvariantError(
                        "undecodable checking-stage symbols at pid %d" % pid
                    )
            decided_by_row[values] = decided
        decisions[pid] = decided
    return decisions
