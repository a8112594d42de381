"""The batched generation engine: one generation body, two symbol rounds.

Every vectorized run executes Algorithm 1's generations through
:meth:`_InstanceRun.step`, the one batched generation body, over a
:class:`CohortContext`.  The body takes its symbol round as a
parameter, the one place the planner's two vectorized lanes differ:

* the **cohort** lane (:func:`run_cohort_instance`) — instances whose
  honest processors share one input value.  Instances that share an
  *attack shape* — same ``(n, t, L, D)`` layout, same canonical attack
  and declared faulty set (:func:`repro.service.spec.cohort_key`) — run
  through one context, and the round is *priced*
  (:class:`_PricedRound`): honest traffic is value-independent
  accounting.  A failure-free run is the cohort of the empty faulty
  set: no hook exists to fire, so every generation is three charges and
  no codeword is ever encoded.
* the **per-generation** lane (honest inputs that differ, fault plans,
  recorded runs) enters through :func:`sent_run`, over a private context
  and a *sent* round (:class:`_SentRound`): the traffic really moves.

A generation, the shape of the paper's Algorithm 1:

1. *Symbol round.*  Line 1(a) has a processor send its *one* symbol to
   everyone it trusts, so each live faulty sender is asked once for its
   row (:meth:`~repro.processors.adversary.Adversary.matching_row`).  A
   priced round holds the answers, read as on receipt, as a
   :class:`_SymbolRound` — a common payload per sender and a sparse
   ``(sender, recipient)`` table of exceptions; the *deviation pattern*
   is its (silent senders, exception pairs), read sparsely, so the
   round costs O(faulty + deviations), not O(faulty · n).
2. *Plan.*  The round yields a :class:`_Plan`: the M expectation rows
   (tuples) handed to the ``m_row`` hooks, the unhooked M broadcast
   rows, the key of the match set they resolve to and, per match set,
   the checking-stage facts (:class:`_Checking`).  A priced round looks
   its plan up by ``(graph state, pattern)``: when every deviation is
   *silent* (missing/invalid, none valid-but-off-codeword) and no
   controlled processor holds a distinct input, all of that is a
   function of the pattern alone and the plan is memoized for the life
   of the cohort — a crashed sender's second generation, and every
   generation of a conforming run (the empty pattern), compute nothing.
   A sent round builds its plan from the generation's M view.
3. *Execute*, one body for both rounds.  Ask each controlled processor
   for its M row (:meth:`~repro.processors.adversary.Adversary.m_row`:
   an honest answer keeps the plan's row, a constant or explicit one
   replaces it), dispatch the M rows, resolve the match set, fire the
   overridden ``detected_flag`` hooks, dispatch the flags, then decide
   (line 2(c), :func:`checking_decisions` once a deviation reaches a
   decision row) — or, when a flag is raised, run the context's own
   diagnosis stage, :meth:`CohortContext.diagnose`, which is array
   work: it prices the fault-free sources' broadcasts, dispatches only
   the controlled sources' rows (:func:`dispatch_sources`, the one
   dispatch rule), removes the accused edges as one matrix update and
   hands lines 3(f)-3(i) to the one verdict,
   :func:`~repro.core.generation.diagnosis_verdict`.

What a context keeps across its instances is **value-independent**:
one table of diagnosis-graph *structures*, each holding the plans and
the M view → ``P_match`` match sets (one clique search per distinct M
view, however many generations and instances produce it) reached in its
graph state.  Everything derived from an instance's values — part
tuples, whole-run codewords, a diagnosis's received columns — lives on
its :class:`_InstanceRun` and dies with it.  A seeded attack
(``random``) makes a pattern a value in disguise, so the table forgets
at :data:`MAX_PATTERN_ENTRIES`.

The contract is the PR 3/PR 5 discipline wholesale: results — decisions,
:class:`~repro.core.result.GenerationResult` records, meter snapshots,
round clock, backend instance ids — are **byte-identical** to the
forced-scalar reference, and every per-instance :class:`Adversary` hook
is asked with the scalar arguments (the symbol hook through its row
form, step 1); an answer is a function of those arguments, so the order
the step asks in is its own.  Two classes of shortcut keep that true
while skipping work:

* *Unobservable accounting*: a priced round's one-or-two ``send_many``
  + ``deliver_arrays`` collapse to one
  :meth:`~repro.network.simulator.SyncNetwork.charge_round` (equal
  ``Counter`` sums, one round advance), and broadcast dispatch prices
  fault-free sources
  (:meth:`~repro.broadcast_bit.ideal.AccountedIdealBroadcast.\
charge_honest_instances` — identical counters) and sends only the
  controlled rows through
  :meth:`~repro.broadcast_bit.ideal.AccountedIdealBroadcast.\
broadcast_bits_many_grouped` (same hooks and instance ids, no per-pid
  dict fan-out), or none at all when the adversary leaves
  ``ideal_broadcast_bit`` at the honest base implementation.
* *Base-hook elision*: a hook the attack leaves at the base
  (:func:`~repro.processors.adversary.hook_is_default`) is the stateless
  implementation returning its honest argument; skipping the call
  cannot be observed.  Overridden hooks always fire.

A recorded run never takes the priced round: the journal must observe
materialized messages, ``charge_round`` refuses a journalling network,
and the planner keeps such runs on the per-generation lane.
"""

from __future__ import annotations

import functools
import itertools
from typing import (
    AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.coding.reed_solomon import DecodingError
from repro.core.config import ConsensusConfig, ProtocolInvariantError
from repro.core.consensus import MultiValuedConsensus
from repro.core.generation import (
    _MISSING, _send_matching_symbols, diagnosis_verdict, symbol_round_shape,
)
from repro.core.result import GenerationOutcome, GenerationResult
from repro.graphs.cliques import find_clique_matrix
from repro.processors.adversary import Adversary, hook_is_default
from repro.processors.answers import (
    bit_answer, diagnosis_symbol_value, m_row_bits, m_row_change,
    matching_row_answer, received_symbol, trust_row_change,
)
from repro.service.arena import ExchangeArena
from repro.service.engine import finalize_result, prepare_instance
from repro.utils.bits import PackedBits

#: Pattern entries (graph structures, their plans and match sets) a
#: cohort keeps before it starts over: each is a pure function of its
#: key.  A deterministic attack recurs through a few dozen at most
#: (``slow_bleed``: one graph state per diagnosis), a seeded one never.
MAX_PATTERN_ENTRIES = 256


@functools.lru_cache(maxsize=None)
def _generation_tags(g: int) -> Tuple[str, str, str]:
    """Generation ``g``'s (symbols, M, detected) meter tags, formatted
    once per process instead of once per generation per instance (one
    entry per generation index, so the table stays small)."""
    prefix = "gen%d" % g
    return (
        prefix + ".matching.symbols",
        prefix + ".matching.M",
        prefix + ".checking.detected",
    )


class _GraphStructure:
    """Value-independent structure of one diagnosis-graph state.

    Everything here depends only on the graph's trust mask / isolated
    set and the cohort's controlled set, so one instance serves every
    generation of every cohort instance that reaches this graph state.
    The M *baseline* (``base_bool``/``base_bits``) is the conforming case —
    every delivered symbol matches the recipient's codeword — from which
    per-generation deviations are applied as sparse overrides.
    """

    __slots__ = (
        "mask", "isolated", "live", "live_controlled", "fab_recips",
        "fab_sent", "honest_edges", "base_bool", "base_bits", "m_total",
        "plans", "matches",
    )

    def __init__(self, graph, controlled: Sequence[int], n: int):
        # Isolation drops every edge of the pid, so the mask alone
        # already encodes liveness (its isolated rows/columns are zero);
        # copy it because trust_mask() is a live view of mutable state.
        mask = np.asarray(graph.trust_mask()).copy()
        self.mask = mask
        isolated = frozenset(graph.isolated)
        self.isolated = isolated
        live = [pid not in isolated for pid in range(n)]
        self.live = live
        #: Live controlled pids, ascending: whose M rows key a match.
        self.live_controlled = [s for s in controlled if live[s]]
        #: The faulty live senders with their recipients, and how many
        #: edges the honest live senders' traffic takes.
        senders, _, self.fab_recips = symbol_round_shape(graph, controlled)
        self.fab_sent = sum(len(r) for r in self.fab_recips.values())
        self.honest_edges = len(senders)
        eye = np.eye(n, dtype=bool)
        m_base = mask | eye
        #: Row tuples: a controlled row is handed to the m_row hook.
        self.base_bool = tuple(map(tuple, m_base.tolist()))
        self.base_bits = (
            m_base.astype(np.int8)[~eye].reshape(n, n - 1).tolist()
        )
        #: Bits one M dispatch charges: every live processor's n-1.
        self.m_total = (n - 1) * sum(live)
        #: Deviation pattern -> the memoized plan of a generation that
        #: shows it in this graph state (see :class:`_Plan`).
        self.plans: Dict[Tuple, _Plan] = {}
        #: (honest deviations, live controlled M rows) -> the match set
        #: of that M view in this graph state (see :class:`_MatchInfo`).
        self.matches: Dict[Tuple, _MatchInfo] = {}


class _Plan:
    """What one generation's deviation pattern determines before any
    ``m_row``/``detected_flag`` hook has fired.

    Memoized per (graph state, pattern) when every deviation is silent
    and no controlled processor holds a distinct input — then all of it
    is a function of the pattern, not of the instance's values; built
    fresh for the one generation otherwise (see :meth:`_InstanceRun.\
step`).  Overridden hooks fire every generation and their returns
    are honoured either way: the plan only holds what
    is computed *around* them.
    """

    __slots__ = ("hdev_key", "ctrl_rows", "m_rows", "info", "checks")

    def __init__(self, hdev_key, ctrl_rows, m_rows):
        #: The pattern's pairs with an honest recipient, as a frozenset
        #: (its hash is computed once, not at every match lookup): with
        #: the graph state they determine every honest M row.
        self.hdev_key = hdev_key
        #: Controlled pids' M expectation rows (the m_row hook args).
        self.ctrl_rows = ctrl_rows
        #: Every processor's unhooked M broadcast bits, isolated
        #: sources zeroed (the dispatch zeroes them whatever they hold).
        self.m_rows = m_rows
        #: Match info of the unhooked M view, resolved on first use.
        self.info: Optional[_MatchInfo] = None
        #: Per match info (one per match key; held by reference, so the
        #: entry cannot outlive or alias it) the checking-stage facts.
        self.checks: Dict[_MatchInfo, _Checking] = {}


#: The one-bit Detected broadcast rows (shared, read-only).
_SET, _CLEAR = [1], [0]


class _Checking:
    """Checking-stage facts of one (plan, match info) pair: what each
    outsider's honest detection computes, and what follows when no
    ``detected_flag``/broadcast hook changes a flag."""

    __slots__ = ("detected", "detectors", "rows", "flagged", "clean")

    def __init__(self, detected, controlled, clean):
        #: (outsider, honest Detected value), in outsider order.
        self.detected = detected
        #: Honest outsiders that detected.
        self.detectors = [
            q for q, hit in detected if hit and q not in controlled
        ]
        #: The unhooked flag rows and the outsiders they flag.
        self.rows = [_SET if hit else _CLEAR for _, hit in detected]
        self.flagged = [q for q, hit in detected if hit]
        #: Every honest processor decodes the shared codeword's own
        #: part: the conforming position counts are decodable and no
        #: deviation reaches an honest decision row.
        self.clean = clean


class _MatchInfo:
    """Checking-stage structure derived from one (graph, M view) pair."""

    __slots__ = (
        "p_match", "columns", "match_set", "outsiders", "ctrl_outsider",
        "pm_ctrl", "pos_ok",
    )

    def __init__(
        self,
        p_match: Optional[Tuple[int, ...]],
        struct: _GraphStructure,
        controlled: FrozenSet[int],
        honest: List[int],
        k: int,
        n: int,
    ):
        self.p_match = p_match
        if p_match is None:
            return
        match_set = frozenset(p_match)
        self.match_set = match_set
        mask = struct.mask
        self.outsiders = [
            q for q in range(n)
            if q not in match_set and q not in struct.isolated
        ]
        #: Whether some outsider's ``detected_flag`` hook can fire.
        self.ctrl_outsider = any(q in controlled for q in self.outsiders)
        #: Controlled P_match members — the only senders whose payloads
        #: can flip an outsider's Detected flag or reach a decision row
        #: (honest members always deliver their shared-codeword symbol).
        self.pm_ctrl = match_set & controlled
        # Conforming-case decode feasibility: with every payload on the
        # honest codeword, does every honest processor hold >= k
        # checking-stage positions?
        #: P_match as an index array, for taking its columns.
        self.columns = np.array(p_match, dtype=np.intp)
        pos_ok = True
        for pid in honest:
            count = int(mask[pid, self.columns].sum())
            if pid in match_set:
                count += 1  # own diagonal symbol, always present
            if count < k:
                pos_ok = False
                break
        self.pos_ok = pos_ok


class CohortContext:
    """Shared state for every instance of one attack cohort."""

    def __init__(
        self,
        config: ConsensusConfig,
        code,
        adversary: Adversary,
        arena,
    ):
        self.config = config
        self.code = code
        self.n = config.n
        self.t = config.t
        self.k = config.data_symbols
        self.c = config.symbol_bits
        self.symbol_limit = code.symbol_limit
        controlled = frozenset(adversary.faulty)
        self.controlled = controlled
        self.controlled_sorted = sorted(controlled)
        self.pids = range(self.n)
        self.honest = [pid for pid in self.pids if pid not in controlled]
        # Base-hook elision (module docstring): hook_is_default is the rule.
        self.ms_default = hook_is_default(adversary, "matching_row")
        self.mv_default = hook_is_default(adversary, "m_row")
        self.df_default = hook_is_default(adversary, "detected_flag")
        self.ib_default = hook_is_default(adversary, "ideal_broadcast_bit")
        self.ds_default = hook_is_default(adversary, "diagnosis_symbol")
        self.tr_default = hook_is_default(adversary, "trust_row")
        #: Graph state -> its structure: the one table the cohort keeps.
        self._structs: Dict[Tuple, _GraphStructure] = {}
        #: The owner's exchange arena (the service's, or a one-shot
        #: run's own): the diagnosis stage's Trust buffer, and its
        #: symbol dtype types the diagnosis arrays.
        self.arena = arena

    def match_info_for(self, struct, hdev_key, outcomes) -> _MatchInfo:
        """The match set of one dispatched M view, memoized — honest
        rows are determined by (graph, deviation) and isolated rows are
        zero, so the key only carries the live controlled rows on top
        of that, as one ``bytes`` object (exact: every row is ``n - 1``
        bits of 0/1)."""
        mkey = (hdev_key, b"".join(
            map(bytes, map(outcomes.__getitem__, struct.live_controlled))
        ))
        info = struct.matches.get(mkey)
        if info is None:
            n = self.n
            m_matrix = np.empty((n, n), dtype=bool)
            for i in range(n):
                outcome = outcomes[i]
                m_matrix[i, :i] = outcome[:i]
                m_matrix[i, i + 1:] = outcome[i:]
            np.fill_diagonal(m_matrix, True)
            adjacency = m_matrix & m_matrix.T
            np.fill_diagonal(adjacency, False)
            clique = find_clique_matrix(adjacency, n - self.t)
            p_match = tuple(clique) if clique is not None else None
            info = _MatchInfo(
                p_match, struct, self.controlled, self.honest, self.k, n
            )
            struct.matches[mkey] = info
        return info

    def structure_for(self, graph) -> _GraphStructure:
        mask = np.asarray(graph.trust_mask())
        key = (mask.tobytes(), tuple(sorted(graph.isolated)))
        struct = self._structs.get(key)
        if struct is None:
            struct = _GraphStructure(graph, self.controlled_sorted, self.n)
            self._structs[key] = struct
        return struct

    def diagnose(
        self, graph, backend, adversary, view, g: int,
        p_match: Tuple[int, ...], codewords, received_pm: np.ndarray,
        detected_ref: np.ndarray, detectors: List[int],
        isolated: FrozenSet[int], default_part: Sequence[int],
    ) -> GenerationResult:
        """Lines 3(a)-3(i) of generation ``g`` for the instance whose
        ``graph``, ``backend``, ``adversary`` and hook ``view`` are
        given, as array work: R# one vector, Trust one boolean
        ``(n, |P_match|)`` matrix, edge removal one matrix update.

        ``codewords[pid]`` is ``pid``'s codeword, ``received_pm`` the
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
        n = self.n
        pm = np.array(p_match, dtype=np.int64)
        n_pm = len(p_match)

        # Lines 3(a)-3(b): P_match members broadcast their own symbol
        # (members are live: an isolated source's M row is all zero, so
        # it is in no clique).  A controlled member's row is one packed
        # wire row (big-int safe for wide super-symbols).
        r_ref: Dict[int, int] = {j: codewords[j][j] for j in p_match}
        symbol_rows: Dict[int, PackedBits] = {}
        for j in self.controlled_sorted:
            if j in r_ref:
                if not self.ds_default:
                    r_ref[j] = diagnosis_symbol_value(
                        adversary.diagnosis_symbol(j, r_ref[j], g, view),
                        self.symbol_limit,
                    )
                symbol_rows[j] = PackedBits.from_int(r_ref[j], self.c)
        symbol_outcomes = dispatch_sources(
            backend, p_match, symbol_rows, self.c,
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
            [r_ref[j] for j in p_match], dtype=self.arena.symbol_dtype
        )
        honest_trust_mat = trusts_mat & (received_pm == r_ref_arr)

        # Packed wire rows: one packbits over the honest trust matrix,
        # the honest rows a hook is handed read off it with one
        # ``tolist``; an honest answer keeps its packed row, an accuse
        # set is one mask and one packbits, and only an explicit
        # mapping converts bit by bit.
        trust_packed = np.packbits(honest_trust_mat, axis=1)
        live_controlled = [
            i for i in self.controlled_sorted if i not in isolated
        ]
        honest_rows = (
            None if self.tr_default
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
                if isinstance(change, AbstractSet):
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
        trust_ref = self.arena.trust_view(n_pm)
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
            self.code, graph, self.t, self.honest, backend.error_free, g,
            p_match, r_ref, detected_ref.tolist(), removed_edges, isolated,
            default_part, detectors,
        )

    def forget_if_full(self) -> None:
        """Start the pattern table over once it holds
        :data:`MAX_PATTERN_ENTRIES` (checked between instances, so a
        run never loses the structure it carries)."""
        retained = sum(
            1 + len(struct.plans) + len(struct.matches)
            for struct in self._structs.values()
        )
        if retained >= MAX_PATTERN_ENTRIES:
            self._structs.clear()


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


#: The plan key of a symbol round in which nothing deviates.
_CONFORMING = ((), ())


class _SymbolRound:
    """What the live faulty senders put on the wire in one symbol
    round: per sender the payload every recipient got, plus the sparse
    table of the (sender, recipient) pairs that got something else.

    Payloads are held as the recipient reads them (``received_symbol``),
    :data:`_MISSING` for silence (not charged) and for anything else
    (charged, invalid on receipt).
    An exception naming a pid the sender has no live trusted edge to is
    ignored, and one that reads like the sender's common payload is not
    kept, so ``exceptions`` holds exactly the pairs that differ.
    """

    __slots__ = ("common", "exceptions", "silent", "sent", "offcw")

    def __init__(self, adversary, struct, row_of, cw, g, view, limit):
        common: Dict[int, int] = {}
        exceptions: Dict[Tuple[int, int], int] = {}
        silent = []
        sent = 0
        offcw = False
        mask = struct.mask
        n = len(mask)
        # One row hook per sender, recipients sorted (the per-generation
        # engine's arguments).  An exception counts when its key is one
        # of the recipients: in range and a live trusted peer.
        for f, recips in struct.fab_recips.items():
            payload, others = matching_row_answer(
                adversary.matching_row(f, recips, row_of[f][f], g, view)
            )
            quiet = payload is None
            if not quiet:
                sent += len(recips)
            payload = received_symbol(payload, limit, _MISSING)
            if payload == _MISSING:
                silent.append(f)
            elif payload != cw[f]:
                offcw = True
            common[f] = payload
            if not others:
                continue
            trusted = mask[f]
            for r, other in others.items():
                if not (0 <= r < n and trusted[r]):
                    continue
                if (other is None) != quiet:
                    sent += 1 if quiet else -1
                other = received_symbol(other, limit, _MISSING)
                if other != payload:
                    exceptions[(f, r)] = other
                    if other != _MISSING and other != cw[f]:
                        offcw = True
        #: sender -> the payload each of its recipients got, bar these:
        self.common = common
        #: (sender, recipient) -> the payload that pair got instead.
        self.exceptions = exceptions
        #: Senders whose common payload never arrives valid.
        self.silent = tuple(silent)
        #: Payloads charged: every one that was not silence.
        self.sent = sent
        #: Some payload is valid but off the honest codeword.
        self.offcw = offcw

    def payload(self, f: int, r: int) -> int:
        """What live trusted recipient ``r`` got from faulty sender ``f``."""
        return self.exceptions.get((f, r), self.common[f])

    def deviations(self, cw, fab_recips, senders):
        """``(sender, recipient, payload)`` of every payload from one of
        ``senders`` that is not the honest codeword's symbol."""
        common = self.common
        exceptions = self.exceptions
        for f in senders:
            payload = common[f]
            if payload != cw[f]:
                for r in fab_recips[f]:
                    if (f, r) not in exceptions:
                        yield f, r, payload
        for (f, r), payload in exceptions.items():
            if payload != cw[f] and f in senders:
                yield f, r, payload


class _InstanceRun:
    """One instance's generation loop over a context: the one batched
    generation body (:meth:`step`) of both vectorized lanes.  It takes
    its collaborators (network, diagnosis graph, backend, adversary,
    view provider), not the engine that owns them, and its symbol round,
    a :class:`_PricedRound` or a :class:`_SentRound`."""

    __slots__ = (
        "ctx", "network", "graph", "backend", "adversary", "view_provider",
        "round", "parts", "ref_parts", "ref_codewords", "cw_runs",
        "ref_tuples", "distinct", "ms_skip", "default_parts", "generation",
        "view", "struct", "rows", "conforming",
    )

    def __init__(self, ctx, network, graph, backend, adversary,
                 view_provider, parts, symbol_round, default_parts=None,
                 ref_codewords=None):
        self.ctx = ctx
        self.network = network
        self.graph = graph
        self.backend = backend
        self.adversary = adversary
        self.view_provider = view_provider
        # The backend's own hook (ideal_broadcast_bit) reads the
        # generation's snapshot too.
        backend._view_provider = self._make_view
        self.round = symbol_round
        #: Per-pid whole-run parts; pids holding one value share one
        #: parts object.
        self.parts = parts
        ref_parts = self.ref_parts = parts[ctx.honest[0]]
        #: The reference value's whole-run codewords, if its batch
        #: encoded them.
        self.ref_codewords = ref_codewords
        #: Per-pid whole-run codewords, encoded on first read (_rows).
        self.cw_runs = None
        #: Per-generation part tuples of the reference value (a
        #: conforming decision row decodes to exactly the sender's own
        #: part).
        self.ref_tuples = [tuple(part) for part in ref_parts]
        #: Controlled pid -> parts, where its effective input differs
        #: from the reference one.
        self.distinct = {
            pid: parts[pid] for pid in ctx.controlled_sorted
            if parts[pid] is not ref_parts
        }
        # With the symbol hook at the base and no controlled processor
        # holding a distinct value, every payload is the sender's honest
        # shared-codeword symbol: there is no round to read.
        self.ms_skip = ctx.ms_default and not self.distinct
        #: ``default_parts[g]`` is generation ``g``'s default part.
        self.default_parts = default_parts
        self.generation = 0
        #: Graph structure carried across generations; only a diagnosis
        #: can mutate the graph, so it is invalidated exactly there.
        self.struct = None
        #: The current generation's view snapshot and (codeword rows,
        #: reference codeword), each built on first use (step resets
        #: them).
        self.view = self.rows = None
        #: Every generation so far decided the shared codeword's own
        #: part for every honest processor.
        self.conforming = True

    def _whole_run_codewords(self):
        """Every processor's whole-run codewords, made on first need:
        one batched ``(generations * rows, k)`` generator matmat per
        distinct value (pids holding one value share its parts object),
        the reference value's first."""
        if self.cw_runs is None:
            encode = self.ctx.code.encode_generations
            ref_parts = self.ref_parts
            runs_of = {id(ref_parts): self.ref_codewords or encode(ref_parts)}
            for parts in self.parts:
                if id(parts) not in runs_of:
                    runs_of[id(parts)] = encode(parts)
            self.cw_runs = [runs_of[id(parts)] for parts in self.parts]
        return self.cw_runs

    def _rows(self, g: int):
        """Every processor's codeword row for generation ``g`` and the
        reference codeword, made on first read, so a run in which no
        payload is ever inspected (every failure-free cohort run) never
        encodes.  A sent round reads generation 0 before it is known
        whether the run goes on (inputs that differ may default there),
        so it encodes that generation alone, once per distinct part."""
        if self.rows is None:
            if g == 0 and isinstance(self.round, _SentRound):
                words = {}
                for parts in self.parts:
                    if id(parts) not in words:
                        words[id(parts)] = self.ctx.code.encode(parts[0])
                row_of = [words[id(parts)] for parts in self.parts]
            else:
                row_of = [runs[g] for runs in self._whole_run_codewords()]
            self.rows = (row_of, row_of[self.ctx.honest[0]])
        return self.rows

    def _make_view(self):
        """One snapshot per generation, stamped with it and shared
        across its hook sites and the backend's (snapshots are pure and
        content-identical within a generation, so sharing is
        unobservable)."""
        view = self.view
        if view is None:
            view = self.view = self.view_provider()
            view.extras["generation"] = self.generation
        return view

    def stretch(self, first: int, default_parts) -> List[GenerationResult]:
        """A stretch for :meth:`GenerationProtocol.run`: generations
        ``first`` on, to the first that diagnoses or defaults."""
        self.default_parts = default_parts
        self.round.begin(self, first, len(default_parts))
        results: List[GenerationResult] = []
        for g in range(first, len(default_parts)):
            results.append(self.step(g))
            if results[-1].outcome is not GenerationOutcome.DECIDED_CHECKING:
                break
        return results

    def step(self, g: int) -> GenerationResult:
        """Generation ``g`` of Algorithm 1: the symbol round and the
        plan it yields, then the one execute body."""
        ctx = self.ctx
        self.generation = g
        self.view = self.rows = None
        struct = self.struct
        if struct is None:
            struct = self.struct = ctx.structure_for(self.graph)
        _, m_tag, det_tag = _generation_tags(g)
        plan = self.round.open(self, struct, g)

        # -- lines 1(c)-1(e): M vectors and the match set ---------------
        # Every controlled processor is asked for its M row (m_row) when
        # it is overridden.  An honest answer keeps the plan's
        # row; the dispatch zeroes an isolated source's row whatever it
        # answers.
        rows = plan.m_rows
        if not ctx.mv_default:
            for i in ctx.controlled_sorted:
                honest_row = plan.ctrl_rows[i]
                bits = m_row_change(self.adversary.m_row(
                    i, honest_row, g, self._make_view()
                ), honest_row, i, ctx.n)
                if bits is not None and struct.live[i]:
                    if rows is plan.m_rows:
                        rows = list(rows)
                    rows[i] = bits
        outcomes = self._dispatch(
            ctx.pids, rows, ctx.n - 1, struct.m_total, m_tag, struct
        )
        if outcomes is plan.m_rows:  # nothing hooked: the plan's view
            info = plan.info
            if info is None:
                info = plan.info = ctx.match_info_for(
                    struct, plan.hdev_key, outcomes
                )
        else:
            info = ctx.match_info_for(struct, plan.hdev_key, outcomes)
        if info.p_match is None:
            # Line 1(f): honest inputs provably differ; decide the
            # default.
            default = tuple(self.default_parts[g])
            return GenerationResult(
                generation=g,
                outcome=GenerationOutcome.NO_MATCH_DEFAULT,
                decisions={pid: default for pid in ctx.honest},
                p_match=None,
            )

        # -- lines 2(a)-2(b): checking stage ----------------------------
        check = plan.checks.get(info)
        if check is None:
            check = plan.checks[info] = self.round.checking(
                self, struct, info, g
            )
        # Overridden detected_flag hooks fire on every controlled
        # outsider.
        rows = check.rows
        if info.ctrl_outsider and not ctx.df_default:
            rows = list(rows)
            for k, (q, hit) in enumerate(check.detected):
                if q in ctx.controlled:
                    flag = bit_answer(
                        "detected_flag",
                        self.adversary.detected_flag(
                            q, hit, g, self._make_view()
                        ),
                    )
                    rows[k] = _SET if flag else _CLEAR
        outcomes = self._dispatch(
            info.outsiders, rows, 1, len(rows), det_tag, struct
        )
        if outcomes is check.rows:  # nothing hooked: the plan's flags
            flagged = check.flagged
        else:
            flagged = [
                q for q, flag in zip(info.outsiders, outcomes) if flag[0]
            ]
        detectors = list(check.detectors)
        if flagged:
            self.conforming = False
            return self._diagnose(struct, g, info, flagged, detectors)
        # Line 2(c): decide C^{-1}(R_i / P_match).
        if check.clean:
            decisions = dict.fromkeys(ctx.honest, self.ref_tuples[g])
        else:
            self.conforming = False
            p_match = info.p_match
            row_of = self._rows(g)[0]
            decisions = checking_decisions(
                ctx.code, ctx.honest, p_match,
                self.round.received(self, struct, row_of, info).tolist(),
                row_of,
            )
        return GenerationResult(
            generation=g,
            outcome=GenerationOutcome.DECIDED_CHECKING,
            decisions=decisions,
            p_match=info.p_match,
            detectors=detectors,
        )

    def _diagnose(self, struct, g, info, flagged, detectors):
        """Lines 3(a)-3(i) on the context's stage
        (:meth:`CohortContext.diagnose`) under ``info``'s match set.
        ``flagged`` are the outsiders whose broadcast Detected flag is
        set."""
        # Diagnosis mutates the graph: drop the carried structure.
        self.struct = None
        row_of = self._rows(g)[0]
        detected = np.zeros(self.ctx.n, dtype=bool)
        detected[flagged] = True
        received = self.round.received(self, struct, row_of, info)
        return self.ctx.diagnose(
            self.graph, self.backend, self.adversary, self._make_view(), g,
            info.p_match, row_of, received, detected, detectors,
            struct.isolated, self.default_parts[g],
        )

    def _dispatch(self, sources, rows, width, total, tag, struct):
        """Broadcast ``rows[k]``, ``width`` bits, from ``sources[k]``
        (``total``: the live sources' bits); returns the row every
        processor holds for each.  Pure bulk accounting, returning
        ``rows`` itself, when ``ideal_broadcast_bit`` is the base honest
        identity; otherwise the live sources go through
        :func:`dispatch_sources` and the controlled rows read back."""
        backend = self.backend
        if self.ctx.ib_default:
            backend.charge_honest_instances(tag, total)
            return rows
        isolated = struct.isolated
        controlled = self.ctx.controlled
        at = {
            source: k for k, source in enumerate(sources)
            if source in controlled and source not in isolated
        }
        outcomes = dispatch_sources(
            backend, [s for s in sources if s not in isolated],
            {source: rows[k] for source, k in at.items()}, width, tag,
            isolated,
        )
        if not outcomes:
            return rows
        rows = list(rows)
        for source, row in outcomes.items():
            rows[at[source]] = row
        return rows


class _PricedRound:
    """The cohort lane's symbol round (module docstring, steps 1-2):
    honest traffic is value-independent accounting, one
    ``charge_round``; each live faulty sender is asked once for its row
    (:class:`_SymbolRound`); and the deviation pattern looks up the
    generation's :class:`_Plan`, memoized per graph state when it is a
    function of the pattern alone."""

    #: The current generation's faulty payloads (None: nothing to read).
    sym = None

    def open(self, run, struct, g) -> _Plan:
        """Lines 1(a)-1(b) of generation ``g``, and its plan."""
        ctx = run.ctx
        # Honest traffic is value-independent accounting; each live
        # faulty sender is asked once for its row (matching_row), which
        # the round holds as its recipients read it.
        if struct.fab_recips and not run.ms_skip:
            row_of, cw = run._rows(g)
            sym = _SymbolRound(
                run.adversary, struct, row_of, cw, g, run._make_view(),
                ctx.symbol_limit,
            )
            n_sent = sym.sent
            # Memoized when every deviating payload is missing/invalid
            # and every controlled input is the honest one (each M
            # expectation row is then a function of the pattern alone),
            # built fresh otherwise.
            pattern = None if sym.offcw or run.distinct else (
                sym.silent, tuple(sym.exceptions)
            )
        else:
            # No hook to fire: every live faulty sender delivers its own
            # symbol, nothing deviates.
            sym = None
            n_sent = struct.fab_sent
            pattern = _CONFORMING
        self.sym = sym
        run.network.charge_round(
            _generation_tags(g)[0], struct.honest_edges + n_sent, ctx.c
        )
        plan = struct.plans.get(pattern)
        if plan is None:
            plan = self._build_plan(run, struct, g)
            if pattern is not None:
                struct.plans[pattern] = plan
        return plan

    def _build_plan(self, run, struct, g):
        """The plan of one generation's deviation pattern."""
        ctx = run.ctx
        sym = self.sym
        controlled = ctx.controlled
        #: recipient -> the senders whose payload is not the honest
        #: codeword's symbol (what an honest M bit rejects).
        touched: Dict[int, List[int]] = {}
        if sym is not None:
            for f, r, _ in sym.deviations(
                run._rows(g)[1], struct.fab_recips, sym.common
            ):
                touched.setdefault(r, []).append(f)
        zero = [0] * (ctx.n - 1)
        ctrl_rows = {}
        m_rows = []
        for i in range(ctx.n):
            senders = touched.get(i)
            if i in controlled:
                if i in run.distinct or senders:
                    row = self._ctrl_row(run, struct, i, g)
                    bits = m_row_bits(row, i, ctx.n)
                else:
                    row = struct.base_bool[i]
                    bits = struct.base_bits[i]
                ctrl_rows[i] = row
            else:
                bits = struct.base_bits[i]
                if senders:
                    bits = list(bits)
                    for f in senders:
                        bits[f - 1 if f > i else f] = 0
            m_rows.append(bits if struct.live[i] else zero)
        return _Plan(
            frozenset(
                (f, r) for r, senders in touched.items()
                if r not in controlled for f in senders
            ),
            ctrl_rows, m_rows,
        )

    def checking(self, run, struct, info, g):
        """Each outsider's honest Detected value under this round's
        deviations and whether the conforming decode applies."""
        ctx = run.ctx
        sym = self.sym
        controlled = ctx.controlled
        # Only a controlled P_match member's deviating payload matters:
        # to an outsider it is a silent trusted member (detected) or a
        # valid symbol off the codeword (suspect); to an honest
        # recipient it reaches a decision row.
        hit: Set[int] = set()
        suspect: Set[int] = set()
        clean = info.pos_ok
        if sym is not None and info.pm_ctrl:
            cw = run._rows(g)[1]
            match_set = info.match_set
            for _, r, payload in sym.deviations(
                cw, struct.fab_recips, info.pm_ctrl
            ):
                if r not in controlled:
                    clean = False
                if r not in match_set:
                    (hit if payload == _MISSING else suspect).add(r)
        detected = []
        for q in info.outsiders:
            flag = q in hit
            if not flag and q in suspect:
                # Its honest consistency check over the received
                # P_match symbols, some valid but off the codeword.
                mask = struct.mask
                flag = not ctx.code.is_consistent({
                    j: sym.payload(j, q) if j in controlled else cw[j]
                    for j in info.p_match if mask[q, j]
                })
            detected.append((q, flag))
        return _Checking(detected, controlled, clean)

    def _ctrl_row(self, run, struct, i, g):
        """Elementwise M row of controlled pid ``i`` — its expectation is
        its *own* codeword row, which differs from the honest one when
        its effective input does."""
        ctx = run.ctx
        mask = struct.mask
        controlled = ctx.controlled
        row_of = run._rows(g)[0]
        exp = row_of[i]
        row = []
        for j in range(ctx.n):
            if j == i:
                row.append(True)
            elif not mask[i, j]:
                row.append(False)
            elif j in controlled:
                # A live controlled sender, so the round holds its
                # payload; _MISSING equals no symbol.
                row.append(self.sym.payload(j, i) == exp[j])
            else:
                row.append(row_of[j][j] == exp[j])
        return tuple(row)

    def received(self, run, struct, row_of, info):
        """Materialize the checking-stage received symbols in
        ``P_match``'s columns — the only ones line 2(c) and the
        diagnosis stage read — as a fresh ``(n, |P_match|)`` array.

        Each member's column payload is its own symbol (honest and
        conforming senders) or a controlled member's common payload (a
        missing one is :data:`_MISSING`); isolated senders' mask rows
        are zero, so one masked select writes every live trusted
        recipient and leaves the rest missing.  Then the exceptions,
        and each member holds its own symbol.
        """
        sym = self.sym
        p_match = info.p_match
        own = [row_of[j][j] for j in p_match]
        payloads = own
        if sym is not None:
            common = sym.common
            payloads = [
                common.get(j, payload) for j, payload in zip(p_match, own)
            ]
        received = np.where(
            struct.mask[list(p_match)].T,
            np.asarray(payloads, dtype=run.ctx.arena.symbol_dtype),
            _MISSING,
        )
        if sym is not None and sym.exceptions:
            column = {j: index for index, j in enumerate(p_match)}
            for (f, r), payload in sym.exceptions.items():
                index = column.get(f)
                if index is not None:
                    received[r, index] = payload
        received[list(p_match), np.arange(len(p_match))] = own
        return received


class _SentRound:
    """The per-generation lane's symbol round: the traffic moves
    (:func:`~repro.core.generation._send_matching_symbols` over the
    structure's round shape, then ``deliver_arrays``), as a journal, a
    fault plan or inputs that differ need.

    The honest prediction is array work over ``(s, n, n)`` blocks, a
    window of generations at a time, each as long as the stretch has
    run so far (1, 1, 2, 4, ...): received symbols, M matrices, their
    adjacencies and, per match set, the outsiders' consistency checks,
    one batched ``consistent_rows`` per trusted-member set and window.
    A delivery that departs from it is folded into that generation's
    dense ``(n, n)`` row (:data:`_MISSING`: silence, an invalid payload
    or an untrusted sender).
    """

    __slots__ = (
        "controlled", "offdiag", "claims", "first", "count", "senders",
        "receivers", "start", "block", "heard", "m_block", "keys", "checks",
        "row", "folded",
    )

    def __init__(self, ctx):
        n = ctx.n
        self.controlled = np.zeros(n, dtype=bool)
        self.controlled[ctx.controlled_sorted] = True
        self.offdiag = ~np.eye(n, dtype=bool)
        #: The M cells an honest processor claims about a controlled
        #: one: with the M view's adjacency and the controlled rows the
        #: broadcast reads back, they fix every edge of the view.
        self.claims = (
            np.ix_(ctx.honest, sorted(ctx.controlled)) if ctx.controlled
            else None
        )

    def begin(self, run, first: int, stop: int) -> None:
        """A stretch of generations ``first`` to ``stop - 1``, whose
        honest edges the graph as it stands fixes (one batch a round)."""
        self.first = first
        self.count = stop - first
        self.senders, self.receivers, _ = symbol_round_shape(
            run.graph, run.ctx.controlled_sorted
        )
        self.start = 0
        #: The current window's honest adjacencies, one per generation.
        self.keys: List[bytes] = []
        #: Match info -> {window index: its line 2 facts}.
        self.checks: Dict[_MatchInfo, Dict[int, _Checking]] = {}

    def open(self, run, struct, g) -> _Plan:
        """Lines 1(a)-1(b) of generation ``g``, and its (unmemoized)
        plan: every row of the honest M view."""
        ctx = run.ctx
        n = ctx.n
        index = g - self.first - self.start
        if index >= len(self.keys):
            start = self.start + len(self.keys)
            self._window(
                run, struct, start, min(self.count, max(1, 2 * start))
            )
            index = 0
        row = self.row = self.heard[index]
        m = self.m_block[index]
        row_of = run._rows(g)[0]
        delivery = _send_matching_symbols(
            run.network, run.adversary, run._make_view, g, ctx.c,
            self.senders, self.receivers, struct.fab_recips.items(),
            [row_of[pid][pid] for pid in ctx.pids],
        )
        self.folded = self._fold(row, delivery, struct, ctx, g)
        if self.folded:
            np.logical_and(struct.mask, row == self.block[index], out=m)
            np.fill_diagonal(m, True)
            adjacency = m & m.T
            np.fill_diagonal(adjacency, False)
            key = adjacency.tobytes()
        else:
            key = self.keys[index]
        if self.claims is not None:
            key += m[self.claims].tobytes()
        return _Plan(
            key,
            {i: tuple(m[i].tolist()) for i in ctx.controlled_sorted},
            m[self.offdiag].reshape(n, n - 1).view(np.int8).tolist(),
        )

    def _window(self, run, struct, start, stop):
        """The honest prediction of the stretch's generations ``start``
        to ``stop`` (counted from its first), as ``(stop - start, n,
        n)`` blocks: the codewords (``[i, pid]`` is ``pid``'s codeword),
        the received symbols (each trusted live edge carries its
        sender's own symbol, a processor holds its own), the M matrices
        and their adjacencies' bytes."""
        ctx = run.ctx
        n = ctx.n
        dtype = ctx.arena.symbol_dtype
        g = self.first + start
        if stop - start == 1:
            block = np.array([run._rows(g)[0]], dtype=dtype)
        else:
            # Processors holding one value share its run's conversion.
            block = np.empty((stop - start, n, n), dtype=dtype)
            converted: Dict[int, np.ndarray] = {}
            for pid, runs in enumerate(run._whole_run_codewords()):
                rows = converted.get(id(runs))
                if rows is None:
                    rows = converted[id(runs)] = np.array(
                        runs[g:g + stop - start], dtype=dtype
                    )
                block[:, pid] = rows
        everyone = np.arange(n)
        diagonals = block[:, everyone, everyone]
        received = np.full(block.shape, _MISSING, dtype=dtype)
        received[:, self.receivers, self.senders] = (
            diagonals[:, self.senders]
        )
        received[:, everyone, everyone] = diagonals
        # A codeword symbol is never _MISSING, so a missing one
        # mismatches.  An isolated processor's trust row is empty, so
        # its M row is its own slot alone, as its broadcast-free row
        # must read.
        m_block = struct.mask & (received == block)
        m_block[:, everyone, everyone] = True
        adjacency = m_block & m_block.transpose(0, 2, 1)
        adjacency[:, everyone, everyone] = False
        self.start = start
        self.block, self.heard, self.m_block = block, received, m_block
        self.keys = [view.tobytes() for view in adjacency]
        self.checks = {}

    def _fold(self, row, delivery, struct, ctx, g) -> bool:
        """Lines 1(a)-1(b): fold what the symbol round delivered into
        ``row``, which holds the honest prediction (``row[i, j]`` the
        symbol ``j`` sent to ``i``).

        Returns ``False`` when the round delivered exactly the
        prediction: the whole honest batch and nothing else.  Otherwise
        a partly delivered honest batch (a fault plan omitted or delayed
        edges) is scattered afresh, and Byzantine batches and scalar
        messages are validated per edge, exactly as the scalar path
        does; a batch is Byzantine when its senders are controlled (a
        batch never mixes honest and faulty senders).
        """
        limit = ctx.symbol_limit
        honest: List = []
        byzantine: List = []
        for batch in delivery.batches:
            (byzantine if self.controlled[batch.senders[0]] else honest
             ).append(batch)
        complete = (
            sum(batch.senders.shape[0] for batch in honest)
            == self.senders.shape[0]
        )
        inboxes = delivery.inboxes
        if complete and not byzantine and not any(inboxes.values()):
            return False
        if not complete:
            # Honest traffic: codeword symbols, valid by construction
            # and trust-filtered at send time.
            row[self.receivers, self.senders] = _MISSING
            for batch in honest:
                row[batch.receivers, batch.senders] = batch.payload_lanes(
                    ctx.arena.symbol_dtype
                )
        # Byzantine batches, then scalar messages of this round's tag
        # (a delay fault may carry in stale ones, journaled and metered
        # but not read), each validated per edge; line 1(b) ignores
        # untrusted senders (a batch is trust-filtered at send time).
        symbol_tag = _generation_tags(g)[0]
        for sender, recipient, payload in itertools.chain(*(
            zip(batch.senders.tolist(), batch.receivers.tolist(),
                batch.payload_list())
            for batch in byzantine
        ), (
            (message.sender, message.receiver, message.payload)
            for pid in ctx.pids for message in inboxes[pid]
            if message.tag == symbol_tag
        )):
            if struct.mask[recipient, sender]:
                row[recipient, sender] = received_symbol(
                    payload, limit, _MISSING
                )
        return True

    def checking(self, run, struct, info, g):
        """Line 2(a) of generation ``g`` under ``info``'s match set.  A
        folded row is checked on its own; an unfolded one shares one
        batch with every later generation of its window whose honest M
        view has the same adjacency."""
        index = g - self.first - self.start
        if self.folded:
            return self._tables(run, struct, info, [index])[index]
        known = self.checks.get(info)
        if known is None or index not in known:
            key = self.keys[index]
            known = self.checks[info] = self._tables(
                run, struct, info, [index] + [
                    later for later in range(index + 1, len(self.keys))
                    if self.keys[later] == key
                ],
            )
        return known[index]

    def _tables(self, run, struct, info, indices):
        """Each live outsider's honest Detected flag in the window
        generations ``indices`` (line 2(a)), as ``{index: _Checking}``.

        A trusted ``P_match`` member that stayed silent is proof of a
        fault by itself; untrusted members are ignored, not evidence.
        The rest are consistency checks, one batched
        ``consistent_rows`` call over every generation and outsider
        that trusts the same members.
        """
        ctx = run.ctx
        mask = struct.mask
        p_match = info.p_match
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for q in info.outsiders:
            trusted = tuple(j for j in p_match if mask[q, j])
            groups.setdefault(trusted, []).append(q)
        flags: Dict[int, Dict[int, bool]] = {index: {} for index in indices}
        for trusted, group in groups.items():
            values = self.heard[
                np.ix_(indices, group, np.array(trusted, dtype=np.intp))
            ].reshape(len(indices) * len(group), len(trusted))
            detected = (values == _MISSING).any(axis=1)
            whole = ~detected
            if whole.any():
                detected[whole] = ~ctx.code.consistent_rows(
                    trusted, values[whole].tolist()
                )
            cells = iter(detected.tolist())
            for index in indices:
                for q in group:
                    flags[index][q] = next(cells)
        return {
            index: _Checking(
                [(q, flags[index][q]) for q in info.outsiders],
                ctx.controlled, False,
            )
            for index in indices
        }

    def received(self, run, struct, row_of, info):
        """The generation's received symbols in ``P_match``'s columns."""
        return self.row.take(info.columns, axis=1)


def sent_run(protocol, parts) -> _InstanceRun:
    """The instance run behind :meth:`~repro.core.generation.\
GenerationProtocol.run`'s vectorized door: ``protocol``'s collaborators,
    a private context and a :class:`_SentRound`; ``parts[pid]`` is
    ``pid``'s whole-run parts."""
    arena = protocol._arena or ExchangeArena.for_symbol_bits(
        protocol.n, protocol.c
    )
    ctx = CohortContext(protocol.config, protocol.code, protocol.adversary,
                        arena)
    return _InstanceRun(
        ctx, protocol.network, protocol.graph, protocol.backend,
        protocol.adversary, protocol._view_provider,
        [parts[pid] for pid in ctx.pids], _SentRound(ctx),
    )


def run_cohort_instance(
    ctx: CohortContext,
    consensus: MultiValuedConsensus,
    inputs: Sequence[int],
    prewarmed: Optional[Dict[int, Tuple[list, list]]] = None,
):
    """Run one cohort-eligible instance; byte-identical to the
    per-generation engine on the same ``consensus`` and ``inputs``.

    Eligibility (decided by :func:`repro.service.planner.plan_lane`, not
    re-checked here): an error-free constant-cost backend exposing the
    flat dispatch path, no injected network faults, and all honest
    processors sharing one raw input value — that shared value's
    codeword is the baseline every deviation is classified against.
    The controlled set may be empty (a failure-free run).

    ``prewarmed`` maps a value to its (split, whole-run codewords) where
    the caller's batch computed them (:meth:`ConsensusService._prewarm`).
    """
    config = consensus.config
    ctx.forget_if_full()
    effective = prepare_instance(consensus, inputs)
    ref_value = effective[ctx.honest[0]]
    warm = prewarmed.get(ref_value) if prewarmed else None
    ref_parts, ref_codewords = warm or (consensus.parts_for(ref_value), None)
    # Controlled pids whose effective input differs from the honest one
    # (input_value hooks) hold their own parts: their M expectation rows
    # need elementwise treatment; everything honest-facing still keys
    # off the shared codeword.
    parts = [
        ref_parts if effective[pid] == ref_value
        else consensus.parts_for(effective[pid])
        for pid in ctx.pids
    ]
    run = _InstanceRun(
        ctx, consensus.network, consensus.graph, consensus.backend,
        consensus.adversary, consensus._make_view, parts, _PricedRound(),
        consensus.parts_for(config.default_value), ref_codewords,
    )
    generation_results: List[GenerationResult] = []
    for g in range(config.generations):
        result = run.step(g)
        generation_results.append(result)
        if result.outcome is GenerationOutcome.NO_MATCH_DEFAULT:
            break
    # A conforming run decided the reference part itself every
    # generation, whose packed value is the honest input: nothing to
    # reassemble.
    return finalize_result(
        consensus, inputs, generation_results,
        conforming_value=ref_value if run.conforming else None,
    )
