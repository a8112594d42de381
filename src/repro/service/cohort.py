"""Attack-cohort batching: one generation engine per attack shape.

Instances whose honest processors share one input value run here
instead of through one full
:class:`~repro.core.generation.GenerationProtocol` per generation.
Instances that share an *attack shape* — same ``(n, t, L, D)`` layout,
same canonical attack and declared faulty set
(:func:`repro.service.spec.cohort_key`) — run through one
:class:`CohortContext`.  A failure-free run is the cohort of the empty
faulty set: no hook exists to fire, so every generation is three
charges and no codeword is ever encoded.

A generation has **one path** (:meth:`_InstanceRun.step`), the shape of
the paper's Algorithm 1:

1. *Symbol round.*  Honest traffic is value-independent accounting.
   Line 1(a) has a processor send its *one* symbol to everyone it
   trusts, so each live faulty sender is asked once for its row
   (:meth:`~repro.processors.adversary.Adversary.matching_row`): the
   payload every recipient gets plus the recipients that get something
   else.  The answers, read as on receipt, are the round's
   :class:`_SymbolRound` — a common payload per sender and a sparse
   ``(sender, recipient)`` table of exceptions — which every later step
   reads; the *deviation pattern* is its (silent senders, exception
   pairs).  The exceptions are read sparsely, so the round costs
   O(faulty + deviations), not O(faulty · n).
2. *Plan.*  ``(graph state, pattern)`` looks up a :class:`_Plan`: the
   M expectation rows (tuples) handed to the ``m_row`` hooks, the
   unhooked M broadcast rows, the match set they resolve to and, per
   match set, the checking-stage facts (:class:`_Checking`).  When
   every deviation is *silent* (missing/invalid, none
   valid-but-off-codeword) and no controlled processor holds a distinct
   input, all of that is a function of the pattern alone and the plan
   is memoized for the life of the cohort — a crashed sender's second
   generation, and every generation of a conforming run (the empty
   pattern), compute nothing.  Otherwise the plan depends on this
   generation's values and is built fresh.
3. *Execute.*  Ask each controlled processor for its M row
   (:meth:`~repro.processors.adversary.Adversary.m_row`: an honest
   answer keeps the plan's row, a constant or explicit one replaces
   it), dispatch the M rows, resolve the match set, fire the
   overridden ``detected_flag`` hooks, dispatch the flags, then decide
   (line 2(c), :func:`checking_decisions` once a deviation reaches a
   decision row) — or, when a flag is raised, run the context's own
   diagnosis stage, :meth:`CohortContext.diagnose`, which is array
   work: it prices the fault-free sources' broadcasts, dispatches only
   the controlled sources' rows (:func:`dispatch_sources`), removes the
   accused edges as one matrix update and hands lines 3(f)-3(i) to the
   one verdict, :func:`~repro.core.generation.diagnosis_verdict`.  The
   per-generation engine's diagnosis, M, Detected and line 2(c) steps
   call the same three.

What the context keeps across its instances is **value-independent**:
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
round clock, backend instance ids — are **byte-identical** to a looped
one-shot run, and every per-instance :class:`Adversary` hook is asked
with the scalar arguments (the symbol hook through its row form, step
1); an answer is a function of those arguments, so the order the step
asks in is its own.  Two classes of shortcut keep that true while
skipping work:

* *Unobservable accounting*: the matching round's one-or-two
  ``send_many`` + ``deliver_arrays`` collapse to one
  :meth:`~repro.network.simulator.SyncNetwork.charge_round` (equal
  ``Counter`` sums, one round advance), and broadcast dispatch uses
  :meth:`~repro.broadcast_bit.ideal.AccountedIdealBroadcast.\
broadcast_bits_many_grouped` (same hooks and instance ids, no per-pid
  dict fan-out) or, when the adversary leaves ``ideal_broadcast_bit``
  at the honest base implementation, pure bulk accounting
  (:meth:`~repro.broadcast_bit.ideal.AccountedIdealBroadcast.\
charge_honest_instances` — identical counters).
* *Base-hook elision*: a hook the attack leaves at the base
  (:func:`~repro.processors.adversary.hook_is_default`) is the stateless
  implementation returning its honest argument; skipping the call
  cannot be observed.  Overridden hooks always fire.

A recorded run never comes here: the journal must observe materialized
messages, ``charge_round`` refuses a journalling network, and the
planner keeps such runs on the per-generation engine.
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
from repro.core.generation import _MISSING, diagnosis_verdict
from repro.core.result import GenerationOutcome, GenerationResult
from repro.graphs.cliques import find_clique_matrix
from repro.processors.adversary import Adversary, hook_is_default
from repro.processors.answers import (
    bit_answer, diagnosis_symbol_value, m_row_bits, m_row_change,
    matching_row_answer, received_symbol, trust_row_change,
)
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
        # Faulty live senders, in the cohort's order, and their live
        # trusted recipients, ascending; tuples, because the row hook is
        # handed them.
        self.fab_recips = {
            s: tuple(
                r for r in sorted(graph.trusted_by(s)) if r not in isolated
            )
            for s in controlled
            if live[s]
        }
        self.fab_sent = sum(len(r) for r in self.fab_recips.values())
        honest_rows = [
            i for i in range(n) if live[i] and i not in self.fab_recips
        ]
        self.honest_edges = (
            int(mask[honest_rows].sum()) if honest_rows else 0
        )
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
        "p_match", "match_set", "outsiders", "ctrl_outsider", "pm_ctrl",
        "pos_ok",
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
        pm_arr = np.array(p_match, dtype=np.int64)
        pos_ok = True
        for pid in honest:
            count = int(mask[pid, pm_arr].sum())
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
    symbol and trust broadcasts and the per-generation engine's M and
    Detected broadcasts go through it.

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
    classes: List[List[int]],
    codewords,
) -> Dict[int, Tuple[int, ...]]:
    """Line 2(c): every fault-free processor in ``honest`` decides
    ``C^{-1}(R_i / P_match)`` from its symbol row over ``P_match``
    (``rows``, in ``honest`` order, :data:`_MISSING` where it holds no
    symbol), once per distinct row.

    A row equal to some processor's codeword at every ``P_match``
    position (``classes``, in pid order; ``codewords[pid]`` the whole
    codeword) decides that codeword's first ``k`` symbols: the code is
    systematic and MDS and ``|P_match| = n - t >= k``, so exactly one
    codeword passes through those positions, and its data is what
    ``decode_subset`` would return.  Any other row — a missing symbol,
    a Byzantine one on no processor's codeword — is decoded.
    """
    hit_of: Dict[tuple, int] = {}
    for pid, values in enumerate(classes):
        hit_of.setdefault(tuple(values), pid)
    decided_by_row: Dict[tuple, Tuple[int, ...]] = {}
    decisions: Dict[int, Tuple[int, ...]] = {}
    for pid, values in zip(honest, rows):
        values = tuple(values)
        decided = decided_by_row.get(values)
        if decided is None:
            hit = hit_of.get(values)
            if hit is not None:
                decided = tuple(codewords[hit][:code.k])
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
    """One cohort instance's generation loop over the shared context."""

    __slots__ = (
        "ctx", "consensus", "adversary", "ref_parts", "ref_codewords",
        "cw_runs", "ref_tuples", "distinct", "ms_skip", "default_parts",
        "view", "struct", "rows", "conforming",
    )

    def __init__(self, ctx, consensus, ref_parts, ref_codewords, distinct,
                 default_parts):
        self.ctx = ctx
        self.consensus = consensus
        self.adversary = consensus.adversary
        self.ref_parts = ref_parts
        #: The honest value's whole-run codewords, if its batch encoded them.
        self.ref_codewords = ref_codewords
        #: Per-pid whole-run codewords, encoded on first read (_rows).
        self.cw_runs = None
        #: Per-generation part tuples of the honest value (a conforming
        #: decision row decodes to exactly the sender's own part).
        self.ref_tuples = [tuple(part) for part in ref_parts]
        #: Controlled pid -> parts, where its effective input differs
        #: from the honest one.
        self.distinct = distinct
        # With the symbol hook at the base and no controlled processor
        # holding a distinct value, every payload is the sender's honest
        # shared-codeword symbol: there is no round to read.
        self.ms_skip = ctx.ms_default and not distinct
        self.default_parts = default_parts
        #: Graph structure carried across generations; only a diagnosis
        #: can mutate the graph, so it is invalidated exactly there.
        self.struct = None
        #: The current generation's view snapshot and (codeword rows,
        #: honest codeword), each built on first use (step resets them).
        self.view = self.rows = None
        #: Every generation so far decided the shared codeword's own
        #: part for every honest processor.
        self.conforming = True

    def _rows(self, g: int):
        """Every processor's codeword row for generation ``g`` and the
        shared honest codeword.  The whole-run encode happens on the
        first read, so a run in which no payload is ever inspected
        (every failure-free run) never encodes at all."""
        rows = self.rows
        if rows is None:
            cw_runs = self.cw_runs
            if cw_runs is None:
                # One batched (generations * rows, k) generator matmat
                # per distinct value: parts_for hands the pids holding
                # one value one parts object.
                ctx = self.ctx
                encode = ctx.code.encode_generations
                ref_parts = self.ref_parts
                runs_of = {
                    id(ref_parts): self.ref_codewords or encode(ref_parts)
                }
                for parts in self.distinct.values():
                    if id(parts) not in runs_of:
                        runs_of[id(parts)] = encode(parts)
                cw_runs = self.cw_runs = [
                    runs_of[id(self.distinct.get(pid, ref_parts))]
                    for pid in ctx.pids
                ]
            row_of = [runs[g] for runs in cw_runs]
            rows = self.rows = (row_of, row_of[self.ctx.honest[0]])
        return rows

    def _make_view(self):
        """One snapshot per generation, shared across its hook sites
        (snapshots are pure and content-identical within a generation,
        so sharing is unobservable)."""
        view = self.view
        if view is None:
            view = self.consensus._make_view()
            self.view = view
        return view

    def step(self, g: int) -> GenerationResult:
        """Generation ``g`` of Algorithm 1: the symbol round, the plan
        of its deviation pattern, then one execute body."""
        ctx = self.ctx
        consensus = self.consensus
        consensus._view_extras["generation"] = g
        self.view = self.rows = None
        struct = self.struct
        if struct is None:
            struct = self.struct = ctx.structure_for(consensus.graph)
        sym_tag, m_tag, det_tag = _generation_tags(g)

        # -- lines 1(a)-1(b): the symbol round --------------------------
        # Honest traffic is value-independent accounting; each live
        # faulty sender is asked once for its row (matching_row), which
        # the round holds as its recipients read it.
        if struct.fab_recips and not self.ms_skip:
            row_of, cw = self._rows(g)
            sym = _SymbolRound(
                self.adversary, struct, row_of, cw, g, self._make_view(),
                ctx.symbol_limit,
            )
            n_sent = sym.sent
            # Memoized when every deviating payload is missing/invalid
            # and every controlled input is the honest one (each M
            # expectation row is then a function of the pattern alone),
            # built fresh otherwise.
            pattern = None if sym.offcw or self.distinct else (
                sym.silent, tuple(sym.exceptions)
            )
        else:
            # No hook to fire: every live faulty sender delivers its own
            # symbol, nothing deviates.
            sym = None
            n_sent = struct.fab_sent
            pattern = _CONFORMING
        consensus.network.charge_round(
            sym_tag, struct.honest_edges + n_sent, ctx.c
        )
        plan = struct.plans.get(pattern)
        if plan is None:
            plan = self._build_plan(struct, sym, g)
            if pattern is not None:
                struct.plans[pattern] = plan

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
            ctx.pids, rows, m_tag, struct, struct.m_total
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
            check = plan.checks[info] = self._checking(
                struct, info, sym, g
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
            info.outsiders, rows, det_tag, struct, len(rows)
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
            return self._diagnose(
                struct, g, info.p_match, sym, flagged, detectors
            )
        # Line 2(c): decide C^{-1}(R_i / P_match).
        if check.clean:
            decisions = dict.fromkeys(ctx.honest, self.ref_tuples[g])
        else:
            self.conforming = False
            p_match = info.p_match
            row_of = self._rows(g)[0]
            received = self._scatter_received(struct, row_of, sym, p_match)
            decisions = checking_decisions(
                ctx.code, ctx.honest, p_match, received[ctx.honest].tolist(),
                [[row[j] for j in p_match] for row in row_of], row_of,
            )
        return GenerationResult(
            generation=g,
            outcome=GenerationOutcome.DECIDED_CHECKING,
            decisions=decisions,
            p_match=info.p_match,
            detectors=detectors,
        )

    def _build_plan(self, struct, sym, g):
        """The plan of one generation's deviation pattern."""
        ctx = self.ctx
        controlled = ctx.controlled
        #: recipient -> the senders whose payload is not the honest
        #: codeword's symbol (what an honest M bit rejects).
        touched: Dict[int, List[int]] = {}
        if sym is not None:
            for f, r, _ in sym.deviations(
                self._rows(g)[1], struct.fab_recips, sym.common
            ):
                touched.setdefault(r, []).append(f)
        zero = [0] * (ctx.n - 1)
        ctrl_rows = {}
        m_rows = []
        for i in range(ctx.n):
            senders = touched.get(i)
            if i in controlled:
                if i in self.distinct or senders:
                    row = self._ctrl_row(struct, sym, i, g)
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

    def _checking(self, struct, info, sym, g):
        """Each outsider's honest Detected value under this round's
        deviations and whether the conforming decode applies."""
        ctx = self.ctx
        controlled = ctx.controlled
        # Only a controlled P_match member's deviating payload matters:
        # to an outsider it is a silent trusted member (detected) or a
        # valid symbol off the codeword (suspect); to an honest
        # recipient it reaches a decision row.
        hit: Set[int] = set()
        suspect: Set[int] = set()
        clean = info.pos_ok
        if sym is not None and info.pm_ctrl:
            cw = self._rows(g)[1]
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

    def _diagnose(self, struct, g, p_match, sym, flagged, detectors):
        """Lines 3(a)-3(i) on the context's stage
        (:meth:`CohortContext.diagnose`).  ``flagged`` are the
        outsiders whose broadcast Detected flag is set."""
        consensus = self.consensus
        # Diagnosis mutates the graph: drop the carried structure.
        self.struct = None
        row_of = self._rows(g)[0]
        detected = np.zeros(self.ctx.n, dtype=bool)
        detected[flagged] = True
        return self.ctx.diagnose(
            consensus.graph, consensus.backend, self.adversary,
            self._make_view(), g, p_match, row_of,
            self._scatter_received(struct, row_of, sym, p_match), detected,
            detectors, struct.isolated, self.default_parts[g],
        )

    # -- helpers --------------------------------------------------------

    def _dispatch(self, sources, rows, tag, struct, total):
        """Broadcast ``rows[k]`` from ``sources[k]`` (isolated sources
        hold zero rows; ``total`` is the live sources' bit count): one
        flat outcome row each through ``broadcast_bits_many_grouped``
        when the adversary's ``ideal_broadcast_bit`` hook must fire,
        pure bulk accounting (identical counters, and the outcomes are
        ``rows`` itself) when it is the base honest identity."""
        backend = self.consensus.backend
        if self.ctx.ib_default:
            backend.charge_honest_instances(tag, total)
            return rows
        return backend.broadcast_bits_many_grouped(
            list(zip(sources, rows)), tag, struct.isolated
        )

    def _ctrl_row(self, struct, sym, i, g):
        """Elementwise M row of controlled pid ``i`` — its expectation is
        its *own* codeword row, which differs from the honest one when
        its effective input does."""
        ctx = self.ctx
        mask = struct.mask
        controlled = ctx.controlled
        row_of = self._rows(g)[0]
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
                row.append(sym.payload(j, i) == exp[j])
            else:
                row.append(row_of[j][j] == exp[j])
        return tuple(row)

    def _scatter_received(self, struct, row_of, sym, p_match):
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
        own = [row_of[j][j] for j in p_match]
        payloads = own
        if sym is not None:
            common = sym.common
            payloads = [
                common.get(j, payload) for j, payload in zip(p_match, own)
            ]
        received = np.where(
            struct.mask[list(p_match)].T,
            np.asarray(payloads, dtype=self.ctx.arena.symbol_dtype),
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
    honest = ctx.honest
    ctx.forget_if_full()
    effective = prepare_instance(consensus, inputs)
    ref_value = effective[honest[0]]
    warm = prewarmed.get(ref_value) if prewarmed else None
    ref_parts, ref_codewords = warm or (consensus.parts_for(ref_value), None)
    default_parts = consensus.parts_for(config.default_value)
    # Controlled pids whose effective input differs from the honest one
    # (input_value hooks): their M expectation rows need elementwise
    # treatment; everything honest-facing still keys off the shared
    # codeword.
    distinct = {
        pid: consensus.parts_for(effective[pid])
        for pid in ctx.controlled_sorted
        if effective[pid] != ref_value
    }
    run = _InstanceRun(
        ctx, consensus, ref_parts, ref_codewords, distinct, default_parts
    )
    generation_results: List[GenerationResult] = []
    default_used = False
    for g in range(config.generations):
        result = run.step(g)
        generation_results.append(result)
        if result.outcome is GenerationOutcome.NO_MATCH_DEFAULT:
            default_used = True
            break
    # A conforming run decided the reference part itself every
    # generation, whose packed value is the honest input: nothing to
    # reassemble.
    conforming = run.conforming
    decided_parts = None if conforming else {
        pid: [result.decisions[pid] for result in generation_results]
        for pid in honest
    }
    return finalize_result(
        consensus, inputs, honest, generation_results, decided_parts,
        default_used, conforming_value=ref_value if conforming else None,
    )
