"""Attack-cohort batching: one generation engine per attack shape.

Instances whose honest processors share one input value run here
instead of through one full
:class:`~repro.core.generation.GenerationProtocol` per generation.
Instances that share an *attack shape* — same ``(n, t, L, D)`` layout,
same canonical attack and declared faulty set
(:func:`repro.service.spec.cohort_key`) — run through one
:class:`CohortContext`.  A failure-free run is the cohort of the empty
faulty set: no hook exists to fire, so every generation is three
charges and no codeword is ever encoded.  The context shares everything
the protocol recomputes identically across its instances:

* the diagnosis-graph *structure* per graph state (trust mask, live
  sets, the faulty senders' recipient lists, the conforming M baseline
  and its broadcast bit rows),
* the honest M rows per deviation pattern and the M-matrix →
  ``P_match`` clique search, keyed by the dispatched M rows (one search
  per distinct M view, however many generations and instances produce
  it),
* checking-stage structure (which ``P_match`` members each outsider
  trusts, per-processor decode position counts),
* decode/consistency/clique memos
  (:class:`~repro.core.generation.ProtocolCaches`) shared with the
  delegated diagnosis stage,
* the ``(n, n)`` diagnosis scatter buffer and the per-part shared
  decisions dicts.

The contract is the PR 3/PR 5 discipline wholesale: results — decisions,
:class:`~repro.core.result.GenerationResult` records, meter snapshots,
round clock, backend instance ids — are **byte-identical** to a looped
one-shot run, and every per-instance :class:`Adversary` hook fires in
the exact scalar order with the exact scalar arguments, so seeded
stateful attacks replay identically.  Two classes of shortcut keep that
true while skipping work:

* *Unobservable accounting*: the matching round's one-or-two
  ``send_many`` + ``deliver_arrays`` collapse to one
  :meth:`~repro.network.simulator.SyncNetwork.charge_round` (equal
  ``Counter`` sums, one round advance), and broadcast dispatch uses
  :meth:`~repro.broadcast_bit.ideal.AccountedIdealBroadcast.\
broadcast_rows_flat` (same hook sequence and instance ids, no per-pid
  dict fan-out) or, when the adversary leaves ``ideal_broadcast_bit``
  at the honest base implementation, pure bulk accounting
  (:meth:`~repro.broadcast_bit.ideal.AccountedIdealBroadcast.\
charge_honest_instances` — identical counters).
* *Base-hook elision*: a hook the attack class does not override is the
  stateless base implementation returning its honest argument; skipping
  the call cannot be observed.  Overridden hooks always fire.

Any generation that reaches the diagnosis stage delegates to the
vectorized :meth:`GenerationProtocol._diagnosis_stage_vec` on a
protocol wired to the cohort's shared caches — diagnosis is rare and
already grouped, so the cohort engine only fast-paths the hot
matching/checking stages.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coding.reed_solomon import DecodingError
from repro.core.config import ConsensusConfig, ProtocolInvariantError
from repro.core.consensus import MultiValuedConsensus
from repro.core.generation import (
    _MISSING,
    GenerationProtocol,
    ProtocolCaches,
)
from repro.core.result import GenerationOutcome, GenerationResult
from repro.graphs.cliques import find_clique_matrix
from repro.processors.adversary import Adversary
from repro.service.engine import finalize_result, prepare_instance
from repro.utils.bits import is_exact_int
from repro.utils.memo import ValueMemo


class _GraphStructure:
    """Value-independent structure of one diagnosis-graph state.

    Everything here depends only on the graph's trust mask / isolated
    set and the cohort's controlled set, so one instance serves every
    generation of every cohort instance that reaches this graph state.
    The M *baseline* (``m_base``/``base_bits``) is the conforming case —
    every delivered symbol matches the recipient's codeword — from which
    per-generation deviations are applied as sparse overrides.
    """

    __slots__ = (
        "key", "mask", "isolated", "live", "fab_recips", "fab_sent",
        "honest_edges", "m_base", "base_bool", "base_bits",
    )

    def __init__(self, graph, controlled: FrozenSet[int], n: int, key):
        self.key = key
        # Isolation drops every edge of the pid, so the mask alone
        # already encodes liveness (its isolated rows/columns are zero);
        # copy it because trust_mask() is a live view of mutable state.
        mask = np.asarray(graph.trust_mask()).copy()
        self.mask = mask
        isolated = frozenset(graph.isolated)
        self.isolated = isolated
        live = [pid not in isolated for pid in range(n)]
        self.live = live
        # Faulty live senders and their recipient lists, in the exact
        # scalar hook order (sender ascending, recipients sorted).
        self.fab_recips = {
            s: [r for r in sorted(graph.trusted_by(s)) if r not in isolated]
            for s in range(n)
            if s in controlled and live[s]
        }
        self.fab_sent = sum(len(r) for r in self.fab_recips.values())
        honest_rows = [
            i for i in range(n) if live[i] and i not in controlled
        ]
        self.honest_edges = (
            int(mask[honest_rows].sum()) if honest_rows else 0
        )
        eye = np.eye(n, dtype=bool)
        m_base = mask | eye
        self.m_base = m_base
        self.base_bool = m_base.tolist()
        self.base_bits = (
            m_base.astype(np.int8)[~eye].reshape(n, n - 1).tolist()
        )


class _ReplayPlan:
    """Per-(graph state, deviation pattern) replay of a recurring
    generation whose only deviations are *silent* (missing/invalid
    payloads, no valid off-codeword symbol, no distinct input).

    Under those conditions every downstream artifact — M rows, match
    set, detection flags, decision-cleanliness — is a function of the
    deviation *pattern*, not of the instance's values, so generations
    repeating the pattern replay from this plan: a crashed sender
    staying silent for the whole run, or the *empty* pattern of a fully
    conforming generation (every generation of a failure-free run).
    Overridden ``m_vector``/``detected_flag`` hooks still fire every
    generation in scalar order and their returns are honoured; only the
    value-independent bookkeeping around them is cached.
    """

    __slots__ = (
        "hdev_key", "missing", "ctrl_row_bool", "m_total", "info",
        "per_info",
    )

    def __init__(self, hdev_key, missing, ctrl_row_bool, m_total, info):
        self.hdev_key = hdev_key
        self.missing = missing
        #: Controlled pids' M expectation rows (the m_vector hook args).
        self.ctrl_row_bool = ctrl_row_bool
        self.m_total = m_total
        #: Resolved match info when the M view is hook-independent
        #: (base ``m_vector``, or every controlled row isolated).
        self.info = info
        #: id(_MatchInfo) -> (det_list, detectors_base, clean); match
        #: infos are immortal in the context cache, so ids are stable.
        self.per_info: Dict[int, tuple] = {}


class _MatchInfo:
    """Checking-stage structure derived from one (graph, M view) pair."""

    __slots__ = (
        "p_match", "match_set", "outsiders", "ctrl_outsider",
        "trusted_ctrl", "pos_ok",
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
        pm_ctrl = [f for f in p_match if f in controlled]
        #: Controlled P_match members each outsider trusts — the only
        #: senders whose payloads can flip its Detected flag (honest
        #: members always deliver their shared-codeword symbol).
        self.trusted_ctrl = {
            q: [f for f in pm_ctrl if mask[q, f]] for q in self.outsiders
        }
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
        encode_cache=None,
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
        self.honest = [
            pid for pid in range(self.n) if pid not in controlled
        ]
        # A hook the attack class leaves at the Adversary base is the
        # stateless honest identity: eliding the call is unobservable.
        a_type = type(adversary)
        self.ms_default = (
            a_type.matching_symbol is Adversary.matching_symbol
        )
        self.mv_default = a_type.m_vector is Adversary.m_vector
        self.df_default = a_type.detected_flag is Adversary.detected_flag
        self.ib_default = (
            a_type.ideal_broadcast_bit is Adversary.ideal_broadcast_bit
        )
        #: Protocol-level memos shared with delegated diagnosis stages.
        self.caches = ProtocolCaches()
        # Pattern-keyed tables: a handful of entries per attack shape,
        # kept for good (replay plans hold match infos by id).
        self._structs: Dict[Tuple, _GraphStructure] = {}
        self._match: Dict[Tuple, _MatchInfo] = {}
        self._replays: Dict[Tuple, _ReplayPlan] = {}
        self._rows: Dict[Tuple, List[Optional[List[int]]]] = {}
        self._tags: List[Tuple[str, str, str]] = []
        # Value-keyed tables: bounded, a long-lived cohort sees an
        # endless stream of fresh values.
        self._values: Dict[tuple, int] = ValueMemo()
        self._decisions: Dict[tuple, Dict[int, tuple]] = ValueMemo()
        self._part_tuples: Dict[int, List[tuple]] = ValueMemo()
        #: Whole-run codewords by part sequence; the service passes its
        #: own table so its cross-instance batched encode lands here.
        self._encodes: Dict[Tuple, List[List[int]]] = (
            encode_cache if encode_cache is not None else ValueMemo()
        )
        self._dtype = np.int64 if self.c <= 62 else object
        #: The owner's exchange arena (the service's, or a one-shot
        #: run's own), so cohort lanes reuse the same (n, n) buffers as
        #: the per-instance engines; delegated diagnosis protocols get
        #: it too.
        self.arena = arena
        self.zero1 = [0]
        self.one1 = [1]
        #: Instances served through this cohort (benchmark introspection).
        self.instances = 0

    def tags_for(self, g: int) -> Tuple[str, str, str]:
        """The generation's (symbols, M, detected) meter tags, formatted
        once per cohort instead of once per generation per instance."""
        tags = self._tags
        while len(tags) <= g:
            prefix = "gen%d" % len(tags)
            tags.append((
                prefix + ".matching.symbols",
                prefix + ".matching.M",
                prefix + ".checking.detected",
            ))
        return tags[g]

    def match_info_for(
        self,
        struct: _GraphStructure,
        hdev_key: Tuple,
        ctrl_key: Tuple,
        outcomes: List[List[int]],
    ) -> _MatchInfo:
        """The match set of one dispatched M view, memoized — honest
        rows are determined by (graph, deviation), so the key only
        carries the controlled rows on top of that."""
        mkey = (struct.key, hdev_key, ctrl_key)
        info = self._match.get(mkey)
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
            self._match[mkey] = info
        return info

    def structure_for(self, graph) -> _GraphStructure:
        mask = np.asarray(graph.trust_mask())
        key = (mask.tobytes(), tuple(sorted(graph.isolated)))
        struct = self._structs.get(key)
        if struct is None:
            struct = _GraphStructure(graph, self.controlled, self.n, key)
            self._structs[key] = struct
        return struct

    def codeword_runs(self, parts: List[List[int]]) -> List[List[int]]:
        """Whole-run codewords for one part sequence: one batched
        ``(generations * rows, k)`` generator matmat, memoized."""
        key = tuple(tuple(part) for part in parts)
        runs = self._encodes.get(key)
        if runs is None:
            runs = self.code.encode_generations(parts)
            self._encodes[key] = runs
        return runs

    def part_tuples_for(self, value: int, parts) -> List[tuple]:
        """Per-generation part tuples of one input value, shared across
        the cohort (the conforming decision rows decode to exactly the
        sender's own part)."""
        tuples = self._part_tuples.get(value)
        if tuples is None:
            tuples = [tuple(part) for part in parts]
            self._part_tuples[value] = tuples
        return tuples

    def decisions_for(self, part: tuple) -> Dict[int, tuple]:
        decisions = self._decisions.get(part)
        if decisions is None:
            decisions = {pid: part for pid in self.honest}
            self._decisions[part] = decisions
        return decisions

    def cached_decode(self, positions: Dict[int, int]) -> Tuple[int, ...]:
        key = frozenset(positions.items())
        cached = self.caches.decode.get(key)
        if cached is None:
            cached = tuple(self.code.decode_subset(positions))
            self.caches.decode[key] = cached
        return cached

    def cached_consistent(self, positions: Dict[int, int]) -> bool:
        key = frozenset(positions.items())
        cached = self.caches.consistency.get(key)
        if cached is None:
            cached = self.code.is_consistent(positions)
            self.caches.consistency[key] = cached
        return cached


def _row_bits(row: Sequence[bool], i: int) -> List[int]:
    """Processor ``i``'s n-entry M row as its n-1 broadcast bits (the
    own slot is never broadcast)."""
    return [1 if flag else 0 for j, flag in enumerate(row) if j != i]


def _journal_symbol_round(
    ctx: "CohortContext",
    network,
    struct: "_GraphStructure",
    ref_row: Sequence[int],
    faulty_sends: Sequence[Tuple[int, int, object]],
    sym_tag: str,
) -> None:
    """Materialize one symbol round on a journalling network.

    The cohort lanes normally collapse the round into one
    ``charge_round`` (value-independent accounting) — which a
    journalling network refuses, because the journal must observe real
    messages.  This fallback reproduces the engine's exact traffic
    instead: one honest batch over the live trusted edges (each sender's
    own codeword symbol, ``ref_row``), one faulty batch of the raw hook
    payloads in scalar hook order, then a single ``deliver_arrays``.
    The meter Counter sums and the per-round-sorted journal are
    byte-identical to the forced-scalar reference; only the collapsed
    charge is traded for the two batched sends.
    """
    mask = struct.mask
    if ctx.controlled_sorted:
        mask = mask.copy()
        mask[ctx.controlled_sorted, :] = False
    senders, receivers = np.nonzero(mask)
    if senders.shape[0]:
        if ctx._dtype is object:
            payloads = [ref_row[s] for s in senders.tolist()]
        else:
            payloads = np.asarray(ref_row, dtype=np.int64)[senders]
        network.send_many(
            senders, receivers, payloads, bits=ctx.c, tag=sym_tag
        )
    if faulty_sends:
        network.send_many(
            [s for s, _, _ in faulty_sends],
            [r for _, r, _ in faulty_sends],
            [p for _, _, p in faulty_sends],
            bits=ctx.c,
            tag=sym_tag,
        )
    network.deliver_arrays()


class _InstanceRun:
    """One cohort instance's generation loop over the shared context."""

    __slots__ = (
        "ctx", "consensus", "adversary", "ref_parts", "cw_runs",
        "ref_tuples", "distinct", "ms_skip", "default_parts", "view",
        "struct",
    )

    def __init__(self, ctx, consensus, ref_parts, ref_tuples, distinct,
                 default_parts):
        self.ctx = ctx
        self.consensus = consensus
        self.adversary = consensus.adversary
        self.ref_parts = ref_parts
        #: Per-pid whole-run codewords, encoded on first read (_rows).
        self.cw_runs = None
        self.ref_tuples = ref_tuples
        #: Controlled pid -> parts, where its effective input differs
        #: from the honest one.
        self.distinct = distinct
        # With the base matching_symbol hook and no controlled processor
        # holding a distinct value, every payload is the sender's honest
        # shared-codeword symbol: classification is statically empty.
        self.ms_skip = ctx.ms_default and not distinct
        self.default_parts = default_parts
        self.view = None
        #: Graph structure carried across generations; only a diagnosis
        #: can mutate the graph, so it is invalidated exactly there.
        self.struct = None

    def _rows(self, g: int):
        """Every processor's codeword row for generation ``g`` and the
        shared honest codeword.  The whole-run encode happens on the
        first read, so a run in which no lane inspects a payload (every
        failure-free run) never encodes at all."""
        cw_runs = self.cw_runs
        if cw_runs is None:
            ctx = self.ctx
            cw_runs = [ctx.codeword_runs(self.ref_parts)] * ctx.n
            for pid, parts in self.distinct.items():
                cw_runs[pid] = ctx.codeword_runs(parts)
            self.cw_runs = cw_runs
        row_of = [runs[g] for runs in cw_runs]
        return row_of, row_of[self.ctx.honest[0]]

    def _make_view(self):
        """One snapshot per generation, shared across its hook sites
        (snapshots are pure and content-identical within a generation,
        so sharing is unobservable)."""
        view = self.view
        if view is None:
            view = self.consensus._make_view()
            self.view = view
        return view

    def run_generation(self, g: int) -> GenerationResult:
        ctx = self.ctx
        consensus = self.consensus
        adversary = self.adversary
        n = ctx.n
        controlled = ctx.controlled
        self.view = None
        struct = self.struct
        if struct is None:
            struct = ctx.structure_for(consensus.graph)
            self.struct = struct
        sym_tag, m_tag, det_tag = ctx.tags_for(g)
        # A journalling network must observe materialized messages, so
        # the symbol round's charge_round collapse is replaced by the
        # engine's real two-batch traffic (see _journal_symbol_round).
        journalling = consensus.network.journal is not None
        faulty_sends: List[Tuple[int, int, object]] = []
        fire = bool(struct.fab_recips) and not self.ms_skip
        row_of = cw = None
        if fire or journalling:
            row_of, cw = self._rows(g)

        # -- lines 1(a)-1(b): the symbol round --------------------------
        # Honest traffic is value-independent accounting; faulty live
        # senders fire their matching_symbol hooks in scalar order and
        # the payloads are classified against two expectations: the
        # recipient's own codeword row (drives its M bit) and the shared
        # honest codeword (drives checking and decisions).
        missing: Set[Tuple[int, int]] = set()
        offcw: Dict[Tuple[int, int], int] = {}
        m_false: List[Tuple[int, int]] = []
        valid: Dict[Tuple[int, int], int] = {}
        if fire:
            n_sent = 0
            view = self._make_view()
            limit = ctx.symbol_limit
            for f, recips in struct.fab_recips.items():
                own = row_of[f][f]
                exp = cw[f]
                for r in recips:
                    payload = adversary.matching_symbol(f, r, own, g, view)
                    if payload is None:
                        # Silent: no bits on the wire, M bit False.
                        missing.add((f, r))
                        m_false.append((f, r))
                        continue
                    if journalling:
                        # Raw hook return: the engine sends invalid
                        # payloads too (charged, rejected on receipt).
                        faulty_sends.append((f, r, payload))
                    n_sent += 1
                    if is_exact_int(payload) and 0 <= payload < limit:
                        payload = int(payload)
                        valid[(f, r)] = payload
                        if payload != row_of[r][f]:
                            m_false.append((f, r))
                        if payload != exp:
                            offcw[(f, r)] = payload
                    else:
                        # Sent (charged) but invalid on receipt.
                        missing.add((f, r))
                        m_false.append((f, r))
        else:
            n_sent = struct.fab_sent
            if journalling:
                # Hooks skipped: every live faulty sender conforms and
                # sends its own codeword symbol to each trusted peer.
                faulty_sends = [
                    (f, r, row_of[f][f])
                    for f, recips in struct.fab_recips.items()
                    for r in recips
                ]
        if journalling:
            _journal_symbol_round(
                ctx, consensus.network, struct, cw, faulty_sends, sym_tag
            )
        else:
            consensus.network.charge_round(
                sym_tag, struct.honest_edges + n_sent, ctx.c
            )

        # -- replay lane: recurring silent-deviation pattern ------------
        # All deviations silent (no valid off-codeword payload) and no
        # distinct input: everything but the per-generation hook calls
        # is determined by (graph state, pattern) and replays from the
        # cached plan.  A crashed sender staying silent all run hits
        # this every generation after the first; a fully conforming
        # generation is the empty pattern.
        if not offcw and not self.distinct and ctx.ib_default:
            plan = self._replay_plan(struct, missing, m_false, row_of, valid)
            return self._run_replay(plan, struct, g, m_tag, det_tag,
                                    row_of, cw, valid)

        if row_of is None:
            row_of, cw = self._rows(g)

        # -- lines 1(c)-1(e): M vectors and the match set ---------------
        hdev_key = tuple(
            sorted(p for p in m_false if p[1] not in controlled)
        )
        honest_bits = self._honest_rows(struct, hdev_key)
        ctrl_touched = {r for (f, r) in m_false if r in controlled}
        rows: List[Tuple[int, List[int]]] = []
        mv_fire = not ctx.mv_default
        for i in range(n):
            if i not in controlled:
                rows.append((i, honest_bits[i]))
                continue
            if i in self.distinct or i in ctrl_touched:
                row_i = self._ctrl_row(struct, row_of, valid, i)
                base_bits = None
            else:
                row_i = struct.base_bool[i]
                base_bits = struct.base_bits[i]
            if mv_fire:
                bits = self._hooked_m_bits(i, row_i, g)
            elif base_bits is not None:
                bits = base_bits
            else:
                bits = _row_bits(row_i, i)
            rows.append((i, bits))
        outcomes = self._dispatch(rows, m_tag, struct)

        # Honest outcomes are determined by (graph, deviation) — only
        # the controlled rows can vary the M view beyond that.
        ctrl_key = tuple(
            tuple(outcomes[i]) for i in ctx.controlled_sorted
        )
        info = ctx.match_info_for(struct, hdev_key, ctrl_key, outcomes)

        if info.p_match is None:
            return self._default_result(g)

        # -- lines 2(a)-2(b): checking stage ----------------------------
        detectors: List[int] = []
        crows: List[Tuple[int, List[int]]] = []
        df_fire = not ctx.df_default
        for q in info.outsiders:
            detected = False
            needs_consistency = False
            for f in info.trusted_ctrl[q]:
                pair = (f, q)
                if pair in missing:
                    detected = True  # a trusted member stayed silent
                    break
                if pair in offcw:
                    needs_consistency = True
            if not detected and needs_consistency:
                detected = self._slow_detect(struct, info, q, valid, cw)
            if q in controlled:
                flag = detected
                if df_fire:
                    flag = bool(
                        adversary.detected_flag(
                            q, detected, g, self._make_view()
                        )
                    )
            else:
                flag = detected
                if flag:
                    detectors.append(q)
            crows.append((q, ctx.one1 if flag else ctx.zero1))
        coutcomes = (
            self._dispatch(crows, det_tag, struct) if crows else []
        )
        flagged = [
            q for (q, _), outcome in zip(crows, coutcomes) if outcome[0]
        ]
        if flagged:
            return self._diagnose(
                struct, g, info.p_match, row_of, valid, flagged, detectors
            )
        # Line 2(c): decide C^{-1}(R_i / P_match).  When no deviation
        # reaches an honest decision row and the conforming position
        # counts are decodable, every honest processor decodes the
        # shared codeword's own part.
        if info.pos_ok and self._clean_for_decisions(info, missing, offcw):
            decisions = ctx.decisions_for(self.ref_tuples[g])
        else:
            decisions = self._general_decisions(
                info, struct, row_of, cw, valid
            )
        return GenerationResult(
            generation=g,
            outcome=GenerationOutcome.DECIDED_CHECKING,
            decisions=decisions,
            p_match=info.p_match,
            detectors=detectors,
        )

    def _default_result(self, g: int) -> GenerationResult:
        """Line 1(f): honest inputs provably differ; decide the default."""
        default = tuple(self.default_parts[g])
        return GenerationResult(
            generation=g,
            outcome=GenerationOutcome.NO_MATCH_DEFAULT,
            decisions={pid: default for pid in self.ctx.honest},
            p_match=None,
        )

    def _diagnose(self, struct, g, p_match, row_of, valid, flagged,
                  detectors):
        """Lines 3(a)-3(i), delegated: diagnosis is rare and already
        grouped, so it runs the vectorized protocol's own stage on the
        cohort's shared caches.  ``flagged`` are the outsiders whose
        broadcast Detected flag is set."""
        ctx = self.ctx
        consensus = self.consensus
        # Diagnosis mutates the graph: drop the carried structure.
        self.struct = None
        if row_of is None:
            row_of, _ = self._rows(g)
        received = self._scatter_received(struct, row_of, valid)
        detected_arr = np.zeros(ctx.n, dtype=bool)
        detected_arr[flagged] = True
        protocol = GenerationProtocol(
            config=ctx.config,
            code=ctx.code,
            network=consensus.network,
            graph=consensus.graph,
            backend=consensus.backend,
            adversary=self.adversary,
            generation=g,
            view_provider=consensus._make_view,
            vectorized=True,
            caches=ctx.caches,
            arena=ctx.arena,
        )
        return protocol._diagnosis_stage_vec(
            p_match,
            dict(enumerate(row_of)),
            received,
            detected_arr,
            detectors,
            struct.isolated,
            self.default_parts[g],
        )

    # -- replay lane ----------------------------------------------------

    def _replay_plan(self, struct, missing=(), m_false=(), row_of=None,
                     valid=None):
        """The memoized replay plan of one silent deviation pattern
        (every deviating payload missing/invalid, so every M
        expectation row is a function of the pattern alone)."""
        ctx = self.ctx
        rkey = (struct.key, tuple(m_false))
        plan = ctx._replays.get(rkey)
        if plan is not None:
            return plan
        controlled = ctx.controlled
        n = ctx.n
        hdev_key = tuple(
            sorted(p for p in m_false if p[1] not in controlled)
        )
        ctrl_touched = {r for (f, r) in m_false if r in controlled}
        ctrl_row_bool = {}
        outcomes: List[Optional[List[int]]] = [None] * n
        m_total = 0
        for i in range(n):
            if i in controlled:
                if i in ctrl_touched:
                    ctrl_row_bool[i] = self._ctrl_row(
                        struct, row_of, valid, i
                    )
                else:
                    ctrl_row_bool[i] = struct.base_bool[i]
            if i in struct.isolated:
                outcomes[i] = [0] * (n - 1)
            else:
                m_total += n - 1
        info = None
        # An overridden m_vector leaves the M view hook-independent only
        # when every controlled processor is isolated: the dispatch
        # zeroes their rows whatever the hook returns.
        if ctx.mv_default or controlled <= struct.isolated:
            honest_bits = self._honest_rows(struct, hdev_key)
            for i in range(n):
                if outcomes[i] is not None:
                    continue
                if i in controlled:
                    outcomes[i] = _row_bits(ctrl_row_bool[i], i)
                else:
                    outcomes[i] = honest_bits[i]
            ctrl_key = tuple(
                tuple(outcomes[i]) for i in ctx.controlled_sorted
            )
            info = ctx.match_info_for(struct, hdev_key, ctrl_key, outcomes)
        plan = _ReplayPlan(
            hdev_key, frozenset(missing), ctrl_row_bool, m_total, info
        )
        ctx._replays[rkey] = plan
        return plan

    def _run_replay(self, plan, struct, g, m_tag, det_tag, row_of, cw,
                    valid):
        """One generation from a replay plan — hook calls (overridden
        ``m_vector``/``detected_flag``) still fire in scalar order and
        their returns are honoured; all pattern-determined bookkeeping
        comes from the plan."""
        ctx = self.ctx
        backend = self.consensus.backend
        n = ctx.n
        controlled = ctx.controlled
        info = plan.info
        if not ctx.mv_default:
            # Overridden m_vector: fires every generation, and its
            # returns shape the M view unless the row is isolated.
            outcomes_ctrl = {}
            for i in ctx.controlled_sorted:
                bits = self._hooked_m_bits(i, plan.ctrl_row_bool[i], g)
                outcomes_ctrl[i] = (
                    [0] * (n - 1) if i in struct.isolated else bits
                )
            if info is None:
                ctrl_key = tuple(
                    tuple(outcomes_ctrl[i]) for i in ctx.controlled_sorted
                )
                info = ctx._match.get(
                    (struct.key, plan.hdev_key, ctrl_key)
                )
                if info is None:
                    honest_bits = self._honest_rows(struct, plan.hdev_key)
                    outcomes = [
                        outcomes_ctrl[i] if i in controlled
                        else [0] * (n - 1) if i in struct.isolated
                        else honest_bits[i]
                        for i in range(n)
                    ]
                    info = ctx.match_info_for(
                        struct, plan.hdev_key, ctrl_key, outcomes
                    )
        if plan.m_total:
            backend.charge_honest_instances(m_tag, plan.m_total)
        if info.p_match is None:
            return self._default_result(g)
        per = plan.per_info.get(id(info))
        if per is None:
            det_list = []
            detectors_base = []
            for q in info.outsiders:
                detected = any(
                    (f, q) in plan.missing for f in info.trusted_ctrl[q]
                )
                ctrl_q = q in controlled
                det_list.append((q, detected, ctrl_q))
                if detected and not ctrl_q:
                    detectors_base.append(q)
            clean = self._clean_for_decisions(info, plan.missing, ())
            per = (det_list, detectors_base, clean)
            plan.per_info[id(info)] = per
        det_list, detectors_base, clean = per
        df_fire = not ctx.df_default
        flagged = []
        for q, detected, ctrl_q in det_list:
            flag = detected
            if ctrl_q and df_fire:
                flag = bool(self.adversary.detected_flag(
                    q, detected, g, self._make_view()
                ))
            if flag:
                flagged.append(q)
        if det_list:
            backend.charge_honest_instances(det_tag, len(det_list))
        if flagged:
            return self._diagnose(
                struct, g, info.p_match, row_of, valid, flagged,
                list(detectors_base),
            )
        if info.pos_ok and clean:
            decisions = ctx.decisions_for(self.ref_tuples[g])
        else:
            if row_of is None:
                row_of, cw = self._rows(g)
            decisions = self._general_decisions(
                info, struct, row_of, cw, valid
            )
        return GenerationResult(
            generation=g,
            outcome=GenerationOutcome.DECIDED_CHECKING,
            decisions=decisions,
            p_match=info.p_match,
            detectors=list(detectors_base),
        )

    # -- helpers --------------------------------------------------------

    def _dispatch(self, rows, tag, struct):
        """Broadcast dispatch: the flat row path when the adversary's
        ``ideal_broadcast_bit`` hook must fire, pure bulk accounting
        (identical counters, identical outcomes) when it is the base
        honest identity."""
        backend = self.consensus.backend
        if not self.ctx.ib_default:
            return backend.broadcast_rows_flat(rows, tag, struct.isolated)
        isolated = struct.isolated
        outcomes = []
        total = 0
        for source, bits in rows:
            if source in isolated:
                outcomes.append([0] * len(bits))
            else:
                total += len(bits)
                outcomes.append(bits)
        if total:
            backend.charge_honest_instances(tag, total)
        return outcomes

    def _hooked_m_bits(self, i, row_i, g):
        """Fire controlled pid ``i``'s ``m_vector`` hook on its
        expectation row; the return, normalized to broadcast bits."""
        n = self.ctx.n
        m_i = list(
            self.adversary.m_vector(i, list(row_i), g, self._make_view())
        )
        if len(m_i) != n:
            m_i = (m_i + [False] * n)[:n]
        return _row_bits(m_i, i)

    def _honest_rows(self, struct, hdev_key):
        """Every honest processor's M broadcast bits under one deviation
        pattern (controlled slots stay ``None``), memoized."""
        ctx = self.ctx
        rows_key = (struct.key, hdev_key)
        rows = ctx._rows.get(rows_key)
        if rows is not None:
            return rows
        rows = [None] * ctx.n
        touched: Dict[int, List[int]] = {}
        for f, r in hdev_key:
            touched.setdefault(r, []).append(f)
        for i in ctx.honest:
            cols = touched.get(i)
            if cols is None:
                rows[i] = struct.base_bits[i]
            else:
                bits = list(struct.base_bits[i])
                for f in cols:
                    bits[f - 1 if f > i else f] = 0
                rows[i] = bits
        ctx._rows[rows_key] = rows
        return rows

    def _ctrl_row(self, struct, row_of, valid, i):
        """Elementwise M row of controlled pid ``i`` — its expectation is
        its *own* codeword row, which differs from the honest one when
        its effective input does."""
        ctx = self.ctx
        mask = struct.mask
        controlled = ctx.controlled
        exp = row_of[i]
        row = []
        for j in range(ctx.n):
            if j == i:
                row.append(True)
            elif not mask[i, j]:
                row.append(False)
            elif j in controlled:
                payload = valid.get((j, i))
                row.append(payload is not None and payload == exp[j])
            else:
                row.append(row_of[j][j] == exp[j])
        return row

    def _slow_detect(self, struct, info, q, valid, cw):
        """Outsider ``q``'s honest consistency check over its received
        P_match symbols (reached only when a trusted controlled member
        delivered a valid off-codeword payload)."""
        ctx = self.ctx
        mask = struct.mask
        controlled = ctx.controlled
        symbols = {}
        for j in info.p_match:
            if not mask[q, j]:
                continue
            symbols[j] = valid[(j, q)] if j in controlled else cw[j]
        return not ctx.cached_consistent(symbols)

    def _clean_for_decisions(self, info, missing, offcw):
        """True when no deviation reaches an honest decision row: every
        missing/off-codeword payload has its sender outside ``P_match``
        or a controlled recipient."""
        match_set = info.match_set
        controlled = self.ctx.controlled
        return not any(
            f in match_set and r not in controlled
            for f, r in itertools.chain(missing, offcw)
        )

    def _general_decisions(self, info, struct, row_of, cw, valid):
        """Exact mirror of the vectorized line 2(c) decode, decoding
        once per distinct symbol row."""
        ctx = self.ctx
        mask = struct.mask
        controlled = ctx.controlled
        p_match = info.p_match
        ms_skip = self.ms_skip
        decisions: Dict[int, tuple] = {}
        row_cache: Dict[tuple, tuple] = {}
        for pid in ctx.honest:
            values = []
            for j in p_match:
                if j == pid:
                    values.append(row_of[pid][pid])
                elif not mask[pid, j]:
                    values.append(_MISSING)
                elif j in controlled:
                    if ms_skip:
                        values.append(cw[j])
                    else:
                        values.append(valid.get((j, pid), _MISSING))
                else:
                    values.append(cw[j])
            key = tuple(values)
            decided = row_cache.get(key)
            if decided is None:
                positions = {
                    j: v for j, v in zip(p_match, values) if v != _MISSING
                }
                try:
                    decided = ctx.cached_decode(positions)
                except (DecodingError, ValueError):
                    raise ProtocolInvariantError(
                        "undecodable checking-stage symbols at pid %d"
                        % pid
                    )
                row_cache[key] = decided
            decisions[pid] = decided
        return decisions

    def _scatter_received(self, struct, row_of, valid):
        """Materialize the checking-stage received matrix for the
        delegated diagnosis stage."""
        ctx = self.ctx
        # The arena's exchange view, reset to _MISSING (the delegated
        # stage never retains it).
        received = ctx.arena.exchange_view()
        mask = struct.mask
        for j in ctx.honest:
            received[mask[j], j] = row_of[j][j]
        if self.ms_skip:
            # Conforming controlled senders delivered their honest
            # symbol to every live trusted recipient, like honest ones.
            for f in struct.fab_recips:
                received[mask[f], f] = row_of[f][f]
        else:
            for (f, r), payload in valid.items():
                received[r, f] = payload
        for i in range(ctx.n):
            received[i, i] = row_of[i][i]
        return received


def run_cohort_instance(
    ctx: CohortContext,
    consensus: MultiValuedConsensus,
    inputs: Sequence[int],
):
    """Run one cohort-eligible instance; byte-identical to the
    per-generation engine on the same ``consensus`` and ``inputs``.

    Eligibility (decided by :func:`repro.service.planner.plan_lane`, not
    re-checked here): an error-free constant-cost backend exposing the
    flat dispatch path, no injected network faults, and all honest
    processors sharing one raw input value — that shared value's
    codeword is the baseline every deviation is classified against.
    The controlled set may be empty (a failure-free run).
    """
    config = consensus.config
    honest = ctx.honest
    effective = prepare_instance(consensus, inputs)
    ref_value = effective[honest[0]]
    ref_parts = consensus.parts_for(ref_value)
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
        ctx,
        consensus,
        ref_parts,
        ctx.part_tuples_for(ref_value, ref_parts),
        distinct,
        default_parts,
    )
    generation_results: List[GenerationResult] = []
    decided_parts: Dict[int, List[tuple]] = {pid: [] for pid in honest}
    default_used = False
    generations = config.generations
    network = consensus.network
    backend = consensus.backend
    g = 0
    while g < generations:
        struct = run.struct
        if struct is None:
            struct = ctx.structure_for(consensus.graph)
            run.struct = struct
        # Fast-forward tail: no matching_symbol call can fire
        # (conforming by construction, or no live faulty edge remains),
        # the broadcast hook is the base identity, and the empty
        # pattern's plan has a hook-independent M view, no
        # detected_flag hook to fire and the shared conforming decode.
        # Nothing can deviate, so no diagnosis can mutate the graph:
        # every remaining generation replays as three constant charges
        # plus the shared conforming record.
        if (
            (run.ms_skip or not struct.fab_recips)
            and not run.distinct
            and ctx.ib_default
        ):
            plan = run._replay_plan(struct)  # the empty pattern
            info = plan.info
            if (
                info is not None
                and info.p_match is not None
                and info.pos_ok
                and (ctx.df_default or not info.ctrl_outsider)
            ):
                sym_count = struct.honest_edges + struct.fab_sent
                n_out = len(info.outsiders)
                ref_tuples = run.ref_tuples
                c = ctx.c
                extras = consensus._view_extras
                adversary = consensus.adversary
                base_bool = struct.base_bool
                controlled_sorted = ctx.controlled_sorted
                mv_fire = not ctx.mv_default
                journalling = network.journal is not None
                for pid in honest:
                    decided_parts[pid].extend(ref_tuples[g:])
                while g < generations:
                    extras["generation"] = g
                    sym_tag, m_tag, det_tag = ctx.tags_for(g)
                    if journalling:
                        # This lane is hook-free (every live faulty
                        # sender conforms), so the materialized faulty
                        # batch carries each sender's own symbol.
                        row_of, cw = run._rows(g)
                        _journal_symbol_round(
                            ctx, network, struct, cw,
                            [
                                (f, r, row_of[f][f])
                                for f, recips in struct.fab_recips.items()
                                for r in recips
                            ],
                            sym_tag,
                        )
                    else:
                        network.charge_round(sym_tag, sym_count, c)
                    if mv_fire:
                        # Every controlled row is isolated: the hooks
                        # fire, the dispatch zeroes what they return.
                        view = consensus._make_view()
                        for i in controlled_sorted:
                            adversary.m_vector(
                                i, list(base_bool[i]), g, view
                            )
                    if plan.m_total:
                        backend.charge_honest_instances(
                            m_tag, plan.m_total
                        )
                    if n_out:
                        backend.charge_honest_instances(det_tag, n_out)
                    generation_results.append(GenerationResult(
                        generation=g,
                        outcome=GenerationOutcome.DECIDED_CHECKING,
                        decisions=ctx.decisions_for(ref_tuples[g]),
                        p_match=info.p_match,
                        detectors=[],
                    ))
                    g += 1
                break
        consensus._view_extras["generation"] = g
        result = run.run_generation(g)
        generation_results.append(result)
        if result.outcome is GenerationOutcome.NO_MATCH_DEFAULT:
            default_used = True
            break
        for pid in honest:
            decided_parts[pid].append(result.decisions[pid])
        g += 1
    ctx.instances += 1
    # The conforming decision rows are the reference parts themselves,
    # whose packed value is the honest input — seed the shared packing
    # cache so finalize never re-packs a conforming run.
    ctx._values[tuple(run.ref_tuples)] = ref_value
    return finalize_result(
        consensus, inputs, honest, generation_results, decided_parts,
        default_used, value_cache=ctx._values,
    )
