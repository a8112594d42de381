"""The batched generation body: one body, two symbol rounds.

Every vectorized run executes Algorithm 1's generations through
:meth:`_InstanceRun.step`, the one batched generation body, over a
:class:`CohortContext`: the symbol round (:mod:`repro.core.rounds`),
then the M and Detected stages, then line 2(c) or the diagnosis
(:mod:`repro.core.diagnosis`).  The round is a parameter, the one place
the planner's two vectorized lanes differ: the cohort lane prices
honest traffic, the per-generation lane sends it; both run over the
context every instance of one attack shape shares.

What a context keeps across its instances is **value-independent**:
one table of diagnosis-graph *structures*, each holding the plans and
the M view → ``P_match`` match sets (one clique search per distinct M
view, however many generations, instances and lanes produce it) reached
in its graph state.  Everything derived from an instance's values —
part tuples, whole-run codewords, a diagnosis's received columns —
lives on its :class:`_InstanceRun` and dies with it.  A seeded attack
(``random``), or split inputs whose codewords coincide in places, make
a pattern a value in disguise, so the table forgets at
:data:`MAX_PATTERN_ENTRIES`.

Results — decisions, :class:`~repro.core.result.GenerationResult`
records, meter snapshots, round clock, backend instance ids — are
**byte-identical** to the forced-scalar reference, and every
per-instance :class:`Adversary` hook is asked with the scalar arguments
(the symbol hook through its row form); an answer is a function of
those arguments, so the order the step asks in is its own.  Two classes
of shortcut keep that true while skipping work:

* *Unobservable accounting*: a priced round's one-or-two ``send_many``
  + ``deliver_arrays`` collapse to one
  :meth:`~repro.network.simulator.SyncNetwork.charge_round` (equal
  ``Counter`` sums, one round advance), and broadcast dispatch prices
  fault-free sources (``charge_honest_instances`` — identical counters)
  and sends only the controlled rows through
  ``broadcast_bits_many_grouped`` (same hooks and instance ids, no
  per-pid dict fan-out), or none at all when the adversary leaves
  ``ideal_broadcast_bit`` at the honest base implementation.
* *Base-hook elision*: a hook the attack leaves at the base
  (:func:`~repro.processors.adversary.hook_is_default`) is the stateless
  implementation returning its honest argument; skipping the call
  cannot be observed.  Overridden hooks always fire.
"""

from __future__ import annotations

import functools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ConsensusConfig, split_value
from repro.core.diagnosis import checking_decisions, diagnose, dispatch_sources
from repro.core.generation import symbol_round_shape
from repro.core.result import GenerationOutcome, GenerationResult
from repro.graphs.cliques import find_clique_matrix
from repro.processors.adversary import Adversary, hook_is_default
from repro.processors.answers import bit_answer, m_row_change

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


def _hook_profile(adversary: Adversary) -> Tuple[bool, ...]:
    """Whether ``adversary`` leaves each hook the batched body elides at
    the base (module docstring: hook_is_default is the rule)."""
    return tuple(hook_is_default(adversary, name) for name in (
        "matching_row", "m_row", "detected_flag", "ideal_broadcast_bit",
        "diagnosis_symbol", "trust_row",
    ))


class CohortContext:
    """What outlives an instance, for every instance of one deployment
    shape — config, faulty set and hook profile: the code, the default
    split, the exchange arena and the pattern table.

    The service keeps one per cohort key and hands it to every lane's
    engine; a one-shot run builds a private one on first vectorized need
    (:attr:`~repro.core.consensus.MultiValuedConsensus.context`).
    Everything here is a shape, never a value (module docstring)."""

    def __init__(self, config: ConsensusConfig, code, adversary: Adversary):
        self.config = config
        self.code = code
        #: The split of ``config.default_value``, one per context.
        self.default_parts = split_value(config, config.default_value)
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
        self.hooks = _hook_profile(adversary)
        (self.ms_default, self.mv_default, self.df_default,
         self.ib_default, self.ds_default, self.tr_default) = self.hooks
        #: Graph state -> its structure: the one table the cohort keeps.
        self._structs: Dict[Tuple, _GraphStructure] = {}

    @functools.cached_property
    def arena(self):
        """The context's own exchange arena, built on first vectorized
        need (its buffers on first acquisition): the diagnosis stage's
        Trust buffer, and its symbol dtype types the batched arrays."""
        # Imported here: repro.service imports this module (through
        # repro.core.consensus) at package init, so a top-level import
        # would be circular.
        from repro.service.arena import ExchangeArena

        return ExchangeArena.for_symbol_bits(self.n, self.c)

    def refuse_mismatch(self, config: ConsensusConfig, adversary) -> None:
        """Raise :class:`ValueError` unless this context was built for
        ``config`` and an adversary of ``adversary``'s faulty set and
        hook profile: another's tables would elide a hook it overrides."""
        if (config, frozenset(adversary.faulty), _hook_profile(adversary)) != (
            self.config, self.controlled, self.hooks
        ):
            raise ValueError(
                "this CohortContext was built for another config, faulty "
                "set or hook profile"
            )

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


class _InstanceRun:
    """One instance's generation loop over a context: the one batched
    generation body (:meth:`step`) of both vectorized lanes.  It takes
    its collaborators (network, diagnosis graph, backend, adversary,
    view provider), not the engine that owns them, and its symbol round
    (:mod:`repro.core.rounds`)."""

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
        #: Every honest decision so far equals the reference part
        #: (``ref_tuples[g]``): measured after each generation that did
        #: not decide it by construction (:meth:`_measure`), for the
        #: cohort door (``sent_run`` clears it: its door reassembles).
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
            if g == 0 and self.round.sends:
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
            result = self._diagnose(struct, g, info, flagged, detectors)
            self._measure(result.decisions, g)
            return result
        # Line 2(c): decide C^{-1}(R_i / P_match).
        if check.clean:
            decisions = dict.fromkeys(ctx.honest, self.ref_tuples[g])
        else:
            p_match = info.p_match
            row_of = self._rows(g)[0]
            decisions = checking_decisions(
                ctx.code, ctx.honest, p_match,
                self.round.received(self, struct, row_of, info).tolist(),
                row_of,
            )
            self._measure(decisions, g)
        return GenerationResult(
            generation=g,
            outcome=GenerationOutcome.DECIDED_CHECKING,
            decisions=decisions,
            p_match=info.p_match,
            detectors=detectors,
        )

    def _measure(self, decisions, g) -> None:
        """Keep :attr:`conforming` only if every honest processor
        decided generation ``g``'s reference part (processors deciding
        alike share one tuple, compared once)."""
        if self.conforming:
            ref = self.ref_tuples[g]
            self.conforming = all(
                decided == ref for decided in
                {id(decided): decided for decided in decisions.values()}
                .values()
            )

    def _diagnose(self, struct, g, info, flagged, detectors):
        """Lines 3(a)-3(i) (:func:`~repro.core.diagnosis.diagnose`) under
        ``info``'s match set.  ``flagged`` are the outsiders whose
        broadcast Detected flag is set."""
        # Diagnosis mutates the graph: drop the carried structure.
        self.struct = None
        row_of = self._rows(g)[0]
        detected = np.zeros(self.ctx.n, dtype=bool)
        detected[flagged] = True
        received = self.round.received(self, struct, row_of, info)
        return diagnose(
            self.ctx, self.graph, self.backend, self.adversary,
            self._make_view(), g, info.p_match, row_of, received, detected,
            detectors, struct.isolated, self.default_parts[g],
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
