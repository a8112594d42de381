"""Algorithm 1's generations: matching, checking, diagnosis.

:meth:`GenerationProtocol.run` executes a *stretch* — consecutive
generations under one diagnosis-graph state, ending at the first that
diagnoses or defaults.  One generation is a stretch of one, and the
scalar path only ever runs one.

The engine keeps a separate state for every processor and only lets
information flow through the two legitimate channels — point-to-point
symbol messages (metered by the :class:`~repro.network.simulator.SyncNetwork`)
and ``Broadcast_Single_Bit`` instances (metered by the backend).  Honest
behaviour is computed from each processor's own state; wherever a *faulty*
processor emits information, the corresponding
:class:`~repro.processors.adversary.Adversary` hook is consulted.

Fault-free processors each derive their own view of broadcast results and
compute their own ``P_match``/decisions from it.  Under an error-free
backend these views provably coincide (and the engine asserts it); under
the probabilistic §4 backend they may diverge, which surfaces as an
inconsistent :class:`~repro.core.result.GenerationResult` — exactly the
error mode the paper describes for that variant.  Common-knowledge
bookkeeping (who broadcasts next, the shared diagnosis graph) follows the
lowest-pid fault-free processor's view, the *reference view*.

Two observationally identical executions coexist:

* the **scalar** path — per-edge dicts and per-pid view assembly, the
  reference implementation every other engine is held to, and the only
  engine for backends whose honest broadcasts run real rounds
  (``phase_king``, ``eig`` and the probabilistic ones, where honest
  views can genuinely diverge);
* the **vectorized** path (the planner's ``Lane.PER_GENERATION``, under
  a backend whose honest broadcasts are priced) — the symbol exchange
  lands in one ``(n, n)`` numpy view assembled from
  :class:`~repro.network.message.SymbolBatch` arrays, M vectors and
  Detected flags are boolean matrices, and broadcast views are built
  once, for the reference processor: the backend hands every processor
  one shared row, so every view is that one.

Both paths ask every adversary hook with the same arguments — controlled
rows are applied onto the batched arrays — and an answer is a function
of those arguments (``docs/ARCHITECTURE.md``, rule 3), so metering is
byte-identical.  Both paths ask a faulty processor for its rows once
each (``matching_row``, ``m_row``, ``trust_row``) and read every answer
through :mod:`repro.processors.answers`; the scalar path then assembles
its per-pid views from what was broadcast.  Lines 3(f)-3(i) are one
function for every engine, :func:`diagnosis_verdict`.

The vectorized path leaves the work that does not change from one
generation to the next to the run loop
(:func:`repro.service.engine.execute_consensus`), which holds it for one
run: the stretch's codewords arrive encoded (one whole-run
``encode_generations`` per distinct value) and the line 1(e) clique
search is memoized per distinct adjacency.  Within a stretch the honest
traffic is array work over ``(s, n, n)`` blocks, computed once: received
symbols, M matrices, adjacency keys, and the outsiders' consistency
checks batched per key.  Each generation still runs its own symbol
round, hook asks and broadcast charges, in the order a one-generation
run would, and a delivery that departs from the honest block is folded
into that generation's row.  The batched pieces it shares with the
cohort engine live in :mod:`repro.service.cohort`, reached through a
lazy import: the dispatch rule every single-bit broadcast goes through
(``dispatch_sources``: fault-free sources priced, only the controlled
ones' rows dispatched through ``broadcast_bits_many_grouped``, which is
what makes ``n >= 127`` fault-injection sweeps practical), line 2(c)'s
decode-once rule (``checking_decisions``) and the diagnosis stage
(``CohortContext.diagnose``).
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.broadcast_bit.interface import BroadcastBackend
from repro.coding.reed_solomon import DecodingError, ReedSolomonCode
from repro.core.config import ConsensusConfig, ProtocolInvariantError
from repro.core.result import GenerationOutcome, GenerationResult
from repro.graphs.cliques import find_clique, find_clique_matrix
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.network.simulator import RoundDelivery, SyncNetwork
from repro.processors.adversary import Adversary, GlobalView
from repro.processors.answers import (
    bit_answer, diagnosis_symbol_value, m_row_bits, matching_row_payloads,
    received_symbol, trust_row_bits,
)

#: Sentinel for "no valid symbol received" in the vectorized view matrix
#: (symbols are non-negative, so -1 is unambiguous in every dtype).
_MISSING = -1


def _pid_views(outcome: Dict[int, Sequence[int]], n: int, convert) -> list:
    """``[convert(outcome[pid]) for pid in range(n)]`` with each distinct
    row *object* converted once (keyed by ``id`` while ``outcome`` holds
    every row alive): a backend that hands every pid one shared row
    converts it once, and one object can only convert to one value.
    Mutable values are the caller's to copy per pid."""
    converted: Dict[int, object] = {}
    views = []
    for pid in range(n):
        row = outcome[pid]
        value = converted.get(id(row))
        if value is None:
            value = converted[id(row)] = convert(row)
        views.append(value)
    return views


@cache
def _cohort_module():
    """:mod:`repro.service.cohort`, home of the batched rules and the
    diagnosis stage the vectorized path shares with the cohort engine;
    imported on first use, as the arena is (``repro.service`` imports
    core modules at package init)."""
    from repro.service import cohort

    return cohort


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
) -> GenerationResult:
    """Lines 3(f)-3(i), once the reference R# over ``P_match``
    (``r_sharp``), the reference Detected flags and the removed edges
    are known: false-alarm isolation, the over-degree rule, ``P_decide``
    and the decode, which every fault-free processor in ``honest``
    decides.  The one verdict of every engine; the scalar oracle, which
    holds a per-pid R#, checks its processors' decodes against it.
    """
    n = graph.n
    match_set = set(p_match)

    # Line 3(f): with a consistent R#, a complainer whose vertex lost
    # no edge is provably lying; isolate it.  The codeword through R#
    # is kept for line 3(i).
    r_sharp_word = code.codeword_through(r_sharp)
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


class GenerationProtocol:
    """Executes Algorithm 1 for a stretch of generations from ``g``."""

    def __init__(
        self,
        config: ConsensusConfig,
        code: ReedSolomonCode,
        network: SyncNetwork,
        graph: DiagnosisGraph,
        backend: BroadcastBackend,
        adversary: Adversary,
        generation: int,
        view_provider: Callable[[], GlobalView],
        vectorized: bool = True,
        arena=None,
        clique_memo: Optional[Dict[bytes, Optional[Tuple[int, ...]]]] = None,
        on_generation: Optional[Callable[[int], None]] = None,
    ):
        self.config = config
        self.code = code
        self.network = network
        self.graph = graph
        self.backend = backend
        self.adversary = adversary
        self.generation = generation
        self._view_provider = view_provider
        self.n = config.n
        self.t = config.t
        self.k = config.data_symbols
        self.c = config.symbol_bits
        self.tag = "gen%d" % generation
        #: The planner's choice (:func:`repro.service.planner.plan_lane`):
        #: the vectorized path prices fault-free broadcasts and shares
        #: one broadcast view, so it needs a priced-honest backend.
        self.vectorized = vectorized
        self._controlled = [
            pid for pid in range(self.n) if adversary.controls(pid)
        ]
        controlled = set(self._controlled)
        self._honest = [pid for pid in range(self.n) if pid not in controlled]
        if not self._honest:
            raise ValueError("at least one fault-free processor required")
        self._reference = self._honest[0]
        # Per-stretch memos: the n processors of a stretch hold few
        # distinct symbol sets, so each is coded once; nothing here
        # outlives the stretch.
        self._clique_cache: Dict[Tuple, Optional[Tuple[int, ...]]] = {}
        self._decode_cache: Dict[frozenset, Tuple[int, ...]] = {}
        self._consistency_cache: Dict[frozenset, bool] = {}
        self._codeword_cache: Dict[Tuple[int, ...], List[int]] = {}
        #: numpy lane for symbol matrices: wide interleaved super-symbols
        #: do not fit an int64, so they fall back to object arrays (the
        #: boolean mask algebra is dtype-independent).
        self._symbol_dtype = np.int64 if self.c <= 62 else object
        #: Preallocated (n, n) exchange/M/adjacency/Detected/Trust
        #: buffers; the engine owner (service or one-shot consensus)
        #: passes its arena so buffers persist across generations.
        self._arena = arena
        #: Vectorized line 1(e) memo, adjacency bytes -> match set; the
        #: run loop passes one per run (a diagnosis changes the key, so
        #: an entry is never stale), default one per generation.
        self._clique_memo = {} if clique_memo is None else clique_memo
        #: Told each generation index as the stretch enters it, before
        #: the generation's first hook is asked (the run loop points
        #: the views' ``generation`` extra at it).
        self._on_generation = on_generation

    # -- helpers -----------------------------------------------------------------

    def _ensure_arena(self):
        """The protocol's exchange arena, built lazily when no owner
        passed one in.  Only the vectorized stage methods call this:
        forced-scalar runs never touch an arena (asserted by the
        arena-reuse tests)."""
        arena = self._arena
        if arena is None:
            # Imported lazily: repro.service imports core modules at
            # package init, so a top-level import here would be circular.
            from repro.service.arena import ExchangeArena

            arena = ExchangeArena(self.n, self._symbol_dtype, _MISSING)
            self._arena = arena
        return arena

    def _view(self) -> GlobalView:
        return self._view_provider()

    def _assert_common(self, views: Dict[int, object], what: str) -> None:
        """Under an error-free backend all honest views must coincide."""
        if not self.backend.error_free:
            return
        reference = views[self._reference]
        for pid in self._honest:
            if views[pid] != reference:
                raise ProtocolInvariantError(
                    "fault-free processors diverged on %s in generation %d: "
                    "%r vs %r (pid %d)"
                    % (what, self.generation, reference, views[pid], pid)
                )

    def _cached_encode(self, part: Sequence[int]) -> List[int]:
        """Memoised ``encode``: encoding is deterministic, so processors
        holding the same part (the common all-equal-inputs case) share one
        codeword computation instead of encoding once per processor."""
        key = tuple(part)
        cached = self._codeword_cache.get(key)
        if cached is None:
            cached = self.code.encode(list(key))
            self._codeword_cache[key] = cached
        return cached

    def _cached_decode(self, positions: Dict[int, int]) -> Tuple[int, ...]:
        """Memoised ``decode_subset``: in the common case every fault-free
        processor decodes the same symbol set, so one decode serves all."""
        key = frozenset(positions.items())
        cached = self._decode_cache.get(key)
        if cached is None:
            cached = tuple(self.code.decode_subset(positions))
            self._decode_cache[key] = cached
        return cached

    def _cached_consistent(self, positions: Dict[int, int]) -> bool:
        """Memoised ``is_consistent`` (same sharing argument as decode)."""
        key = frozenset(positions.items())
        cached = self._consistency_cache.get(key)
        if cached is None:
            cached = self.code.is_consistent(positions)
            self._consistency_cache[key] = cached
        return cached

    def _detected(self, q: int, honest_flag: bool, view: GlobalView) -> int:
        """The Detected bit controlled outsider ``q`` broadcasts."""
        return bit_answer("detected_flag", self.adversary.detected_flag(
            q, honest_flag, self.generation, view
        ))

    def _find_match_set(
        self, m_view: Dict[int, List[bool]]
    ) -> Optional[Tuple[int, ...]]:
        """Line 1(e): a clique of ``n - t`` pairwise-matching processors."""
        key = tuple(tuple(m_view[i]) for i in range(self.n))
        if key in self._clique_cache:
            return self._clique_cache[key]
        adjacency = {
            i: {
                j
                for j in range(self.n)
                if j != i and m_view[i][j] and m_view[j][i]
            }
            for i in range(self.n)
        }
        clique = find_clique(adjacency, self.n - self.t)
        result = tuple(clique) if clique is not None else None
        self._clique_cache[key] = result
        return result

    # -- main entry point -----------------------------------------------------------

    def _enter(self, generation: int) -> None:
        """Make ``generation`` the one the stage methods work on."""
        self.generation = generation
        self.tag = "gen%d" % generation
        if self._on_generation is not None:
            self._on_generation(generation)

    def run(
        self,
        parts: Dict[int, Sequence[Sequence[int]]],
        default_parts: Sequence[Sequence[int]],
        codewords: Optional[Dict[int, Sequence[List[int]]]] = None,
    ) -> List[GenerationResult]:
        """Run a *stretch*: consecutive generations from
        :attr:`generation` under the diagnosis graph as it stands, one
        per entry of ``default_parts``.

        ``parts[pid][i]`` is ``pid``'s part (``k`` symbols) in the
        stretch's ``i``-th generation and ``codewords[pid][i]`` its
        encode, where the caller already holds it (the run loop's
        whole-run encode); the vectorized path encodes ``parts``
        otherwise.  The stretch ends early at the first generation that
        diagnoses (the graph changes) or decides the default (the run
        ends); the returned records are the generations run.  The
        scalar path runs a stretch of one generation.
        """
        if not default_parts:
            raise ValueError("a stretch has at least one generation")
        isolated = frozenset(self.graph.isolated)
        if self.vectorized:
            if codewords is None:
                codewords = {pid: [] for pid in range(self.n)}
                for index in range(len(default_parts)):
                    words = self._encode_codewords(
                        {pid: parts[pid][index] for pid in range(self.n)}
                    )
                    for pid, word in words.items():
                        codewords[pid].append(word)
            return self._run_vectorized(codewords, default_parts, isolated)
        if len(default_parts) != 1:
            raise ValueError(
                "the scalar path runs a stretch of one generation, got %d"
                % len(default_parts)
            )
        self._enter(self.generation)
        return [self._run_scalar(
            {pid: parts[pid][0] for pid in range(self.n)},
            default_parts[0],
            isolated,
        )]

    def _run_scalar(
        self,
        parts: Dict[int, Sequence[int]],
        default_part: Sequence[int],
        isolated: FrozenSet[int],
    ) -> GenerationResult:
        """One generation on the scalar reference path."""
        codewords, received = self._matching_exchange(parts, isolated)
        m_view = self._matching_broadcast(codewords, received, isolated)

        p_match_views: Dict[int, Optional[Tuple[int, ...]]] = {
            pid: self._find_match_set(m_view[pid]) for pid in self._honest
        }
        self._assert_common(p_match_views, "P_match")
        p_match = p_match_views[self._reference]

        if p_match is None:
            # Line 1(f): honest inputs provably differ; decide the default.
            decisions = {
                pid: tuple(default_part) for pid in self._honest
            }
            return GenerationResult(
                generation=self.generation,
                outcome=GenerationOutcome.NO_MATCH_DEFAULT,
                decisions=decisions,
                p_match=None,
            )

        detected_view, detectors = self._checking_stage(
            p_match, p_match_views, received, isolated
        )

        any_detected = {
            pid: any(
                detected_view[pid].get(q, False)
                for q in range(self.n)
                if q not in (p_match_views[pid] or ())
            )
            for pid in self._honest
        }
        self._assert_common(any_detected, "Detected outcome")

        if not any_detected[self._reference]:
            # Line 2(c): decide C^{-1}(R_i / P_match).
            decisions = {}
            for pid in self._honest:
                my_match = p_match_views[pid] or p_match
                positions = {
                    j: received[pid][j]
                    for j in my_match
                    if received[pid].get(j) is not None
                }
                try:
                    decisions[pid] = self._cached_decode(positions)
                except (DecodingError, ValueError):
                    # Only reachable when broadcast views diverged
                    # (probabilistic backend): fall back to the default.
                    if self.backend.error_free:
                        raise ProtocolInvariantError(
                            "undecodable checking-stage symbols at pid %d"
                            % pid
                        )
                    decisions[pid] = tuple(default_part)
            self._assert_common(decisions, "checking-stage decision")
            return GenerationResult(
                generation=self.generation,
                outcome=GenerationOutcome.DECIDED_CHECKING,
                decisions=decisions,
                p_match=p_match,
                detectors=detectors,
            )

        return self._diagnosis_stage(
            p_match, codewords, received, detected_view, detectors,
            isolated, default_part,
        )

    # -- stage plumbing shared by both paths ------------------------------------------

    def _encode_codewords(
        self, parts: Dict[int, Sequence[int]]
    ) -> Dict[int, List[int]]:
        """Line 1(a): every processor encodes its part (content-shared)."""
        codewords: Dict[int, List[int]] = {}
        for pid in range(self.n):
            part = list(parts[pid])
            if len(part) != self.k:
                raise ValueError(
                    "pid %d: expected %d symbols, got %d"
                    % (pid, self.k, len(part))
                )
            codewords[pid] = self._cached_encode(part)
        return codewords

    def _symbol_round_shape(
        self, isolated: FrozenSet[int]
    ) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, Tuple[int, ...]]]]:
        """Who sends to whom in a symbol round under the graph as it
        stands: the honest live senders' edges to their trusted live
        recipients (``senders``, ``receivers``), and each live faulty
        sender with its live trusted recipients, ascending."""
        mask = self.graph.trust_mask()
        live = np.ones(self.n, dtype=bool)
        live[list(isolated)] = False
        honest_sender = live.copy()
        honest_sender[self._controlled] = False
        senders, receivers = np.nonzero(
            mask & honest_sender[:, np.newaxis] & live[np.newaxis, :]
        )
        faulty = [
            (sender, tuple(
                recipient
                for recipient in sorted(self.graph.trusted_by(sender))
                if recipient not in isolated
            ))
            for sender in self._controlled
            if live[sender]
        ]
        return senders, receivers, faulty

    def _send_matching_symbols(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        faulty: List[Tuple[int, Tuple[int, ...]]],
        diagonal: Sequence[int],
    ) -> RoundDelivery:
        """Line 1(a) traffic, identical on both paths: every processor
        sends its own symbol ``diagonal[pid]`` over the round's shape
        (:meth:`_symbol_round_shape`).

        Honest senders' traffic moves as one :class:`SymbolBatch` (no
        per-edge Message objects).  Each live faulty sender is asked
        once for its row (``matching_row``); the expansion
        (``matching_row_payloads``) puts one edge per non-``None``
        payload on a second batch — the metering (Counter sums) and the
        journal (sorted per round) are byte-identical to per-edge sends.
        """
        symbol_tag = "%s.matching.symbols" % self.tag
        if senders.shape[0]:
            if self._symbol_dtype is object:
                # Wide super-symbols exceed an int64 lane: keep the
                # exact-int list carrier.
                payloads = [diagonal[s] for s in senders.tolist()]
            else:
                # Packed payload lane: one gather, no per-edge Python
                # objects (fancy indexing owns its data, so send_many
                # keeps the lane without copying).
                payloads = np.asarray(diagonal, dtype=np.int64)[senders]
            self.network.send_many(
                senders, receivers, payloads, bits=self.c, tag=symbol_tag,
            )
        # Faulty live senders: one row each, one shared batch.
        faulty_senders: List[int] = []
        faulty_receivers: List[int] = []
        faulty_payloads: List[object] = []
        view = self._view() if faulty else None
        for sender, recipients in faulty:
            payloads = matching_row_payloads(self.adversary.matching_row(
                sender, recipients, diagonal[sender], self.generation, view,
            ), recipients)
            for recipient, payload in zip(recipients, payloads):
                if payload is None:
                    continue  # silent: no bits on the wire
                faulty_senders.append(sender)
                faulty_receivers.append(recipient)
                faulty_payloads.append(payload)
        if faulty_senders:
            self.network.send_many(
                faulty_senders,
                faulty_receivers,
                faulty_payloads,
                bits=self.c,
                tag=symbol_tag,
            )
        return self.network.deliver_arrays()

    # -- matching stage (scalar) ------------------------------------------------------

    def _matching_exchange(
        self,
        parts: Dict[int, Sequence[int]],
        isolated: FrozenSet[int],
    ) -> Tuple[Dict[int, List[int]], Dict[int, Dict[int, Optional[int]]]]:
        """Lines 1(a)-1(b): encode and exchange one symbol per processor."""
        codewords = self._encode_codewords(parts)
        delivery = self._send_matching_symbols(
            *self._symbol_round_shape(isolated),
            [codewords[pid][pid] for pid in range(self.n)],
        )
        mask = self.graph.trust_mask()
        limit = self.code.symbol_limit

        received: Dict[int, Dict[int, Optional[int]]] = {
            pid: {} for pid in range(self.n)
        }
        for batch in delivery.batches:
            # Batched edges are already filtered by the trust mask at
            # send time (the mask is symmetric, so the receiver-side
            # line 1(b) filter is equivalent for honest and faulty
            # senders alike).
            for sender, recipient, payload in zip(
                batch.senders.tolist(),
                batch.receivers.tolist(),
                batch.payload_list(),
            ):
                received[recipient][sender] = received_symbol(payload, limit)
        symbol_tag = "%s.matching.symbols" % self.tag
        for pid in range(self.n):
            for message in delivery.inboxes[pid]:
                if message.tag != symbol_tag:
                    # A delay fault carried this in from an earlier
                    # round: journaled and metered, but stale to the
                    # protocol (synchronous receivers only read the
                    # current round's tag).
                    continue
                if not mask[pid, message.sender]:
                    continue  # line 1(b): ignore untrusted senders
                received[pid][message.sender] = received_symbol(
                    message.payload, limit
                )
            received[pid][pid] = codewords[pid][pid]
        return codewords, received

    def _matching_broadcast(
        self,
        codewords: Dict[int, List[int]],
        received: Dict[int, Dict[int, Optional[int]]],
        isolated: FrozenSet[int],
    ) -> Dict[int, Dict[int, List[bool]]]:
        """Lines 1(c)-1(d): compute and broadcast the M vectors.

        Returns ``m_view[pid][i]`` = the M vector of processor ``i`` as
        received by ``pid`` (self-entries implicitly true).
        """
        view = self._view()
        tag = "%s.matching.M" % self.tag
        mask = self.graph.trust_mask()
        honest_rows = {
            i: tuple(
                j == i
                or (
                    bool(mask[i, j])
                    and received[i].get(j) is not None
                    and received[i][j] == codewords[i][j]
                )
                for j in range(self.n)
            )
            for i in range(self.n)
        }
        bits = {
            i: m_row_bits(row, i, self.n) for i, row in honest_rows.items()
        }
        for i in self._controlled:
            bits[i] = m_row_bits(self.adversary.m_row(
                i, honest_rows[i], self.generation, view
            ), i, self.n)
        rows = list(bits.items())
        outcomes = self.backend.broadcast_bits_many(rows, tag, isolated)
        m_view: Dict[int, Dict[int, List[bool]]] = {
            pid: {} for pid in range(self.n)
        }
        n = self.n

        def m_flags(i, row):
            # The n - 1 broadcast flags with i's own slot put back.
            vector = [bool(row[index]) for index in range(n - 1)]
            vector.insert(i, True)
            return vector

        for (i, _), outcome in zip(rows, outcomes):
            vectors = _pid_views(outcome, n, partial(m_flags, i))
            for pid, vector in enumerate(vectors):
                m_view[pid][i] = list(vector)
        return m_view

    # -- checking stage (scalar) ------------------------------------------------------

    def _checking_stage(
        self,
        p_match: Tuple[int, ...],
        p_match_views: Dict[int, Optional[Tuple[int, ...]]],
        received: Dict[int, Dict[int, Optional[int]]],
        isolated: FrozenSet[int],
    ) -> Tuple[Dict[int, Dict[int, bool]], List[int]]:
        """Lines 2(a)-2(b): outsiders verify and broadcast Detected flags.

        Returns ``detected_view[pid][q]`` = Detected_q as seen by ``pid``,
        plus the list of fault-free detectors (ground truth for results).
        """
        view = self._view()
        tag = "%s.checking.detected" % self.tag
        match_set = set(p_match)

        honest_detected: Dict[int, bool] = {}
        for q in range(self.n):
            if q in match_set or q in isolated:
                continue
            symbols: Dict[int, int] = {}
            missing = False
            for j in p_match:
                if not self.graph.trusts(q, j):
                    continue  # untrusted members are ignored, not evidence
                value = received[q].get(j)
                if value is None:
                    missing = True  # a trusted member stayed silent: proof
                else:
                    symbols[j] = value
            honest_detected[q] = missing or not self._cached_consistent(
                symbols
            )

        detected_view: Dict[int, Dict[int, bool]] = {
            pid: {} for pid in range(self.n)
        }
        detectors = [
            q for q, flag in honest_detected.items()
            if flag and not self.adversary.controls(q)
        ]
        flags = dict(honest_detected)
        for q in self._controlled:
            if q in flags:
                flags[q] = self._detected(q, honest_detected[q], view)
        rows = [(q, [1 if flag else 0]) for q, flag in flags.items()]
        outcomes = self.backend.broadcast_bits_many(rows, tag, isolated)
        for (q, _), outcome in zip(rows, outcomes):
            for pid in range(self.n):
                detected_view[pid][q] = bool(outcome[pid][0])
        return detected_view, detectors

    # -- diagnosis stage (scalar) -----------------------------------------------------

    def _diagnosis_stage(
        self,
        p_match: Tuple[int, ...],
        codewords: Dict[int, List[int]],
        received: Dict[int, Dict[int, Optional[int]]],
        detected_view: Dict[int, Dict[int, bool]],
        detectors: List[int],
        isolated: FrozenSet[int],
        default_part: Sequence[int],
    ) -> GenerationResult:
        """Lines 3(a)-3(i): assign blame, update the graph, decide."""
        view = self._view()

        # Lines 3(a)-3(b): P_match members broadcast their own symbol.
        symbol_tag = "%s.diagnosis.symbol" % self.tag
        r_sharp_view: Dict[int, Dict[int, int]] = {
            pid: {} for pid in range(self.n)
        }
        c = self.c

        def symbol_of(row):
            return sum(
                bit << (c - 1 - index) for index, bit in enumerate(row)
            )

        symbols = {j: codewords[j][j] for j in p_match}
        for j in self._controlled:
            if j in symbols:
                symbols[j] = diagnosis_symbol_value(
                    self.adversary.diagnosis_symbol(
                        j, symbols[j], self.generation, view
                    ),
                    self.code.symbol_limit,
                )
        rows = [
            (j, [(symbol >> (c - 1 - b)) & 1 for b in range(c)])
            for j, symbol in symbols.items()
        ]
        outcomes = self.backend.broadcast_bits_many(rows, symbol_tag, isolated)
        for j, outcome in zip(symbols, outcomes):
            r_sharps = _pid_views(outcome, self.n, symbol_of)
            for pid, r_sharp in enumerate(r_sharps):
                r_sharp_view[pid][j] = r_sharp

        # Lines 3(c)-3(d): Trust vectors over P_match, broadcast by everyone.
        trust_tag = "%s.diagnosis.trust" % self.tag
        trust_view: Dict[int, Dict[int, Dict[int, bool]]] = {
            pid: {} for pid in range(self.n)
        }

        def trust_of(row):
            return {j: bool(row[index]) for index, j in enumerate(p_match)}

        def honest_trust(i):
            row = []
            for j in p_match:
                mine = codewords[i][i] if i == j else received[i].get(j)
                row.append(
                    self.graph.trusts(i, j)
                    and mine is not None
                    and mine == r_sharp_view[i][j]
                )
            return tuple(row)

        honest_rows = {
            i: honest_trust(i) for i in range(self.n) if i not in isolated
        }
        bits = {
            i: trust_row_bits(row, p_match, row)
            for i, row in honest_rows.items()
        }
        for i in self._controlled:
            if i in honest_rows:
                bits[i] = trust_row_bits(self.adversary.trust_row(
                    i, p_match, honest_rows[i], self.generation, view
                ), p_match, honest_rows[i])
        rows = list(bits.items())
        outcomes = self.backend.broadcast_bits_many(rows, trust_tag, isolated)
        for (i, _), outcome in zip(rows, outcomes):
            for pid, trust in enumerate(_pid_views(outcome, self.n, trust_of)):
                trust_view[pid][i] = dict(trust)

        # Line 3(e): edge removal, from the reference view (identical at
        # every fault-free processor under an error-free backend).
        reference_trust = trust_view[self._reference]
        removed_edges: List[Tuple[int, int]] = []
        for i in range(self.n):
            if i in isolated:
                continue
            for j in p_match:
                if i == j:
                    continue
                if not reference_trust[i].get(j, False):
                    if self.graph.remove_edge(i, j):
                        removed_edges.append(tuple(sorted((i, j))))

        reference_r_sharp = r_sharp_view[self._reference]
        result = diagnosis_verdict(
            self.code, self.graph, self.t, self._honest,
            self.backend.error_free, self.generation, p_match,
            {j: reference_r_sharp[j] for j in p_match},
            [
                bool(detected_view[self._reference].get(q, False))
                for q in range(self.n)
            ],
            removed_edges, isolated, default_part, detectors,
        )
        if result.p_decide is not None:
            # Line 3(i) at every fault-free processor, from its own R#:
            # one holding the reference R# on P_decide holds the
            # verdict's decision.
            reference = {j: reference_r_sharp[j] for j in result.p_decide}
            for pid in self._honest:
                positions = {
                    j: r_sharp_view[pid][j] for j in result.p_decide
                }
                if positions != reference:
                    result.decisions[pid] = self._cached_decode(positions)
            self._assert_common(result.decisions, "diagnosis-stage decision")
        return result

    # -- vectorized path: a stretch of generations ------------------------------------

    def _run_vectorized(
        self,
        codewords: Dict[int, Sequence[List[int]]],
        default_parts: Sequence[Sequence[int]],
        isolated: FrozenSet[int],
    ) -> List[GenerationResult]:
        """Array-backed replay of :meth:`run` for priced-honest
        backends, over a stretch of generations whose codewords are
        already encoded.

        The broadcast contract (agreement at every fault-free processor)
        lets one *reference* view stand in for all fault-free views, so
        the per-pid ``O(n³)`` view assembly of the scalar path collapses
        to ``O(n²)`` boolean matrices; the per-processor ``_assert_common``
        checks become vacuous here and live on in the scalar path, which
        the equivalence suite replays against this one.

        Honest traffic is the processors' own codeword symbols, sent
        over a shape the unchanged graph fixes for the whole stretch, so
        what follows from it is array work over ``(s, n, n)`` blocks,
        done once: the received symbols, the honest M-matrices and their
        adjacency keys; the outsiders' consistency checks are batched
        per adjacency key (:meth:`_checking_tables`) on first use.  The
        blocks are built a window of generations at a time, each window
        as long as the stretch has run so far.
        Everything observable is walked generation by generation, in
        the order of a one-generation run: the symbol round (its own
        ``send_many`` + ``deliver_arrays``, whose delivery is folded into
        the generation's row wherever it differs from the prediction),
        the M rows, the Detected flags, the decision.
        """
        n = self.n
        first = self.generation
        count = len(default_parts)
        mask = np.asarray(self.graph.trust_mask())
        senders, receivers, faulty = self._symbol_round_shape(isolated)
        live = [i for i in range(n) if i not in isolated]
        controlled = np.zeros(n, dtype=bool)
        controlled[self._controlled] = True

        results: List[GenerationResult] = []
        start = 0
        while start < count:
            # A window as long as the stretch has survived so far (1, 1,
            # 2, 4, ... generations): a stretch that ends early wastes
            # at most the work it used.
            stop = min(count, max(1, 2 * start))
            block, received, m_block, adjacency = self._honest_blocks(
                codewords, start, stop, mask, senders, receivers
            )
            predicted = [adjacency[i].tobytes() for i in range(stop - start)]
            #: Adjacency key -> {window index: its line 2 table}.
            checks: Dict[bytes, Dict[int, tuple]] = {}
            for index in range(stop - start):
                self._enter(first + start + index)
                words = {
                    pid: codewords[pid][start + index] for pid in range(n)
                }
                row, m = received[index], m_block[index]
                adjacent = adjacency[index]
                delivery = self._send_matching_symbols(
                    senders, receivers, faulty,
                    [words[pid][pid] for pid in range(n)],
                )
                folded = self._fold_round(
                    row, delivery, senders, receivers, controlled, mask
                )
                if folded:
                    np.logical_and(mask, row == block[index], out=m)
                    np.fill_diagonal(m, True)
                if self._matching_broadcast_vec(m, live, isolated) or folded:
                    np.logical_and(m, m.T, out=adjacent)
                    np.fill_diagonal(adjacent, False)
                    key = adjacent.tobytes()
                else:
                    key = predicted[index]
                if key not in self._clique_memo:
                    # Line 1(e), searched once per distinct adjacency.
                    clique = find_clique_matrix(adjacent, n - self.t)
                    self._clique_memo[key] = (
                        tuple(clique) if clique is not None else None
                    )
                p_match = self._clique_memo[key]

                if p_match is None:
                    # Line 1(f): honest inputs provably differ; decide
                    # the default, and the run ends here.
                    results.append(GenerationResult(
                        generation=self.generation,
                        outcome=GenerationOutcome.NO_MATCH_DEFAULT,
                        decisions={
                            pid: tuple(default_parts[start + index])
                            for pid in self._honest
                        },
                        p_match=None,
                    ))
                    return results

                # A folded row is checked on its own; an unfolded one
                # shares its key's table with every later generation
                # the prediction gives that key.
                known = None if folded else checks.get(key)
                if known is None or index not in known:
                    known = self._checking_tables(
                        p_match, received, block,
                        [index] if folded else [index] + [
                            later
                            for later in range(index + 1, stop - start)
                            if predicted[later] == key
                        ],
                        mask, isolated,
                    )
                    if not folded:
                        checks[key] = known
                honest_detected, rows, classes = known[index]
                detected_ref, detectors = self._checking_stage_vec(
                    honest_detected, isolated
                )

                if detected_ref.any():
                    # Detected outsiders: lines 3(a)-3(i) on the cohort
                    # engine's stage, after which the graph has changed
                    # and the stretch ends.
                    context = _cohort_module().CohortContext(
                        self.config, self.code, self.adversary,
                        self._ensure_arena(),
                    )
                    results.append(context.diagnose(
                        self.graph, self.backend, self.adversary,
                        self._view(), self.generation, p_match, words,
                        row[:, list(p_match)], detected_ref, detectors,
                        isolated, default_parts[start + index],
                    ))
                    return results
                results.append(GenerationResult(
                    generation=self.generation,
                    outcome=GenerationOutcome.DECIDED_CHECKING,
                    decisions=_cohort_module().checking_decisions(
                        self.code, self._honest, p_match, rows, classes,
                        words,
                    ),
                    p_match=p_match,
                    detectors=detectors,
                ))
            start = stop
        return results

    def _honest_blocks(
        self,
        codewords: Dict[int, Sequence[List[int]]],
        start: int,
        stop: int,
        mask: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The honest prediction of the stretch's generations ``start``
        to ``stop``, as ``(stop - start, n, n)`` blocks: the codewords
        (``[i, pid]`` is ``pid``'s codeword), the received symbols (each
        trusted live edge carries its sender's own symbol, a processor
        holds its own), the M-matrices and their adjacencies."""
        n = self.n
        block = self._codeword_block(codewords, start, stop)
        everyone = np.arange(n)
        diagonals = block[:, everyone, everyone]
        received = np.full(block.shape, _MISSING, dtype=self._symbol_dtype)
        received[:, receivers, senders] = diagonals[:, senders]
        received[:, everyone, everyone] = diagonals
        # A codeword symbol is never _MISSING, so a missing one
        # mismatches.  An isolated processor's trust row is empty, so
        # its M row is its own slot alone, as its broadcast-free row
        # must read.
        m_block = mask & (received == block)
        m_block[:, everyone, everyone] = True
        adjacency = m_block & m_block.transpose(0, 2, 1)
        adjacency[:, everyone, everyone] = False
        return block, received, m_block, adjacency

    def _codeword_block(
        self, codewords: Dict[int, Sequence[List[int]]], start: int, stop: int
    ) -> np.ndarray:
        """The codewords of the stretch's generations ``start`` to
        ``stop`` as one block, ``[i, pid]`` being ``pid``'s codeword in
        generation ``start + i``; processors handed one sequence object
        share its conversion."""
        block = np.empty(
            (stop - start, self.n, self.n), dtype=self._symbol_dtype
        )
        converted: Dict[int, np.ndarray] = {}
        for pid in range(self.n):
            run = codewords[pid]
            rows = converted.get(id(run))
            if rows is None:
                rows = converted[id(run)] = np.array(
                    run[start:stop], dtype=self._symbol_dtype
                )
            block[:, pid] = rows
        return block

    def _fold_round(
        self,
        row: np.ndarray,
        delivery: RoundDelivery,
        senders: np.ndarray,
        receivers: np.ndarray,
        controlled: np.ndarray,
        mask: np.ndarray,
    ) -> bool:
        """Lines 1(a)-1(b): fold what the symbol round delivered into
        ``row``, which holds the honest prediction (``row[i, j]`` the
        symbol ``j`` sent to ``i``, :data:`_MISSING` for silence,
        invalid payloads and untrusted senders).

        Returns ``False`` when the round delivered exactly the
        prediction: the whole honest batch and nothing else.  Otherwise
        a partly delivered honest batch (a fault plan omitted or delayed
        edges) is scattered afresh, and Byzantine batches and scalar
        messages are validated per edge, exactly as the scalar path
        does; a batch is Byzantine when its senders are controlled (a
        batch never mixes honest and faulty senders).
        """
        limit = self.code.symbol_limit
        honest: List = []
        byzantine: List = []
        for batch in delivery.batches:
            (byzantine if controlled[batch.senders[0]] else honest).append(
                batch
            )
        complete = (
            sum(batch.senders.shape[0] for batch in honest)
            == senders.shape[0]
        )
        inboxes = delivery.inboxes
        if complete and not byzantine and not any(inboxes.values()):
            return False
        if not complete:
            # Honest traffic: this engine's own codeword symbols, valid
            # by construction and trust-filtered at send time.
            row[receivers, senders] = _MISSING
            for batch in honest:
                row[batch.receivers, batch.senders] = batch.payload_lanes(
                    self._symbol_dtype
                )
        for batch in byzantine:
            for sender, recipient, payload in zip(
                batch.senders.tolist(),
                batch.receivers.tolist(),
                batch.payload_list(),
            ):
                row[recipient, sender] = received_symbol(
                    payload, limit, _MISSING
                )
        symbol_tag = "%s.matching.symbols" % self.tag
        for pid in range(self.n):
            for message in inboxes[pid]:
                if message.tag != symbol_tag:
                    # Stale traffic a delay fault carried in from an
                    # earlier round (see _matching_exchange).
                    continue
                if not mask[pid, message.sender]:
                    continue  # line 1(b): ignore untrusted senders
                row[pid, message.sender] = received_symbol(
                    message.payload, limit, _MISSING
                )
        return True

    def _matching_broadcast_vec(
        self, m_matrix: np.ndarray, live: List[int], isolated: FrozenSet[int]
    ) -> bool:
        """Lines 1(c)-1(d) on the generation's M-matrix.

        ``m_matrix`` holds the honest M matrix — validity makes a
        fault-free source's row arrive as sent — and becomes the
        reference view ``m[i, j]`` = "``i`` claims its symbol from ``j``
        matched" as every fault-free processor received it: the
        controlled processors are asked for their rows (``m_row``) on
        their honest rows, and every live row goes through the one
        dispatch rule (``repro.service.cohort.dispatch_sources``), which
        reads back only the controlled rows (an isolated source
        broadcasts nothing; its honest row is its own slot alone).
        Returns whether a row was read back.
        """
        n = self.n
        #: Controlled pid -> the n - 1 bits its answer broadcasts.
        rows: Dict[int, List[int]] = {}
        if self._controlled:
            view = self._view()
            for i in self._controlled:
                honest_row = tuple(m_matrix[i].tolist())
                rows[i] = m_row_bits(
                    self.adversary.m_row(i, honest_row, self.generation, view),
                    i, n,
                )
        outcomes = _cohort_module().dispatch_sources(
            self.backend, live, rows, n - 1, "%s.matching.M" % self.tag,
            isolated,
        )
        for i, bits in outcomes.items():
            # The scalar ``row[:i]`` / ``row[i:]`` placement.
            m_matrix[i, :i] = bits[:i]
            m_matrix[i, i + 1:] = bits[i:]
        return bool(outcomes)

    def _checking_tables(
        self,
        p_match: Tuple[int, ...],
        received: np.ndarray,
        block: np.ndarray,
        indices: List[int],
        mask: np.ndarray,
        isolated: FrozenSet[int],
    ) -> Dict[int, Tuple[Dict[int, bool], list, list]]:
        """What line 2 reads in the window generations ``indices``, as
        ``{index: (flags, rows, classes)}``: each live outsider's honest
        Detected flag on its ``received`` row (line 2(a)), and for line
        2(c) the fault-free processors' rows and every processor's
        codeword over ``P_match`` (``block`` holds the codewords).

        A trusted ``P_match`` member that stayed silent is proof of a
        fault by itself; untrusted members are ignored, not evidence.
        The rest are consistency checks, one batched
        ``consistent_rows`` call over every generation and outsider
        that trusts the same members.
        """
        match_set = set(p_match)
        outsiders = [
            q for q in range(self.n)
            if q not in match_set and q not in isolated
        ]
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for q in outsiders:
            trusted = tuple(j for j in p_match if mask[q, j])
            groups.setdefault(trusted, []).append(q)
        flags: Dict[int, Dict[int, bool]] = {index: {} for index in indices}
        for trusted, group in groups.items():
            values = received[
                np.ix_(indices, group, np.array(trusted, dtype=np.intp))
            ].reshape(
                len(indices) * len(group), len(trusted)
            )
            detected = (values == _MISSING).any(axis=1)
            whole = ~detected
            if whole.any():
                detected[whole] = ~self.code.consistent_rows(
                    trusted, values[whole].tolist()
                )
            cells = iter(detected.tolist())
            for index in indices:
                for q in group:
                    flags[index][q] = next(cells)
        columns = np.array(p_match, dtype=np.intp)
        rows = received[np.ix_(indices, self._honest, columns)].tolist()
        classes = block[np.ix_(indices, range(self.n), columns)].tolist()
        return {
            index: (
                {q: flags[index][q] for q in outsiders},
                rows[position],
                classes[position],
            )
            for position, index in enumerate(indices)
        }

    def _checking_stage_vec(
        self, honest_detected: Dict[int, bool], isolated: FrozenSet[int]
    ) -> Tuple[np.ndarray, List[int]]:
        """Line 2(b) on the live outsiders' ``honest_detected`` flags;
        returns the reference Detected flags as a boolean vector plus
        the fault-free detectors.  The controlled outsiders are asked
        for their flags (``detected_flag``) and the one-bit rows go
        through the dispatch rule like the M rows."""
        outsiders = list(honest_detected)
        detectors = [
            q for q in outsiders
            if honest_detected[q] and not self.adversary.controls(q)
        ]
        # Detected rows stay scalar one-bit lists by design (a flag is
        # not a "row of bits"); only the reference flag vector is arena'd.
        detected_ref = self._ensure_arena().detected_view()
        detected_ref[outsiders] = list(honest_detected.values())
        rows: Dict[int, List[int]] = {}
        if self._controlled:
            view = self._view()
            for q in self._controlled:
                if q in honest_detected:
                    rows[q] = [self._detected(q, honest_detected[q], view)]
        outcomes = _cohort_module().dispatch_sources(
            self.backend, outsiders, rows, 1,
            "%s.checking.detected" % self.tag, isolated,
        )
        for q, bits in outcomes.items():
            detected_ref[q] = bool(bits[0])
        return detected_ref, detectors
