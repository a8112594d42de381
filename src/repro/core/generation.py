"""Algorithm 1's generations: matching, checking, diagnosis.

:meth:`GenerationProtocol.run` executes a *stretch* — consecutive
generations under one diagnosis-graph state, ending at the first that
diagnoses or defaults — and one protocol runs a whole instance, stretch
after stretch.  One generation is a stretch of one, and the scalar path
only ever runs one.

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

Two observationally identical executions sit behind
:meth:`GenerationProtocol.run`:

* the **scalar** path, here — per-edge dicts and per-pid view
  assembly, the reference implementation every other engine is held
  to, and the only engine for backends whose honest broadcasts run
  real rounds (``phase_king``, ``eig`` and the probabilistic ones,
  where honest views can genuinely diverge);
* the **vectorized** path (the planner's ``Lane.PER_GENERATION``, under
  a backend whose honest broadcasts are priced) — a door onto the
  batched generation body (:class:`repro.core.batched._InstanceRun`)
  over a *sent* symbol round: the traffic lands in one ``(n, n)`` numpy
  view, and broadcast views are built once, for the reference processor.
  The protocol keeps that instance run, with its whole-run codewords and
  match memo, for the run's later stretches.

Both paths ask every adversary hook with the same arguments — controlled
rows are applied onto the batched arrays — and an answer is a function
of those arguments (``docs/ARCHITECTURE.md``, rule 3), so metering is
byte-identical.  Both paths ask a faulty processor for its rows once
each (``matching_row``, ``m_row``, ``trust_row``) and read every answer
through :mod:`repro.processors.answers`; the scalar path then assembles
its per-pid views from what was broadcast.  Line 1(a)'s traffic is one
function for every engine that sends it, :func:`_send_matching_symbols`,
and lines 3(f)-3(i) are one function for every engine,
:func:`~repro.core.diagnosis.diagnosis_verdict`.
"""

from __future__ import annotations

from functools import partial
from operator import and_, eq
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.broadcast_bit.interface import BroadcastBackend
from repro.coding.reed_solomon import DecodingError, ReedSolomonCode
from repro.core.config import ConsensusConfig, ProtocolInvariantError
from repro.core.diagnosis import diagnosis_verdict
from repro.core.result import GenerationOutcome, GenerationResult
from repro.graphs.cliques import find_clique
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.network.simulator import RoundDelivery, SyncNetwork
from repro.processors.adversary import Adversary, GlobalView
from repro.processors.answers import (
    bit_answer, diagnosis_symbol_value, m_row_bits, matching_row_payloads,
    received_symbol, trust_row_bits,
)
from repro.utils.bits import INT64_LANE_BITS, bits_to_int, int_to_bits


def _pid_views(outcome: Dict[int, Sequence[int]], n: int, convert) -> list:
    """``[convert(outcome[pid]) for pid in range(n)]`` with each distinct
    row *object* converted once (keyed by ``id`` while ``outcome`` holds
    every row alive): a backend that hands every pid one shared row
    converts it once, and one object can only convert to one value.
    The pids handed one row share its value, which is read, never
    written."""
    ids = list(map(id, map(outcome.__getitem__, range(n))))
    converted = dict(zip(ids, map(outcome.__getitem__, range(n))))
    for key, row in converted.items():
        converted[key] = convert(row)
    return list(map(converted.__getitem__, ids))


def symbol_round_shape(
    graph: DiagnosisGraph, controlled: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, Dict[int, Tuple[int, ...]]]:
    """Who sends to whom in a symbol round under ``graph`` as it stands:
    the honest live senders' edges to their trusted recipients
    (``senders``, ``receivers``; isolation drops every edge of a pid, so
    the trust mask alone encodes liveness), and each live ``controlled``
    sender, in that order, with its live trusted recipients, ascending
    (tuples: the row hook is handed them)."""
    isolated = graph.isolated
    faulty = {
        sender: tuple(
            recipient for recipient in sorted(graph.trusted_by(sender))
            if recipient not in isolated
        )
        for sender in controlled if sender not in isolated
    }
    honest = np.ones(graph.n, dtype=bool)
    honest[list(isolated) + list(faulty)] = False
    senders, receivers = np.nonzero(graph.trust_mask() & honest[:, None])
    return senders, receivers, faulty


def _send_matching_symbols(
    network: SyncNetwork,
    adversary: Adversary,
    view_provider: Callable[[], GlobalView],
    generation: int,
    bits: int,
    senders: np.ndarray,
    receivers: np.ndarray,
    faulty: Iterable[Tuple[int, Tuple[int, ...]]],
    diagonal: Sequence[int],
) -> RoundDelivery:
    """Line 1(a) traffic, identical on every engine that sends it: every
    processor sends its own ``bits``-bit symbol ``diagonal[pid]`` over
    the round's shape — the honest live senders' edges (``senders``,
    ``receivers``) and each live faulty sender with its live trusted
    recipients, ascending (``faulty``).

    Honest senders' traffic moves as one :class:`SymbolBatch`.  Each
    live faulty sender is asked once for its row (``matching_row``, with
    one ``view_provider`` snapshot); the expansion
    (``matching_row_payloads``) puts one edge per non-``None`` payload
    on a second batch.
    """
    symbol_tag = "gen%d.matching.symbols" % generation
    if senders.shape[0]:
        if bits > INT64_LANE_BITS:
            # Wide super-symbols exceed an int64 lane: keep the exact-int
            # list carrier.
            payloads = [diagonal[s] for s in senders.tolist()]
        else:
            # Packed payload lane: one gather, no per-edge Python objects
            # (fancy indexing owns its data, so send_many keeps the lane
            # without copying).
            payloads = np.asarray(diagonal, dtype=np.int64)[senders]
        network.send_many(
            senders, receivers, payloads, bits=bits, tag=symbol_tag,
        )
    # Faulty live senders: one row each, one shared batch.
    faulty_senders: List[int] = []
    faulty_receivers: List[int] = []
    faulty_payloads: List[object] = []
    view = None
    for sender, recipients in faulty:
        if view is None:
            view = view_provider()
        payloads = matching_row_payloads(adversary.matching_row(
            sender, recipients, diagonal[sender], generation, view,
        ), recipients)
        for recipient, payload in zip(recipients, payloads):
            if payload is None:
                continue  # silent: no bits on the wire
            faulty_senders.append(sender)
            faulty_receivers.append(recipient)
            faulty_payloads.append(payload)
    if faulty_senders:
        network.send_many(
            faulty_senders, faulty_receivers, faulty_payloads, bits=bits,
            tag=symbol_tag,
        )
    return network.deliver_arrays()


class GenerationProtocol:
    """Executes Algorithm 1 for a run's generations, a stretch at a time,
    from ``generation`` on."""

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
        context=None,
    ):
        self.config = config
        self.code = code
        self.network = network
        self.graph = graph
        self.backend = backend
        self.adversary = adversary
        #: The next generation to run; each stretch advances it.
        self.generation = generation
        self._view_provider = view_provider
        self.n = config.n
        self.t = config.t
        self.k = config.data_symbols
        self.c = config.symbol_bits
        #: The planner's choice (:func:`repro.core.planner.plan_lane`):
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
        # Scalar memos: the n processors of a run hold few distinct
        # symbol sets, so each is coded once; nothing here outlives the
        # protocol.
        self._clique_cache: Dict[Tuple, Optional[Tuple[int, ...]]] = {}
        self._decode_cache: Dict[frozenset, Tuple[int, ...]] = {}
        self._consistency_cache: Dict[frozenset, bool] = {}
        self._codeword_cache: Dict[Tuple[int, ...], List[int]] = {}
        #: The vectorized path's cohort context (the caller's, so its
        #: memos outlive the instance) and instance run, which the first
        #: stretch builds and the later ones reuse.
        self.context = context
        self._batched = None

    # -- helpers -----------------------------------------------------------------

    @property
    def tag(self) -> str:
        return "gen%d" % self.generation

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
        self, m_view: Tuple[Tuple[bool, ...], ...]
    ) -> Optional[Tuple[int, ...]]:
        """Line 1(e): a clique of ``n - t`` pairwise-matching processors
        in one pid's view (its M row of every processor)."""
        if m_view in self._clique_cache:
            return self._clique_cache[m_view]
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
        self._clique_cache[m_view] = result
        return result

    # -- main entry point -----------------------------------------------------------

    def run(
        self,
        parts: Dict[int, Sequence[Sequence[int]]],
        default_parts: Sequence[Sequence[int]],
    ) -> List[GenerationResult]:
        """Run a *stretch*: generations :attr:`generation` to the last
        ``default_parts`` holds, under the diagnosis graph as it stands,
        ending early at the first that diagnoses (the graph changes) or
        defaults (the run ends); :attr:`generation` moves past the
        generations run, whose records are returned.  The scalar path
        runs a stretch of one generation.

        ``parts[pid][g]`` is ``pid``'s part (``k`` symbols) and
        ``default_parts[g]`` the default part in generation ``g``: every
        stretch of a run is handed the same ``parts``, processors holding
        one value sharing one sequence.
        """
        first = self.generation
        if len(default_parts) <= first:
            raise ValueError("a stretch has at least one generation")
        if self.vectorized:
            if self._batched is None:
                # Imported here: the rounds module imports this one.
                from repro.core.rounds import sent_run

                self._batched = sent_run(self, parts)
            results = self._batched.stretch(first, default_parts)
        elif len(default_parts) != first + 1:
            raise ValueError(
                "the scalar path runs a stretch of one generation, got %d"
                % (len(default_parts) - first)
            )
        else:
            results = [self._run_scalar(
                {pid: parts[pid][first] for pid in range(self.n)},
                default_parts[first],
                frozenset(self.graph.isolated),
            )]
        self.generation = first + len(results)
        return results

    def _run_scalar(
        self,
        parts: Dict[int, Sequence[int]],
        default_part: Sequence[int],
        isolated: FrozenSet[int],
    ) -> GenerationResult:
        """One generation on the scalar reference path."""
        codewords, received = self._matching_exchange(parts, isolated)
        m_view = self._matching_broadcast(codewords, received, isolated)

        # One P_match search per distinct view: pids handed the same M
        # row objects (every pid, under a backend that shares its rows)
        # hold one view, and m_view keeps every row alive for the ids.
        searched: Dict[Tuple[int, ...], Optional[Tuple[int, ...]]] = {}
        p_match_views: Dict[int, Optional[Tuple[int, ...]]] = {}
        for pid in self._honest:
            key = tuple(map(id, m_view[pid]))
            if key not in searched:
                searched[key] = self._find_match_set(m_view[pid])
            p_match_views[pid] = searched[key]
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

        outsiders: Dict[Optional[Tuple[int, ...]], List[int]] = {}
        any_detected = {}
        for pid in self._honest:
            match = p_match_views[pid]
            if match not in outsiders:
                members = set(match or ())
                outsiders[match] = [
                    q for q in range(self.n) if q not in members
                ]
            any_detected[pid] = any(
                map(detected_view[pid].get, outsiders[match])
            )
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

    # -- matching stage (scalar) ------------------------------------------------------

    def _matching_exchange(
        self,
        parts: Dict[int, Sequence[int]],
        isolated: FrozenSet[int],
    ) -> Tuple[Dict[int, List[int]], Dict[int, Dict[int, Optional[int]]]]:
        """Lines 1(a)-1(b): encode and exchange one symbol per processor."""
        codewords = self._encode_codewords(parts)
        senders, receivers, faulty = symbol_round_shape(
            self.graph, self._controlled
        )
        delivery = _send_matching_symbols(
            self.network, self.adversary, self._view_provider, self.generation,
            self.c, senders, receivers, faulty.items(),
            [codewords[pid][pid] for pid in range(self.n)],
        )
        limit = self.code.symbol_limit
        received: Dict[int, Dict[int, Optional[int]]] = {
            pid: {} for pid in range(self.n)
        }
        symbol_tag = "%s.matching.symbols" % self.tag
        for batch in delivery.batches:
            if batch.tag != symbol_tag:
                # A delay fault carried this in from an earlier
                # generation: journaled and metered, but stale to the
                # protocol (synchronous receivers only read the current
                # round's tag).
                continue
            # Edges are already filtered by the trust mask at send time
            # (the mask is symmetric, so the receiver-side line 1(b)
            # filter is equivalent for honest and faulty senders alike).
            for sender, recipient, payload in zip(
                batch.senders.tolist(),
                batch.receivers.tolist(),
                batch.payload_list(),
            ):
                received[recipient][sender] = received_symbol(payload, limit)
        for pid in range(self.n):
            received[pid][pid] = codewords[pid][pid]
        return codewords, received

    def _matching_broadcast(
        self,
        codewords: Dict[int, List[int]],
        received: Dict[int, Dict[int, Optional[int]]],
        isolated: FrozenSet[int],
    ) -> List[Tuple[Tuple[bool, ...], ...]]:
        """Lines 1(c)-1(d): compute and broadcast the M vectors.

        Returns ``m_view[pid][i]`` = the M vector of processor ``i`` as
        received by ``pid`` (self-entries implicitly true): one tuple
        per distinct row the backend returned, shared by the pids it
        handed that row.
        """
        view = self._view_provider()
        tag = "%s.matching.M" % self.tag
        mask = self.graph.trust_mask()
        honest_rows = {}
        for i, trusted in enumerate(mask.tolist()):
            # M_i[j]: j is trusted and sent i the symbol i's codeword
            # holds there (a missing symbol is None, never equal).
            row = list(map(and_, map(
                eq, map(received[i].get, range(self.n)), codewords[i]
            ), trusted))
            row[i] = True
            honest_rows[i] = tuple(row)
        bits = {
            i: m_row_bits(row, i, self.n) for i, row in honest_rows.items()
        }
        for i in self._controlled:
            bits[i] = m_row_bits(self.adversary.m_row(
                i, honest_rows[i], self.generation, view
            ), i, self.n)
        rows = list(bits.items())
        outcomes = self.backend.broadcast_bits_many(rows, tag, isolated)
        n = self.n

        def m_flags(i, row):
            # The n - 1 broadcast flags with i's own slot put back.
            vector = list(map(bool, row))
            vector.insert(i, True)
            return tuple(vector)

        # rows lists every i in order, so a pid's view is its column.
        return list(zip(*[
            _pid_views(outcome, n, partial(m_flags, i))
            for (i, _), outcome in zip(rows, outcomes)
        ]))

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
        view = self._view_provider()
        tag = "%s.checking.detected" % self.tag
        match_set = set(p_match)
        mask = self.graph.trust_mask()

        honest_detected: Dict[int, bool] = {}
        for q in range(self.n):
            if q in match_set or q in isolated:
                continue
            symbols: Dict[int, int] = {}
            missing = False
            trusted = mask[q].tolist()  # q is no member: q != j below
            for j in p_match:
                if not trusted[j]:
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
        view = self._view_provider()

        # Lines 3(a)-3(b): P_match members broadcast their own symbol.
        symbol_tag = "%s.diagnosis.symbol" % self.tag
        r_sharp_view: Dict[int, Dict[int, int]] = {
            pid: {} for pid in range(self.n)
        }

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
            (j, int_to_bits(symbol, self.c)) for j, symbol in symbols.items()
        ]
        outcomes = self.backend.broadcast_bits_many(rows, symbol_tag, isolated)
        for j, outcome in zip(symbols, outcomes):
            r_sharps = _pid_views(outcome, self.n, bits_to_int)
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
                trust_view[pid][i] = trust

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
