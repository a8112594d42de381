"""Error-free multi-valued Byzantine *broadcast* (paper §4).

The paper states that the techniques of Algorithm 1 yield a broadcast of
an L-bit value with ``C_bro(L) < 1.5(n-1)L + Θ(n⁴ L^0.5)`` bits, citing the
authors' technical report [8] for the construction.  This module
implements the natural such construction from the paper's own toolbox —
coded dispersal plus detect-then-diagnose — and ``docs/BENCHMARKS.md``
("Substitutions") documents it as our reconstruction of [8]:

Per generation of ``D`` bits (all control traffic via
``Broadcast_Single_Bit``):

1. **Dispersal** — the source encodes the ``D``-bit part with an
   ``(n-1, n-1-t)`` Reed-Solomon code (distance ``t+1``: pure *detection*)
   and sends the ``j``-th coded symbol to peer ``j`` alone.
2. **Relay** — every peer forwards its symbol to every other peer.  A peer
   now holds one symbol per trusted peer; any ``n-1-t`` of them determine
   the value.
3. **Checking** — a peer whose received symbols are inconsistent with any
   codeword (or who caught a trusted peer staying silent) broadcasts
   ``Detected = true``.  If nobody detects, every peer decodes; two honest
   peers' codewords share the ``>= n-1-t`` honest symbol positions, hence
   agree.
4. **Diagnosis** — on detection: every peer broadcasts the symbol it got
   from the source; the source broadcasts its entire codeword; every peer
   broadcasts per-peer trust flags.  Mismatches remove diagnosis-graph
   edges exactly as in Algorithm 1 (each removal has a faulty endpoint),
   false alarms are isolated, and everyone re-decides from the common
   broadcast information.

Failure-free cost per generation is ``(n-1)² · D/(n-1-t)`` bits, which for
``t < n/3`` is at most ``1.5 (n-1) D`` — the paper's leading term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.complexity import broadcast_optimal_d, feasible_width
from repro.broadcast_bit.ideal import default_b
from repro.coding.interleaved import make_symbol_code
from repro.coding.reed_solomon import min_symbol_bits
from repro.core.config import BACKENDS, ProtocolInvariantError
from repro.core.result import RunOutcome
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.network.metrics import BitMeter, MeterSnapshot
from repro.network.simulator import SyncNetwork
from repro.processors.adversary import Adversary, GlobalView, check_tolerated
from repro.processors.answers import (
    bit_answer, codeword_symbols, diagnosis_symbol_value, received_symbol,
    trust_row_bits, wire_payload,
)
from repro.utils.bits import (
    bits_to_int, int_to_bits, join_symbols, split_symbols,
)
from repro.utils.boundary import (
    check_choice, check_input_value, check_int, check_pid,
)


@dataclass
class BroadcastResult(RunOutcome):
    """Outcome of one L-bit broadcast."""

    source: int
    source_value: int
    decisions: Dict[int, int]
    meter: MeterSnapshot
    diagnosis_count: int
    default_used: bool
    removed_edges: List[Tuple[int, int]] = field(default_factory=list)


class MultiValuedBroadcast:
    """L-bit Byzantine broadcast with ``<= 1.5(n-1)L`` data-path bits."""

    def __init__(
        self,
        n: int,
        l_bits: int,
        t: Optional[int] = None,
        d_bits: Optional[int] = None,
        backend: str = "ideal",
        default_value: int = 0,
        adversary: Optional[Adversary] = None,
        meter: Optional[BitMeter] = None,
        graph: Optional[DiagnosisGraph] = None,
    ):
        check_int(n, "n")
        check_int(l_bits, "l_bits")
        check_int(t, "t", optional=True)
        check_int(d_bits, "d_bits", optional=True)
        check_choice(backend, BACKENDS, "backend")
        check_input_value(default_value, l_bits, "default_value")
        if t is None:
            t = (n - 1) // 3
        if t < 0 or 3 * t >= n:
            raise ValueError("broadcast requires 0 <= t < n/3")
        peers = n - 1
        k = peers - t
        if k < 1:
            raise ValueError("need n - 1 - t >= 1")
        c_min = min_symbol_bits(peers)
        if d_bits is None:
            target = broadcast_optimal_d(n, t, l_bits, float(default_b(n)))
            d_bits = feasible_width(target / k, k, c_min, l_bits) * k
        if d_bits % k:
            raise ValueError(
                "d_bits=%d not a multiple of n-1-t=%d" % (d_bits, k)
            )
        self.n = n
        self.t = t
        self.l_bits = l_bits
        self.d_bits = d_bits
        self.k = k
        self.symbol_bits = d_bits // k
        if self.symbol_bits < c_min:
            raise ValueError(
                "code needs n - 1 <= 2^c - 1 (c=%d)" % self.symbol_bits
            )
        self.generations = math.ceil(l_bits / d_bits)
        self.default_value = default_value
        self.adversary = adversary if adversary is not None else Adversary()
        check_tolerated(self.adversary, n, t)
        self.meter = meter if meter is not None else BitMeter()
        self.graph = graph if graph is not None else DiagnosisGraph(n)
        self.network = SyncNetwork(n, self.meter)
        self.code = make_symbol_code(peers, k, self.symbol_bits)
        self._code_cache = {(peers, k): self.code}
        self.backend = BACKENDS[backend](
            n, t, self.meter, self.adversary, self._make_view
        )
        self._extras: Dict[str, object] = {}

    def _make_view(self) -> GlobalView:
        return GlobalView(
            n=self.n,
            t=self.t,
            faulty=set(self.adversary.faulty),
            extras=dict(self._extras),
        )

    def _generation_code(self, m: int, k: int):
        """The (m, k) code for a generation with ``m`` live positions.

        Dimension ``k = m - t_remaining`` keeps the detection distance at
        ``t_remaining + 1``: however the unidentified faulty processors
        corrupt or equivocate their forwards, some fault-free peer sees an
        inconsistency.  Codes are cached per shape.
        """
        key = (m, k)
        code = self._code_cache.get(key)
        if code is None:
            code = make_symbol_code(m, k, self.symbol_bits)
            self._code_cache[key] = code
        return code

    # -- main entry point -----------------------------------------------------------

    def run(self, source: int, value: int) -> BroadcastResult:
        """Broadcast ``value`` from ``source``; every fault-free processor
        (including the source) ends with a decision."""
        check_pid(source, self.n, "source")
        check_input_value(value, self.l_bits)
        honest = [
            pid for pid in range(self.n)
            if not self.adversary.controls(pid)
        ]
        peers = [pid for pid in range(self.n) if pid != source]

        self._extras = {
            "diag_graph": self.graph,
            "source": source,
            "l_bits": self.l_bits,
        }

        # The zero-padded value as one stream of whole symbols: every
        # generation consumes k_g of them.
        c = self.symbol_bits
        count = -(-self.l_bits // c)
        stream = split_symbols(value, self.l_bits, c, count)
        decided: Dict[int, List[int]] = {pid: [] for pid in honest}
        diagnosis_count = 0
        removed_edges_total: List[Tuple[int, int]] = []
        default_used = False
        consumed = 0
        g = 0

        while consumed < count:
            self._extras["generation"] = g
            graph = self.graph
            if graph.is_isolated(source):
                default_used = True
                break
            isolated = frozenset(graph.isolated)
            source_trust = graph.trust_mask()[source]
            participating = [
                j for j in peers if j not in isolated and source_trust[j]
            ]
            t_remaining = max(0, self.t - len(isolated))
            k_g = len(participating) - t_remaining
            if k_g < 1:
                graph.isolate(source)
                default_used = True
                break
            code = self._generation_code(len(participating), k_g)
            part = stream[consumed:consumed + k_g]
            part += [0] * (k_g - len(part))
            self._extras["code"] = code

            outcome = self._run_generation(
                source, peers, participating, code, part, g, isolated,
            )
            part_decisions, diagnosed, removed, use_default = outcome
            if diagnosed:
                diagnosis_count += 1
            removed_edges_total.extend(removed)
            if use_default:
                default_used = True
                break
            for pid in honest:
                decided[pid].extend(part_decisions[pid])
            consumed += k_g
            g += 1

        decisions = {
            pid: self.default_value if default_used
            else join_symbols(decided[pid], c, self.l_bits)
            for pid in honest
        }
        return BroadcastResult(
            source=source,
            source_value=value,
            decisions=decisions,
            meter=self.meter.snapshot(),
            diagnosis_count=diagnosis_count,
            default_used=default_used,
            removed_edges=removed_edges_total,
        )

    # -- one generation ---------------------------------------------------------------

    def _run_generation(
        self,
        source: int,
        peers: List[int],
        participating: List[int],
        code,
        part: Sequence[int],
        g: int,
        isolated: FrozenSet[int],
    ):
        view = self._make_view()
        adversary = self.adversary
        graph = self.graph
        c = self.symbol_bits
        tag = "bro%d" % g
        k_g = code.k
        position = {pid: index for index, pid in enumerate(participating)}
        active_peers = [j for j in peers if j not in isolated]
        reference = min(set(range(self.n)) - adversary.faulty)

        codeword = code.encode(list(part))
        mask = graph.trust_mask()

        def receive(senders) -> List[Tuple[int, int, int]]:
            """End the round and read it: ``(sender, recipient, symbol)``
            for every edge whose sender is one of ``senders``, trusted by
            its recipient, with a valid symbol (``received_symbol``)."""
            edges = itertools.chain(*(
                zip(batch.senders.tolist(), batch.receivers.tolist(),
                    batch.payload_list())
                for batch in self.network.deliver_arrays().batches
            ))
            return [
                (sender, recipient, payload)
                for sender, recipient, payload in edges
                if sender in senders and mask[recipient, sender]
                and received_symbol(payload, code.symbol_limit) is not None
            ]

        def broadcast_rows(rows, stage) -> List[List[int]]:
            """One ``Broadcast_Single_Bit`` dispatch of ``(source, bits)``
            rows under ``stage``: the reference processor's rows."""
            outcomes = self.backend.broadcast_bits_many(
                rows, "%s.%s" % (tag, stage), isolated
            )
            return [outcome[reference] for outcome in outcomes]

        def broadcast_symbols(rows, stage) -> List[int]:
            """``(source, symbol)`` rows as ``c``-bit rows, one dispatch."""
            received = broadcast_rows(
                [(pid, int_to_bits(symbol, c)) for pid, symbol in rows],
                stage,
            )
            return [bits_to_int(bits) for bits in received]

        # -- stage 1: dispersal ------------------------------------------------
        # One batch carries every peer's symbol; a faulty source answers
        # the per-edge hook (None is silence).
        sent = {}
        for peer in participating:
            symbol = codeword[position[peer]]
            if adversary.controls(source):
                symbol = wire_payload(adversary.source_symbol(
                    source, peer, symbol, g, view
                ))
            if symbol is not None:
                sent[peer] = symbol
        self.network.send_many(
            np.full(len(sent), source, dtype=np.int64),
            np.fromiter(sent, dtype=np.int64, count=len(sent)),
            list(sent.values()),
            bits=c,
            tag="%s.dispersal" % tag,
        )
        from_source: Dict[int, Optional[int]] = dict.fromkeys(participating)
        for _, peer, symbol in receive({source}):
            from_source[peer] = symbol

        # -- stage 2: relay ------------------------------------------------------
        relay_tag = "%s.relay" % tag
        # Honest relayers that hold a symbol: one batch over the trust
        # mask (an honest one holding nothing stays silent).  Faulty
        # relayers answer the per-edge hook, on a second batch.
        active_mask = np.zeros(self.n, dtype=bool)
        active_mask[active_peers] = True
        honest_rows = np.zeros(self.n, dtype=bool)
        honest_rows[[
            sender for sender in participating
            if from_source[sender] is not None
            and not adversary.controls(sender)
        ]] = True
        edge_mask = mask & honest_rows[:, np.newaxis] & active_mask[np.newaxis, :]
        senders, receivers = np.nonzero(edge_mask)
        if senders.shape[0]:
            self.network.send_many(
                senders,
                receivers,
                [from_source[s] for s in senders.tolist()],
                bits=c,
                tag=relay_tag,
            )
        forwarded = []
        for sender in participating:
            if not adversary.controls(sender):
                continue
            held = from_source[sender]
            for recipient in active_peers:
                if not mask[sender, recipient]:
                    continue
                payload = wire_payload(adversary.forwarded_symbol(
                    sender, recipient,
                    held if held is not None else 0, g, view,
                ))
                if payload is not None:
                    forwarded.append((sender, recipient, payload))
        if forwarded:
            senders, receivers, payloads = zip(*forwarded)
            self.network.send_many(
                np.asarray(senders, dtype=np.int64),
                np.asarray(receivers, dtype=np.int64),
                payloads, bits=c, tag=relay_tag,
            )
        relayed: Dict[int, Dict[int, int]] = {peer: {} for peer in peers}
        for sender, peer, symbol in receive(set(participating)):
            relayed[peer][sender] = symbol
        for peer in participating:
            if from_source[peer] is not None:
                relayed[peer][peer] = from_source[peer]

        # -- stage 3: checking ------------------------------------------------------
        # In the common case every peer holds the same symbol set, so
        # consistency checks and decodes are memoised per distinct set.
        memo: Dict[tuple, object] = {}

        def memoised(rule, symbol_map):
            key = (rule, frozenset(symbol_map.items()))
            if key not in memo:
                memo[key] = rule(symbol_map)
            return memo[key]

        flags: List[int] = []
        for peer in active_peers:
            missing = False
            symbols: Dict[int, int] = {}
            for other in participating:
                if other != peer and not mask[peer, other]:
                    continue  # untrusted senders are ignored, not evidence
                held = relayed[peer].get(other)
                if held is None:
                    missing = True  # a trusted live peer stayed silent
                else:
                    symbols[position[other]] = held
            flag = (
                missing
                or len(symbols) < k_g
                or not memoised(code.is_consistent, symbols)
            )
            if adversary.controls(peer):
                flag = bit_answer("detected_flag", adversary.detected_flag(
                    peer, flag, g, view
                ))
            flags.append(1 if flag else 0)

        received_flags = broadcast_rows(
            [(peer, [flag]) for peer, flag in zip(active_peers, flags)],
            "detected",
        )
        detected_view = {
            peer: bool(bits[0])
            for peer, bits in zip(active_peers, received_flags)
        }

        honest = [pid for pid in range(self.n) if not adversary.controls(pid)]
        if not any(detected_view.values()):
            decisions = {
                pid: tuple(part) if pid == source else tuple(memoised(
                    code.decode_subset,
                    {position[j]: sym for j, sym in relayed[pid].items()},
                ))
                for pid in honest
            }
            return decisions, False, [], False

        # -- stage 4: diagnosis ---------------------------------------------------------
        diagnosis_rows = []
        for peer in participating:
            held = from_source[peer]
            symbol = held if held is not None else 0
            if adversary.controls(peer):
                symbol = diagnosis_symbol_value(
                    adversary.diagnosis_symbol(peer, symbol, g, view),
                    code.symbol_limit,
                )
            diagnosis_rows.append((peer, symbol))
        r_sharp = dict(zip(
            participating, broadcast_symbols(diagnosis_rows, "diag.symbol")
        ))

        claimed = list(codeword)
        if adversary.controls(source):
            claimed = codeword_symbols(
                adversary.source_codeword(source, codeword, g, view),
                len(codeword), code.symbol_limit,
            )
        s_sharp = broadcast_symbols(
            [(source, symbol) for symbol in claimed], "diag.codeword"
        )

        # Trust flags: peer i reports whether each live peer j's broadcast
        # matches what j had forwarded to i.
        trust_rows = []
        for i in active_peers:
            honest_row = tuple(
                j == i or (
                    graph.trusts(i, j) and relayed[i].get(j) == r_sharp[j]
                )
                for j in participating
            )
            if adversary.controls(i):
                bits = trust_row_bits(
                    adversary.trust_row(i, participating, honest_row, g, view),
                    participating, honest_row,
                )
            else:
                bits = trust_row_bits(honest_row, participating, honest_row)
            trust_rows.append((i, bits))
        trust = np.array(broadcast_rows(trust_rows, "diag.trust"), dtype=bool)

        removed: List[Tuple[int, int]] = []
        # Source vs peer: broadcast symbol must match the claimed codeword.
        for peer in participating:
            if r_sharp[peer] != s_sharp[position[peer]]:
                if graph.remove_edge(source, peer):
                    removed.append(tuple(sorted((source, peer))))
        # Peer vs peer (line 3(e)): a relayed symbol that does not match
        # the broadcast one, as one matrix update in the loop's order.
        accuse = np.zeros((self.n, self.n), dtype=bool)
        accuse[np.ix_(active_peers, participating)] = ~trust
        removed.extend(graph.remove_accused(accuse))

        # False-alarm isolation (3(f) analogue): a complainer whose vertex
        # lost no edge, against a broadcast record that is consistent over
        # everything the complainer could see, is provably lying.
        touched = {v for edge in removed for v in edge}
        for peer in active_peers:
            if peer in touched or not detected_view[peer]:
                continue
            check_positions = {
                position[j]: r_sharp[j]
                for j in participating
                if graph.trusts(peer, j) or j == peer
            }
            if len(check_positions) >= k_g and code.is_consistent(
                check_positions
            ):
                graph.isolate(peer)

        graph.apply_overdegree_rule(self.t)

        # -- re-decide from common information -----------------------------------------
        agreeing = [
            peer
            for peer in participating
            if graph.trusts(source, peer)
            and r_sharp[peer] == s_sharp[position[peer]]
        ]
        symbols = {
            position[peer]: s_sharp[position[peer]] for peer in agreeing
        }
        if (
            len(agreeing) < k_g
            or not code.is_consistent(symbols)
            or graph.is_isolated(source)
        ):
            graph.isolate(source)
            return {}, True, removed, True
        common_part = tuple(code.decode_subset(symbols))
        decisions = {
            pid: tuple(part) if pid == source else common_part
            for pid in honest
        }
        if not adversary.controls(source) and common_part != tuple(part):
            raise ProtocolInvariantError(
                "honest source's value altered by diagnosis in generation %d"
                % g
            )
        return decisions, True, removed, False
