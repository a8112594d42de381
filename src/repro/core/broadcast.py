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

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.complexity import broadcast_optimal_d
from repro.broadcast_bit.ideal import default_b
from repro.coding.interleaved import make_symbol_code
from repro.coding.reed_solomon import min_symbol_bits
from repro.core.config import BACKENDS, ProtocolInvariantError
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.network.metrics import BitMeter, MeterSnapshot
from repro.network.simulator import SyncNetwork
from repro.processors.adversary import Adversary, GlobalView, trust_row_bits
from repro.utils.bits import (
    bits_to_int,
    int_to_bits,
    is_exact_int,
    pack_symbols,
    unpack_symbols,
)


@dataclass
class BroadcastResult:
    """Outcome of one L-bit broadcast."""

    source: int
    source_value: int
    decisions: Dict[int, int]
    meter: MeterSnapshot
    diagnosis_count: int
    default_used: bool
    removed_edges: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return len(set(self.decisions.values())) <= 1

    @property
    def value(self) -> Optional[int]:
        if not self.consistent or not self.decisions:
            return None
        return next(iter(self.decisions.values()))

    @property
    def total_bits(self) -> int:
        return self.meter.total_bits


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
            b = float(default_b(n))
            target = broadcast_optimal_d(n, t, l_bits, b) / k
            if target <= 16:
                width = max(c_min, min(16, int(round(target)) or 1))
            else:
                width = max(1, int(round(target / c_min))) * c_min
            while width > c_min and width * k > l_bits:
                width = (
                    width - c_min
                    if width > 16
                    else max(c_min, min(width - 1, 16))
                )
            d_bits = width * k
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

    # -- value plumbing ---------------------------------------------------------

    def parts_of(self, value: int) -> List[List[int]]:
        """Honest-case generation split (fixed ``k`` symbols per part).

        Used for sizing and tests; :meth:`run` slices the bit stream
        dynamically because the per-generation code dimension shrinks when
        the source loses diagnosis-graph edges (see ``_generation_code``).
        """
        if value < 0 or value >> self.l_bits:
            raise ValueError("value does not fit in %d bits" % self.l_bits)
        padded = self.generations * self.d_bits
        shifted = value << (padded - self.l_bits)
        symbols = unpack_symbols(
            shifted, self.generations * self.k, self.symbol_bits
        )
        return [
            symbols[g * self.k:(g + 1) * self.k]
            for g in range(self.generations)
        ]

    def value_of(self, parts: Sequence[Sequence[int]]) -> int:
        symbols = [symbol for part in parts for symbol in part]
        total_bits = len(symbols) * self.symbol_bits
        packed = pack_symbols(symbols, self.symbol_bits)
        if total_bits > self.l_bits:
            return packed >> (total_bits - self.l_bits)
        return packed

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
        if not 0 <= source < self.n:
            raise ValueError("source %d out of range" % source)
        if value < 0 or value >> self.l_bits:
            raise ValueError("value does not fit in %d bits" % self.l_bits)
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

        stream = int_to_bits(value, self.l_bits)
        decided_bits: Dict[int, List[int]] = {pid: [] for pid in honest}
        diagnosis_count = 0
        removed_edges_total: List[Tuple[int, int]] = []
        default_used = False
        consumed = 0
        g = 0
        c = self.symbol_bits

        while consumed < self.l_bits:
            self._extras["generation"] = g
            graph = self.graph
            if graph.is_isolated(source):
                default_used = True
                break
            isolated = frozenset(graph.isolated)
            source_trust = graph.trust_mask()[source]
            participating = [
                j
                for j in peers
                if j not in isolated and source_trust[j]
            ]
            t_remaining = max(0, self.t - len(isolated))
            k_g = len(participating) - t_remaining
            if k_g < 1:
                if not graph.is_isolated(source):
                    graph.isolate(source)
                default_used = True
                break
            code = self._generation_code(len(participating), k_g)
            d_g = k_g * c
            chunk = stream[consumed:consumed + d_g]
            chunk = chunk + [0] * (d_g - len(chunk))
            part = [
                bits_to_int(chunk[s * c:(s + 1) * c]) for s in range(k_g)
            ]
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
                for symbol in part_decisions[pid]:
                    decided_bits[pid].extend(int_to_bits(symbol, c))
            consumed += d_g
            g += 1

        decisions: Dict[int, int] = {}
        for pid in honest:
            if default_used:
                decisions[pid] = self.default_value
            else:
                decisions[pid] = bits_to_int(decided_bits[pid][: self.l_bits])
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
        participating_set = set(participating)

        codeword = code.encode(list(part))
        mask = graph.trust_mask()

        def valid_symbol(payload: object) -> Optional[int]:
            # Exact int check: a Byzantine payload of True would pass an
            # isinstance check and the range check as the symbol 1.
            if is_exact_int(payload) and 0 <= payload < code.symbol_limit:
                return payload
            return None

        # -- stage 1: dispersal ------------------------------------------------
        dispersal_tag = "%s.dispersal" % tag
        from_source: Dict[int, Optional[int]] = {}
        if participating and not adversary.controls(source):
            # Honest source: one batch carries every peer's symbol.
            receivers = np.asarray(participating, dtype=np.int64)
            self.network.send_many(
                np.full(len(participating), source, dtype=np.int64),
                receivers,
                [codeword[position[peer]] for peer in participating],
                bits=c,
                tag=dispersal_tag,
            )
        else:
            for peer in participating:
                symbol = adversary.source_symbol(
                    source, peer, codeword[position[peer]], g, view
                )
                if symbol is None:
                    continue
                self.network.send(
                    source, peer, symbol, bits=c, tag=dispersal_tag
                )
        delivery = self.network.deliver_arrays()
        for peer in participating:
            from_source[peer] = None
        for batch in delivery.batches:
            for sender, recipient, payload in zip(
                batch.senders.tolist(),
                batch.receivers.tolist(),
                batch.payload_list(),
            ):
                if sender == source and mask[recipient, source]:
                    from_source[recipient] = valid_symbol(payload)
        for peer in participating:
            for message in delivery.inboxes[peer]:
                if message.sender == source and mask[peer, source]:
                    value_received = valid_symbol(message.payload)
                    if value_received is not None:
                        from_source[peer] = value_received

        # -- stage 2: relay ------------------------------------------------------
        relay_tag = "%s.relay" % tag
        relayed: Dict[int, Dict[int, Optional[int]]] = {
            peer: {} for peer in peers
        }
        # Honest relayers that hold a symbol: one batch over the trust
        # mask.  Faulty relayers (and honest ones holding nothing, which
        # stay silent) go through the scalar per-edge hooks.
        active_mask = np.zeros(self.n, dtype=bool)
        active_mask[active_peers] = True
        honest_rows = np.zeros(self.n, dtype=bool)
        for sender in participating:
            if not adversary.controls(sender) and (
                from_source.get(sender) is not None
            ):
                honest_rows[sender] = True
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
        for sender in participating:
            if honest_rows[sender] or not adversary.controls(sender):
                continue
            held = from_source.get(sender)
            for recipient in active_peers:
                if recipient == sender:
                    continue
                if not mask[sender, recipient]:
                    continue
                payload = adversary.forwarded_symbol(
                    sender, recipient,
                    held if held is not None else 0, g, view,
                )
                if payload is None:
                    continue
                self.network.send(
                    sender, recipient, payload, bits=c, tag=relay_tag
                )
        delivery = self.network.deliver_arrays()
        for batch in delivery.batches:
            for sender, recipient, payload in zip(
                batch.senders.tolist(),
                batch.receivers.tolist(),
                batch.payload_list(),
            ):
                if sender in participating_set and mask[recipient, sender]:
                    value_received = valid_symbol(payload)
                    if value_received is not None:
                        relayed[recipient][sender] = value_received
        for peer in active_peers:
            for message in delivery.inboxes[peer]:
                if message.sender not in participating_set:
                    continue
                if not mask[peer, message.sender]:
                    continue
                value_received = valid_symbol(message.payload)
                if value_received is not None:
                    relayed[peer][message.sender] = value_received
            if peer in participating_set:
                own = from_source.get(peer)
                if own is not None:
                    relayed[peer][peer] = own

        # -- stage 3: checking ------------------------------------------------------
        # In the common case every peer holds the same symbol set, so
        # consistency checks and decodes are memoised per distinct set.
        consistency_cache: Dict[frozenset, bool] = {}
        decode_cache: Dict[frozenset, tuple] = {}

        def cached_consistent(symbol_map):
            cache_key = frozenset(symbol_map.items())
            if cache_key not in consistency_cache:
                consistency_cache[cache_key] = code.is_consistent(symbol_map)
            return consistency_cache[cache_key]

        def cached_decode(symbol_map):
            cache_key = frozenset(symbol_map.items())
            if cache_key not in decode_cache:
                decode_cache[cache_key] = tuple(
                    code.decode_subset(symbol_map)
                )
            return decode_cache[cache_key]

        honest_detected: Dict[int, bool] = {}
        for peer in active_peers:
            missing = False
            symbols: Dict[int, int] = {}
            for other in participating:
                if other == peer:
                    if from_source.get(peer) is None:
                        missing = True
                    else:
                        symbols[position[peer]] = from_source[peer]
                    continue
                if not mask[peer, other]:
                    continue  # untrusted senders are ignored, not evidence
                value_received = relayed[peer].get(other)
                if value_received is None:
                    missing = True  # a trusted live peer stayed silent
                else:
                    symbols[position[other]] = value_received
            honest_detected[peer] = (
                missing
                or len(symbols) < k_g
                or not cached_consistent(symbols)
            )

        detected_view: Dict[int, bool] = {}
        any_detected = False
        reference = min(
            p for p in range(self.n) if p not in adversary.faulty
        )
        for peer in active_peers:
            flag = honest_detected[peer]
            if adversary.controls(peer):
                flag = bool(adversary.detected_flag(peer, flag, g, view))
            outcome = self.backend.broadcast_bit(
                peer, 1 if flag else 0, "%s.detected" % tag, isolated
            )
            detected_view[peer] = bool(outcome[reference])
            any_detected = any_detected or detected_view[peer]

        if not any_detected:
            decisions: Dict[int, Sequence[int]] = {}
            for pid in range(self.n):
                if adversary.controls(pid):
                    continue
                if pid == source:
                    decisions[pid] = tuple(part)
                    continue
                symbols = {
                    position[other]: sym
                    for other, sym in relayed[pid].items()
                }
                decisions[pid] = cached_decode(symbols)
            return decisions, False, [], False

        # -- stage 4: diagnosis ---------------------------------------------------------
        r_sharp: Dict[int, int] = {}
        for peer in participating:
            held = from_source.get(peer)
            honest_symbol = held if held is not None else 0
            symbol = honest_symbol
            if adversary.controls(peer):
                symbol = adversary.diagnosis_symbol(
                    peer, honest_symbol, g, view
                ) % code.symbol_limit
            bit_list = [(symbol >> (c - 1 - b)) & 1 for b in range(c)]
            outcome = self.backend.broadcast_bits(
                peer, bit_list, "%s.diag.symbol" % tag, isolated
            )
            r_sharp[peer] = sum(
                bit << (c - 1 - index)
                for index, bit in enumerate(outcome[reference])
            )

        claimed = list(codeword)
        if adversary.controls(source):
            claimed = [
                sym % code.symbol_limit
                for sym in adversary.source_codeword(source, codeword, g, view)
            ]
            claimed = (claimed + [0] * len(codeword))[: len(codeword)]
        s_sharp: List[int] = []
        for symbol in claimed:
            bit_list = [(symbol >> (c - 1 - b)) & 1 for b in range(c)]
            outcome = self.backend.broadcast_bits(
                source, bit_list, "%s.diag.codeword" % tag, isolated
            )
            s_sharp.append(
                sum(
                    bit << (c - 1 - i)
                    for i, bit in enumerate(outcome[reference])
                )
            )

        # Trust flags: peer i reports whether each live peer j's broadcast
        # matches what j had forwarded to i.
        trust: Dict[int, Dict[int, bool]] = {}
        for i in active_peers:
            honest_trust = []
            for j in participating:
                if j == i:
                    honest_trust.append(True)
                    continue
                if not graph.trusts(i, j):
                    honest_trust.append(False)
                    continue
                mine = relayed[i].get(j)
                honest_trust.append(mine is not None and mine == r_sharp[j])
            honest_row = tuple(honest_trust)
            answer = honest_row
            if adversary.controls(i):
                answer = adversary.trust_row(
                    i, participating, honest_row, g, view
                )
            bit_list = trust_row_bits(answer, participating, honest_row)
            outcome = self.backend.broadcast_bits(
                i, bit_list, "%s.diag.trust" % tag, isolated
            )
            trust[i] = {
                j: bool(outcome[reference][index])
                for index, j in enumerate(participating)
            }

        removed: List[Tuple[int, int]] = []
        # Source vs peer: broadcast symbol must match the claimed codeword.
        for peer in participating:
            if r_sharp[peer] != s_sharp[position[peer]]:
                if graph.remove_edge(source, peer):
                    removed.append(tuple(sorted((source, peer))))
        # Peer vs peer: relayed symbol must match broadcast symbol.
        for i in active_peers:
            if i not in trust:
                continue
            for j in participating:
                if i == j:
                    continue
                if not trust[i].get(j, False) and graph.trusts(i, j):
                    if graph.remove_edge(i, j):
                        removed.append(tuple(sorted((i, j))))

        # False-alarm isolation (3(f) analogue): a complainer whose vertex
        # lost no edge, against a broadcast record that is consistent over
        # everything the complainer could see, is provably lying.
        touched = {v for edge in removed for v in edge}
        for peer in active_peers:
            if peer in touched:
                continue
            if not detected_view.get(peer, False):
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
        s_consistent = code.is_consistent(
            {position[peer]: s_sharp[position[peer]] for peer in agreeing}
        )
        if (
            len(agreeing) < k_g
            or not s_consistent
            or graph.is_isolated(source)
        ):
            if not graph.is_isolated(source):
                graph.isolate(source)
            return {}, True, removed, True

        symbols = {
            position[peer]: s_sharp[position[peer]] for peer in agreeing
        }
        common_part = tuple(code.decode_subset(symbols))
        decisions = {}
        for pid in range(self.n):
            if adversary.controls(pid):
                continue
            decisions[pid] = common_part if pid != source else tuple(part)
        if not adversary.controls(source) and common_part != tuple(part):
            raise ProtocolInvariantError(
                "honest source's value altered by diagnosis in generation %d"
                % g
            )
        return decisions, True, removed, False
