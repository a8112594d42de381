"""The batched generation body's two symbol rounds.

The body (:meth:`~repro.core.batched._InstanceRun.step`) takes the
cohort lane's :class:`_PricedRound` (honest traffic is accounting) or
the per-generation lane's :class:`_SentRound` (:func:`sent_run`; the
traffic moves).  A round runs a generation's first two steps:

1. *Symbol round.*  Line 1(a) has a processor send its *one* symbol to
   everyone it trusts, so each live faulty sender is asked once for its
   row (:meth:`~repro.processors.adversary.Adversary.matching_row`).  A
   priced round holds the answers, read as on receipt, as a
   :class:`_SymbolRound` — a common payload per sender and a sparse
   ``(sender, recipient)`` table of exceptions; the *deviation pattern*
   is its (silent senders, exception pairs), read sparsely, so the
   round costs O(faulty + deviations), not O(faulty · n).
2. *Plan.*  The round yields a :class:`~repro.core.batched._Plan`: the
   M expectation rows (tuples) handed to the ``m_row`` hooks, the
   unhooked M broadcast rows, the key of the match set they resolve to
   and, per match set, the checking-stage facts
   (:class:`~repro.core.batched._Checking`).  A priced round looks its
   plan up by ``(graph state, pattern)``: when every deviation is
   *silent* (missing/invalid, none valid-but-off-codeword) and no
   controlled processor holds a distinct input, all of that is a
   function of the pattern alone and the plan is memoized for the life
   of the cohort — a crashed sender's second generation, and every
   generation of a conforming run (the empty pattern), compute nothing.
   A sent round builds its plan from the generation's M view.

A recorded run never takes the priced round: the journal must observe
materialized messages (``charge_round`` refuses a journalling network).
Injected network faults take neither round, but the scalar reference.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.batched import (
    _Checking, _InstanceRun, _MatchInfo, _Plan, _generation_tags,
)
from repro.core.diagnosis import _MISSING
from repro.core.generation import _send_matching_symbols, symbol_round_shape
from repro.processors.answers import (
    m_row_bits, matching_row_answer, received_symbol,
)

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


class _PricedRound:
    """The cohort lane's symbol round (module docstring, steps 1-2):
    honest traffic is value-independent accounting, one
    ``charge_round``; each live faulty sender is asked once for its row
    (:class:`_SymbolRound`); and the deviation pattern looks up the
    generation's :class:`_Plan`, memoized per graph state when it is a
    function of the pattern alone."""

    #: The current generation's faulty payloads (None: nothing to read).
    sym = None
    sends = False

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
                # P_match symbols, some valid but off the codeword:
                # counted against the codeword, which they mostly
                # agree with (the agreement rule).
                mask = struct.mask
                flag = not ctx.code.is_consistent({
                    j: sym.payload(j, q) if j in controlled else cw[j]
                    for j in info.p_match if mask[q, j]
                }, near=cw)
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
    structure's round shape, then ``deliver_arrays``), as a journal or
    inputs that differ need.

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

    sends = True

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
        self.folded = self._fold(row, delivery, struct, ctx)
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

    def _fold(self, row, delivery, struct, ctx) -> bool:
        """Lines 1(a)-1(b): fold what the symbol round delivered into
        ``row``, which holds the honest prediction (``row[i, j]`` the
        symbol ``j`` sent to ``i``).

        With no network fault installed (:func:`sent_run` refuses one)
        only a Byzantine batch — controlled senders — departs from it;
        each is validated per edge, as the scalar path does.  Returns
        whether there was one.
        """
        limit = ctx.symbol_limit
        byzantine = [
            batch for batch in delivery.batches
            if self.controlled[batch.senders[0]]
        ]
        # Line 1(b) ignores untrusted senders (a batch is trust-filtered
        # at send time).
        for batch in byzantine:
            for sender, recipient, payload in zip(
                batch.senders.tolist(), batch.receivers.tolist(),
                batch.payload_list(),
            ):
                if struct.mask[recipient, sender]:
                    row[recipient, sender] = received_symbol(
                        payload, limit, _MISSING
                    )
        return bool(byzantine)

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
    its context and a :class:`_SentRound`; ``parts[pid]`` is ``pid``'s
    whole-run parts.  The context's pattern table starts over here when
    full, before the run takes any structure.  Injected faults are
    refused."""
    if protocol.network.fault_schedule is not None:
        raise ValueError("injected faults run on the scalar reference")
    ctx = protocol.context
    ctx.forget_if_full()
    run = _InstanceRun(
        ctx, protocol.network, protocol.graph, protocol.backend,
        protocol.adversary, protocol._view_provider,
        [parts[pid] for pid in ctx.pids], _SentRound(ctx),
    )
    # This door always reassembles its decisions, so nothing reads
    # whether they conform: measure nothing.
    run.conforming = False
    return run
