"""Accounted-ideal ``Broadcast_Single_Bit``.

The paper's analysis treats the 1-bit broadcast as a black box of cost
``B`` bits and cites bit-optimal error-free algorithms with ``B = Θ(n²)``
(Berman-Garay-Perry; Coan-Welch).  This backend models exactly that black
box: the *outcome* obeys the broadcast contract (agreement always;
validity for an honest source; a faulty source picks any single bit), and
the *cost* charged to the meter is ``B(n) = 2·n²`` bits, which makes
measured totals line up with Eq. (1)-(3).

Using this backend is a substitution (``docs/BENCHMARKS.md``); the
Phase-King backend provides the end-to-end error-free execution, and
benchmark E10 quantifies the gap between the two.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.broadcast_bit.interface import BroadcastBackend
from repro.processors.adversary import hook_is_default
from repro.processors.answers import bit_answer
from repro.utils.bits import PackedBits
from repro.utils.boundary import check_pid


def default_b(n: int) -> int:
    """The default modelled cost of one broadcast instance: ``2 n²`` bits."""
    return 2 * n * n


class AccountedIdealBroadcast(BroadcastBackend):
    """Correct-by-construction broadcast with modelled ``Θ(n²)`` cost.

    Because an honest source's outcome is simply its input and no hooks
    fire for it, every batched entry point here collapses honest work to
    pure accounting (:attr:`constant_cost_honest`): bulk instance bumps
    and one meter entry per call, with ``Counter`` state byte-identical
    to the scalar per-instance loop.  A controlled source whose adversary
    overrides ``ideal_broadcast_bit`` is asked once per instance, with
    the scalar loop's instance ids, at its position in the batch; one
    that leaves the hook at the base is accounted like an honest source
    (:meth:`_row_loop`).
    """

    name = "ideal"
    error_free = True
    constant_cost_honest = True

    def __init__(
        self,
        n: int,
        t: int,
        meter=None,
        adversary=None,
        view_provider=None,
    ):
        super().__init__(n, t, meter, adversary, view_provider)
        self._b = default_b(n)

    def _broadcast_one(
        self, source: int, bit: int, tag: str, ignored: FrozenSet[int]
    ) -> Dict[int, int]:
        row = self._row_loop([(source, [bit])], tag, ignored, validate=False)
        return dict.fromkeys(range(self.n), row[0][0])

    def broadcast_bits(self, source, bits, tag, ignored=frozenset()):
        """One row through :meth:`_dispatch`: the base class's
        semantics (one instance per bit) with one meter entry."""
        return self._dispatch([(source, bits)], tag, ignored)[0]

    def charge_honest_instances(self, tag: str, count: int) -> None:
        """O(1) bulk accounting for ``count`` honest-source instances.

        Exactly the bookkeeping ``count`` scalar honest
        :meth:`broadcast_bit` calls under ``tag`` would perform — one
        instance bump, ``B(n)`` bits and ``n(n-1)`` messages each — as
        single batched increments.  The cohort engine and the diagnosis
        stage call this to price honest broadcasts without dispatching
        any at all.  Zero instances touch nothing: zero scalar
        broadcasts leave no tag in the meter.
        """
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        if not count:
            return
        self.stats.instances += count
        self.stats.bits_charged += self._b * count
        self.meter.add(
            tag, self._b * count, messages=self.n * (self.n - 1) * count
        )

    def broadcast_bits_many_grouped(self, rows, tag, ignored=frozenset()):
        """The vectorized engines' unit: engine-normalized ``(source,
        bits)`` rows known up front, one flat outcome row each instead
        of a per-pid dict (agreement makes every fault-free view that
        one row).

        The observable execution is byte-identical to
        :meth:`broadcast_bits_many` over the same rows (it is the same
        :meth:`_row_loop`).  Bits must already be 0/1 (the engines
        always normalize them), which is what lets this path skip the
        per-bit validation; a :class:`~repro.utils.bits.PackedBits` row
        comes back packed, and every row comes back shared and
        read-only."""
        return self._row_loop(rows, tag, ignored, validate=False)

    def broadcast_bits_many(self, rows, tag, ignored=frozenset()):
        """Rows known up front through :meth:`_dispatch`."""
        return self._dispatch(rows, tag, ignored)

    def _dispatch(self, rows, tag, ignored):
        """Every per-pid entry point: :meth:`_row_loop` with validated
        bits, each outcome row fanned out as one object shared by all
        pids (callers must treat it as read-only)."""
        pids = range(self.n)
        return [
            dict.fromkeys(pids, row)
            for row in self._row_loop(rows, tag, ignored, validate=True)
        ]

    def _row_loop(self, rows, tag, ignored, validate):
        """The one row loop behind every batched entry point.

        ``rows`` is a sequence of ``(source, bits)``; returns each row's
        single outcome.  The source (the pid rule) and (with
        ``validate``) every bit are checked first, as the scalar loop
        does; then an ignored source yields a zero row
        without charges or hooks, and the call writes one summed meter
        entry for the rest.

        A row whose source is honest — or controlled by an adversary
        that leaves ``ideal_broadcast_bit`` at the base
        (:func:`~repro.processors.adversary.hook_is_default`: the
        stateless honest identity) — is pure accounting: one bulk
        instance bump, and the row comes back *as-is*.  An overridden
        hook is asked once per instance, with the scalar loop's instance
        ids, one view snapshot per row.

        Packed rows (:class:`~repro.utils.bits.PackedBits`) are 0/1 by
        construction and come back packed (a hooked one unpacked, asked
        and repacked).
        """
        hooked = not hook_is_default(self.adversary, "ideal_broadcast_bit")
        outcomes: list = []
        total = 0
        for source, bits in rows:
            packed = isinstance(bits, PackedBits)
            if type(source) is not int or not 0 <= source < self.n:
                check_pid(source, self.n, "source")
            if validate and not packed:
                bits = list(bits)
                for bit in bits:
                    if bit not in (0, 1):
                        raise ValueError(
                            "bit must be 0 or 1, got %r" % (bit,)
                        )
            if source in ignored:
                outcomes.append(
                    PackedBits.zeros(len(bits)) if packed
                    else [0] * len(bits)
                )
                continue
            if hooked and self.adversary.controls(source):
                view = self._view()
                row = []
                for bit in bits.tolist() if packed else bits:
                    instance = self._next_instance()
                    row.append(bit_answer(
                        "ideal_broadcast_bit",
                        self.adversary.ideal_broadcast_bit(
                            source, bit, instance, view
                        ),
                    ))
                if packed:
                    row = PackedBits.from_bits(row)
            else:
                self.stats.instances += len(bits)
                row = bits
            total += len(bits)
            outcomes.append(row)
        if total:
            self.stats.bits_charged += self._b * total
            self.meter.add(
                tag,
                self._b * total,
                messages=self.n * (self.n - 1) * total,
            )
        return outcomes

    def bits_per_instance(self) -> float:
        return float(self._b)
