"""The exchange arena: the diagnosis stage's preallocated Trust buffer.

An :class:`ExchangeArena` hands the diagnosis stage
(:func:`repro.core.diagnosis.diagnose`) its one view, Trust — reused,
because allocating ``(n, n)`` buffers per generation once made
``n >= 255`` sweeps allocation-bound — and holds the symbol dtype the
batched arrays are typed by (:attr:`ExchangeArena.symbol_dtype`).  The
buffer is allocated lazily on first acquisition (a forced-scalar run
never touches numpy matrices, so it must never pay for one — the
arena-reuse tests assert exactly that) and then reset — never
reallocated — between generations and between instances.

Ownership and reset rules (also documented in ``docs/ARCHITECTURE.md``):

* Each :class:`~repro.core.batched.CohortContext` builds and owns one
  arena, on first vectorized need: the service keeps one context per cohort key, and a one-shot
  :class:`~repro.core.consensus.MultiValuedConsensus` run builds a
  private one on first vectorized need.
* A view is only valid until the *next* acquisition: the engine is
  strictly generation-sequential (the serving tier's flushes share one
  worker thread), so exactly one generation is ever in flight per
  arena.
* Acquiring the view resets it to ``False``.
* Nothing long-lived may hold an arena view: anything that escapes a
  generation (results, batches, journals) must be copied out.  The
  network layer enforces its half of this rule by copying ndarray
  payload lanes that are views of caller-owned buffers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.bits import INT64_LANE_BITS


class ExchangeArena:
    """A reusable ``(n, n)`` Trust buffer for one strictly-sequential
    engine.

    ``acquisitions`` counts every view hand-out, which is what lets
    tests assert both reuse (count grows, allocation doesn't) and the
    forced-scalar guarantee (count stays zero).
    """

    __slots__ = ("n", "symbol_dtype", "acquisitions", "_trust")

    def __init__(self, n: int, symbol_dtype) -> None:
        if n < 1:
            raise ValueError("n must be positive, got %d" % n)
        self.n = n
        self.symbol_dtype = symbol_dtype
        self.acquisitions = 0
        self._trust: Optional[np.ndarray] = None

    @classmethod
    def for_symbol_bits(cls, n: int, symbol_bits: int) -> "ExchangeArena":
        """The arena for a deployment's symbol width: int64 lanes up to
        :data:`~repro.utils.bits.INT64_LANE_BITS`-bit symbols, object-dtype escape hatch for wider interleaved
        super-symbols (the one dtype rule: the batched body and the
        diagnosis read it as :attr:`symbol_dtype`)."""
        dtype = np.int64 if symbol_bits <= INT64_LANE_BITS else object
        return cls(n, dtype)

    def trust_view(self, width: int) -> np.ndarray:
        """The reference Trust matrix over ``width`` P_match columns,
        reset to ``False``; a ``(n, width)`` view of the full buffer."""
        if not 0 <= width <= self.n:
            raise ValueError(
                "trust width %d outside [0, %d]" % (width, self.n)
            )
        if self._trust is None:
            self._trust = np.empty((self.n, self.n), dtype=bool)
        view = self._trust[:, :width]
        view[...] = False
        self.acquisitions += 1
        return view
