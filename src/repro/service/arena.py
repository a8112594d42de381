"""Preallocated exchange arenas for the vectorized data plane.

An :class:`ExchangeArena` offers six ``(n, n)``-shaped views — the
symbol exchange matrix, the codeword matrix, the M/adjacency boolean
matrices, the Detected flags and the diagnosis Trust matrix — because
allocating them per generation once made ``n >= 255`` sweeps
allocation-bound.  The library now acquires one, the Trust view of the
diagnosis stage (:func:`repro.core.diagnosis.diagnose`), and types its
symbol arrays by :attr:`ExchangeArena.symbol_dtype`.  The arena owns
one buffer per view kind and hands out *reset views*: buffers are
allocated lazily on first acquisition (a forced-scalar run never
touches numpy matrices, so it must never pay for them — the
arena-reuse tests assert exactly that) and then reset — never
reallocated — between generations and between instances.

Ownership and reset rules (also documented in ``docs/ARCHITECTURE.md``):

* :class:`~repro.service.service.ConsensusService` owns one arena per
  deployment and threads it through every engine and cohort it builds;
  one-shot :class:`~repro.core.consensus.MultiValuedConsensus` runs own
  a private one.
* A view is only valid until the *next* acquisition of the same kind:
  the engine is strictly generation-sequential (the serving tier's
  flushes share one worker thread), so exactly one generation is ever
  in flight per arena.
* Acquiring a view resets it to its documented fill (``fill_value`` for
  the exchange matrix, ``False`` for Detected/Trust); views documented
  as fully overwritten by their producer (codewords, M, adjacency) are
  handed back dirty on purpose — their producers write every cell.
* Nothing long-lived may hold an arena view: anything that escapes a
  generation (results, batches, journals) must be copied out.  The
  network layer enforces its half of this rule by copying ndarray
  payload lanes that are views of caller-owned buffers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ExchangeArena:
    """Reusable ``(n, n)`` buffers for one strictly-sequential engine.

    ``acquisitions`` counts every view hand-out (all kinds), which is
    what lets tests assert both reuse (count grows, allocation doesn't)
    and the forced-scalar guarantee (count stays zero).
    """

    __slots__ = (
        "n",
        "symbol_dtype",
        "fill_value",
        "acquisitions",
        "_exchange",
        "_codewords",
        "_m",
        "_adjacency",
        "_detected",
        "_trust",
    )

    def __init__(self, n: int, symbol_dtype, fill_value: int = -1) -> None:
        if n < 1:
            raise ValueError("n must be positive, got %d" % n)
        self.n = n
        self.symbol_dtype = symbol_dtype
        self.fill_value = fill_value
        self.acquisitions = 0
        self._exchange: Optional[np.ndarray] = None
        self._codewords: Optional[np.ndarray] = None
        self._m: Optional[np.ndarray] = None
        self._adjacency: Optional[np.ndarray] = None
        self._detected: Optional[np.ndarray] = None
        self._trust: Optional[np.ndarray] = None

    @classmethod
    def for_symbol_bits(
        cls, n: int, symbol_bits: int, fill_value: int = -1
    ) -> "ExchangeArena":
        """The arena for a deployment's symbol width: int64 lanes up to
        62-bit symbols, object-dtype escape hatch for wider interleaved
        super-symbols (the one dtype rule: the batched body reads it as
        :attr:`symbol_dtype`)."""
        dtype = np.int64 if symbol_bits <= 62 else object
        return cls(n, dtype, fill_value)

    def _symbol_buffer(self, current: Optional[np.ndarray]) -> np.ndarray:
        if current is None:
            current = np.empty((self.n, self.n), dtype=self.symbol_dtype)
        return current

    def _bool_buffer(self, current: Optional[np.ndarray]) -> np.ndarray:
        if current is None:
            current = np.empty((self.n, self.n), dtype=bool)
        return current

    def exchange_view(self) -> np.ndarray:
        """The ``received[i, j]`` symbol matrix, reset to the missing
        sentinel on every acquisition."""
        self._exchange = self._symbol_buffer(self._exchange)
        self._exchange[...] = self.fill_value
        self.acquisitions += 1
        return self._exchange

    def codeword_view(self) -> np.ndarray:
        """The per-pid codeword matrix; handed back dirty — the caller
        overwrites every row before reading any."""
        self._codewords = self._symbol_buffer(self._codewords)
        self.acquisitions += 1
        return self._codewords

    def m_view(self) -> np.ndarray:
        """The boolean M-matrix; fully overwritten by its producer."""
        self._m = self._bool_buffer(self._m)
        self.acquisitions += 1
        return self._m

    def adjacency_view(self) -> np.ndarray:
        """The pairwise-match adjacency matrix (``m & m.T`` lands here);
        fully overwritten by its producer."""
        self._adjacency = self._bool_buffer(self._adjacency)
        self.acquisitions += 1
        return self._adjacency

    def detected_view(self) -> np.ndarray:
        """The reference Detected flags, reset to ``False``."""
        if self._detected is None:
            self._detected = np.empty(self.n, dtype=bool)
        self._detected[...] = False
        self.acquisitions += 1
        return self._detected

    def trust_view(self, width: int) -> np.ndarray:
        """The reference Trust matrix over ``width`` P_match columns,
        reset to ``False``; a ``(n, width)`` view of the full buffer."""
        if not 0 <= width <= self.n:
            raise ValueError(
                "trust width %d outside [0, %d]" % (width, self.n)
            )
        self._trust = self._bool_buffer(self._trust)
        view = self._trust[:, :width]
        view[...] = False
        self.acquisitions += 1
        return view
