"""Configuration and parameter selection for the consensus algorithm.

The paper's parameters are linked: the L-bit value splits into ``L/D``
generations of ``D`` bits; each generation is ``k = n - 2t`` symbols of
``c = D/(n-2t)`` bits; the ``(n, n-2t)`` Reed-Solomon code requires
``n <= 2^c - 1``.  :meth:`ConsensusConfig.create` picks a feasible ``D``
(the paper's optimal ``D`` rounded to a feasible symbol width) when none
is given, and validates every constraint otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.complexity import optimal_d_feasible
from repro.broadcast_bit.dolev_strong import DolevStrongBroadcast
from repro.broadcast_bit.eig import EIGBroadcast
from repro.broadcast_bit.ideal import AccountedIdealBroadcast, default_b
from repro.broadcast_bit.interface import BroadcastBackend
from repro.broadcast_bit.mostefaoui import MostefaouiBroadcast
from repro.broadcast_bit.phase_king import PhaseKingBroadcast
from repro.coding.interleaved import field_width, make_symbol_code
from repro.coding.reed_solomon import min_symbol_bits
from repro.utils.bits import split_symbols
from repro.utils.boundary import check_choice, check_input_value, check_int

#: Registry of Broadcast_Single_Bit backends by config name.
BACKENDS = {
    "ideal": AccountedIdealBroadcast,
    "phase_king": PhaseKingBroadcast,
    "eig": EIGBroadcast,
    "dolev_strong": DolevStrongBroadcast,
    "mostefaoui": MostefaouiBroadcast,
}

#: Largest directly-supported field width; wider symbols interleave
#: multiple GF(2^c) rows (see repro.coding.interleaved).
MAX_SYMBOL_BITS = 16


class ProtocolInvariantError(AssertionError):
    """An execution reached a state the paper proves unreachable.

    Raised e.g. when fault-free processors disagree under an error-free
    backend — it indicates a bug in the engine or a violated model
    assumption (t >= n/3), never a legitimate protocol outcome.
    """


@dataclass(frozen=True)
class ConsensusConfig:
    """Validated parameters of one consensus deployment.

    Prefer :meth:`create`, which derives ``d_bits`` and ``symbol_bits``;
    the raw constructor checks every paper constraint and raises
    ``ValueError`` on violation.
    """

    n: int
    t: int
    l_bits: int
    d_bits: int
    symbol_bits: int
    backend: str = "ideal"
    default_value: int = 0
    kappa: int = 16
    #: Seed of the randomized (mostefaoui) backend's common coin;
    #: ignored by the deterministic backends.
    coin_seed: int = 0
    allow_t_ge_n3: bool = False

    def __post_init__(self) -> None:
        for name in (
            "n", "t", "l_bits", "d_bits", "symbol_bits", "kappa", "coin_seed"
        ):
            check_int(getattr(self, name), name)
        check_choice(self.backend, BACKENDS, "backend")
        if self.n < 4 and not self.allow_t_ge_n3:
            if self.t > 0:
                raise ValueError(
                    "tolerating t=%d faults needs n >= 3t + 1, got n=%d"
                    % (self.t, self.n)
                )
        if self.t < 0:
            raise ValueError("t must be non-negative, got %d" % self.t)
        if not self.allow_t_ge_n3 and 3 * self.t >= self.n:
            raise ValueError(
                "error-free consensus requires t < n/3 (n=%d, t=%d); "
                "set allow_t_ge_n3=True with the dolev_strong backend for "
                "the probabilistic §4 variant" % (self.n, self.t)
            )
        if self.n - 2 * self.t < 1:
            raise ValueError(
                "code dimension n - 2t must be >= 1 (n=%d, t=%d)"
                % (self.n, self.t)
            )
        if self.l_bits < 1:
            raise ValueError("l_bits must be positive, got %d" % self.l_bits)
        if self.d_bits % self.data_symbols:
            raise ValueError(
                "d_bits=%d is not a multiple of n - 2t = %d"
                % (self.d_bits, self.data_symbols)
            )
        if self.symbol_bits != self.d_bits // self.data_symbols:
            raise ValueError(
                "symbol_bits=%d inconsistent with d_bits=%d and n-2t=%d"
                % (self.symbol_bits, self.d_bits, self.data_symbols)
            )
        if self.symbol_bits < min_symbol_bits(self.n):
            raise ValueError(
                "Reed-Solomon code needs n <= 2^c - 1: n=%d, c=%d"
                % (self.n, self.symbol_bits)
            )
        # Wide symbols must decompose into supported field widths.
        field_width(self.n, self.symbol_bits)
        if self.allow_t_ge_n3 and 3 * self.t >= self.n:
            backend_cls = BACKENDS[self.backend]
            if backend_cls.error_free:
                raise ValueError(
                    "t >= n/3 requires a probabilistic backend "
                    "(dolev_strong), not %r" % self.backend
                )
            if backend_cls.max_faults(self.n) < self.t:
                # Not every non-error-free backend escapes the t < n/3
                # bound: the randomized mostefaoui backend is
                # probabilistic in *round count*, not in fault budget.
                raise ValueError(
                    "backend %r tolerates at most t=%d of n=%d "
                    "processors, got t=%d"
                    % (
                        self.backend,
                        backend_cls.max_faults(self.n),
                        self.n,
                        self.t,
                    )
                )
        check_input_value(self.default_value, self.l_bits, "default_value")

    # -- derived quantities ---------------------------------------------------

    @property
    def data_symbols(self) -> int:
        """``k = n - 2t``, the code dimension."""
        return self.n - 2 * self.t

    @property
    def generations(self) -> int:
        """Number of generations ``⌈L/D⌉`` (the last one zero-padded)."""
        return math.ceil(self.l_bits / self.d_bits)

    def make_code(self):
        """The paper's ``C_2t``: an ``(n, n-2t)`` code with ``D/(n-2t)``-bit
        symbols (interleaved over GF(2^c) rows when wider than 16 bits)."""
        return make_symbol_code(self.n, self.data_symbols, self.symbol_bits)

    def make_backend(self, meter, adversary, view_provider) -> BroadcastBackend:
        cls = BACKENDS[self.backend]
        kwargs = {}
        if self.backend == "dolev_strong":
            kwargs["kappa"] = self.kappa
        if self.backend == "mostefaoui":
            kwargs["seed"] = self.coin_seed
        return cls(
            self.n, self.t, meter, adversary, view_provider, **kwargs
        )

    @classmethod
    def create(
        cls,
        n: int,
        l_bits: int,
        t: Optional[int] = None,
        d_bits: Optional[int] = None,
        backend: str = "ideal",
        default_value: int = 0,
        kappa: int = 16,
        coin_seed: int = 0,
        allow_t_ge_n3: bool = False,
    ) -> "ConsensusConfig":
        """Build a config, deriving ``t`` (max tolerable) and ``D``
        (paper-optimal, rounded feasible) when not given."""
        check_int(n, "n")
        check_int(l_bits, "l_bits")
        check_int(t, "t", optional=True)
        check_int(d_bits, "d_bits", optional=True)
        if t is None:
            t = (n - 1) // 3
        k = n - 2 * t
        if k < 1:
            raise ValueError("n - 2t must be >= 1 (n=%d, t=%d)" % (n, t))
        if d_bits is None:
            d_bits = optimal_d_feasible(n, t, l_bits, float(default_b(n)))
        symbol_bits = d_bits // k
        return cls(
            n=n,
            t=t,
            l_bits=l_bits,
            d_bits=d_bits,
            symbol_bits=symbol_bits,
            backend=backend,
            default_value=default_value,
            kappa=kappa,
            coin_seed=coin_seed,
            allow_t_ge_n3=allow_t_ge_n3,
        )


def split_value(config: ConsensusConfig, value: int) -> List[List[int]]:
    """Split an L-bit value into ``generations`` lists of ``k`` symbols.

    Big-endian throughout; the tail generation is zero-padded, matching
    the paper's divisibility convenience assumption.
    """
    if value < 0 or value >> config.l_bits:
        raise ValueError("value does not fit in %d bits" % config.l_bits)
    k = config.data_symbols
    symbols = split_symbols(
        value, config.l_bits, config.symbol_bits, config.generations * k
    )
    return [symbols[g * k:(g + 1) * k] for g in range(config.generations)]
