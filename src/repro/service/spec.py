"""Declarative run descriptions shared by every driver.

:class:`RunSpec` is *the* description of a deployment — ``n, t, L``,
generation size, backend, attack, seed — that the CLI, the sweep
drivers, the benchmarks and the service layer all consume, replacing the
three ad-hoc parameter paths those callers used to keep.  It is a plain
frozen dataclass of picklable fields, so it crosses process boundaries
unchanged: the ``repro-sim serve`` child and the wire carry specs (never
live adversary or backend objects), and whoever holds one rebuilds an
identical deployment via the canonical attack registry.

:class:`InstanceSpec` describes one consensus instance of a batch (the
per-processor inputs plus any per-instance attack override) —
:meth:`ConsensusService.run_many
<repro.service.service.ConsensusService.run_many>` takes a sequence of
them — and :meth:`InstanceSpec.validate` is the one place an instance
that can never run on a deployment is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.config import BACKENDS, ConsensusConfig
from repro.processors.adversary import Adversary
from repro.processors.registry import (
    ATTACKS,
    attack_cohort_id,
    make_attack,
    normalize_attack,
)
from repro.utils.boundary import (
    check_choice, check_input_value, check_int, check_pid,
)


@dataclass(frozen=True)
class RunSpec:
    """One deployment: parameters, backend, attack and seed.

    Everything here is declarative and picklable; live objects (config,
    code, adversary) are built on demand via :meth:`make_config` and
    :meth:`make_adversary`.  ``t`` and ``d_bits`` default to the
    paper-derived choices (maximum tolerable ``t``, paper-optimal
    feasible ``D``) exactly like :meth:`ConsensusConfig.create`.
    """

    n: int
    l_bits: int
    t: Optional[int] = None
    d_bits: Optional[int] = None
    backend: str = "ideal"
    attack: str = "none"
    seed: int = 0
    #: Explicit faulty pids; ``None`` selects the attack's default set.
    faulty: Optional[Tuple[int, ...]] = None
    default_value: int = 0
    kappa: int = 16
    allow_t_ge_n3: bool = False
    #: Engine toggles (see :class:`MultiValuedConsensus`).
    vectorized: bool = True
    batch_generations: bool = True

    def __post_init__(self):
        # A spec that can never make a config fails where it is written;
        # faulty pids and the attack are checked where an instance enters.
        for name in ("n", "l_bits", "default_value", "kappa", "seed"):
            check_int(getattr(self, name), name)
        check_int(self.t, "t", optional=True)
        check_int(self.d_bits, "d_bits", optional=True)
        check_choice(self.backend, BACKENDS, "backend")
        object.__setattr__(self, "attack", normalize_attack(self.attack))
        if self.faulty is not None:
            object.__setattr__(self, "faulty", tuple(self.faulty))
            for pid in self.faulty:
                check_int(pid, "faulty pid")

    @property
    def resolved_t(self) -> int:
        """``t``, defaulting to the maximum tolerable ``⌊(n-1)/3⌋``."""
        return self.t if self.t is not None else (self.n - 1) // 3

    def make_config(self) -> ConsensusConfig:
        """The validated :class:`ConsensusConfig` this spec describes."""
        return ConsensusConfig.create(
            n=self.n,
            l_bits=self.l_bits,
            t=self.t,
            d_bits=self.d_bits,
            backend=self.backend,
            default_value=self.default_value,
            kappa=self.kappa,
            allow_t_ge_n3=self.allow_t_ge_n3,
        )

    def make_adversary(self) -> Adversary:
        """A fresh adversary for this spec's attack, via the canonical
        registry — deterministic, so every call (in any process) yields
        behaviourally identical Byzantine strategies."""
        return make_attack(
            self.attack,
            self.n,
            self.resolved_t,
            self.l_bits,
            seed=self.seed,
            faulty=self.faulty,
        )

    @classmethod
    def from_config(cls, config: ConsensusConfig) -> "RunSpec":
        """Describe an existing config (``coin_seed`` excepted: it has
        no field here, as adding one would change the wire; a config
        setting it stays usable in-process but cannot cross a process
        boundary or be recorded)."""
        return cls(
            n=config.n,
            l_bits=config.l_bits,
            t=config.t,
            d_bits=config.d_bits,
            backend=config.backend,
            default_value=config.default_value,
            kappa=config.kappa,
            allow_t_ge_n3=config.allow_t_ge_n3,
        )


@dataclass(frozen=True)
class InstanceSpec:
    """One consensus instance of a batch.

    ``attack``/``seed``/``faulty`` default to "inherit from the
    deployment's :class:`RunSpec`" (``attack=None``); an explicit value
    overrides per instance, which is how a single ``run_many`` batch
    mixes honest and adversarial instances.
    """

    #: Exactly ``n`` per-processor input values.
    inputs: Tuple[int, ...]
    attack: Optional[str] = None
    seed: Optional[int] = None
    faulty: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.attack is not None:
            object.__setattr__(self, "attack", normalize_attack(self.attack))
        if self.faulty is not None:
            object.__setattr__(self, "faulty", tuple(self.faulty))

    def resolve(self, spec: RunSpec) -> RunSpec:
        """The effective :class:`RunSpec` of this instance under
        ``spec`` (per-instance overrides applied)."""
        overrides = {}
        if self.attack is not None:
            overrides["attack"] = self.attack
        if self.seed is not None:
            overrides["seed"] = self.seed
        if self.faulty is not None:
            overrides["faulty"] = self.faulty
        return replace(spec, **overrides) if overrides else spec

    def validate(self, spec: RunSpec) -> "InstanceSpec":
        """Refuse an instance that can never run on deployment ``spec``.

        Called where an instance enters — ``ConsensusService.run`` /
        ``submit`` / ``run_many`` and the server's admission — so a bad
        one fails alone instead of mid-batch, taking its batch-mates.
        Returns ``self``; raises :class:`ValueError`.  The seed, inputs
        and faulty pids are exact ``int`` values (``True`` is not 1).
        """
        if len(self.inputs) != spec.n:
            raise ValueError(
                "instance carries %d inputs for an n=%d deployment"
                % (len(self.inputs), spec.n)
            )
        check_int(self.seed, "seed", optional=True)
        for value in self.inputs:
            check_input_value(value, spec.l_bits)
        check_choice(
            self.attack if self.attack is not None else spec.attack,
            ATTACKS, "attack",
        )
        faulty = self.faulty if self.faulty is not None else spec.faulty
        for pid in faulty or ():
            check_pid(pid, spec.n, "faulty pid")
        if (
            faulty
            and not spec.allow_t_ge_n3
            and len(set(faulty)) > spec.resolved_t
        ):
            raise ValueError(
                "%d faulty processors, but the deployment tolerates t=%d"
                % (len(set(faulty)), spec.resolved_t)
            )
        return self


def cohort_key(spec: RunSpec, instance: InstanceSpec) -> Tuple:
    """The attack-shape key cohort batching groups instances by.

    Instances of one batch with equal keys run the protocol over the
    same deployment shape — same ``(n, t, L, D)`` symbol layout and the
    same :func:`~repro.processors.registry.attack_cohort_id` (canonical
    attack, declared faulty set; seeds excluded) — so they share scatter
    buffers, M/clique inputs and diagnosis plans.  Input values and
    seeds deliberately stay out of the key: they vary freely within a
    cohort.
    """
    effective = instance.resolve(spec)
    return (
        effective.n,
        effective.resolved_t,
        effective.l_bits,
        effective.d_bits,
    ) + attack_cohort_id(effective.attack, effective.faulty)
