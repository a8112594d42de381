"""The lane planner: which engine executes one consensus instance.

An instance runs one of four ways, and this module's
:func:`plan_lane` is the only code that knows the gates between them:

* ``Lane.CLONE`` — priced from the service's failure-free template
  (:meth:`ConsensusService._clone_result`); nothing executes.
* ``Lane.COHORT`` — :func:`repro.service.cohort.run_cohort_instance`
  over a :class:`~repro.core.batched.CohortContext`: the batched
  generation body over a priced symbol round.  A single instance is a
  cohort of one, a failure-free run the cohort of the empty faulty set.
* ``Lane.PER_GENERATION`` — :func:`repro.service.engine.execute_consensus`,
  one vectorized ``GenerationProtocol.run`` call per stretch of
  generations under one graph state: the same batched body over a sent
  symbol round, for the traffic that cannot share and every recorded
  run.
* ``Lane.REFERENCE`` — the same loop on the scalar reference
  generation, one generation a stretch: ``vectorized`` off, a backend
  whose honest broadcasts run real rounds (``phase_king``, ``eig``,
  ``dolev_strong``, ``mostefaoui``), or a fault plan (``repro.faults``).

All four are byte-identical to the forced-scalar reference; the choice
only decides how much work is shared.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.core.config import BACKENDS, ConsensusConfig
from repro.processors.adversary import Adversary


class Lane(enum.Enum):
    CLONE = "clone"
    COHORT = "cohort"
    PER_GENERATION = "per_generation"
    REFERENCE = "reference"


def plan_lane(
    config: ConsensusConfig,
    vectorized: bool,
    batch_generations: bool,
    adversary: Adversary,
    inputs: Sequence[int],
    reuse_results: bool = False,
    journal: bool = False,
) -> Lane:
    """The lane for one instance of the deployment ``(config,
    vectorized, batch_generations)``, one-shot or one of a batch alike.

    ``reuse_results`` says the caller holds a result template;
    ``journal`` that the run is recorded.
    """
    # Injected network faults can deliver an honest batch in part: only
    # the scalar reference reads a round edge by edge.
    if getattr(adversary, "fault_plan", None) is not None:
        return Lane.REFERENCE
    backend = BACKENDS[config.backend]
    faulty = adversary.faulty
    n = config.n
    # The one engine predicate: the vectorized engines (cohort and
    # per-generation) price honest broadcasts and dispatch only the
    # controlled rows, which needs a backend whose honest broadcast is
    # pure accounting; every other run takes the scalar reference.
    priced = vectorized and backend.constant_cost_honest
    # The clone and cohort lanes replay value-independent accounting,
    # which needs nobody watching the messages (a journal must observe
    # materialized ones: ``charge_round`` refuses a journalling network,
    # a cloned result has no journal at all), agreement (an error-free
    # backend) and one common honest input — checked on the raw inputs:
    # input_value hooks fire once, inside the run.
    if not (
        batch_generations
        and not journal
        and backend.error_free
        and len(inputs) == n
        and len({inputs[pid] for pid in range(n) if pid not in faulty}) == 1
    ):
        return Lane.PER_GENERATION if priced else Lane.REFERENCE
    # A cloned result is priced, not executed.
    if reuse_results and not faulty:
        return Lane.CLONE
    return Lane.COHORT if priced else Lane.REFERENCE
