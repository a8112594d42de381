"""The full L-bit consensus algorithm: ``L/D`` generations of Algorithm 1
with memory across generations (the shared diagnosis graph).

:class:`MultiValuedConsensus` holds the state of *one* consensus
instance — the diagnosis graph, the metered network, the
``Broadcast_Single_Bit`` backend — and runs it on the protocol in
``core`` through the service layer's two doors (:mod:`repro.service.engine`,
:mod:`repro.service.cohort`).  It remains the one-shot entry point::

    config = ConsensusConfig.create(n=7, t=2, l_bits=256)
    result = MultiValuedConsensus(config).run(inputs)

For anything beyond a single run, prefer the service layer
(:class:`~repro.service.service.ConsensusService`), which is constructed
once per configuration and keeps one cohort context per attack shape
(code tables, default split, arena, pattern memos) across many
instances::

    from repro import ConsensusService

    service = ConsensusService(config)
    results = service.run_many([inputs_a, inputs_b, inputs_c])
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.batched import CohortContext
from repro.core.config import ConsensusConfig, split_value
from repro.core.planner import Lane, plan_lane
from repro.core.result import ConsensusResult
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.network.metrics import BitMeter
from repro.network.simulator import SyncNetwork
from repro.processors.adversary import Adversary, GlobalView, check_tolerated
from repro.utils.bits import join_symbols
from repro.utils.boundary import check_input_value


class MultiValuedConsensus:
    """Error-free multi-valued Byzantine consensus (Liang & Vaidya 2011).

    Owns the cross-generation state of one instance (diagnosis graph,
    metered network, ``Broadcast_Single_Bit`` backend), runs ``⌈L/D⌉``
    generations of Algorithm 1 and reassembles the per-generation symbol
    decisions into one L-bit value per fault-free processor.
    :meth:`run` checks the inputs, asks the lane planner
    (:func:`repro.core.planner.plan_lane`) and either runs the run loop
    (:func:`repro.service.engine.execute_consensus`) or, for any run
    whose honest processors share one input (adversarial or not), the
    cohort lane (:func:`repro.service.cohort.run_cohort_instance`).  Both
    vectorized lanes run on one :class:`~repro.core.batched.CohortContext`
    (:attr:`context`), what outlives the instance: the service's keyed
    one, or a private one.

    Two toggles select between the observationally identical engines
    (see ``docs/ARCHITECTURE.md`` for the contract):

    * ``batch_generations`` — ``True`` (default) sends any run whose
      honest processors share one input through the cohort engine:
      honest traffic is O(1) accounting per generation, adversary hooks
      are asked with the scalar arguments, and a failure-free run never
      encodes at all; ``False`` forces the per-generation protocol everywhere.
    * ``vectorized`` — ``True`` (default) runs each generation's
      array-backed path, which prices fault-free broadcasts and
      dispatches the controlled rows grouped; ``False`` forces the
      scalar per-edge reference implementation.  Backends whose honest
      broadcasts run real rounds run scalar regardless (nothing to
      price; under a probabilistic backend honest views can genuinely
      diverge, so no shared reference view exists).

    Whatever the toggles, decisions, per-generation records, metered
    bits *and* messages by tag, the round clock, backend instance
    counts and every adversary hook's order and arguments are
    byte-identical — ``tests/test_differential.py`` asserts it at
    n ∈ {4, 7, 31} and, under ``-m large_n``, at n ∈ {127, 255}.

    >>> config = ConsensusConfig.create(n=4, t=1, l_bits=16)
    >>> result = MultiValuedConsensus(config).run([0xBEEF] * 4)
    >>> result.error_free, hex(result.decisions[0])
    (True, '0xbeef')
    """

    def __init__(
        self,
        config: ConsensusConfig,
        adversary: Optional[Adversary] = None,
        meter: Optional[BitMeter] = None,
        batch_generations: bool = True,
        vectorized: bool = True,
        context: Optional[CohortContext] = None,
        journal: bool = False,
    ):
        """Set up one deployment.

        Args:
            config: validated parameters (:meth:`ConsensusConfig.create`).
            adversary: Byzantine strategy controlling at most ``t``
                processors; default a compliant no-op.
            meter: shared :class:`BitMeter`; default a fresh one.
            batch_generations: see the class docstring.
            vectorized: see the class docstring.
            context: the :class:`~repro.core.batched.CohortContext` to
                run on (the service passes its keyed one, so what
                outlives the instance outlives it), built for this
                config, faulty set and hook profile (else
                :class:`ValueError`).  Default: a private one, built on
                first vectorized need (:attr:`context`).
            journal: when True the network records every delivered
                message as one row (the raw material of
                :mod:`repro.audit` transcripts; see
                :attr:`~repro.network.simulator.SyncNetwork.journal`);
                metering is unchanged either way.
        """
        self.config = config
        #: The engine toggles (see the class docstring).
        self.batch_generations = batch_generations
        self.vectorized = vectorized
        self.adversary = adversary if adversary is not None else Adversary()
        check_tolerated(
            self.adversary, config.n,
            None if config.allow_t_ge_n3 else config.t,
        )
        if context is not None:
            context.refuse_mismatch(config, self.adversary)
        self.meter = meter if meter is not None else BitMeter()
        self.graph = DiagnosisGraph(config.n)
        self.network = SyncNetwork(config.n, self.meter, journal=journal)
        # Adversaries carrying a declarative fault plan (see
        # repro.faults) attack the network itself: compile and install
        # the schedule before any traffic moves.  The compiled schedule
        # is re-derived from (plan, n) alone, so audit replays install
        # an identical one.
        fault_plan = getattr(self.adversary, "fault_plan", None)
        if fault_plan is not None:
            self.network.install_faults(fault_plan.compile(config.n))
        self._context = context
        self.code = config.make_code() if context is None else context.code
        #: This instance's splits by value (see :meth:`parts_for`).
        self._parts: Dict[int, List[List[int]]] = (
            {} if context is None
            else {config.default_value: context.default_parts}
        )
        self._view_extras: Dict[str, object] = {}
        #: What the first run was handed (a short form of its inputs),
        #: once one has started: the engines' shared prologue refuses a
        #: second run of one object.
        self._first_run: Optional[str] = None
        self.backend = config.make_backend(
            self.meter, self.adversary, self._make_view
        )

    # -- value <-> symbol plumbing --------------------------------------------------

    def parts_of(self, value: int) -> List[List[int]]:
        """:func:`split_value` under this instance's config."""
        return split_value(self.config, value)

    def parts_for(self, value: int) -> List[List[int]]:
        """Content-keyed :meth:`parts_of`: one split per distinct value
        of this instance, however many processors hold it.  The returned
        list (one object per value) is shared and must be treated as
        read-only.
        """
        parts = self._parts.get(value)
        if parts is None:
            parts = self._parts[value] = self.parts_of(value)
        return parts

    def value_of(self, parts: Sequence[Sequence[int]]) -> int:
        """Inverse of :meth:`parts_of` (drops the padding)."""
        config = self.config
        return join_symbols(
            [symbol for part in parts for symbol in part],
            config.symbol_bits, config.l_bits,
        )

    @property
    def context(self) -> CohortContext:
        """The cohort context this instance's vectorized lanes run on:
        the one handed in, else a private one built here on first need
        (the engines ask only on a vectorized lane)."""
        if self._context is None:
            self._context = CohortContext(
                self.config, self.code, self.adversary
            )
        return self._context

    def _make_view(self) -> GlobalView:
        return GlobalView(
            n=self.config.n,
            t=self.config.t,
            faulty=set(self.adversary.faulty),
            extras=dict(self._view_extras),
        )

    # -- main entry point --------------------------------------------------------------

    def run(self, inputs: Sequence[int]) -> ConsensusResult:
        """Run consensus over ``inputs[pid]`` (one L-bit int per processor).

        Args:
            inputs: exactly ``n`` exact ``int`` values, each fitting in
                ``l_bits`` bits (else :class:`ValueError`, on any lane);
                controlled processors' inputs pass through the
                adversary's ``input_value`` hook first.

        Returns:
            A :class:`~repro.core.result.ConsensusResult` containing the
            decision of every fault-free processor, per-generation
            records and the full bit-metering snapshot.  Under an
            error-free backend the result is always consistent and
            valid (``result.error_free``); a violation raises
            :class:`~repro.core.config.ProtocolInvariantError` instead
            of returning.

        A consensus object owns mutable cross-generation state (the
        diagnosis graph, the meter, the round clock), so it runs once: a
        second call raises :class:`RuntimeError` before any hook fires or
        any traffic moves.  Build a fresh instance per execution.
        """
        for value in inputs:
            check_input_value(value, self.config.l_bits)
        lane = plan_lane(
            self.config,
            self.vectorized,
            self.batch_generations,
            self.adversary,
            inputs,
            journal=self.network.journal is not None,
        )
        if lane is Lane.COHORT:
            # The doors are imported lazily: repro.service imports this
            # module at package init, so a top-level import is circular.
            from repro.service.cohort import run_cohort_instance

            return run_cohort_instance(self, inputs)
        from repro.service.engine import execute_consensus

        return execute_consensus(self, inputs, lane)
