"""The reusable consensus service: one deployment, many instances.

``MultiValuedConsensus(config).run(values)`` rebuilds the code tables,
the backend and the network on every call — fine for one run, wasteful
for traffic.  :class:`ConsensusService` is constructed **once** per
deployment and owns everything reusable across instances.  What it
keeps for its lifetime is **value-independent** — *shapes*, never
values:

* one cohort context per cohort key
  (:class:`~repro.core.batched.CohortContext`), the one home of what
  outlives an instance — the code tables (one ``config.make_code()``
  for every context, interpolation caches warm across instances), the
  default value's split, an exchange arena, and the graph structures,
  plans and match sets — which every lane's engine runs on (at most
  :data:`MAX_COHORT_CONTEXTS` of them),
* the failure-free *result template* (the metering of an all-match run
  is value-independent, so one real run prices every failure-free
  instance of the batch).

Everything derived from an input value — its split, its codewords, its
decision rows — is scoped to its instance, or to its ``run_many`` batch
(one ``(instances × generations × rows, k)`` generator matmat encodes
the batch's adversarial cohort values), and dies with it
(``docs/ARCHITECTURE.md``, "What a deployment remembers").

Which engine runs an instance is the lane planner's decision
(:func:`repro.core.planner.plan_lane`), nowhere else's.

``run`` executes one instance; ``run_many`` executes a batch with
cross-instance batching; ``submit``/``drain`` queue instances between
batches.  A batch runs in one place — this process, this service's
shared state; an instance that can never run is refused where it
enters (:meth:`InstanceSpec.validate
<repro.service.spec.InstanceSpec.validate>`), before anything is queued
or executed.

Every path is **byte-identical** to looping
``MultiValuedConsensus(config).run(...)`` over the same instances — the
per-instance :class:`~repro.core.result.ConsensusResult` records and
meter snapshots match field for field, which
``tests/test_service.py::TestRunManyEquivalence`` and the path grid of
``tests/test_differential.py`` assert for every registered attack.

>>> from repro.core.config import ConsensusConfig
>>> service = ConsensusService(ConsensusConfig.create(n=4, t=1, l_bits=16))
>>> [r.value for r in service.run_many([0xAAAA, 0xBBBB])]
[43690, 48059]
>>> service.run(0xBEEF, attack="corrupt").error_free
True
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.batched import CohortContext
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus, split_value
from repro.core.planner import Lane, plan_lane
from repro.core.result import ConsensusResult, GenerationResult
from repro.network.metrics import MeterSnapshot
from repro.processors.adversary import Adversary
from repro.service.cohort import run_cohort_instance
from repro.service.engine import execute_consensus
from repro.service.spec import InstanceSpec, RunSpec, cohort_key

#: Anything ``run_many``/``submit`` accepts as one instance: a spec, the
#: per-processor input sequence, or a single value every processor holds.
InstanceLike = Union[InstanceSpec, Sequence[int], int]

#: Cohort contexts a service keeps before it starts over: each is a pure
#: function of its key, and a declared faulty set is part of the key.
MAX_COHORT_CONTEXTS = 32


class ConsensusService:
    """A long-lived consensus deployment serving many instances.

    Args:
        config_or_spec: the deployment, as a validated
            :class:`ConsensusConfig` or a declarative :class:`RunSpec`.
            The engine toggles (``vectorized``, ``batch_generations``)
            are fields of the spec; a config gets the defaults.
        reuse_results: when ``True`` (default), ``run_many`` prices
            failure-free all-equal-input instances from one shared
            template run (their metering is value-independent) instead
            of executing each; results stay byte-identical.  ``False``
            forces a real engine execution per instance — the escape
            hatch for baselines and paranoid audits.
    """

    def __init__(
        self,
        config_or_spec: Union[ConsensusConfig, RunSpec],
        reuse_results: bool = True,
    ):
        if isinstance(config_or_spec, RunSpec):
            self.spec = config_or_spec
            self.config = config_or_spec.make_config()
        elif isinstance(config_or_spec, ConsensusConfig):
            self.config = config_or_spec
            self.spec = RunSpec.from_config(config_or_spec)
        else:
            raise TypeError(
                "expected a ConsensusConfig or RunSpec, got %r"
                % type(config_or_spec).__name__
            )
        #: Whether ``self.spec`` rebuilds ``self.config`` (a config's
        #: ``coin_seed`` has no RunSpec field).
        self._recordable = (
            config_or_spec is self.spec
            or self.spec.make_config() == self.config
        )
        self.reuse_results = reuse_results
        #: One code instance for every run of this service; its
        #: interpolation caches warm monotonically across instances.
        self.code = self.config.make_code()
        #: value-independent failure-free template (see _clone_result).
        self._template: Optional[ConsensusResult] = None
        self._pending: List[InstanceSpec] = []
        #: Cohort contexts, keyed by ``cohort_key``: every lane's engine
        #: runs on its instance's, so repeated ``run_many`` calls keep
        #: their warmth; at most :data:`MAX_COHORT_CONTEXTS`.
        self._cohorts: Dict[tuple, CohortContext] = {}

    # -- engine construction ------------------------------------------------

    def _context_for(
        self, instance: Optional[InstanceSpec], adversary: Adversary
    ) -> CohortContext:
        """The context of ``instance``'s cohort key, built on first need.
        The table starts over when full (between instances: a context
        holds only memos, so forgetting one never changes a result).
        ``instance`` is ``None`` for a live adversary, which no cohort
        key describes: its context is private, on the service's code."""
        key = None if instance is None else cohort_key(self.spec, instance)
        ctx = self._cohorts.get(key)
        if ctx is None:
            ctx = CohortContext(self.config, self.code, adversary)
            if key is not None:
                if len(self._cohorts) >= MAX_COHORT_CONTEXTS:
                    self._cohorts.clear()
                self._cohorts[key] = ctx
        return ctx

    def _make_engine(
        self,
        adversary: Adversary,
        context: CohortContext,
        journal: bool = False,
    ) -> MultiValuedConsensus:
        """A fresh per-instance engine over ``context``."""
        return MultiValuedConsensus(
            self.config,
            adversary=adversary,
            batch_generations=self.spec.batch_generations,
            vectorized=self.spec.vectorized,
            context=context,
            journal=journal,
        )

    # -- single-instance API ------------------------------------------------

    def run(
        self,
        inputs: InstanceLike,
        attack: Optional[str] = None,
        seed: Optional[int] = None,
        faulty: Optional[Sequence[int]] = None,
        adversary: Optional[Adversary] = None,
    ) -> ConsensusResult:
        """Run one consensus instance.

        ``inputs`` is the per-processor value sequence (or one value all
        processors hold, or an :class:`InstanceSpec`).  ``attack``,
        ``seed`` and ``faulty`` override the service spec's defaults via
        the canonical attack registry; passing a live ``adversary``
        object bypasses the registry entirely (such instances cannot be
        described declaratively, hence neither recorded nor served).

        Always executes a real engine — byte-identical to
        ``MultiValuedConsensus(config, adversary).run(inputs)`` but on
        the instance's keyed cohort context (a live adversary's context
        is private, built on the service's code).
        """
        if adversary is not None and (
            attack is not None or seed is not None or faulty is not None
        ):
            raise ValueError(
                "attack/seed/faulty overrides conflict with a live "
                "adversary object; pass one or the other"
            )
        instance = self._coerce(
            inputs, attack=attack, seed=seed, faulty=faulty
        ).validate(self.spec)
        # A live adversary is not described by its cohort key: its
        # context is private.
        keyed = instance if adversary is None else None
        if adversary is None:
            adversary = instance.resolve(self.spec).make_adversary()
        engine = self._make_engine(
            adversary, self._context_for(keyed, adversary)
        )
        return engine.run(list(instance.inputs))

    def record(
        self,
        inputs: InstanceLike,
        attack: Optional[str] = None,
        seed: Optional[int] = None,
        faulty: Optional[Sequence[int]] = None,
        key: Optional[bytes] = None,
    ):
        """Run one instance with transcript recording; returns
        ``(result, transcript)``, the result byte-identical to
        :meth:`run`'s.

        The service's one journalling door: the engine journals every
        delivered message (so the run takes the per-generation lane,
        never the cohort or a clone) and the journal is authenticated
        into a :class:`~repro.audit.Transcript` (``key`` overrides the
        demo signing key).  ``prove()`` rebuilds the run from the
        transcript's spec and instance, so a deployment its
        :class:`RunSpec` does not describe is refused, a ``ValueError``
        before any traffic.  See ``docs/AUDIT.md``.
        """
        from repro.audit import DEFAULT_KEY, Transcript

        if not self._recordable:
            raise ValueError(
                "transcript recording needs a deployment its RunSpec "
                "describes; this config's coin_seed has no RunSpec "
                "field"
            )
        instance = self._coerce(
            inputs, attack=attack, seed=seed, faulty=faulty
        ).validate(self.spec)
        adversary = instance.resolve(self.spec).make_adversary()
        engine = self._make_engine(
            adversary, self._context_for(instance, adversary), journal=True
        )
        result = engine.run(list(instance.inputs))
        return result, Transcript.record(
            self.spec, instance, engine.network.journal, result,
            key=DEFAULT_KEY if key is None else key,
        )

    # -- batch API ----------------------------------------------------------

    def submit(
        self,
        inputs: InstanceLike,
        attack: Optional[str] = None,
        seed: Optional[int] = None,
        faulty: Optional[Sequence[int]] = None,
    ) -> int:
        """Queue one instance for the next :meth:`drain`; returns its
        ticket (the index of its result in the drained list).  An
        instance that can never run raises :class:`ValueError` here and
        is not queued."""
        self._pending.append(
            self._coerce(
                inputs, attack=attack, seed=seed, faulty=faulty
            ).validate(self.spec)
        )
        return len(self._pending) - 1

    @property
    def pending(self) -> int:
        """Number of submitted instances awaiting :meth:`drain`."""
        return len(self._pending)

    def drain(self) -> List[ConsensusResult]:
        """Run every submitted instance (one batch, as :meth:`run_many`
        would) and return their results in submission (ticket) order."""
        batch, self._pending = self._pending, []
        return self._run_many_local(batch)

    def run_many(
        self, instances: Sequence[InstanceLike]
    ) -> List[ConsensusResult]:
        """Run a batch of independent consensus instances, in-process,
        with cross-instance batching.

        Results arrive in instance order and are byte-identical — per
        instance: decisions, generation records, meter snapshot — to
        looping ``MultiValuedConsensus`` over the same instances.  Every
        instance is validated before the first one executes.  A batch
        is never recorded: :meth:`record` is the journalling door.
        """
        return self._run_many_local([
            self._coerce(instance).validate(self.spec)
            for instance in instances
        ])

    # -- internals ----------------------------------------------------------

    def _coerce(
        self,
        inputs: InstanceLike,
        attack: Optional[str] = None,
        seed: Optional[int] = None,
        faulty: Optional[Sequence[int]] = None,
    ) -> InstanceSpec:
        if isinstance(inputs, InstanceSpec):
            if attack is not None or seed is not None or faulty is not None:
                raise ValueError(
                    "per-call attack/seed/faulty overrides conflict with "
                    "an explicit InstanceSpec; set them on the spec"
                )
            return inputs
        if isinstance(inputs, int):
            inputs = (inputs,) * self.config.n
        return InstanceSpec(
            inputs=tuple(inputs),
            attack=attack,
            seed=seed,
            faulty=tuple(faulty) if faulty is not None else None,
        )

    def _run_many_local(
        self, specs: Sequence[InstanceSpec]
    ) -> List[ConsensusResult]:
        results: List[Optional[ConsensusResult]] = [None] * len(specs)
        plan: List[Tuple[InstanceSpec, Adversary, Lane]] = []
        for instance in specs:
            adversary = instance.resolve(self.spec).make_adversary()
            lane = plan_lane(
                self.config, self.spec.vectorized,
                self.spec.batch_generations, adversary, instance.inputs,
                reuse_results=self.reuse_results,
            )
            plan.append((instance, adversary, lane))
        prewarmed = self._prewarm(plan)  # dies with the batch
        for idx, (instance, adversary, lane) in enumerate(plan):
            if lane is Lane.CLONE:
                results[idx] = self._run_or_clone(instance, adversary)
            else:
                results[idx] = self._execute(
                    instance, adversary, lane, prewarmed
                )
        return results  # type: ignore[return-value]

    def _execute(
        self,
        instance: InstanceSpec,
        adversary: Adversary,
        lane: Lane,
        prewarmed=None,
    ) -> ConsensusResult:
        """Execute one instance on ``lane`` with a fresh engine, handing
        it its batch's :meth:`_prewarm` table."""
        engine = self._make_engine(
            adversary, self._context_for(instance, adversary)
        )
        if lane is Lane.COHORT:
            return run_cohort_instance(engine, instance.inputs, prewarmed)
        return execute_consensus(engine, list(instance.inputs), lane)

    def _prewarm(self, plan) -> Dict[int, Tuple[list, list]]:
        """The cross-*instance* batched encode: one
        ``(instances × generations × rows, k)`` generator matmat for
        the batch's adversarial cohort instances.  Returns the table
        those instances read instead of splitting and encoding
        themselves: honest value -> (split, whole-run codewords).

        Deviations are classified against the whole-run codewords of the
        honest common value, so adversarial cohort instances read them;
        a failure-free cohort instance never does (no payload is ever
        inspected), so it stays out and encodes nothing.
        """
        splits: Dict[int, List[List[int]]] = {}
        for instance, adversary, lane in plan:
            if lane is not Lane.COHORT or not adversary.faulty:
                continue
            value = next(
                instance.inputs[pid]
                for pid in range(self.config.n)
                if pid not in adversary.faulty
            )
            if value not in splits:
                splits[value] = split_value(self.config, value)
        if len(splits) < 2:
            return {}  # a single run's lazy encode is already one matmat
        codewords = self.code.encode_generations(
            [part for parts in splits.values() for part in parts]
        )
        generations = self.config.generations
        return {
            value: (parts, codewords[i * generations:(i + 1) * generations])
            for i, (value, parts) in enumerate(splits.items())
        }

    def _run_or_clone(
        self, instance: InstanceSpec, adversary: Adversary
    ) -> ConsensusResult:
        """Price a failure-free all-equal instance from the shared
        template, building it with one real run on first need.

        An all-match failure-free run's metering depends only on the
        config (every charge is sized by ``n``, ``symbol_bits`` and the
        generation count, never by payload values), so one template run
        prices every such instance; decisions and per-generation records
        are rebuilt from the instance's own value.  Byte-identity with a
        looped one-shot run is asserted by
        ``tests/test_service.py::TestRunManyEquivalence``.
        """
        if self._template is None:
            template = self._execute(instance, adversary, plan_lane(
                self.config, self.spec.vectorized,
                self.spec.batch_generations, adversary, instance.inputs,
            ))
            expected_generations = self.config.generations
            if (
                template.default_used
                or template.diagnosis_count
                or len(template.generation_results) != expected_generations
            ):
                # The run deviated from the all-match shape (possible
                # only for exotic backends); serve it as computed and
                # keep executing instances for real.
                self.reuse_results = False
                return template
            self._template = template
            return template
        return self._clone_result(instance.inputs[0])

    def _clone_result(self, value: int) -> ConsensusResult:
        template = self._template
        assert template is not None
        parts = split_value(self.config, value)  # validates the range
        pids = range(self.config.n)
        records = [
            GenerationResult(
                generation=reference.generation,
                outcome=reference.outcome,
                decisions=dict.fromkeys(
                    pids, tuple(parts[reference.generation])
                ),
                p_match=reference.p_match,
            )
            for reference in template.generation_results
        ]
        return ConsensusResult(
            decisions=dict.fromkeys(pids, value),
            generation_results=records,
            meter=MeterSnapshot(
                bits_by_tag=dict(template.meter.bits_by_tag),
                messages_by_tag=dict(template.meter.messages_by_tag),
            ),
            diagnosis_count=0,
            default_used=False,
            honest_inputs_equal=True,
            common_input=value,
        )
