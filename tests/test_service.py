"""Service layer: ConsensusService, specs, batching fidelity.

The load-bearing contract: everything ``run_many`` does — template
reuse, shared caches, cross-instance encodes — must be
*observationally free*, wherever a batch is cut and whichever service
object, rebuilt from the pickled spec, runs a chunk.  Per instance, the returned
:class:`ConsensusResult` (decisions, generation records, meter snapshot)
must equal the looped one-shot
``MultiValuedConsensus(config, adversary).run(inputs)`` reference field
for field, for every canonical attack, mixed workloads included.
"""

import collections
import contextlib
import gc
import inspect
import itertools
import pickle
import weakref

import pytest

from repro.core import batched as batched_module
from repro.core.batched import MAX_PATTERN_ENTRIES, CohortContext
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.processors import ATTACKS, Adversary, CrashAdversary
from repro.service import ConsensusService, InstanceSpec, RunSpec
from repro.service import service as service_module
from repro.service.serving.wire import result_to_wire
from tests.conftest import BAD_IDS, BAD_INSTANCES, run_chunked


def looped_reference(spec, instances):
    """The pre-service API, one fresh deployment per instance."""
    results = []
    for instance in instances:
        run_spec = instance.resolve(spec)
        consensus = MultiValuedConsensus(
            run_spec.make_config(), adversary=run_spec.make_adversary()
        )
        results.append(consensus.run(list(instance.inputs)))
    return results


def mixed_workload(spec, attack, values):
    """Two adversarial all-equal instances, one honest all-equal, one
    honest mixed-inputs instance."""
    n = spec.n
    return [
        InstanceSpec(inputs=(values[0],) * n, attack=attack, seed=1),
        InstanceSpec(inputs=(values[1],) * n, attack=attack, seed=2),
        InstanceSpec(inputs=(values[2],) * n),
        InstanceSpec(
            inputs=tuple(
                values[3] if pid % 2 else values[2] for pid in range(n)
            )
        ),
    ]


class TestRunManyEquivalence:
    """run_many == looped one-shot, per instance, byte for byte."""

    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    @pytest.mark.parametrize("n,l_bits", [(4, 64), (7, 256), (31, 256)])
    def test_every_attack_vs_looped(self, attack, n, l_bits):
        spec = RunSpec(n=n, l_bits=l_bits)
        values = [(0xB5 * (i + 1)) % (1 << l_bits) for i in range(4)]
        instances = mixed_workload(spec, attack, values)
        reference = looped_reference(spec, instances)
        results = ConsensusService(spec).run_many(instances)
        assert results == reference
        assert sum(r.total_bits for r in results) == sum(
            r.total_bits for r in reference
        )

    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_every_attack_process_executor(self, attack):
        # One batch, and two chunks each on its own service rebuilt
        # from the pickled spec.
        spec = RunSpec(n=7, l_bits=128)
        values = [0x11 * (i + 3) for i in range(4)]
        instances = mixed_workload(spec, attack, values)
        reference = looped_reference(spec, instances)
        assert ConsensusService(spec).run_many(instances) == reference
        assert run_chunked(spec, instances, 2) == reference

    def test_stateful_seeded_adversaries_across_processes(self):
        # RandomAdversary draws from a seeded RNG on every hook and
        # SlowBleed plans against its own mutated state; whoever holds
        # the pickled specs must reconstruct both from (attack, seed,
        # faulty) and replay the exact looped behaviour wherever the
        # batch is cut.
        spec = RunSpec(n=7, l_bits=192)
        instances = []
        for i in range(8):
            if i % 2:
                instances.append(
                    InstanceSpec(
                        inputs=(0xACE + i,) * 7, attack="random", seed=i
                    )
                )
            else:
                instances.append(
                    InstanceSpec(inputs=(0xACE + i,) * 7, attack="slow_bleed")
                )
        reference = looped_reference(spec, instances)
        for chunks in (2, 3, 8):
            results = run_chunked(spec, instances, chunks)
            assert results == reference, "chunks=%d diverged" % chunks

    def test_duplicate_values_share_results(self):
        spec = RunSpec(n=7, l_bits=128)
        instances = [InstanceSpec(inputs=(0xF0F0,) * 7)] * 3 + [
            InstanceSpec(inputs=(0x0F0F,) * 7)
        ]
        reference = looped_reference(spec, instances)
        results = ConsensusService(spec).run_many(instances)
        assert results == reference

    def test_phase_king_backend_template(self):
        # The template's value-independence claim must hold when honest
        # broadcasts are *not* pure accounting (the protocol-simulating
        # Phase-King backend really dispatches every broadcast).
        spec = RunSpec(n=4, l_bits=64, backend="phase_king")
        instances = [InstanceSpec(inputs=(v,) * 4) for v in (7, 9, 7, 13)]
        reference = looped_reference(spec, instances)
        results = ConsensusService(spec).run_many(instances)
        assert results == reference

    def test_cross_instance_encode_prewarm(self, monkeypatch):
        # The adversarial cohort instances of a batch read their honest
        # value's whole-run codewords; those come from one
        # cross-instance encode_generations matmat, and the failure-free
        # instance of the batch joins no encode at all.
        spec = RunSpec(n=4, l_bits=64)
        service = ConsensusService(spec, reuse_results=False)
        encodes = []
        original = service.code.encode_generations

        def spy(parts):
            encodes.append(len(parts))
            return original(parts)

        monkeypatch.setattr(service.code, "encode_generations", spy)
        values = (3, 5, 8, 13)
        instances = [
            InstanceSpec(inputs=(v,) * 4, attack="corrupt") for v in values
        ] + [InstanceSpec(inputs=(21,) * 4)]
        results = service.run_many(instances)
        assert results == looped_reference(spec, instances)
        # the single prewarm call, before any instance ran, encoded
        # every distinct adversarial value; no instance encoded again
        assert encodes == [len(values) * service.config.generations]


def count_executions(monkeypatch):
    """Spy on both executing lanes of the service: returns the
    (per-generation, cohort) input logs.  A cloned instance shows up in
    neither."""
    logs = []
    # (engine, inputs, ...) on both doors.
    for name, inputs_at in (
        ("execute_consensus", 1), ("run_cohort_instance", 1)
    ):
        calls = []
        original = getattr(service_module, name)

        def spy(*args, _calls=calls, _original=original, _at=inputs_at):
            _calls.append(tuple(args[_at]))
            return _original(*args)

        monkeypatch.setattr(service_module, name, spy)
        logs.append(calls)
    return logs


class TestTemplateFastPath:

    def test_one_engine_run_prices_the_batch(self, monkeypatch):
        per_generation, cohort = count_executions(monkeypatch)
        spec = RunSpec(n=7, l_bits=128)
        service = ConsensusService(spec)
        results = service.run_many([1, 2, 3, 4, 5])
        assert len(results) == 5
        assert [r.value for r in results] == [1, 2, 3, 4, 5]
        # the template runs as the empty cohort; clones never execute
        assert (per_generation, cohort) == ([], [(1,) * 7])
        assert service._template is not None

    def test_reuse_results_false_executes_every_instance(self, monkeypatch):
        per_generation, cohort = count_executions(monkeypatch)
        service = ConsensusService(
            RunSpec(n=7, l_bits=128), reuse_results=False
        )
        service.run_many([1, 2, 3])
        assert len(per_generation) + len(cohort) == 3

    def test_adversarial_and_mixed_instances_execute(self, monkeypatch):
        per_generation, cohort = count_executions(monkeypatch)
        spec = RunSpec(n=7, l_bits=128)
        service = ConsensusService(spec)
        instances = [
            InstanceSpec(inputs=(5,) * 7),                      # template
            InstanceSpec(inputs=(6,) * 7),                      # clone
            InstanceSpec(inputs=(5,) * 7, attack="crash"),      # cohort
            InstanceSpec(inputs=tuple(range(7))),               # executes
        ]
        service.run_many(instances)
        assert cohort == [(5,) * 7, (5,) * 7]
        assert per_generation == [tuple(range(7))]

    def test_template_survives_across_batches(self, monkeypatch):
        per_generation, cohort = count_executions(monkeypatch)
        service = ConsensusService(RunSpec(n=7, l_bits=128))
        service.run_many([1, 2])
        service.run_many([3, 4])
        assert len(per_generation) + len(cohort) == 1

    def test_non_cohort_backend_template_runs_per_generation(
        self, monkeypatch
    ):
        # phase_king runs real broadcast rounds: the planner keeps its
        # template on the per-generation engine, clones still follow.
        per_generation, cohort = count_executions(monkeypatch)
        service = ConsensusService(
            RunSpec(n=4, l_bits=64, backend="phase_king")
        )
        service.run_many([7, 9, 13])
        assert (len(per_generation), cohort) == (1, [])

    def test_clone_meters_are_independent_copies(self):
        service = ConsensusService(RunSpec(n=4, l_bits=64))
        a, b = service.run_many([1, 2])
        assert a.meter == b.meter
        assert a.meter.bits_by_tag is not b.meter.bits_by_tag


class TestSpecs:
    def test_attack_name_normalized(self):
        assert RunSpec(n=7, l_bits=64, attack="Slow-Bleed").attack == (
            "slow_bleed"
        )
        assert InstanceSpec(inputs=(1,), attack="false-detect").attack == (
            "false_detect"
        )

    def test_make_config_matches_create(self):
        spec = RunSpec(n=7, l_bits=256, t=2, backend="phase_king")
        assert spec.make_config() == ConsensusConfig.create(
            n=7, l_bits=256, t=2, backend="phase_king"
        )

    def test_resolved_t_defaults_to_max(self):
        assert RunSpec(n=10, l_bits=64).resolved_t == 3
        assert RunSpec(n=10, l_bits=64, t=1).resolved_t == 1

    def test_instance_overrides(self):
        spec = RunSpec(n=7, l_bits=64, attack="crash", seed=1)
        resolved = InstanceSpec(
            inputs=(1,) * 7, attack="random", seed=9, faulty=(0, 1)
        ).resolve(spec)
        assert resolved.attack == "random"
        assert resolved.seed == 9
        assert resolved.faulty == (0, 1)
        inherited = InstanceSpec(inputs=(1,) * 7).resolve(spec)
        assert inherited is spec

    def test_specs_pickle(self):
        spec = RunSpec(n=7, l_bits=64, attack="slow_bleed")
        batch = (
            spec,
            tuple(InstanceSpec(inputs=(v,) * 7, seed=v) for v in (1, 2, 3)),
        )
        assert pickle.loads(pickle.dumps(batch)) == batch


class TestSubmitDrain:
    def test_tickets_and_order(self):
        service = ConsensusService(RunSpec(n=4, l_bits=32))
        tickets = [
            service.submit(0xAA),
            service.submit((1, 2, 3, 4)),
            service.submit(0xBB, attack="crash"),
        ]
        assert tickets == [0, 1, 2]
        assert service.pending == 3
        results = service.drain()
        assert service.pending == 0
        assert len(results) == 3
        assert results[0].value == 0xAA
        assert results[2].value == 0xBB
        # equality with the looped reference, adversarial entry included
        spec = RunSpec(n=4, l_bits=32)
        reference = looped_reference(spec, [
            InstanceSpec(inputs=(0xAA,) * 4),
            InstanceSpec(inputs=(1, 2, 3, 4)),
            InstanceSpec(inputs=(0xBB,) * 4, attack="crash"),
        ])
        assert results == reference

    def test_drain_empty(self):
        service = ConsensusService(RunSpec(n=4, l_bits=32))
        assert service.drain() == []


class TestServiceApi:
    def test_accepts_config_or_spec(self):
        config = ConsensusConfig.create(n=4, t=1, l_bits=32)
        by_config = ConsensusService(config).run(9)
        by_spec = ConsensusService(RunSpec(n=4, t=1, l_bits=32)).run(9)
        assert by_config == by_spec
        with pytest.raises(TypeError):
            ConsensusService("n=4")

    @pytest.mark.parametrize("toggle", ["vectorized", "batch_generations"])
    def test_spec_rejects_engine_toggle_keywords(self, toggle):
        # The engine toggles have one spelling, the RunSpec's fields:
        # the service takes them neither beside a spec nor beside a
        # config.
        spec = RunSpec(n=4, l_bits=32, **{toggle: False})
        config = ConsensusConfig.create(n=4, t=1, l_bits=32)
        for deployment in (spec, config):
            with pytest.raises(TypeError, match=toggle):
                ConsensusService(deployment, **{toggle: False})
        # reuse_results is not part of the spec and stays a keyword.
        service = ConsensusService(spec, reuse_results=False)
        assert service.spec is spec and not service.reuse_results
        assert getattr(ConsensusService(config).spec, toggle) is True
        assert service.run(9) == ConsensusService(config).run(9)

    def test_run_matches_one_shot(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=96)
        service = ConsensusService(config)
        reference = MultiValuedConsensus(
            ConsensusConfig.create(n=7, t=2, l_bits=96)
        ).run([0x5A] * 7)
        assert service.run(0x5A) == reference

    def test_run_with_adversary_object(self):
        from repro.processors import SlowBleedAdversary

        config = ConsensusConfig.create(n=7, t=2, l_bits=96)
        service = ConsensusService(config)
        result = service.run(0x5A, adversary=SlowBleedAdversary([0]))
        reference = MultiValuedConsensus(
            ConsensusConfig.create(n=7, t=2, l_bits=96),
            adversary=SlowBleedAdversary([0]),
        ).run([0x5A] * 7)
        assert result == reference

    def test_instance_spec_conflicts_with_overrides(self):
        service = ConsensusService(RunSpec(n=4, l_bits=16))
        with pytest.raises(ValueError, match="conflict"):
            service.run(InstanceSpec(inputs=(1,) * 4), attack="crash")

    def test_adversary_object_conflicts_with_overrides(self):
        from repro.processors import Adversary

        service = ConsensusService(RunSpec(n=4, l_bits=16))
        with pytest.raises(ValueError, match="conflict"):
            service.run(1, attack="crash", adversary=Adversary([]))

    def test_wrong_input_count(self):
        service = ConsensusService(RunSpec(n=4, l_bits=16))
        with pytest.raises(ValueError, match="carries 3 inputs for an n=4"):
            service.run((1, 2, 3))

    def test_oversized_value(self):
        service = ConsensusService(RunSpec(n=4, l_bits=16))
        with pytest.raises(ValueError, match="does not fit"):
            service.run(1 << 16)
        # the clone path validates identically
        service.run_many([1, 2])
        with pytest.raises(ValueError, match="does not fit"):
            service.run_many([1 << 16])


class TestValidation:
    """A request that can never run is refused where it enters, once
    (server admission: ``tests/test_serving.py::TestConsensusServer``,
    ``test_admission_refuses_with_the_same_message``)."""

    @pytest.mark.parametrize("_kind, bad, message", BAD_INSTANCES, ids=BAD_IDS)
    def test_submit_refuses_and_keeps_the_other_tickets(
        self, _kind, bad, message
    ):
        service = ConsensusService(RunSpec(n=4, l_bits=16))
        assert service.submit(7) == 0
        with pytest.raises(ValueError) as info:
            service.submit(**bad)
        assert message in str(info.value)
        assert service.submit(8) == 1
        assert service.pending == 2
        assert [r.value for r in service.drain()] == [7, 8]

    @pytest.mark.parametrize("_kind, bad, message", BAD_INSTANCES, ids=BAD_IDS)
    def test_run_many_refuses_before_executing_anything(
        self, monkeypatch, _kind, bad, message
    ):
        per_generation, cohort = count_executions(monkeypatch)
        service = ConsensusService(RunSpec(n=4, l_bits=16))
        with pytest.raises(ValueError) as info:
            service.run_many([1, service._coerce(**bad), 2])
        assert message in str(info.value)
        assert (per_generation, cohort) == ([], [])
        assert service._template is None

    @pytest.mark.parametrize("entry", ["run", "record"])
    @pytest.mark.parametrize("_kind, bad, message", BAD_INSTANCES, ids=BAD_IDS)
    def test_run_and_record_refuse_before_any_engine(
        self, monkeypatch, entry, _kind, bad, message
    ):
        """The one-shot doors refuse the same table with the same text,
        before an engine (and so any adversary hook) exists."""
        service = ConsensusService(RunSpec(n=4, l_bits=16))
        engines = []
        monkeypatch.setattr(
            service, "_make_engine", lambda *args, **kw: engines.append(args)
        )
        with pytest.raises(ValueError) as info:
            getattr(service, entry)(**bad)
        assert message in str(info.value)
        assert engines == []

    def test_a_bad_seed_or_input_fails_alone(self, monkeypatch):
        """A seed that is not an int fails its own admission, not its
        batch-mates' run; so does an input of ``True``."""
        per_generation, cohort = count_executions(monkeypatch)
        service = ConsensusService(RunSpec(n=7, l_bits=64, attack="random"))
        good = InstanceSpec(inputs=(5,) * 7, seed=1)
        for bad, message in (
            (InstanceSpec(inputs=(5,) * 7, seed="x"), "seed 'x' is not"),
            (InstanceSpec(inputs=(True,) * 7), "input value True is not"),
        ):
            with pytest.raises(ValueError, match=message):
                service.run_many([good, bad, good])
            assert (per_generation, cohort) == ([], [])
            assert service.submit(good) == 0
            with pytest.raises(ValueError, match=message):
                service.submit(bad)
            assert service.submit(good) == 1
            assert [r.value for r in service.drain()] == [5, 5]
            per_generation.clear()
            cohort.clear()


def test_the_batch_surface_has_no_knob():
    """A re-added executor knob, a second journalling door, or an export
    that names nothing, fails here rather than in review."""
    import repro
    import repro.service
    from repro.service.serving import ConsensusServer

    run_many = inspect.signature(ConsensusService.run_many).parameters
    assert list(run_many) == ["self", "instances"]
    assert run_many["instances"].default is inspect.Parameter.empty
    assert list(inspect.signature(ConsensusService.run).parameters) == [
        "self", "inputs", "attack", "seed", "faulty", "adversary",
    ]
    assert list(inspect.signature(ConsensusService.drain).parameters) == [
        "self"
    ]
    assert list(inspect.signature(ConsensusServer.__init__).parameters) == [
        "self", "spec", "window_ms", "max_batch", "max_queue",
    ]
    for module in (repro, repro.service):
        for name in module.__all__:
            assert hasattr(module, name), "%s.__all__ names %r" % (
                module.__name__, name,
            )


class TestExecutors:
    """Where a batch is cut does not show (``run_chunked``)."""

    def test_process_executor_more_shards_than_instances(self):
        # More chunks than instances: the surplus chunks are empty
        # batches on their own fresh services.
        spec = RunSpec(n=4, l_bits=32)
        results = run_chunked(spec, [1, 2], 8)
        assert results == ConsensusService(spec).run_many([1, 2])
        assert [r.value for r in results] == [1, 2]


def census(service):
    """``len()`` of every container reachable from ``service`` and its
    cohort contexts, summed by attribute path (``[]`` stands for any
    key or index, so two censuses compare whatever the keys are).
    Immutable deployment state is not walked: the spec, the config and
    the code tables (keyed by codeword position set, a property of
    ``(n, k)``, not of any instance)."""
    sizes = collections.Counter()
    seen = set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, dict):
            children = list(obj) + list(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            children = list(obj)
        elif type(obj).__module__.startswith("repro."):
            fields = dict(getattr(obj, "__dict__", {}))
            for cls in type(obj).__mro__:
                for name in getattr(cls, "__slots__", ()):
                    if hasattr(obj, name):
                        fields[name] = getattr(obj, name)
            for name, value in fields.items():
                if name not in ("spec", "config", "code"):
                    walk(value, "%s.%s" % (path, name))
            return
        else:
            return  # numbers, strings, arrays
        sizes[path] += len(obj)
        for child in children:
            walk(child, path + "[]")

    walk(service, "service")
    return sizes


#: The registry attacks the cohort engine takes (a fault plan attacks
#: the network itself, which keeps the run on the per-generation engine).
COHORT_ATTACKS = sorted(
    attack for attack in ATTACKS
    if getattr(
        RunSpec(n=7, l_bits=64, attack=attack).make_adversary(),
        "fault_plan", None,
    ) is None
)

#: Census paths of a cohort's pattern table and its two sub-tables.
PATTERNS = "service._cohorts[]._structs"
PATTERN_TABLES = (PATTERNS, PATTERNS + "[].plans", PATTERNS + "[].matches")


def split_inputs(spec, attack, value, other, faulty=None):
    """``value`` everywhere but at the last two honest processors of
    ``attack``'s faulty set (declared, or the attack's default), which
    hold ``other``: the honest processors split, so the instance runs
    on the per-generation lane."""
    if faulty is None:
        faulty = InstanceSpec(
            inputs=(0,) * spec.n, attack=attack
        ).resolve(spec).make_adversary().faulty
    inputs = [value] * spec.n
    for pid in [pid for pid in range(spec.n) if pid not in faulty][-2:]:
        inputs[pid] = other
    return tuple(inputs)


class TestRetention:
    """A deployment remembers shapes, not values: what a long-lived
    service retains does not grow with the instances it has served,
    every fresh value, fresh seed and fresh declared faulty set of them
    — split-input instances included, whose per-generation lane writes
    into the same keyed contexts — and forgetting never changes a
    result."""

    BATCH = 16

    def serve(self, services, spec, attack, batches, start, split=False):
        for batch in range(start, start + batches):
            instances = []
            for i in range(self.BATCH):
                index = self.BATCH * batch + i
                value = (0x9E3779B1 * (index + 1)) % (1 << spec.l_bits)
                inputs = (value,) * spec.n
                if split:  # the honest processors split, fresh too
                    inputs = split_inputs(spec, attack, value, (
                        0x7F4A7C15 * (index + 1)
                    ) % (1 << spec.l_bits))
                instances.append(InstanceSpec(
                    inputs=inputs, attack=attack, seed=index,
                ))
            first, *rest = [s.run_many(instances) for s in services]
            assert all(results == first for results in rest)

    @staticmethod
    def assert_bounded(services, before, after):
        """The pattern tables stay under the bound (an instance adds at
        most a structure, a plan and two match sets per generation), and
        everything else is flat."""
        ceiling = MAX_PATTERN_ENTRIES + 4 * services[0].config.generations
        for census_before, census_after in zip(before, after):
            assert sum(census_after[path] for path in PATTERN_TABLES) < (
                ceiling
            )
            assert {
                path: size for path, size in census_after.items()
                if not path.startswith(PATTERNS)
            } == {
                path: size for path, size in census_before.items()
                if not path.startswith(PATTERNS)
            }

    @pytest.mark.parametrize("n,l_bits,attack", [
        (7, 64, attack) for attack in COHORT_ATTACKS
    ] + [(31, 64, "random")])
    def test_retained_entries_do_not_grow(self, n, l_bits, attack):
        spec = RunSpec(n=n, l_bits=l_bits)
        services = [
            ConsensusService(spec),
            ConsensusService(spec, reuse_results=False),
        ]
        # Split-input instances on the per-generation lane, against the
        # forced-scalar service: their match keys say where two fresh
        # values' codewords coincide, a value in disguise, so their
        # pattern table is bounded, not flat.
        split_services = [ConsensusService(spec), ConsensusService(
            RunSpec(n=n, l_bits=l_bits, vectorized=False,
                    batch_generations=False),
        )]
        batches = 64 // self.BATCH
        self.serve(services, spec, attack, batches, 0)          # N
        self.serve(split_services, spec, attack, batches, 0, split=True)
        after_n = [census(service) for service in services]
        split_n = [census(service) for service in split_services]
        self.serve(services, spec, attack, 2 * batches, batches)  # 3N
        self.serve(
            split_services, spec, attack, 2 * batches, batches, split=True
        )
        after_3n = [census(service) for service in services]
        self.assert_bounded(
            split_services, split_n,
            [census(service) for service in split_services],
        )
        if attack != "random":
            assert after_3n == after_n
            return
        # A seeded attack's patterns never recur: the pattern table is
        # bounded instead.
        self.assert_bounded(services, after_n, after_3n)


    def test_fresh_declared_faulty_sets(self):
        # A declared faulty set is part of the cohort key: ever-fresh
        # ones leave at most MAX_COHORT_CONTEXTS contexts, and starting
        # the table over changes no result.
        bound = service_module.MAX_COHORT_CONTEXTS
        spec = RunSpec(n=13, l_bits=64)
        service = ConsensusService(spec)
        sets = itertools.islice(itertools.chain(
            itertools.combinations(range(13), 1),
            itertools.combinations(range(13), 2),
        ), bound + 9)
        instances = [
            InstanceSpec(
                inputs=split_inputs(spec, "corrupt", 0xBEEF, i, faulty)
                if i % 3 == 2 else (0xBEEF + i,) * 13,
                attack="corrupt", faulty=faulty,
            )
            for i, faulty in enumerate(sets)
        ]
        for start in range(0, len(instances), 8):
            chunk = instances[start:start + 8]
            results = service.run_many(chunk)
            assert 0 < len(service._cohorts) <= bound
            for instance, result in zip(chunk, results):
                effective = instance.resolve(spec)
                assert result == MultiValuedConsensus(
                    effective.make_config(),
                    adversary=effective.make_adversary(),
                ).run(list(instance.inputs))


class TestSharedContexts:
    """Every lane's engine runs on the service's keyed context, so a
    split-input instance reads the match sets its predecessors found."""

    @pytest.mark.parametrize("attack", ["none", "corrupt", "random"])
    def test_warm_split_batches_equal_fresh_forced_scalar(
        self, monkeypatch, attack
    ):
        # A small pattern bound makes the table start over inside the
        # batches (the spy sees a full table emptied).
        monkeypatch.setattr(batched_module, "MAX_PATTERN_ENTRIES", 2)
        resets = []
        forget = CohortContext.forget_if_full

        def spy(ctx):
            before = len(ctx._structs)
            forget(ctx)
            resets.append(before > 0 and not ctx._structs)

        monkeypatch.setattr(CohortContext, "forget_if_full", spy)
        per_generation, cohort = count_executions(monkeypatch)
        spec = RunSpec(n=7, l_bits=128, attack=attack)
        service = ConsensusService(spec)
        for batch in range(3):
            instances = [
                InstanceSpec(
                    inputs=split_inputs(
                        spec, attack, 0xA5A5 << (8 * i), 0x5A5A << (4 * i)
                    ),
                    seed=batch,
                )
                for i in range(4)
            ]
            results = service.run_many(instances)
            for instance, result in zip(instances, results):
                effective = instance.resolve(spec)
                expected = MultiValuedConsensus(
                    effective.make_config(),
                    adversary=effective.make_adversary(),
                    vectorized=False,
                    batch_generations=False,
                ).run(list(instance.inputs))
                assert result == expected
                assert result_to_wire(result) == result_to_wire(expected)
        assert len(per_generation) == 12 and not cohort
        assert len(service._cohorts) == 1 and any(resets)

    def test_a_mismatched_context_is_refused(self):
        config = ConsensusConfig.create(n=7, l_bits=64)
        context = CohortContext(
            config, config.make_code(), CrashAdversary([5, 6])
        )
        engine = MultiValuedConsensus(
            config, adversary=CrashAdversary([6, 5]), context=context
        )
        assert engine.context is context and engine.code is context.code
        for other_config, adversary in (
            (ConsensusConfig.create(n=7, l_bits=128), CrashAdversary([5, 6])),
            (config, CrashAdversary([4, 6])),  # another faulty set
            (config, Adversary([5, 6])),  # another hook profile
        ):
            with pytest.raises(ValueError, match="built for another"):
                MultiValuedConsensus(
                    other_config, adversary=adversary, context=context
                )

    def test_a_live_adversary_runs_on_the_services_code(self, monkeypatch):
        """A live adversary's context is private (no cohort key describes
        it), yet built on the service's code: its run builds no code."""
        config = ConsensusConfig.create(n=7, l_bits=64)
        service = ConsensusService(config)
        monkeypatch.setattr(
            ConsensusConfig, "make_code",
            lambda self: pytest.fail("a second code was built"),
        )
        inputs = [3, 3, 3, 3, 3, 9, 9]
        for adversary in (CrashAdversary([5, 6]), Adversary([5, 6])):
            result = service.run(inputs, adversary=adversary)
            expected = MultiValuedConsensus(
                config, adversary=type(adversary)([5, 6]),
                context=CohortContext(
                    config, service.code, type(adversary)([5, 6])
                ),
            ).run(inputs)
            assert result_to_wire(result) == result_to_wire(expected)
        assert not service._cohorts


@contextlib.contextmanager
def collector_off():
    """The cyclic garbage collector disabled for the block: what is
    freed inside it was freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


#: Five processors on one value, two on another: the per-generation lane.
SPLIT = (0xA5,) * 5 + (0x5A,) * 2


class TestFinishedEnginesAreAcyclic:
    """A finished engine is freed as soon as its owner lets go of it,
    not whenever the cycle collector next runs: the hooks' ``parts_of``
    and the backend's view provider are the engine's own bound methods
    until the run's shared epilogue drops them."""

    @pytest.mark.parametrize("inputs, attack", [
        (SPLIT, None), ((0xA5,) * 7, "crash"),
    ], ids=["per_generation", "cohort"])
    def test_service_engines(self, inputs, attack):
        service = ConsensusService(RunSpec(n=7, l_bits=64))
        engines = []
        make_engine = service._make_engine

        def remembering(*args, **kwargs):
            engine = make_engine(*args, **kwargs)
            engines.append(weakref.ref(engine))
            return engine

        service._make_engine = remembering
        with collector_off():
            results = service.run_many(
                [InstanceSpec(inputs=inputs, attack=attack)] * 2
            )
            assert all(result.error_free for result in results)
            assert len(engines) == 2
            assert [engine() for engine in engines] == [None, None]

    @pytest.mark.parametrize("inputs", [SPLIT, (0xA5,) * 7],
                             ids=["per_generation", "cohort"])
    def test_one_shot_engine(self, inputs):
        config = ConsensusConfig.create(n=7, l_bits=64)
        with collector_off():
            engine = MultiValuedConsensus(config)
            assert engine.run(list(inputs)).error_free
            finished = weakref.ref(engine)
            del engine
            assert finished() is None
