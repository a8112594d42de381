"""Cohort batching: mixed adversarial batches, byte for byte.

``run_many`` groups adversarial instances by attack shape
(:func:`repro.service.spec.cohort_key`) and runs each cohort through a
shared generation context — scatter buffers, M/Detected/Trust view
construction, clique-search inputs and diagnosis plans are built once
per shape.  The contract under test: cohort batching is
*observationally free*.  Per instance, the returned result must equal
the looped one-shot reference field for field, for every registered
attack, whatever the batch composition (interleaved attacks, duplicate
cohorts, singleton cohorts, differing seeds within one cohort) or the
places the batch is cut into chunks run by separate services.  The
**forced-scalar** half of the same contract is the path × attack × n
grid of ``tests/test_differential.py``.
"""

import pytest

from repro.core.consensus import MultiValuedConsensus
from repro.processors import ATTACKS
from repro.service import ConsensusService, InstanceSpec, RunSpec
from tests.conftest import run_chunked

#: The benchmark's mixed-workload cycle (honest + four attack shapes).
MIXED_CYCLE = ["none", "corrupt", "crash", "trust_poison", "random"]


def looped_reference(spec, instances):
    """One fresh deployment per instance — the byte-identity baseline."""
    results = []
    for instance in instances:
        run_spec = instance.resolve(spec)
        consensus = MultiValuedConsensus(
            run_spec.make_config(),
            adversary=run_spec.make_adversary(),
        )
        results.append(consensus.run(list(instance.inputs)))
    return results


def cohort_batch(spec, attack, values):
    """One attack shape exercised every way a cohort can vary:
    differing seeds within the cohort, a duplicate instance, and an
    interleaved honest (out-of-cohort) instance."""
    n = spec.n
    return [
        InstanceSpec(inputs=(values[0],) * n, attack=attack, seed=1),
        InstanceSpec(inputs=(values[1],) * n),
        InstanceSpec(inputs=(values[2],) * n, attack=attack, seed=5),
        InstanceSpec(inputs=(values[0],) * n, attack=attack, seed=1),
    ]


def interleaved_cycle(n, count, stride=2):
    """The benchmark's mixed cycle interleaved across ``count``
    instances: duplicate cohorts (each attack recurs), differing seeds
    within each cohort, plus one singleton-cohort straggler."""
    instances = [
        InstanceSpec(
            inputs=((0xC0FFEE * (idx + 1)) % (1 << 64),) * n,
            attack=MIXED_CYCLE[idx % len(MIXED_CYCLE)],
            seed=idx // stride,
        )
        for idx in range(count)
    ]
    instances.append(
        InstanceSpec(inputs=(0xD1CE,) * n, attack="slow_bleed", seed=9)
    )
    return instances


class TestEveryAttackCohorts:
    """Every registered attack, at every tier-1 n, cohort-batched (the
    forced-scalar half of each cell is ``tests/test_differential.py``'s
    ``[run_many-<attack>-<n>-*]``)."""

    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    @pytest.mark.parametrize("n,l_bits", [(4, 64), (7, 256), (31, 64)])
    def test_cohort_batch_vs_looped(self, attack, n, l_bits):
        spec = RunSpec(n=n, l_bits=l_bits)
        values = [(0x9D * (i + 1)) % (1 << l_bits) for i in range(3)]
        instances = cohort_batch(spec, attack, values)
        reference = looped_reference(spec, instances)
        results = ConsensusService(spec).run_many(instances)
        assert results == reference
        assert sum(r.total_bits for r in results) == sum(
            r.total_bits for r in reference
        )


class TestInterleavedExecutors:
    """The mixed cycle as one batch and cut into chunks, each chunk on
    its own service rebuilt from the pickled spec."""

    @pytest.mark.parametrize(
        "chunks", [1, 2, 5], ids=["serial", "process-2", "process-5"]
    )
    def test_mixed_cycle_byte_identical(self, chunks):
        spec = RunSpec(n=7, l_bits=256)
        instances = interleaved_cycle(7, 12)
        reference = looped_reference(spec, instances)
        assert run_chunked(spec, instances, chunks) == reference

    def test_n31_singleton_cohorts(self):
        # One instance per cycle attack: every cohort is a singleton,
        # whichever side of a chunk boundary it lands on.
        spec = RunSpec(n=31, l_bits=64)
        instances = [
            InstanceSpec(inputs=(0xACE + idx,) * 31, attack=attack, seed=idx)
            for idx, attack in enumerate(MIXED_CYCLE)
        ]
        reference = looped_reference(spec, instances)
        serial = ConsensusService(spec).run_many(instances)
        sharded = run_chunked(spec, instances, 2)
        assert serial == reference
        assert sharded == reference


class TestWarmService:
    """Cohort caches persist across batches; reruns must stay exact."""

    def test_warm_rerun_byte_identical(self):
        # The steady-state shape the service exists for: the same warm
        # long-lived service re-running a workload exercises the cached
        # cohort plans instead of rebuilding them — results must not
        # drift by a bit.
        spec = RunSpec(n=7, l_bits=256)
        instances = interleaved_cycle(7, 10)
        reference = looped_reference(spec, instances)
        service = ConsensusService(spec)
        first = service.run_many(instances)
        second = service.run_many(instances)
        third = service.run_many(instances)
        assert first == reference
        assert second == reference
        assert third == reference

    def test_cohort_contexts_grouped_by_shape(self):
        # The four adversarial cycle attacks form four cohorts, and
        # the honest instances' template run is the cohort of the empty
        # faulty set (every later honest instance is a clone).
        spec = RunSpec(n=7, l_bits=64)
        service = ConsensusService(spec)
        service.run_many(interleaved_cycle(7, 10))
        # 4 adversarial cycle shapes + slow_bleed + the failure-free one
        assert len(service._cohorts) == 6
