"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pickle

import pytest

from repro import ConsensusConfig, MultiValuedConsensus
from repro.core import invariants
from repro.processors import Adversary


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: takes seconds; deselect with -m 'not slow'"
    )
    config.addinivalue_line(
        "markers",
        "large_n: forced-scalar reference runs at n >= 127, a minute in "
        "all; run only when selected with -m large_n",
    )


def pytest_collection_modifyitems(config, items):
    """Leave the ``large_n`` rows out unless ``-m`` asks for them."""
    if "large_n" in config.option.markexpr:
        return
    large = [item for item in items if "large_n" in item.keywords]
    if large:
        config.hook.pytest_deselected(items=large)
        items[:] = [item for item in items if "large_n" not in item.keywords]


#: (n, t) pairs covering the t < n/3 envelope at several scales.
NT_PAIRS = [(4, 1), (5, 1), (7, 2), (10, 3), (13, 4)]


def run_consensus(n, t, l_bits, inputs, adversary=None, backend="ideal",
                  d_bits=None, **kwargs):
    """One-call consensus run used across the integration tests; the
    run is held to every claim of Theorem 1 (:mod:`repro.core.invariants`)."""
    config = ConsensusConfig.create(
        n=n, t=t, l_bits=l_bits, backend=backend, d_bits=d_bits, **kwargs
    )
    protocol = MultiValuedConsensus(config, adversary=adversary)
    return invariants.check(config, inputs, protocol.run(inputs))


def typed_rows(rows):
    """Journal rows in comparable form: each field as ``(type name,
    value)``, so ``1`` and ``True``, ``4`` and ``4.0`` differ as they do
    in a sealed transcript (``TranscriptEntry.matches_row``)."""
    return [
        tuple((type(field).__name__, field) for field in row)
        for row in rows
    ]


def send(net, sender, receiver, payload, bits, tag):
    """One edge on ``net``, as a one-edge batch."""
    net.send_many([sender], [receiver], [payload], bits=bits, tag=tag)


def inboxes(net):
    """End ``net``'s round: ``receiver -> [(sender, payload,
    round_index)]`` over the delivered batches, in delivery order."""
    received = {pid: [] for pid in range(net.n)}
    for batch in net.deliver_arrays().batches:
        for sender, receiver, payload in zip(
            batch.senders.tolist(), batch.receivers.tolist(),
            batch.payload_list(),
        ):
            received[receiver].append((sender, payload, batch.round_index))
    return received


def run_generation(protocol, parts, default_part):
    """One generation through ``GenerationProtocol.run`` (a stretch of
    one): ``parts[pid]`` is pid's part; returns the generation's
    record."""
    [result] = protocol.run(
        {pid: [part] for pid, part in parts.items()}, [default_part]
    )
    return result


#: The ways an instance can never run on RunSpec(n=4, l_bits=16), as
#: (kind, run/record/submit/run_many arguments, message) — the messages are the
#: server's ``invalid_request`` texts, byte for byte.
BAD_INSTANCES = [
    ("oversized", dict(inputs=1 << 20),
     "input value 0x100000 does not fit in l_bits=16"),
    ("wrong_length", dict(inputs=(1, 2, 3)),
     "instance carries 3 inputs for an n=4 deployment"),
    ("unknown_attack", dict(inputs=1, attack="nope"),
     "unknown attack 'nope' (choose from"),
    ("faulty_out_of_range", dict(inputs=1, attack="crash", faulty=(9,)),
     "faulty pid 9 is not a processor of an n=4 deployment"),
    ("faulty_over_t", dict(inputs=1, attack="crash", faulty=(0, 1)),
     "2 faulty processors, but the deployment tolerates t=1"),
    ("bool_seed", dict(inputs=1, attack="random", seed=True),
     "seed True is not an int"),
]
BAD_IDS = [kind for kind, _, _ in BAD_INSTANCES]


def run_chunked(spec, instances, chunks):
    """``instances`` cut into ``chunks`` contiguous slices, each slice a
    ``run_many`` on a *fresh* service rebuilt from the pickled spec and
    pickled instances — what a micro-batcher flush, the ``repro-sim
    serve`` child or a caller sharding by hand does.  Results, in
    instance order, must not depend on where the cuts fall or on which
    service object ran a slice (``chunks`` beyond ``len(instances)``
    leaves the surplus slices empty)."""
    from repro.service import ConsensusService

    bounds = [len(instances) * i // chunks for i in range(chunks + 1)]
    results = []
    for lo, hi in zip(bounds, bounds[1:]):
        service = ConsensusService(pickle.loads(pickle.dumps(spec)))
        results.extend(
            service.run_many(pickle.loads(pickle.dumps(instances[lo:hi])))
        )
    return results


@pytest.fixture
def honest_adversary():
    return Adversary()


class AuditedService:
    """A :class:`~repro.service.service.ConsensusService` wrapper whose
    every run is audited end to end: the run is recorded to an
    authenticated transcript, every tag is verified, and the recording
    is replayed on the forced-scalar reference engine with journal and
    result byte-identity asserted before the result is returned.

    Declarative instances only (attack/seed/faulty overrides) — live
    adversary objects cannot be replayed from a transcript.
    """

    def __init__(self, spec):
        from repro.service import ConsensusService

        self.service = ConsensusService(spec)
        self.spec = self.service.spec

    def run(self, inputs, **overrides):
        from repro.audit import replay

        result, transcript = self.service.record(inputs, **overrides)
        report = replay(transcript)
        assert report.verify.ok, report.verify.reason
        assert report.journal_match, report.first_journal_divergence
        assert report.divergence.identical, report.divergence.first
        return result


@pytest.fixture
def audited_service():
    """Factory fixture: ``audited_service(spec)`` builds a service that
    records, verifies and replay-checks every run it serves (see
    :class:`AuditedService`; adopted by ``tests/test_audit.py`` and
    available to any module that wants its runs certified)."""
    return AuditedService
