"""The differential harness: every execution path against one reference.

The repo's contract is that *how* an instance executes is unobservable:
the one-shot ``MultiValuedConsensus.run``, ``ConsensusService.run``,
``run_many`` (result cloning and the cohort lanes) and ``run_many`` with
``reuse_results=False`` must all return what the forced-scalar service
(``vectorized=False, batch_generations=False, reuse_results=False``)
returns — decisions, per-generation records, meter snapshot — and leave
the same round clock, backend instance counts and, when recording, the
same journal (a service records through ``record``, its one journalling
door, whatever the path's batching).  One grid checks that for every
registry attack (``none`` included) at n ∈ {4, 7, 31}, with and without
a journal; its ``large_n`` rows (n = 127 and 255, a minute of
forced-scalar reference, selected only by ``-m large_n`` — the CI
``fault-grid`` job) hold the one-shot path to the same reference where
the lanes are packed.

The instance under test is always the *second* of its batch, behind a
same-shape instance with another value: on the ``run_many`` path that
makes a failure-free instance a clone of the first's template and an
adversarial one a run through an already warm cohort.
"""

import functools
import random
from collections import Counter

import pytest

from repro.audit import Transcript
from repro.coding.interleaved import InterleavedCode
from repro.coding.reed_solomon import ReedSolomonCode
from repro.core import batched as batched_module
from repro.core import invariants
from repro.core import rounds as rounds_module
from repro.core.consensus import MultiValuedConsensus
from repro.core.result import GenerationOutcome
from repro.faults.plan import FaultPlan, FaultRule
from repro.processors import ATTACKS, FAULT_GRID_ATTACKS, make_attack
from repro.processors.adversary import Adversary
from repro.processors.answers import ALL_FALSE, m_row_bits
from repro.processors.byzantine import RandomAdversary
from repro.service import ConsensusService, InstanceSpec, RunSpec
from repro.service import cohort as cohort_module
from repro.service import engine as engine_module
from repro.service import service as service_module
from repro.service.serving.wire import result_to_wire
from tests.conftest import typed_rows

SIZES = {4: 64, 7: 256, 31: 64}
PATHS = ["one_shot", "service_run", "run_many", "run_many_no_reuse"]


#: The split-input rows, by how many processors beyond ``t`` hold the
#: second value: with ``t`` of them the ``n - t`` others still match
#: and the checking stage decides every generation; with ``t + 1`` no
#: match set exists and generation 0 decides the default.
SPLITS = {"decides": 0, "defaults": 1}


def instances_for(attack, n, split=0):
    """The warm-up instance and the instance under test: every processor
    on one value, or pids ``1 .. split`` on a second one (pid 0 keeps
    the first, so a low or a high faulty set leaves honest processors
    on both)."""
    l_bits = SIZES[n]
    instances = []
    for i in range(2):
        value = (0xB5 * (13 * n + i + 1)) % (1 << l_bits)
        other = (0x5B * (17 * n + i + 1)) % (1 << l_bits)
        instances.append(InstanceSpec(
            inputs=tuple(
                other if 1 <= pid <= split else value for pid in range(n)
            ),
            attack=attack,
            seed=i + 1,
        ))
    return instances


class Observed:
    """What one execution left behind, in comparable form."""

    def __init__(self, result, engine=None, transcript=None):
        self.result = result
        #: The result as it crosses the wire and is sealed: unlike
        #: ``MeterSnapshot ==``, it sees the meter's tag order.
        self.wire = result_to_wire(result)
        #: (round clock, backend instances, backend bits charged); a
        #: cloned instance has no engine, hence no clocks to compare.
        self.clocks = None if engine is None else (
            engine.network.round_index,
            engine.backend.stats.instances,
            engine.backend.stats.bits_charged,
        )
        #: The journal in wire form, without the (spec-bound) HMACs,
        #: each field tagged with its type.
        self.journal = None if transcript is None else typed_rows(
            (e.round_index, e.sender, e.receiver, e.tag, e.bits, e.payload)
            for e in transcript.entries
        )


def capture_engines(service):
    """Make ``service`` remember every per-instance engine it builds."""
    engines = []
    make_engine = service._make_engine

    def remembering(*args, **kwargs):
        engines.append(make_engine(*args, **kwargs))
        return engines[-1]

    service._make_engine = remembering
    return engines


def run_service(spec, instances, journal, batch, reuse_results=True):
    """The instance under test through a service: ``run_many`` over the
    batch, or ``run`` instance by instance; journalled, ``record``
    instance by instance (the service's one journalling door)."""
    service = ConsensusService(spec, reuse_results=reuse_results)
    engines = capture_engines(service)
    transcript = None
    if journal:
        results = []
        for instance in instances:
            result, transcript = service.record(instance)
            results.append(result)
    elif batch:
        results = service.run_many(instances)
    else:
        results = [service.run(instance) for instance in instances]
    # A clone builds no engine: with one engine fewer than instances,
    # the instance under test (the last) was priced, not executed.
    engine = engines[-1] if len(engines) == len(instances) else None
    return Observed(results[-1], engine, transcript)


@functools.lru_cache(maxsize=None)
def reference(attack, n, split=0):
    """The forced-scalar service's execution, journal always on."""
    spec = RunSpec(
        n=n, l_bits=SIZES[n], vectorized=False, batch_generations=False
    )
    return run_service(
        spec, instances_for(attack, n, split), journal=True, batch=False,
        reuse_results=False,
    )


def observe(path, attack, n, journal, split=0):
    spec = RunSpec(n=n, l_bits=SIZES[n])
    instances = instances_for(attack, n, split)
    if path == "one_shot":
        instance = instances[-1]
        effective = instance.resolve(spec)
        engine = MultiValuedConsensus(
            effective.make_config(),
            adversary=effective.make_adversary(),
            journal=journal,
        )
        result = engine.run(list(instance.inputs))
        transcript = Transcript.record(
            spec, instance, engine.network.journal, result
        ) if journal else None
        return Observed(result, engine, transcript)
    return run_service(
        spec, instances, journal,
        batch=path != "service_run",
        reuse_results=path != "run_many_no_reuse",
    )


@pytest.mark.parametrize("journal", [False, True], ids=["plain", "journal"])
@pytest.mark.parametrize("n", sorted(SIZES))
@pytest.mark.parametrize("attack", sorted(ATTACKS))
@pytest.mark.parametrize("path", PATHS)
def test_path_equals_forced_scalar_reference(path, attack, n, journal):
    expected = reference(attack, n)
    observed = observe(path, attack, n, journal)
    assert observed.result == expected.result
    assert observed.wire == expected.wire
    if observed.clocks is not None:
        assert observed.clocks == expected.clocks
    if journal:
        assert observed.journal == expected.journal


@pytest.mark.parametrize("journal", [False, True], ids=["plain", "journal"])
@pytest.mark.parametrize("n", sorted(SIZES))
@pytest.mark.parametrize("attack", ("none",) + FAULT_GRID_ATTACKS)
@pytest.mark.parametrize("path", ["one_shot", "run_many"])
@pytest.mark.parametrize("split", sorted(SPLITS))
def test_split_inputs_equal_forced_scalar_reference(
    split, path, attack, n, journal
):
    """Honest processors on two values — the per-generation engine's
    own traffic: the checking stage deciding every generation over
    outsiders that hold the other value, or generation 0 finding no
    match set and deciding the default."""
    holders = RunSpec(n=n, l_bits=SIZES[n]).make_config().t + SPLITS[split]
    expected = reference(attack, n, holders)
    if attack == "none":
        assert expected.result.default_used == (split == "defaults")
    observed = observe(path, attack, n, journal, holders)
    assert observed.result == expected.result
    assert observed.wire == expected.wire
    assert observed.clocks == expected.clocks
    if journal:
        assert observed.journal == expected.journal


@pytest.mark.parametrize("n", sorted(SIZES))
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_reference_holds_theorem_1(attack, n):
    """What every cell above is equal to keeps every claim of Theorem 1
    (:mod:`repro.core.invariants`), for every registry attack."""
    invariants.check(
        RunSpec(n=n, l_bits=SIZES[n]).make_config(),
        instances_for(attack, n)[-1].inputs, reference(attack, n).result,
    )


def test_journal_rows_compare_by_type():
    """What the grid's journal comparisons see: rows equal under ``==``
    but journalling a float or a bool where the other has an int are
    told apart."""
    exact, loose = (3, 1, 2, "t", 4, 1), (3.0, 1, 2, "t", 4.0, True)
    assert exact == loose
    assert typed_rows([exact]) != typed_rows([loose])
    assert typed_rows([exact]) == typed_rows([exact])


def test_grid_reaches_every_lane(monkeypatch):
    """The grid above is only as good as its routing: the honest
    second-of-batch instance must be a clone, an adversarial instance a
    cohort run on every path (``run_many``, ``service.run`` and the
    one-shot alike: a single instance is a cohort of one), an instance
    under a fault plan an ``execute_consensus`` run (on the scalar
    reference), and a recorded run never enters the cohort whatever path
    asks for it."""
    calls = {"execute_consensus": 0, "run_cohort_instance": 0}
    # The service binds both engines by name; the one-shot dispatch
    # looks them up in their home modules at call time.
    homes = {
        "execute_consensus": (service_module, engine_module),
        "run_cohort_instance": (service_module, cohort_module),
    }
    for name, modules in homes.items():
        original = getattr(modules[0], name)

        def spy(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            monkeypatch.setattr(module, name, spy)

    def lanes(*args, **kwargs):
        calls.update(execute_consensus=0, run_cohort_instance=0)
        observed = observe(*args, **kwargs)
        return (
            calls["execute_consensus"], calls["run_cohort_instance"],
            observed.clocks is None,
        )

    # (per-generation runs, cohort runs, instance under test cloned)
    assert lanes("run_many", "none", 7, False) == (0, 1, True)
    assert lanes("run_many", "none", 7, True) == (2, 0, False)
    assert lanes("run_many_no_reuse", "none", 7, False) == (0, 2, False)
    assert lanes("run_many", "crash", 7, False) == (0, 2, False)
    assert lanes("run_many", "crash", 7, True) == (2, 0, False)
    assert lanes("run_many", "omit_rounds", 7, False) == (2, 0, False)
    assert lanes("service_run", "none", 7, False) == (0, 2, False)
    assert lanes("service_run", "crash", 7, False) == (0, 2, False)
    assert lanes("service_run", "crash", 7, True) == (2, 0, False)
    assert lanes("service_run", "none", 7, True) == (2, 0, False)
    assert lanes("one_shot", "none", 7, False) == (0, 1, False)
    assert lanes("one_shot", "none", 7, True) == (1, 0, False)
    assert lanes("one_shot", "crash", 7, False) == (0, 1, False)
    assert lanes("one_shot", "crash", 7, True) == (1, 0, False)
    assert lanes("one_shot", "omit_rounds", 7, False) == (1, 0, False)


@pytest.fixture
def encodes(monkeypatch):
    """Every ``encode_generations`` call made while the test runs."""
    calls = []
    for cls in (ReedSolomonCode, InterleavedCode):
        original = cls.encode_generations

        def spy(self, parts, _original=original):
            calls.append(len(parts))
            return _original(self, parts)

        monkeypatch.setattr(cls, "encode_generations", spy)
    return calls


class TestFailureFreeRunsNeverEncode:
    """A failure-free run on the ideal backend inspects no payload, so
    whichever path executes it makes zero ``encode_generations`` calls
    (what keeps L = 2^19 and beyond cheap)."""

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("n", sorted(SIZES))
    def test_zero_whole_run_encodes(self, encodes, path, n):
        observed = observe(path, "none", n, journal=False)
        assert observed.result == reference("none", n).result
        assert observed.wire == reference("none", n).wire
        assert encodes == []

    def test_wide_symbol_one_shot(self, encodes):
        # L = 2^19 at n = 7: the interleaved wide-symbol code.
        from repro.core.config import ConsensusConfig

        config = ConsensusConfig.create(n=7, l_bits=1 << 19)
        value = (1 << (1 << 19)) - 0xC0FFEE
        result = MultiValuedConsensus(config).run([value] * 7)
        assert result.error_free and result.value == value
        assert result.total_bits == 8834070
        assert encodes == []


class TestPerRunWorkIsDoneOnce:
    """Counts, not timings: the per-generation engine does its per-run
    work once a run and its per-stretch work once a stretch.  An
    instance whose honest inputs differ runs generation 0 and then one
    stretch (two ``GenerationProtocol.run`` calls), encodes each
    distinct value's whole run in one ``encode_generations`` call once
    generation 0 has not defaulted, searches each distinct M pattern's
    clique once, checks the outsiders' symbols with one batched
    ``codeword_through_many`` per window of a stretch, decides line 2(c) off the
    codeword classes (no ``decode_subset``) and, under the ideal
    backend, prices its fault-free M and Detected broadcasts (no
    ``broadcast_bits_many``)."""

    @staticmethod
    def run_counted(monkeypatch, inputs):
        """One-shot run of ``inputs`` at n = 7, L = 2^12: its result
        and how often the counted calls were made."""
        from repro.core import generation as generation_module
        from repro.core.config import ConsensusConfig

        counts = dict.fromkeys(
            ("run", "find_clique_matrix", "codeword_through_many",
             "decode_subset", "broadcast_bits_many"), 0
        )

        def counted(name, original):
            def spy(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return spy

        # The generation body looks the clique search up in its own
        # module.
        monkeypatch.setattr(
            batched_module, "find_clique_matrix", counted(
                "find_clique_matrix", batched_module.find_clique_matrix
            ),
        )
        for cls in (ReedSolomonCode, InterleavedCode):
            monkeypatch.setattr(cls, "decode_subset", counted(
                "decode_subset", cls.decode_subset
            ))
        for cls, name in (
            (generation_module.GenerationProtocol, "run"),
            (ReedSolomonCode, "codeword_through_many"),
        ):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
        engine = MultiValuedConsensus(
            ConsensusConfig.create(n=7, l_bits=1 << 12)
        )
        engine.backend.broadcast_bits_many = counted(
            "broadcast_bits_many", engine.backend.broadcast_bits_many
        )
        return engine.run(list(inputs)), counts

    def test_split_instance(self, monkeypatch, encodes):
        # Random values: their parts differ in every generation, so the
        # whole run shows one M pattern.
        rng = random.Random(25)
        a, b = rng.getrandbits(1 << 12), rng.getrandbits(1 << 12)
        result, counts = self.run_counted(monkeypatch, [a] * 5 + [b] * 2)
        generations = len(result.generation_results)
        assert generations > 2 and result.value == a
        assert all(
            record.outcome is GenerationOutcome.DECIDED_CHECKING
            for record in result.generation_results
        )
        assert encodes == [generations, generations]  # a's run, b's run
        # One consistency check for generation 0, one per window of the
        # stretch of 30 that follows (1, 1, 2, 4, 8 and 14 generations).
        assert counts == {
            "run": 2, "find_clique_matrix": 1, "codeword_through_many": 7,
            "decode_subset": 0, "broadcast_bits_many": 0,
        }

    def test_all_distinct_instance_encodes_generation_0_only(
        self, monkeypatch, encodes
    ):
        rng = random.Random(26)
        result, counts = self.run_counted(
            monkeypatch, [rng.getrandbits(1 << 12) for _ in range(7)]
        )
        assert result.default_used
        assert len(result.generation_results) == 1
        assert encodes == []
        assert counts == {
            "run": 1, "find_clique_matrix": 1, "codeword_through_many": 0,
            "decode_subset": 0, "broadcast_bits_many": 0,
        }


def engine_runs(inputs, make_adversary=lambda: None, l_bits=256, n=7,
                d_bits=None, batch_generations=False):
    """One instance on the default engines (the per-generation one
    unless ``batch_generations``) and on the forced-scalar reference,
    journalling both: ``(observed, expected)``."""
    from repro.core.config import ConsensusConfig

    config = ConsensusConfig.create(n=n, l_bits=l_bits, d_bits=d_bits)
    runs = []
    for toggles in ({"batch_generations": batch_generations},
                    {"batch_generations": False, "vectorized": False}):
        engine = MultiValuedConsensus(
            config, adversary=make_adversary(), journal=True, **toggles
        )
        observed = Observed(engine.run(list(inputs)), engine)
        observed.journal = typed_rows(engine.network.journal)
        #: The installed fault schedule, if the adversary carries a plan.
        observed.faults = engine.network.fault_schedule
        runs.append(observed)
    return runs


def assert_same_execution(observed, expected):
    assert observed.result == expected.result
    assert observed.wire == expected.wire
    assert observed.clocks == expected.clocks
    assert observed.journal == expected.journal


class TestStretchBoundaries:
    """Where a stretch of the per-generation engine ends, or where one
    generation inside it departs from the stretch's honest prediction,
    the run still equals the forced-scalar reference: result, wire form
    (meter tag order included), clocks and journal."""

    @staticmethod
    def split_sharing_parts(shared, l_bits=256, d_bits=None):
        """Two values whose parts agree exactly in the generations
        ``shared`` (n = 7, L = 256: eight generations)."""
        from repro.core.config import ConsensusConfig

        engine = MultiValuedConsensus(
            ConsensusConfig.create(n=7, l_bits=l_bits, d_bits=d_bits)
        )
        rng = random.Random(35)
        a = rng.getrandbits(l_bits)
        parts = [list(part) for part in engine.parts_of(a)]
        for g, part in enumerate(parts[:-1]):
            if g not in shared:
                part[0] ^= 1
        return a, engine.value_of(parts)

    def test_match_set_changes_inside_a_stretch(self):
        # b on the low pids: a generation where the values share parts
        # matches all seven, P_match (0, .., 4); elsewhere the a-holders
        # (2, .., 6) match alone.
        a, b = self.split_sharing_parts({1, 2, 5})
        observed, expected = engine_runs([b] * 2 + [a] * 5)
        assert_same_execution(observed, expected)
        p_matches = [r.p_match for r in observed.result.generation_results]
        assert p_matches[1] == p_matches[2] == p_matches[5] == (0, 1, 2, 3, 4)
        assert p_matches[3] == (2, 3, 4, 5, 6)
        assert observed.result.diagnosis_count == 0

    @pytest.mark.parametrize("faulty, rules, diagnosed", [
        # A faulty receiver: an honest edge omitted in round 3 and one
        # delayed from round 5 into 6 are found by pid 6 and diagnosed.
        ((6,), (
            FaultRule(kind="omit", senders=frozenset({0}),
                      receivers=frozenset({6}), rounds=(3, 4)),
            FaultRule(kind="delay", senders=frozenset({2}),
                      receivers=frozenset({6}), rounds=(5, 6)),
        ), [3, 5]),
        # No faulty processor: a duplicated honest edge in round 2 and a
        # delayed one in round 4 that lands after the run's last round.
        ((), (
            FaultRule(kind="duplicate", senders=frozenset({1}),
                      receivers=frozenset({4}), rounds=(2, 3)),
            FaultRule(kind="delay", senders=frozenset({3}),
                      receivers=frozenset({0}), rounds=(4, 5), delay=9),
        ), []),
        # No faulty processor: an outsider misses a match member's
        # symbol in round 4, mid-stretch, and the generation diagnoses.
        ((), (
            FaultRule(kind="omit", senders=frozenset({1}),
                      receivers=frozenset({5}), rounds=(4, 5)),
        ), [4]),
    ], ids=["omit-delay", "duplicate-late", "omit-outsider"])
    @pytest.mark.parametrize("split", [False, True], ids=["equal", "split"])
    def test_fault_plan_firing_mid_run(self, faulty, rules, diagnosed, split):
        """A default-toggle run under a fault plan firing mid-run equals
        the forced-scalar run.  A fault plan takes the scalar reference
        whatever the toggles, so these cells reach no stretch: they
        guard the planner's choice and the schedule's replay."""
        from repro.core.config import ConsensusConfig
        from repro.core.planner import Lane, plan_lane
        from repro.faults.attacks import FaultPlanAdversary

        a, b = 0x5A5A << 200, 0xC3C3 << 100
        inputs = [a] * 5 + [b if split else a] * 2

        def adversary():
            return FaultPlanAdversary(faulty, FaultPlan(rules=rules, seed=3))

        assert plan_lane(
            ConsensusConfig.create(n=7, l_bits=256), True, False,
            adversary(), inputs, journal=True,
        ) is Lane.REFERENCE
        observed, expected = engine_runs(inputs, adversary)
        assert_same_execution(observed, expected)
        # The plan fired: neither run passes vacuously.
        assert observed.faults.events
        assert observed.faults.event_log() == expected.faults.event_log()
        assert observed.result.error_free
        assert [
            r.generation for r in observed.result.generation_results
            if r.diagnosis_performed
        ] == diagnosed

    def test_controlled_m_rows_change_the_match_set_inside_a_stretch(self):
        # A controlled M row read back from the broadcast alternates the
        # match set generation by generation (AlternatingMRows, below).
        value = random.Random(10).getrandbits(512)
        observed, expected = engine_runs(
            [value] * 10, lambda: AlternatingMRows(range(3)),
            l_bits=512, n=10,
        )
        assert_same_execution(observed, expected)
        records = observed.result.generation_results
        assert observed.result.diagnosis_count == 0
        assert len({r.p_match for r in records}) == 2

    @pytest.mark.parametrize("attack", [None, "corrupt"])
    def test_a_stretch_in_windows(self, monkeypatch, attack):
        """A stretch's array work runs in windows of generations, each
        as long as the stretch has run so far (1, 1, 2, 4, ...), its
        walk crossing from one to the next."""
        sent = rounds_module._SentRound
        window = sent._window
        windows = []

        def spy(self, run, struct, start, stop):
            windows.append((start, stop))
            return window(self, run, struct, start, stop)

        monkeypatch.setattr(sent, "_window", spy)
        a, b = self.split_sharing_parts({1, 2, 5})
        observed, expected = engine_runs(
            [b] * 2 + [a] * 5,
            lambda: make_attack(attack, 7, 2, 256, seed=4) if attack else None,
        )
        assert_same_execution(observed, expected)
        assert len(observed.result.generation_results) == 8
        assert all(stop == min(stop, max(1, 2 * start))
                   for start, stop in windows)
        if attack is None:
            # Generation 0, then one stretch of seven.
            assert windows == [(0, 1), (0, 1), (1, 2), (2, 4), (4, 7)]

    def test_recorded_split_run(self):
        a, b = self.split_sharing_parts({0, 4})
        instance = InstanceSpec(inputs=(a,) * 5 + (b,) * 2)
        recorded = []
        for toggles in ({}, {"vectorized": False,
                             "batch_generations": False}):
            service = ConsensusService(
                RunSpec(n=7, l_bits=256, **toggles), reuse_results=False
            )
            engines = capture_engines(service)
            result, transcript = service.record(instance)
            observed = Observed(result, engines[-1], transcript)
            recorded.append(observed)
        assert_same_execution(*recorded)

    @pytest.mark.parametrize("attack", FAULT_GRID_ATTACKS)
    def test_diagnosis_ends_a_stretch_mid_run(self, attack):
        from repro.core.config import ConsensusConfig

        config = ConsensusConfig.create(n=7, l_bits=1024)
        value = random.Random(7).getrandbits(1024)
        observed, expected = engine_runs(
            [value] * 7,
            lambda: make_attack(attack, 7, config.t, 1024, seed=5),
            l_bits=1024,
        )
        assert_same_execution(observed, expected)
        records = observed.result.generation_results
        assert observed.result.error_free
        # A crashed sender is silent: its stretch is the whole run.
        assert attack == "crash" or any(
            r.diagnosis_performed for r in records[:-1]
        ), "no diagnosis before the last generation"

    @pytest.mark.parametrize("attack", [None, "corrupt", "one-victim"])
    @pytest.mark.parametrize("symbol_bits", [40, 70], ids=["int64", "object"])
    def test_wide_symbols(self, symbol_bits, attack):
        """Symbols wider than 16 bits run an interleaved code, whose
        ``consistent_rows`` decides the outsiders' flags; past 62 bits
        the stretch's blocks are object arrays.  Under ``one-victim``
        pid 6 corrupts what it sends to outsider 0 alone, so one batched
        check holds a failing row beside a passing one (outsider 1's)."""
        from repro.core.config import ConsensusConfig
        from repro.processors import SymbolCorruptionAdversary

        l_bits, d_bits = 1024, 3 * symbol_bits
        a, b = self.split_sharing_parts({1, 3}, l_bits, d_bits)

        def adversary():
            if attack == "one-victim":
                return SymbolCorruptionAdversary(faulty=[6], victims={6: [0]})
            return make_attack(attack, 7, 2, l_bits, seed=6) if attack else None

        observed, expected = engine_runs(
            [b] * 2 + [a] * 5, adversary, l_bits=l_bits, d_bits=d_bits,
        )
        assert_same_execution(observed, expected)
        assert isinstance(
            ConsensusConfig.create(n=7, l_bits=l_bits, d_bits=d_bits)
            .make_code(),
            InterleavedCode,
        )
        records = observed.result.generation_results
        assert observed.result.error_free and len(records) > 4

    @pytest.mark.parametrize("batch_generations", [True, False],
                             ids=["batched", "per-generation"])
    @pytest.mark.parametrize("case", ["distinct", "last-generation"])
    def test_lane_inputs_against_the_reference(self, case, batch_generations):
        """The inputs of ``TestCrossGenerationBatchingEquivalence``'s
        two differing-input rows (``test_batched_network.py``), with
        and without cross-generation batching, against the
        forced-scalar reference: seven distinct values, and one value
        whose last generation differs on one processor."""
        if case == "distinct":
            rng = random.Random(22)
            l_bits = 512
            inputs = [rng.getrandbits(l_bits) for _ in range(7)]
        else:
            rng = random.Random(23)
            l_bits = 1024
            base = rng.getrandbits(l_bits)
            inputs = [base] * 6 + [base ^ 1]
        observed, expected = engine_runs(
            inputs, l_bits=l_bits, batch_generations=batch_generations
        )
        assert_same_execution(observed, expected)

    @pytest.mark.parametrize("values", [3, 4, 7])
    def test_distinct_inputs_default_at_generation_0(self, values):
        rng = random.Random(values)
        pool = [rng.getrandbits(256) for _ in range(values)]
        inputs = [pool[pid % values] for pid in range(7)]
        observed, expected = engine_runs(inputs)
        assert_same_execution(observed, expected)
        assert observed.result.default_used
        assert len(observed.result.generation_results) == 1


def test_journalled_failure_free_run_goes_through_the_empty_cohort(
    monkeypatch,
):
    """The id is kept for the test floor; what it pins is the opposite
    of its name: recording takes even a failure-free run off the cohort
    (whose symbol rounds are ``charge_round`` accounting a journal
    cannot observe) and onto the per-generation engine, and the journal
    is the forced-scalar reference's."""
    entered = []
    monkeypatch.setattr(
        cohort_module, "run_cohort_instance",
        lambda *args: entered.append(args),
    )
    monkeypatch.setattr(
        service_module, "run_cohort_instance",
        lambda *args: entered.append(args),
    )
    for path in PATHS:
        observed = observe(path, "none", 7, journal=True)
        assert observed.journal, "the journal recorded nothing"
        assert observed.journal == reference("none", 7).journal
    assert entered == []


#: The adversary hooks either engine can fire on this grid's backend.
HOOKS = (
    "input_value", "matching_row", "m_row", "detected_flag",
    "ideal_broadcast_bit",
)


def plan_count(ctx):
    """Entries in a cohort's plan table (one sub-table per graph
    state)."""
    return sum(len(struct.plans) for struct in ctx._structs.values())


def test_plan_memo(monkeypatch, encodes):
    """The plan is what the one step memoizes: a crashed sender's
    second generation and a second same-shape instance add no entry to
    the cohort's plan table, the adversary's hooks fire in the order
    (and with the arguments) the forced-scalar engine fires them — one
    ``matching_row`` per live faulty sender and one ``m_row`` per
    controlled pid, each with equal answers — and a failure-free run
    still encodes nothing."""
    n, l_bits = 7, 256
    spec = RunSpec(n=n, l_bits=l_bits, attack="crash")
    instances = instances_for("crash", n)

    def hook_log(service):
        """Record every hook call of every adversary ``service`` makes,
        per instance; an M hook's entry ends with the bits its answer
        broadcasts."""
        logs = []
        make_engine = service._make_engine

        def logging_engine(adversary, *args, **kwargs):
            log = []
            logs.append(log)
            for name in HOOKS:
                original = getattr(adversary, name)

                def spy(pid, *rest, _name=name, _original=original):
                    # The trailing argument is the view snapshot; the
                    # entry takes its place in call order.
                    at = len(log)
                    log.append(None)
                    answer = _original(pid, *rest)
                    log[at] = (_name, pid) + rest[:-1]
                    if _name == "m_row":
                        log[at] += (m_row_bits(answer, pid, n),)
                    return answer

                setattr(adversary, name, spy)
            return make_engine(adversary, *args, **kwargs)

        service._make_engine = logging_engine
        return logs

    scalar = ConsensusService(
        RunSpec(n=n, l_bits=l_bits, attack="crash", vectorized=False,
                batch_generations=False),
        reuse_results=False,
    )
    scalar_logs = hook_log(scalar)
    expected = [scalar.run(instance) for instance in instances]

    service = ConsensusService(spec)
    logs = hook_log(service)
    sizes = []
    original_step = batched_module._InstanceRun.step

    def counting_step(run, g):
        result = original_step(run, g)
        sizes.append(plan_count(run.ctx))
        return result

    monkeypatch.setattr(batched_module._InstanceRun, "step", counting_step)
    assert service.run_many(instances) == expected
    [ctx] = service._cohorts.values()
    generations = len(expected[0].generation_results)
    assert generations > 2 and len(sizes) == 2 * generations
    # The first generation builds the silent pattern's plan; every later
    # generation and the whole second instance look it up.
    assert sizes == [1] * (2 * generations)
    [struct] = ctx._structs.values()  # silence convicts nobody
    # Its key says who fell silent, not to whom: no exception pairs.
    [(silent, exceptions)] = struct.plans
    assert silent == tuple(sorted(spec.make_adversary().faulty))
    assert exceptions == ()
    # Base hooks the crash attack does not override are elided (that is
    # unobservable), so compare the overridden ones.
    overridden = {
        name for name in HOOKS
        if getattr(type(spec.make_adversary()), name)
        is not getattr(Adversary, name)
    }
    assert {"matching_row", "m_row"} <= overridden

    def fired(log):
        return [call for call in log if call[0] in overridden]

    for log, scalar_log in zip(logs, scalar_logs):
        assert fired(log) == fired(scalar_log)
        # Each live faulty sender and each controlled pid was asked once
        # a generation, in row form.
        for row_hook in ("matching_row", "m_row"):
            assert sum(call[0] == row_hook for call in log) == (
                len(silent) * generations
            )

    # The failure-free cohort: one plan (the empty pattern), no encode.
    del encodes[:]  # the crash cohort above did encode
    honest = ConsensusService(RunSpec(n=n, l_bits=l_bits), reuse_results=False)
    results = honest.run_many([1, 2, 3])
    assert [r.value for r in results] == [1, 2, 3]
    [ctx] = honest._cohorts.values()
    assert plan_count(ctx) == 1
    assert encodes == []


class LoggingRandomAdversary(RandomAdversary):
    """A live adversary no registry name describes: the seeded chaos
    monkey (every answer drawn by key from its arguments) logging each
    call's name and arguments."""

    def __init__(self, faulty, seed, rate):
        super().__init__(faulty, seed, rate)
        self.log = []


def _logged(name):
    def hook(self, *args):
        # Mutable arguments (M rows, trust dicts) are snapshotted; the
        # trailing argument is the view.
        self.log.append((name,) + tuple(
            tuple(sorted(arg.items())) if isinstance(arg, dict)
            else tuple(arg) if isinstance(arg, list) else arg
            for arg in args[:-1]
        ))
        return getattr(RandomAdversary, name)(self, *args)

    return hook


for _name in HOOKS + ("diagnosis_symbol", "trust_row"):
    setattr(LoggingRandomAdversary, _name, _logged(_name))


def cold_cohort_and_scalar(monkeypatch, n, value, make_adversary, l_bits=512):
    """One live adversary object through the one-shot ``run`` — a
    private cohort built cold inside the call — and an identically
    built one through the forced-scalar run: ``(result, cohort
    adversary, scalar adversary)``, after asserting equal results and
    clocks."""
    from repro.core.config import ConsensusConfig

    entered = []
    original = cohort_module.run_cohort_instance
    monkeypatch.setattr(
        cohort_module, "run_cohort_instance",
        lambda *args: entered.append(1) or original(*args),
    )
    config = ConsensusConfig.create(n=n, l_bits=l_bits)
    observed = []
    for toggles in (
        {}, {"vectorized": False, "batch_generations": False},
    ):
        adversary = make_adversary(config)
        engine = MultiValuedConsensus(config, adversary=adversary, **toggles)
        observed.append(
            (Observed(engine.run([value] * n), engine), adversary)
        )
        assert len(entered) == 1  # the default run, never the scalar one
    (cohort, by_cohort), (scalar, by_scalar) = observed
    assert cohort.result == scalar.result and cohort.result.error_free
    assert cohort.clocks == scalar.clocks
    return cohort.result, by_cohort, by_scalar


@pytest.mark.parametrize(
    "n, seed", [(4, 2), (7, 2), (7, 3), (10, 4), (31, 5)]
)
def test_live_stateful_adversary_through_a_cold_cohort_of_one(
    monkeypatch, n, seed
):
    """The one-shot ``run`` of a live adversary object equals the
    forced-scalar run in result, clocks and the hook log as a multiset:
    every row is asked with the scalar engine's (pid, recipients,
    honest row, generation), as often, in whatever order."""

    def make_adversary(config):
        # Pid 0 sits inside the lexicographic-first P_match (so its
        # diagnosis_symbol hook can fire), the rest outside.
        faulty = [0] + list(range(n - config.t + 1, n))
        return LoggingRandomAdversary(faulty, seed, rate=0.15)

    _, by_cohort, by_scalar = cold_cohort_and_scalar(
        monkeypatch, n, random.Random(seed).getrandbits(512), make_adversary
    )
    assert Counter(by_cohort.log) == Counter(by_scalar.log)
    # The run was not a trivial one: every stage's hooks fired (at
    # n = 31 pid 0 deviates towards some of its 30 recipients in every
    # generation, so it never sits in a P_match to be diagnosed from).
    assert {call[0] for call in by_cohort.log} == set(HOOKS) | {
        "trust_row",
    } | ({"diagnosis_symbol"} if n < 31 else set())


@pytest.mark.large_n
@pytest.mark.parametrize("attack", sorted(FAULT_GRID_ATTACKS))
@pytest.mark.parametrize("n, l_bits", [(127, 1 << 12), (255, 1 << 10)])
def test_large_n_one_shot_equals_forced_scalar_reference(
    monkeypatch, n, l_bits, attack
):
    """Where symbols travel in packed lanes and a diagnosis dispatches
    hundreds of grouped broadcasts: result (meter by tag included) and
    clocks of the one-shot run equal the forced-scalar run's.  The
    scalar leg costs 3–10 s a row; the totals both legs must reach are
    pinned, on the default engine, in ``tests/test_pinned_bits.py``."""
    cold_cohort_and_scalar(
        monkeypatch, n, random.Random(12345).getrandbits(l_bits),
        lambda config: make_attack(attack, n, config.t, l_bits),
        l_bits=l_bits,
    )


@pytest.mark.large_n
@pytest.mark.parametrize("attack", ("none",) + FAULT_GRID_ATTACKS)
def test_large_n_split_inputs_equal_forced_scalar_reference(attack):
    """The per-generation lane at n = 127, L = 2^12: pids 1 .. t on a
    second value, the other n - t (the faulty ones among them) on the
    first, so fault-free processors hold both.  The default one-shot
    run, journalled, equals the forced-scalar run in result, wire form,
    clocks and the type-tagged journal; the scalar leg costs ~2 s a
    row."""
    n, l_bits = 127, 1 << 12
    t = (n - 1) // 3
    rng = random.Random(127)
    a, b = rng.getrandbits(l_bits), rng.getrandbits(l_bits)
    observed, expected = engine_runs(
        [a] + [b] * t + [a] * (n - t - 1),
        lambda: None if attack == "none" else make_attack(
            attack, n, t, l_bits
        ),
        l_bits=l_bits, n=n, batch_generations=True,
    )
    assert_same_execution(observed, expected)
    assert not observed.result.honest_inputs_equal
    assert observed.result.error_free


def _recorded_and_proved(monkeypatch, spec, value, cls, hooks):
    """Record ``value`` under ``spec`` (the per-generation engine),
    then count the calls of ``cls``'s ``hooks`` that ``prove`` — the
    audit replay on the forced-scalar engine — makes; returns
    ``(counts, generations)``."""
    from repro.audit import prove

    _, transcript = ConsensusService(spec).record(value)
    counts = dict.fromkeys(hooks, 0)
    for name in hooks:
        original = getattr(cls, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    proof = prove(transcript)
    assert proof.ok and set(proof.culprits) <= set(proof.claimed_faulty)
    return counts, len(transcript.result.generation_results)


def test_symbol_round_asks_a_row_strategy_once_per_sender(monkeypatch):
    """A count, not a timing: the cohort, the per-generation engine, the
    forced-scalar reference and the audit replay each ask a strategy
    for its symbol row once per live faulty sender per generation, and
    never per recipient."""
    from repro.core.config import ConsensusConfig
    from repro.processors import CrashAdversary

    class CountingCrash(CrashAdversary):
        def __init__(self, faulty):
            super().__init__(faulty)
            self.rows = 0

        def matching_row(self, *args):
            self.rows += 1
            return super().matching_row(*args)

    n, t, value = 31, 10, 0x5EED << 300
    result, by_cohort, by_scalar = cold_cohort_and_scalar(
        monkeypatch, n, value, lambda config: CountingCrash(range(n - t, n)),
    )
    per_generation = CountingCrash(range(n - t, n))
    engine = MultiValuedConsensus(
        ConsensusConfig.create(n=n, l_bits=512), adversary=per_generation,
        batch_generations=False,
    )
    assert engine.run([value] * n) == result
    # Silence convicts nobody: all t senders stay live, trusted by all.
    generations = len(result.generation_results)
    assert generations > 2 and result.diagnosis_count == 0
    assert (by_cohort.rows, per_generation.rows, by_scalar.rows) == (
        (t * generations,) * 3
    )
    counts, generations = _recorded_and_proved(
        monkeypatch, RunSpec(n=7, l_bits=256, attack="crash"), 0xC0FFEE,
        CrashAdversary, ("matching_row",),
    )
    assert counts["matching_row"] == 2 * generations


def _crash_and_poison(n, t):
    """A coalition routed per pid: the top pid crashes (an all-false M
    row from generation 0), the others poison Trust (an accuse set,
    crying Detected to force diagnoses)."""
    from repro.processors import (
        CompositeAdversary, CrashAdversary, TrustPoisoningAdversary,
    )

    return CompositeAdversary({
        n - 1: CrashAdversary([n - 1]),
        **{
            pid: TrustPoisoningAdversary([pid])
            for pid in range(n - t, n - 1)
        },
    })


def _poisoner_inside_p_match(n, t):
    """Pid 0 sits in ``P_match``: the outside poisoner's accuse set
    leaves its flag honest, which an accuse-everyone row would not."""
    from repro.processors import TrustPoisoningAdversary

    return TrustPoisoningAdversary([0, n - 1])


@pytest.mark.parametrize("n", [7, 10])
@pytest.mark.parametrize(
    "make", [_crash_and_poison, _poisoner_inside_p_match],
    ids=["crash_and_poison", "poisoner_inside_p_match"],
)
def test_row_strategies_equal_forced_scalar_reference(monkeypatch, make, n):
    """The cohort asks for M and Trust rows (through the router, or
    with a faulty member to spare); result, meter and clocks equal the
    forced-scalar run."""
    result, _, _ = cold_cohort_and_scalar(
        monkeypatch, n, random.Random(n).getrandbits(512),
        lambda config: make(n, config.t),
    )
    assert result.diagnosis_count >= 1


class AlternatingMRows(Adversary):
    """Every controlled pid but the lowest broadcasts an all-false M row
    in even generations and its honest row in odd ones; the lowest
    always answers honestly.  Successive M views of one graph state then
    differ only past the first controlled row, and so do their match
    sets."""

    def m_row(self, pid, honest_row, generation, view):
        if pid != min(self.faulty) and generation % 2 == 0:
            return ALL_FALSE
        return honest_row


def test_match_memo_keys_every_live_controlled_row(monkeypatch):
    """The cohort's match memo keys the live controlled M rows as one
    ``bytes`` object: two M views that share their first controlled row
    resolve to their own match sets, as the forced-scalar run does."""
    result, _, _ = cold_cohort_and_scalar(
        monkeypatch, 10, random.Random(10).getrandbits(512),
        lambda config: AlternatingMRows(range(config.t)),
    )
    assert result.diagnosis_count == 0
    assert len({r.p_match for r in result.generation_results}) == 2


def test_m_and_trust_rows_of_a_row_strategy_are_asked_once(monkeypatch):
    """A count, not a timing: one ``slow_bleed`` instance at n = 31 asks
    every controlled pid for its M row once a generation and every live
    one for its Trust row once a diagnosis — alike on the cohort
    (``run_many``, which packs no Trust row bit by bit:
    ``PackedBits.from_bits``), the per-generation engine, the
    forced-scalar reference and the audit replay."""
    from repro.processors import SlowBleedAdversary
    from repro.utils.bits import PackedBits

    hooks = ("m_row", "trust_row")
    calls = dict.fromkeys(hooks + ("from_bits",), 0)
    for name in hooks:
        original = getattr(SlowBleedAdversary, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(SlowBleedAdversary, name, counted)
    from_bits = PackedBits.from_bits.__func__

    def counted_from_bits(cls, bits):
        calls["from_bits"] += 1
        return from_bits(cls, bits)

    monkeypatch.setattr(
        PackedBits, "from_bits", classmethod(counted_from_bits)
    )
    t, value = 10, 0x5EED
    counts = {}
    for engine, toggles in (
        ("cohort", {}),
        ("per_generation", {"batch_generations": False}),
        ("forced_scalar", {"vectorized": False, "batch_generations": False}),
    ):
        for name in calls:
            calls[name] = 0
        service = ConsensusService(RunSpec(
            n=31, l_bits=1 << 10, attack="slow_bleed", **toggles
        ))
        [result] = service.run_many([value])
        assert result.error_free and result.diagnosis_count >= 1
        assert calls["m_row"] == t * len(result.generation_results)
        # Every live controlled pid, per diagnosis.
        assert calls["trust_row"] >= t
        counts[engine] = (calls["m_row"], calls["trust_row"])
        if engine == "cohort":
            assert calls["from_bits"] == 0
    assert len(set(counts.values())) == 1
    replayed, _ = _recorded_and_proved(
        monkeypatch, RunSpec(n=31, l_bits=1 << 10, attack="slow_bleed"),
        value, SlowBleedAdversary, hooks,
    )
    assert (replayed["m_row"], replayed["trust_row"]) == counts["cohort"]


class OddAnswers(Adversary):
    """Answers no honest processor gives.  Pid 0, inside the
    lexicographic-first P_match, stays silent towards the last pid —
    which costs it that pid's trust in the first diagnosis, so from
    then on the exception names a pid the sender has no edge to, and
    counting it would move the bits charged — and names itself, pids
    that do not exist and a key that is no pid.  The other faulty pid
    sends ``True`` (passes ``isinstance(x, int)`` and the range check
    but is no symbol: charged, missing on receipt), an out-of-range
    int and silence."""

    def _odd(self, pid, view):
        if pid == 0:
            return {view.n - 1: None, pid: 0, view.n + 3: 0, -1: 0, "x": 0}
        return {1: True, 2: 1 << 40, 3: None}

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        return honest_symbol, self._odd(pid, view)


class TrueKeyedException(Adversary):
    """An exception keyed ``True``, which names no pid — ``True == 1``,
    but pid 1 must still get the honest symbol, so nothing deviates."""

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        return honest_symbol, {True: honest_symbol ^ 1}


class TrueToAlmostAll(Adversary):
    """Every faulty sender's common payload is ``True``; pid 1 gets the
    honest symbol and pid 2 silence (exceptions under a common payload
    that is charged but never arrives)."""

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        return True, {1: honest_symbol, 2: None}


@pytest.mark.parametrize(
    "adversary_class, diagnosed",
    [
        (TrueKeyedException, False), (OddAnswers, True),
        (TrueToAlmostAll, False),
    ],
    ids=["true_key", "row_form", "true_to_almost_all"],
)
def test_row_answers_are_read_as_the_scalar_payloads_are(
    monkeypatch, adversary_class, diagnosed
):
    """Exceptions aimed at an untrusted, own or non-existent pid, or
    keyed by something that is no pid, are ignored and a ``True``
    payload is charged but missing: result (meter included) and clocks
    equal the forced-scalar run."""
    result, _, _ = cold_cohort_and_scalar(
        monkeypatch, 7, 0xC0DE << 200,
        lambda config: adversary_class([0, 5]),
    )
    # Pid 0's silence towards pid 6 was diagnosed, so every later
    # generation's exception names an untrusted pid.
    assert (result.diagnosis_count >= 1) == diagnosed
    assert len(result.generation_results) > 2


def reverse_asking(monkeypatch):
    """Make every engine built from here on ask its controlled
    processors for their answers in descending pid order; rows are
    still dispatched in the scalar order, so instance ids keep theirs
    (rule 4)."""
    from repro.core.generation import GenerationProtocol

    for cls, name in (
        (GenerationProtocol, "_controlled"),
        (batched_module.CohortContext, "controlled_sorted"),
    ):
        def reversed_init(self, *args, _init=cls.__init__, _name=name,
                          **kwargs):
            _init(self, *args, **kwargs)
            getattr(self, _name).reverse()

        monkeypatch.setattr(cls, "__init__", reversed_init)


@pytest.mark.parametrize("n", sorted(SIZES))
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_reversed_asking_order_equals_forced_scalar_reference(
    monkeypatch, attack, n
):
    """Rule 3: an answer is a function of the hook's arguments, so
    engines that ask their controlled processors in reverse order
    change nothing.  The default path (a cohort), the recorded path
    (the per-generation engine) and the forced-scalar engine, each
    asking in reverse, equal the forced-scalar reference asking in
    pid order — result, clocks and journal."""
    expected = reference(attack, n)
    reverse_asking(monkeypatch)
    scalar = run_service(
        RunSpec(n=n, l_bits=SIZES[n], vectorized=False,
                batch_generations=False),
        instances_for(attack, n), journal=True, batch=False,
        reuse_results=False,
    )
    for observed in (
        observe("one_shot", attack, n, journal=False),
        observe("one_shot", attack, n, journal=True),
        scalar,
    ):
        assert observed.result == expected.result
        assert observed.wire == expected.wire
        assert observed.clocks == expected.clocks
        if observed.journal is not None:
            assert observed.journal == expected.journal


@pytest.mark.large_n
@pytest.mark.parametrize("attack", sorted(FAULT_GRID_ATTACKS))
def test_large_n_reversed_asking_order(monkeypatch, attack):
    """The reversed-order cell at n = 127, where a diagnosis asks
    dozens of controlled rows: the cohort and the per-generation engine,
    each asking in reverse, equal the default run in pid order (which
    the rows above hold to the forced-scalar reference)."""
    from repro.core.config import ConsensusConfig

    n, l_bits = 127, 1 << 12
    config = ConsensusConfig.create(n=n, l_bits=l_bits)
    value = random.Random(12345).getrandbits(l_bits)

    def run(**toggles):
        engine = MultiValuedConsensus(
            config, adversary=make_attack(attack, n, config.t, l_bits),
            **toggles,
        )
        return Observed(engine.run([value] * n), engine)

    expected = run()
    reverse_asking(monkeypatch)
    for toggles in ({}, {"batch_generations": False}):
        observed = run(**toggles)
        assert observed.result == expected.result
        assert observed.wire == expected.wire
        assert observed.clocks == expected.clocks
