"""Composite adversaries, ASCII plotting, graph serialization."""

import inspect

import pytest

from repro import ConsensusConfig, MultiValuedConsensus
from repro.analysis.plotting import ascii_plot
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.processors import (
    AdaptiveAdversary,
    Adversary,
    CompositeAdversary,
    CrashAdversary,
    FalseDetectionAdversary,
    SymbolCorruptionAdversary,
)
from repro.processors.adversary import GlobalView


def view():
    return GlobalView(n=7, t=2, faulty={5, 6})


class TestCompositeAdversary:
    def test_faulty_union(self):
        adversary = CompositeAdversary({
            5: CrashAdversary([5]),
            6: FalseDetectionAdversary([6]),
        })
        assert adversary.faulty == {5, 6}

    def test_routing_per_pid(self):
        adversary = CompositeAdversary({
            5: SymbolCorruptionAdversary([5]),
            6: CrashAdversary([6]),
        })
        # pid 5 corrupts (xor 1); pid 6 goes silent.
        assert adversary.matching_row(5, (0,), 8, 0, view()) == (9, {})
        assert adversary.matching_row(6, (0,), 8, 0, view()) == (None, {})

    def test_unrouted_pid_honest(self):
        adversary = CompositeAdversary({5: CrashAdversary([5])})
        assert adversary.matching_row(3, (0,), 8, 0, view()) == (8, {})

    def test_strategy_faulty_set_fixed_up(self):
        inner = CrashAdversary([])
        adversary = CompositeAdversary({5: inner})
        assert 5 in inner.faulty
        assert adversary.controls(5)

    def test_end_to_end_mixed_attack(self):
        adversary = CompositeAdversary({
            0: SymbolCorruptionAdversary([0], victims={0: [6]}),
            1: FalseDetectionAdversary([1]),
        })
        config = ConsensusConfig.create(n=7, t=2, l_bits=72, d_bits=24)
        result = MultiValuedConsensus(config, adversary=adversary).run(
            [0x3F] * 7
        )
        assert result.consistent and result.valid
        assert result.value == 0x3F

    def test_doctest_example(self):
        adversary = CompositeAdversary({
            5: CrashAdversary([5]),
            6: FalseDetectionAdversary([6]),
        })
        assert sorted(adversary.faulty) == [5, 6]


def _pid_first_hooks():
    """Every hook whose first argument is the acting processor, read off
    the interface: each public method taking a ``view`` whose first
    argument is not an ``instance``."""
    hooks = []
    for name, member in vars(Adversary).items():
        if not inspect.isfunction(member) or name.startswith("_"):
            continue
        params = list(inspect.signature(member).parameters)
        if "view" in params and params[1] != "instance":
            hooks.append(name)
    return hooks


def _spy_strategy(hook, pid, answer):
    """A strategy over ``pid`` whose ``hook`` logs its arguments and
    answers ``answer``."""

    def spy(self, *args):
        self.calls.append(args)
        return answer

    strategy = type("Spy", (Adversary,), {hook: spy})([pid])
    strategy.calls = []
    return strategy


#: The two routers, over a strategy that owns pid 3 from generation 0.
ROUTERS = {
    "composite": lambda strategy: CompositeAdversary({3: strategy}),
    "adaptive": lambda strategy: AdaptiveAdversary({0: [3]}, strategy),
}


@pytest.mark.parametrize("router", sorted(ROUTERS))
@pytest.mark.parametrize("hook", _pid_first_hooks())
def test_router_forwards_every_pid_first_hook(hook, router):
    """Each router hands every pid-first hook of the acting pid to the
    strategy that owns it, with its arguments, and returns its answer:
    a hook missing from a router's table plays honestly instead."""
    answer = object()
    strategy = _spy_strategy(hook, 3, answer)
    adversary = ROUTERS[router](strategy)
    v = GlobalView(n=7, t=2, faulty={3}, extras={"generation": 0})
    params = list(inspect.signature(getattr(Adversary, hook)).parameters)
    args = [
        v if name == "view" else 0 if name == "generation" else (name, 1)
        for name in params[2:]
    ]
    assert getattr(adversary, hook)(3, *args) is answer
    assert strategy.calls == [(3, *args)]


class TestAsciiPlot:
    def test_contains_markers_and_axes(self):
        text = ascii_plot([(1, 1), (2, 4), (3, 9)], width=20, height=8)
        assert "*" in text
        assert "+" in text and "|" in text

    def test_title_rendered(self):
        text = ascii_plot([(1, 1)], title="hello")
        assert text.splitlines()[0] == "hello"

    def test_log_axes(self):
        text = ascii_plot(
            [(10, 10), (100, 100), (1000, 1000)], logx=True, logy=True
        )
        assert "*" in text

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_plot([(0, 1)], logx=True)

    def test_empty_points(self):
        assert ascii_plot([]) == "(no data)"

    def test_too_small_area(self):
        with pytest.raises(ValueError):
            ascii_plot([(1, 1)], width=2, height=2)

    def test_constant_series(self):
        text = ascii_plot([(1, 5), (2, 5), (3, 5)])
        assert "*" in text  # degenerate spans handled


class TestGraphSerialization:
    def test_roundtrip(self):
        graph = DiagnosisGraph(7)
        graph.remove_edge(0, 3)
        graph.remove_edge(2, 5)
        graph.isolate(6)
        payload = graph.to_dict()
        restored = DiagnosisGraph.from_dict(payload)
        assert restored.removed_edges() == graph.removed_edges()
        assert restored.isolated == graph.isolated
        assert restored.trusts(0, 1)
        assert not restored.trusts(0, 3)

    def test_payload_is_json_compatible(self):
        import json

        graph = DiagnosisGraph(5)
        graph.remove_edge(1, 2)
        text = json.dumps(graph.to_dict())
        restored = DiagnosisGraph.from_dict(json.loads(text))
        assert not restored.trusts(1, 2)

    def test_resume_consensus_with_restored_graph(self):
        """Checkpoint the graph after an attacked run; a resumed run with
        the restored graph does not need to re-diagnose the same edge."""
        from repro.processors import SlowBleedAdversary

        config = ConsensusConfig.create(n=7, t=2, l_bits=24, d_bits=24)
        adversary = SlowBleedAdversary(faulty=[0])
        first = MultiValuedConsensus(config, adversary=adversary)
        result1 = first.run([9] * 7)
        assert result1.diagnosis_count == 1

        payload = first.graph.to_dict()
        second = MultiValuedConsensus(
            config, adversary=SlowBleedAdversary(faulty=[0])
        )
        second.graph = DiagnosisGraph.from_dict(payload)
        # Rebind the generation view to the restored graph.
        result2 = second.run([9] * 7)
        assert result2.error_free
