"""What an adversarial run already holds, it does not derive again.

* The agreement rule: symbols that agree with a held codeword at ``>= k``
  positions are settled by counting (the code is MDS), and every answer
  equals the interpolating one, on both code classes.
* A warm ``slow_bleed`` cohort instance, a diagnosis every generation,
  interpolates nothing and still equals the forced-scalar run.
* The cohort door hands back the reference value without reassembling
  it when every honest decision equalled the reference part, which is
  compared, not presumed.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf import GFElementError
from repro.coding.interleaved import InterleavedCode
from repro.coding.reed_solomon import ReedSolomonCode, min_symbol_bits
from repro.core.config import ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.processors import make_attack
from repro.service import ConsensusService, RunSpec
from repro.service.serving.wire import result_to_wire


@functools.lru_cache(maxsize=None)
def code_for(n, interleave):
    """The paper's ``(n, n - 2t)`` code at ``n``: plain, or ``interleave``
    rows of it as super-symbols."""
    t = (n - 1) // 3
    c = min_symbol_bits(n)
    if interleave == 1:
        return ReedSolomonCode(n, n - 2 * t, c)
    return InterleavedCode(n, n - 2 * t, c, interleave)


@st.composite
def held_and_received(draw):
    """A code, the codeword a caller holds, and received symbols: a
    subset of positions (every one, sometimes) of that codeword or of
    another, with ``e`` of them corrupted."""
    n = draw(st.sampled_from([4, 7, 16, 127]))
    code = code_for(n, draw(st.sampled_from([1, 2])))
    symbol = st.integers(0, code.symbol_limit - 1)
    near = code.encode(draw(st.lists(symbol, min_size=code.k,
                                     max_size=code.k)))
    source = near if draw(st.booleans()) else code.encode(
        draw(st.lists(symbol, min_size=code.k, max_size=code.k))
    )
    if draw(st.booleans()):
        positions = list(range(n))
    else:
        positions = draw(st.lists(
            st.integers(0, n - 1), unique=True, max_size=n
        ))
    symbols = {p: source[p] for p in positions}
    corrupted = draw(st.lists(
        st.sampled_from(positions), unique=True, max_size=len(positions)
    )) if positions else []
    for p in corrupted:
        symbols[p] ^= draw(st.integers(1, code.symbol_limit - 1))
    return code, near, symbols


@given(held_and_received())
@settings(max_examples=150, deadline=None)
def test_agreement_rule_answers_as_interpolation_does(case):
    """``near=`` changes how an answer is found, never the answer: at
    and above ``k`` agreements, below them, on another codeword's
    symbols and on a full-length word."""
    code, near, symbols = case
    assert code.is_consistent(symbols, near=near) == (
        code.is_consistent(symbols)
    )
    if len(symbols) < code.k:
        with pytest.raises(ValueError):
            code.codeword_through(symbols, near=near)
        return
    assert code.codeword_through(symbols, near=near) == (
        code.codeword_through(symbols)
    )


@pytest.mark.parametrize("interleave", [1, 2])
def test_agreement_rule_refuses_what_interpolation_refuses(interleave):
    """A symbol that is no field element, or a position off the word,
    is refused with the interpolating path's error type."""
    code = code_for(7, interleave)
    near = code.encode(list(range(1, code.k + 1)))
    for bad, error in (
        ({**dict(enumerate(near)), 6: 1.0}, GFElementError),
        ({**dict(enumerate(near)), 6: True}, GFElementError),
        ({**dict(enumerate(near)), 6: code.symbol_limit}, GFElementError),
        ({**dict(enumerate(near)), 7: near[0]}, ValueError),
    ):
        for method in (code.codeword_through, code.is_consistent):
            with pytest.raises(error):
                method(bad)
            with pytest.raises(error):
                method(bad, near=near)


def test_warm_slow_bleed_instance_interpolates_nothing(monkeypatch):
    """At n = 31 ``slow_bleed`` diagnoses every generation: the outsider
    checks and the verdicts are all counted against the reference
    codeword, so a warm cohort instance builds no interpolation and
    takes no syndrome, and its result equals the forced-scalar run's
    byte for byte."""
    n, l_bits = 31, 1 << 12
    service = ConsensusService(RunSpec(n=n, l_bits=l_bits))
    rng = random.Random(31)
    service.run(rng.getrandbits(l_bits), attack="slow_bleed")
    value = rng.getrandbits(l_bits)
    interpolations = []
    for name in ("_interp_for", "syndrome_many"):
        original = getattr(ReedSolomonCode, name)
        monkeypatch.setattr(
            ReedSolomonCode, name,
            lambda self, *args, original=original, name=name: (
                interpolations.append(name) or original(self, *args)
            ),
        )
    warm = service.run(value, attack="slow_bleed")
    assert interpolations == []
    monkeypatch.undo()
    assert warm.diagnosis_count == len(warm.generation_results) > 1
    scalar = ConsensusService(RunSpec(
        n=n, l_bits=l_bits, vectorized=False, batch_generations=False,
    )).run(value, attack="slow_bleed")
    assert warm == scalar and result_to_wire(warm) == result_to_wire(scalar)


def _value_of_calls(monkeypatch):
    calls = []
    original = MultiValuedConsensus.value_of
    monkeypatch.setattr(
        MultiValuedConsensus, "value_of",
        lambda self, parts: calls.append(1) or original(self, parts),
    )
    return calls


def _default_and_scalar(config, inputs, make_adversary):
    """One-shot runs on the default engine and the forced-scalar one."""
    return [
        MultiValuedConsensus(
            config, adversary=make_adversary(), **toggles
        ).run(list(inputs))
        for toggles in (
            {}, {"vectorized": False, "batch_generations": False},
        )
    ]


@pytest.mark.parametrize("n", [7, 31])
@pytest.mark.parametrize("attack", ["slow_bleed", "trust_poison"])
def test_diagnosing_cohort_runs_finalize_without_reassembly(
    monkeypatch, attack, n
):
    """Each diagnosis of these runs decodes the reference part, which
    the cohort compares: the door hands back the reference value and
    nothing is reassembled, and the result is the forced-scalar one."""
    l_bits = 1 << 10
    config = ConsensusConfig.create(n=n, l_bits=l_bits)
    value = random.Random(n).getrandbits(l_bits)
    calls = _value_of_calls(monkeypatch)
    cohort = MultiValuedConsensus(
        config, adversary=make_attack(attack, n, config.t, l_bits)
    ).run([value] * n)
    assert calls == []
    assert cohort.diagnosis_count >= 1
    assert set(cohort.decisions.values()) == {value}
    _, scalar = _default_and_scalar(
        config, [value] * n, lambda: make_attack(attack, n, config.t, l_bits)
    )
    assert cohort == scalar and result_to_wire(cohort) == (
        result_to_wire(scalar)
    )


def test_a_defaulting_run_still_decides_the_default():
    """(n - t - 1)/(t + 1) split inputs find no P_match: the run decides
    the configured default, not either input, on both engines."""
    n, l_bits = 7, 256
    config = ConsensusConfig.create(n=n, l_bits=l_bits, default_value=5)
    rng = random.Random(7)
    a, b = rng.getrandbits(l_bits), rng.getrandbits(l_bits)
    inputs = [a] * (n - config.t - 1) + [b] * (config.t + 1)
    fast, scalar = _default_and_scalar(config, inputs, lambda: None)
    assert fast.default_used
    assert set(fast.decisions.values()) == {5}
    assert fast == scalar


def test_split_inputs_with_pid_0_in_the_minority_reassemble(monkeypatch):
    """Pid 0 holds the minority value, so the per-generation lane's
    reference part is not what anyone decides: the majority's value is
    reassembled from the decisions, as the forced-scalar run does."""
    n, l_bits = 7, 256
    config = ConsensusConfig.create(n=n, l_bits=l_bits)
    rng = random.Random(70)
    minority, majority = rng.getrandbits(l_bits), rng.getrandbits(l_bits)
    inputs = [minority] * config.t + [majority] * (n - config.t)
    calls = _value_of_calls(monkeypatch)
    fast = MultiValuedConsensus(config).run(inputs)
    assert calls  # reassembled from the decisions
    _, scalar = _default_and_scalar(config, inputs, lambda: None)
    assert not fast.default_used
    assert set(fast.decisions.values()) == {majority}
    assert fast == scalar
