"""Every engine reads a faulty processor's answer by one rule.

A cross-engine property over the scalar hooks: each answer in
``ANSWERS`` runs on every engine that asks the hook, and either equals
the run with the exact answer it stands for (the result on the wire,
the meter by tag, the clocks) or raises the same ``TypeError`` — naming
the hook and the value — on every engine.  The honest answer must run:
the base adversary echoes the honest argument, so an engine that hands
a hook a numpy scalar fails here.  ``reading`` states the rules a second
time, apart from ``repro.processors.answers``, so the property checks
them rather than restating them.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.replay import DeviationRecorder
from repro.baselines.bitwise import BitwiseConsensus
from repro.baselines.fitzi_hirt import FitziHirtConsensus
from repro.core import MultiValuedBroadcast
from repro.core.config import BACKENDS, ConsensusConfig
from repro.core.consensus import MultiValuedConsensus
from repro.network.metrics import BitMeter
from repro.processors import Adversary
from repro.service.serving.wire import result_to_wire

N, T, L = 7, 2, 64
CONFIG = ConsensusConfig.create(n=N, l_bits=L)
SYMBOL_LIMIT = CONFIG.make_code().symbol_limit

#: The answer that is the honest argument itself.
HONEST = "honest"
#: ``reading``'s verdict on an answer no engine may run with.
REFUSED = "refused"
ANSWERS = [HONEST, True, 1.0, 3.5, np.int64(1), "1", None, 2**64, -1]

BIT_HOOKS = ("detected_flag", "ideal_broadcast_bit")
MESSAGE_HOOKS = (
    "bsb_source_bit", "king_value", "king_proposal", "king_bit",
    "eig_relay", "est_value", "aux_value",
)


def reading(hook, answer):
    """What ``answer`` to ``hook`` stands for: ``HONEST``, ``None``
    (silence), the exact ``int`` an engine runs with, or ``REFUSED``."""
    if answer is HONEST:
        return HONEST
    if hook in BIT_HOOKS or hook in MESSAGE_HOOKS:
        if answer is None:
            return None if hook in MESSAGE_HOOKS else REFUSED
        if isinstance(answer, bool):
            return int(answer)
        if type(answer) is int and answer in (0, 1):
            return answer
        return REFUSED
    if type(answer) is not int:
        return REFUSED
    return answer % (SYMBOL_LIMIT if hook == "diagnosis_symbol" else 1 << L)


class Answering(Adversary):
    """Answers ``hook`` with ``answer`` every time it is asked, and
    every other hook honestly.  With a ``victim``, each faulty pid also
    sends it a corrupted symbol, so that a diagnosis runs."""

    def __init__(self, faulty, hook, answer, victim=None):
        super().__init__(faulty)
        self.hook = hook
        self.answer = answer
        self.victim = victim

    def matching_row(self, pid, recipients, honest_symbol, generation, view):
        if self.victim is None:
            return honest_symbol, {}
        return honest_symbol, {self.victim: honest_symbol ^ 1}

    def forwarded_symbol(self, pid, recipient, honest_symbol, generation,
                         view):
        return honest_symbol ^ (recipient == self.victim)


def _answering(hook):
    names = list(inspect.signature(getattr(Adversary, hook)).parameters)
    honest_at = next(
        index for index, name in enumerate(names[1:])
        if name.startswith("honest")
    )

    def answer(self, *args):
        if hook != self.hook or self.answer is HONEST:
            return args[honest_at]
        return self.answer

    return answer


for _hook in BIT_HOOKS + MESSAGE_HOOKS + (
    "diagnosis_symbol", "input_value", "delivery_value",
):
    setattr(Answering, _hook, _answering(_hook))


def _adversary(hook, answer):
    """Consensus runs: pid 6 faulty; a diagnosis symbol is asked of pid
    0 once it has corrupted pid 6's symbol.  Real rounds: pid 2, the
    third phase's king."""
    if hook == "diagnosis_symbol":
        return Answering([0], hook, answer, victim=6)
    if hook in MESSAGE_HOOKS:
        return Answering([2], hook, answer)
    return Answering([6], hook, answer)


def _consensus(**toggles):
    def run(adversary, value):
        engine = MultiValuedConsensus(CONFIG, adversary=adversary, **toggles)
        result = engine.run([value] * N)
        return (
            result_to_wire(result),
            list(result.meter.bits_by_tag.items()),
            engine.network.round_index,
            engine.backend.stats.instances,
            engine.backend.stats.bits_charged,
        )

    return run


def _recorded(run):
    """``run`` with the adversary wrapped in the audit recorder: the
    deviations it notes join what is compared."""

    def recorded(adversary, value):
        recorder = DeviationRecorder(adversary)
        observed = run(recorder, value)
        return observed, [
            (d.pid, d.hook, d.generation, d.recipient)
            for d in recorder.deviations
        ]

    return recorded


def _section4(adversary, value):
    result = MultiValuedBroadcast(n=N, l_bits=L, adversary=adversary).run(
        source=1, value=value
    )
    return (
        result.decisions, list(result.meter.bits_by_tag.items()),
        result.diagnosis_count, result.removed_edges,
    )


def _baseline(cls):
    def run(adversary, value):
        result = cls(n=N, t=T, l_bits=L, adversary=adversary).run(
            [value] * N
        )
        return result.decisions, result.meter

    return run


def _backend(name):
    """Two broadcasts, from the faulty pid 2 and from pid 0, of the
    value's two low bits."""

    def run(adversary, value):
        meter = BitMeter()
        backend = BACKENDS[name](N, T, meter, adversary)
        bits = [value & 1, (value >> 1) & 1]
        outcomes = backend.broadcast_bits_many([(2, bits), (0, bits)], "p")
        return (
            outcomes, meter.snapshot(), backend.stats.instances,
            backend.stats.bits_charged,
        )

    return run


_CONSENSUS = [
    ("reference", _consensus(vectorized=False, batch_generations=False)),
    ("per_generation", _consensus(batch_generations=False)),
    ("cohort", _consensus()),
    ("recorder", _recorded(_consensus(batch_generations=False))),
]
_SECTION4 = [("section4", _section4)]
_FITZI_HIRT = [("fitzi_hirt", _baseline(FitziHirtConsensus))]


def _fitzi_hirt_delivery(adversary, value):
    """Fitzi-Hirt with the honest pid 5 holding another value: it
    recovers from what the happy processors deliver, the faulty pid 6
    among them."""
    inputs = [value] * N
    inputs[5] ^= 1
    result = FitziHirtConsensus(
        n=N, t=T, l_bits=L, adversary=adversary
    ).run(inputs)
    return result.decisions, result.meter


def _real_rounds(*names):
    return [(name, _backend(name)) for name in names] + [
        ("recorder", _recorded(_backend(names[0])))
    ]


#: Hook -> every engine that asks it.
ASKED_BY = {
    "detected_flag": _CONSENSUS + _SECTION4,
    "ideal_broadcast_bit": _CONSENSUS + _SECTION4 + _FITZI_HIRT,
    "diagnosis_symbol": _CONSENSUS + _SECTION4,
    "input_value": _CONSENSUS + _FITZI_HIRT + [
        ("bitwise", _baseline(BitwiseConsensus))
    ],
    "delivery_value": [
        ("fitzi_hirt", _fitzi_hirt_delivery),
        ("recorder", _recorded(_fitzi_hirt_delivery)),
    ],
    "bsb_source_bit": _real_rounds(
        "phase_king", "eig", "dolev_strong", "mostefaoui"
    ),
    "king_value": _real_rounds("phase_king"),
    "king_proposal": _real_rounds("phase_king"),
    "king_bit": _real_rounds("phase_king"),
    "eig_relay": _real_rounds("eig", "dolev_strong"),
    "est_value": _real_rounds("mostefaoui"),
    "aux_value": _real_rounds("mostefaoui"),
}


def _reads_alike(hook, engines, adversary, answer, read, value):
    """Every engine in ``engines`` runs ``answer`` as it runs ``read``,
    or refuses it with one ``TypeError`` naming the hook."""
    refusals = {}
    for name, run in engines:
        if read is REFUSED:
            with pytest.raises(TypeError) as refused:
                run(adversary(hook, answer), value)
            refusals[name] = str(refused.value)
            continue
        observed = run(adversary(hook, answer), value)
        if read is not HONEST and read is not None:
            assert observed == run(adversary(hook, read), value), name
    if refusals:
        messages = set(refusals.values())
        assert len(messages) == 1, refusals
        assert messages.pop().startswith("hook=%r answer=" % hook)


@pytest.mark.parametrize("answer", ANSWERS, ids=repr)
@pytest.mark.parametrize("hook", sorted(ASKED_BY))
@settings(max_examples=2, deadline=None)
@given(value=st.integers(0, (1 << L) - 1))
def test_every_engine_reads_an_answer_alike(hook, answer, value):
    _reads_alike(
        hook, ASKED_BY[hook], _adversary, answer, reading(hook, answer), value
    )


class RowAnswering(Answering):
    """Answers the row hook ``hook`` with ``answer`` every time it is
    asked; pid 0 corrupts pid 6's symbol, so that a diagnosis asks
    ``trust_row``."""

    def __init__(self, hook, answer):
        super().__init__([0], hook, answer, victim=6)

    def matching_row(self, pid, *args):
        if self.hook == "matching_row":
            return self.answer
        return super().matching_row(pid, *args)

    def m_row(self, pid, honest_row, generation, view):
        return self.answer if self.hook == "m_row" else honest_row

    def trust_row(self, pid, p_match, honest_row, generation, view):
        return self.answer if self.hook == "trust_row" else honest_row


#: (hook, a row answer, the answer it stands for or ``REFUSED``): an
#: accuse set or mapping names a pid by an exact ``int`` only, and a
#: row of another shape is refused.
ROW_ANSWERS = [
    ("matching_row", (0, [1, 2]), REFUSED),
    ("matching_row", (0, ((1, 5),)), REFUSED),
    ("matching_row", 0, REFUSED),
    ("matching_row", None, REFUSED),
    ("matching_row", (0, {}, 1), REFUSED),
    ("m_row", None, REFUSED),
    ("m_row", 5, REFUSED),
    ("m_row", "10101", REFUSED),
    ("m_row", b"10101", REFUSED),
    ("trust_row", {True}, set()),
    ("trust_row", {1.0}, set()),
    ("trust_row", {np.int64(1)}, set()),
    ("trust_row", {True: True}, {}),
]


@pytest.mark.parametrize("hook, answer, read", [
    pytest.param(*cell, id="%s-%r" % cell[:2]) for cell in ROW_ANSWERS
])
@settings(max_examples=2, deadline=None)
@given(value=st.integers(0, (1 << L) - 1))
def test_every_engine_reads_a_row_answer_alike(hook, answer, read, value):
    engines = _CONSENSUS + (_SECTION4 if hook == "trust_row" else [])
    _reads_alike(hook, engines, RowAnswering, answer, read, value)
