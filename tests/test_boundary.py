"""The boundary table, walked with generated values.

For every row of :data:`tests.boundary_table.TABLE` that names a rule,
each value that breaks the rule — a bool, a float, a numpy integer, a
str, ``None``, and, where the rule bounds the value, a negative, an
out-of-range and a 2^70 value — is refused with the entry's error, and
the message names the argument.  The row's valid value passes.
"""

from __future__ import annotations

import asyncio
import copy

import numpy as np
import pytest

from repro import (
    ConsensusConfig, ConsensusService, MultiValuedBroadcast,
    MultiValuedConsensus,
)
from repro.audit.transcript import Transcript
from repro.baselines import (
    BitwiseConsensus, FitziHirtConsensus, PolynomialHash,
)
from repro.broadcast_bit.ideal import AccountedIdealBroadcast
from repro.coding.gf import GF, GFElementError
from repro.coding.reed_solomon import ReedSolomonCode
from repro.faults.plan import FaultPlan, FaultRule
from repro.graphs.diagnosis_graph import DiagnosisGraph
from repro.network import SymbolBatch, SyncNetwork
from repro.processors.adversary import Adversary
from repro.processors.registry import make_attack
from repro.service import InstanceSpec, RunSpec
from repro.service.serving import (
    ConsensusServer, InvalidRequestError, MicroBatcher, ServingStats, wire,
)
from tests.boundary_table import TABLE

_BREAKERS = (True, 1.0, np.int64(1), "1", None)

#: What breaks each rule (a rule ending in ``?`` also takes ``None``).
DRAWS = {
    "int": _BREAKERS,
    "pid": _BREAKERS + (-1, 4, 2 ** 70),
    "value": _BREAKERS + (-1, 1 << 16, 2 ** 70),
    "choice": (True, 1.0, np.int64(1), "nonesuch", None, -1, 2 ** 70),
    "probability": (True, np.int64(1), "1", None, -0.5, 1.5, 2 ** 70),
    "index": (True, 1.0, np.int64(0), "0", None, -1, 1, 2 ** 70),
    "engine": (True, 1.0, "1", None, -1, 16, 2 ** 70),
    "width": (True, 1.0, "1", None, -1),
}

_SERVICE = ConsensusService(RunSpec(n=4, l_bits=16))
_RESULT = wire.result_to_wire(_SERVICE.run(5))
_TRANSCRIPT = _SERVICE.record(5, attack="crash", seed=3)[1].to_wire()


def _with(base: dict, argument: str, value) -> dict:
    return {**base, argument: value}


def _payload(base: dict, argument: str, value) -> dict:
    payload = copy.deepcopy(base)
    if argument == "decisions":
        payload["decisions"][1] = [value]
    elif argument == "generations":
        payload["generations"][0][1] = value
    else:
        payload[argument] = value
    return payload


def _service(method: str):
    """``ConsensusService.<method>`` on the inputs ``(5,) * 4``, one
    argument replaced."""
    return lambda arg, value: getattr(_SERVICE, method)(**_with(
        dict(inputs=(5,) * 4, attack="crash"), arg, value
    ))


def _served(arg, value):
    """``ConsensusServer.submit`` on a started server, one argument
    replaced."""
    async def submit():
        server = ConsensusServer(RunSpec(n=4, l_bits=16))
        await server.start()
        try:
            return await server.submit(**_with(
                dict(inputs=(5,) * 4, attack="crash"), arg, value
            ))
        finally:
            await server.stop()

    return asyncio.run(submit())


#: Each entry, called with one argument replaced and the rest valid.
CALLS = {
    "repro.core.consensus.MultiValuedConsensus.run":
        lambda arg, value: MultiValuedConsensus(
            ConsensusConfig.create(n=4, l_bits=16)
        ).run(value),
    **{
        "repro.service.service.ConsensusService." + method: _service(method)
        for method in ("run", "submit", "record")
    },
    "repro.service.service.ConsensusService.run_many":
        lambda arg, value: _SERVICE.run_many(value),
    "repro.service.serving.server.ConsensusServer":
        lambda arg, value: ConsensusServer(
            RunSpec(n=4, l_bits=16), **{arg: value}
        ),
    "repro.service.serving.server.ConsensusServer.submit": _served,
    "repro.core.config.ConsensusConfig": lambda arg, value: ConsensusConfig(
        **_with(
            dict(n=4, t=1, l_bits=16, d_bits=8, symbol_bits=4), arg, value
        )
    ),
    "repro.core.config.ConsensusConfig.create":
        lambda arg, value: ConsensusConfig.create(
            **_with(dict(n=4, l_bits=16), arg, value)
        ),
    "repro.service.spec.RunSpec": lambda arg, value: RunSpec(
        **_with(dict(n=4, l_bits=16), arg, value)
    ),
    "repro.service.spec.InstanceSpec.validate":
        lambda arg, value: InstanceSpec(
            **_with(dict(inputs=(5,) * 4), arg, value)
        ).validate(RunSpec(n=4, l_bits=16, attack="crash")),
    "repro.core.broadcast.MultiValuedBroadcast":
        lambda arg, value: MultiValuedBroadcast(
            **_with(dict(n=4, l_bits=16), arg, value)
        ),
    "repro.core.broadcast.MultiValuedBroadcast.run":
        lambda arg, value: MultiValuedBroadcast(n=4, l_bits=16).run(
            **_with(dict(source=0, value=5), arg, value)
        ),
    "repro.baselines.bitwise.BitwiseConsensus":
        lambda arg, value: BitwiseConsensus(
            **_with(dict(n=4, t=1, l_bits=16), arg, value)
        ),
    "repro.baselines.bitwise.BitwiseConsensus.run":
        lambda arg, value: BitwiseConsensus(4, 1, 16).run(value),
    "repro.baselines.fitzi_hirt.FitziHirtConsensus":
        lambda arg, value: FitziHirtConsensus(
            **_with(dict(n=4, t=1, l_bits=16), arg, value)
        ),
    "repro.baselines.fitzi_hirt.FitziHirtConsensus.run":
        lambda arg, value: FitziHirtConsensus(4, 1, 16).run(value),
    "repro.baselines.hashing.PolynomialHash":
        lambda arg, value: PolynomialHash(
            **_with(dict(l_bits=16, kappa=8), arg, value)
        ),
    "repro.baselines.hashing.PolynomialHash.coefficients":
        lambda arg, value: PolynomialHash(16, 8).coefficients(value),
    "repro.faults.plan.FaultRule": lambda arg, value: FaultRule(**_with(
        dict(kind="partition" if arg == "groups" else "omit"), arg, value
    )),
    "repro.faults.plan.FaultPlan":
        lambda arg, value: FaultPlan(**{arg: value}),
    "repro.processors.registry.make_attack": lambda arg, value: make_attack(
        **_with(dict(name="crash", n=4, t=1, l_bits=16), arg, value)
    ),
    "repro.processors.adversary.Adversary":
        lambda arg, value: Adversary(value),
    "repro.graphs.diagnosis_graph.DiagnosisGraph":
        lambda arg, value: DiagnosisGraph(value),
    "repro.network.simulator.SyncNetwork":
        lambda arg, value: SyncNetwork(value),
    "repro.network.message.SymbolBatch": lambda arg, value: SymbolBatch(
        "t", np.array([0]), np.array([1]), [5], bits=value
    ),
    "repro.service.serving.batcher.MicroBatcher":
        lambda arg, value: MicroBatcher(**_with(
            dict(max_batch=2, max_queue=4), arg, value
        )),
    "repro.service.serving.stats.ServingStats":
        lambda arg, value: ServingStats(value),
    "repro.service.serving.wire.instance_from_wire":
        lambda arg, value: wire.instance_from_wire(
            {"values": ["5"], arg: value}
        ),
    "repro.service.serving.wire.result_from_wire":
        lambda arg, value: wire.result_from_wire(
            _payload(_RESULT, arg, value)
        ),
    "repro.audit.transcript.Transcript.from_wire":
        lambda arg, value: Transcript.from_wire(
            _payload(_TRANSCRIPT, arg, value)
        ),
    "repro.coding.gf.GF.check_array":
        lambda arg, value: GF(4).check_array(value, arg),
    "repro.coding.reed_solomon.ReedSolomonCode.encode":
        lambda arg, value: ReedSolomonCode(7, 3, 4).encode(value),
    **{
        "repro.coding.gf.GF." + op:
            lambda arg, value, op=op: getattr(GF(4), op)(value, 2)
        for op in ("add", "mul")
    },
    "repro.broadcast_bit.interface.BroadcastBackend.broadcast_bit":
        lambda arg, value: AccountedIdealBroadcast(4, 1).broadcast_bit(
            source=value, bit=1, tag="x"
        ),
    "repro.broadcast_bit.ideal.AccountedIdealBroadcast.broadcast_bits_many":
        lambda arg, value: AccountedIdealBroadcast(4, 1).broadcast_bits_many(
            value, "x"
        ),
}

#: The error class each entry raises; every other entry raises ValueError.
ERRORS = {
    "repro.coding.gf.GF.check_array": GFElementError,
    "repro.coding.gf.GF.add": GFElementError,
    "repro.coding.gf.GF.mul": GFElementError,
    "repro.coding.reed_solomon.ReedSolomonCode.encode": GFElementError,
    # Admission wraps every refusal, a name that is not a str included.
    "repro.service.serving.server.ConsensusServer.submit":
        InvalidRequestError,
}


def _error(row, value) -> type:
    if row.entry in ERRORS:
        return ERRORS[row.entry]
    if row.argument in ("attack", "name") and type(value) is not str:
        # normalize_attack refuses a name that is not a str before the
        # lookup, as it always has.
        return TypeError
    return ValueError


def _call(row, value):
    place = row.place or (lambda drawn: drawn)
    return CALLS[row.entry](row.argument, place(value))


CHECKED = [row for row in TABLE if row.rule is not None]


@pytest.mark.parametrize(
    "row", CHECKED,
    ids=["%s:%s" % (row.entry, row.argument) for row in CHECKED],
)
def test_a_broken_value_is_refused_by_name(row):
    optional = row.rule.endswith("?")
    for value in DRAWS[row.rule.rstrip("?")]:
        if optional and value is None:
            continue
        with pytest.raises(_error(row, value)) as info:
            _call(row, value)
        assert (row.named or row.argument) in str(info.value), (
            value, info.value
        )
    _call(row, row.valid)
    if optional:
        _call(row, None)


def test_every_checked_entry_has_a_caller():
    assert {row.entry for row in CHECKED} == set(CALLS)
