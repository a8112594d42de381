"""The declared boundary table: one row per (public entry, argument).

Each row names the entry by its dotted path, the argument, and the rule
of :mod:`repro.utils.boundary` the entry reads it by.  ``tests/
test_boundary.py`` walks the table with generated values, and
``tests/test_layering.py`` fails when a public constructor or run-like
method of a listed class takes an argument with no row.

A rule is one of:

* ``"int"`` — :func:`~repro.utils.boundary.check_int`;
* ``"pid"`` — :func:`~repro.utils.boundary.check_pid` (n = 4);
* ``"value"`` — :func:`~repro.utils.boundary.check_input_value`
  (L = 16);
* ``"choice"`` — :func:`~repro.utils.boundary.check_choice`;
* ``"probability"`` — :func:`~repro.utils.boundary.check_probability`;
* ``"index"`` — a wire table index (an exact int below the table's
  length);
* ``"engine"`` — :func:`~repro.utils.boundary.engine_int`, on a 4-bit
  field (an element is below 16);
* ``"width"`` — :func:`~repro.utils.boundary.engine_int`, non-negative
  (a bit width);
* ``None`` — not a boundary value: a live object the caller owns, a
  flag, or a record checked by its own constructor.

A rule ending in ``?`` takes ``None`` too (derived or inherited).

``place`` puts one drawn value where the entry reads it (an element of
a sequence argument), ``valid`` is a value the rule accepts there, and
``named`` is how the entry's message names the argument, when not by
its own name.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

Row = namedtuple(
    "Row", "entry argument rule valid place named", defaults=(None, None)
)

_CONFIG = "repro.core.config.ConsensusConfig"
_SPEC = "repro.service.spec.RunSpec"
_INSTANCE = "repro.service.spec.InstanceSpec.validate"
_BROADCAST = "repro.core.broadcast.MultiValuedBroadcast"
_BITWISE = "repro.baselines.bitwise.BitwiseConsensus"
_FH = "repro.baselines.fitzi_hirt.FitziHirtConsensus"
_HASH = "repro.baselines.hashing.PolynomialHash"
_RULE = "repro.faults.plan.FaultRule"
_WIRE = "repro.service.serving.wire."
_RUN = "repro.core.consensus.MultiValuedConsensus"
_SERVICE = "repro.service.service.ConsensusService"
_SERVER = "repro.service.serving.server.ConsensusServer"
_BATCHER = "repro.service.serving.batcher.MicroBatcher"


def _first(value):
    """``value`` as the first of four inputs."""
    return (value, 5, 5, 5)


def _one(value):
    return (value,)


TABLE = (
    # -- a deployment ---------------------------------------------------
    *(Row(entry, name, "int", valid)
      for entry in (_CONFIG, _CONFIG + ".create")
      for name, valid in (
          ("n", 4), ("l_bits", 16), ("kappa", 8), ("coin_seed", 3)
      )),
    Row(_CONFIG, "t", "int", 1),
    Row(_CONFIG, "d_bits", "int", 8),
    Row(_CONFIG, "symbol_bits", "int", 4),
    Row(_CONFIG + ".create", "t", "int?", 1),
    Row(_CONFIG + ".create", "d_bits", "int?", 8),
    *(Row(entry, "backend", "choice", "eig")
      for entry in (_CONFIG, _CONFIG + ".create", _SPEC, _BROADCAST)),
    *(Row(entry, "default_value", "value", 7)
      for entry in (_CONFIG, _CONFIG + ".create", _BROADCAST, _FH)),
    *(Row(entry, "allow_t_ge_n3", None, False)
      for entry in (_CONFIG, _CONFIG + ".create", _SPEC)),
    *(Row(_SPEC, name, "int", valid) for name, valid in (
        ("n", 4), ("l_bits", 16), ("kappa", 8), ("seed", 3),
        ("default_value", 7),
    )),
    Row(_SPEC, "t", "int?", 1),
    Row(_SPEC, "d_bits", "int?", 8),
    # Refused by type where the spec is written; as a pid of the
    # deployment where an instance enters.
    Row(_SPEC, "faulty", "int", 3, _one),
    # Refused where an instance enters, by name.
    Row(_SPEC, "attack", None, "crash"),
    Row(_SPEC, "vectorized", None, False),
    Row(_SPEC, "batch_generations", None, False),
    # -- an instance, where it enters ----------------------------------
    Row(_INSTANCE, "inputs", "value", 7, _first, "input value"),
    Row(_INSTANCE, "seed", "int?", 3),
    Row(_INSTANCE, "faulty", "pid", 3, _one),
    Row(_INSTANCE, "attack", "choice?", "crash"),
    Row(_INSTANCE, "spec", None, None),
    # -- a run, one-shot or through the service -------------------------
    Row(_RUN + ".run", "inputs", "value", 7, _first, "input value"),
    *(Row(_RUN, name, None, None) for name in (
        "config", "adversary", "meter", "batch_generations", "vectorized",
        "context", "journal",
    )),
    *(Row(_SERVICE + method, "inputs", "value", 7, _first, "input value")
      for method in (".run", ".submit", ".record")),
    *(Row(_SERVICE + method, name, rule, valid, place)
      for method in (".run", ".submit", ".record")
      for name, rule, valid, place in (
          ("seed", "int?", 3, None), ("faulty", "pid", 3, _one),
          ("attack", "choice?", "crash", None),
      )),
    Row(_SERVICE + ".run_many", "instances", "value", 7,
        lambda value: [_first(value)], "input value"),
    *(Row(_SERVICE, name, None, None) for name in (
        "config_or_spec", "reuse_results", "adversary", "key",
    )),
    # -- the serving front-end --------------------------------------------
    Row(_SERVER, "max_batch", "int", 8),
    Row(_SERVER, "max_queue", "int", 16),
    Row(_SERVER + ".submit", "inputs", "value", 7, _first, "input value"),
    Row(_SERVER + ".submit", "seed", "int?", 3),
    Row(_SERVER + ".submit", "faulty", "pid", 3, _one),
    Row(_SERVER + ".submit", "attack", "choice?", "crash"),
    # A deployment (the constructor's, or a submit's target) and the
    # recording flag.
    Row(_SERVER, "spec", None, None),
    Row(_SERVER + ".submit", "transcript", None, False),
    Row(_BATCHER, "max_batch", "int", 2),
    Row(_BATCHER, "max_queue", "int", 4),
    Row("repro.service.serving.stats.ServingStats", "sample_cap", "int", 8),
    # -- the §4 broadcast ------------------------------------------------
    Row(_BROADCAST, "n", "int", 4),
    Row(_BROADCAST, "l_bits", "int", 16),
    Row(_BROADCAST, "t", "int?", 1),
    Row(_BROADCAST, "d_bits", "int?", 8),
    *(Row(_BROADCAST, name, None, None)
      for name in ("adversary", "meter", "graph")),
    Row(_BROADCAST + ".run", "source", "pid", 3),
    Row(_BROADCAST + ".run", "value", "value", 7),
    # -- the baselines ---------------------------------------------------
    *(Row(entry, name, "int", valid) for entry in (_BITWISE, _FH)
      for name, valid in (("n", 4), ("t", 1), ("l_bits", 16))),
    Row(_FH, "kappa", "int", 8),
    Row(_FH, "key_seed", "int", 3),
    *(Row(entry, "substrate", "choice", "phase_king")
      for entry in (_BITWISE, _FH)),
    *(Row(entry, name, None, None) for entry in (_BITWISE, _FH)
      for name in ("adversary", "meter")),
    *(Row(entry + ".run", "inputs", "value", 7, _first, "input value")
      for entry in (_BITWISE, _FH)),
    Row(_HASH, "l_bits", "int", 16),
    Row(_HASH, "kappa", "int", 8),
    Row(_HASH + ".coefficients", "value", "value", 7),
    # -- fault plans -------------------------------------------------------
    Row(_RULE, "kind", "choice", "delay"),
    Row(_RULE, "rounds", "int", 3, lambda value: (0, value)),
    Row(_RULE, "senders", "int", 3, _one),
    Row(_RULE, "receivers", "int", 3, _one),
    Row(_RULE, "groups", "int", 3, lambda value: (_one(value),)),
    Row(_RULE, "probability", "probability", 0.5),
    Row(_RULE, "delay", "int", 2),
    Row(_RULE, "copies", "int", 2),
    Row(_RULE, "tag_substring", None, "matching"),
    Row("repro.faults.plan.FaultPlan", "seed", "int", 3),
    Row("repro.faults.plan.FaultPlan", "rules", None, ()),
    # -- the attack registry --------------------------------------------
    Row("repro.processors.registry.make_attack", "name", "choice", "random",
        named="attack"),
    *(Row("repro.processors.registry.make_attack", name, "int", valid)
      for name, valid in (("n", 4), ("t", 1), ("l_bits", 16), ("seed", 3))),
    Row("repro.processors.registry.make_attack", "faulty", "pid", 3, _one),
    # Every adversary's faulty set, where it is built (its range is the
    # engine's to check, where n is known).
    Row("repro.processors.adversary.Adversary", "faulty", "int", 3, _one,
        "faulty pid"),
    # -- the diagnosis graph ---------------------------------------------
    Row("repro.graphs.diagnosis_graph.DiagnosisGraph", "n", "int", 4),
    # -- the network -----------------------------------------------------
    Row("repro.network.simulator.SyncNetwork", "n", "int", 4),
    *(Row("repro.network.simulator.SyncNetwork", name, None, None)
      for name in ("meter", "journal")),
    Row("repro.network.message.SymbolBatch", "bits", "width", 4),
    # The edge arrays and the payloads are checked by send_many, which
    # builds every batch; tag and round are the network's own.
    *(Row("repro.network.message.SymbolBatch", name, None, None)
      for name in ("tag", "senders", "receivers", "payloads",
                   "round_index")),
    # -- the wire and the transcript --------------------------------------
    Row(_WIRE + "instance_from_wire", "inputs", "index", 0,
        lambda value: [value] * 4),
    Row(_WIRE + "result_from_wire", "decisions", "index", 0),
    Row(_WIRE + "result_from_wire", "common_input", "index?", 0),
    Row(_WIRE + "result_from_wire", "generations", "index", 0),
    Row("repro.audit.transcript.Transcript.from_wire", "format", "int", 4),
    # -- engine integers ---------------------------------------------------
    Row("repro.coding.gf.GF.check_array", "values", "engine", np.int64(7),
        lambda value: [value, 2]),
    Row("repro.coding.reed_solomon.ReedSolomonCode.encode", "data", "engine",
        np.int64(7), lambda value: [value, 2, 3]),
    *(Row("repro.coding.gf.GF." + op, "a", "engine", np.int64(7),
          named="GF(2^4)") for op in ("add", "mul")),
    # -- Broadcast_Single_Bit backends -------------------------------------
    Row("repro.broadcast_bit.interface.BroadcastBackend.broadcast_bit",
        "source", "pid", 3),
    Row("repro.broadcast_bit.ideal.AccountedIdealBroadcast"
        ".broadcast_bits_many", "source", "pid", 3,
        lambda value: [(value, [1])]),
)
