"""The seam table: which callables of each layer the traced run wraps.

Each :class:`Seam` names one row of the per-layer breakdown and the
callables whose time (or calls) it collects.  :func:`install` patches
them by ``setattr`` from here — ``src/`` is never edited — and
:meth:`Installed.uninstall` puts every original back.

Two details keep the numbers honest:

* a function imported by name elsewhere (``server.py`` does ``from
  ...wire import result_to_wire``) has one binding per importer, so
  every ``repro`` module is scanned and each binding of the original
  object is replaced;
* a method overridden in a subclass (``AccountedIdealBroadcast``
  overrides ``broadcast_bits_many_grouped``) is patched on every class
  that defines it, not only on the base.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import types
from typing import Callable, List, NamedTuple, Tuple

from perf.spans import Recorder

SPAN, LEAF, COUNT = "span", "leaf", "count"

#: Attribute marking a wrapper, so an untraced run can prove none is in.
MARK = "__perf_seam__"


class Seam(NamedTuple):
    name: str
    kind: str
    #: ``"module:function"``, ``"module:Class.method"`` or, for a
    #: library function a module calls through its own import,
    #: ``"module:json.dumps"`` (that module's ``json`` name is rebound to
    #: a wrapped copy; the real ``json`` module is left alone).
    targets: Tuple[str, ...]
    #: For functions: patch only these modules' bindings (default: every
    #: ``repro`` module that holds one).
    only_in: Tuple[str, ...] = ()


_RS = "repro.coding.reed_solomon:ReedSolomonCode."
_IL = "repro.coding.interleaved:InterleavedCode."
_NET = "repro.network.simulator:SyncNetwork."
_BB = "repro.broadcast_bit.interface:BroadcastBackend."
_MVC = "repro.core.consensus:MultiValuedConsensus."
_SVC = "repro.service.service:ConsensusService."
_ARENA = "repro.service.arena:ExchangeArena."
_BITS = "repro.utils.bits:PackedBits."

SEAMS: Tuple[Seam, ...] = (
    # service.serving.  The wire codec is also used by the audit tier to
    # seal results, so the serving seams patch the *serving* bindings
    # only: a call counted here crossed the TCP wire.
    Seam("serving.wire.encode", SPAN,
         ("repro.service.serving.wire:result_to_wire",),
         only_in=("repro.service.serving.server",)),
    Seam("serving.wire.decode", SPAN,
         ("repro.service.serving.wire:result_from_wire",),
         only_in=("repro.service.serving.sdk",)),
    Seam("serving.wire.encode", SPAN, (
        "repro.service.serving.server:json.dumps",
        "repro.service.serving.sdk:json.dumps",
    )),
    Seam("serving.wire.decode", SPAN, (
        "repro.service.serving.server:json.loads",
        "repro.service.serving.sdk:json.loads",
    )),
    Seam("serving.submit_many", SPAN,
         ("repro.service.serving.sdk:ServingClient.submit_many",)),
    # service.  ``_run_many_local`` is private, but it is the one place
    # ``run_many`` and the serving tier's ``AsyncExecutor`` both enter.
    Seam("service.run_many", SPAN,
         (_SVC + "run_many", _SVC + "_run_many_local")),
    Seam("service.cohort.instance", SPAN,
         ("repro.service.cohort:run_cohort_instance",)),
    Seam("service.engine.execute", SPAN,
         ("repro.service.engine:execute_consensus",)),
    Seam("service.engine.prepare", SPAN,
         ("repro.service.engine:prepare_instance",)),
    Seam("service.engine.finalize", SPAN,
         ("repro.service.engine:finalize_result",)),
    Seam("service.arena.acquire", COUNT, tuple(
        _ARENA + view for view in (
            "exchange_view", "codeword_view", "m_view", "adjacency_view",
            "detected_view", "trust_view",
        ))),
    # core
    Seam("core.generation.run", SPAN,
         ("repro.core.generation:GenerationProtocol.run",)),
    Seam("core.consensus.split", SPAN,
         (_MVC + "parts_of", _MVC + "parts_for", _MVC + "value_of")),
    # coding
    Seam("coding.encode", SPAN, (
        _RS + "encode", _RS + "encode_many", _RS + "encode_generations",
        _IL + "encode", _IL + "encode_generations",
    )),
    Seam("coding.decode", SPAN, (
        _RS + "decode", _RS + "decode_subset", _RS + "extend",
        _RS + "extend_many", _RS + "codeword_through",
        _RS + "codeword_through_many", _RS + "is_consistent",
        _RS + "is_codeword", _RS + "syndrome_many",
        _IL + "decode", _IL + "decode_subset", _IL + "codeword_through",
        _IL + "is_consistent", _IL + "is_codeword",
    )),
    # network
    Seam("network.send", SPAN, (_NET + "send", _NET + "send_many")),
    Seam("network.deliver", SPAN,
         (_NET + "deliver", _NET + "deliver_arrays")),
    Seam("network.charge", SPAN, (_NET + "charge_round",)),
    # broadcast_bit
    Seam("broadcast_bit.many", SPAN, (
        _BB + "broadcast_bit", _BB + "broadcast_bits",
        _BB + "broadcast_bits_many",
        "repro.broadcast_bit.ideal:AccountedIdealBroadcast"
        ".broadcast_rows_flat",
    )),
    Seam("broadcast_bit.grouped", SPAN,
         (_BB + "broadcast_bits_many_grouped",)),
    Seam("broadcast_bit.charge", SPAN, (_BB + "charge_honest_instances",)),
    # graphs
    Seam("graphs.clique", SPAN, (
        "repro.graphs.cliques:find_clique",
        "repro.graphs.cliques:find_clique_matrix",
    )),
    # utils.bits: hot leaves, aggregated (see perf.spans)
    Seam("utils.bits.convert", LEAF, tuple(
        _BITS + method for method in (
            "from_bits", "from_int", "to_int", "tolist", "to_array",
        ))),
    # processors
    Seam("processors.make_attack", SPAN,
         ("repro.processors.registry:make_attack",)),
    # audit
    Seam("audit.record", SPAN, (_SVC + "record",)),
    # Transcript.verify is the audit's explicit verification; replay's
    # own second verification stays inside audit.replay.
    Seam("audit.verify", SPAN,
         ("repro.audit.transcript:Transcript.verify",)),
    Seam("audit.replay", SPAN, ("repro.audit.replay:replay",)),
    Seam("audit.prove", SPAN, ("repro.audit.replay:prove",)),
)


def _repro_modules() -> List:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


def _import_all_repro() -> None:
    """Import every ``repro`` submodule before patching.  A module first
    imported *after* install would bind wrapped functions by name and
    keep them past uninstall."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _resolve(target: str):
    """``(module, owner name or None, attribute name)`` of a target."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner, _, attr = path.rpartition(".")
    return module, owner or None, attr


class Installed:
    """The patches one :func:`install` made; undo with
    :meth:`uninstall`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def _set(self, owner, attr: str, new, old) -> None:
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _holders(seam: Seam, module, owner_name, attr: str) -> List:
    """The namespaces whose ``attr`` binding a target patches."""
    if owner_name is None:
        if seam.only_in:
            return [sys.modules[name] for name in seam.only_in]
        original = getattr(module, attr)
        return [
            home for home in _repro_modules()
            if any(value is original for value in vars(home).values())
        ]
    owner = getattr(module, owner_name)
    if isinstance(owner, types.ModuleType):
        return [owner]
    return [
        cls for cls in [owner] + _subclasses(owner) if attr in vars(cls)
    ]


def install(recorder: Recorder) -> Installed:
    """Wrap every target of :data:`SEAMS` with ``recorder``'s wrappers."""
    _import_all_repro()
    wrappers = {
        SPAN: recorder.wrap_span,
        LEAF: recorder.wrap_leaf,
        COUNT: recorder.wrap_count,
    }
    installed = Installed()

    def marked(seam: Seam, fn: Callable) -> Callable:
        wrapped = wrappers[seam.kind](seam.name, fn)
        setattr(wrapped, MARK, seam.name)
        return wrapped

    for seam in SEAMS:
        for target in seam.targets:
            module, owner_name, attr = _resolve(target)
            if owner_name is None:
                original = getattr(module, attr)
                wrapped = marked(seam, original)
                for home in _holders(seam, module, None, attr):
                    for name, value in list(vars(home).items()):
                        if value is original:
                            installed._set(home, name, wrapped, original)
                continue
            for holder in _holders(seam, module, owner_name, attr):
                if isinstance(holder, types.ModuleType):
                    if not getattr(holder, MARK, None):
                        copy = types.ModuleType(holder.__name__)
                        vars(copy).update(vars(holder))
                        setattr(copy, MARK, "copy")
                        installed._set(module, owner_name, copy, holder)
                        holder = copy
                    setattr(holder, attr, marked(seam, getattr(holder, attr)))
                    continue
                raw = vars(holder)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(marked(seam, raw.__func__))
                else:
                    new = marked(seam, raw)
                installed._set(holder, attr, new, raw)
    return installed


def installed_seams() -> List[str]:
    """Targets that currently resolve to a wrapper — empty in an
    untraced run, which asserts exactly that."""
    found = []
    for seam in SEAMS:
        for target in seam.targets:
            module, owner_name, attr = _resolve(target)
            holders = (
                _holders(seam, module, owner_name, attr)
                if owner_name or seam.only_in else [module]
            )
            for holder in holders:
                raw = vars(holder).get(attr)
                fn = getattr(raw, "__func__", raw)
                if getattr(fn, MARK, None) is not None:
                    found.append("%s (in %s)" % (target, holder.__name__))
    return found
