"""The layering rule, enforced on the source.

The protocol packages — ``core``, ``coding``, ``graphs``, ``network``,
``processors``, ``broadcast_bit`` and ``utils`` — never import the
service or the audit tier (``repro.service``, ``repro.audit``), at
module level or inside a function: Algorithm 1 runs without them, and
the service batches and keys runs of it.  The allowlist names every
exception, one line each, and each must still be in use.

The scalar oracle (``core/generation.py``) stays independent of the
agreement rule: it never passes a held codeword (``near=``) to a code
or to the verdict, so the differential grid compares the rule with
interpolation, never with itself.

The judge of Theorem 1 (``core/invariants.py``) stays independent of
what it judges: it imports configuration, result records, Eq. (1) and
``B(n)``, and no engine, round, diagnosis, clique, coding or service
module, so a bug in shared stage code cannot hide from its own check.

``repro.utils``, where the boundary rules live, imports nothing else
of the package.  Every argument of a constructor or run-like method of
a class the boundary table (``tests/boundary_table.py``) lists has a
row there, so a new public argument cannot arrive without a rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SOURCE = Path(repro.__file__).resolve().parent

LOWER = (
    "core", "coding", "graphs", "network", "processors", "broadcast_bit",
    "utils",
)
UPPER = ("repro.service", "repro.audit")

#: ``(importing scope, imported module)``.
ALLOWED = frozenset({
    # The one-shot run's two doors, pinned by the benchmark's seams.
    ("repro.core.consensus:MultiValuedConsensus.run", "repro.service.engine"),
    ("repro.core.consensus:MultiValuedConsensus.run", "repro.service.cohort"),
    # The exchange arena, which the context builds and owns, until it
    # leaves the service package.
    ("repro.core.batched:CohortContext.arena", "repro.service.arena"),
})


def _is_module(dotted: str) -> bool:
    path = SOURCE.parent.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def imports(source: str, module: str):
    """``(scope, imported module)`` of every import in ``source`` (the
    text of ``module``); the scope is ``module:Qualified.name`` of the
    enclosing function, or ``module`` at module level."""
    tree = ast.parse(source)
    parent = {
        child: node for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    package = module.rpartition(".")[0]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = anchor + ("." + base if base else "")
            targets = [
                base + "." + alias.name
                if _is_module(base + "." + alias.name) else base
                for alias in node.names
            ]
        else:
            continue
        names = []
        enclosing = parent.get(node)
        while enclosing is not None:
            if isinstance(enclosing, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
            )):
                names.append(enclosing.name)
            enclosing = parent.get(enclosing)
        scope = module + (":" + ".".join(reversed(names)) if names else "")
        found.extend((scope, target) for target in targets)
    return found


def upward_imports(source: str, module: str):
    """The :func:`imports` of ``source`` that reach the service or the
    audit tier."""
    return [
        (scope, target) for scope, target in imports(source, module)
        if any(
            target == upper or target.startswith(upper + ".")
            for upper in UPPER
        )
    ]


def _lower_modules(packages=LOWER):
    for package in packages:
        for path in sorted((SOURCE / package).rglob("*.py")):
            parts = path.relative_to(SOURCE.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            yield ".".join(parts), path.read_text(encoding="utf-8")


def _allowed(scope: str, target: str) -> tuple:
    return (scope, target) if (scope, target) in ALLOWED else ()


def test_protocol_packages_never_import_the_service():
    found = [
        found for module, source in _lower_modules()
        for found in upward_imports(source, module)
    ]
    assert [entry for entry in found if not _allowed(*entry)] == []
    # Every allowlisted exception is still taken: a dropped import
    # retires its line.
    assert {_allowed(*entry) for entry in found} == ALLOWED


def test_utils_imports_nothing_above_it():
    # The boundary rules live in repro.utils, which every package reads.
    assert [
        (scope, target) for module, source in _lower_modules(("utils",))
        for scope, target in imports(source, module)
        if target.split(".")[0] == "repro"
        and not target.startswith("repro.utils")
    ] == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from repro.service.engine import execute_consensus",
         [("repro.core.m", "repro.service.engine")]),
        ("def f():\n    import repro.audit.replay",
         [("repro.core.m:f", "repro.audit.replay")]),
        ("class C:\n    def run(self):\n        from repro.service import"
         " cohort", [("repro.core.m:C.run", "repro.service.cohort")]),
        ("from repro import service", [("repro.core.m", "repro.service")]),
        ("from ..service.arena import ExchangeArena",
         [("repro.core.m", "repro.service.arena")]),
        ("from repro.core.planner import Lane", []),
        ("import repro.serviceable", []),
    ],
    ids=[
        "module_level", "function_level", "method_level", "package",
        "relative", "sideways", "prefix_only",
    ],
)
def test_the_walk_finds_an_upward_import(source, found):
    assert upward_imports(source, "repro.core.m") == found


def near_arguments(source: str):
    """Line numbers of every call in ``source`` that passes ``near=``."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and any(keyword.arg == "near" for keyword in node.keywords)
    ]


def test_the_scalar_oracle_never_counts_agreement():
    source = (SOURCE / "core" / "generation.py").read_text(encoding="utf-8")
    assert near_arguments(source) == []


def test_the_walk_finds_a_near_argument():
    assert near_arguments(
        "ok = code.is_consistent(symbols)\n"
        "word = code.codeword_through(\n    symbols, near=held)\n"
    ) == [2]


#: Everything the judge of Theorem 1 may import from the package.
JUDGE_IMPORTS = frozenset({
    "repro.core.config", "repro.core.result", "repro.analysis.complexity",
    "repro.broadcast_bit.ideal",
})


def forbidden_imports(source: str):
    """The package modules ``source`` (as ``repro.core.invariants``)
    imports that the judge may not."""
    return sorted(
        target for _, target in imports(source, "repro.core.invariants")
        if target.split(".")[0] == "repro" and target not in JUDGE_IMPORTS
    )


def test_the_judge_imports_no_stage_code():
    source = (SOURCE / "core" / "invariants.py").read_text(encoding="utf-8")
    assert forbidden_imports(source) == []


def test_the_walk_finds_stage_code_in_the_judge():
    assert forbidden_imports(
        "from fractions import Fraction\n"
        "from repro.core.result import ConsensusResult\n"
        "from . import rounds\n"
        "def f():\n    from repro.coding.reed_solomon import FAR\n"
    ) == ["repro.coding.reed_solomon", "repro.core.rounds"]


#: Methods that take a run's arguments, beside the constructor.
RUN_LIKE = frozenset(
    {"create", "run", "run_many", "submit", "record", "validate"}
)


def _parameters(function):
    arguments = function.args
    names = [
        arg.arg for arg in (
            arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        )
    ]
    return [name for name in names if name not in ("self", "cls")]


def boundary_parameters(source: str, name: str):
    """``(callable, argument)`` of every parameter of class ``name``'s
    constructor (a dataclass's fields, or ``__init__``) and of its
    run-like methods, in ``source``."""
    [cls] = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == name
    ]
    found = []
    if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        found.extend(
            (name, node.target.id) for node in cls.body
            if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and "ClassVar" not in ast.unparse(node.annotation)
        )
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node.name in RUN_LIKE or node.name == "__init__"
        ):
            found.extend(
                ("%s.%s" % (name, node.name), argument)
                for argument in _parameters(node)
            )
    return found


def _listed_classes():
    """``dotted class path -> arguments with a row``, for every class
    whose constructor or a run-like method is a table entry."""
    from tests.boundary_table import TABLE

    listed = {}
    for row in TABLE:
        path, _, last = row.entry.rpartition(".")
        if last in RUN_LIKE:
            listed.setdefault(path, set()).add(row.argument)
        elif last[0].isupper():
            listed.setdefault(row.entry, set()).add(row.argument)
    return listed


def test_every_boundary_argument_has_a_row():
    missing = []
    for path, rows in sorted(_listed_classes().items()):
        module, _, name = path.rpartition(".")
        source = SOURCE.parent.joinpath(*module.split(".")).with_suffix(
            ".py"
        ).read_text(encoding="utf-8")
        missing.extend(
            "%s.%s(%s)" % (module, where, argument)
            for where, argument in boundary_parameters(source, name)
            if argument not in rows
        )
    assert missing == []


def test_the_walk_finds_every_boundary_parameter():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    n: int\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "    def run(self, inputs, *, seed=0):\n        pass\n"
        "    async def submit(self, value):\n        pass\n"
        "    def helper(self, other):\n        pass\n"
        "class Other:\n"
        "    def __init__(self, t):\n        pass\n"
    )
    assert boundary_parameters(source, "Spec") == [
        ("Spec", "n"), ("Spec.run", "inputs"), ("Spec.run", "seed"),
        ("Spec.submit", "value"),
    ]
    assert boundary_parameters(source, "Other") == [("Other.__init__", "t")]
