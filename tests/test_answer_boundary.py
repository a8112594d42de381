"""The answer boundary, enforced on the source.

Every call of a hook in ``PID_HOOKS`` anywhere in ``src/repro`` must be
the argument of a reader from ``repro.processors.answers`` — so no
engine reads a faulty processor's answer by hand — and a reader that
takes a hook name must be told the hook it reads.  The adversary
classes that only delegate (the audit recorder and the two routers)
are exempt as classes.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.processors import answers
from repro.processors.adversary import PID_HOOKS

SOURCE = Path(repro.__file__).resolve().parent

#: Every reader the answers module exports.
READERS = frozenset(
    name for name, member in vars(answers).items()
    if inspect.isfunction(member) and not name.startswith("_")
    and member.__module__ == answers.__name__
)
#: Readers whose first argument names the hook they read.
NAMED_READERS = frozenset({"bit_answer", "message_bit"})
#: Classes that only hand a hook call on to another adversary.
DELEGATING = frozenset(
    {"DeviationRecorder", "CompositeAdversary", "AdaptiveAdversary"}
)


def _called(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def bare_reads(source: str):
    """``(line, hook)`` of every hook call in ``source`` that is not the
    argument of an answers reader (or is handed to a reader told another
    hook's name), outside the delegating classes."""
    tree = ast.parse(source)
    parent = {
        child: node for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PID_HOOKS
        ):
            continue
        hook = node.func.attr
        enclosing = parent.get(node)
        while enclosing is not None and not isinstance(
            enclosing, ast.ClassDef
        ):
            enclosing = parent.get(enclosing)
        if enclosing is not None and enclosing.name in DELEGATING:
            continue
        reader = parent.get(node)
        read = (
            isinstance(reader, ast.Call) and node in reader.args
            and _called(reader.func) in READERS
        )
        if read and _called(reader.func) in NAMED_READERS:
            named = reader.args[0]
            read = isinstance(named, ast.Constant) and named.value == hook
        if not read:
            found.append((node.lineno, hook))
    return found


def test_every_hook_answer_passes_a_reader():
    bare = {
        "%s:%d" % (path.relative_to(SOURCE), line): hook
        for path in sorted(SOURCE.rglob("*.py"))
        for line, hook in bare_reads(path.read_text(encoding="utf-8"))
    }
    assert bare == {}


def test_the_walk_sees_the_engines_reads():
    """The walk is not vacuous: the engines' reads are hook calls it
    visits, all of them through readers."""
    reads = sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in PID_HOOKS
        for path in SOURCE.rglob("*.py")
        if "audit" not in path.parts
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert reads >= 25


@pytest.mark.parametrize(
    "source, bare",
    [
        ("flag = bool(adversary.detected_flag(q, f, g, v))", True),
        ("row = self.adversary.m_row(i, honest, g, v)", True),
        ("if adversary.forge_signature(a, b, m, v):\n    pass", True),
        ("x = message_bit('king_bit', adversary.king_value(*a))", True),
        ("x = bit_answer(name, adversary.detected_flag(*a))", True),
        ("x = bit_answer('detected_flag', adversary.detected_flag(*a))",
         False),
        ("x = answers.m_row_bits(adversary.m_row(i, r, g, v), i, n)", False),
        ("class DeviationRecorder:\n"
         "    def m_row(self, *a):\n"
         "        return self.inner.m_row(*a)", False),
        ("class Engine:\n"
         "    def m_row(self, *a):\n"
         "        return self.inner.m_row(*a)", True),
    ],
    ids=[
        "truthiness", "held", "condition", "wrong_hook", "unnamed",
        "named", "row", "delegating_class", "other_class",
    ],
)
def test_the_check_finds_a_bare_read(source, bare):
    assert bool(bare_reads(source)) == bare
