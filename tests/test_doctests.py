"""Execute the doctest examples embedded in the library's docstrings,
and resolve every annotation.

The usage examples in module and class docstrings and the type
annotations are the documentation tools read; this keeps them honest.
"""

import doctest
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import typing

import pytest

import repro


def doctest_modules():
    """Every module of the package whose source holds a ``>>>``
    example, found by walking the package (``repro.audit`` re-exports
    ``compare()``/``replay()`` under the submodule names, so a module
    is taken from the import system, never by attribute)."""
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        if ">>>" in inspect.getsource(module):
            modules.append(module)
    return modules


MODULES = doctest_modules()


def test_the_walk_finds_the_doctests():
    assert len(MODULES) >= 21
    assert "repro.network.simulator" in {m.__name__ for m in MODULES}


@pytest.mark.parametrize(
    "module", MODULES, ids=[module.__name__ for module in MODULES]
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, (
        "expected at least one doctest in %s" % module.__name__
    )
    assert result.failed == 0


def annotated_callables(module):
    """Every function, and every method, property getter, classmethod
    and staticmethod of every class, defined in ``module``."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                member = getattr(member, "fget", member)
                if inspect.isfunction(member):
                    yield "%s.%s" % (name, attr), member


def test_every_annotation_resolves():
    """A name used in an annotation but never imported raises only when
    a tool evaluates it (``typing.get_type_hints``, ruff's F821) — with
    ``from __future__ import annotations`` the interpreter never does."""
    # The one name the package can only import for type checkers
    # (service/engine.py, an import cycle).
    localns = {"MultiValuedConsensus": repro.MultiValuedConsensus}
    unresolved = []
    checked = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, function in annotated_callables(module):
            checked += 1
            try:
                typing.get_type_hints(function, localns=localns)
            except NameError as error:
                unresolved.append("%s.%s: %s" % (info.name, name, error))
    assert checked > 500 and unresolved == []


def test_a_citation_names_a_member_its_file_defines(tmp_path):
    """``tools/check_links.py`` on ``file.py::Name``: a renamed test or
    helper fails the docs job instead of leaving a citation behind."""
    location = importlib.util.spec_from_file_location(
        "check_links",
        pathlib.Path(__file__).parent.parent / "tools" / "check_links.py",
    )
    check_links = importlib.util.module_from_spec(location)
    location.loader.exec_module(check_links)
    fixture = tmp_path / "fixture.md"
    fixture.write_text(
        "`tests/test_service.py::TestRetention`,"
        " `core/generation.py::_send_matching_symbols`\n"
    )
    assert check_links.check_file(fixture) == []
    fixture.write_text("`tests/test_service.py::NoSuchClass`\n")
    [problem] = check_links.check_file(fixture)
    assert "tests/test_service.py::NoSuchClass" in problem
    # Class.method: the method must be defined in that class's body.
    fixture.write_text(
        "`broadcast_bit/ideal.py::AccountedIdealBroadcast._row_loop`\n"
    )
    assert check_links.check_file(fixture) == []
    fixture.write_text(
        "`broadcast_bit/interface.py::"
        "BroadcastBackend.broadcast_bits_many_grouped`\n"
    )
    [problem] = check_links.check_file(fixture)
    assert "BroadcastBackend.broadcast_bits_many_grouped" in problem


def test_a_class_member_citation_names_a_member_of_that_class(tmp_path):
    """``tools/check_links.py`` on a backticked ``Class.member``: a
    moved method fails the docs job instead of leaving its old owner
    cited."""
    location = importlib.util.spec_from_file_location(
        "check_links",
        pathlib.Path(__file__).parent.parent / "tools" / "check_links.py",
    )
    check_links = importlib.util.module_from_spec(location)
    location.loader.exec_module(check_links)
    fixture = tmp_path / "fixture.md"
    # A method, an inherited one, a self. attribute and a slot.
    fixture.write_text(
        "`CohortContext.match_info_for`,"
        " `AccountedIdealBroadcast.broadcast_bit`,"
        " `GenerationProtocol.graph`, `~repro.core.batched._Plan.checks`\n"
    )
    assert check_links.check_file(fixture) == []
    fixture.write_text(
        ":meth:`GenerationProtocol._diagnosis_stage_vec`,"
        " `SyncNetwork.send_many`\n"
    )
    [problem] = check_links.check_file(fixture)
    assert "GenerationProtocol._diagnosis_stage_vec" in problem


def test_a_dotted_citation_names_a_module_that_defines_it(tmp_path):
    """``tools/check_links.py`` on a backticked ``repro.…`` name: a
    moved or deleted module fails the docs job instead of leaving its
    dotted citations behind."""
    location = importlib.util.spec_from_file_location(
        "check_links",
        pathlib.Path(__file__).parent.parent / "tools" / "check_links.py",
    )
    check_links = importlib.util.module_from_spec(location)
    location.loader.exec_module(check_links)
    fixture = tmp_path / "fixture.md"
    # A module, a function, a package's import, a class member, a
    # module-level name, Sphinx's ``~`` and a call.
    fixture.write_text(
        "`repro.service.cohort`, `repro.core.planner.plan_lane`,"
        " `repro.ConsensusService`, `~repro.core.planner.Lane.COHORT`,"
        " `repro.core.batched.MAX_PATTERN_ENTRIES`,"
        " `repro.service.engine.execute_consensus()`\n"
    )
    assert check_links.check_file(fixture) == []
    for stale in (
        "repro.service.planner.plan_lane", "repro.service.cohort.sent_run",
        "~repro.service.cohort._Plan.checks", "repro.core.nowhere",
    ):
        fixture.write_text("`%s`\n" % stale)
        [problem] = check_links.check_file(fixture)
        assert stale.lstrip("~") in problem


def test_an_entry_from_45_on_carries_its_benchmark_pairs(
    tmp_path, monkeypatch
):
    """``tools/check_links.py`` on ``CHANGES.md``: from entry 45 on, the
    entry's own measurements file holds its benchmark pairs as exactly
    one fenced ``json`` block, an object with a non-empty ``"pairs"``
    list; entry 44 is held to the older rule only."""
    location = importlib.util.spec_from_file_location(
        "check_links",
        pathlib.Path(__file__).parent.parent / "tools" / "check_links.py",
    )
    check_links = importlib.util.module_from_spec(location)
    location.loader.exec_module(check_links)
    monkeypatch.setattr(check_links, "REPO_ROOT", tmp_path)
    measurements = tmp_path / "docs" / "measurements"
    measurements.mkdir(parents=True)
    (measurements / "pr44-old.md").write_text("# no pairs block\n")
    changes = tmp_path / "CHANGES.md"

    def problems(body):
        (measurements / "pr45-new.md").write_text(body)
        changes.write_text(
            "PR 44: old (docs/measurements/pr44-old.md).\n"
            "PR 45: new (docs/measurements/pr45-new.md).\n"
        )
        return check_links.check_changes(changes)

    block = '```json\n{"pairs": [{"workload": "w"}]}\n```\n'
    assert problems("# PR 45\n\n" + block) == []
    for body, expected in (
        ("# no block\n", "0 fenced json blocks"),
        (block + block, "2 fenced json blocks"),
        ('```json\n{"pairs": [\n```\n', "does not parse"),
        ('```json\n{"pairs": []}\n```\n', 'non-empty "pairs" list'),
        ("```json\n[1, 2]\n```\n", 'non-empty "pairs" list'),
    ):
        [problem] = problems(body)
        assert "PR 45" in problem and expected in problem
    # An entry that names only another entry's file has no pairs file.
    changes.write_text("PR 46: cites (docs/measurements/pr45-new.md).\n")
    [problem] = check_links.check_changes(changes)
    assert "pr46-*.md" in problem
