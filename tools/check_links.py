#!/usr/bin/env python3
"""Internal link checker for the repo's markdown documentation.

Scans the given markdown files (default: ``README.md`` and
``docs/*.md``), the ``run:`` lines of the CI workflow and the library's
docstrings for references that point *into the repository* and fails
when a target does not
exist, so stale docs — and a workflow step naming a deleted script —
fail the build:

* inline links and images — ``[text](target)`` / ``![alt](target)``;
* reference-style definitions — ``[label]: target``;
* backtick-quoted repo paths — ```` `src/repro/core/consensus.py` ````
  and friends (any backtick span that looks like a path under a
  known top-level directory, or a tracked top-level file);
* prose mentions of repo paths such as ``docs/ARCHITECTURE.md`` or
  ``benchmarks/bench_complexity.py`` outside code fences;
* in ``.github/workflows/ci.yml``, every repo path a ``run:`` command
  names (a glob such as ``benchmarks/bench_*.py`` must match a file);
* in ``CHANGES.md`` (any file of that name), the house rule for entries
  numbered 22 and up: one line of at most 1 200 characters that names a
  ``docs/measurements/*.md`` file which exists.  Older entries name
  files since deleted and are not link-checked.  From entry 45 on, the
  entry also names its own ``docs/measurements/prN-*.md`` file, which
  carries the change's benchmark pairs as exactly one fenced ``json``
  block: an object whose ``"pairs"`` is a non-empty list, so a script
  can read every measured pair without parsing tables;
* member citations — ``tests/test_service.py::TestRetention``,
  ``core/generation.py::_send_matching_symbols``,
  ``broadcast_bit/ideal.py::AccountedIdealBroadcast._row_loop`` (a path
  not under a top-level directory is looked up under ``src/repro/``) —
  in the markdown files and in the docstrings of ``src/repro/**/*.py``:
  the file must define ``class Name`` or ``def Name``, and for
  ``Class.method`` a ``def method`` inside that class, so renaming or
  deleting a cited member cannot leave the citation behind;
* member citations by class — a backtick span ``Class.member``,
  ``Class.member()`` or ``~repro.module.Class.member`` — in the same
  files, for any ``Class`` defined under ``src/repro/``: the member
  must be a method, a class-level name, a ``__slots__`` entry or a
  ``self.`` attribute of that class or of a base defined there (a class
  with a base from outside ``src/repro/`` other than ``object`` or
  ``ABC`` is not checked for the members it may inherit from it);
* dotted module citations — a backtick span ``repro.pkg.module``,
  ``repro.pkg.module.name`` or ``~repro.pkg.module.Class.member``
  (optionally called) — in the same files: the longest dotted prefix
  must be a module or package under ``src/repro/``, and a name after
  it must be one that module defines at its top level (a class,
  function or assignment; a package's imports count), so moving or
  deleting a module cannot leave its dotted citations behind.

External targets (``http(s)://``, ``mailto:``) are only validated
syntactically — CI must not depend on the network — and intra-document
anchors (``#section``) are checked against the file's headings.

Usage::

    python tools/check_links.py                # default file set
    python tools/check_links.py README.md docs/*.md
"""

from __future__ import annotations

import ast
import functools
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Top-level directories whose paths we expect docs to reference.
KNOWN_DIRS = (
    "src", "tests", "benchmarks", "examples", "docs", "tools", "perf",
    ".github",
)
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
CHANGES = REPO_ROOT / "CHANGES.md"
#: The first entry held to the house rule, and the rule's length limit.
CHANGES_ENFORCED_FROM = 22
CHANGES_ENTRY_LIMIT = 1200
#: The first entry whose measurements file holds its benchmark pairs.
PAIRS_ENFORCED_FROM = 45

INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFERENCE_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
BACKTICK_SPAN = re.compile(r"`([^`\n]+)`")
#: A repo path in prose or in a shell command; may be a glob.
PROSE_PATH = re.compile(
    r"(?<![\w`/.-])((?:%s)/[\w./*-]+)" % "|".join(KNOWN_DIRS)
)
RUN_KEY = re.compile(r"^(\s*)(?:- )?run:(.*)$")
CHANGES_ENTRY = re.compile(r"^PR (\d+):")
MEASUREMENTS_FILE = re.compile(r"docs/measurements/[\w.-]+\.md")
#: ``path/to/file.py::Name`` or ``::Class.method`` (docstrings wrap the
#: whole in `` `` ``).
CITATION = re.compile(r"((?:[\w.-]+/)+[\w-]+\.py)::(\w+(?:\.\w+)?)")
#: A backtick span citing ``Class.member``: the last two dotted names,
#: optionally called, optionally with a module path and Sphinx's ``~``.
MEMBER_SPAN = re.compile(r"~?(?:\w+\.)*([A-Za-z_]\w*)\.(\w+)(?:\(\))?")
#: A backtick span citing a dotted name under the package, Sphinx's
#: ``~`` and a call allowed.
DOTTED_SPAN = re.compile(r"~?(repro(?:\.\w+)+)(?:\(\))?")
HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)
CODE_FENCE = re.compile(r"^```.*?^```\s*$", re.MULTILINE | re.DOTALL)
JSON_FENCE = re.compile(r"^```json\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def anchor_of(heading: str) -> str:
    """GitHub-style anchor: lowercase, spaces to dashes, drop punctuation."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"\s+", "-", text)


def repo_basenames() -> set:
    """Every file basename under the known directories plus the root."""
    names = {p.name for p in REPO_ROOT.iterdir() if p.is_file()}
    for directory in KNOWN_DIRS:
        root = REPO_ROOT / directory
        if root.exists():
            names.update(p.name for p in root.rglob("*") if p.is_file())
    return names


def looks_like_repo_path(target: str) -> bool:
    """A backtick span / prose token we should require to exist on disk."""
    if not re.fullmatch(r"[\w./-]+", target):
        return False
    first = target.split("/", 1)[0]
    return "/" in target and first in KNOWN_DIRS


def defines(source: str, name: str) -> bool:
    """Whether the Python ``source`` defines ``name``: a class or
    function at any depth, or for ``Class.method`` a function in the
    body of that class."""
    tree = ast.parse(source)
    owner, _, member = name.rpartition(".")
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    if not owner:
        return any(
            isinstance(node, functions + (ast.ClassDef,))
            and node.name == member
            for node in ast.walk(tree)
        )
    return any(
        isinstance(node, ast.ClassDef) and node.name == owner and any(
            isinstance(child, functions) and child.name == member
            for child in node.body
        )
        for node in ast.walk(tree)
    )


def check_citations(path: Path, text: str) -> list:
    """Every ``file.py::Name`` in ``text`` names a class or function
    that ``file.py`` defines, and every ``file.py::Class.method`` a
    method of that class."""
    problems = []
    for cited, name in sorted(set(CITATION.findall(text))):
        target = REPO_ROOT / cited
        if cited.split("/", 1)[0] not in KNOWN_DIRS:
            target = REPO_ROOT / "src" / "repro" / cited
        if not target.is_file() or not defines(target.read_text(), name):
            problems.append(
                "%s: cites %s::%s, which that file does not define"
                % (path, cited, name)
            )
    return problems


def class_members(node: ast.ClassDef) -> set:
    """What ``Class.member`` may name in the class ``node``: its
    methods and nested classes, class-level names (``__slots__``
    entries included) and every attribute a method assigns on
    ``self``."""
    names = set()
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            names.add(child.name)
        elif isinstance(child, (ast.Assign, ast.AnnAssign)):
            targets = (
                child.targets if isinstance(child, ast.Assign)
                else [child.target]
            )
            assigned = {
                leaf.id for target in targets for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            }
            names |= assigned
            if "__slots__" in assigned and child.value is not None:
                names.update(
                    leaf.value for leaf in ast.walk(child.value)
                    if isinstance(leaf, ast.Constant)
                    and isinstance(leaf.value, str)
                )
    names.update(
        leaf.attr for leaf in ast.walk(node)
        if isinstance(leaf, ast.Attribute)
        and isinstance(leaf.ctx, ast.Store)
        and isinstance(leaf.value, ast.Name) and leaf.value.id == "self"
    )
    return names


@functools.lru_cache(maxsize=None)
def class_index() -> dict:
    """Every class defined under ``src/repro``: name -> one
    ``(members, base names)`` pair per definition."""
    index: dict = {}
    for source in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = [
                    base.attr if isinstance(base, ast.Attribute)
                    else getattr(base, "id", None)
                    for base in node.bases
                ]
                index.setdefault(node.name, []).append(
                    (class_members(node), bases)
                )
    return index


def has_member(name: str, member: str, seen: frozenset = frozenset()) -> bool:
    """Whether some definition of class ``name`` (or a base of it)
    defines ``member``; a base from outside ``src/repro`` other than
    ``object`` and ``ABC`` may, so it counts as defining everything."""
    for members, bases in class_index().get(name, ()):
        if member in members:
            return True
        for base in bases:
            if base not in class_index():
                if base not in ("object", "ABC"):
                    return True
            elif base not in seen and has_member(base, member, seen | {name}):
                return True
    return False


def check_members(path: Path, text: str) -> list:
    """Every backticked ``Class.member`` in ``text`` whose ``Class`` is
    defined under ``src/repro`` names a member of it."""
    problems = []
    cited = set()
    for match in BACKTICK_SPAN.finditer(text):
        span = MEMBER_SPAN.fullmatch(match.group(1).strip())
        if span and span.group(1) in class_index():
            cited.add(span.groups())
    for name, member in sorted(cited):
        if not has_member(name, member):
            problems.append(
                "%s: cites %s.%s, which that class does not define"
                % (path, name, member)
            )
    return problems


def module_file(dotted: str):
    """The source file of module or package ``dotted``, or ``None``."""
    base = REPO_ROOT.joinpath("src", *dotted.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


@functools.lru_cache(maxsize=None)
def top_level_names(source: Path) -> frozenset:
    """What ``module.name`` may name in the module at ``source``: its
    top-level classes, functions and assigned names, and for a package
    the names its ``__init__`` imports."""
    names = set()
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            names.update(
                leaf.id for target in targets for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            )
        elif (
            isinstance(node, (ast.Import, ast.ImportFrom))
            and source.name == "__init__.py"
        ):
            names.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
            )
    return frozenset(names)


def check_dotted(path: Path, text: str) -> list:
    """Every backticked ``repro.…`` dotted name in ``text`` resolves: its
    longest module prefix exists under ``src/repro/`` and defines the
    next name, and a ``Class.member`` after it is a member of that
    class."""
    problems = []
    cited = set()
    for match in BACKTICK_SPAN.finditer(text):
        span = DOTTED_SPAN.fullmatch(match.group(1).strip())
        if span:
            cited.add(span.group(1))
    for dotted in sorted(cited):
        parts = dotted.split(".")
        cut = len(parts)
        while module_file(".".join(parts[:cut])) is None:
            cut -= 1
        rest = parts[cut:]
        source = module_file(".".join(parts[:cut]))
        if not rest:
            continue
        if rest[0] not in top_level_names(source) or (
            len(rest) > 1 and rest[0] in class_index()
            and not has_member(rest[0], rest[1])
        ) or len(rest) > 2:
            problems.append(
                "%s: cites %s, which %s does not define"
                % (path, dotted, ".".join(parts[:cut]))
            )
    return problems


def check_file(path: Path) -> list:
    text = path.read_text()
    prose = CODE_FENCE.sub("", text)
    anchors = {anchor_of(h) for h in HEADING.findall(text)}
    problems = (
        check_citations(path, text) + check_members(path, prose)
        + check_dotted(path, prose)
    )

    def check_target(target: str, kind: str) -> None:
        if target.startswith(("http://", "https://", "mailto:")):
            return  # external: syntax-only, no network in CI
        if target.startswith("#"):
            if target[1:] not in anchors:
                problems.append(
                    "%s: broken anchor %r" % (path, target)
                )
            return
        file_part, _, anchor = target.partition("#")
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            problems.append(
                "%s: broken %s %r" % (path, kind, target)
            )
            return
        if anchor and resolved.suffix == ".md":
            other = {anchor_of(h) for h in HEADING.findall(resolved.read_text())}
            if anchor not in other:
                problems.append(
                    "%s: broken anchor %r in %s" % (path, anchor, file_part)
                )

    for match in INLINE_LINK.finditer(text):
        check_target(match.group(1), "link")
    for match in REFERENCE_DEF.finditer(text):
        check_target(match.group(1), "reference")

    seen = set()
    basenames = repo_basenames()
    for match in BACKTICK_SPAN.finditer(prose):
        candidate = match.group(1).strip()
        if candidate in seen or "*" in candidate:
            # Globs (`docs/*.md`, `bench_e*.py`) name families, not files.
            continue
        seen.add(candidate)
        if looks_like_repo_path(candidate):
            if not (REPO_ROOT / candidate).exists():
                problems.append(
                    "%s: backtick path %r does not exist" % (path, candidate)
                )
        elif re.fullmatch(r"[\w-]+\.(?:md|py|json|txt|yml)", candidate):
            # A bare filename (`bench_complexity.py`, `README.md`): it
            # must exist *somewhere* in the repo under that name.
            if candidate not in basenames:
                problems.append(
                    "%s: backtick file %r not found anywhere in the repo"
                    % (path, candidate)
                )
    for match in PROSE_PATH.finditer(BACKTICK_SPAN.sub("", prose)):
        candidate = match.group(1).rstrip(".,;:")
        if candidate in seen or "*" in candidate:
            continue
        seen.add(candidate)
        if not (REPO_ROOT / candidate).exists():
            problems.append(
                "%s: referenced path %r does not exist" % (path, candidate)
            )
    return problems


def run_commands(text: str):
    """The shell text of every ``run:`` key: the rest of its line plus
    the more deeply indented lines that follow (a ``|`` block or a
    folded plain scalar)."""
    indent = None
    for line in text.splitlines():
        key = RUN_KEY.match(line)
        if key:
            indent = len(key.group(1))
            yield key.group(2)
        elif indent is not None and (
            not line.strip() or len(line) - len(line.lstrip()) > indent
        ):
            yield line
        else:
            indent = None


def check_workflow(path: Path) -> list:
    problems = []
    for command in run_commands(path.read_text()):
        for candidate in PROSE_PATH.findall(command):
            if not any(REPO_ROOT.glob(candidate)):
                problems.append(
                    "%s: run line names %r, which does not exist"
                    % (path, candidate)
                )
    return problems


def check_changes(path: Path) -> list:
    problems = []
    for line in path.read_text().splitlines():
        entry = CHANGES_ENTRY.match(line)
        if not entry or int(entry.group(1)) < CHANGES_ENFORCED_FROM:
            continue
        if len(line) > CHANGES_ENTRY_LIMIT:
            problems.append(
                "%s: entry PR %s is %d characters, limit %d (move the"
                " tables to docs/measurements/)"
                % (path, entry.group(1), len(line), CHANGES_ENTRY_LIMIT)
            )
        if not any(
            (REPO_ROOT / name).is_file()
            for name in MEASUREMENTS_FILE.findall(line)
        ):
            problems.append(
                "%s: entry PR %s names no existing docs/measurements/ file"
                % (path, entry.group(1))
            )
        if int(entry.group(1)) >= PAIRS_ENFORCED_FROM:
            problems.extend(
                "%s: entry PR %s: %s" % (path, entry.group(1), problem)
                for problem in check_pairs(entry.group(1), line)
            )
    return problems


def check_pairs(number: str, line: str) -> list:
    """What is wrong with the benchmark pairs of entry ``number``: its
    own measurements file (``docs/measurements/pr<number>-*.md``, named
    in ``line``) must hold one fenced ``json`` block, an object whose
    ``"pairs"`` is a non-empty list."""
    own = [
        REPO_ROOT / name for name in MEASUREMENTS_FILE.findall(line)
        if name.startswith("docs/measurements/pr%s-" % number)
        and (REPO_ROOT / name).is_file()
    ]
    if not own:
        return ["names no existing docs/measurements/pr%s-*.md file" % number]
    problems = []
    for measurements in own:
        blocks = JSON_FENCE.findall(measurements.read_text())
        if len(blocks) != 1:
            problems.append(
                "%s holds %d fenced json blocks, not one"
                % (measurements.name, len(blocks))
            )
            continue
        try:
            pairs = json.loads(blocks[0])
        except ValueError as error:
            problems.append(
                "%s: the json block does not parse (%s)"
                % (measurements.name, error)
            )
            continue
        if not (
            isinstance(pairs, dict) and isinstance(pairs.get("pairs"), list)
            and pairs["pairs"]
        ):
            problems.append(
                '%s: the json block is not an object with a non-empty'
                ' "pairs" list' % measurements.name
            )
    return problems


def main(argv) -> int:
    if argv:
        files = [Path(arg) for arg in argv]
    else:
        files = [REPO_ROOT / "README.md"] + sorted(
            (REPO_ROOT / "docs").glob("*.md")
        ) + [WORKFLOW, CHANGES] + sorted(
            (REPO_ROOT / "src" / "repro").rglob("*.py")
        )
    problems = []
    for path in files:
        if not path.exists():
            problems.append("missing input file %s" % path)
        elif path.suffix == ".yml":
            problems.extend(check_workflow(path))
        elif path.name == CHANGES.name:
            problems.extend(check_changes(path))
        elif path.suffix == ".py":
            text = path.read_text()
            problems.extend(check_citations(path, text))
            problems.extend(check_members(path, text))
            problems.extend(check_dotted(path, text))
        else:
            problems.extend(check_file(path))
    for problem in problems:
        print("BROKEN:", problem)
    print(
        "checked %d file(s): %s"
        % (len(files), "FAILED" if problems else "ok")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
