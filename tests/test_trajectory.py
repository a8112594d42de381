"""``tools/trajectory.py`` on the checked-in measurements files."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trajectory():
    location = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "tools" / "trajectory.py"
    )
    module = importlib.util.module_from_spec(location)
    location.loader.exec_module(module)
    return module


def test_every_change_from_45_on_has_one_block(trajectory):
    numbers = [
        number for number, block in
        trajectory.blocks(ROOT / "docs" / "measurements")
    ]
    assert numbers[:4] == [45, 46, 47, 48]
    assert numbers == sorted(set(numbers))


def test_the_audit_trajectory_prints_a_line_a_change(trajectory, capsys):
    assert trajectory.main(["audit_replay_n15", "--seed", "11"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == [
        "change", "pairs", *trajectory.end_to_end_metrics(),
    ]
    changes = [line.split()[0] for line in lines]
    assert changes[:4] == ["45", "46", "47", "48"]
    # PR 45's sixteen seed-11 pairs, as its measurements file holds them.
    assert lines[0].split()[:2] == ["45", "16"]
    assert "11.1209 -> 13.8048" in lines[0]
    assert "716.236 -> 716.236" in lines[0]


def test_an_unmeasured_workload_prints_no_line(trajectory, capsys):
    assert trajectory.main(["no_such_workload"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "no pairs of no_such_workload" in captured.err


def _has_history() -> bool:
    done = subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD:src"], cwd=ROOT,
        capture_output=True,
    )
    return done.returncode == 0


@pytest.mark.skipif(not _has_history(), reason="no git history here")
def test_the_same_tree_row_reads_session_noise(trajectory, capsys):
    """PR 50's parent is PR 49's change: the same ``src/`` read at seed
    11 in two sessions, 1 674 ops/s and then 1 462."""
    assert trajectory.main(["serve_tcp_closed", "--seed", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(
        at for at, line in enumerate(lines)
        if line.split()[:2] == ["same", "src/"]
    )
    [line] = [
        line for line in lines[header:]
        if line.split()[:3] == ["49", "->", "50"]
    ]
    assert "1674.28 -> 1462.23 (-12.7%)" in line


def _commit(repo: Path, message: str) -> str:
    env = {
        **os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
        "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
    }
    for args in (["add", "-A"], ["commit", "-q", "-m", message]):
        subprocess.run(["git", *args], cwd=repo, check=True, env=env)
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=repo, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


def _measured(repo: Path, number: int, parent: str, ops: float) -> None:
    block = {"parent": parent, "command": "x", "pairs": [{
        "workload": "w", "seed": 11,
        "parent": {"ops_per_sec": ops}, "change": {"ops_per_sec": ops + 1},
    }]}
    (repo / "docs" / ("pr%d-x.md" % number)).write_text(
        "```json\n%s\n```\n" % json.dumps(block)
    )


def test_a_commit_that_touches_src_between_changes_drops_the_row(
    trajectory, tmp_path,
):
    """Changes 45 -> 46 share a ``src/`` tree; a commit that edits
    ``src/`` after change 46 makes 46 -> 47 two different programs."""
    repo = tmp_path
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    (repo / "docs").mkdir()
    (repo / "src").mkdir()
    (repo / "src" / "a.py").write_text("A = 1\n")
    start = _commit(repo, "start")
    _measured(repo, 45, start, 10.0)
    change_45 = _commit(repo, "change 45")
    _measured(repo, 46, change_45, 12.0)
    _commit(repo, "change 46")
    (repo / "src" / "a.py").write_text("A = 2\n")
    edited = _commit(repo, "touch src")
    _measured(repo, 47, edited, 14.0)
    _commit(repo, "change 47")
    rows = trajectory.trajectory("w", repo / "docs", ["ops_per_sec"])
    assert [number for number, _, _ in rows] == [45, 46, 47]
    assert trajectory.same_tree(rows, repo / "docs", repo) == [
        (45, 46, {"ops_per_sec": (11.0, 12.0)}),
    ]
