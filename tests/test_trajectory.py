"""``tools/trajectory.py`` on the checked-in measurements files."""

from __future__ import annotations

import importlib.util
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
