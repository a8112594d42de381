"""Smoke tests: every example script runs green end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "voting_tally.py", "beyond_n3.py"],
)
def test_fast_examples_run(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.slow
@pytest.mark.parametrize(
    "script",
    ["distributed_storage.py", "broadcast_file.py"],
)
def test_slow_examples_run(script):
    # broadcast_file.py's L sweep stops at 2^20 here: its default top
    # row, L = 2^24, alone runs for half a minute.
    args = ["20"] if script == "broadcast_file.py" else []
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)] + args,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
