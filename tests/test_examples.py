"""Smoke tests for the examples/ scripts.

Every example must at least compile, the probe-budget planning example
(which documents the three probe planners side by side) must run end to
end in its ``--fast`` mode and show the clustered planner actually
saving on-demand traceroutes, and the §6.3 incident replay must
investigate each paper archetype exactly once.
"""

from __future__ import annotations

import pathlib
import py_compile
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"


def _example_files() -> list[pathlib.Path]:
    return sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.name for path in _example_files()}
    assert "probe_budget_planning.py" in names
    assert "quickstart.py" in names


@pytest.mark.parametrize(
    "path", _example_files(), ids=lambda path: path.name
)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_probe_budget_planning_fast_mode():
    """The planner-comparison example runs end to end and prints one
    row per planner, with 'clustered' spending no more probes than
    'paper' at the same budget."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "probe_budget_planning.py"),
         "--fast"],
        capture_output=True,
        text=True,
        timeout=600,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    rows = {}
    for line in result.stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in ("naive", "paper", "clustered"):
            rows[parts[0]] = int(parts[2])  # on-demand probe count
    assert set(rows) == {"naive", "paper", "clustered"}
    assert rows["clustered"] <= rows["paper"]
    assert "always-on strawman" in result.stdout


def test_incident_investigation_runs_each_paper_archetype_once():
    """The §6.3 replay investigates one incident per paper archetype:
    every archetype's header is printed exactly once."""
    from repro.sim.incidents import PAPER_ARCHETYPES

    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "incident_investigation.py")],
        capture_output=True,
        text=True,
        timeout=600,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    headers = re.findall(r"^INCIDENT #\d+ \[(\w+)\]$", result.stdout, re.M)
    assert sorted(headers) == sorted(str(a) for a in PAPER_ARCHETYPES)
