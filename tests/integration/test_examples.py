"""Smoke tests: every example script runs end to end with small parameters."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
SRC_DIR = EXAMPLES_DIR.parent / "src"


def _run(script: str, *args: str, timeout: int = 240) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC_DIR), env.get("PYTHONPATH")) if path
    )
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


class TestExampleScripts:
    def test_examples_directory_contents(self):
        scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert "quickstart.py" in scripts
        assert len(scripts) >= 3

    def test_registry_sweep(self):
        result = _run("registry_sweep.py", "24", "2")
        assert result.returncode == 0, result.stderr
        assert "Registered algorithms" in result.stdout
        assert "parallel counters identical to serial: True" in result.stdout

    def test_quickstart(self):
        result = _run("quickstart.py", "24", "80", "3")
        assert result.returncode == 0, result.stderr
        assert "Build-MST" in result.stdout
        assert "Construction cost comparison" in result.stdout

    def test_dynamic_repair(self):
        result = _run("dynamic_repair.py", "24", "90", "6", "4")
        assert result.returncode == 0, result.stderr
        assert "Impromptu repair" in result.stdout
        assert "cheaper per update" in result.stdout

    def test_broadcast_tree_vs_flooding(self):
        result = _run("broadcast_tree_vs_flooding.py", "48")
        assert result.returncode == 0, result.stderr
        assert "Broadcast-tree construction" in result.stdout
        assert "one broadcast costs" in result.stdout

    def test_superpolynomial_weights(self):
        result = _run("superpolynomial_weights.py", "20", "80", "3")
        assert result.returncode == 0, result.stderr
        assert "sampled" in result.stdout

    def test_fault_scenarios(self):
        result = _run("fault_scenarios.py", "24", "4", "2")
        assert result.returncode == 0, result.stderr
        assert "Repair under faults" in result.stdout
        assert "partition-heal" in result.stdout
        assert "all repair invariants held under every fault program: True" in result.stdout
        assert '"faults"' in result.stdout

    def test_fuzz_campaign(self):
        result = _run("fuzz_campaign.py", "4", "1")
        assert result.returncode == 0, result.stderr
        assert "violations: 0" in result.stdout
        assert "caught by 'planted'" in result.stdout
        assert "clean campaign passed and planted bug was caught: True" in result.stdout
