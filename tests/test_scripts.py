"""Smoke tests: the experiment scripts in scripts/ run to completion."""

import subprocess
import sys

import pytest

from conftest import ROOT, subprocess_env


@pytest.mark.parametrize(
    "script, args",
    [
        ("estimate_recovery.py", ["--sizes", "10000", "--bootstrap", "20"]),
        ("convergence_table.py", ["--n0", "50", "--doublings", "2"]),
    ],
)
def test_script_runs(script, args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("model C = ")
