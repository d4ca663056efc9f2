"""Smoke test of the experiment scripts: each runs to exit 0 and prints."""

import subprocess
import sys

import pytest

from conftest import ROOT, child_env


@pytest.mark.parametrize(
    "script, args",
    [
        ("balance_spectrum_sweep.py", ["--trials", "5"]),
        ("square_incompatibility.py", ["--max-k", "9"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
