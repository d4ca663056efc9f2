"""The experiment scripts: each runs to exit 0 and prints, and the
square sweep prints the rows that the README states."""

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
    proc = _run(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_square_sweep_breaks_only_at_k_3_mod_4(tmp_path):
    # k, unique, square compatible, first incompatible pair, completion disagreements
    proc = _run(tmp_path, "square_incompatibility.py", ["--max-k", "9"])
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line.split()[:1] in (["5"], ["7"], ["9"])]
    assert rows == [
        ["5", "True", "True", "-", "0"],
        ["7", "True", "False", "0,3", "7"],
        ["9", "True", "True", "-", "0"],
    ]


def _run(tmp_path, script, args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
