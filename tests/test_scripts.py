import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/demo_section.py"],
        ["scripts/sweep_suites.py", "--seeds", "1", "--cases", "2"],
    ],
    ids=["demo_section", "sweep_suites"],
)
def test_script_runs_clean(argv):
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", ["--seeds", "--cases"])
def test_sweep_refuses_fewer_than_one(flag):
    proc = subprocess.run(
        [sys.executable, "scripts/sweep_suites.py", flag, "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert f"{flag} must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
