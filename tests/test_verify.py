"""The verify suite protocol: ``run_suite`` owns the case loop, the
``case i:`` labels and the report, and the suites draw the same cases
under any hash seed."""

import json
import subprocess
import sys
from itertools import count
from pathlib import Path

from endflow.cli import main
from endflow.errors import AlignPreconditionError
from endflow.verify import SUITES, run_suite


def _flaky_check():
    """Case 0 holds; case 1 fails a property, then raises; case 2 raises
    a validation error before it checks anything."""
    calls = count()

    def check(rng):
        i = next(calls)
        if i == 1:
            yield "first property failed"
            raise KeyError("missing")
        if i == 2:
            raise AlignPreconditionError("no room to align")

    return check


RAISED = [
    "case 1: first property failed",
    "case 1: raised KeyError: 'missing'",
    "case 2: raised AlignPreconditionError: no room to align",
]


def test_a_case_that_raises_is_that_cases_failure(monkeypatch):
    monkeypatch.setitem(SUITES, "flaky", _flaky_check())
    assert run_suite("flaky", 0, 4) == {
        "name": "flaky",
        "cases": 4,
        "failures": RAISED,
    }


def test_verify_reports_a_raising_case_as_fail(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(SUITES, "flaky", _flaky_check())
    out = tmp_path / "verify.json"
    code = main(["verify", "--suite", "flaky", "--cases", "3", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().out == "FAIL flaky (3 cases)\n"
    assert json.loads(out.read_text()) == {
        "reports": [{"name": "flaky", "cases": 3, "failures": RAISED}],
        "failures": 3,
    }


# Logs every region the difference-functional suites draw, as sorted
# lists, so two runs can be compared whatever order a set iterates in.
_DRAW_LOG = """
from endflow import verify

log = []
j_value, region_intervals = verify.j_value, verify.region_intervals


def logged_j_value(mu, a, b):
    log.append([sorted(a), sorted(b)])
    return j_value(mu, a, b)


def logged_region_intervals(star, region):
    log.append(sorted(region))
    return region_intervals(star, region)


verify.j_value = logged_j_value
verify.region_intervals = logged_region_intervals
for name in ("j_algebra", "pushforward", "oracle_1d"):
    verify.run_suite(name, 0, 20)
print(log)
"""


def test_region_draws_do_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    logs = []
    for hash_seed in "01":
        proc = subprocess.run(
            [sys.executable, "-c", _DRAW_LOG],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        logs.append(proc.stdout)
    assert logs[0] != "[]\n"
    assert logs[0] == logs[1]
