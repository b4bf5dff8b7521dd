"""The verify suite protocol: ``run_suite`` owns the case loop, the
``case i:`` labels and the report, and the suites draw the same cases
under any hash seed."""

import json
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

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


def _drawn_check(rng):
    """Fails a property on the cases whose first draw is below 1/2, and
    raises on those below 1/5: whether a case fails is its own draw."""
    x = rng.random()
    if x < 0.5:
        yield f"drew {x}"
    if x < 0.2:
        raise KeyError(x)


def test_a_case_reruns_alone_with_the_failures_it_had(monkeypatch, tmp_path):
    monkeypatch.setitem(SUITES, "drawn", _drawn_check)
    full = run_suite("drawn", 5, 12)["failures"]
    for i in range(12):
        out = tmp_path / f"case-{i}.json"
        code = main(
            ["verify", "--suite", "drawn", "--seed", "5", "--case", str(i),
             "--out", str(out)]
        )
        alone = [f for f in full if f.startswith(f"case {i}: ")]
        assert json.loads(out.read_text()) == {
            "reports": [{"name": "drawn", "cases": 1, "failures": alone}],
            "failures": len(alone),
        }
        assert code == (3 if alone else 0)
    # the cases differ, so the rerun is checked on failing and passing ones
    failing = {f.split(":")[0] for f in full}
    assert 0 < len(failing) < 12
    assert any(": raised KeyError" in f for f in full)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--suite", "homomorphism", "--case", "-1"],
         "invalid --case -1: need at least 0"),
        (["--case", "2"], "invalid --case 2: needs --suite"),
    ],
    ids=["negative", "without_suite"],
)
def test_a_case_needs_a_suite_and_a_count_from_0(argv, error, capsys):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {error}\n"


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
