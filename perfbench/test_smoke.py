"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced, and checks that each
metric named in BENCHMARK.json is reported with its unit, that no
operation failed, that the host-speed correction scales by the reference
timed nearby, that the traced counts repeat exactly for the same
seed, that a missing trace target reads as a note instead of a crash,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _check(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert isinstance(reported["value"], (int, float)), m["name"]


def test_every_workload_reports_every_metric():
    for wl in BENCH["workloads"]:
        record, plain = _result(_run(wl["name"], 0))
        _check(plain, BENCH["end_to_end"])
        assert set(record["raw"]) == {"setup_s", "ops_per_s", "op_p50_ms"}
        assert record["host_slowdown"] > 0
        assert plain["metrics"]["success_rate"]["value"] == 1
        for m in BENCH["end_to_end"]:
            assert plain["metrics"][m["name"]]["value"] > 0, m["name"]
        _, traced = _result(_run(wl["name"], 1))
        _check(traced, BENCH["per_layer"])


def test_traced_counts_repeat_for_the_same_seed():
    def counts(proc):
        record, result = _result(proc)
        values = {
            k: v["value"]
            for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bytes")
        }
        return record["digest"], values

    for wl in BENCH["workloads"]:
        first = counts(_run(wl["name"], 1))
        assert first == counts(_run(wl["name"], 1)), wl["name"]


def test_host_clock_scales_by_the_nearby_reference():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from hostclock import REFERENCE_S, HostClock

        clock = HostClock()
        # the host ran the reference at half speed around t=0..1 and at
        # full speed around t=10..11
        clock.times = [0.0, 1.0, 10.0, 11.0]
        clock.durations = [2 * REFERENCE_S] * 2 + [REFERENCE_S] * 2
        assert math.isclose(clock.scaled(0.5, 0.1), 0.05)
        assert math.isclose(clock.scaled(10.5, 0.1), 0.1)
        assert math.isclose(clock.speed(), 1.5)
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(HERE))


def test_missing_trace_target_is_a_note():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from spans import Tracer

        tracer = Tracer()
        tracer.wrap("gone", "endflow.tree", "no_such_function")
        tracer.wrap("gone", "endflow.tree", "BalloonTree.no_such_method")
        tracer.wrap("gone", "endflow.no_such_module", "f")
        assert len(tracer.notes) == 3
        tracer.install()
        tracer.uninstall()
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(HERE))


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(BENCH["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
