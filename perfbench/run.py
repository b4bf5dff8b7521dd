"""endflow benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each operation is issued only after the previous one returned, in this
single process, with no extra threads.  Every output is checked exactly.
Every end-to-end time is corrected for the shared host's drifting speed by a
reference computation timed alongside (``hostclock.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
request of the first ``window`` rounds twice, untraced and then traced,
and prints the per-layer metrics plus the tracing overhead.  The last stdout line is
the result object; the line before it records the machine, the Python
build, the output digest and any tracing notes.  ``--tiny`` shrinks
every input (used by the smoke test).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "success_rate": "ratio",
    "word_moves": "count",
    "max_bits": "bits",
    "peak_rss_mb": "MB",
}

# name -> unit; spans give ".calls", ".s" (outermost time) and ".self_s"
PER_LAYER = {
    "transport.apply_word.calls": "count",
    "transport.apply_word.s": "s",
    "transport.replayed_moves": "count",
    "tree.frontier_edges.calls": "count",
    "tree.frontier_edges.s": "s",
    "tree.components_outside.calls": "count",
    "tree.components_outside.s": "s",
    "tree.region_ends.calls": "count",
    "tree.region_ends.s": "s",
    "tree.path.calls": "count",
    "tree.path.s": "s",
    "section.align_step.calls": "count",
    "section.align_step.self_s": "s",
    "section.build_section.calls": "count",
    "section.build_section.s": "s",
    "section.solve_balloon_parameter.calls": "count",
    "section.solve_balloon_parameter.s": "s",
    "section.levels": "count",
    "transport.concat.s": "s",
    "transport.invert_word.s": "s",
    "transport.charge_of_word.s": "s",
    "raystar.realize_word.calls": "count",
    "raystar.realize_word.s": "s",
    "raystar.edge_moves": "count",
    "raystar.rearrange_to_moves.s": "s",
    "raystar.is_measure_preserving.s": "s",
    "raystar.charge_from_definition.calls": "count",
    "raystar.charge_from_definition.s": "s",
    "raystar.pieces": "count",
    "serialize.tree_from_json.s": "s",
    "serialize.word_from_json.s": "s",
    "serialize.word_to_json.s": "s",
    "serialize.json_bytes": "bytes",
    "cli.section.s": "s",
    "cli.factorize.s": "s",
    "cli.charge.s": "s",
    "cli.overhead_s": "s",
    "charge.validate_charge.calls": "count",
    "charge.validate_charge.s": "s",
    "tree.derive_s": "s",
    "morphism.push_word.s": "s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}

# per-layer metrics counted by the tracer's hooks rather than by spans
COUNTERS = (
    "transport.replayed_moves",
    "section.levels",
    "raystar.edge_moves",
    "raystar.pieces",
)

# set-up runs at least SETUP_REPEATS times, and more (up to
# SETUP_MAX_REPEATS) until SETUP_MIN_S seconds of it have been timed;
# setup_s is the median.  A set-up is too long to sample the host's speed
# inside it, so SETUP_SAMPLES samples are taken on either side of each.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_S = 3.0
SETUP_SAMPLES = 3
P99_MIN_OPS = 1000


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "endflow" / "__init__.py").is_file():
        _fail(f"no endflow package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import endflow

    if Path(endflow.__file__).resolve().parent != SRC / "endflow":
        _fail(f"imported endflow from {endflow.__file__}, not from {SRC}")


class Runner:
    """Closed loop over a workload's rounds, with per-operation checks."""

    def __init__(self, wl, kinds, tracer):
        self.wl = wl
        self.kinds = kinds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def one(self, req, traced=False):
        """Run, time and verify one request: its latency and its Outcome
        (None if it failed)."""
        run, verify = self.kinds[req["kind"]]
        self.attempted += 1
        tracer = self.tracer
        if traced:
            tracer.install()
        tracer.active = traced
        t0 = perf_counter()
        try:
            state = run(req, tracer)
            error = None
        except Exception as e:  # a failed operation is counted, not fatal
            where = traceback.extract_tb(e.__traceback__)[-1]
            error = (
                f"{req['kind']}: {type(e).__name__}: {e} "
                f"(at {Path(where.filename).name}:{where.lineno} in {where.name})"
            )
        elapsed = perf_counter() - t0
        tracer.active = False
        if traced:
            tracer.uninstall()
            tracer.end_operation()
        out = None
        if error is None:
            try:
                out = verify(req, state)
                error = out.error and f"{req['kind']}: {out.error}"
            except Exception as e:
                error = f"{req['kind']} check: {type(e).__name__}: {e}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
            out = None
        return elapsed, out

    def requests(self, count, seconds=0.0):
        """The requests of ``count`` whole rounds, then of further whole
        rounds while less than ``seconds`` have passed, each with its
        position in the round."""
        rounds = self.wl.rounds
        start = perf_counter()
        r = 0
        while r < count or perf_counter() - start < seconds:
            yield from enumerate(rounds[r % len(rounds)])
            r += 1


def _tail_latency(lat, lat_by_position):
    """The 99th percentile when a run has P99_MIN_OPS operations or more
    (ten or more beyond it).  With fewer, p99 is the slowest one or two
    operations and swings from run to run, so the median latency of the
    round's slowest position (its largest request) stands in for it."""
    if len(lat) >= P99_MIN_OPS:
        return statistics.quantiles(lat, n=100, method="inclusive")[98], "p99"
    slowest = max(statistics.median(v) for v in lat_by_position.values())
    return slowest, "slowest_position_median"


def _typical_latency(lat_by_position):
    """Geometric mean over a round's positions of each position's median
    latency.  Positions differ in size or kind, so the pooled median of a
    mixed workload sits between clusters and jumps with small shifts; the
    per-position medians are each steady."""
    medians = [statistics.median(lat) for lat in lat_by_position.values()]
    return statistics.geometric_mean(medians)


def _window_stats(outs):
    """Counts over the window: identical for identical code and seed."""
    digest = hashlib.sha256()
    moves = 0
    op_max_bits = []
    json_bytes = 0
    for out in outs:
        if out is None:
            digest.update(b"<failed>\n")
            continue
        data = out.text.encode()
        digest.update(data + b"\n")
        json_bytes += len(data)
        moves += out.moves
        op_max_bits.append(out.bits)
    return {
        "digest": digest.hexdigest(),
        "word_moves": moves,
        "max_bits_mean": statistics.fmean(op_max_bits) if op_max_bits else 0,
        "max_bits_max": max(op_max_bits, default=0),
        "json_bytes": json_bytes,
    }


def _machine():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "python_build": " ".join(platform.python_build()),
        "compiler": platform.python_compiler(),
        "optimize_flag": sys.flags.optimize,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _configure_tracer(tracer):
    def replayed(t, args, kwargs, result):
        word = args[0] if args else kwargs["word"]
        t.count("transport.replayed_moves", len(word.moves))

    def levels(t, args, kwargs, result):
        import endflow.section as section

        tree, a = args[0], args[2]
        ex = args[3] if len(args) > 3 else kwargs.get("exhaustion")
        if a.is_zero():
            return
        if ex is None:
            ex = section.Exhaustion.default(tree)
        t.count("section.levels", len(ex.levels))

    def realized(t, args, kwargs, result):
        import endflow

        word = args[1] if len(args) > 1 else kwargs["word"]
        t.count(
            "raystar.edge_moves",
            sum(isinstance(m, endflow.BalloonMove) for m in word.moves),
        )
        t.count("raystar.pieces", len(result.pieces))

    def expanded(t, args, kwargs, result):
        t.count("raystar.edge_moves", len(result))

    wraps = [
        ("transport.apply_word", "endflow.transport", "apply_word", replayed),
        ("transport.concat", "endflow.transport", "concat", None),
        ("transport.invert_word", "endflow.transport", "invert_word", None),
        ("transport.charge_of_word", "endflow.transport", "charge_of_word", None),
        ("tree.frontier_edges", "endflow.tree", "frontier_edges", None),
        ("tree.components_outside", "endflow.tree", "components_outside", None),
        ("tree.region_ends", "endflow.tree", "region_ends", None),
        ("tree.path", "endflow.tree", "BalloonTree.path", None),
        ("section.build_section", "endflow.section", "build_section", levels),
        ("section.align_step", "endflow.section", "align_step", None),
        (
            "section.solve_balloon_parameter",
            "endflow.section",
            "solve_balloon_parameter",
            None,
        ),
        ("section.factorize", "endflow.section", "factorize", None),
        ("raystar.realize_word", "endflow.raystar", "realize_word", realized),
        (
            "raystar.rearrange_to_moves",
            "endflow.transport",
            "rearrange_to_moves",
            expanded,
        ),
        (
            "raystar.is_measure_preserving",
            "endflow.transport",
            "is_measure_preserving",
            None,
        ),
        (
            "raystar.charge_from_definition",
            "endflow.raystar",
            "charge_from_definition",
            None,
        ),
        ("serialize.tree_from_json", "endflow.serialize", "tree_from_json", None),
        ("serialize.word_from_json", "endflow.serialize", "word_from_json", None),
        ("serialize.word_to_json", "endflow.serialize", "word_to_json", None),
        ("charge.validate_charge", "endflow.charge", "validate_charge", None),
        ("morphism.push_word", "endflow.morphism", "push_word", None),
    ]
    for name, module, attr, after in wraps:
        tracer.wrap(name, module, attr, after)
    tracer.wrap_cached_properties("tree.derive", "endflow.tree", "BalloonTree")


def _layer_metrics(tracer, stats):
    cli_total = sum(
        tracer.total.get(f"cli.{c}", 0.0) for c in ("section", "factorize", "charge")
    )
    special = {
        "serialize.json_bytes": stats["json_bytes"],
        "tree.derive_s": tracer.total.get("tree.derive", 0.0),
        "cli.overhead_s": cli_total - tracer.cli_library_s,
    }
    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name in special:
            value = special[name]
        elif name in COUNTERS:
            value = tracer.counts.get(name, 0)
        else:
            base, _, field = name.rpartition(".")
            value = {
                "calls": tracer.calls,
                "s": tracer.total,
                "self_s": tracer.self_time,
            }[field].get(base, 0 if field == "calls" else 0.0)
        out[name] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    from hostclock import HostClock
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    clock = HostClock()
    try:
        setups = []
        least, most = (1, 1) if args.trace else (SETUP_REPEATS, SETUP_MAX_REPEATS)
        while len(setups) < least or (
            len(setups) < most and sum(dt for _, dt in setups) < SETUP_MIN_S
        ):
            shutil.rmtree(workdir, ignore_errors=True)
            for _ in range(SETUP_SAMPLES):
                clock.sample()
            t0 = perf_counter()
            workdir.mkdir(parents=True)
            wl = workloads.build(args.workload, args.seed, args.tiny, str(workdir))
            setups.append((t0, perf_counter() - t0))
        for _ in range(SETUP_SAMPLES):
            clock.sample()
        setup_times = [clock.scaled(t0, dt) for t0, dt in setups]

        tracer = Tracer(
            cli_library=(
                "section.build_section",
                "section.factorize",
                "transport.charge_of_word",
            )
        )
        runner = Runner(wl, workloads.KINDS, tracer)
        for _, req in runner.requests(wl.warmup):  # first calls run slower
            runner.one(req)
        runner.attempted = runner.failed = 0
        runner.errors.clear()

        record = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
        if args.trace == 0:
            timed, outs = [], []
            for pos, req in runner.requests(wl.window, args.seconds):
                clock.maybe_sample()
                start = perf_counter()
                elapsed, out = runner.one(req)
                timed.append((pos, start, elapsed))
                outs.append(out)
            clock.sample()
            lat, by_position, raw_by_position = [], {}, {}
            for pos, start, elapsed in timed:
                lat.append(clock.scaled(start, elapsed))
                by_position.setdefault(pos, []).append(lat[-1])
                raw_by_position.setdefault(pos, []).append(elapsed)
            stats = _window_stats(outs[: wl.window * len(wl.rounds[0])])
            record["raw"] = {
                "setup_s": statistics.median(dt for _, dt in setups),
                "ops_per_s": len(timed) / sum(e for _, _, e in timed),
                "op_p50_ms": _typical_latency(raw_by_position) * 1e3,
            }
            tail, record["op_p99_ms_estimator"] = _tail_latency(lat, by_position)
            record["host_slowdown"] = clock.speed()
            record["reference_samples"] = len(clock.durations)
            values = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": len(lat) / sum(lat),
                "op_p50_ms": _typical_latency(by_position) * 1e3,
                "op_p99_ms": tail * 1e3,
                "success_rate": (runner.attempted - runner.failed) / runner.attempted,
                "word_moves": stats["word_moves"],
                "max_bits": stats["max_bits_mean"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            record["operations"] = len(lat)
        else:
            # each request runs untraced, then traced: slow drift of the
            # host's speed hits both sides of the overhead alike
            _configure_tracer(tracer)
            lat_u, outs_u, lat_t, outs_t = [], [], [], []
            for _, req in runner.requests(wl.window):
                for traced, lat, outs in ((False, lat_u, outs_u), (True, lat_t, outs_t)):
                    elapsed, out = runner.one(req, traced)
                    lat.append(elapsed)
                    outs.append(out)
            stats = _window_stats(outs_u)
            traced_stats = _window_stats(outs_t)
            if traced_stats["digest"] != stats["digest"]:
                runner.failed += 1
                runner.errors.append("traced outputs differ from untraced outputs")
            values = _layer_metrics(tracer, traced_stats)
            untraced = len(lat_u) / sum(lat_u)
            traced = len(lat_t) / sum(lat_t)
            values["trace.untraced_ops_per_s"] = untraced
            values["trace.traced_ops_per_s"] = traced
            values["trace.overhead_pct"] = (untraced / traced - 1) * 100
            units = PER_LAYER
            record["operations"] = len(lat_u) + len(lat_t)
            record["trace_notes"] = tracer.notes
        record.update(
            window_rounds=wl.window,
            digest=stats["digest"],
            max_bits_max=stats["max_bits_max"],
            errors=runner.errors,
            machine=_machine(),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
