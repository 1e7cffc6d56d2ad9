#!/usr/bin/env python3
"""Layered benchmark of parascale: four closed-loop, one-client workloads.

    python3 bench/run.py [--workload figures|cli|ingest|model|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  It imports parascale from ``src/`` of
that checkout and from nowhere else, and exits non-zero without a result
when the program is not there.

``--trace 0`` measures the end-to-end metrics with tracing off: ``--seconds``
of ops in a closed loop, with the cold-start (set-up) time of a fresh
interpreter sampled at even intervals across it.  With ``--workload all``
each workload runs in a fresh interpreter of its own, one after another.
``--trace 1`` measures the per-layer metrics: an untraced and a traced
stretch of each chosen workload's own ops (their ratio is the tracing
overhead), then up to three traced reference passes over every workload,
once per invocation, which give each layer's self time and the per-layer
metrics of the layers the chosen workload does not reach.

Every op's output is checked (see ``workloads.py``); a failed op counts in
``failed``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
``bench/results/<workload>-seed<N>-trace<T>.json`` with an environment block,
and a traced run writes its spans to ``bench/results/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import pickle
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

SETUP_REPS = 21           # set-ups per run; setup_s is their median
#: An in-process workload's set-up time is scaled to a host on which one
#: calibration kernel takes this much CPU time (see ``setup_sample``).
CALIBRATION_REF_S = 2e-3
SPAN_CAP = 60_000         # a traced stretch ends early at this many spans
TRACED_SHARE = 0.3        # of --seconds, for each of the untraced and traced stretch
REFERENCE_PASSES = 3      # at most, in the rest of --seconds; at least one

#: End-to-end metrics in the result line, with units.  Every run prints and
#: stores ops_per_s, op_p50_ms, op_p90_ms, out_bytes and fail_frac as well,
#: but they stay out of the result line: the speed of in-process Python on a
#: shared host switches between two levels about 1.5-2x apart for seconds to
#: a minute at a time, so their run-to-run spread exceeds any bound a result
#: line may carry; out_bytes and fail_frac are 0 on some workloads, and
#: ``attempted`` and ``failed`` carry the failure ratio.  op_cost_rel stands
#: for them: each op's cost relative to a calibration taken beside it, which
#: cancels most of the host's drift (see ``Stats.op_cost_rel``).
E2E_UNITS = {"setup_s": "s", "op_cost_rel": "ratio", "peak_rss_mb": "MiB"}

LAYERS = ("units", "model", "contributions", "ingest", "report", "svg", "cli")
CLI_COMMANDS = ("invert", "predict", "sweep", "timeline", "relativistic")


def figure_ids() -> list[str]:
    with open(os.path.join(BENCH_DIR, "figure_csv_sha256.json")) as fh:
        return list(json.load(fh))


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for fig_id in figure_ids():
        units.update({
            f"svg.render_ms.{fig_id}": "ms", f"svg.bytes.{fig_id}": "bytes",
            f"svg.elements.{fig_id}": "count",
            f"report.build_ms.{fig_id}": "ms",
            f"report.emit_csv_ms.{fig_id}": "ms",
            f"report.csv_bytes.{fig_id}": "bytes",
            f"report.points.{fig_id}": "count"})
    units["ingest.load_bundled_ms"] = "ms"
    units.update({"cli.import_ms": "ms", "cli.modules_loaded": "count",
                  "cli.build_parser_ms": "ms", "cli.floor_ms": "ms"})
    units.update({f"cli.main_ms.{cmd}": "ms" for cmd in CLI_COMMANDS})
    units.update({f"ingest.{stage}_ms": "ms" for stage in
                  ("parse_records", "join_meta", "derive", "serialize_records")})
    units.update({"ingest.rows_in": "count", "ingest.rows_rejected": "count",
                  "contributions.peak_point_us": "us",
                  "contributions.rmax_of_rpeak_us": "us",
                  "model.alpha_from_measurement_us": "us",
                  "units.parse_flops_us": "us"})
    units.update({f"self_ms.{layer}": "ms" for layer in LAYERS})
    units["trace.overhead_ratio"] = "ratio"
    return units


def import_program() -> None:
    """Make ``src/`` of this checkout the only place parascale comes from.

    Bytecode is written whatever PYTHONDONTWRITEBYTECODE says, so that child
    interpreters load the program from cached bytecode, as an installed
    package would, instead of compiling it on every start.
    """
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    try:
        import parascale
    except ImportError as exc:
        sys.exit(f"bench: cannot import parascale from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(parascale.__file__))) != SRC:
        sys.exit(f"bench: parascale came from {parascale.__file__}, not {SRC}")


class Stats:
    """Attempts, failures, latencies and exact counts of one stretch of ops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.busy = 0.0
        self.costs: dict[str, list[float]] = defaultdict(list)   # by label
        self.counts: dict[str, list[float]] = defaultdict(list)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy if self.busy else 0.0

    @property
    def op_cost_rel(self) -> float:
        """Mean over op labels of the median relative cost of an op.

        An in-process op's relative cost is its latency over that of a fixed
        pure-Python calibration kernel run right beside it; a CLI op's is
        the CLI child's CPU time over that of its paired bare-interpreter
        floor.  Either cancels most of the drift in the host's speed.
        Taking the median per label first keeps a rare label (figure 1)
        from being outweighed by the frequent ones.
        """
        medians = [statistics.median(c) for c in self.costs.values()]
        return statistics.fmean(medians) if medians else 0.0

    def merge(self, other: "Stats") -> None:
        """Add the attempts, failures and counts of ``other``."""
        self.attempted += other.attempted
        self.failures += other.failures
        for name, values in other.counts.items():
            self.counts[name] += values


def run_op(w, inp, stats: Stats, tracer=None, timed: bool = True):
    """Run and check one op; returns its latency, or None if it failed."""
    stats.attempted += 1
    try:
        out, latency, busy, cost = w.run(inp, tracer)
        counts = w.check(inp, out)
    except Exception as exc:   # raised, exited non-zero or failed its check
        stats.failures.append(f"{w.name} {w.label(inp)}: "
                              f"{type(exc).__name__}: {exc}")
        return None
    if timed:
        stats.latencies.append(latency)
        stats.busy += busy
        stats.costs[w.label(inp)].append(cost)
    for name, value in counts.items():
        stats.counts[name].append(value)
    return latency


def run_loop(w, inputs, deadline: float, stats: Stats, tracer=None) -> None:
    """Closed loop, one client: ops back to back until ``deadline``, or
    until a traced stretch has recorded SPAN_CAP spans."""
    span_limit = len(tracer.spans) + SPAN_CAP if tracer is not None else 0
    while perf_counter() < deadline:
        if tracer is not None and len(tracer.spans) >= span_limit:
            break
        run_op(w, next(inputs), stats, tracer)


def setup_sample(w, first_input, floor_first: bool):
    """One fresh interpreter running ``first_input`` as its first op, paired
    with a bare-interpreter floor run before or after it.

    Returns (set-up seconds, floor seconds, op output, peak RSS KiB).  All
    times are CPU times, which, unlike wall times, do not include waiting
    for a core on a shared host.  The set-up time is the child's CPU time
    to its first op's result, less the floor's, the time the child spent
    reading its input and the same op's time when the child repeats it
    warm.  So it is the cold-start cost: imports, program data loading and
    first-call penalties.  That is then scaled by CALIBRATION_REF_S over the
    calibration kernel's CPU time in the same child: the host's speed
    drifts by up to 2x between runs a minute apart, and the scaled time
    drifts less than half as much.  The caller checks the output like any
    op's; a cli child runs ``cli.main`` in-process, so its output is
    checked as a CLI child's with an empty stderr.
    """
    from workloads import (CHILD, CHILD_TIMEOUT_S, PYTHON, CliResult,
                           child_env, run_floor)
    floor = run_floor()[1] if floor_first else 0.0
    proc = subprocess.run([*PYTHON, CHILD, "setup", w.name],
                          input=marshal.dumps(first_input),
                          capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if not floor_first:
        floor = run_floor()[1]
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
    head, _, payload = proc.stdout.partition(b"\n")
    input_s, cold_s, warm_s, calibration_s, peak_kib = head.split()
    cold_start = float(cold_s) - float(input_s) - float(warm_s) - floor
    out = pickle.loads(payload)
    if w.name == "cli":
        out = CliResult(*out, stderr=b"", floor_s=floor)
    return (cold_start * CALIBRATION_REF_S / float(calibration_s), floor,
            out, int(peak_kib))


def run_untraced(w, inputs, seconds: float, stats: Stats):
    """The timed phase, with SETUP_REPS set-up samples spread evenly across
    it; returns the set-up samples, the floors taken beside them and the
    set-up children's peak RSS in KiB.

    A set-up sample is measured by ``setup_sample``.  Sample i starts at
    the i-th op of the seeded sequence, so setup_s covers the spread of
    first ops instead of one draw, and spread out in time the samples see
    the same mix of host speeds as the ops.  Op latencies exclude the
    pauses.
    """
    first_inputs = [next(inputs) for _ in range(SETUP_REPS)]
    run_op(w, first_inputs[0], stats, timed=False)     # warm-up, not timed
    start = perf_counter()
    samples, floors, peaks_kib = [], [], []
    for i, first_input in enumerate(first_inputs):
        stats.attempted += 1
        try:
            sample, floor, out, peak_kib = setup_sample(w, first_input,
                                                        i % 2 == 0)
            w.check(first_input, out)
            samples.append(sample)
            floors.append(floor)
            peaks_kib.append(peak_kib)
        except Exception as exc:   # the set-up op failed or its output is wrong
            stats.failures.append(f"{w.name} set-up: {type(exc).__name__}: {exc}")
        run_loop(w, inputs, start + seconds * (i + 1) / SETUP_REPS, stats)
    return samples, floors, peaks_kib


def quantile_ms(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10, 20, ..., 90) in milliseconds."""
    if len(values) < 2:
        return values[0] * 1e3 if values else 0.0
    return statistics.quantiles(values, n=10)[q // 10 - 1] * 1e3


def end_to_end(w, stats: Stats, setup: list[float],
               peaks_kib: list[int]) -> dict[str, tuple]:
    """name -> (value, unit, sample description).

    peak_rss_mb is the largest peak RSS of a set-up child when its first
    op ended.  The benchmark process itself holds inputs and checks, and
    its high-water mark shifts with how the allocator happened to reuse
    memory.
    """
    n = len(stats.latencies)
    out_bytes = stats.counts.get("out_bytes", [])
    return {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s",
                    f"median of {len(setup)} cold starts' CPU time, net of "
                    "floor and warm op, at the reference calibration"),
        "op_cost_rel": (stats.op_cost_rel, "ratio",
                        f"{n} ops, mean over {len(stats.costs)} labels of "
                        + ("median CPU time / paired floor's" if w.name == "cli"
                           else "median latency / calibration's")),
        "ops_per_s": (stats.ops_per_s, "ops/s", f"{n} ops"),
        "op_p50_ms": (quantile_ms(stats.latencies, 50), "ms", f"{n} ops"),
        "op_p90_ms": (quantile_ms(stats.latencies, 90), "ms", f"{n} ops"),
        "peak_rss_mb": (max(peaks_kib, default=0) / 1024, "MiB",
                        f"largest of {len(peaks_kib)} set-up children"),
        "out_bytes": (sum(out_bytes) / len(out_bytes) if out_bytes else 0.0,
                      "bytes/op", f"{len(out_bytes)} ops, exact"),
        "fail_frac": (len(stats.failures) / max(stats.attempted, 1), "ratio",
                      f"{len(stats.failures)} of {stats.attempted} ops"),
    }


def per_layer(tracer, counts, reference_start: int, passes: int,
              overhead: dict[str, float]) -> tuple[dict[str, tuple], list[str]]:
    """Per-layer metrics from the spans and counts of a traced run;
    ``overhead`` maps a metric name to a tracing overhead ratio."""
    from tracing import self_seconds_by_layer
    per_op: dict[tuple, float] = defaultdict(float)   # (name, op) -> seconds
    calls: dict[tuple, list] = defaultdict(list)      # (name, workload) -> seconds
    for op, name, start, end, _ in tracer.spans:
        per_op[name, op] += end - start
        calls[name, tracer.ops[op][0]].append(end - start)
    by_label: dict[tuple, list] = defaultdict(list)   # (name, workload, label)
    for (name, op), seconds in per_op.items():
        by_label[(name, *tracer.ops[op])].append(seconds)
        by_label[(name, tracer.ops[op][0], None)].append(seconds)

    units = layer_metric_units()
    metrics, missing = {}, []

    def put(metric: str, values, scale: float = 1.0, what: str = "calls"):
        if values:
            metrics[metric] = (statistics.median(values) * scale, units[metric],
                               f"median of {len(values)} {what}")
        else:
            metrics[metric] = (0.0, units[metric], "missing")
            missing.append(metric)

    for fig_id in figure_ids():
        for metric, span in (("svg.render_ms", "svg.render_svg"),
                             ("report.build_ms", "report.build_figure"),
                             ("report.emit_csv_ms", "report.emit_csv")):
            put(f"{metric}.{fig_id}", by_label[span, "figures", fig_id], 1e3)
        for metric in ("svg.bytes", "svg.elements", "report.csv_bytes",
                       "report.points"):
            put(f"{metric}.{fig_id}", counts.get(f"{metric}.{fig_id}"), what="ops")
    put("ingest.load_bundled_ms", calls["ingest.load_bundled", "figures"], 1e3)
    put("cli.import_ms", calls["cli.import", "cli"], 1e3)
    put("cli.build_parser_ms", calls["cli.build_parser", "cli"], 1e3)
    for cmd in CLI_COMMANDS:
        put(f"cli.main_ms.{cmd}", by_label["cli.main", "cli", cmd], 1e3)
    put("cli.modules_loaded", counts.get("cli.modules_loaded"), what="ops")
    put("cli.floor_ms", counts.get("cli.floor_ms"), what="floors")
    for stage in ("parse_records", "join_meta", "derive", "serialize_records"):
        put(f"ingest.{stage}_ms", by_label[f"ingest.{stage}", "ingest", None],
            1e3, "ops")
    put("ingest.rows_in", counts.get("ingest.rows_in"), what="ops")
    put("ingest.rows_rejected", counts.get("ingest.rows_rejected"), what="ops")
    put("contributions.peak_point_us", calls["contributions.peak_point", "model"], 1e6)
    put("contributions.rmax_of_rpeak_us",
        calls["contributions.rmax_of_rpeak", "model"], 1e6)
    put("model.alpha_from_measurement_us",
        calls["model.alpha_from_measurement", "model"], 1e6)
    put("units.parse_flops_us", calls["units.parse_flops", "cli"], 1e6)

    self_s = self_seconds_by_layer(tracer.spans, reference_start)
    for layer in LAYERS:
        if layer in self_s:
            metrics[f"self_ms.{layer}"] = (self_s[layer] / passes * 1e3, "ms",
                                           f"mean of {passes} reference passes")
        else:
            metrics[f"self_ms.{layer}"] = (0.0, "ms", "missing")
            missing.append(f"self_ms.{layer}")
    for metric, ratio in overhead.items():
        metrics[metric] = (ratio, "ratio", "traced / untraced ops_per_s")
    return metrics, missing


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS
    w = WORKLOADS[name](seed)
    w.setup()
    w.prepare()
    return w


def measure(name: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload, untraced."""
    from workloads import NOTES

    w = make_workload(name, seed)
    stats = Stats()
    setup, floors, peaks_kib = run_untraced(w, w.inputs(), seconds, stats)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 0,
        "notes": {name: NOTES[name]},
        "ops": {name: {"setup": len(setup), "timed": len(stats.latencies)}},
        "setup_floor_cpu_ms": [f * 1e3 for f in floors],
        "attempted": stats.attempted, "failed": len(stats.failures),
        "failures": stats.failures[:20], "missing_metrics": [],
        "metrics": {k: {"value": v, "unit": u, "samples": s}
                    for k, (v, u, s) in
                    end_to_end(w, stats, setup, peaks_kib).items()},
        "spans": None,
    }


def measure_traced(names: list[str], seed: int, seconds: float) -> dict:
    """The per-layer metrics: untraced then traced stretches of each named
    workload, then traced reference passes over every workload."""
    from tracing import Tracer
    from workloads import NOTES, WORKLOADS

    start = perf_counter()
    tracer = Tracer()
    stats, reference = Stats(), Stats()
    built, overhead, ops = {}, {}, {}
    stretch = seconds * TRACED_SHARE / len(names)
    for name in names:
        w = built[name] = make_workload(name, seed)
        inputs = w.inputs()
        run_op(w, next(inputs), stats, timed=False)   # warm-up, not timed
        plain, traced = Stats(), Stats()
        run_loop(w, inputs, perf_counter() + stretch, plain)
        with tracer.patched(w.trace_targets()):
            run_loop(w, inputs, perf_counter() + stretch, traced, tracer)
        metric = ("trace.overhead_ratio" if len(names) == 1
                  else f"trace.overhead_ratio.{name}")
        overhead[metric] = (traced.ops_per_s / plain.ops_per_s
                            if plain.ops_per_s else 0.0)
        ops[name] = {"untraced": len(plain.latencies),
                     "traced": len(traced.latencies)}
        stats.merge(plain)
        stats.merge(traced)

    reference_start = len(tracer.spans)
    everyone = [built.get(name) or make_workload(name, seed)
                for name in WORKLOADS]
    passes = 0
    while passes == 0 or (passes < REFERENCE_PASSES
                          and perf_counter() - start < seconds):
        for x in everyone:
            with tracer.patched(x.trace_targets()):
                for inp in x.reference_pass(passes):
                    run_op(x, inp, reference, tracer)
        passes += 1
    stats.merge(reference)
    ops["reference"] = {"ops": len(reference.latencies), "passes": passes}

    metrics, missing = per_layer(tracer, stats.counts, reference_start,
                                 passes, overhead)
    return {
        "workload": names[0] if len(names) == 1 else "all", "seed": seed,
        "seconds": seconds, "trace": 1,
        "notes": {name: NOTES[name] for name in names}, "ops": ops,
        "setup_floor_cpu_ms": [],
        "attempted": stats.attempted, "failed": len(stats.failures),
        "failures": stats.failures[:20], "missing_metrics": missing,
        "metrics": {k: {"value": v, "unit": u, "samples": s}
                    for k, (v, u, s) in metrics.items()},
        "spans": {"ops": tracer.ops, "spans": tracer.spans},
    }


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256() -> str:
    """Digest of the program's sources and bundled data, in path order."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "parascale"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".csv")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int, ops: dict) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "src_sha256": src_sha256(),
            "seed": seed, "ops": ops}


def write_result(result: dict, env: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans = result.pop("spans")
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as fh:
        json.dump({"env": env, **result}, fh, indent=1)
        fh.write("\n")
    if spans is not None:
        spans["fields"] = ["op", "name", "start_s", "end_s", "parent"]
        with open(os.path.join(RESULTS_DIR, f"spans-{result['workload']}.json"),
                  "w") as fh:
            json.dump(spans, fh)


def print_report(result: dict, env: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['seconds']:g} s  trace {result['trace']}")
    for name, notes in result["notes"].items():
        print(f"   {name} op ({notes['loop']} loop, {notes['clients']} "
              f"client): {notes['op']}")
    for name, m in result["metrics"].items():
        print(f"   {name:34s} {m['value']:14.6g} {m['unit']:9s} ({m['samples']})")
    print(f"   attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for metric in result["missing_metrics"]:
        print(f"   MISSING {metric}: no span or count recorded")
    print(f"   env: python {env['python']}, git {env['git_sha'][:12]}, "
          f"src sha256 {env['src_sha256'][:12]}, nproc {env['nproc']}, "
          f"ops {json.dumps(env['ops'])}")


def result_line(result: dict, names) -> dict:
    correct = result["failed"] == 0 and not result["missing_metrics"]
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name]["value"],
                               "unit": result["metrics"][name]["unit"]}
                        for name in names}}


def run_each(args) -> dict:
    """Every workload untraced, each in a fresh interpreter of its own, one
    after another; returns their result lines by workload.

    A workload run in this process would run on the heap, caches and
    module state the workloads before it left behind.
    """
    from workloads import WORKLOADS
    lines = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        report, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        print(report, flush=True)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} exited {proc.returncode}")
        lines[name] = json.loads(last)
    return lines


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all" and not args.trace:
        lines = run_each(args)
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, line in lines.items()
                        for metric, value in line["metrics"].items()}}))
        return 0

    if args.trace:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        result = measure_traced(names, args.seed, args.seconds)
        metric_names = list(result["metrics"])
    else:
        result = measure(args.workload, args.seed, args.seconds)
        metric_names = list(E2E_UNITS)
    env = environment(args.seed, result["ops"])
    print_report(result, env)
    write_result(result, env)
    print(json.dumps(result_line(result, metric_names)))
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
