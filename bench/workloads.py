"""The four workloads: seeded inputs, how one op runs, and its output check.

Every workload is a closed loop with one client: the next op starts only
after the previous one has finished and been checked.  Inputs are made from
``--seed`` alone, and the program only ever sees the generated inputs.

An op fails when it raises, exits non-zero or fails its check; ``check``
signals a failed check by raising :class:`CheckFailed`.  On success it
returns the op's exact counts (output bytes and per-layer counts).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import xml.parsers.expat
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

from ops import OPS, calibration_kernel
from tracing import TRACE_MARKER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
CHILD_TIMEOUT_S = 60

#: Why each workload exists and what it exercises; printed with every run
#: and stored in every result file.
NOTES = {
    "figures": {
        "loop": "closed", "clients": 1,
        "op": "report.build_figure(id), emit_csv and emit_svg into memory; "
              "every figure id equally often, order permuted by the seed",
        "stresses": ["report", "svg"],
        "bypasses": ["cli"],
        "why": "the only workload where report and svg do most of the work; "
               "figure 1's heatmap SVG is ROADMAP hot spot 2a; ingest, model "
               "and contributions are nearly idle",
    },
    "cli": {
        "loop": "closed", "clients": 1,
        "op": "one fresh `python -S -m parascale.cli <argv>` from a seeded mix "
              "of invert, predict, predict --preset, sweep (512 points), "
              "timeline and relativistic; each paired with an interleaved "
              "bare `python -S -c pass`, latencies net of that floor",
        "stresses": ["cli", "units", "interpreter start-up and imports"],
        "bypasses": ["svg", "report figure emission"],
        "why": "start-up dominates here (ROADMAP hot spot 2b); figure and "
               "surface are left out so that svg does no work",
    },
    "ingest": {
        "loop": "closed", "clients": 1,
        "op": "one seeded ~5,000-row measurement CSV through parse_records, "
              "join_meta, derive, serialize_records and parse_records again",
        "stresses": ["ingest"],
        "bypasses": ["report", "svg", "cli"],
        "why": "ingest does nearly all the work, and it is the only workload "
               "whose working set grows with its input",
        "known_defect": "ingest.join_meta raises a bare ValueError without a "
                        "line number when the metadata r_peak is below a "
                        "record's r_max (ROADMAP item 4). The generator keeps "
                        "r_max <= the listed r_peak for metadata machines, as "
                        "real measurements do, so this path is not exercised.",
    },
    "model": {
        "loop": "closed", "clients": 1,
        "op": "one seeded AlphaDecomposition spanning the HPL, HPCG and NN "
              "presets (bio_factor 1..5000): peak_point, a 512-point "
              "rmax_of_rpeak sweep from N = 10 to 3x the peak, and "
              "alpha_from_measurement on every swept point",
        "stresses": ["model", "contributions"],
        "bypasses": ["ingest", "report", "svg", "cli"],
        "why": "everywhere else model and contributions take under 2% of the "
               "time; ROADMAP item 3 (closed-form core) must show no "
               "regression here",
    },
}


class CheckFailed(Exception):
    """An op's output is wrong."""


#: Every child interpreter runs with ``-S``: site-packages ``.pth`` files of
#: the host can import modules at start-up (certifi, importlib.resources,
#: pathlib, ...), which would both add noise to the floor and make the
#: program's own imports of those modules look free.  parascale has no
#: dependencies, so it runs the same without site.
PYTHON = (sys.executable, "-S")


def child_env() -> dict:
    """Environment of every child interpreter: the checkout's ``src`` first."""
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def children_cpu_seconds() -> float:
    """User plus system CPU time of every child that has ended."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_floor() -> tuple[float, float]:
    """Wall and CPU seconds of one bare ``python -S -c pass``: the start-up
    floor."""
    cpu, start = children_cpu_seconds(), perf_counter()
    subprocess.run([*PYTHON, "-c", "pass"], env=child_env(), cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start, children_cpu_seconds() - cpu


def calibration_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel.

    The host's speed for the code the in-process ops run drifts by up to 2x
    from one stretch of seconds to the next; an op's latency over the
    kernel's, taken right beside it, cancels most of that drift, and the
    kernel itself never changes.
    """
    start = perf_counter()
    calibration_kernel()
    return perf_counter() - start


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _permuted_cycles(rng: random.Random, items):
    """Every item once per cycle, each cycle in a fresh seeded order."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


class Workload:
    """Shared shape; the subclasses supply inputs, op and check."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.op = OPS[self.name]() if self.name in OPS else None

    def rng(self, stream: str = "ops") -> random.Random:
        return random.Random(f"{self.name}:{stream}:{self.seed}")

    def setup(self) -> None:
        """Program-side set-up, as a set-up child does it."""
        self.op.setup()

    def prepare(self) -> None:
        """Benchmark-side set-up: generated inputs and reference outputs."""

    def inputs(self):
        raise NotImplementedError

    def reference_pass(self, index: int) -> list:
        """Inputs covering every label of the workload once (traced runs)."""
        raise NotImplementedError

    def label(self, inp) -> str:
        return self.name

    def trace_targets(self) -> list:
        """``(module, attribute, span name)`` to wrap in a traced run."""
        return []

    def run(self, inp, tracer=None):
        """Run one op between two runs of the calibration kernel; returns
        (output, latency s, busy s, relative cost), the last being the
        latency over the mean of the kernel's two times."""
        before = calibration_seconds()
        with tracer.op(self.name, self.label(inp)) if tracer else nullcontext():
            start = perf_counter()
            out = self.op(inp)
            elapsed = perf_counter() - start
        calibration = (before + calibration_seconds()) / 2
        return out, elapsed, elapsed, elapsed / calibration

    def check(self, inp, out) -> dict:
        raise NotImplementedError


# --------------------------------------------------------------- figures

def svg_element_count(data: bytes) -> int:
    """Elements in an SVG document; raises CheckFailed unless it is well-formed
    XML with an ``<svg>`` root."""
    count = 0

    def start(name, _attrs):
        nonlocal count
        if count == 0 and name != "svg":
            raise CheckFailed(f"SVG root element is <{name}>")
        count += 1

    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = start
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise CheckFailed(f"SVG is not well-formed XML: {exc}") from None
    return count


class Figures(Workload):
    name = "figures"

    def prepare(self) -> None:
        with open(os.path.join(BENCH_DIR, "figure_csv_sha256.json")) as fh:
            self.csv_sha256 = json.load(fh)
        self.ids = tuple(self.op.report.FIGURE_IDS)
        self._svg: dict[str, tuple[str, int]] = {}   # id -> (sha256, elements)

    def inputs(self):
        return _permuted_cycles(self.rng(), self.ids)

    def reference_pass(self, index: int) -> list:
        return list(self.ids)

    def label(self, fig_id) -> str:
        return fig_id

    def trace_targets(self) -> list:
        from parascale import ingest, report
        return [
            (report, "build_figure", "report.build_figure"),
            (report, "emit_csv", "report.emit_csv"),
            (report, "emit_svg", "report.emit_svg"),
            (report, "render_svg", "svg.render_svg"),
            (ingest, "load_bundled", "ingest.load_bundled"),
            (ingest, "load_bundled_meta", "ingest.load_bundled_meta"),
            (ingest, "parse_records", "ingest.parse_records"),
            (ingest, "join_meta", "ingest.join_meta"),
            (ingest, "derive", "ingest.derive"),
        ]

    def check(self, fig_id, out) -> dict:
        csv_text, svg_text = out
        csv_bytes, svg_bytes = csv_text.encode(), svg_text.encode()
        if hashlib.sha256(csv_bytes).hexdigest() != self.csv_sha256.get(fig_id):
            raise CheckFailed(f"figure {fig_id} CSV differs from the reference")
        digest = hashlib.sha256(svg_bytes).hexdigest()
        if fig_id not in self._svg:
            self._svg[fig_id] = (digest, svg_element_count(svg_bytes))
        elif self._svg[fig_id][0] != digest:
            raise CheckFailed(f"figure {fig_id} SVG differs from its first pass")
        return {
            "out_bytes": len(csv_bytes) + len(svg_bytes),
            f"report.csv_bytes.{fig_id}": len(csv_bytes),
            f"report.points.{fig_id}": csv_text.count("\n") - 1,
            f"svg.bytes.{fig_id}": len(svg_bytes),
            f"svg.elements.{fig_id}": self._svg[fig_id][1],
        }


# ---------------------------------------------------------------- ingest

_PERF_UNITS = (("flops", 1.0), ("gflops", 1e9), ("tflops", 1e12),
               ("pflops", 1e15), ("eflops", 1e18))
INGEST_FILES = 8


def measurement_file(rng: random.Random, meta: dict, n_rows: int) -> dict:
    """One synthetic measurement CSV with its expected row counts.

    Varies the unit-suffixed headers and the column order, and adds comment
    lines, ~5% empty ``rpeak`` and ``cores`` cells, machine names both in and
    out of the metadata table, and ~1% planted rows with r_max > r_peak that
    parsing must reject.  Rows of metadata machines with an empty ``rpeak``
    keep r_max below the listed r_peak (see NOTES["ingest"]).
    """
    units = {"rpeak": rng.choice(_PERF_UNITS), "rmax": rng.choice(_PERF_UNITS)}
    columns = ["machine", "date", "benchmark", "rpeak", "rmax", "cores"]
    rng.shuffle(columns)
    header = [f"{c}_{units[c][0]}" if c in units else c for c in columns]
    known = sorted(meta)

    def number(value: float) -> str:
        return f"{value:.6g}" if rng.random() < 0.5 else repr(value)

    lines = ["# synthetic measurement file", ",".join(header)]
    planted = 0
    for i in range(n_rows):
        if rng.random() < 0.01:
            lines.append(f"# row {i}")
        name = (rng.choice(known) if rng.random() < 0.4
                else f"sys-{rng.randrange(100_000):05d}")
        r_peak = _log_uniform(rng, 1e13, 5e17)
        rpeak_empty = rng.random() < 0.05
        if rpeak_empty and name in meta:
            r_peak = meta[name]["rpeak_flops"]
        if not rpeak_empty and rng.random() < 0.01:
            r_max = r_peak * rng.uniform(1.05, 2.0)
            planted += 1
        else:
            r_max = r_peak * rng.uniform(0.02, 0.99)
        cells = {
            "machine": name,
            "date": repr(rng.randrange(1993 * 2, 2021 * 2) / 2),
            "benchmark": rng.choice(("HPL", "HPCG")),
            "rpeak": "" if rpeak_empty else number(r_peak / units["rpeak"][1]),
            "rmax": number(r_max / units["rmax"][1]),
            "cores": ("" if rng.random() < 0.05
                      else str(round(_log_uniform(rng, 1e3, 1e7)))),
        }
        lines.append(",".join(cells[c] for c in columns))
    return {"text": "\n".join(lines) + "\n", "n_rows": n_rows,
            "n_planted": planted}


class Ingest(Workload):
    name = "ingest"

    def prepare(self) -> None:
        rng = self.rng("files")
        self.files = [measurement_file(rng, self.op.meta, rng.randint(4500, 5500))
                      for _ in range(INGEST_FILES)]

    def inputs(self):
        return _permuted_cycles(self.rng(), self.files)

    def reference_pass(self, index: int) -> list:
        return [self.files[index % len(self.files)]]

    def trace_targets(self) -> list:
        from parascale import ingest
        return [(ingest, name, f"ingest.{name}") for name in
                ("parse_records", "join_meta", "derive", "serialize_records")]

    def check(self, measurement, out) -> dict:
        records, warnings, joined, derived, text, reparsed, rewarnings = out
        rows_in, rejected = len(records), len(warnings)
        if rows_in + rejected != measurement["n_rows"]:
            raise CheckFailed(f"{rows_in} rows in + {rejected} rejected != "
                              f"{measurement['n_rows']} generated")
        if rejected != measurement["n_planted"]:
            raise CheckFailed(f"{rejected} rows rejected, "
                              f"{measurement['n_planted']} planted")
        if rewarnings or reparsed != joined:
            raise CheckFailed("parse(serialize(joined)) != joined")
        if len(derived) != len(joined):
            raise CheckFailed("derive dropped records")
        for d in derived:
            if d.efficiency is not None and not 0.0 < d.efficiency <= 1.0:
                raise CheckFailed(f"efficiency {d.efficiency!r} outside (0, 1]")
        return {"out_bytes": len(text.encode()), "ingest.rows_in": rows_in,
                "ingest.rows_rejected": rejected}


# ----------------------------------------------------------------- model

SWEEP_POINTS = 512
MODEL_REFERENCE_OPS = 8


def model_case(rng: random.Random, perf_per_pu: float) -> dict:
    """A decomposition spanning the presets, with its sweep and exact peak.

    The sweep runs from N = 10 to 3 N*, and at most to half the N at which
    the serial fraction reaches 1, far inside the model's validity bound.
    """
    from parascale import contributions
    params = {
        "alpha_sw": _log_uniform(rng, 2e-8, 2e-6),
        "ctx_switch_clocks": _log_uniform(rng, 5e3, 2e4),
        "total_clocks": _log_uniform(rng, 1e13, 4e13),
        "loop_clocks_per_pu": rng.uniform(0.5, 2.0),
        "bio_factor": _log_uniform(rng, 1.0, 5000.0),
    }
    d = contributions.AlphaDecomposition(**params)
    n_peak = contributions.analytic_peak_n(d)
    n_valid = (1.0 - d.constant_part) / d.slope
    lo, hi = math.log10(10.0), math.log10(min(3.0 * n_peak, 0.5 * n_valid))
    rpeaks = [perf_per_pu * 10.0 ** (lo + (hi - lo) * i / (SWEEP_POINTS - 1))
              for i in range(SWEEP_POINTS)]
    return {"params": params, "rpeaks": rpeaks, "n_peak": n_peak}


class Model(Workload):
    name = "model"

    def inputs(self):
        rng = self.rng()
        while True:
            yield model_case(rng, self.op.machine.perf_per_pu)

    def reference_pass(self, index: int) -> list:
        rng = self.rng(f"reference-{index}")
        return [model_case(rng, self.op.machine.perf_per_pu)
                for _ in range(MODEL_REFERENCE_OPS)]

    def trace_targets(self) -> list:
        from parascale import contributions, model
        return [
            (contributions, "peak_point", "contributions.peak_point"),
            (contributions, "rmax_of_rpeak", "contributions.rmax_of_rpeak"),
            (model, "alpha_from_measurement", "model.alpha_from_measurement"),
        ]

    def check(self, case, out) -> dict:
        peak, recovered = out
        if abs(peak.n_star / case["n_peak"] - 1.0) > 1e-2:
            raise CheckFailed(f"n_star {peak.n_star!r} vs analytic_peak_n "
                              f"{case['n_peak']!r}")
        if len(recovered) != len(case["rpeaks"]):
            raise CheckFailed("sweep lost points")
        contributions = self.op.contributions
        d = contributions.AlphaDecomposition(**case["params"])
        perf_per_pu = self.op.machine.perf_per_pu
        for r_peak, alpha in zip(case["rpeaks"], recovered):
            expected = contributions.alpha_total(r_peak / perf_per_pu, d)
            if not abs(alpha / expected - 1.0) <= 1e-6:
                raise CheckFailed(f"inversion {alpha!r} vs alpha_total "
                                  f"{expected!r} at r_peak {r_peak!r}")
        return {"out_bytes": 0}


# ------------------------------------------------------------------- cli

CLI_KINDS = ("invert", "predict", "predict-preset", "sweep", "timeline",
             "relativistic")
CLI_ARGVS_PER_KIND = 8
_PREFIXES = (("G", 1e9), ("T", 1e12), ("P", 1e15), ("E", 1e18))
_NUMBER = re.compile(r"\b(?:nan|inf|infinity)\b|"
                     r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", re.I)


def _flops_arg(rng: random.Random, value: float) -> str:
    prefix, scale = rng.choice(_PREFIXES)
    return f"{value / scale:.6g}{prefix}"


def cli_argv(rng: random.Random, kind: str, machines) -> list[str]:
    """One valid argv of the given kind, values drawn from the seed."""
    preset = rng.choice(("HPL", "HPCG", "NN"))
    if kind == "invert":
        r_peak = _log_uniform(rng, 1e13, 3e17)
        return ["invert", "--n", str(round(_log_uniform(rng, 1e3, 1e7))),
                "--rpeak", _flops_arg(rng, r_peak),
                "--rmax", _flops_arg(rng, r_peak * rng.uniform(0.05, 0.99))]
    if kind == "predict":
        argv = ["predict", "--n", str(round(_log_uniform(rng, 1e2, 1e7))),
                "--p", _flops_arg(rng, _log_uniform(rng, 1e9, 3e11)),
                "--alpha", repr(1.0 - _log_uniform(rng, 1e-9, 1e-3))]
        unit = rng.choice((None, "G", "P", "E"))
        return argv + (["--unit", unit] if unit else [])
    if kind == "predict-preset":
        return ["predict", "--preset", preset,
                "--rpeak", _flops_arg(rng, _log_uniform(rng, 1e15, 1.1e18))]
    if kind == "sweep":
        return ["sweep", "--preset", preset, "--points", "512",
                "--rpeak-max", _flops_arg(rng, _log_uniform(rng, 2e17, 1.1e18))]
    if kind == "timeline":
        return ["timeline", "--machine", rng.choice(machines)]
    if kind == "relativistic":
        return ["relativistic", "--t", repr(_log_uniform(rng, 1.0, 1e9)),
                "--n", repr(rng.uniform(1.0, 2.0))]
    raise ValueError(f"unknown cli op kind {kind!r}")


@dataclass
class CliResult:
    """What one CLI child produced, with its paired floor."""

    returncode: int
    stdout: bytes
    stderr: bytes
    floor_s: float
    modules_loaded: int | None = None


def split_trace(stderr: bytes) -> tuple[bytes, dict | None]:
    """Separate the traced child's span record from the CLI's own stderr."""
    head, sep, tail = stderr.rpartition(TRACE_MARKER.encode())
    if not sep:
        return stderr, None
    return head, json.loads(tail)


class Cli(Workload):
    name = "cli"

    def prepare(self) -> None:
        from parascale import ingest
        records, _ = ingest.load_bundled("fig3_timeline.csv")
        machines = ingest.machine_names(records)
        rng = self.rng("argv")
        self.pool = {kind: [cli_argv(rng, kind, machines)
                            for _ in range(CLI_ARGVS_PER_KIND)]
                     for kind in CLI_KINDS}
        self.expected = {tuple(argv): self.op(argv)   # in this process
                         for argvs in self.pool.values() for argv in argvs}
        self._ops = 0

    def inputs(self):
        rng = self.rng()
        for kind in _permuted_cycles(rng, CLI_KINDS):
            yield rng.choice(self.pool[kind])

    def reference_pass(self, index: int) -> list:
        return [argvs[index % len(argvs)] for argvs in self.pool.values()]

    def label(self, argv) -> str:
        return argv[0]

    def command(self, argv, traced: bool = False) -> list[str]:
        if traced:
            return [*PYTHON, CHILD, "cli", *argv]
        return [*PYTHON, "-m", "parascale.cli", *argv]

    def run(self, argv, tracer=None):
        """One CLI child and one floor, alternating which runs first.

        The latency is the child's wall time net of the floor's.  The
        relative cost is the child's CPU time over the floor's: a child
        waits for a core on a shared host, which its wall time shows and
        its CPU time does not.
        """
        self._ops += 1
        floor_first = self._ops % 2 == 1
        floor, floor_cpu = run_floor() if floor_first else (0.0, 0.0)
        with tracer.op(self.name, self.label(argv)) if tracer else nullcontext():
            cpu, start = children_cpu_seconds(), perf_counter()
            proc = subprocess.run(self.command(argv, tracer is not None),
                                  capture_output=True, env=child_env(),
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S)
            raw = perf_counter() - start
            cpu = children_cpu_seconds() - cpu
            stderr, trace = split_trace(proc.stderr)
            if tracer and trace:
                tracer.graft(trace["spans"])
        if not floor_first:
            floor, floor_cpu = run_floor()
        result = CliResult(proc.returncode, proc.stdout, stderr, floor,
                           trace["modules_loaded"] if trace else None)
        return result, raw - floor, raw, cpu / floor_cpu

    def check(self, argv, out: CliResult) -> dict:
        if out.returncode != 0:
            raise CheckFailed(f"exit code {out.returncode}: "
                              f"{out.stderr.decode(errors='replace').strip()}")
        code, expected = self.expected[tuple(argv)]
        if code != 0 or out.stdout != expected:
            raise CheckFailed("stdout differs from in-process cli.main")
        for token in _NUMBER.findall(out.stdout.decode()):
            if not math.isfinite(float(token)):
                raise CheckFailed(f"non-finite number {token!r} on stdout")
        counts = {"out_bytes": len(out.stdout), "cli.floor_ms": out.floor_s * 1e3}
        if out.modules_loaded is not None:
            counts["cli.modules_loaded"] = out.modules_loaded
        return counts


WORKLOADS = {w.name: w for w in (Figures, Cli, Ingest, Model)}
