"""One op of each in-process workload, the program set-up it needs, and
the fixed calibration kernel that benchmark timings are taken relative to.

A set-up child (``child.py setup``) imports only this module before it runs
the program, so this module imports nothing a bare interpreter has not
already loaded: a module the benchmark loaded first would make the
program's own import of it look free.

Every call into parascale goes through a module attribute
(``report.build_figure``, not a name bound here), so that a tracer that
patches the attribute sees the call.
"""

import io
import sys


class FiguresOp:
    """Build one figure and emit its CSV and SVG into in-memory sinks."""

    def setup(self) -> None:
        from parascale import report
        self.report = report

    def __call__(self, fig_id: str) -> tuple[str, str]:
        report = self.report
        cs = report.build_figure(fig_id)
        csv_sink, svg_sink = io.StringIO(), io.StringIO()
        report.emit_csv(cs, csv_sink)
        report.emit_svg(cs, svg_sink)
        return csv_sink.getvalue(), svg_sink.getvalue()


class IngestOp:
    """Parse, join, derive, serialize and re-parse one measurement CSV."""

    def setup(self) -> None:
        from parascale import ingest
        self.ingest = ingest
        self.meta = ingest.load_bundled_meta()

    def __call__(self, measurement: dict):
        ingest = self.ingest
        records, warnings = ingest.parse_records(measurement["text"])
        joined = ingest.join_meta(records, self.meta)
        derived = ingest.derive(joined)
        sink = io.StringIO()
        ingest.serialize_records(joined, sink)
        text = sink.getvalue()
        reparsed, rewarnings = ingest.parse_records(text)
        return records, warnings, joined, derived, text, reparsed, rewarnings


class ModelOp:
    """Peak search, a payload sweep and the inversion of every swept point."""

    def setup(self) -> None:
        from parascale import contributions, model
        self.contributions = contributions
        self.model = model
        self.machine = contributions.DEFAULT_MACHINE

    def __call__(self, case: dict):
        contributions, machine = self.contributions, self.machine
        d = contributions.AlphaDecomposition(**case["params"])
        peak = contributions.peak_point(machine, d)
        recovered = []
        for r_peak in case["rpeaks"]:
            point = contributions.rmax_of_rpeak(r_peak, machine, d)
            recovered.append(self.model.alpha_from_measurement(
                r_peak / machine.perf_per_pu, point.efficiency))
        return peak, recovered


class CliOp:
    """One ``cli.main`` call, its stdout and stderr captured in memory;
    returns the exit code and stdout.  The ``cli`` workload runs a fresh
    interpreter per op instead; this op is its set-up and its reference."""

    def setup(self) -> None:
        from parascale import cli
        self.cli = cli

    def __call__(self, argv: list[str]) -> tuple[int, bytes]:
        out, saved = io.StringIO(), (sys.stdout, sys.stderr)
        sys.stdout, sys.stderr = out, io.StringIO()
        try:
            code = self.cli.main(list(argv))
        finally:
            sys.stdout, sys.stderr = saved
        return code, out.getvalue().encode()


OPS = {"figures": FiguresOp, "ingest": IngestOp, "model": ModelOp,
       "cli": CliOp}


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a, self.b = a, b


def _curve(n: float, p: _Point) -> float:
    return n / (1.0 + (n - 1.0) * (p.a + p.b * n))


def calibration_kernel() -> float:
    """About 2 ms of fixed pure-Python work, mixing what the in-process ops
    spend their time on: small objects, calls, float arithmetic, float
    formatting and parsing.  It must never change: benchmark timings are
    taken relative to it."""
    total = 0.0
    for i in range(1500):
        total += _curve(10.0 + i, _Point(1e-6, 1e-9 * (i % 7 + 1)))
    text = "\n".join(f"{i * 1.5:.6g},{i / 7:.4f},name{i}" for i in range(350))
    for line in text.split("\n"):
        a, b, c = line.split(",")
        total += float(a) + float(b) + len(c)
    return total
