"""Command-line front end: prediction, inversion, sweeps, ingestion, figures.

Conventions: data goes to stdout (or ``--out``), warnings and errors to
stderr.  Exit code 0 on success, 1 on usage errors, 2 on data or model
errors, and 2 on an internal error (a bug, reported as ``internal error:``
without a traceback unless ``PARASCALE_DEBUG=1``); a reader that closes
stdout early (``| head``) ends the run quietly with 0, as the reader's own
exit status reports its failures.  Performance values accept a unit-prefix
suffix (``0.1254E`` means 0.1254 Eflop/s); times are seconds, dates
fractional years.  ``predict`` takes either ``--preset/--rpeak[/--override]``
or ``--n/--p/--alpha``, not both; ``--p <= 0``, ``--rpeak`` below one PU, a
``sweep`` range too narrow for ``--points`` and ``figure --data`` for a figure
other than 1, 3 or 4 are usage errors; an unparsable option reads ``--opt:
<reason>``.  A ``timeline`` history holds one benchmark.  ``invert`` warns on
stderr, and still exits 0, when the efficiency is below 1/N, which no serial
fraction in [0, 1] explains, decided exactly on the options' floats.

Only ``figure`` imports :mod:`parascale.report` (and through it
:mod:`parascale.svg`), and only ``timeline`` and ``figure`` import
:mod:`parascale.ingest`, so the other commands start without them.
``ingest`` reads CSV through csv's C reader ``_csv``, so reading a dataset
loads neither :mod:`re` nor :mod:`enum`; the CLI still loads :mod:`re`
through argparse.  A figure that cannot be built or rendered writes no file:
with ``--format svg`` the SVG is rendered before either file is opened.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from contextlib import nullcontext
from functools import partial
from itertools import pairwise

from .contributions import (DEFAULT_MACHINE, AlphaDecomposition, MachineModel,
                            peak_point, preset, preset_names, rmax_of_rpeak)
from .model import (FIGURE_DATA, FIGURE_IDS, PAYLOAD_RPEAK_RANGE, SAMPLES_PER_CURVE,
                    PerformancePoint, RelativisticParams, alpha_from_measurement,
                    classic_speed, efficiency, logspace, relativistic_speed)
from .units import format_flops, parse_flops


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # add_parser builds subparsers with this class
        # argparse builds a formatter per add_argument to check metavars; given
        # a width, it does not import shutil to read the terminal's
        super().__init__(formatter_class=partial(argparse.HelpFormatter, width=80),
                         **kwargs)

    def format_help(self):  # --help is wrapped by argparse's own width rule
        self.formatter_class = argparse.HelpFormatter
        return super().format_help()

    def error(self, message):  # argparse would exit(2); we own exit codes
        raise UsageError(message.removeprefix("argument "))


def _preset_setup(args):
    """The preset's decomposition and default machine, ``--override``s applied."""
    decomp = preset(args.preset)
    fields = {**decomp._asdict(), **DEFAULT_MACHINE._asdict()}
    for pair in args.override or ():
        if "=" not in pair:
            raise UsageError(f"override must be key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        try:
            num = float(value)
        except ValueError:
            raise UsageError(f"override {key}: not a number: {value!r}") from None
        if key not in fields:
            raise UsageError(
                f"unknown override key {key!r}; valid keys: {', '.join(fields)}")
        fields[key] = num
    values = list(fields.values())
    n = len(decomp)  # the table holds the decomposition's fields first
    # rebuilt through the constructors, which validate (_replace would not)
    return AlphaDecomposition(*values[:n]), MachineModel(*values[n:])


def _finite_float(text: str) -> float:
    """argparse type of the float options: nan and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _flops(text: str) -> float:
    """argparse type of the flop/s options: a number with a unit-prefix suffix."""
    try:
        return parse_flops(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _print_point(point: PerformancePoint, unit: str | None) -> None:
    print(f"r_peak = {format_flops(point.r_peak, unit)}")
    print(f"r_max = {format_flops(point.r_max, unit)}")
    print(f"efficiency = {point.efficiency:.6g}")


def cmd_predict(args) -> int:
    if args.preset is None and None in (args.n, args.p, args.alpha):
        raise UsageError("predict needs either --preset/--rpeak or --n/--p/--alpha")
    # each mode refuses the other's options, which it would ignore
    mode, other = (("--preset", ("n", "p", "alpha")) if args.preset is not None
                   else ("--n/--p/--alpha", ("rpeak", "override")))
    stray = [f"--{name}" for name in other if getattr(args, name) is not None]
    if stray:
        raise UsageError(f"predict {mode} does not take {', '.join(stray)}")
    if args.preset is not None:
        if args.rpeak is None:
            raise UsageError("predict --preset needs --rpeak")
        d, m = _preset_setup(args)
        if args.rpeak < m.perf_per_pu:
            raise UsageError(f"--rpeak must be at least one PU "
                             f"({m.perf_per_pu:.6g} flop/s), got {args.rpeak:.6g}")
        point = rmax_of_rpeak(args.rpeak, m, d)
        try:
            peak = peak_point(m, d)
        except ValueError:  # no interior maximum, so no peak to be past
            peak = None
        if peak is not None and point.r_peak > peak.r_peak_star:
            print(
                f"warning: operating point is past the payload peak "
                f"(N* = {peak.n_star:.6g}, r_peak* = "
                f"{format_flops(peak.r_peak_star, args.unit)}, r_max* = "
                f"{format_flops(peak.r_max_star, args.unit)}); adding "
                f"PUs reduces delivered performance", file=sys.stderr)
        _print_point(point, args.unit)
        return 0
    if not 0.0 <= args.alpha <= 1.0:
        raise UsageError(f"--alpha must be in [0, 1], got {args.alpha}")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.p <= 0:
        raise UsageError(f"--p must be > 0, got {args.p:g}")
    r_peak = args.n * args.p
    if not math.isfinite(r_peak):
        raise ValueError(f"--n * --p overflows: "
                         f"{args.n:.6g} * {args.p:.6g} flop/s")
    _print_point(PerformancePoint(r_peak, efficiency(args.n, args.alpha)), args.unit)
    return 0


def cmd_invert(args) -> int:
    if args.n < 2:
        raise UsageError(f"inversion needs --n >= 2, got {args.n}")
    if not 0 < args.rmax <= args.rpeak:
        raise UsageError("need 0 < --rmax <= --rpeak")
    eff = args.rmax / args.rpeak
    nonparallel = alpha_from_measurement(args.n, eff)
    # eff < 1/N decided exactly, as p/q * a/b < 1: the rounded serial fraction
    # can read 1 within an ulp under 1/N
    (p, q), (a, b) = eff.as_integer_ratio(), args.n.as_integer_ratio()
    if p * a < q * b:  # the run delivered less than one PU
        shown, bound = f"{eff:.6g}", f"{1.0 / args.n:.6g}"
        if shown == bound:  # eff in full, and 1/N exactly
            shown, bound = repr(eff), f"{b}/{a}"
        print(f"warning: efficiency {shown} is below 1/N = {bound}; "
              f"no serial fraction in [0, 1] explains it", file=sys.stderr)
    print(f"efficiency = {eff:.6g}")
    print(f"nonparallel (1-alpha_eff) = {nonparallel:.6g}")
    print(f"alpha_eff = {1.0 - nonparallel:.9g}")
    return 0


def cmd_sweep(args) -> int:
    d, m = _preset_setup(args)
    lo, hi = args.rpeak_min, args.rpeak_max
    if not m.perf_per_pu <= lo < hi:
        raise UsageError("need perf_per_pu <= --rpeak-min < --rpeak-max")
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    # a row per point: in a range a few floats wide the samples would repeat
    if any(b <= a for a, b in pairwise(logspace(lo, hi, args.points))):
        raise UsageError(f"--points {args.points}: range [{lo!r}, {hi!r}] "
                         f"is too narrow")
    # an error leaves no row: the serial fraction grows with N, so the end fails first
    rmax_of_rpeak(hi, m, d)
    with _output(args.out) as sink:
        sink.write("rpeak_flops,rmax_flops,efficiency\n")
        for r_peak in logspace(lo, hi, args.points):
            p = rmax_of_rpeak(r_peak, m, d)
            sink.write(f"{p.r_peak!r},{p.r_max!r},{p.efficiency!r}\n")
    return 0


def cmd_timeline(args) -> int:
    from . import ingest
    records, warnings = ingest.load_records(args.data, FIGURE_DATA["3"])
    _print_warnings(warnings)
    entry = ingest.timeline(records, args.machine)
    with _output(args.out) as sink:
        sink.write("date,rmax_flops,ratio_vs_previous\n")
        for (date, rmax), ratio in zip(entry.points, ("", *map(repr, entry.ratios))):
            sink.write(f"{date!r},{rmax!r},{ratio}\n")
    return 0


def _speed(v: float) -> str:
    """``:.6f``, or ``:.6e`` from 1e15 m/s on, where fixed point gets unreadable,
    and for a nonzero speed below 1e-3 m/s, which fixed point would round to 0."""
    return f"{v:.6e}" if v and not 1e-3 <= abs(v) < 1e15 else f"{v:.6f}"


def cmd_relativistic(args) -> int:
    if args.t < 0:
        raise UsageError(f"--t must be >= 0 seconds, got {args.t}")
    if args.n < 1:
        raise UsageError(f"--n (optical density) must be >= 1, got {args.n}")
    if args.a <= 0:
        raise UsageError(f"--a must be > 0 m/s^2, got {args.a}")
    params = RelativisticParams(accel=args.a, density=args.n)
    print(f"classic = {_speed(classic_speed(args.t, args.a))} m/s")
    print(f"relativistic = {_speed(relativistic_speed(args.t, params))} m/s")
    print(f"limit = {_speed(params.limit_speed)} m/s")
    return 0


def cmd_figure(args) -> int:
    fig_id = args.id  # upper-cased and checked by the parser
    if args.data is not None and fig_id not in FIGURE_DATA:
        raise UsageError(f"--data: figure {fig_id} reads no dataset")
    from . import report
    warnings: list[str] = []
    cs = report.build_figure(fig_id, data_path=args.data, warnings=warnings)
    _print_warnings(warnings)
    writers = [("csv", lambda sink: report.emit_csv(cs, sink))]
    if args.format == "svg":
        # rendered before any file is opened: a figure that fails leaves none
        svg_text = report.render_svg(cs)
        writers.append(("svg", lambda sink: sink.write(svg_text)))
    if args.out:  # the default "" is the current directory
        os.makedirs(args.out, exist_ok=True)
    for ext, write in writers:
        path = os.path.join(args.out, f"fig{fig_id}.{ext}")
        with _output(path) as sink:
            write(sink)
        print(path)
    return 0


def _print_warnings(warnings) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _output(path):
    """Text sink for ``path``, or stdout when ``path`` is None."""
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="parascale",
        description="Saturation-corrected parallel-scaling model: predict "
                    "payload performance, invert measurements, and "
                    "regenerate the model figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="payload performance of a system")
    p.add_argument("--preset", type=str.upper, choices=preset_names(),
                   help="benchmark preset")
    p.add_argument("--rpeak", type=_flops, help="nominal performance in flop/s, "
                                                "prefix suffix allowed (e.g. 0.00587E)")
    p.add_argument("--n", type=_finite_float,
                   help="number of processing units (count)")
    p.add_argument("--p", type=_flops, help="per-PU performance in flop/s (e.g. 100G)")
    p.add_argument("--alpha", type=_finite_float,
                   help="parallel fraction in [0, 1]")
    p.add_argument("--unit", choices=["G", "P", "E"],
                   help="display unit prefix for flop/s values")
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="model constant override (repeatable)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("invert", help="serial fraction from a measurement")
    p.add_argument("--n", type=_finite_float, required=True,
                   help="number of processing units (count, >= 2)")
    p.add_argument("--rpeak", type=_flops, required=True,
                   help="nominal performance in flop/s (e.g. 0.1254E)")
    p.add_argument("--rmax", type=_flops, required=True,
                   help="payload performance in flop/s (e.g. 0.0930E)")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("sweep", help="payload curve over a nominal range")
    p.add_argument("--preset", type=str.upper, required=True, choices=preset_names())
    lo, hi = PAYLOAD_RPEAK_RANGE
    p.add_argument("--rpeak-min", type=_flops, default=lo,
                   help=f"sweep start in flop/s (default {format_flops(lo, 'E')})")
    p.add_argument("--rpeak-max", type=_flops, default=hi,
                   help=f"sweep end in flop/s (default {format_flops(hi, 'E')})")
    p.add_argument("--points", type=int, default=SAMPLES_PER_CURVE,
                   help="samples along the sweep")
    p.add_argument("-o", "--out", help="output CSV path (default stdout)")
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="model constant override (repeatable)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("timeline", help="payload history of one machine")
    p.add_argument("--machine", required=True, help="machine name")
    p.add_argument("--data", help="measurement CSV (dates are fractional "
                                  "years; default: bundled timeline)")
    p.add_argument("-o", "--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("relativistic", help="speed under constant acceleration")
    p.add_argument("--t", type=_finite_float, required=True,
                   help="time in seconds")
    p.add_argument("--n", type=_finite_float, default=RelativisticParams().density,
                   help="optical density (dimensionless, >= 1)")
    p.add_argument("--a", type=_finite_float, default=RelativisticParams().accel,
                   help="acceleration in m/s^2")
    p.set_defaults(func=cmd_relativistic)

    p = sub.add_parser("figure", help="regenerate a model figure")
    p.add_argument("id", type=str.upper, choices=FIGURE_IDS,
                   help=f"figure id: {', '.join(FIGURE_IDS)}")
    p.add_argument("--data", help="measurement CSV replacing the bundled "
                                  f"dataset (figures {', '.join(FIGURE_DATA)})")
    p.add_argument("-o", "--out", default="", help="output directory")
    p.add_argument("--format", choices=["csv", "svg"], default="csv",
                   help="csv writes the dataset only; svg writes both")
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BrokenPipeError:
        # the reader left (``| head``); per the SIGPIPE note in the Python
        # signal docs, send the exit-time flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # ingest and model errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: report it without a traceback
        if os.environ.get("PARASCALE_DEBUG") == "1":
            raise
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry point: ``main``'s exit code, with every object still
    alive moved out of the collector's reach, so the interpreter skips the
    exit-time collections over a heap the OS reclaims a moment later."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
