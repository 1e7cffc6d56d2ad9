"""Command-line front end: prediction, inversion, sweeps, ingestion, figures.

Conventions: data goes to stdout (or ``--out``), warnings and errors to
stderr.  Exit code 0 on success, 1 on usage errors, 2 on data or model
errors.  Performance values accept a unit-prefix suffix (``0.1254E`` means
0.1254 Eflop/s); times are seconds, dates fractional years.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from . import ingest, report
from .contributions import (DEFAULT_MACHINE, AlphaDecomposition, MachineModel,
                            ModelDomainError, peak_point, preset, preset_names,
                            rmax_of_rpeak)
from .model import (ParallelSystem, PerformancePoint, RelativisticParams,
                    alpha_from_measurement, classic_speed, classic_total_perf,
                    modern_total_perf, relativistic_speed)
from .units import format_flops, parse_flops


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own exit codes
        raise UsageError(message)


def _parse_overrides(pairs):
    """Validate key=value model overrides before any dispatch."""
    decomp: dict[str, float] = {}
    machine: dict[str, float] = {}
    # each dataclass field is a key; it maps to the dict its value goes to
    targets = {f.name: decomp for f in fields(AlphaDecomposition)}
    targets.update({f.name: machine for f in fields(MachineModel)})
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"override must be key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        try:
            num = float(value)
        except ValueError:
            raise UsageError(f"override {key}: not a number: {value!r}") from None
        if key not in targets:
            raise UsageError(
                f"unknown override key {key!r}; valid keys: {', '.join(targets)}")
        targets[key][key] = num
    return decomp, machine


def _preset_setup(args):
    decomp_over, machine_over = _parse_overrides(args.override)
    return (replace(preset(args.preset).decomposition, **decomp_over),
            replace(DEFAULT_MACHINE, **machine_over))


def _finite_float(text: str) -> float:
    """argparse type of the float options: nan and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _flops(text: str, flag: str) -> float:
    try:
        return parse_flops(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _print_point(point: PerformancePoint, unit: str | None) -> None:
    print(f"r_peak = {format_flops(point.r_peak, unit)}")
    print(f"r_max = {format_flops(point.r_max, unit)}")
    print(f"efficiency = {point.efficiency:.6g}")


def cmd_predict(args) -> int:
    if args.preset is not None:
        if args.rpeak is None:
            raise UsageError("predict --preset needs --rpeak")
        d, m = _preset_setup(args)
        point = rmax_of_rpeak(_flops(args.rpeak, "--rpeak"), m, d)
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
    if args.n is None or args.p is None or args.alpha is None:
        raise UsageError("predict needs either --preset/--rpeak or --n/--p/--alpha")
    if not 0.0 <= args.alpha <= 1.0:
        raise UsageError(f"--alpha must be in [0, 1], got {args.alpha}")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    system = ParallelSystem(args.n, _flops(args.p, "--p"), args.alpha)
    _print_point(PerformancePoint(r_peak=classic_total_perf(system),
                                  r_max=modern_total_perf(system)), args.unit)
    return 0


def cmd_invert(args) -> int:
    if args.n < 2:
        raise UsageError(f"inversion needs --n >= 2, got {args.n}")
    r_peak = _flops(args.rpeak, "--rpeak")
    r_max = _flops(args.rmax, "--rmax")
    if not 0 < r_max <= r_peak:
        raise UsageError("need 0 < --rmax <= --rpeak")
    eff = r_max / r_peak
    nonparallel = alpha_from_measurement(args.n, eff)
    print(f"efficiency = {eff:.6g}")
    print(f"nonparallel (1-alpha_eff) = {nonparallel:.6g}")
    print(f"alpha_eff = {1.0 - nonparallel:.9g}")
    return 0


def cmd_sweep(args) -> int:
    d, m = _preset_setup(args)
    lo = _flops(args.rpeak_min, "--rpeak-min")
    hi = _flops(args.rpeak_max, "--rpeak-max")
    if not m.perf_per_pu <= lo < hi:
        raise UsageError("need perf_per_pu <= --rpeak-min < --rpeak-max")
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    # every point is computed before any output, so a model error leaves none
    points = [rmax_of_rpeak(r_peak, m, d)
              for r_peak in report.logspace(lo, hi, args.points)]
    with _output(args.out) as sink:
        sink.write("rpeak_flops,rmax_flops,efficiency\n")
        sink.writelines(f"{p.r_peak!r},{p.r_max!r},{p.efficiency!r}\n" for p in points)
    return 0


def cmd_surface(args) -> int:
    if not 1.0 <= args.nmin < args.nmax:
        raise UsageError("need 1 <= --nmin < --nmax")
    if not 0.0 < args.npar_min < args.npar_max <= 1.0:
        raise UsageError("need 0 < --npar-min < --npar-max <= 1")
    if args.points < 2 or args.rows < 2:
        raise UsageError("--points and --rows must be >= 2")
    cs = report.fig1_surface(
        n_range=(args.nmin, args.nmax),
        nonparallel_range=(args.npar_min, args.npar_max),
        grid_density=(args.points, args.rows),
    )
    with _output(args.out) as sink:
        report.emit_csv(cs, sink)
    return 0


def cmd_timeline(args) -> int:
    records, warnings = ingest.load_records(args.data, "fig3_timeline.csv")
    _print_warnings(warnings)
    entry = ingest.timeline(records, args.machine)
    with _output(args.out) as sink:
        sink.write("date,rmax_flops,ratio_vs_previous\n")
        for i, (date, rmax) in enumerate(entry.points):
            ratio = "" if i == 0 else repr(entry.ratios[i - 1])
            sink.write(f"{date!r},{rmax!r},{ratio}\n")
    return 0


def cmd_relativistic(args) -> int:
    if args.t < 0:
        raise UsageError(f"--t must be >= 0 seconds, got {args.t}")
    if args.n < 1:
        raise UsageError(f"--n (optical density) must be >= 1, got {args.n}")
    if args.a <= 0:
        raise UsageError(f"--a must be > 0 m/s^2, got {args.a}")
    params = RelativisticParams(accel=args.a, density=args.n)
    print(f"classic = {classic_speed(args.t, args.a):.6f} m/s")
    print(f"relativistic = {relativistic_speed(args.t, params):.6f} m/s")
    print(f"limit = {params.limit_speed:.6f} m/s")
    return 0


def cmd_figure(args) -> int:
    fig_id = args.id  # upper-cased and checked by the parser
    warnings: list[str] = []
    cs = report.build_figure(fig_id, data_path=args.data, warnings=warnings)
    _print_warnings(warnings)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emitters = [("csv", report.emit_csv)]
    if args.format == "svg":
        emitters.append(("svg", report.emit_svg))
    for ext, emit in emitters:
        path = out_dir / f"fig{fig_id}.{ext}"
        with _output(path) as sink:
            emit(cs, sink)
        print(str(path))
    return 0


def _print_warnings(warnings) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


@contextmanager
def _output(path):
    """Text sink for ``path``, or stdout when ``path`` is None."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def build_parser() -> _Parser:
    parser = _Parser(
        prog="parascale",
        description="Saturation-corrected parallel-scaling model: predict "
                    "payload performance, invert measurements, and "
                    "regenerate the model figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    unit_kw = dict(choices=["G", "P", "E"], default=None,
                   help="display unit prefix for flop/s values")

    p = sub.add_parser("predict", help="payload performance of a system")
    p.add_argument("--preset", choices=preset_names(), help="benchmark preset")
    p.add_argument("--rpeak", help="nominal performance in flop/s, prefix "
                                   "suffix allowed (e.g. 0.00587E)")
    p.add_argument("--n", type=_finite_float,
                   help="number of processing units (count)")
    p.add_argument("--p", help="per-PU performance in flop/s (e.g. 100G)")
    p.add_argument("--alpha", type=_finite_float,
                   help="parallel fraction in [0, 1]")
    p.add_argument("--unit", **unit_kw)
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="model constant override (repeatable)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("invert", help="serial fraction from a measurement")
    p.add_argument("--n", type=_finite_float, required=True,
                   help="number of processing units (count, >= 2)")
    p.add_argument("--rpeak", required=True,
                   help="nominal performance in flop/s (e.g. 0.1254E)")
    p.add_argument("--rmax", required=True,
                   help="payload performance in flop/s (e.g. 0.0930E)")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("sweep", help="payload curve over a nominal range")
    p.add_argument("--preset", required=True, choices=preset_names())
    p.add_argument("--rpeak-min", default="0.001E",
                   help="sweep start in flop/s (default 0.001E)")
    p.add_argument("--rpeak-max", default="1.1E",
                   help="sweep end in flop/s (default 1.1E)")
    p.add_argument("--points", type=int, default=report.SAMPLES_PER_CURVE,
                   help="samples along the sweep")
    p.add_argument("-o", "--out", help="output CSV path (default stdout)")
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="model constant override (repeatable)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("surface", help="efficiency grid over PUs and serial fraction")
    p.add_argument("--nmin", type=_finite_float, default=1.0,
                   help="smallest PU count")
    p.add_argument("--nmax", type=_finite_float, default=1e8,
                   help="largest PU count")
    p.add_argument("--npar-min", type=_finite_float, default=1e-8,
                   help="smallest serial fraction (dimensionless)")
    p.add_argument("--npar-max", type=_finite_float, default=1e-2,
                   help="largest serial fraction (dimensionless)")
    p.add_argument("--points", type=int, default=report.SAMPLES_PER_CURVE,
                   help="PU-count samples per row")
    p.add_argument("--rows", type=int, default=report.SURFACE_ROWS,
                   help="serial-fraction rows")
    p.add_argument("-o", "--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("timeline", help="payload history of one machine")
    p.add_argument("--machine", required=True, help="machine name")
    p.add_argument("--data", help="measurement CSV (dates are fractional "
                                  "years; default: bundled timeline)")
    p.add_argument("-o", "--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("relativistic", help="speed under constant acceleration")
    p.add_argument("--t", type=_finite_float, required=True,
                   help="time in seconds")
    p.add_argument("--n", type=_finite_float, default=1.0,
                   help="optical density (dimensionless, >= 1)")
    p.add_argument("--a", type=_finite_float, default=9.81,
                   help="acceleration in m/s^2")
    p.set_defaults(func=cmd_relativistic)

    p = sub.add_parser("figure", help="regenerate a model figure")
    p.add_argument("id", type=str.upper, choices=report.FIGURE_IDS,
                   help=f"figure id: {', '.join(report.FIGURE_IDS)}")
    p.add_argument("--data", help="measurement CSV replacing the bundled "
                                  "dataset (figures 1, 3, 4)")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.add_argument("--format", choices=["csv", "svg"], default="csv",
                   help="csv writes the dataset only; svg writes both")
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ingest.ParseError, ModelDomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
