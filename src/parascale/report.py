"""Figure datasets: model curves plus measured overlays, as CSV and SVG.

Each builder returns a :class:`CurveSet`, a plain container of named series
and overlay point sets with axis descriptions.  A series holds columns, x
samples ``xs`` and y values ``ys``; the series that share their x samples
share one ``xs`` tuple.  Emission is split from construction so the same
dataset can go to CSV (always) and SVG (on request).  Builders and emitters
are pure: the same inputs produce byte-identical output, which the test
suite checks.

Figure ids used by the command line:

* ``1``  - efficiency over the (PU count, serial fraction) plane, as a grid
* ``3``  - payload-performance timeline per machine
* ``4``  - payload vs nominal performance at fixed serial fractions
* ``5``  - relativistic speed analog of the saturation curves
* ``6A/6B/6C`` - serial-fraction decomposition and payload curve per preset
"""

from __future__ import annotations

import io
import math
from _collections_abc import Iterable, Sequence  # what collections.abc re-exports

from . import ingest
from .contributions import DEFAULT_MACHINE, alpha_os, alpha_total, preset
from .model import (FIGURE_DATA, FIGURE_IDS, PAYLOAD_RPEAK_RANGE, SAMPLES_PER_CURVE,
                    Record, RelativisticParams, efficiency_from_nonparallel,
                    logspace, relativistic_speed)
from .svg import render_svg

#: Figure 1's grid: log-spaced PU counts (``SAMPLES_PER_CURVE`` columns) and
#: serial fractions (``FIG1_ROWS`` rows).
FIG1_N_RANGE = (1.0, 1e8)
FIG1_NONPARALLEL_RANGE = (1e-8, 1e-2)
FIG1_ROWS = 64

#: Serial fractions of the payload-vs-nominal chart; the first and fourth
#: are the values measured for Taihulight with HPL and HPCG.
FIG4_NONPARALLEL = (3.3e-8, 5e-7, 1e-5, 2.4e-5, 1e-4, 1.5e-3)
_FIG4_LABELS = {3.3e-8: "HPL", 2.4e-5: "HPCG"}
#: Nominal performance each figure 4 line spans (flop/s).
FIG4_RPEAK_RANGE = (1e12, 5e17)

#: Measured payload performance of a processor-based neural simulation run,
#: overlaid on figure 4 (exaflop/s).
NEURAL_SIM_POINT = (9.83e-6, 8.39e-6)

#: Measured reference points for the decomposition panels (exaflop/s).
FIG6_MEASURED = {"HPL": (0.00587, 0.005), "HPCG": (0.00587, 0.000095)}
FIG6_RPEAK_RANGE = PAYLOAD_RPEAK_RANGE  # the decomposition panels' nominal flop/s


class AxisSpec(Record, fields="label unit scale min max"):
    """One axis; ``scale`` is "linear" or "log10"."""

    def __new__(cls, label: str, unit: str, scale: str, min: float, max: float):
        if scale not in ("linear", "log10"):
            raise ValueError(f"unknown axis scale {scale!r}")
        if not 0 < max - min < math.inf:  # svg scales the axis by its width
            raise ValueError(f"axis needs min < max and a finite max - min, "
                             f"got [{min}, {max}]")
        if scale == "log10" and not (min > 0 and math.log10(min) < math.log10(max)):
            raise ValueError("log axis requires min > 0 and log10(min) < log10(max)")
        return tuple.__new__(cls, (label, unit, scale, min, max))

    def holds(self, v: float) -> bool:
        """Whether ``v`` is on the axis, either end included."""
        return self.min <= v <= self.max


class Series(Record, fields="name xs ys axis level"):
    """Named x and y columns on axis "y" or "y2"; on a heat map ``level`` is their y."""

    def __new__(cls, name: str, xs: Sequence[float], ys: Sequence[float],
                axis: str = "y", level: float | None = None):
        return tuple.__new__(cls, (name, xs, ys, axis, level))


class CurveSet(Record, fields="title x_axis y_axis series overlays y2_axis"):
    """A figure's series and overlays, a heat map if its series carry a ``level``;
    refuses a value its axes cannot show, an axis it lacks, mixed levels, a heat
    map on a linear axis and heat-map rows that are not a grid (:func:`_check_grid`).
    A heat-map overlay may sit at a level <= 0 on a log axis, off the axes."""

    def __new__(cls, title: str, x_axis: AxisSpec, y_axis: AxisSpec,
                series: tuple[Series, ...], overlays: tuple[Series, ...] = (),
                y2_axis: AxisSpec | None = None):
        if not series:
            raise ValueError("curve set needs at least one series")
        heatmap = series[0].level is not None
        for name, ax in (("x", x_axis), ("y", y_axis)) if heatmap else ():
            if ax.scale != "log10":
                raise ValueError(f"heat map {name} axis {ax.label!r} is linear, not log10")
        xs = None
        for i, s in enumerate((*series, *overlays)):  # both are drawn on these axes
            if not s.xs:
                raise ValueError(f"series {s.name!r} is empty")
            if len(s.xs) != len(s.ys):
                raise ValueError(f"series {s.name!r} has {len(s.xs)} x but "
                                 f"{len(s.ys)} y values")
            if s.xs is not xs:  # series that share their x samples are checked once
                xs = s.xs
                if not all(map(math.isfinite, xs)):
                    raise ValueError(f"series {s.name!r} has a non-finite x")
                if x_axis.scale == "log10" and min(xs) <= 0:
                    raise ValueError(f"series {s.name!r} has x <= 0 on a log axis")
            y_spec = {"y": y_axis, "y2": y2_axis}.get(s.axis)
            if y_spec is None:
                raise ValueError(f"series {s.name!r} is on a missing axis {s.axis!r}")
            if (s.level is None) == heatmap:
                raise ValueError(f"levels mixed at series {s.name!r}")
            ys = (s.level,) if heatmap else s.ys  # a heat map draws a point at its level
            if not all(map(math.isfinite, ys)):
                raise ValueError(f"series {s.name!r} has a non-finite y")
            # a heat-map overlay off the axes is left undrawn (AxisSpec.holds)
            if (not heatmap or i < len(series)) and y_spec.scale == "log10" and min(ys) <= 0:
                raise ValueError(f"series {s.name!r} has y <= 0 on a log axis")
        if heatmap:
            _check_grid(series)
        return tuple.__new__(cls, (title, x_axis, y_axis, series, overlays, y2_axis))


def _check_grid(rows: Sequence[Series]) -> None:
    """Refuse heat-map rows unless they are at least 2 rows of 2 cells over the
    first row's x samples, levels strictly rising, each cell finite and > 0
    (the colour scale is log10)."""
    first = rows[0]
    if len(rows) < 2 or len(first.xs) < 2:
        raise ValueError(f"heat map row {first.name!r}: need at least 2 rows of "
                         f"2 cells, got {len(rows)} of {len(first.xs)}")
    for i, row in enumerate(rows):
        if row.xs is not first.xs and row.xs != first.xs:
            raise ValueError(f"heat map row {row.name!r} has other x samples "
                             f"than row {first.name!r}")
        if i and not row.level > rows[i - 1].level:
            raise ValueError(f"heat map row {row.name!r}: level {row.level!r} "
                             f"does not rise above {rows[i - 1].level!r}")
        if not all(map(math.isfinite, row.ys)) or min(row.ys) <= 0:
            raise ValueError(f"heat map row {row.name!r} has a cell that is "
                             f"non-finite or <= 0")


def _log_axis(label: str, unit: str, default_lo: float, default_hi: float,
              columns: Iterable[Sequence[float]]) -> AxisSpec:
    """Log axis over the default range, widened to whole decades covering
    every positive value of ``columns``."""
    vals = [v for col in columns for v in col if v > 0]
    lo, hi = default_lo, default_hi
    if vals:
        lo = min(lo, 10.0 ** math.floor(math.log10(min(vals))))
        hi = max(hi, 10.0 ** math.ceil(math.log10(max(vals))))
    return AxisSpec(label, unit, "log10", lo, hi)


def fig1_surface(measured: Sequence[ingest.DerivedRecord] = (),
                 warnings: list[str] | None = None) -> CurveSet:
    """Efficiency grid over PU count (columns) and serial fraction (rows).

    Each series is one grid row: efficiencies ``ys`` over the PU counts ``xs``
    that all rows share, at the row's serial fraction ``Series.level``.  Each
    record that :func:`ingest.derive` inverted is one overlay: its cores and
    efficiency, at the serial fraction ``derive`` found as its ``level``.  A
    record outside the axes, which the SVG does not mark, is named in
    ``warnings``; its overlay stays in the curve set and the CSV.
    """
    ns = tuple(logspace(*FIG1_N_RANGE, SAMPLES_PER_CURVE))
    n_less_1 = [n - 1.0 for n in ns]
    series = []
    for beta in logspace(*FIG1_NONPARALLEL_RANGE, FIG1_ROWS):
        # efficiency_from_nonparallel inline: the grid constants keep n >= 1, beta > 0
        effs = tuple([1.0 / (1.0 + m * beta) for m in n_less_1])
        series.append(Series(name=f"nonparallel={beta:.6g}", xs=ns, ys=effs, level=beta))
    inverted = sorted((d for d in measured if d.nonparallel is not None),
                      key=lambda d: d.record.benchmark)
    overlays = tuple(Series(name=f"{d.record.benchmark} measured",
                            xs=(float(d.record.cores),), ys=(d.efficiency,),
                            level=d.nonparallel) for d in inverted)
    x_axis = AxisSpec("processing units", "count", "log10", *FIG1_N_RANGE)
    y_axis = AxisSpec("serial fraction (1-alpha)", "", "log10",
                      *FIG1_NONPARALLEL_RANGE)
    if warnings is not None:
        warnings.extend(
            f"machine {r.machine!r} ({r.benchmark}, {r.date!r}) at {r.cores} PUs "
            f"and serial fraction {level:.6g} is outside the axes; its marker "
            f"is left out of the SVG"
            for r, _, level in inverted
            if not (x_axis.holds(r.cores) and y_axis.holds(level)))
    return CurveSet(
        title="Parallelization efficiency over PU count and serial fraction",
        x_axis=x_axis,
        y_axis=y_axis,
        series=tuple(series),
        overlays=overlays,
    )


def fig3_timeline(records: Sequence[ingest.MachineRecord],
                  warnings: list[str] | None = None) -> CurveSet:
    """Payload performance per machine over list editions, in petaflop/s;
    a machine without any r_max is left out and named in ``warnings``."""
    drawn = [r for r in records if r.r_max is not None]
    if not drawn:
        raise ValueError("no data with an rmax value")
    names = ingest.machine_names(drawn)
    if warnings is not None:
        warnings.extend(f"machine {name!r} has no rmax; left out of the figure"
                        for name in ingest.machine_names(records) if name not in names)
    series = []
    for name in names:
        dates, rmaxes = zip(*ingest.timeline(drawn, name).points)
        series.append(Series(name=name, xs=dates, ys=tuple(r / 1e15 for r in rmaxes)))
    years = [x for s in series for x in s.xs]
    return CurveSet(
        title="Payload performance by year of construction",
        x_axis=AxisSpec("year", "fractional year", "linear",
                        min(2010.0, math.floor(min(years))),
                        max(2020.0, math.ceil(max(years)))),
        y_axis=_log_axis("R_Max", "Pflop/s", 0.5, 230.0, [s.ys for s in series]),
        series=tuple(series),
    )


def taihulight_perf_per_pu() -> float:
    """Per-PU payload performance from the Taihulight metadata join."""
    meta = ingest.load_bundled_meta()["Taihulight"]
    return meta["rpeak_flops"] / meta["cores"]


def fig4_curves(measured: Sequence[ingest.MachineRecord] = ()) -> CurveSet:
    """Payload vs nominal performance lines at constant serial fractions.

    The per-PU performance comes from the Taihulight metadata join (about
    11.78 Gflop/s), so the measured Taihulight points fall on their own
    model lines.  Axes are in exaflop/s like the measured data.
    """
    perf_per_pu = taihulight_perf_per_pu()
    r_peaks = tuple(logspace(*FIG4_RPEAK_RANGE, SAMPLES_PER_CURVE))
    xs = tuple(r_peak / 1e18 for r_peak in r_peaks)
    ns = [r_peak / perf_per_pu for r_peak in r_peaks]  # >= 84 PUs over the whole range
    series = []
    for beta in FIG4_NONPARALLEL:
        ys = tuple(r_peak * efficiency_from_nonparallel(n, beta) / 1e18
                   for r_peak, n in zip(r_peaks, ns))
        series.append(Series(name=_FIG4_LABELS.get(beta, f"{beta:g}"), xs=xs, ys=ys))

    groups: dict[str, list[tuple[float, float]]] = {}
    for r in measured:
        if r.r_peak is not None and r.r_max is not None:
            groups.setdefault(r.benchmark, []).append((r.r_peak / 1e18, r.r_max / 1e18))
    # zip(*points) turns (x, y) points into the columns xs and ys, zip(point) one point
    overlays = [Series(f"{bench} measured", *zip(*pts))
                for bench, pts in sorted(groups.items())]
    overlays.append(Series("neural-sim", *zip(NEURAL_SIM_POINT)))
    drawn = (*series, *overlays)
    return CurveSet(
        title="Payload vs nominal performance at fixed serial fractions",
        x_axis=_log_axis("R_Peak", "Eflop/s", 1e-6, 0.5, [s.xs for s in drawn]),
        y_axis=_log_axis("R_Max", "Eflop/s", 1e-6, 0.3, [s.ys for s in drawn]),
        series=tuple(series),
        overlays=tuple(overlays),
    )


def fig5_curves() -> CurveSet:
    """Speed under g from one day to about 32 years, optical densities 1 and 2."""
    lo, hi = 86400.0, 1e9
    ts = tuple(logspace(lo, hi, SAMPLES_PER_CURVE))
    series = []
    for n in (1.0, 2.0):
        params = RelativisticParams(density=n)  # accel defaults to g
        speeds = tuple(relativistic_speed(t, params) for t in ts)
        series.append(Series(name=f"v(t), n={n:g}", xs=ts, ys=speeds))
    return CurveSet(
        title="Relativistic speed under constant acceleration",
        x_axis=AxisSpec("time", "s", "log10", lo, hi),
        y_axis=_log_axis("speed", "m/s", 1e6, 5e8, [s.ys for s in series]),
        series=tuple(series),
    )


def fig6_panel(preset_name: str) -> CurveSet:
    """Serial-fraction contributions (left axis) and payload curve (right).

    Series ``alpha_sw``, ``alpha_os`` and ``alpha_total`` are dimensionless
    serial fractions; ``rmax`` is in exaflop/s on the second axis.  The HPL
    and HPCG panels carry the measured reference dot of the machine the
    neural-simulation studies ran on.
    """
    d = preset(preset_name)
    name = preset_name.upper()
    lo, hi = FIG6_RPEAK_RANGE
    r_peaks = tuple(logspace(lo, hi, SAMPLES_PER_CURVE))
    xs = tuple(r_peak / 1e18 for r_peak in r_peaks)
    ns = [r_peak / DEFAULT_MACHINE.perf_per_pu for r_peak in r_peaks]
    totals = tuple(alpha_total(n, d) for n in ns)
    fractions = (Series(name="alpha_sw", xs=xs, ys=(d.alpha_sw,) * len(xs)),
                 Series(name="alpha_os", xs=xs, ys=tuple(alpha_os(n, d) for n in ns)),
                 Series(name="alpha_total", xs=xs, ys=totals))
    rmaxes = tuple(r_peak * efficiency_from_nonparallel(n, total) / 1e18
                   for r_peak, n, total in zip(r_peaks, ns, totals))
    rmax = Series(name="rmax", xs=xs, ys=rmaxes, axis="y2")
    overlays = ()
    if name in FIG6_MEASURED:
        overlays = (Series(f"{name} measured", *zip(FIG6_MEASURED[name]), axis="y2"),)
    return CurveSet(
        title=f"Serial-fraction contributions and payload performance ({name})",
        x_axis=AxisSpec("R_Peak", "Eflop/s", "log10", lo / 1e18, hi / 1e18),
        y_axis=_log_axis("serial fraction (1-alpha)", "", 1e-10, 5e-4,
                         [s.ys for s in fractions]),
        series=(*fractions, rmax),
        overlays=overlays,
        y2_axis=_log_axis("R_Max", "Eflop/s", 1e-5, 1.0, [rmax.ys]),
    )


def emit_csv(cs: CurveSet, sink: io.TextIOBase) -> None:
    """Write each sample of every series and overlay as a ``series,x,y`` row.

    Values use the shortest representation that parses back to the same
    float, so the output is lossless and measured inputs appear verbatim.
    Names are quoted as :func:`ingest.csv_cell` quotes them, once per series,
    and the x column once for each run of series that share its ``xs`` tuple.
    """
    sink.write("series,x,y\n")
    xs = None
    for s in (*cs.series, *cs.overlays):
        prefix = ingest.csv_cell(s.name) + ","
        if s.xs is not xs:
            xs = s.xs
            x_reprs = [repr(float(x)) for x in xs]
        sink.write("".join([f"{prefix}{x},{float(y)!r}\n"
                            for x, y in zip(x_reprs, s.ys)]))


def emit_svg(cs: CurveSet, sink: io.TextIOBase) -> None:
    """Render the curve set as a standalone SVG 1.1 document."""
    sink.write(render_svg(cs))


def build_figure(fig_id: str, data_path: str | None = None,
                 warnings: list[str] | None = None) -> CurveSet:
    """Build one of the named figures, from bundled data unless overridden.

    ``data_path`` replaces the bundled dataset ``FIGURE_DATA[fig_id]`` of
    figures 1, 3 and 4; 5 and the 6-panels, pure model output, ignore it (the
    command line refuses it).  Its parse warnings are appended to ``warnings``.
    """
    fig_id = fig_id.upper()
    if fig_id not in FIGURE_IDS:
        raise ValueError(
            f"unknown figure id {fig_id!r}; valid ids: {', '.join(FIGURE_IDS)}")
    if fig_id == "5":
        return fig5_curves()
    if fig_id not in FIGURE_DATA:  # a 6-panel
        return fig6_panel({"6A": "HPL", "6B": "HPCG", "6C": "NN"}[fig_id])
    records, found = ingest.load_records(data_path, FIGURE_DATA[fig_id])
    if warnings is not None:
        warnings.extend(found)
    if fig_id == "3":
        return fig3_timeline(records, warnings)
    if fig_id == "4":
        return fig4_curves(measured=records)
    joined = ingest.join_meta(records, ingest.load_bundled_meta())
    return fig1_surface(measured=ingest.derive(joined), warnings=warnings)
