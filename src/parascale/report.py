"""Figure datasets: model curves plus measured overlays, as CSV and SVG.

Each builder returns a :class:`CurveSet`, a plain container of named series
and overlay point sets with axis descriptions.  Emission is split from
construction so the same dataset can go to CSV (always) and SVG (on
request).  Builders and emitters are pure: the same inputs produce
byte-identical output, which the test suite checks.

Figure ids used by the command line:

* ``1``  - efficiency over the (PU count, serial fraction) plane, as a grid
* ``3``  - payload-performance timeline per machine
* ``4``  - payload vs nominal performance at fixed serial fractions
* ``5``  - relativistic speed analog of the saturation curves
* ``6A/6B/6C`` - serial-fraction decomposition and payload curve per preset
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from . import ingest
from .contributions import DEFAULT_MACHINE, alpha_os, alpha_total, preset
from .model import (FIGURE_DATA, FIGURE_IDS, PAYLOAD_RPEAK_RANGE, SAMPLES_PER_CURVE,
                    RelativisticParams, efficiency_from_nonparallel, logspace,
                    relativistic_speed)
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


class AxisSpec(namedtuple("AxisSpec", "label unit scale min max")):
    """One axis; ``scale`` is "linear" or "log10"."""

    __slots__ = ()

    def __new__(cls, label: str, unit: str, scale: str, min: float, max: float):
        if scale not in ("linear", "log10"):
            raise ValueError(f"unknown axis scale {scale!r}")
        if not min < max:
            raise ValueError(f"axis needs min < max, got [{min}, {max}]")
        if scale == "log10" and min <= 0:
            raise ValueError("log axis requires min > 0")
        return super().__new__(cls, label, unit, scale, min, max)


class Series(namedtuple("Series", "name points axis level", defaults=("y", None))):
    """Named (x, y) points on axis "y" or "y2"; ``level``: their y on a heat map."""

    __slots__ = ()


class CurveSet(namedtuple("CurveSet", "title x_axis y_axis series overlays y2_axis")):
    """A figure's series and overlays; a heat map when its series carry a ``level``."""

    __slots__ = ()

    def __new__(cls, title: str, x_axis: AxisSpec, y_axis: AxisSpec,
                series: tuple[Series, ...], overlays: tuple[Series, ...] = (),
                y2_axis: AxisSpec | None = None):
        if not series:
            raise ValueError("curve set needs at least one series")
        for s in (*series, *overlays):  # both are drawn on these axes
            if not s.points:
                raise ValueError(f"series {s.name!r} is empty")
            if x_axis.scale == "log10" and any(x <= 0 for x, _ in s.points):
                raise ValueError(f"series {s.name!r} has x <= 0 on a log axis")
            y_spec = y2_axis if (s.axis == "y2" and y2_axis) else y_axis
            # a point with a level is drawn at that level, not at its y
            if (s.level is None and y_spec.scale == "log10"
                    and any(y <= 0 for _, y in s.points)):
                raise ValueError(f"series {s.name!r} has y <= 0 on a log axis")
        return super().__new__(cls, title, x_axis, y_axis, series, overlays, y2_axis)


def _log_axis(label: str, unit: str, default_lo: float, default_hi: float,
              series: Iterable[Series], coord: int = 1) -> AxisSpec:
    """Log axis over the default range, widened to whole decades covering
    coordinate ``coord`` (0 for x, 1 for y) of every point of ``series``."""
    vals = [p[coord] for s in series for p in s.points if p[coord] > 0]
    lo, hi = default_lo, default_hi
    if vals:
        lo = min(lo, 10.0 ** math.floor(math.log10(min(vals))))
        hi = max(hi, 10.0 ** math.ceil(math.log10(max(vals))))
    return AxisSpec(label, unit, "log10", lo, hi)


def fig1_surface(measured: Sequence[ingest.DerivedRecord] = ()) -> CurveSet:
    """Efficiency grid over PU count (columns) and serial fraction (rows).

    Each series is one grid row: points are (N, efficiency) at that row's
    serial fraction, carried in ``Series.level``.  Each record that
    :func:`ingest.derive` inverted is one overlay: its (cores, efficiency)
    point, at the serial fraction ``derive`` found as its ``level``.
    """
    ns = tuple(logspace(*FIG1_N_RANGE, SAMPLES_PER_CURVE))  # shared by all rows
    series = []
    for beta in logspace(*FIG1_NONPARALLEL_RANGE, FIG1_ROWS):
        # efficiency_from_nonparallel inline: the grid constants keep n >= 1, beta > 0
        pts = tuple((n, 1.0 / (1.0 + (n - 1.0) * beta)) for n in ns)
        series.append(Series(name=f"nonparallel={beta:.6g}", points=pts, level=beta))
    overlays = tuple(Series(name=f"{d.record.benchmark} measured",
                            points=((float(d.record.cores), d.efficiency),),
                            level=d.nonparallel)
                     for d in sorted(measured, key=lambda d: d.record.benchmark)
                     if d.nonparallel is not None)
    return CurveSet(
        title="Parallelization efficiency over PU count and serial fraction",
        x_axis=AxisSpec("processing units", "count", "log10", *FIG1_N_RANGE),
        y_axis=AxisSpec("serial fraction (1-alpha)", "", "log10",
                        *FIG1_NONPARALLEL_RANGE),
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
        entry = ingest.timeline(drawn, name)
        pts = tuple((date, rmax / 1e15) for date, rmax in entry.points)
        series.append(Series(name=name, points=pts))
    dates = [x for s in series for x, _ in s.points]
    return CurveSet(
        title="Payload performance by year of construction",
        x_axis=AxisSpec("year", "fractional year", "linear",
                        min(2010.0, math.floor(min(dates))),
                        max(2020.0, math.ceil(max(dates)))),
        y_axis=_log_axis("R_Max", "Pflop/s", 0.5, 230.0, series),
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
    series = []
    for beta in FIG4_NONPARALLEL:
        pts = []
        for r_peak in logspace(*FIG4_RPEAK_RANGE, SAMPLES_PER_CURVE):
            n = r_peak / perf_per_pu  # >= 84 PUs over the whole range
            eff = efficiency_from_nonparallel(n, beta)
            pts.append((r_peak / 1e18, r_peak * eff / 1e18))
        label = _FIG4_LABELS.get(beta, f"{beta:g}")
        series.append(Series(name=label, points=tuple(pts)))

    groups: dict[str, list[tuple[float, float]]] = {}
    for r in measured:
        if r.r_peak is not None and r.r_max is not None:
            groups.setdefault(r.benchmark, []).append((r.r_peak / 1e18, r.r_max / 1e18))
    overlays = [Series(name=f"{bench} measured", points=tuple(pts))
                for bench, pts in sorted(groups.items())]
    overlays.append(Series(name="neural-sim", points=(NEURAL_SIM_POINT,)))
    drawn = (*series, *overlays)
    return CurveSet(
        title="Payload vs nominal performance at fixed serial fractions",
        x_axis=_log_axis("R_Peak", "Eflop/s", 1e-6, 0.5, drawn, coord=0),
        y_axis=_log_axis("R_Max", "Eflop/s", 1e-6, 0.3, drawn),
        series=tuple(series),
        overlays=tuple(overlays),
    )


def fig5_curves() -> CurveSet:
    """Speed under g from one day to about 32 years, optical densities 1 and 2."""
    lo, hi = 86400.0, 1e9
    series = []
    for n in (1.0, 2.0):
        params = RelativisticParams(density=n)  # accel defaults to g
        pts = tuple((t, relativistic_speed(t, params))
                    for t in logspace(lo, hi, SAMPLES_PER_CURVE))
        series.append(Series(name=f"v(t), n={n:g}", points=pts))
    return CurveSet(
        title="Relativistic speed under constant acceleration",
        x_axis=AxisSpec("time", "s", "log10", lo, hi),
        y_axis=_log_axis("speed", "m/s", 1e6, 5e8, series),
        series=tuple(series),
    )


def fig6_panel(preset_name: str) -> CurveSet:
    """Serial-fraction contributions (left axis) and payload curve (right).

    Series ``alpha_sw``, ``alpha_os`` and ``alpha_total`` are dimensionless
    serial fractions; ``rmax`` is in exaflop/s on the second axis.  The HPL
    and HPCG panels carry the measured reference dot of the machine the
    neural-simulation studies ran on.
    """
    p = preset(preset_name)
    d = p.decomposition
    lo, hi = FIG6_RPEAK_RANGE
    alpha_sw_pts = []
    alpha_os_pts = []
    alpha_total_pts = []
    rmax_pts = []
    for r_peak in logspace(lo, hi, SAMPLES_PER_CURVE):
        x = r_peak / 1e18
        n = r_peak / DEFAULT_MACHINE.perf_per_pu
        total = alpha_total(n, d)
        alpha_sw_pts.append((x, d.alpha_sw))
        alpha_os_pts.append((x, alpha_os(n, d)))
        alpha_total_pts.append((x, total))
        rmax_pts.append((x, r_peak * efficiency_from_nonparallel(n, total) / 1e18))

    fractions = (Series(name="alpha_sw", points=tuple(alpha_sw_pts)),
                 Series(name="alpha_os", points=tuple(alpha_os_pts)),
                 Series(name="alpha_total", points=tuple(alpha_total_pts)))
    rmax = Series(name="rmax", points=tuple(rmax_pts), axis="y2")
    overlays = ()
    if p.name in FIG6_MEASURED:
        overlays = (Series(name=f"{p.name} measured",
                           points=(FIG6_MEASURED[p.name],), axis="y2"),)
    return CurveSet(
        title=f"Serial-fraction contributions and payload performance ({p.name})",
        x_axis=AxisSpec("R_Peak", "Eflop/s", "log10", lo / 1e18, hi / 1e18),
        y_axis=_log_axis("serial fraction (1-alpha)", "", 1e-10, 5e-4, fractions),
        series=(*fractions, rmax),
        overlays=overlays,
        y2_axis=_log_axis("R_Max", "Eflop/s", 1e-5, 1.0, (rmax,)),
    )


def emit_csv(cs: CurveSet, sink: io.TextIOBase) -> None:
    """Write every series and overlay point as ``series,x,y`` rows.

    Values use the shortest representation that parses back to the same
    float, so the output is lossless and measured inputs appear verbatim.
    Names are quoted by the csv module's rules, once per series; the series
    share their x samples, so each x is formatted once per call.
    """
    sink.write("series,x,y\n")
    x_reprs: dict[float, str] = {}  # nonzero x only: 0.0 == -0.0, their reprs differ
    for s in (*cs.series, *cs.overlays):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([s.name, ""])
        prefix = buf.getvalue()[:-1]  # "<quoted name>,"
        x_reprs.update((x, repr(float(x))) for x, _ in s.points if x and x not in x_reprs)
        sink.write("".join([f"{prefix}{x_reprs.get(x) or repr(float(x))},{float(y)!r}\n"
                            for x, y in s.points]))


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
    return fig1_surface(measured=ingest.derive(joined))
