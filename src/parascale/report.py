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
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from . import ingest
from .contributions import DEFAULT_MACHINE, alpha_os, alpha_total, preset
from .model import RelativisticParams, efficiency_from_nonparallel, relativistic_speed
from .svg import render_svg

#: Log-spaced samples per model curve.
SAMPLES_PER_CURVE = 512

#: Serial-fraction rows in the default efficiency grid.
SURFACE_ROWS = 64

#: Default serial fractions for the payload-vs-nominal chart; the first and
#: fourth are the values measured for Taihulight with HPL and HPCG.
FIG4_NONPARALLEL = (3.3e-8, 5e-7, 1e-5, 2.4e-5, 1e-4, 1.5e-3)
_FIG4_LABELS = {3.3e-8: "HPL", 2.4e-5: "HPCG"}

#: Measured payload performance of a processor-based neural simulation run,
#: overlaid on figure 4 (exaflop/s).
NEURAL_SIM_POINT = (9.83e-6, 8.39e-6)

#: Measured reference points for the decomposition panels (exaflop/s).
FIG6_MEASURED = {"HPL": (0.00587, 0.005), "HPCG": (0.00587, 0.000095)}

FIGURE_IDS = ("1", "3", "4", "5", "6A", "6B", "6C")


@dataclass(frozen=True)
class AxisSpec:
    label: str
    unit: str
    scale: str  # "linear" | "log10"
    min: float
    max: float

    def __post_init__(self) -> None:
        if self.scale not in ("linear", "log10"):
            raise ValueError(f"unknown axis scale {self.scale!r}")
        if not self.min < self.max:
            raise ValueError(f"axis needs min < max, got [{self.min}, {self.max}]")
        if self.scale == "log10" and self.min <= 0:
            raise ValueError("log axis requires min > 0")


@dataclass(frozen=True)
class Series:
    name: str
    points: tuple[tuple[float, float], ...]
    axis: str = "y"
    level: float | None = None  # row coordinate for gridded sets


@dataclass(frozen=True)
class CurveSet:
    title: str
    x_axis: AxisSpec
    y_axis: AxisSpec
    series: tuple[Series, ...]
    overlays: tuple[Series, ...] = ()
    y2_axis: AxisSpec | None = None
    kind: str = "lines"  # "lines" | "heatmap"

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError("curve set needs at least one series")
        for s in self.series:
            if not s.points:
                raise ValueError(f"series {s.name!r} is empty")
            if self.x_axis.scale == "log10" and any(x <= 0 for x, _ in s.points):
                raise ValueError(f"series {s.name!r} has x <= 0 on a log axis")
            y_spec = self.y2_axis if (s.axis == "y2" and self.y2_axis) else self.y_axis
            if (self.kind == "lines" and y_spec.scale == "log10"
                    and any(y <= 0 for _, y in s.points)):
                raise ValueError(f"series {s.name!r} has y <= 0 on a log axis")


def logspace(lo: float, hi: float, n: int) -> list[float]:
    """``n`` log-uniform samples from ``lo`` to ``hi``, both ends exact."""
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    if n < 2:
        raise ValueError("need at least 2 samples")
    a, b = math.log10(lo), math.log10(hi)
    return [lo] + [10.0 ** (a + (b - a) * i / (n - 1))
                   for i in range(1, n - 1)] + [hi]


def _by_benchmark(pairs: Iterable[tuple[str, tuple[float, float]]]
                  ) -> list[Series]:
    """One ``<benchmark> measured`` overlay per benchmark, sorted by name."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for bench, point in pairs:
        groups.setdefault(bench, []).append(point)
    return [Series(name=f"{bench} measured", points=tuple(pts))
            for bench, pts in sorted(groups.items())]


def _log_bounds(default_lo: float, default_hi: float,
                values: Iterable[float]) -> tuple[float, float]:
    """Default log-axis range, widened to whole decades covering the data."""
    vals = [v for v in values if v > 0]
    if not vals:
        return default_lo, default_hi
    lo = min(default_lo, 10.0 ** math.floor(math.log10(min(vals))))
    hi = max(default_hi, 10.0 ** math.ceil(math.log10(max(vals))))
    return lo, hi


def fig1_surface(n_range: tuple[float, float] = (1.0, 1e8),
                 nonparallel_range: tuple[float, float] = (1e-8, 1e-2),
                 grid_density: tuple[int, int] = (SAMPLES_PER_CURVE, SURFACE_ROWS),
                 measured: Sequence[ingest.DerivedRecord] = (),
                 ) -> CurveSet:
    """Efficiency grid over PU count (columns) and serial fraction (rows).

    Each series is one grid row: points are (N, efficiency) at that row's
    serial fraction, carried in ``Series.level``.  Measured overlays are
    (cores, efficiency) pairs; the heat-map renderer places them at the
    serial fraction the model infers from them.
    """
    n_lo, n_hi = n_range
    b_lo, b_hi = nonparallel_range
    if not 0 < b_lo < b_hi <= 1.0:
        raise ValueError(f"serial-fraction range must be within (0, 1], "
                         f"got [{b_lo}, {b_hi}]")
    n_samples, rows = grid_density
    ns = logspace(n_lo, n_hi, n_samples)
    series = []
    for beta in logspace(b_lo, b_hi, rows):
        pts = tuple((n, efficiency_from_nonparallel(n, beta)) for n in ns)
        series.append(Series(name=f"nonparallel={beta:.6g}", points=pts, level=beta))
    overlays = _by_benchmark(
        (d.record.benchmark, (float(d.record.cores), d.efficiency))
        for d in measured if d.efficiency is not None and d.record.cores is not None)
    return CurveSet(
        title="Parallelization efficiency over PU count and serial fraction",
        x_axis=AxisSpec("processing units", "count", "log10", n_lo, n_hi),
        y_axis=AxisSpec("serial fraction (1-alpha)", "", "log10", b_lo, b_hi),
        series=tuple(series),
        overlays=tuple(overlays),
        kind="heatmap",
    )


def fig3_timeline(records: Sequence[ingest.MachineRecord]) -> CurveSet:
    """Payload performance per machine over list editions, in petaflop/s."""
    if not records:
        raise ValueError("no data")
    series = []
    for name in ingest.machine_names(records):
        entry = ingest.timeline(records, name)
        pts = tuple((date, rmax / 1e15) for date, rmax in entry.points)
        series.append(Series(name=name, points=pts))
    dates = [x for s in series for x, _ in s.points]
    values = [y for s in series for _, y in s.points]
    y_lo, y_hi = _log_bounds(0.5, 230.0, values)
    return CurveSet(
        title="Payload performance by year of construction",
        x_axis=AxisSpec("year", "fractional year", "linear",
                        min(2010.0, math.floor(min(dates))),
                        max(2020.0, math.ceil(max(dates)))),
        y_axis=AxisSpec("R_Max", "Pflop/s", "log10", y_lo, y_hi),
        series=tuple(series),
    )


def taihulight_perf_per_pu() -> float:
    """Per-PU payload performance from the Taihulight metadata join."""
    meta = ingest.load_bundled_meta()["Taihulight"]
    return meta["rpeak_flops"] / meta["cores"]


def fig4_curves(nonparallel_values: Sequence[float] = FIG4_NONPARALLEL,
                rpeak_range: tuple[float, float] = (1e12, 5e17),
                measured: Sequence[ingest.MachineRecord] = (),
                ) -> CurveSet:
    """Payload vs nominal performance lines at constant serial fractions.

    The per-PU performance comes from the Taihulight metadata join (about
    11.78 Gflop/s), so the measured Taihulight points fall on their own
    model lines.  Axes are in exaflop/s like the measured data.
    """
    if any(v <= 0 for v in nonparallel_values):
        raise ValueError("serial fractions must be > 0")
    lo, hi = rpeak_range
    if not 0 < lo < hi:
        raise ValueError(f"invalid rpeak range [{lo}, {hi}]")
    perf_per_pu = taihulight_perf_per_pu()
    series = []
    for beta in nonparallel_values:
        pts = []
        for r_peak in logspace(lo, hi, SAMPLES_PER_CURVE):
            n = max(r_peak / perf_per_pu, 1.0)
            eff = efficiency_from_nonparallel(n, beta)
            pts.append((r_peak / 1e18, r_peak * eff / 1e18))
        label = _FIG4_LABELS.get(beta, f"{beta:g}")
        series.append(Series(name=label, points=tuple(pts)))

    overlays = _by_benchmark(
        (r.benchmark, (r.r_peak / 1e18, r.r_max / 1e18))
        for r in measured if r.r_peak is not None and r.r_max is not None)
    overlays.append(Series(name="neural-sim", points=(NEURAL_SIM_POINT,)))

    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    for ov in overlays:
        xs += [x for x, _ in ov.points]
        ys += [y for _, y in ov.points]
    x_lo, x_hi = _log_bounds(1e-6, 0.5, xs)
    y_lo, y_hi = _log_bounds(1e-6, 0.3, ys)
    return CurveSet(
        title="Payload vs nominal performance at fixed serial fractions",
        x_axis=AxisSpec("R_Peak", "Eflop/s", "log10", x_lo, x_hi),
        y_axis=AxisSpec("R_Max", "Eflop/s", "log10", y_lo, y_hi),
        series=tuple(series),
        overlays=tuple(overlays),
    )


def fig5_curves() -> CurveSet:
    """Speed under g from one day to about 32 years, optical densities 1 and 2."""
    lo, hi = 86400.0, 1e9
    series = []
    values = []
    for n in (1.0, 2.0):
        params = RelativisticParams(density=n)  # accel defaults to g
        pts = tuple((t, relativistic_speed(t, params))
                    for t in logspace(lo, hi, SAMPLES_PER_CURVE))
        values += [v for _, v in pts]
        series.append(Series(name=f"v(t), n={n:g}", points=pts))
    y_lo, y_hi = _log_bounds(1e6, 5e8, values)
    return CurveSet(
        title="Relativistic speed under constant acceleration",
        x_axis=AxisSpec("time", "s", "log10", lo, hi),
        y_axis=AxisSpec("speed", "m/s", "log10", y_lo, y_hi),
        series=tuple(series),
    )


def fig6_panel(preset_name: str,
               rpeak_range: tuple[float, float] = (1e15, 1.1e18)) -> CurveSet:
    """Serial-fraction contributions (left axis) and payload curve (right).

    Series ``alpha_sw``, ``alpha_os`` and ``alpha_total`` are dimensionless
    serial fractions; ``rmax`` is in exaflop/s on the second axis.  The HPL
    and HPCG panels carry the measured reference dot of the machine the
    neural-simulation studies ran on.
    """
    p = preset(preset_name)
    d = p.decomposition
    lo, hi = rpeak_range
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

    fractions = [y for _, y in alpha_sw_pts + alpha_os_pts + alpha_total_pts]
    y_lo, y_hi = _log_bounds(1e-10, 5e-4, fractions)
    y2_lo, y2_hi = _log_bounds(1e-5, 1.0, [y for _, y in rmax_pts])
    overlays = ()
    if p.name in FIG6_MEASURED:
        overlays = (Series(name=f"{p.name} measured",
                           points=(FIG6_MEASURED[p.name],), axis="y2"),)
    return CurveSet(
        title=f"Serial-fraction contributions and payload performance ({p.name})",
        x_axis=AxisSpec("R_Peak", "Eflop/s", "log10", lo / 1e18, hi / 1e18),
        y_axis=AxisSpec("serial fraction (1-alpha)", "", "log10", y_lo, y_hi),
        series=(
            Series(name="alpha_sw", points=tuple(alpha_sw_pts)),
            Series(name="alpha_os", points=tuple(alpha_os_pts)),
            Series(name="alpha_total", points=tuple(alpha_total_pts)),
            Series(name="rmax", points=tuple(rmax_pts), axis="y2"),
        ),
        overlays=overlays,
        y2_axis=AxisSpec("R_Max", "Eflop/s", "log10", y2_lo, y2_hi),
    )


def emit_csv(cs: CurveSet, sink: IO[str]) -> None:
    """Write every series and overlay point as ``series,x,y`` rows.

    Values use the shortest representation that parses back to the same
    float, so the output is lossless and measured inputs appear verbatim.
    Names are quoted by the csv module's rules, once per series.
    """
    sink.write("series,x,y\n")
    for s in (*cs.series, *cs.overlays):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([s.name, ""])
        prefix = buf.getvalue()[:-1]  # "<quoted name>,"
        sink.write("".join([f"{prefix}{float(x)!r},{float(y)!r}\n" for x, y in s.points]))


def emit_svg(cs: CurveSet, sink: IO[str]) -> None:
    """Render the curve set as a standalone SVG 1.1 document."""
    sink.write(render_svg(cs))


def build_figure(fig_id: str, data_path: str | None = None,
                 warnings: list[str] | None = None) -> CurveSet:
    """Build one of the named figures, from bundled data unless overridden.

    ``data_path`` replaces the measurement dataset for figures 1, 3 and 4
    (it is ignored by 5 and the 6-panels, which are pure model output).
    The parse warnings of that dataset are appended to ``warnings``.
    """
    fig_id = fig_id.upper()
    if fig_id not in FIGURE_IDS:
        raise ValueError(
            f"unknown figure id {fig_id!r}; valid ids: {', '.join(FIGURE_IDS)}")
    if fig_id == "5":
        return fig5_curves()
    if fig_id.startswith("6"):
        return fig6_panel({"6A": "HPL", "6B": "HPCG", "6C": "NN"}[fig_id])
    records, found = ingest.load_records(
        data_path, "fig3_timeline.csv" if fig_id == "3" else "fig4_points.csv")
    if warnings is not None:
        warnings.extend(found)
    if fig_id == "3":
        return fig3_timeline(records)
    if fig_id == "4":
        return fig4_curves(measured=records)
    joined = ingest.join_meta(records, ingest.load_bundled_meta())
    return fig1_surface(measured=ingest.derive(joined))
