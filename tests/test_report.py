"""Figure dataset construction, CSV/SVG emission and determinism."""

import ast
import base64
import csv
import io
import math
import re
import struct
import xml.etree.ElementTree as ET
import zlib
from bisect import bisect_right
from pathlib import Path

import figure_digests
import import_budget
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_report import emit_csv as reference_emit_csv

from parascale import cli, ingest, report, svg
from parascale.contributions import DEFAULT_MACHINE, peak_point, preset
from parascale.model import (LIGHT_SPEED, alpha_from_measurement,
                             efficiency_from_nonparallel)
from parascale.report import (AxisSpec, CurveSet, Series, build_figure,
                              emit_csv, emit_svg, fig1_surface, fig3_timeline,
                              fig4_curves, fig5_curves, fig6_panel,
                              taihulight_perf_per_pu)

SRC = Path(__file__).resolve().parent.parent / "src"
SVG_NS = "{http://www.w3.org/2000/svg}"
XLINK_HREF = "{http://www.w3.org/1999/xlink}href"


# Each figure id, emitted in memory (id "<id>") and written to files by the
# command line (id "cli-<id>").
FIGURE_OUTPUTS = ([pytest.param(i, False, id=i) for i in report.FIGURE_IDS]
                  + [pytest.param(i, True, id=f"cli-{i}") for i in report.FIGURE_IDS])


def figure_bytes(fig_id, ext, via_cli, tmp_path):
    """The fig<id>.<ext> bytes of `parascale figure <id> --format svg`, read
    back from the files it writes or emitted into memory."""
    if via_cli:
        argv = ["figure", fig_id, "--format", "svg", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        return (tmp_path / f"fig{fig_id}.{ext}").read_bytes()
    sink = io.StringIO()
    (emit_csv if ext == "csv" else emit_svg)(build_figure(fig_id), sink)
    return sink.getvalue().encode("utf-8")


def csv_rows(cs):
    sink = io.StringIO()
    emit_csv(cs, sink)
    rows = list(csv.reader(io.StringIO(sink.getvalue())))
    assert rows[0] == ["series", "x", "y"]
    return [(name, float(x), float(y)) for name, x, y in rows[1:]]


class TestSurface:
    def test_corner_n_equals_one(self):
        cs = fig1_surface()
        for s in cs.series:
            n, eff = s.xs[0], s.ys[0]
            assert n == 1.0
            assert eff == 1.0

    def test_monotone_along_n(self):
        cs = fig1_surface()
        for s in cs.series:
            effs = s.ys
            assert all(a >= b for a, b in zip(effs, effs[1:]))

    def test_every_cell_is_the_model_efficiency(self):
        # the grid evaluates the model's formula inline
        for s in build_figure("1").series:
            assert all(eff == efficiency_from_nonparallel(n, s.level)
                       for n, eff in zip(s.xs, s.ys))

    def test_measured_overlays(self):
        records, _ = ingest.load_bundled("fig4_points.csv")
        joined = ingest.join_meta(records, ingest.load_bundled_meta())
        cs = fig1_surface(measured=ingest.derive(joined))
        names = [ov.name for ov in cs.overlays]
        assert names == sorted(names)
        assert set(names) == {"HPCG measured", "HPL measured"}
        for ov in cs.overlays:
            ((n, eff),) = zip(ov.xs, ov.ys)  # one record per overlay
            assert n >= 2 and 0 < eff <= 1
            # placed at the serial fraction derive inverted, not re-solved
            assert ov.level == alpha_from_measurement(n, eff)


def decode_png(data):
    """(width, height, bit depth, colour type, rows of (r, g, b)) of an
    unfiltered, non-interlaced PNG."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos, header, idat = 8, None, b""
    while pos < len(data):
        length, tag = struct.unpack(">I4s", data[pos:pos + 8])
        body = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(tag + body), tag
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat += body
        pos += 12 + length
    width, height, depth, color, _, _, interlace = header
    assert interlace == 0
    raw = zlib.decompress(idat)
    stride = 1 + 3 * width
    assert len(raw) == height * stride
    rows = []
    for r in range(height):
        line = raw[r * stride:(r + 1) * stride]
        assert line[0] == 0  # filter type none
        rows.append([tuple(line[1 + 3 * c:4 + 3 * c]) for c in range(width)])
    return width, height, depth, color, rows


RAMP_STOPS = ((13, 8, 92), (0, 140, 140), (255, 230, 51))


def ramp(t):
    """The heat map's colour ramp: dark blue -> teal -> yellow over [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    lo, hi, u = ((RAMP_STOPS[0], RAMP_STOPS[1], t * 2.0) if t <= 0.5
                 else (RAMP_STOPS[1], RAMP_STOPS[2], (t - 0.5) * 2.0))
    return tuple(round(a + (b - a) * u) for a, b in zip(lo, hi))


# t values around every stop and the clamp; at k/510 a channel lands on .5
RAMP_SWEEP = ([k / 1000 for k in range(-200, 1201)] + [k / 510 for k in range(511)]
              + [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 1e-300, 0.5 + 1e-16, math.inf])


def looked_up(ts):
    """Packed RGB at each t from the heat map's table of colour steps."""
    steps, colours = svg._colour_steps()
    return b"".join(colours[bisect_right(steps, t)] for t in ts)


class TestColourRamp:
    def test_packed_ramp_on_a_dense_sweep(self):
        packed = svg._rgb(RAMP_SWEEP)
        assert packed == b"".join(bytes(ramp(t)) for t in RAMP_SWEEP)
        assert looked_up(RAMP_SWEEP) == packed

    @settings(max_examples=500, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False), max_size=20))
    def test_packed_ramp_matches_the_ramp(self, ts):
        packed = svg._rgb(ts)
        assert packed == b"".join(bytes(ramp(t)) for t in ts)
        assert looked_up(ts) == packed

    def test_one_step_per_rounded_channel_value_inside_the_unit_interval(self):
        steps, colours = svg._colour_steps()
        changes = sum(abs(b - a) for lo, hi in zip(RAMP_STOPS, RAMP_STOPS[1:])
                      for a, b in zip(lo, hi))
        assert len(steps) == changes == 627
        assert len(colours) == len(steps) + 1
        assert 0.0 < steps[0] and steps[-1] < 1.0
        assert all(a < b for a, b in zip(steps, steps[1:]))
        assert svg._colour_steps() is svg._colour_steps()

    def test_table_is_the_ramp_on_both_sides_of_every_step(self):
        steps, _ = svg._colour_steps()
        ts = [u for t in steps
              for u in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
        assert looked_up(ts) == svg._rgb(ts)

    def test_only_a_heat_map_builds_the_table(self, monkeypatch):
        monkeypatch.setattr(svg, "_COLOUR_TABLE", None)
        for fig_id in ("3", "4", "5", "6A", "6B", "6C"):
            svg.render_svg(build_figure(fig_id))
        assert svg._COLOUR_TABLE is None
        svg.render_svg(build_figure("1"))
        table = svg._COLOUR_TABLE
        assert table is not None and svg._colour_steps() is table

    def test_self_check_refuses_steps_that_do_not_change_the_colour(self, monkeypatch):
        monkeypatch.setattr(svg, "_COLOUR_TABLE", None)
        monkeypatch.setattr(svg, "_rgb", lambda ts: bytes(3 * len(ts)))  # one colour
        with pytest.raises(RuntimeError,
                           match="^the gradient's colour steps disagree with _rgb$"):
            svg._colour_steps()
        assert svg._COLOUR_TABLE is None

    def test_colormap_is_the_ramp_in_hex(self):
        # figure 1's colour bar: 24 fills from the bottom up, at t = i / 24
        root = ET.fromstring(svg.render_svg(build_figure("1")))
        bar = [e.get("fill") for e in root.iter(SVG_NS + "rect")
               if e.get("x") == str(svg.PLOT_R + 18)]
        assert bar == ["#%02x%02x%02x" % ramp(i / 24) for i in range(24)]


class TestTicks:
    def test_log_axis_between_decades(self):
        assert svg._ticks(AxisSpec("x", "", "log10", 0.5, 230.0)) == [1.0, 10.0, 100.0]
        # within the 1e-9 decade tolerance of 1 and 1000, but outside the axis
        ax = AxisSpec("x", "", "log10", 1.0000000001, 999.9999999)
        assert svg._ticks(ax) == [10.0, 100.0]

    def test_linear_axis(self):
        for lo, hi, ticks in [
                (2010.0, 2020.0, [2010.0 + 2.0 * k for k in range(6)]),
                # the step tolerance reaches 1.0, just past the axis end
                (0.0, 1.0 - 1e-12, [0.2 * k for k in range(5)]),
                (0.0, 6.0, [1.0 * k for k in range(7)]),
                (0.0, 30.0, [5.0 * k for k in range(7)]),
                (0.0, 57.0, [10.0 * k for k in range(6)]),
                (1990.0, 2100.0, [2000.0 + 20.0 * k for k in range(6)]),
                (-3.0, 3.0, [-3.0 + k for k in range(7)])]:
            assert svg._ticks(AxisSpec("x", "", "linear", lo, hi)) == ticks, (lo, hi)

    def test_linear_axis_a_few_ulps_wide(self):
        # neighbouring multiples of the step round to one float on such an
        # axis, so a loop adding the step to a float tick never ends; a child
        # interpreter, short of time and memory, runs the ticks; above 0 the
        # width is subnormal, so its 1-2-5 step would underflow to 0
        code = (
            "import math, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
            "from parascale import svg\n"
            "from parascale.report import AxisSpec\n"
            "for lo in (1.0, -3.0, 2010.0, 0.0):\n"
            "    hi = lo\n"
            "    for _ in range(7):\n"
            "        hi = math.nextafter(hi, math.inf)\n"
            "        ticks = svg._ticks(AxisSpec('x', '', 'linear', lo, hi))\n"
            "        print(repr((lo, hi, ticks)))\n")
        done = import_budget.run_child(code, SRC)
        assert done.returncode == 0, done.stderr[-500:]
        axes = [ast.literal_eval(line) for line in done.stdout.splitlines()]
        assert axes[0] == (1.0, 1.0000000000000002, [1.0, 1.0000000000000002])
        assert axes[-1] == (0.0, 3.5e-323, [0.0])
        assert len(axes) == 28
        for lo, hi, ticks in axes:
            assert ticks and all(lo <= v <= hi for v in ticks)
            assert all(a < b for a, b in zip(ticks, ticks[1:]))


def scalar_px(spec, lo_px, hi_px, v):
    """The pixel of one value by the per-value formula: svg._scale's oracle."""
    if spec.scale == "log10":
        a, b = math.log10(spec.min), math.log10(spec.max)
        return lo_px + (math.log10(v) - a) / (b - a) * (hi_px - lo_px)
    a, b = spec.min, spec.max
    return lo_px + (v - a) / (b - a) * (hi_px - lo_px)


def ulps_above(v, k):
    """The float ``k`` floats above ``v``."""
    for _ in range(k):
        v = math.nextafter(v, math.inf)
    return v


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def axis_specs(draw):
    """A log10 axis, or a linear one: wide, only a few ulps wide, or with its
    ends anywhere in the float range a finite width apart."""
    if draw(st.booleans()):
        lo = 10.0 ** draw(st.floats(-30.0, 30.0))
        return AxisSpec("a", "", "log10", lo, lo * 10.0 ** draw(st.floats(1e-6, 12.0)))
    if draw(st.integers(0, 3)) == 0:
        lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
        assume(hi - lo < math.inf)
        return AxisSpec("a", "", "linear", lo, hi)
    lo = draw(st.floats(-1e6, 1e6))
    hi = draw(st.one_of(st.floats(1e-9, 1e6).map(lambda w: lo + w),
                        st.integers(1, 8).map(lambda k: ulps_above(lo, k))))
    return AxisSpec("a", "", "linear", lo, hi)


def values_near(spec, far=True):
    """Finite values on the axis and up to a decade, or a width, beyond it;
    with ``far``, also any finite value, above 0 on a log axis."""
    if spec.scale == "log10":
        near = st.floats(spec.min / 10.0, spec.max * 10.0)
        anywhere = st.floats(0.0, exclude_min=True, allow_infinity=False)
    else:
        width = spec.max - spec.min
        near = st.floats(spec.min - width, spec.max + width, allow_infinity=False)
        anywhere = FINITE
    return st.one_of(near, anywhere) if far else near


class TestScale:
    # the bundled figures' digests cover only their own axes
    @settings(max_examples=400, derandomize=True)
    @given(axis_specs(), st.data())
    def test_column_map_is_the_scalar_formula_bit_for_bit(self, spec, data):
        pixels = st.floats(-2000.0, 2000.0)
        lo_px, hi_px = data.draw(st.one_of(
            st.sampled_from([(svg.PLOT_L, svg.PLOT_R), (svg.PLOT_B, svg.PLOT_T)]),
            st.tuples(pixels, pixels).filter(lambda span: span[0] != span[1])))
        vs = data.draw(st.lists(values_near(spec), max_size=20))
        got = svg._scale(spec, lo_px, hi_px)(vs)
        assert [float.hex(px) for px in got] == [
            float.hex(scalar_px(spec, lo_px, hi_px, v)) for v in vs]

    @settings(max_examples=150, derandomize=True)
    @given(axis_specs(), axis_specs(), axis_specs(), st.data())
    def test_line_chart_points_are_the_scalar_formula(self, x_axis, y_axis,
                                                      y2_axis, data):
        # series on y and y2, sharing their x samples or not, then overlays;
        # with `far` values a value far off a narrow axis can map past the
        # float range, which the chart refuses, naming the first such series
        far = data.draw(st.booleans())
        shared = tuple(data.draw(st.lists(values_near(x_axis, far), min_size=1,
                                          max_size=6)))

        def series(name, axis):
            xs = data.draw(st.sampled_from([shared, tuple(data.draw(
                st.lists(values_near(x_axis, far), min_size=1, max_size=6)))]))
            ys = data.draw(st.lists(values_near(y2_axis if axis == "y2" else y_axis, far),
                                    min_size=len(xs), max_size=len(xs)))
            return Series(name, xs, tuple(ys), axis=axis)

        on = data.draw(st.lists(st.sampled_from(["y", "y2"]), max_size=3)) + ["y2"]
        lines = tuple(series(f"s{i}", axis) for i, axis in enumerate(on))
        dots = tuple(series(f"o{i}", axis) for i, axis in enumerate(
            data.draw(st.lists(st.sampled_from(["y", "y2"]), max_size=2))))
        cs = CurveSet("t", x_axis, y_axis, lines, dots, y2_axis=y2_axis)

        def px(s):
            spec = y2_axis if s.axis == "y2" else y_axis
            return [(f"{scalar_px(x_axis, svg.PLOT_L, svg.PLOT_R, x):.2f}",
                     f"{scalar_px(spec, svg.PLOT_B, svg.PLOT_T, y):.2f}")
                    for x, y in zip(s.xs, s.ys)]

        off = [s.name for s in (*lines, *dots)
               if not all(math.isfinite(float(v)) for point in px(s) for v in point)]
        if off:
            with pytest.raises(ValueError, match=f"^series '{off[0]}' has a point too far"):
                svg.render_svg(cs)
            return
        root = ET.fromstring(svg.render_svg(cs))

        assert [e.get("points") for e in root.iter(SVG_NS + "polyline")] == [
            " ".join(f"{x},{y}" for x, y in px(s)) for s in lines]
        assert [(e.get("cx"), e.get("cy")) for e in root.iter(SVG_NS + "circle")
                if e.get("clip-path")] == [p for s in dots for p in px(s)]

    @settings(max_examples=300, derandomize=True)
    @example("linear", -1e308, 1e308)  # its width overflows to inf
    @example("log10", 1.0, math.inf)
    @given(st.sampled_from(["linear", "log10"]), st.floats(), st.floats())
    def test_an_axis_is_refused_or_has_ticks_and_finite_pixels(self, scale, lo, hi):
        try:
            spec = AxisSpec("a", "", scale, lo, hi)
        except ValueError:
            # a linear axis is refused only for its order or its width
            assert scale == "log10" or not (lo < hi and hi - lo < math.inf)
            return
        ticks = svg._ticks(spec)
        assert all(lo <= v <= hi for v in ticks)
        for lo_px, hi_px in ((svg.PLOT_L, svg.PLOT_R), (svg.PLOT_B, svg.PLOT_T)):
            assert all(map(math.isfinite, svg._scale(spec, lo_px, hi_px)([lo, *ticks, hi])))


class TestHeatmapImage:
    @pytest.fixture(scope="class")
    def rendered(self):
        cs = build_figure("1")
        sink = io.StringIO()
        emit_svg(cs, sink)
        return cs, sink.getvalue()

    def test_one_image_in_a_small_stable_document(self, rendered):
        cs, text = rendered
        assert len(text.encode("utf-8")) <= 250_000
        sink = io.StringIO()
        emit_svg(cs, sink)
        assert sink.getvalue() == text
        root = ET.fromstring(text)  # well-formed
        assert len(list(root.iter(SVG_NS + "image"))) == 1
        assert sum(1 for _ in root.iter()) < 100

    def test_pixels_follow_the_colour_ramp(self, rendered):
        cs, text = rendered
        image = next(ET.fromstring(text).iter(SVG_NS + "image"))
        prefix = "data:image/png;base64,"
        href = image.get(XLINK_HREF)
        assert href.startswith(prefix)
        width, height, depth, color, rows = decode_png(
            base64.b64decode(href[len(prefix):], validate=True))
        assert (width, height, depth, color) == (512, 64, 8, 2)
        values = [v for s in cs.series for v in s.ys]
        vmin, vmax = math.log10(min(values)), math.log10(max(values))
        # top image row is the highest serial fraction
        by_level = sorted(cs.series, key=lambda s: s.level, reverse=True)
        for pixel_row, s in zip(rows, by_level):
            expected = [ramp((math.log10(v) - vmin) / (vmax - vmin))
                        for v in s.ys]
            assert pixel_row == expected

    def test_image_spans_the_outer_cell_edges(self, rendered):
        cs, text = rendered
        image = next(ET.fromstring(text).iter(SVG_NS + "image"))

        def outer_px(centers, spec, lo_px, hi_px):
            logs = [math.log10(c) for c in centers]
            a, b = math.log10(spec.min), math.log10(spec.max)
            edges = (logs[0] - (logs[1] - logs[0]) / 2,
                     logs[-1] + (logs[-1] - logs[-2]) / 2)
            return [lo_px + (e - a) / (b - a) * (hi_px - lo_px) for e in edges]

        x0, x1 = outer_px(list(cs.series[0].xs), cs.x_axis, svg.PLOT_L, svg.PLOT_R)
        y_lo, y_hi = outer_px(sorted(s.level for s in cs.series), cs.y_axis,
                              svg.PLOT_B, svg.PLOT_T)
        got = [float(image.get(k)) for k in ("x", "y", "width", "height")]
        assert got == pytest.approx([x0, y_hi, x1 - x0, y_lo - y_hi], abs=0.01)
        assert image.get("preserveAspectRatio") == "none"
        assert image.get("clip-path") == "url(#plot)"

    @pytest.mark.parametrize("axis,centres", [("x", (1e300, 1e308)), ("y", (1e300, 1e308)),
                                              ("x", (5e-324, 1e-300))])
    def test_cells_past_the_float_range_are_refused(self, axis, centres):
        # CurveSet admits these grids, but an outer cell edge, half a log step
        # beyond the end centres, overflows or underflows to 0
        ax = AxisSpec("a", "", "log10", 5e-324, 1e308)
        xs, levels = (centres, (2.0, 3.0)) if axis == "x" else ((2.0, 3.0), centres)
        cs = CurveSet("t", ax, ax, tuple(Series(name, xs, (0.5, 0.25), level=level)
                                         for name, level in zip("ab", levels)))
        with pytest.raises(ValueError, match=f"heat map {axis} cells reach past the float range"):
            svg.render_svg(cs)

    def test_markers_outside_the_plot_are_left_out(self):
        # markers have no clip path: 1e9 PUs lie right of the canvas, 2e8 PUs
        # on the colour bar; only the 1e6-PU record is inside the plot
        records = [ingest.MachineRecord(name, 2019.0, "HPL", r_peak=2e18,
                                        r_max=r_max, cores=cores)
                   for name, r_max, cores in (("Big", 2e13, 10**9),
                                              ("Bar", 2e13, 2 * 10**8),
                                              ("In", 1e18, 10**6))]
        cs = fig1_surface(measured=ingest.derive(records))
        assert all(cs.y_axis.min <= ov.level <= cs.y_axis.max for ov in cs.overlays)
        circles = list(ET.fromstring(svg.render_svg(cs)).iter(SVG_NS + "circle"))
        assert [float(c.get("cx")) for c in circles] == [pytest.approx(
            svg.PLOT_L + 6 / 8 * (svg.PLOT_R - svg.PLOT_L), abs=0.01)]


class TestLineChart:
    def test_colours_wrap_through_series_then_overlays(self):
        # 12 entries: the overlays take the last two palette colours, then wrap
        ax = AxisSpec("x", "", "linear", 0.0, 1.0)
        series = tuple(Series(f"s{i}", (0.1, 0.9), (0.1 * i, 0.5)) for i in range(8))
        overlays = tuple(Series(f"o{i}", (0.5,), (0.1 * i,)) for i in range(4))
        root = ET.fromstring(svg.render_svg(CurveSet("t", ax, ax, series, overlays)))
        elements = list(root)
        data = [e for e in elements if e.get("clip-path") == "url(#plot)"]
        assert [e.get("stroke") for e in data[:8]] == svg.PALETTE[:8]
        assert all(e.tag == SVG_NS + "polyline" for e in data[:8])
        assert [(e.tag, e.get("fill")) for e in data[8:]] == [
            (SVG_NS + "circle", svg.PALETTE[i]) for i in (8, 9, 0, 1)]
        # the legend lists the series, then the overlays, after all the data
        names = [s.name for s in series + overlays]
        legend = [e for e in elements if e.text in names]
        assert [e.text for e in legend] == names
        assert elements.index(legend[0]) > elements.index(data[-1])
        markers = [e for e in elements[elements.index(data[-1]) + 1:]
                   if e.tag in (SVG_NS + "line", SVG_NS + "circle")]
        assert [(e.tag, e.get("stroke") if e.tag == SVG_NS + "line" else e.get("fill"))
                for e in markers] == (
            [(SVG_NS + "line", c) for c in svg.PALETTE[:8]]
            + [(SVG_NS + "circle", svg.PALETTE[i]) for i in (8, 9, 0, 1)])


class TestTimelineFigure:
    def test_summit_endpoint_and_gyoukou(self):
        records, _ = ingest.load_bundled("fig3_timeline.csv")
        cs = fig3_timeline(records)
        by_name = {s.name: tuple(zip(s.xs, s.ys)) for s in cs.series}
        assert by_name["Summit"][-1] == (2019.0, pytest.approx(148.6, rel=1e-12))
        assert by_name["Gyoukou"] == (
            (2017.0, pytest.approx(1.677, rel=1e-12)),
            (2017.5, pytest.approx(19.136, rel=1e-12)))
        assert cs.y_axis.unit == "Pflop/s"
        assert cs.y_axis.scale == "log10"

    def test_empty_records(self):
        with pytest.raises(ValueError, match="no data"):
            fig3_timeline([])

    def test_y_axis_widens_below_its_default_range(self):
        # 1e13 flop/s is 0.01 Pflop/s, two decades under the default 0.5
        cs = fig3_timeline([ingest.MachineRecord("Small", 2019.0, "HPL", r_max=1e13)])
        assert (cs.y_axis.min, cs.y_axis.max) == (0.01, 230.0)


def taihulight_bracket(name):
    """The two samples of figure 4's line ``name`` on either side of
    Taihulight's measured nominal performance, 0.1254 Eflop/s."""
    s = next(s for s in fig4_curves().series if s.name == name)
    pts = list(zip(s.xs, s.ys))
    return next((a, b) for a, b in zip(pts, pts[1:]) if a[0] <= 0.1254 <= b[0])


class TestPayloadVsNominal:
    def test_perf_per_pu_from_metadata_join(self):
        assert taihulight_perf_per_pu() == pytest.approx(11.78e9, rel=1e-3)

    def test_hpl_line_passes_through_taihulight_point(self):
        (x0, y0), (x1, y1) = taihulight_bracket("HPL")
        assert y0 <= 0.0930 <= y1
        # log-linear between the two samples, as the chart draws them
        t = math.log(0.1254 / x0) / math.log(x1 / x0)
        assert y0 * (y1 / y0) ** t == pytest.approx(0.0930, rel=0.01)

    def test_hpcg_line_at_taihulight_point(self):
        # the line uses the published rounded serial fraction 2.4e-5, so it
        # passes the measured point to ~2 % (the exact inversion is 2.44e-5)
        for _, y in taihulight_bracket("HPCG"):
            assert y == pytest.approx(0.000480, rel=0.02)

    def test_series_labels(self):
        cs = fig4_curves()
        assert [s.name for s in cs.series] == [
            "HPL", "5e-07", "1e-05", "HPCG", "0.0001", "0.0015"]

    def test_overlays_include_measured_and_neural_point(self):
        records, _ = ingest.load_bundled("fig4_points.csv")
        cs = fig4_curves(measured=records)
        by_name = {ov.name: tuple(zip(ov.xs, ov.ys)) for ov in cs.overlays}
        assert (0.125, 0.0930) in by_name["HPL measured"]
        assert (0.188, 0.1223) in by_name["HPL measured"]
        assert by_name["neural-sim"] == ((9.83e-6, 8.39e-6),)

    def test_x_axis_widens_below_its_default_range(self):
        # 1e10 flop/s is 1e-8 Eflop/s, two decades under the default 1e-6
        small = ingest.MachineRecord("Small", 2019.0, "HPL", r_peak=1e10, r_max=5e9)
        cs, model_only = fig4_curves(measured=[small]), fig4_curves()
        assert cs.x_axis.min == 1e-8
        # the upper ends are those the model lines give without the record
        assert (cs.x_axis.max, cs.y_axis.max) == (model_only.x_axis.max,
                                                  model_only.y_axis.max)


class TestRelativisticFigure:
    def test_asymptotes(self):
        cs = fig5_curves()
        n1 = next(s for s in cs.series if s.name == "v(t), n=1")
        n2 = next(s for s in cs.series if s.name == "v(t), n=2")
        assert n1.ys[-1] < LIGHT_SPEED
        assert n1.ys[-1] > 0.995 * LIGHT_SPEED
        assert n2.ys[-1] < LIGHT_SPEED / 2
        assert n2.ys[-1] > 0.995 * LIGHT_SPEED / 2

    def test_curves_start_together(self):
        cs = fig5_curves()
        for s in cs.series:
            t, v = s.xs[0], s.ys[0]
            assert t == 86400.0
            assert v == pytest.approx(8.476e5, rel=1e-3)

    def test_monotone(self):
        cs = fig5_curves()
        for s in cs.series:
            vs = s.ys
            assert all(a < b for a, b in zip(vs, vs[1:]))


class TestDecompositionPanels:
    def test_constant_software_series(self):
        cs = fig6_panel("HPL")
        alpha_sw = next(s for s in cs.series if s.name == "alpha_sw")
        assert all(y == 2e-8 for y in alpha_sw.ys)

    def test_hpl_panel_peak_location(self):
        cs = fig6_panel("HPL")
        rmax = next(s for s in cs.series if s.name == "rmax")
        x_star, _ = max(zip(rmax.xs, rmax.ys), key=lambda p: p[1])
        assert 0.3 < x_star < 0.7
        assert rmax.axis == "y2"

    def test_nn_panel_peak_location(self):
        cs = fig6_panel("NN")
        rmax = next(s for s in cs.series if s.name == "rmax")
        x_star, _ = max(zip(rmax.xs, rmax.ys), key=lambda p: p[1])
        assert x_star == pytest.approx(0.00632, rel=0.02)

    def test_measured_dots(self):
        hpl, hpcg = fig6_panel("HPL").overlays[0], fig6_panel("HPCG").overlays[0]
        assert tuple(zip(hpl.xs, hpl.ys)) == ((0.00587, 0.005),)
        assert tuple(zip(hpcg.xs, hpcg.ys)) == ((0.00587, 0.000095),)
        assert fig6_panel("NN").overlays == ()

    def test_name_case_insensitive(self):
        # the title and the measured dot follow the preset, not the spelling
        assert fig6_panel("hpl") == fig6_panel("HPL")

    def test_total_is_sum_of_parts(self):
        cs = fig6_panel("HPCG")
        by_name = {s.name: tuple(zip(s.xs, s.ys)) for s in cs.series}
        for (x, sw), (_, os_), (_, total) in zip(
                by_name["alpha_sw"], by_name["alpha_os"], by_name["alpha_total"]):
            assert total == pytest.approx(sw + os_, rel=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            fig6_panel("SPEC2017")


class TestEmission:
    def test_csv_schema_and_verbatim_values(self):
        records, _ = ingest.load_bundled("fig4_points.csv")
        rows = csv_rows(fig4_curves(measured=records))
        assert ("HPL measured", 0.125, 0.093) in rows
        assert ("HPL measured", 0.188, 0.1223) in rows  # Summit
        assert ("neural-sim", 9.83e-6, 8.39e-6) in rows

    def test_fig3_csv_verbatim(self):
        records, _ = ingest.load_bundled("fig3_timeline.csv")
        rows = csv_rows(fig3_timeline(records))
        assert ("Summit", 2019.0, 148.6) in rows
        assert ("Taihulight", 2016.0, 93.015) in rows

    def test_csv_without_overlays_has_model_series_only(self):
        cs = fig5_curves()
        names = {name for name, _, _ in csv_rows(cs)}
        assert names == {"v(t), n=1", "v(t), n=2"}

    def test_emitters_deterministic(self):
        cs = fig6_panel("HPL")
        a, b = io.StringIO(), io.StringIO()
        emit_csv(cs, a)
        emit_csv(cs, b)
        assert a.getvalue() == b.getvalue()
        a, b = io.StringIO(), io.StringIO()
        emit_svg(cs, a)
        emit_svg(cs, b)
        assert a.getvalue() == b.getvalue()

    def test_svg_structure(self):
        sink = io.StringIO()
        emit_svg(fig5_curves(), sink)
        svg = sink.getvalue()
        assert svg.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in svg
        assert svg.count("<polyline") == 2
        sink = io.StringIO()
        emit_svg(fig1_surface(), sink)
        assert "<rect" in sink.getvalue()

    def test_names_quoted_as_csv_writer_quotes_them(self):
        ax = AxisSpec("x", "", "linear", 0.0, 1.0)
        # csv.writer(lineterminator="\n") quotes as RFC 4180 does, except that
        # it leaves a \r bare, which csv.reader then reads as a line break
        names = ("a,b", 'say "hi"', "two\nlines", "a\rb", "", "plain")
        cs = CurveSet("t", ax, ax,
                      series=tuple(Series(n, (0.5, 1), (0.25, 2)) for n in names),
                      overlays=tuple(Series(n, (0.1,), (1e-300,)) for n in names))
        reference = ["series,x,y\n"]
        for s in cs.series + cs.overlays:
            cell = ('"' + s.name.replace('"', '""') + '"'
                    if set(s.name) & set(',"\r\n') else s.name)
            reference += [f"{cell},{float(x)!r},{float(y)!r}\n"
                          for x, y in zip(s.xs, s.ys)]
        assert reference[7] == '"a\rb",0.5,0.25\n'
        sink = io.StringIO()
        emit_csv(cs, sink)
        assert sink.getvalue() == "".join(reference)
        read_back = [row[0] for row in csv.reader(io.StringIO(sink.getvalue(),
                                                              newline=""))]
        assert read_back[1::2][:len(names)] == list(names)

    @settings(max_examples=500, derandomize=True)
    @given(st.data())
    def test_csv_bytes_equal_the_unshared_emitter(self, data):
        # series draw their xs from one pool of tuples: a series shares a
        # pooled tuple with other series or holds an equal copy of it.  The
        # values are finite: a curve set refuses nan and infinities
        ints = st.integers(-2**60, 2**60)
        floats = st.floats(allow_nan=False, allow_infinity=False)
        pool = data.draw(st.lists(st.lists(st.one_of(
            floats, ints, st.sampled_from([0.0, -0.0, 0])),
            min_size=1, max_size=8).map(tuple), min_size=1, max_size=3))

        def series_over(xs):
            return st.builds(Series, st.text(max_size=3),
                             st.sampled_from([xs, tuple(list(xs))]),
                             st.lists(st.one_of(floats, ints), min_size=len(xs),
                                      max_size=len(xs)).map(tuple))
        series = st.sampled_from(pool).flatmap(series_over)
        ax = AxisSpec("x", "", "linear", 0.0, 1.0)
        cs = CurveSet("t", ax, ax,
                      series=tuple(data.draw(st.lists(series, min_size=1, max_size=4))),
                      overlays=tuple(data.draw(st.lists(series, max_size=2))))
        got, expected = io.StringIO(), io.StringIO()
        emit_csv(cs, got)
        reference_emit_csv(cs, expected)
        assert got.getvalue() == expected.getvalue()

    def test_signed_zeros_and_int_x_keep_their_text(self):
        ax = AxisSpec("x", "", "linear", -1.0, 1.0)
        cs = CurveSet("t", ax, ax, series=(Series("a", (0.0, -0.0, 1), (1, 2, 3)),
                                           Series("b", (-0.0, 0.0, 1.0), (4, 5, 6))))
        sink = io.StringIO()
        emit_csv(cs, sink)
        assert sink.getvalue() == ("series,x,y\na,0.0,1.0\na,-0.0,2.0\na,1.0,3.0\n"
                                   "b,-0.0,4.0\nb,0.0,5.0\nb,1.0,6.0\n")

    def test_no_memo_outlives_a_call(self):
        # figure 1 between two figure 4 emissions leaves figure 4's bytes alone
        def emitted(fig_id):
            cs = build_figure(fig_id)
            text, image, expected = io.StringIO(), io.StringIO(), io.StringIO()
            emit_csv(cs, text)
            emit_svg(cs, image)
            reference_emit_csv(cs, expected)
            assert text.getvalue() == expected.getvalue()
            return text.getvalue(), image.getvalue()

        first = emitted("4")
        emitted("1")
        assert emitted("4") == first

    def test_csv_round_trips_losslessly(self):
        for name, x, y in csv_rows(fig6_panel("NN"))[:50]:
            assert float(repr(x)) == x and float(repr(y)) == y


class TestCurveSetValidation:
    def test_series_nonempty(self):
        ax = AxisSpec("x", "", "linear", 0.0, 1.0)
        with pytest.raises(ValueError, match="empty"):
            CurveSet("t", ax, ax, series=(Series("s", (), ()),))
        with pytest.raises(ValueError, match="^curve set needs at least one series$"):
            CurveSet("t", ax, ax, series=())

    def test_log_axis_positive(self):
        log_ax = AxisSpec("x", "", "log10", 1.0, 10.0)
        with pytest.raises(ValueError, match="log"):
            CurveSet("t", log_ax, log_ax,
                     series=(Series("s", (1.0,), (-1.0,)),))
        with pytest.raises(ValueError, match="min > 0"):
            AxisSpec("x", "", "log10", 0.0, 10.0)
        # a few ulps wide, its ends have one log10: no pixel scale maps it
        with pytest.raises(ValueError, match=re.escape("log10(min) < log10(max)")):
            AxisSpec("x", "", "log10", 10.0, math.nextafter(10.0, math.inf))

    def test_ragged_series(self):
        ax = AxisSpec("x", "", "linear", 0.0, 1.0)
        with pytest.raises(ValueError, match="'s' has 2 x but 1 y values"):
            CurveSet("t", ax, ax, series=(Series("s", (0.1, 0.2), (0.5,)),))

    @pytest.mark.parametrize("as_overlay", [False, True], ids=["series", "overlay"])
    def test_log_x_checked_in_each_distinct_xs(self, as_overlay):
        # the second xs is a tuple of its own, so its check is not skipped
        log_ax = AxisSpec("x", "", "log10", 1.0, 10.0)
        first = Series("a", (1.0, 2.0), (1.0, 1.0))
        bad = Series("b", (2.0, 0.0), (1.0, 1.0))
        parts = ({"series": (first,), "overlays": (bad,)} if as_overlay
                 else {"series": (first, bad)})
        with pytest.raises(ValueError, match="'b' has x <= 0 on a log axis"):
            CurveSet("t", log_ax, log_ax, **parts)

    def test_axis_order(self):
        with pytest.raises(ValueError):
            AxisSpec("x", "", "linear", 2.0, 1.0)
        with pytest.raises(ValueError, match="^unknown axis scale 'cubic'$"):
            AxisSpec("x", "", "cubic", 1.0, 2.0)

    @pytest.mark.parametrize("parts,message", [
        pytest.param({"series": (Series("a", (1.0, math.nan), (2.0, 3.0)),)},
                     "'a' has a non-finite x", id="nan-x"),
        pytest.param({"series": (Series("a", (1.0, 2.0), (2.0, 3.0)),
                                 Series("b", (1.0, math.inf), (2.0, 3.0)))},
                     "'b' has a non-finite x", id="inf-x-in-second-xs"),
        pytest.param({"series": (Series("a", (1.0,), (2.0,)),),
                      "overlays": (Series("o", (1.0,), (math.inf,)),)},
                     "'o' has a non-finite y", id="inf-y-overlay"),
        pytest.param({"series": (Series("a", (1.0,), (math.nan,)),)},
                     "'a' has a non-finite y", id="nan-y"),
        pytest.param({"series": (Series("a", (1.0,), (2.0,), axis="y2"),)},
                     "'a' is on a missing axis 'y2'", id="y2-without-y2-axis"),
        pytest.param({"series": (Series("a", (1.0,), (2.0,), axis="Y2"),),
                      "y2_axis": AxisSpec("y2", "", "log10", 1.0, 10.0)},
                     "'a' is on a missing axis 'Y2'", id="unknown-axis"),
        pytest.param({"series": (Series("a", (1.0, 2.0), (0.5, 0.5), level=0.0),)},
                     "'a' has y <= 0 on a log axis", id="level-zero-on-log-y"),
        pytest.param({"series": (Series("a", (1.0, 2.0), (0.5, 0.5), level=math.nan),)},
                     "'a' has a non-finite y", id="nan-level"),
        pytest.param({"series": (Series("a", (1.0, 2.0), (0.5, 0.5), level=2.0),),
                      "overlays": (Series("o", (1.0,), (0.5,), level=math.nan),)},
                     "'o' has a non-finite y", id="nan-overlay-level"),
        pytest.param({"series": (Series("a", (1.0, 2.0), (0.5, 0.5), level=2.0),),
                      "overlays": (Series("o", (1.0,), (0.5,)),)},
                     "levels mixed at series 'o'", id="heatmap-overlay-without-level"),
        pytest.param({"series": (Series("a", (1.0, 2.0), (0.5, 0.5)),
                                 Series("b", (1.0, 2.0), (0.5, 0.5), level=2.0))},
                     "levels mixed at series 'b'", id="line-chart-series-with-level"),
    ])
    def test_refuses_what_the_axes_cannot_show(self, parts, message):
        log_ax = AxisSpec("x", "", "log10", 1.0, 10.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            CurveSet("t", log_ax, log_ax, **parts)

    @pytest.mark.parametrize("level", [0.0, -1.0])
    def test_heatmap_overlay_below_a_log_axis_is_left_undrawn(self, level):
        # like a marker above the axis: kept in the curve set, no circle
        log_ax = AxisSpec("x", "", "log10", 1.0, 10.0)
        rows = (Series("a", (1.0, 2.0), (0.5, 0.5), level=2.0),
                Series("b", (1.0, 2.0), (0.5, 0.25), level=3.0))
        overlay = Series("o", (2.0,), (1.0,), level=level)
        cs = CurveSet("t", log_ax, log_ax, series=rows, overlays=(overlay,))
        assert cs.overlays == (overlay,)
        root = ET.fromstring(svg.render_svg(cs))
        assert list(root.iter(SVG_NS + "circle")) == []

    @pytest.mark.parametrize("linear", ["x", "y"])
    def test_heatmap_refuses_a_linear_axis(self, linear):
        # svg stretches the cells over log-uniform edges: on a linear axis it
        # would place them wrong, or fail on an x <= 0 with a bare math error
        log_ax = AxisSpec("log", "", "log10", 1.0, 10.0)
        lin_ax = AxisSpec("lin", "", "linear", -2.0, 4.0)
        xs = (-1.0, 1.0, 2.0) if linear == "x" else (1.0, 2.0, 3.0)
        rows = (Series("a", xs, (0.5, 0.5, 0.5), level=2.0),
                Series("b", xs, (0.5, 0.25, 0.5), level=3.0))
        axes = (lin_ax, log_ax) if linear == "x" else (log_ax, lin_ax)
        with pytest.raises(ValueError, match=re.escape(
                f"heat map {linear} axis 'lin' is linear, not log10")):
            CurveSet("t", *axes, series=rows)

    @pytest.mark.parametrize("rows,message", [
        pytest.param([("a", (1.0, 2.0), (0.5, 0.5), 2.0)],
                     "row 'a': need at least 2 rows of 2 cells, got 1 of 2",
                     id="one-row"),
        pytest.param([("a", (1.0,), (0.5,), 2.0), ("b", (1.0,), (0.5,), 3.0)],
                     "row 'a': need at least 2 rows of 2 cells, got 2 of 1",
                     id="one-column"),
        pytest.param([("a", (1.0, 2.0), (0.5, 0.5), 2.0),
                      ("b", (1.0, 2.0, 3.0), (0.5, 0.5, 0.5), 3.0)],
                     "row 'b' has other x samples than row 'a'", id="ragged"),
        pytest.param([("a", (1.0, 2.0), (0.5, 0.5), 2.0),
                      ("b", (1.0, 3.0), (0.5, 0.5), 3.0)],
                     "row 'b' has other x samples than row 'a'", id="other-xs"),
        pytest.param([("a", (1.0, 2.0), (0.5, 0.5), 2.0),
                      ("b", (1.0, 2.0), (0.5, 0.5), 2.0)],
                     "row 'b': level 2.0 does not rise above 2.0",
                     id="duplicate-level"),
        pytest.param([("a", (1.0, 2.0), (0.5, 0.5), 3.0),
                      ("b", (1.0, 2.0), (0.5, 0.5), 2.0)],
                     "row 'b': level 2.0 does not rise above 3.0",
                     id="falling-level"),
        *(pytest.param([("a", (1.0, 2.0), (0.5, 0.5), 2.0),
                        ("b", (1.0, 2.0), (0.5, cell), 3.0)],
                       "row 'b' has a cell that is non-finite or <= 0",
                       id=f"cell-{cell}")
          for cell in (math.nan, math.inf, 0.0, -0.5)),
    ])
    def test_heatmap_rows_must_be_a_grid(self, rows, message):
        # svg would draw each case wrong, or fail on it with a bare error
        log_ax = AxisSpec("x", "", "log10", 1.0, 10.0)
        series = tuple(Series(name, xs, ys, level=level)
                       for name, xs, ys, level in rows)
        with pytest.raises(ValueError, match=re.escape(f"heat map {message}")):
            CurveSet("t", log_ax, log_ax, series=series)

    def test_heatmap_rows_may_hold_equal_copies_of_the_x_samples(self):
        log_ax = AxisSpec("x", "", "log10", 1.0, 10.0)
        xs = (1.0, 2.0)
        rows = (Series("a", xs, (0.5, 0.5), level=2.0),
                Series("b", tuple(list(xs)), (0.5, 0.25), level=3.0))
        assert rows[1].xs is not xs
        assert CurveSet("t", log_ax, log_ax, series=rows).series == rows


class TestBuildFigure:
    def test_unknown_id_lists_valid(self):
        with pytest.raises(ValueError, match="6A"):
            build_figure("7")

    @pytest.mark.parametrize("fig_id", report.FIGURE_IDS)
    def test_all_ids_build(self, fig_id):
        cs = build_figure(fig_id)
        assert cs.series

    @pytest.mark.parametrize("fig_id,via_cli", FIGURE_OUTPUTS)
    def test_csv_bytes_match_frozen_digests(self, fig_id, via_cli, tmp_path):
        # digests of `parascale figure <id>` output, kept with the benchmark
        data = figure_bytes(fig_id, "csv", via_cli, tmp_path)
        assert figure_digests.digest(data, "csv") == figure_digests.frozen("csv")[fig_id]

    @pytest.mark.parametrize("fig_id,via_cli", FIGURE_OUTPUTS)
    def test_svg_bytes_match_frozen_digests(self, fig_id, via_cli, tmp_path):
        # frozen digests of `parascale figure <id> --format svg`, figure 1's
        # PNG cut out; test_pixels_follow_the_colour_ramp checks its pixels
        data = figure_bytes(fig_id, "svg", via_cli, tmp_path)
        assert figure_digests.digest(data, "svg") == figure_digests.frozen("svg")[fig_id]

    def test_digest_script_names_each_file_off_its_digest(self, tmp_path):
        # the script CI runs on the installed console script's figures
        for fig_id in report.FIGURE_IDS:
            assert cli.main(["figure", fig_id, "--format", "svg", "-o", str(tmp_path)]) == 0
        assert figure_digests.mismatches(tmp_path) == []
        (tmp_path / "fig4.svg").unlink()
        with open(tmp_path / "fig3.csv", "ab") as fh:
            fh.write(b"\n")
        svg_1 = tmp_path / "fig1.svg"  # other PNG bytes are cut like the built ones
        svg_1.write_bytes(svg_1.read_bytes().replace(b"base64,", b"base64,AAAA", 1))
        assert [m.split(":")[0] for m in figure_digests.mismatches(tmp_path)] == [
            str(tmp_path / "fig3.csv"), str(tmp_path / "fig4.svg")]

    @pytest.mark.parametrize("fig_id", ["1", "4", "5", "6A", "6B", "6C"])
    def test_model_series_share_one_xs(self, fig_id):
        # validation, CSV and SVG handle a run of series over one xs tuple once
        cs = build_figure(fig_id)
        assert all(s.xs is cs.series[0].xs for s in cs.series)

    def test_data_parse_warnings_are_collected(self, tmp_path):
        with open(ingest.bundled_path("fig3_timeline.csv"), encoding="utf-8") as fh:
            clean = fh.read()
        planted = tmp_path / "planted.csv"
        planted.write_text(clean + "Planted,2018.0,HPL,1.0,2.0,\n", encoding="utf-8")
        warnings = []
        cs = build_figure("3", data_path=str(planted), warnings=warnings)
        assert len(warnings) == 1 and "'Planted'" in warnings[0]
        assert cs == build_figure("3")
        assert build_figure("5", data_path=str(planted), warnings=warnings)
        assert len(warnings) == 1  # figure 5 reads no measurements

    def test_figure1_has_measured_overlays(self):
        cs = build_figure("1")
        assert {ov.name for ov in cs.overlays} == {"HPL measured", "HPCG measured"}

    def test_peak_agreement_with_contributions(self):
        # the sampled panel curve's maximum matches the closed-form peak
        cs = build_figure("6C")
        rmax = next(s for s in cs.series if s.name == "rmax")
        sampled_max = max(rmax.ys)
        peak = peak_point(DEFAULT_MACHINE, preset("NN"))
        assert sampled_max == pytest.approx(peak.r_max_star / 1e18, rel=1e-3)
