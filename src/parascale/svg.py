"""Minimal deterministic SVG renderer for curve sets; no dependencies.

Output is a standalone SVG 1.1 document and is a pure function of the input:
identical curve sets render to byte-identical files.  A heat map embeds its
grid as one ``<image>``: an 8-bit RGB PNG with one pixel per cell, built
with the standard library and drawn with nearest-neighbour scaling.
"""

from __future__ import annotations

import math
import sys
from _bisect import bisect_right  # what bisect re-exports, without bisect.py
from _collections_abc import Callable, Iterable, Sequence  # what collections.abc re-exports

WIDTH = 960
HEIGHT = 600

# Plot box in pixels: left, right, top, bottom edges.
PLOT_L = 80
PLOT_R = WIDTH - 85
PLOT_T = 48
PLOT_B = HEIGHT - 64

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
]
# The heat map's gradient: dark blue -> teal -> yellow over t in [0, 1].
_STOPS = ((13, 8, 92), (0, 140, 140), (255, 230, 51))
_COLOUR_TABLE = None  # _colour_steps()'s table, built by its first call

_FONT = 'font-family="Helvetica,Arial,sans-serif"'

#: the markup characters as entities, and each one XML 1.0 forbids as U+FFFD
_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", **dict.fromkeys(
        [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd")})


def _escape(text: str) -> str:
    return text.translate(_ESCAPES)


def _tick_label(v: float) -> str:
    return f"{v:g}"


def _scale(spec, lo_px: float, hi_px: float) -> Callable[[Iterable[float]], list[float]]:
    """Pixel transform for an axis spec over the given pixel span: it maps a
    column of values to their pixel positions, in order."""
    log10, span = math.log10, hi_px - lo_px
    if spec.scale == "log10":
        a = log10(spec.min)
        width = log10(spec.max) - a
        return lambda vs: [lo_px + (log10(v) - a) / width * span for v in vs]
    a, width = spec.min, spec.max - spec.min
    return lambda vs: [lo_px + (v - a) / width * span for v in vs]


def _drawable(coords: str, name: str) -> str:
    """``coords``, a series' pixels as text, unless one reads inf or nan, the
    only float texts with an "n": a finite value far off a narrow linear axis
    maps past the float range."""
    if "n" in coords:
        raise ValueError(f"series {name!r} has a point too far off its axes to draw")
    return coords


def _ticks(spec) -> list[float]:
    """Tick values within [min, max]: the decades of a log axis, or the
    multiples of a 1-2-5 step on a linear one."""
    if spec.scale == "log10":
        lo = math.ceil(math.log10(spec.min) - 1e-9)
        hi = math.floor(math.log10(spec.max) + 1e-9)
        ticks = [10.0 ** k for k in range(lo, hi + 1)]
    else:
        # a step below the smallest normal float would underflow to 0 as 10.0 ** k
        raw = max((spec.max - spec.min) / 6.0, sys.float_info.min)
        mag = 10.0 ** math.floor(math.log10(raw))
        step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
        # on an axis a few ulps wide neighbouring multiples round to one float
        ticks = dict.fromkeys(k * step for k in range(
            math.ceil(spec.min / step), math.floor(spec.max / step + 1e-9) + 1))
    return [v for v in ticks if spec.min <= v <= spec.max]


def _axis_title(spec) -> str:
    return f"{spec.label} ({spec.unit})" if spec.unit else spec.label


def render_svg(cs) -> str:
    """Render a CurveSet to SVG: a heat map if its series carry a ``level``."""
    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8" standalone="no"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<clipPath id="plot"><rect x="{PLOT_L}" y="{PLOT_T}" '
        f'width="{PLOT_R - PLOT_L}" height="{PLOT_B - PLOT_T}"/></clipPath>')
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-size="17" {_FONT}>{_escape(cs.title)}</text>')

    x_px = _scale(cs.x_axis, PLOT_L, PLOT_R)
    y_px = _scale(cs.y_axis, PLOT_B, PLOT_T)
    y2_px = _scale(cs.y2_axis, PLOT_B, PLOT_T) if cs.y2_axis is not None else None

    # Frame, x ticks and labels (shared by both chart types).
    ticks = _ticks(cs.x_axis)
    for v, px in zip(ticks, x_px(ticks)):
        out.append(f'<line x1="{px:.2f}" y1="{PLOT_T}" x2="{px:.2f}" '
                   f'y2="{PLOT_B}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{PLOT_B + 20}" text-anchor="middle" '
                   f'font-size="12" {_FONT}>{_tick_label(v)}</text>')
    ticks = _ticks(cs.y_axis)
    for v, py in zip(ticks, y_px(ticks)):
        out.append(f'<line x1="{PLOT_L}" y1="{py:.2f}" x2="{PLOT_R}" '
                   f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{PLOT_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-size="12" {_FONT}>{_tick_label(v)}</text>')

    if cs.series[0].level is not None:
        _render_heatmap(cs, out, x_px, y_px)
    else:
        _render_lines(cs, out, x_px, y_px, y2_px)

    # Frame on top of data.
    out.append(f'<rect x="{PLOT_L}" y="{PLOT_T}" width="{PLOT_R - PLOT_L}" '
               f'height="{PLOT_B - PLOT_T}" fill="none" stroke="#000000" '
               f'stroke-width="1.5"/>')
    out.append(f'<text x="{(PLOT_L + PLOT_R) / 2:.1f}" y="{HEIGHT - 18}" '
               f'text-anchor="middle" font-size="14" {_FONT}>'
               f'{_escape(_axis_title(cs.x_axis))}</text>')
    mid_y = (PLOT_T + PLOT_B) / 2
    out.append(f'<text x="22" y="{mid_y:.1f}" text-anchor="middle" font-size="14" '
               f'{_FONT} transform="rotate(-90 22 {mid_y:.1f})">'
               f'{_escape(_axis_title(cs.y_axis))}</text>')
    if y2_px is not None:
        ticks = _ticks(cs.y2_axis)
        for v, py in zip(ticks, y2_px(ticks)):
            out.append(f'<text x="{PLOT_R + 8}" y="{py + 4:.2f}" '
                       f'text-anchor="start" font-size="12" {_FONT}>'
                       f'{_tick_label(v)}</text>')
        out.append(f'<text x="{WIDTH - 16}" y="{mid_y:.1f}" text-anchor="middle" '
                   f'font-size="14" {_FONT} transform="rotate(90 '
                   f'{WIDTH - 16} {mid_y:.1f})">'
                   f'{_escape(_axis_title(cs.y2_axis))}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_lines(cs, out, x_px, y_px, y2_px) -> None:
    legend: list[str] = []  # drawn after all the data, series first
    xs = None
    lx = PLOT_L + 12
    for i, s in enumerate((*cs.series, *cs.overlays)):
        color = PALETTE[i % len(PALETTE)]
        to_y = y2_px if s.axis == "y2" else y_px
        ly = PLOT_T + 16 + 17 * i
        if i < len(cs.series):  # a series is a line, an overlay dots
            if s.xs is not xs:  # series that share their x samples map them once
                xs = s.xs
                x_strs = [f"{x:.2f}" for x in x_px(xs)]
            pts = _drawable(" ".join([f"{x},{y:.2f}" for x, y in zip(x_strs, to_y(s.ys))]),
                            s.name)
            out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
                       f'clip-path="url(#plot)" points="{pts}"/>')
            legend.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                          f'stroke="{color}" stroke-width="2.5"/>')
        else:
            dots = [f'cx="{x:.2f}" cy="{y:.2f}"' for x, y in zip(x_px(s.xs), to_y(s.ys))]
            _drawable("".join(dots), s.name)
            out += [f'<circle {xy} r="3.5" fill="{color}" stroke="#000000" '
                    f'stroke-width="0.6" clip-path="url(#plot)"/>' for xy in dots]
            legend.append(f'<circle cx="{lx + 11}" cy="{ly - 4}" r="3.5" '
                          f'fill="{color}" stroke="#000000" stroke-width="0.6"/>')
        legend.append(f'<text x="{lx + 28}" y="{ly}" font-size="12" {_FONT}>'
                      f'{_escape(s.name)}</text>')
    out.extend(legend)


def _rgb(ts: Iterable[float]) -> bytes:
    """Packed RGB of the gradient through ``_STOPS`` at each t, clamped to [0, 1]."""
    channels: list[int] = []
    for t in ts:
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        lo, hi, u = (*_STOPS[:2], t * 2.0) if t <= 0.5 else (*_STOPS[1:], (t - 0.5) * 2.0)
        channels += [round(a + (b - a) * u) for a, b in zip(lo, hi)]
    return bytes(channels)


def _colour_steps() -> tuple[tuple[float, ...], tuple[bytes, ...]]:
    """The rising t at which ``_rgb``'s colour changes, with the colour below the
    first and from each on: ``colours[bisect_right(steps, t)]`` is ``_rgb([t])``."""
    global _COLOUR_TABLE
    if _COLOUR_TABLE is not None:
        return _COLOUR_TABLE
    steps = []
    for half, (lo, hi) in enumerate(zip(_STOPS, _STOPS[1:])):
        for a, b in zip(lo, hi):
            # a + (b - a)*u rounds past k once it crosses k + 1/2: step from there
            # to the first float past k by _rgb's own expression for the channel
            def past(t: float) -> bool:
                return (round(a + (b - a) * ((t - 0.5 * half) * 2.0)) > k) == (b > a)
            for k in range(min(a, b), max(a, b)):
                t = ((k + 0.5 - a) / (b - a) + half) / 2.0
                while past(t):
                    t = math.nextafter(t, -math.inf)
                while not past(t):
                    t = math.nextafter(t, math.inf)
                steps.append(t)
    steps.sort()
    n = len(steps)
    packed = _rgb([0.0, *steps, *(math.nextafter(t, 0.0) for t in steps)])
    colours = [packed[i:i + 3] for i in range(0, len(packed), 3)]
    # all sum |b - a| steps are found if each changes the colour and none coincide
    if len(set(steps)) < n or any(map(bytes.__eq__, colours[1:n + 1], colours[n + 1:])):
        raise RuntimeError("the gradient's colour steps disagree with _rgb")
    _COLOUR_TABLE = tuple(steps), tuple(colours[:n + 1])
    return _COLOUR_TABLE


def _png_href(rows: list[bytes], width: int) -> str:
    """``data:`` URI of an 8-bit RGB PNG from top-to-bottom packed RGB rows."""
    import binascii
    import struct
    import zlib

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", binascii.crc32(tag + data)))

    header = struct.pack(">IIBBBBB", width, len(rows), 8, 2, 0, 0, 0)
    scanlines = b"".join(b"\x00" + row for row in rows)  # filter type 0: none
    png = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
           + chunk(b"IDAT", zlib.compress(scanlines, 9)) + chunk(b"IEND", b""))
    return "data:image/png;base64," + binascii.b2a_base64(png, newline=False).decode()


def _outer_edges(centers: Sequence[float], axis: str) -> tuple[float, float]:
    """Outer cell boundaries, half a log-space step beyond the end centres;
    ValueError, naming ``axis``, if one is past the range of a positive float."""
    a, b, y, z = (math.log10(c) for c in centers[:2] + centers[-2:])
    try:
        lo, hi = 10.0 ** (a - (b - a) / 2.0), 10.0 ** (z + (z - y) / 2.0)
        if lo > 0.0:
            return lo, hi
    except OverflowError:
        pass
    raise ValueError(f"heat map {axis} cells reach past the float range")


def _render_heatmap(cs, out, x_px, y_px) -> None:
    # Rows are series tagged with a `level` (the y coordinate), rising, over
    # one x column; their ys are the mapped quantity.  Color scale is log10 of it.
    rows = cs.series
    vmin = math.log10(min(min(s.ys) for s in rows))
    vmax = math.log10(max(max(s.ys) for s in rows))
    span = (vmax - vmin) or 1.0

    # One pixel per cell, stretched over the outer cell edges and clipped to
    # the plot; the grid is log-uniform, so the cells keep their geometry.
    steps, colours = _colour_steps()
    pixels = [b"".join([colours[bisect_right(steps, (math.log10(v) - vmin) / span)]
                        for v in s.ys]) for s in reversed(rows)]
    x0, x1 = x_px(_outer_edges(rows[0].xs, "x"))
    y1, y0 = y_px(_outer_edges([s.level for s in rows], "y"))
    out.append(f'<image xmlns:xlink="http://www.w3.org/1999/xlink" '
               f'x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
               f'height="{y1 - y0:.2f}" preserveAspectRatio="none" '
               f'image-rendering="optimizeSpeed" clip-path="url(#plot)" '
               f'xlink:href="{_png_href(pixels, len(rows[0].xs))}"/>')

    # Measured markers: each overlay's points sit at the level it carries.
    # They have no clip path, so a marker outside either axis is left out;
    # report.fig1_surface names each such record in its warnings.
    for ov in cs.overlays:
        if cs.y_axis.holds(ov.level):  # log10 of a level off the axis may raise
            [cy] = y_px([ov.level])
            for cx in x_px([n for n in ov.xs if cs.x_axis.holds(n)]):
                out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" '
                           f'r="4" fill="#ffffff" stroke="#000000" stroke-width="1.2"/>')

    # Color bar with end labels.
    bar_x = PLOT_R + 18
    bar_t, bar_b = PLOT_T + 10, PLOT_B - 10
    bands = 24
    fills = _rgb([i / bands for i in range(bands)])
    for i in range(bands):
        y0 = bar_b - (bar_b - bar_t) * (i + 1) / bands
        h = (bar_b - bar_t) / bands
        out.append(f'<rect x="{bar_x}" y="{y0:.2f}" width="12" '
                   f'height="{h + 0.5:.2f}" fill="#{fills[3 * i:3 * i + 3].hex()}"/>')
    out.append(f'<text x="{bar_x + 16}" y="{bar_b + 4:.2f}" font-size="11" '
               f'{_FONT}>{10.0 ** vmin:.2g}</text>')
    out.append(f'<text x="{bar_x + 16}" y="{bar_t + 4:.2f}" font-size="11" '
               f'{_FONT}>{10.0 ** vmax:.2g}</text>')
