"""The figure CSV emitter as it stood before it shared one repr per x value
across series: the oracle of the differential test of
:func:`parascale.report.emit_csv`.

``emit_csv`` is kept as it was, reading each series' rows as
``zip(s.xs, s.ys)``: every x and y goes through ``repr(float(v))`` on every
row.
"""

from __future__ import annotations

import csv
import io


def emit_csv(cs, sink: io.TextIOBase) -> None:
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
        sink.write("".join([f"{prefix}{float(x)!r},{float(y)!r}\n"
                            for x, y in zip(s.xs, s.ys)]))
