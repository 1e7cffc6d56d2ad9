"""The figure CSV emitter as it stood before it shared one repr per x value
across series: the oracle of the differential test of
:func:`parascale.report.emit_csv`.

``emit_csv`` is kept as it was, reading each series' rows as
``zip(s.xs, s.ys)``: every x and y goes through ``repr(float(v))`` on every
row.  It quotes each name with its own code rather than ``csv.writer``'s,
which leaves a ``\\r`` bare, as ``reference_ingest.record_cells`` does.
"""

from __future__ import annotations

import io


def emit_csv(cs, sink: io.TextIOBase) -> None:
    """Write every series and overlay point as ``series,x,y`` rows.

    Values use the shortest representation that parses back to the same
    float, so the output is lossless and measured inputs appear verbatim.
    A name is quoted as RFC 4180 says: only a name holding a comma, a quote
    or a line break, its quotes doubled.
    """
    sink.write("series,x,y\n")
    for s in (*cs.series, *cs.overlays):
        name = s.name
        if set(name) & set(',"\r\n'):
            name = '"' + name.replace('"', '""') + '"'
        sink.write("".join([f"{name},{float(x)!r},{float(y)!r}\n"
                            for x, y in zip(s.xs, s.ys)]))
