"""Hypothesis strategies for CSV fuzzing: free text, and the bundled datasets
with a few lines or cells mutated.

Free text mostly fails at the header; the mutated files keep a valid header
often enough to reach the row checks, the unit scales, the column order and
the metadata join.
"""

from hypothesis import strategies as st

from parascale import ingest

MEASUREMENT_FILES = ("fig3_timeline.csv", "fig4_points.csv")
META_FILE = "machines_meta.csv"


def _lines(name):
    with open(ingest.bundled_path(name), encoding="utf-8") as fh:
        return fh.read().splitlines()


_BUNDLED = {name: _lines(name) for name in (*MEASUREMENT_FILES, META_FILE)}

#: Cells aimed at the edges of the checks: empty and blank cells, non-finite
#: and out-of-range numbers, values whose unit scale overflows or underflows,
#: comment and quote characters, and header names (units, repeats, typos).
_EDGE_CELLS = st.sampled_from([
    "", " ", "  #", "#", '"', '"a,b"', "inf", "-inf", "nan", "0", "-1", "1.5",
    "2.5e6", "1e308", "1e-320", "5e-324", "1990", "2100.5", "1402.0", "HPL",
    "HPCG", "STREAM", "machine", "date", "benchmark", "cores", " Cores ",
    "rpeak_flops", "rmax_flops", "rpeak_pflops", "RMAX_EFLOPS", "rmax_zflops",
    "rpeak", "sockets",
])
_CELLS = st.one_of(_EDGE_CELLS, st.text(max_size=12),
                   st.floats().map(repr))


@st.composite
def mutated_file(draw, names=MEASUREMENT_FILES):
    """One bundled file with 1 to 3 mutations, each to one line."""
    lines = list(_BUNDLED[draw(st.sampled_from(names))])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(
            ["cells", "cells", "swap", "line", "insert", "delete", "splice",
             "permute"]))
        if how == "cells":  # up to three cells of one line
            cells = lines[i].split(",")
            for _ in range(draw(st.integers(1, 3))):
                cells[draw(st.integers(0, len(cells) - 1))] = draw(_CELLS)
            lines[i] = ",".join(cells)
        elif how == "swap":  # two cells of one line, e.g. rpeak and rmax
            cells = lines[i].split(",")
            a, b = (draw(st.integers(0, len(cells) - 1)) for _ in "ab")
            cells[a], cells[b] = cells[b], cells[a]
            lines[i] = ",".join(cells)
        elif how == "line":
            lines[i] = draw(st.text())
        elif how == "insert":
            lines.insert(i, draw(st.text()))
        elif how == "delete" and len(lines) > 1:
            del lines[i]
        elif how == "splice":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.text(max_size=5)) + lines[i][at:]
        elif how == "permute":  # the same column order on every line that fits
            width = lines[i].count(",") + 1
            order = draw(st.permutations(range(width)))
            lines = [",".join(line.split(",")[k] for k in order)
                     if line.count(",") + 1 == width else line
                     for line in lines]
    return "\n".join(lines) + "\n"


def csv_text(names=MEASUREMENT_FILES):
    """Free text or a mutated bundled file."""
    return st.one_of(st.text(), mutated_file(names))
