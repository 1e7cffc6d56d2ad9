"""The measurement parser as it stood before header columns were resolved to
indexes once per file: the oracle of the differential CSV fuzz.

``parse_records`` and its helpers are kept as they were, so the fuzz can
require the package's parser to return the same records and warnings, or
raise the same ``ParseError``, on every input whose header names no column
twice (the one input the package now rejects where this copy let the last
column win).

``serialize_records`` keeps the writer's per-field expression from before
records were handed to ``csv`` whole, and quotes each cell with its own
code rather than ``csv.writer``'s, which leaves a ``\\r`` bare, so a test can
require the package's writer to give the same bytes, or the same error.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable

from parascale.ingest import (_HEADER_FIELDS, MachineRecord, ParseError,
                              PayloadExceedsPeak)
from parascale.units import PREFIX_EXP


def _parse_header(row: list[str], line: int) -> tuple[list[str], dict[str, float]]:
    """Map header cells to canonical field names and unit scale factors."""
    fields: list[str] = []
    scales: dict[str, float] = {}
    for cell in row:
        name = cell.strip().lower()
        if name in ("machine", "date", "benchmark", "cores"):
            fields.append(name)
            continue
        for key in ("rpeak", "rmax"):
            if name.startswith(key + "_"):
                suffix = name[len(key) + 1:]
                prefix = (suffix[:-len("flops")].upper()
                          if suffix.endswith("flops") else None)
                if prefix not in PREFIX_EXP:
                    raise ParseError(line, cell, f"unknown unit suffix {suffix!r}")
                fields.append(key)
                scales[key] = 10.0 ** PREFIX_EXP[prefix]
                break
        else:
            raise ParseError(line, cell, "unrecognized header column")
    missing = [f for f in _HEADER_FIELDS if f not in fields]
    if missing:
        raise ParseError(line, ",".join(missing), "missing header columns")
    return fields, scales


def parse_records(source: io.TextIOBase | str
                  ) -> tuple[list[MachineRecord], list[str]]:
    """Parse a measurement CSV into records plus collected warnings.

    Rows whose payload exceeds their nominal performance are physically
    impossible; they are skipped with a warning and parsing continues.
    Everything else malformed raises :class:`ParseError`.  An empty file
    yields an empty list.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline="")
    records: list[MachineRecord] = []
    warnings: list[str] = []
    fields: list[str] | None = None
    scales: dict[str, float] = {}
    for line, row in _non_comment_rows(source):
        if fields is None:
            fields, scales = _parse_header(row, line)
            continue
        if len(row) != len(fields):
            raise ParseError(line, "*", f"expected {len(fields)} cells, got {len(row)}")
        cells = dict(zip(fields, (c.strip() for c in row)))
        try:
            r_peak = _parse_perf(cells["rpeak"], scales.get("rpeak", 1.0), line, "rpeak")
            r_max = _parse_perf(cells["rmax"], scales.get("rmax", 1.0), line, "rmax")
            record = MachineRecord(
                machine=cells["machine"],
                date=_parse_float(cells["date"], line, "date"),
                benchmark=cells["benchmark"],
                r_peak=r_peak,
                r_max=r_max,
                cores=_parse_cores(cells["cores"], line),
            )
        except PayloadExceedsPeak as exc:
            warnings.append(f"line {line}: rejected {cells['machine']!r}: {exc}")
            continue
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(line, "*", str(exc)) from None
        records.append(record)
    return records, warnings


def _non_comment_rows(source: io.TextIOBase) -> Iterable[tuple[int, list[str]]]:
    """Yield (file line number, row) skipping comments and blank lines."""
    reader = csv.reader(source)
    try:
        for raw in reader:
            if raw and raw[0].lstrip().startswith("#"):
                continue
            if not raw or all(not c.strip() for c in raw):
                continue
            yield reader.line_num, raw
    except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
        raise ParseError(reader.line_num, "*", str(exc)) from None


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(line, column, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, column, f"not a finite number: {text!r}")
    return value


def _parse_perf(text: str, scale: float, line: int, column: str) -> float | None:
    if text == "":
        return None
    value = _parse_float(text, line, column) * scale
    if not 0 < value < math.inf:  # the scale can overflow a finite cell
        raise ParseError(line, column,
                         f"performance must be > 0 and finite, got {text!r}")
    return value


def _parse_cores(text: str, line: int) -> int | None:
    if text == "":
        return None
    value = _parse_float(text, line, "cores")
    if not value.is_integer():
        raise ParseError(line, "cores", f"not a whole count: {text!r}")
    return int(value)


def record_cells(r: MachineRecord) -> list[str]:
    """A record's six cells as written, each quoted as RFC 4180 says: only a
    cell holding a comma, a quote or a line break, its quotes doubled."""
    cells = [r.machine, repr(r.date), r.benchmark,
             "" if r.r_peak is None else repr(r.r_peak),
             "" if r.r_max is None else repr(r.r_max),
             "" if r.cores is None else str(r.cores)]
    return ['"' + c.replace('"', '""') + '"' if set(c) & set(',"\r\n') else c
            for c in cells]


def serialize_records(records: Iterable[MachineRecord],
                      sink: io.TextIOBase) -> None:
    """Write records in the canonical flop/s schema; inverse of parse.

    Refuses, before writing anything, the first name in record order that
    the parser would not read back as written.
    """
    records = list(records)
    for r in records:
        if r.machine.strip() != r.machine:
            raise ValueError(f"machine {r.machine!r}: parse would strip its "
                             "leading or trailing whitespace")
        if r.machine.startswith("#"):
            raise ValueError(f"machine {r.machine!r}: parse would skip its "
                             "line as a comment")
    sink.write("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n")
    for r in records:
        sink.write(",".join(record_cells(r)) + "\n")
