"""Parsing and derivation for benchmark measurement datasets.

The input format is CSV with a header row::

    machine,date,benchmark,rpeak_flops,rmax_flops,cores

Dates are fractional years (a June list edition is year.0, a November
edition year.5).  The performance columns accept a unit suffix in the
header (``rmax_pflops``, ``rpeak_eflops``, ...), so files can keep values
in the units their source published; everything is converted to flop/s on
parse.  The columns may come in any order, each once.  ``rpeak_flops``,
``rmax_flops`` and ``cores`` cells may be empty.
Comment lines start with ``#``.  Scientific notation is accepted.

Parsing never prints: recoverable problems come back as warning strings for
the caller to present, irrecoverable rows raise :class:`ParseError` with
the line and column.
"""

from __future__ import annotations

import io
import itertools
import math
import os
# the objects ``csv`` itself re-exports from its C module, so nothing of
# csv's Python layer (and with it ``re`` and ``enum``) loads
from _csv import Error as CsvError, reader as csv_reader
from _collections_abc import Iterable  # what collections.abc re-exports
from _operator import itemgetter  # what operator re-exports

from .model import Record, alpha_from_measurement, require_efficiency
from .units import PREFIX_EXP

BENCHMARKS = ("HPL", "HPCG")
_TAGS = {tag: tag for tag in BENCHMARKS}  # a tag cell to the str BENCHMARKS holds

_HEADER_FIELDS = ("machine", "date", "benchmark", "rpeak", "rmax", "cores")
#: the characters that make a CSV cell need quotes
_QUOTED = ',"\n\r'


class ParseError(ValueError):
    """A row that cannot be interpreted; carries its location."""

    def __init__(self, line: int, column: str, reason: str):
        super().__init__(f"line {line}, column {column!r}: {reason}")
        self.line = line
        self.column = column


class PayloadExceedsPeak(ValueError):
    """A record whose r_max is above its r_peak, which no machine delivers."""


class MachineRecord(Record, fields="machine date benchmark r_peak r_max cores"):
    """One benchmark measurement row; r_peak, r_max and cores may be None.
    Where present, r_peak and r_max are in (0, inf) and cores is a whole count;
    each number is an int or float (no bool) equal to its float."""

    def __new__(cls, machine: str, date: float, benchmark: str,
                r_peak: float | None = None, r_max: float | None = None,
                cores: int | None = None):
        if benchmark not in BENCHMARKS:
            raise ValueError(f"unknown benchmark tag {benchmark!r}")
        if not 1990.0 <= date <= 2100.0:
            raise ValueError(f"date {date} outside [1990, 2100]")
        if cores is not None:
            if cores < 1:
                raise ValueError(f"cores must be >= 1, got {cores}")
            if cores % 1:
                raise ValueError(f"cores must be a whole count, got {cores!r}")
        if r_peak is not None and not 0.0 < r_peak < math.inf:
            raise ValueError(f"r_peak must be > 0 and finite, got {r_peak}")
        if r_max is not None and not 0.0 < r_max < math.inf:
            raise ValueError(f"r_max must be > 0 and finite, got {r_max}")
        for name, value in (("date", date), ("r_peak", r_peak), ("r_max", r_max),
                            ("cores", cores)):
            try:  # what serialize_records writes of an exact int or float reads back
                exact = value is None or type(value) in (int, float) and float(value) == value
            except OverflowError:  # an int past the float range
                exact = False
            if not exact:
                raise ValueError(f"{name} must be an exact int or float, got {value!r}")
        if r_peak is not None and r_max is not None and r_max > r_peak:
            raise PayloadExceedsPeak(
                f"r_max {r_max:.6g} exceeds r_peak {r_peak:.6g}")
        return tuple.__new__(cls, (machine, date, benchmark, r_peak, r_max, cores))


class DerivedRecord(Record, fields="record efficiency nonparallel"):
    """A :class:`MachineRecord` with efficiency and serial fraction attached.

    ``efficiency`` is present, and checked to be in (0, 1], whenever both
    performance values are.  ``nonparallel``, the inverted serial fraction,
    also needs two or more cores (the inversion is degenerate below two
    PUs), so a one-core record keeps None.  Either may be None.
    """

    def __new__(cls, record: MachineRecord, efficiency: float | None,
                nonparallel: float | None):
        return tuple.__new__(cls, (record, efficiency, nonparallel))


class TimelineEntry(Record, fields="points ratios"):
    """A machine's (date, r_max) ``points`` in date order and their ``ratios``."""

    def __new__(cls, points: tuple[tuple[float, float], ...], ratios: tuple[float, ...]):
        return tuple.__new__(cls, (points, ratios))


def _parse_header(row: list[str], line: int) -> tuple[list[str], dict[str, float]]:
    """Map header cells to canonical field names and unit scale factors."""
    fields: list[str] = []
    scales: dict[str, float] = {}
    for cell in row:
        key, sep, suffix = cell.strip().lower().partition("_")
        if key in ("rpeak", "rmax") and sep:
            prefix = (suffix[:-len("flops")].upper()
                      if suffix.endswith("flops") else None)
            if prefix not in PREFIX_EXP:
                raise ParseError(line, cell, f"unknown unit suffix {suffix!r}")
            scales[key] = 10.0 ** PREFIX_EXP[prefix]
        elif sep or key not in ("machine", "date", "benchmark", "cores"):
            raise ParseError(line, cell, "unrecognized header column")
        if key in fields:
            raise ParseError(line, cell, "duplicate header column")
        fields.append(key)
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
    records: list[MachineRecord] = []
    warnings: list[str] = []
    rows = _non_comment_rows(source)
    first = next(rows, None)
    if first is None:
        return records, warnings
    fields, scales = _parse_header(first[1], first[0])
    # the header names each of the six columns once, so a row's cells are
    # read by index, in the order of _HEADER_FIELDS
    width = len(fields)
    pick = itemgetter(*map(fields.index, _HEADER_FIELDS))
    rpeak_scale, rmax_scale, inf = scales["rpeak"], scales["rmax"], math.inf
    dates: dict[str, float] = {}  # each date cell's float, shared by its rows
    for line, row in rows:
        if len(row) != width:
            raise ParseError(line, "*", f"expected {width} cells, got {len(row)}")
        machine, date, benchmark, rpeak, rmax, cores = pick(row)
        machine, tag = machine.strip(), _TAGS.get(benchmark)
        # a valid row's cells, read inline as the helpers read them (a cell
        # that float() takes has the value float() gives it once stripped)
        # and tested with MachineRecord's checks (a tag cell must be exactly a tag)
        try:
            r_peak = float(rpeak) * rpeak_scale if rpeak.strip() else None
            r_max = float(rmax) * rmax_scale if rmax.strip() else None
            if (when := dates.get(date)) is None:
                when = dates[date] = float(date)
            n = float(cores) if cores.strip() else None
            valid = ((r_peak is None or 0 < r_peak < inf)
                     and (r_max is None or 0 < r_max < inf
                          and (r_peak is None or r_max <= r_peak))
                     and 1990.0 <= when <= 2100.0 and tag is not None
                     and (n is None or n >= 1 and n.is_integer()))
        except ValueError:
            valid = False
        if valid:
            records.append(tuple.__new__(MachineRecord, (
                machine, when, tag, r_peak, r_max,
                None if n is None else int(n))))
            continue
        # rpeak, rmax, date, cores: the order in which errors are raised
        r_peak = _parse_perf(rpeak, rpeak_scale, line, "rpeak")
        r_max = _parse_perf(rmax, rmax_scale, line, "rmax")
        when = _parse_float(date, line, "date")
        n = _parse_cores(cores, line)
        try:  # MachineRecord words the error of a row its checks refuse
            records.append(MachineRecord(machine, when, benchmark.strip(),
                                         r_peak, r_max, n))
        except PayloadExceedsPeak as exc:
            warnings.append(f"line {line}: rejected {machine!r}: {exc}")
        except ValueError as exc:
            raise ParseError(line, "*", str(exc)) from None
    return records, warnings


def _non_comment_rows(source: Iterable[str] | str) -> Iterable[tuple[int, list[str]]]:
    """Yield (file line number, row) past a leading BOM, comments and blank lines."""
    lines = iter(io.StringIO(source, newline="") if isinstance(source, str) else source)
    first = next(lines, "").removeprefix("\ufeff")
    reader = csv_reader(itertools.chain((first,), lines))
    try:
        for raw in reader:
            head = raw[0].lstrip() if raw else ""
            # the cells are joined only for a row whose first cell is blank
            if head[:1] == "#" or not (head or "".join(raw).strip()):
                continue
            yield reader.line_num, raw
    except CsvError as exc:  # e.g. a cell beyond csv.field_size_limit()
        raise ParseError(reader.line_num, "*", str(exc)) from None


def _parse_float(text: str, line: int, column: str) -> float:
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        raise ParseError(line, column, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, column, f"not a finite number: {text!r}")
    return value


def _parse_perf(text: str, scale: float, line: int, column: str) -> float | None:
    text = text.strip()
    if text == "":
        return None
    value = _parse_float(text, line, column) * scale
    if not 0 < value < math.inf:  # the scale can overflow a finite cell
        raise ParseError(line, column,
                         f"performance must be > 0 and finite, got {text!r}")
    return value


def _parse_cores(text: str, line: int) -> int | None:
    text = text.strip()
    if text == "":
        return None
    value = _parse_float(text, line, "cores")
    if not value.is_integer():
        raise ParseError(line, "cores", f"not a whole count: {text!r}")
    return int(value)


def serialize_records(records: Iterable[MachineRecord],
                      sink: io.TextIOBase) -> None:
    """Write records in the canonical flop/s schema; inverse of parse.

    A float is written as its ``repr``, an int as its ``str`` and None as an
    empty cell.  A machine name is quoted, its ``"`` doubled, only when it
    holds ``,``, ``"``, ``\\n`` or ``\\r`` (RFC 4180).  A name that
    :func:`parse_records` would not read back raises ValueError naming it.
    """
    records = list(records)  # read twice: the names, then the lines
    quoted = _quoted_names(map(itemgetter(0), records))
    if quoted:
        records = [(quoted.get(r[0], r[0]), *r[1:]) for r in records]
    sink.write("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n")
    sink.writelines(
        f"{machine},{date!r},{benchmark},"
        f"{'' if r_peak is None else repr(r_peak)},"
        f"{'' if r_max is None else repr(r_max)},{'' if cores is None else cores}\n"
        for machine, date, benchmark, r_peak, r_max, cores in records)


def _quoted_names(names: Iterable[str]) -> dict[str, str]:
    """The cell of each name that needs quotes; ValueError for a name that
    parse would not read back.  Each distinct name is checked once."""
    distinct = dict.fromkeys(names)
    for name in distinct:
        if name != name.strip():
            raise ValueError(f"machine {name!r}: parse would strip its "
                             "leading or trailing whitespace")
        if name[:1] == "#":
            raise ValueError(f"machine {name!r}: parse would skip its line "
                             "as a comment")
    joined = "".join(distinct)
    if not any(c in joined for c in _QUOTED):
        return {}
    return {name: cell for name in distinct if (cell := csv_cell(name)) != name}


def csv_cell(text: str) -> str:
    """``text`` as a CSV cell: quoted, each ``"`` doubled, only when it holds
    ``,``, ``"``, ``\\n`` or ``\\r`` (RFC 4180)."""
    if any(c in text for c in _QUOTED):
        return '"' + text.replace('"', '""') + '"'
    return text


def derive(records: Iterable[MachineRecord]) -> list[DerivedRecord]:
    """Attach efficiency and serial fraction where computable.

    Never drops a record: missing inputs leave the derived fields empty.  A
    record whose efficiency underflows to 0 (whatever its core count), or
    whose serial fraction overflows, raises ValueError naming its machine,
    benchmark and date.
    """
    out: list[DerivedRecord] = []
    for r in records:
        eff = None
        nonparallel = None
        if r.r_peak is not None and r.r_max is not None:
            eff = r.r_max / r.r_peak
            try:  # each branch checks the efficiency once, whatever the core count
                if r.cores is not None and r.cores >= 2:
                    nonparallel = alpha_from_measurement(r.cores, eff)
                else:
                    require_efficiency(eff)
            except ValueError as exc:
                raise ValueError(f"{r.machine} ({r.benchmark}, {r.date!r}): "
                                 f"{exc}") from None
        out.append(tuple.__new__(DerivedRecord, (r, eff, nonparallel)))
    return out


def timeline(records: Iterable[MachineRecord], machine: str) -> TimelineEntry:
    """Chronological r_max history of one machine, on one benchmark, with ratios."""
    mine = [r for r in records if r.machine == machine]
    if not mine:
        raise ValueError(f"no records for machine {machine!r}")
    mine = [r for r in mine if r.r_max is not None]
    if not mine:
        raise ValueError(f"machine {machine!r} has no rmax value")
    tags = sorted({r.benchmark for r in mine})
    if len(tags) > 1:  # a ratio between two benchmarks is no improvement
        raise ValueError(f"machine {machine!r} mixes benchmarks {', '.join(tags)}")
    mine.sort(key=lambda r: r.date)
    points = tuple((r.date, r.r_max) for r in mine)
    for (a, _), (b, _) in zip(points, points[1:]):
        if a == b:  # two values in one list edition make no improvement ratio
            raise ValueError(f"machine {machine!r} has two rmax values on date {a!r}")
    ratios = tuple(b[1] / a[1] for a, b in zip(points, points[1:]))
    if math.inf in ratios:  # a sub-normal r_max before a normal one
        raise ValueError(f"r_max ratio of machine {machine!r} overflows")
    return TimelineEntry(points=points, ratios=ratios)


def machine_names(records: Iterable[MachineRecord]) -> list[str]:
    """Machine names in first-appearance order."""
    return list(dict.fromkeys(r.machine for r in records))


def load_meta(source: io.TextIOBase | str) -> dict[str, dict[str, float]]:
    """Load the machine metadata table: whole ``cores`` and ``rpeak_flops``.

    This is the externally sourced join data kept apart from measurement
    files so the measured values stay auditable on their own.
    """
    meta: dict[str, dict[str, float]] = {}
    rows = _non_comment_rows(source)
    first = next(rows, None)
    if first is None:
        return meta
    if [c.strip().lower() for c in first[1]] != ["machine", "cores", "rpeak_flops"]:
        raise ParseError(first[0], ",".join(first[1]), "bad metadata header")
    for line, row in rows:
        if len(row) != 3:
            raise ParseError(line, "*", f"expected 3 cells, got {len(row)}")
        machine = row[0].strip()
        if machine in meta:  # as with a header column, a name counts once
            raise ParseError(line, "machine", f"duplicate machine {machine!r}")
        cores = _parse_cores(row[1], line)
        r_peak = _parse_perf(row[2], 1.0, line, "rpeak_flops")
        if cores is None or r_peak is None:
            raise ParseError(line, "*", "metadata cells must not be empty")
        if cores < 1:
            raise ParseError(line, "cores", f"cores must be >= 1, got {cores}")
        meta[machine] = {"cores": cores, "rpeak_flops": r_peak}
    return meta


def join_meta(records: Iterable[MachineRecord],
              meta: dict[str, dict[str, float]]) -> list[MachineRecord]:
    """Fill missing cores / r_peak from the metadata table, by machine name.

    Values already present in a record are never overwritten; the metadata
    is a single-edition snapshot and the measurement wins.  A record whose
    r_max exceeds the r_peak filled in from ``machines_meta.csv`` raises
    :class:`PayloadExceedsPeak` naming the machine.
    """
    out: list[MachineRecord] = []
    for r in records:
        m = meta.get(r.machine)
        if m is None or (r.r_peak is not None and r.cores is not None):
            out.append(r)  # nothing to fill
            continue
        try:
            out.append(MachineRecord(
                r.machine, r.date, r.benchmark,
                r.r_peak if r.r_peak is not None else m["rpeak_flops"], r.r_max,
                r.cores if r.cores is not None else m["cores"]))
        except PayloadExceedsPeak as exc:
            raise PayloadExceedsPeak(
                f"{r.machine}: {exc} (r_peak from machines_meta.csv)") from None
    return out


def _read(path: str, parse):
    """``parse`` of the file at ``path``, opened as the csv module needs it and
    as a ``str`` is read: ``\\n``, ``\\r\\n`` and a bare ``\\r`` end a line."""
    with open(path, encoding="utf-8", newline="") as fh:
        return parse(fh)


def load_records(data_path: str | None,
                 bundled_name: str) -> tuple[list[MachineRecord], list[str]]:
    """Parse the measurement CSV at ``data_path``, or the named bundled one."""
    if data_path is None:
        return load_bundled(bundled_name)
    return _read(data_path, parse_records)


def bundled_path(name: str) -> str:
    """Path of a dataset in the package's ``data`` folder, shipped as plain
    files; ``os.path`` keeps ``importlib.resources`` and ``pathlib`` out of
    every command's start-up."""
    return os.path.join(os.path.dirname(__file__), "data", name)


def load_bundled(name: str) -> tuple[list[MachineRecord], list[str]]:
    """Parse one of the shipped measurement datasets."""
    return _read(bundled_path(name), parse_records)


def load_bundled_meta() -> dict[str, dict[str, float]]:
    return _read(bundled_path("machines_meta.csv"), load_meta)
