"""Parsing and derivation for benchmark measurement datasets.

The input format is CSV with a header row::

    machine,date,benchmark,rpeak_flops,rmax_flops,cores

Dates are fractional years (a June list edition is year.0, a November
edition year.5).  The performance columns accept a unit suffix in the
header (``rmax_pflops``, ``rpeak_eflops``, ...), so files can keep values
in the units their source published; everything is converted to flop/s on
parse.  ``rpeak_flops``, ``rmax_flops`` and ``cores`` cells may be empty.
Comment lines start with ``#``.  Scientific notation is accepted.

Parsing never prints: recoverable problems come back as warning strings for
the caller to present, irrecoverable rows raise :class:`ParseError` with
the line and column.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources
from typing import IO, Iterable

from .model import alpha_from_measurement
from .units import PREFIX_EXP

BENCHMARKS = ("HPL", "HPCG")

_HEADER_FIELDS = ("machine", "date", "benchmark", "rpeak", "rmax", "cores")


class ParseError(ValueError):
    """A row that cannot be interpreted; carries its location."""

    def __init__(self, line: int, column: str, reason: str):
        super().__init__(f"line {line}, column {column!r}: {reason}")
        self.line = line
        self.column = column


class PayloadExceedsPeak(ValueError):
    """A record whose r_max is above its r_peak, which no machine delivers."""


@dataclass(frozen=True)
class MachineRecord:
    """One benchmark measurement row."""

    machine: str
    date: float
    benchmark: str
    r_peak: float | None = None
    r_max: float | None = None
    cores: int | None = None

    def __post_init__(self) -> None:
        if self.benchmark not in BENCHMARKS:
            raise ValueError(f"unknown benchmark tag {self.benchmark!r}")
        if not 1990.0 <= self.date <= 2100.0:
            raise ValueError(f"date {self.date} outside [1990, 2100]")
        if self.cores is not None and self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if (self.r_peak is not None and self.r_max is not None
                and self.r_max > self.r_peak):
            raise PayloadExceedsPeak(
                f"r_max {self.r_max:.6g} exceeds r_peak {self.r_peak:.6g}")


@dataclass(frozen=True)
class DerivedRecord:
    """A measurement with efficiency and serial fraction attached.

    ``efficiency`` is present whenever both performance values are;
    ``nonparallel`` additionally needs the core count (the inversion is
    degenerate below two PUs).
    """

    record: MachineRecord
    efficiency: float | None
    nonparallel: float | None


@dataclass(frozen=True)
class TimelineEntry:
    """Chronological payload-performance history of one machine."""

    machine: str
    points: tuple[tuple[float, float], ...]   # (date, r_max)
    ratios: tuple[float, ...]                 # successive r_max ratios


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


def parse_records(source: IO[str] | str) -> tuple[list[MachineRecord], list[str]]:
    """Parse a measurement CSV into records plus collected warnings.

    Rows whose payload exceeds their nominal performance are physically
    impossible; they are skipped with a warning and parsing continues.
    Everything else malformed raises :class:`ParseError`.  An empty file
    yields an empty list.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
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


def _non_comment_rows(source: IO[str]) -> Iterable[tuple[int, list[str]]]:
    """Yield (file line number, row) skipping comments and blank lines."""
    reader = csv.reader(source)
    for raw in reader:
        if raw and raw[0].lstrip().startswith("#"):
            continue
        if not raw or all(not c.strip() for c in raw):
            continue
        yield reader.line_num, raw


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


def serialize_records(records: Iterable[MachineRecord], sink: IO[str]) -> None:
    """Write records in the canonical flop/s schema; inverse of parse."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["machine", "date", "benchmark",
                     "rpeak_flops", "rmax_flops", "cores"])
    for r in records:
        writer.writerow([
            r.machine,
            repr(r.date),
            r.benchmark,
            "" if r.r_peak is None else repr(r.r_peak),
            "" if r.r_max is None else repr(r.r_max),
            "" if r.cores is None else str(r.cores),
        ])


def derive(records: Iterable[MachineRecord]) -> list[DerivedRecord]:
    """Attach efficiency and serial fraction where computable.

    Never drops or fails on a record: missing inputs simply leave the
    derived fields empty.
    """
    out: list[DerivedRecord] = []
    for r in records:
        eff = None
        nonparallel = None
        if r.r_peak is not None and r.r_max is not None:
            eff = r.r_max / r.r_peak
            if r.cores is not None and r.cores >= 2:
                nonparallel = alpha_from_measurement(r.cores, eff)
        out.append(DerivedRecord(record=r, efficiency=eff, nonparallel=nonparallel))
    return out


def timeline(records: Iterable[MachineRecord], machine: str) -> TimelineEntry:
    """Chronological r_max history of one machine with improvement ratios."""
    mine = [r for r in records if r.machine == machine and r.r_max is not None]
    if not mine:
        raise ValueError(f"no records for machine {machine!r}")
    mine.sort(key=lambda r: r.date)
    points = tuple((r.date, r.r_max) for r in mine)
    ratios = tuple(b[1] / a[1] for a, b in zip(points, points[1:]))
    return TimelineEntry(machine=machine, points=points, ratios=ratios)


def machine_names(records: Iterable[MachineRecord]) -> list[str]:
    """Machine names in first-appearance order."""
    seen: dict[str, None] = {}
    for r in records:
        seen.setdefault(r.machine, None)
    return list(seen)


def load_meta(source: IO[str] | str) -> dict[str, dict[str, float]]:
    """Load the machine metadata table (machine, cores, rpeak_flops).

    This is the externally sourced join data kept apart from measurement
    files so the measured values stay auditable on their own.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    meta: dict[str, dict[str, float]] = {}
    header: list[str] | None = None
    for line, row in _non_comment_rows(source):
        if header is None:
            header = [c.strip().lower() for c in row]
            if header != ["machine", "cores", "rpeak_flops"]:
                raise ParseError(line, ",".join(row), "bad metadata header")
            continue
        if len(row) != 3:
            raise ParseError(line, "*", f"expected 3 cells, got {len(row)}")
        cores = _parse_cores(row[1].strip(), line)
        r_peak = _parse_perf(row[2].strip(), 1.0, line, "rpeak_flops")
        if cores is None or r_peak is None:
            raise ParseError(line, "*", "metadata cells must not be empty")
        meta[row[0].strip()] = {"cores": float(cores), "rpeak_flops": r_peak}
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
        if m is None:
            out.append(r)
            continue
        try:
            out.append(MachineRecord(
                machine=r.machine,
                date=r.date,
                benchmark=r.benchmark,
                r_peak=r.r_peak if r.r_peak is not None else m["rpeak_flops"],
                r_max=r.r_max,
                cores=r.cores if r.cores is not None else int(m["cores"]),
            ))
        except PayloadExceedsPeak as exc:
            raise PayloadExceedsPeak(
                f"{r.machine}: {exc} (r_peak from machines_meta.csv)") from None
    return out


def load_records(data_path: str | None,
                 bundled_name: str) -> tuple[list[MachineRecord], list[str]]:
    """Parse the measurement CSV at ``data_path``, or the named bundled one."""
    if data_path is None:
        return load_bundled(bundled_name)
    with open(data_path, "r", encoding="utf-8") as fh:
        return parse_records(fh)


def bundled_path(name: str):
    """Path to a dataset shipped with the package (context-manager free)."""
    return resources.files("parascale.data").joinpath(name)


def load_bundled(name: str) -> tuple[list[MachineRecord], list[str]]:
    """Parse one of the shipped measurement datasets."""
    with bundled_path(name).open("r", encoding="utf-8") as fh:
        return parse_records(fh)


def load_bundled_meta() -> dict[str, dict[str, float]]:
    with bundled_path("machines_meta.csv").open("r", encoding="utf-8") as fh:
        return load_meta(fh)
