"""Measurement parsing, derivation, timelines and the bundled datasets."""

import csv
import io
from fractions import Fraction

import pytest
import reference_ingest
from csv_fuzz import META_FILE, csv_text
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parascale import ingest
from parascale.ingest import (MachineRecord, ParseError, derive, join_meta,
                              load_meta, machine_names, parse_records,
                              serialize_records, timeline)

HEADER = "machine,date,benchmark,rpeak_flops,rmax_flops,cores\n"
EFLOPS_HEADER = HEADER.replace("rpeak_flops", "rpeak_eflops")


def parse(text):
    return parse_records(io.StringIO(text))


class TestParse:
    def test_fully_populated_row(self):
        records, warnings = parse(
            HEADER + "Summit,2019.0,HPL,200.79e15,148.6e15,2414592\n")
        assert warnings == []
        (r,) = records
        assert r.machine == "Summit"
        assert r.date == 2019.0
        assert r.benchmark == "HPL"
        assert r.r_peak == 200.79e15
        assert r.r_max == 148.6e15
        assert r.cores == 2_414_592

    def test_empty_file(self):
        assert parse("") == ([], [])
        assert parse(HEADER) == ([], [])

    def test_comments_and_blank_lines_skipped(self):
        records, warnings = parse(
            "# provenance note\n\n" + HEADER +
            "# mid-file comment\nA,2000.0,HPCG,10e12,1e12,\n")
        assert warnings == []
        assert records[0].machine == "A"
        assert records[0].cores is None

    def test_row_order_preserved(self):
        records, _ = parse(HEADER +
                           "B,2001.0,HPL,2e12,1e12,\n"
                           "A,2000.0,HPL,2e12,1e12,\n")
        assert [r.machine for r in records] == ["B", "A"]

    def test_empty_performance_cells(self):
        records, _ = parse(HEADER + "A,2000.0,HPL,,1e12,\n")
        assert records[0].r_peak is None
        assert records[0].r_max == 1e12

    def test_unit_suffix_headers(self):
        records, _ = parse(
            "machine,date,benchmark,rpeak_pflops,rmax_pflops,cores\n"
            "A,2000.0,HPL,2.0,1.5,\n")
        assert records[0].r_peak == pytest.approx(2e15, rel=1e-12)
        assert records[0].r_max == pytest.approx(1.5e15, rel=1e-12)

    def test_rmax_above_rpeak_rejected_with_warning(self):
        records, warnings = parse(HEADER +
                                  "Bad,2000.0,HPL,1e12,2e12,\n"
                                  "Good,2000.0,HPL,2e12,1e12,\n")
        assert [r.machine for r in records] == ["Good"]
        assert len(warnings) == 1
        assert "Bad" in warnings[0] and "line 2" in warnings[0]

    def test_malformed_number_reports_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse(HEADER + "A,2000.0,HPL,oops,1e12,\n")
        assert exc.value.line == 2
        assert exc.value.column == "rpeak"

    def test_wrong_cell_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse(HEADER + "A,2000.0,HPL,1e12\n")

    def test_unknown_benchmark_tag(self):
        with pytest.raises(ParseError, match="benchmark"):
            parse(HEADER + "A,2000.0,STREAM,2e12,1e12,\n")

    def test_date_out_of_range(self):
        with pytest.raises(ParseError):
            parse(HEADER + "A,1402.0,HPL,2e12,1e12,\n")

    def test_records_share_their_tag_and_date_cells(self):
        records, _ = parse(HEADER + "A,2018.5,HPL,2e12,1e12,8\n"
                                    "B,2018.5,HPCG,,1e12,\n"
                                    "C,2019.0,HPL,2e12,1e12,\n"
                                    "D,2018.5,HPCG,2e12,1e12,4\n")
        # each tag is the one string in BENCHMARKS, not a copy of the cell
        hpl, hpcg = ingest.BENCHMARKS
        assert [r.benchmark for r in records] == [hpl, hpcg, hpl, hpcg]
        assert all(r.benchmark is tag for r, tag in zip(records, [hpl, hpcg, hpl, hpcg]))
        a, b, c, d = (r.date for r in records)
        assert a is b is d and a == 2018.5 and c == 2019.0

    @pytest.mark.parametrize("cell", [" HPL ", "HPL\t", "hpl", "STREAM", ""])
    def test_a_tag_cell_not_exactly_a_tag(self, cell):
        # a padded tag takes the checked path and is stripped, as it was
        # before the fast path shared the tags; any other cell is refused
        text = HEADER + f"A,2000.0,{cell},2e12,1e12,8\n"
        outcome = _outcome(parse_records, text)
        assert outcome == _outcome(reference_ingest.parse_records, text)
        if cell.strip() == "HPL":
            assert outcome[1][0][0].benchmark == "HPL"
        else:
            assert outcome[3] == f"line 2, column '*': unknown benchmark tag {cell!r}"

    def test_unknown_header_column(self):
        with pytest.raises(ParseError):
            parse("machine,date,benchmark,rpeak_flops,rmax_flops,sockets\n")

    @pytest.mark.parametrize("text,column", [
        ("machine,date,benchmark,rpeak_pflops,rmax_flops,cores,rpeak_flops\n"
         "A,2000.0,HPL,1,1e12,,2e12\n", "rpeak_flops"),
        ("machine,date,Machine,benchmark,rpeak_flops,rmax_flops,cores\n"
         "A,2000.0,B,HPL,2e12,1e12,\n", "Machine"),
    ])
    def test_duplicate_header_column(self, text, column):
        # the reference parser lets the last repeated column win
        assert len(reference_ingest.parse_records(text)[0]) == 1
        with pytest.raises(ParseError, match="duplicate header column") as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (1, column)

    def test_unknown_unit_suffix(self):
        with pytest.raises(ParseError, match="unit suffix"):
            parse("machine,date,benchmark,rpeak_zflops,rmax_flops,cores\n")

    @pytest.mark.parametrize("column,row", [
        ("rpeak", "A,2000.0,HPL,inf,1e12,\n"),
        ("rpeak", "A,2000.0,HPL,nan,1e12,\n"),
        ("rmax", "A,2000.0,HPL,2e12,-inf,\n"),
        ("cores", "A,2000.0,HPL,2e12,1e12,1.7\n"),
        ("cores", "A,2000.0,HPL,2e12,1e12,inf\n"),
        ("cores", "A,2000.0,HPL,2e12,1e12,nan\n"),
    ])
    def test_bad_cell_reports_line_and_column(self, column, row):
        with pytest.raises(ParseError) as exc:
            parse(HEADER + row)
        assert (exc.value.line, exc.value.column) == (2, column)

    def test_scaled_overflow_rejected(self):
        with pytest.raises(ParseError, match="finite"):
            parse("machine,date,benchmark,rpeak_eflops,rmax_flops,cores\n"
                  "A,2000.0,HPL,1e300,1e12,\n")

    def test_whole_float_core_count_accepted(self):
        (r,), _ = parse(HEADER + "A,2000.0,HPL,2e12,1e12,2.414592e6\n")
        assert r.cores == 2_414_592

    def test_error_of_a_refused_row_chains_no_exception(self):
        # the cores cell fails float(); the rpeak error raised for the row
        # carries no context from that failure
        with pytest.raises(ParseError, match="must be > 0") as exc:
            parse(HEADER + "A,2000.0,HPL,-1,1e12,x\n")
        assert exc.value.__context__ is None

    def test_exceedance_has_its_own_exception(self):
        with pytest.raises(ingest.PayloadExceedsPeak):
            MachineRecord("Bad", 2000.0, "HPL", r_peak=1e12, r_max=2e12)
        _, warnings = parse(HEADER + "Bad,2000.0,HPL,1e12,2e12,\n")
        assert warnings == [
            "line 2: rejected 'Bad': r_max 2e+12 exceeds r_peak 1e+12"]


class TestCsvReader:
    def test_is_the_csv_modules_own_c_reader(self):
        # ingest imports _csv, not csv; should csv ever stop re-exporting
        # these, or change its default dialect, this fails instead of ingest
        # reading another dialect
        assert ingest.csv_reader is csv.reader
        assert ingest.CsvError is csv.Error
        # csv.excel names 7 attributes; its reader's dialect has all 8
        names = ["delimiter", "quotechar", "escapechar", "doublequote",
                 "skipinitialspace", "lineterminator", "quoting", "strict"]
        default = ingest.csv_reader([]).dialect
        excel = csv.reader([], csv.excel).dialect
        assert ({n: getattr(default, n) for n in names}
                == {n: getattr(excel, n) for n in names})


class TestByteOrderMark:
    """A U+FEFF at the very start of the text is dropped, whatever the source;
    one anywhere else is part of its cell."""

    MEASURED = HEADER + "A,2000.0,HPL,2e12,1e12,8\n\ufeffB\ufeff,2001.0,HPCG,,1e12,\n"
    META = "machine,cores,rpeak_flops\nX,10,1e12\n\ufeffY\ufeff,20,2e12\n"

    @pytest.mark.parametrize("comment", ["", "# a comment line first\n"])
    @pytest.mark.parametrize("wrap", [str, io.StringIO])
    def test_parse_records(self, comment, wrap):
        text = comment + self.MEASURED
        records, warnings = parse_records(wrap("\ufeff" + text))
        assert (records, warnings) == parse_records(wrap(text))
        assert [r.machine for r in records] == ["A", "\ufeffB\ufeff"]

    @pytest.mark.parametrize("comment", ["", "# a comment line first\n"])
    @pytest.mark.parametrize("wrap", [str, io.StringIO])
    def test_load_meta(self, comment, wrap):
        text = comment + self.META
        meta = load_meta(wrap("\ufeff" + text))
        assert meta == load_meta(wrap(text))
        assert list(meta) == ["X", "\ufeffY\ufeff"]

    def test_line_numbers_stay_the_same(self):
        text = "# comment\n" + HEADER + "A,2000.0,HPL,2e12,1e12,x\n"
        for source in (text, "\ufeff" + text):
            with pytest.raises(ParseError) as exc:
                parse_records(source)
            assert (exc.value.line, exc.value.column) == (3, "cores")

    def test_a_mark_after_the_first_is_a_header_cell(self):
        with pytest.raises(ParseError, match="unrecognized header column") as exc:
            parse_records("\ufeff\ufeff" + self.MEASURED)
        assert (exc.value.line, exc.value.column) == (1, "\ufeffmachine")


_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -",
    min_size=1, max_size=20).map(str.strip).filter(
        lambda s: s and not s.startswith("#"))
#: names the csv writer must quote or that would not read back as written
_awkward_names = st.text(alphabet='ab ,"#\n\r\t', max_size=8)


@st.composite
def _records(draw, names=_names):
    r_peak = draw(st.one_of(st.none(), st.floats(min_value=1e9, max_value=1e18)))
    if r_peak is None:
        r_max = draw(st.floats(min_value=1e6, max_value=1e18))
    else:
        r_max = draw(st.one_of(st.none(),
                               st.floats(min_value=1e6, max_value=r_peak)))
    return MachineRecord(
        machine=draw(names),
        date=draw(st.floats(min_value=1990.0, max_value=2100.0)),
        benchmark=draw(st.sampled_from(["HPL", "HPCG"])),
        r_peak=r_peak,
        r_max=r_max,
        cores=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10**8))),
    )


@st.composite
def _record_numbers(draw):
    """MachineRecord's four numbers, each a float or an int in its range,
    and then perhaps one of them any float (inf and nan too), an int of any
    size, a bool or a Fraction."""
    numbers = {"date": draw(st.floats(1990, 2100) | st.integers(1990, 2100))}
    for field in ("r_peak", "r_max", "cores"):
        numbers[field] = draw(st.none() | st.integers(1, 2**70) | st.floats(1, 2**70))
    if field := draw(st.sampled_from([None, *numbers])):
        numbers[field] = draw(st.one_of(
            st.floats(), st.integers(-2**70, 10**400), st.booleans(),
            st.fractions(1990, 2100, max_denominator=4)))
    return numbers


class TestRoundTrip:
    @settings(max_examples=200, derandomize=True)
    @given(records=st.lists(_records(_names | _awkward_names), max_size=20))
    def test_parse_serialize_identity(self, records):
        # a record the writer refuses would not read back as written; the
        # ones it takes read back equal
        accepted = []
        for r in records:
            try:
                serialize_records([r], io.StringIO())
            except ValueError as exc:
                assert str(exc).startswith(f"machine {r.machine!r}: ")
                line = ",".join(reference_ingest.record_cells(r)) + "\n"
                assert _outcome(parse_records, HEADER + line) != ("ok", ([r], []))
            else:
                accepted.append(r)
        sink = io.StringIO()
        serialize_records(accepted, sink)
        assert parse(sink.getvalue()) == (accepted, [])

    @pytest.mark.parametrize("field,value", [
        ("r_peak", float("nan")), ("r_peak", float("inf")), ("r_peak", -1.0),
        ("r_max", 0.0), ("cores", 1.5), ("cores", True)])
    def test_a_value_that_would_not_read_back_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            MachineRecord("X", 2019.0, "HPL", **{field: value})
        # the cell the writer gives it, from a record built without the checks
        unchecked = MachineRecord("X", 2019.0, "HPL")._replace(**{field: value})
        sink = io.StringIO()
        serialize_records([unchecked], sink)
        with pytest.raises(ParseError, match=f"column '{field.replace('_', '')}'"):
            parse(sink.getvalue())

    @pytest.mark.parametrize("field,value", [
        ("r_peak", True), ("r_max", Fraction(1, 2)), ("date", Fraction(4001, 2)),
        ("cores", 10**400), ("cores", 2**53 + 1), ("r_peak", 2**60 + 1)],
        ids=["r_peak-True", "r_max-1/2", "date-4001/2", "cores-10**400",
             "cores-2**53+1", "r_peak-2**60+1"])
    def test_a_value_that_is_no_exact_float_is_refused(self, field, value):
        values = {"date": 2019.0, field: value}
        with pytest.raises(ValueError) as exc:
            MachineRecord("X", benchmark="HPL", **values)
        assert str(exc.value) == f"{field} must be an exact int or float, got {value!r}"
        # the text the writer gives it, from a record built without the
        # checks, is refused or reads back changed
        unchecked = MachineRecord("X", 2019.0, "HPL")._replace(**{field: value})
        sink = io.StringIO()
        serialize_records([unchecked], sink)
        assert _outcome(parse_records, sink.getvalue()) != ("ok", ([unchecked], []))

    @settings(max_examples=300, derandomize=True)
    @given(name=_names, numbers=_record_numbers())
    @example(name="X", numbers={"date": 2000, "r_peak": 2**53, "r_max": 1.5,
                                "cores": 2.0**60})
    def test_every_record_the_checks_take_reads_back(self, name, numbers):
        try:
            r = MachineRecord(name, benchmark="HPL", **numbers)
        except ValueError:
            return
        sink = io.StringIO()
        serialize_records([r], sink)
        assert parse(sink.getvalue()) == ([r], [])

    @pytest.mark.parametrize("name", ["a\rb", "a\r\nb", 'a,"b\r"c'])
    def test_line_breaks_in_a_name_read_back_from_a_file(self, tmp_path, name):
        records = [MachineRecord(name, 2000.0, "HPL", 2e12, 1e12, 8)]
        path = tmp_path / "records.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            serialize_records(records, fh)
        assert ingest.load_records(str(path), "unused.csv") == (records, [])


def _written(serialize, records):
    sink = io.StringIO()
    try:
        serialize(records, sink)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", sink.getvalue()


class TestSerialize:
    """The writer against the per-field expression it replaced."""

    @settings(max_examples=300, derandomize=True)
    @given(records=st.lists(_records(st.one_of(_names, _awkward_names)),
                            max_size=20))
    @example(records=[MachineRecord(name, 2000.0, "HPL", cores=8)
                      for name in ["a,b", 'a"b', "a\nb", "a\rb", '"', ""]])
    @example(records=[MachineRecord("a", 2000.0, "HPL"),
                      MachineRecord(" b", 2000.0, "HPL"),
                      MachineRecord("#c", 2000.0, "HPL")])
    def test_same_bytes_as_reference(self, records):
        assert (_written(serialize_records, records)
                == _written(reference_ingest.serialize_records, records))

    @settings(max_examples=200, derandomize=True)
    @given(records=st.lists(_records(_names | _awkward_names), max_size=20))
    def test_same_bytes_as_csv_writer_for_names_without_cr(self, records):
        # csv.writer(lineterminator="\n") writes a bare "\r", which reads
        # back as a line break; every other name keeps the bytes it gave
        outcome = _written(serialize_records, records)
        if outcome[0] == "ok" and not any("\r" in r.machine for r in records):
            sink = io.StringIO()
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(["machine", "date", "benchmark",
                             "rpeak_flops", "rmax_flops", "cores"])
            writer.writerows(records)
            assert outcome == ("ok", sink.getvalue())

    @pytest.mark.parametrize("name", ["fig3_timeline.csv", "fig4_points.csv"])
    def test_bundled_file_same_bytes_as_reference(self, name):
        records, _ = ingest.load_bundled(name)
        for rows in (records, join_meta(records, ingest.load_bundled_meta())):
            assert (_written(serialize_records, rows)
                    == _written(reference_ingest.serialize_records, rows))

    @pytest.mark.parametrize("name,reason", [
        (" A", "parse would strip its leading or trailing whitespace"),
        ("A\t", "parse would strip its leading or trailing whitespace"),
        ("#A", "parse would skip its line as a comment")])
    def test_name_that_would_not_read_back_is_refused(self, name, reason):
        records = [MachineRecord("B", 2000.0, "HPL"),
                   MachineRecord(name, 2000.0, "HPL")]
        with pytest.raises(ValueError) as exc:
            serialize_records(records, io.StringIO())
        assert str(exc.value) == f"machine {name!r}: {reason}"


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", exc.line, exc.column, str(exc)


class TestParseFuzz:
    """The parser against its reference copy, on free and mutated CSV text."""

    @settings(max_examples=600, derandomize=True)
    @given(text=csv_text())
    # two bad cells in a row: the first in rpeak, rmax, date, cores order wins
    @example(text=HEADER + "A,2000.0,HPL,x,y,\n")
    @example(text=HEADER + "A,x,HPL,1e12,y,\n")
    @example(text=HEADER + "A,x,HPL,1e12,1e11,y\n")
    @example(text=HEADER + "A,1402.0,STREAM,1e12,1e11,y\n")
    # a rejected row, then columns in another order with unit scales
    @example(text=HEADER + "Bad,2000.0,HPL,1e12,2e12,\nA,2000.0,HPL,2e12,1e12,\n")
    @example(text="cores,rmax_pflops,date,benchmark,machine,rpeak_eflops\n"
                  "8,1,2019.5,HPCG,Z,0.002\n7,3,2019.5,HPL,Z,0.002\n")
    # header cells split at their first "_", against the reference's prefixes
    @example(text=HEADER.replace("rpeak_flops", "rpeak_") + "A,2000.0,HPL,2,1,\n")
    @example(text=HEADER.replace("rmax_flops", "rmax") + "A,2000.0,HPL,2,1,\n")
    @example(text=HEADER.replace("rpeak_flops", "rpeak__flops") + "A,2000.0,HPL,2,1,\n")
    @example(text=HEADER.replace("date", "date_flops") + "A,2000.0,HPL,2,1,\n")
    @example(text=HEADER.replace("rpeak_flops", "RPEAK_EFLOPS") + "A,2000.0,HPL,2,1e17,\n")
    # the cell helpers strip their own text and decide between their errors
    # only once a cell fails: padded cells, non-finite and non-positive
    # values, a scale that overflows, cores that are no whole count
    @example(text=HEADER + " A ,\t2000.0 , HPL\t,\t2e12 , 1e12\t,  8\t\n")
    @example(text=HEADER + "A,2000.0,HPL, \t,\t , \n")
    @example(text=EFLOPS_HEADER + "A,2000.0,HPL,nan,1e12,\n")
    @example(text=EFLOPS_HEADER + "A,2000.0,HPL,inf,1e12,\n")
    @example(text=EFLOPS_HEADER + "A,2000.0,HPL,-0,1e12,\n")
    @example(text=EFLOPS_HEADER + "A,2000.0,HPL,0,1e12,\n")
    @example(text=EFLOPS_HEADER.replace("rmax_flops", "rmax_eflops")
             + "A,2000.0,HPL,,1e300,\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,1e12,inf\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,1e12,nan\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,1e12,1.5\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,1e12, 8 \n")
    # a blank first cell is a row unless every cell is blank; "  #x" is a comment
    @example(text=HEADER + ",2000.0,HPL,2e12,1e12,\n")
    @example(text=HEADER + " ,\t, , ,,\n")
    @example(text=HEADER + "  #x,2000.0,HPL,2e12,1e12,\n")
    # a valid row is read inline, and a row the inline read refuses goes to
    # the helpers: a non-finite date, numbers in a row MachineRecord refuses,
    # padding float() strips itself (\u2003, \xa0) and padding only the
    # helpers' strip() removes (\x1c), underscores, a blank cores cell
    @example(text=HEADER + "A,nan,HPL,2e12,1e12,\n")
    @example(text=HEADER + "A,inf,HPL,2e12,1e12,\n")
    @example(text=HEADER + "A,-inf,HPL,2e12,1e12,\n")
    @example(text=HEADER + "A,1e400,HPL,2e12,1e12,\n")
    @example(text=HEADER + "A,2000.0,STREAM,2e12,1e12,8\n")
    @example(text=HEADER + "A,1400.0,HPL,2e12,1e12,8\n")
    @example(text=HEADER + "A,\u20032000.0,HPL,2e12\u2003,\u20031e12\u2003,\u20038\n")
    @example(text=HEADER + "A,2000.0\xa0,HPL,\xa02e12,1e12\xa0,8\xa0\n")
    @example(text=HEADER + "A,\x1c2000.0,HPL,2e12\x1c,\x1c1e12\x1c,\x1c8\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,1e12,8\x1c\n")
    @example(text=HEADER + "A,2000.0,HPL,1_000,1e2,1_000\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,1e12, \n")
    # MachineRecord's four checks in the inline read, at each bound
    @example(text=HEADER + "A,1990.0,HPL,2e12,1e12,8\n")
    @example(text=HEADER + "A,1989.9999999999998,HPL,2e12,1e12,8\n")
    @example(text=HEADER + "A,2100.0,HPL,2e12,1e12,8\n")
    @example(text=HEADER + "A,2100.0000000000005,HPL,2e12,1e12,8\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,1e12,1\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,1e12,0\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,2e12,8\n")
    @example(text=HEADER + "A,2000.0,HPL,2e12,2000000000000.0002,8\n")
    @example(text=HEADER + "A,2000.0, HPCG ,2e12,1e12,8\n")
    @example(text=HEADER + "A,2000.0,hpl,2e12,1e12,8\n")
    def test_same_outcome_as_reference(self, text):
        got = _outcome(parse_records, text)
        if got[0] == "error" and got[3].endswith("duplicate header column"):
            return  # the reference lets the last repeated column win
        assert got == _outcome(reference_ingest.parse_records, text)

    @settings(max_examples=300, derandomize=True)
    @given(text=csv_text((META_FILE,)))
    def test_load_meta_returns_or_raises_parse_error(self, text):
        try:
            load_meta(text)
        except ParseError:
            pass


class TestDerive:
    def test_taihulight_hpl(self):
        r = MachineRecord("Taihulight", 2019.0, "HPL",
                          r_peak=0.1254e18, r_max=0.0930e18, cores=10_649_600)
        (d,) = derive([r])
        assert d.efficiency == pytest.approx(0.0930 / 0.1254, rel=1e-12)
        assert d.nonparallel == pytest.approx(3.3e-8, rel=0.10)

    def test_taihulight_hpcg(self):
        r = MachineRecord("Taihulight", 2019.0, "HPCG",
                          r_peak=0.1254e18, r_max=0.000480e18, cores=10_649_600)
        (d,) = derive([r])
        assert d.nonparallel == pytest.approx(2.4e-5, rel=0.10)

    def test_without_cores_efficiency_only(self):
        r = MachineRecord("X", 2019.0, "HPL", r_peak=2e15, r_max=1e15)
        (d,) = derive([r])
        assert d.efficiency == 0.5
        assert d.nonparallel is None

    def test_without_rpeak_nothing_derived(self):
        r = MachineRecord("X", 2019.0, "HPL", r_max=1e15, cores=100)
        (d,) = derive([r])
        assert d.efficiency is None
        assert d.nonparallel is None

    def test_one_core_keeps_no_serial_fraction(self):
        r = MachineRecord("X", 2019.0, "HPL", r_peak=2e15, r_max=1e15, cores=1)
        (d,) = derive([r])
        assert d.efficiency == 0.5
        assert d.nonparallel is None

    # the 100-core cases keep their r_max-reason ids
    @pytest.mark.parametrize("r_max,reason,cores", [
        pytest.param(1e-300, "efficiency must be in (0, 1], got 0.0", 100,  # underflows
                     id="1e-300-efficiency must be in (0, 1], got 0.0"),
        pytest.param(1e-10, "serial fraction overflows at efficiency 1e-310", 100,
                     id="1e-10-serial fraction overflows at efficiency 1e-310"),
        pytest.param(1e-300, "efficiency must be in (0, 1], got 0.0", 1,  # no inversion
                     id="one-core-underflow"),
    ])
    def test_uninvertible_efficiency_names_the_record(self, r_max, reason, cores):
        r = MachineRecord("X", 2019.0, "HPL", r_peak=1e300, r_max=r_max, cores=cores)
        with pytest.raises(ValueError) as exc:
            derive([r])
        assert str(exc.value) == f"X (HPL, 2019.0): {reason}"

    @settings(max_examples=200, derandomize=True)
    @given(records=st.lists(_records(), max_size=20))
    def test_cardinality_and_efficiency_range(self, records):
        derived = derive(records)
        assert len(derived) == len(records)
        for d in derived:
            if d.efficiency is not None:
                assert 0.0 < d.efficiency <= 1.0


class TestTimeline:
    def test_summit_improvement_ratios(self):
        records, _ = ingest.load_bundled("fig3_timeline.csv")
        entry = timeline(records, "Summit")
        assert entry.points[-1] == (2019.0, pytest.approx(148.6e15, rel=1e-12))
        assert entry.ratios == (pytest.approx(143.5 / 122.3, rel=1e-12),
                                pytest.approx(148.6 / 143.5, rel=1e-12))
        # the documented improvement steps: +17 % then +3.5 %
        assert entry.ratios[0] == pytest.approx(1.17, rel=0.005)
        assert entry.ratios[1] == pytest.approx(1.035, rel=0.005)

    def test_taihulight_constant(self):
        records, _ = ingest.load_bundled("fig3_timeline.csv")
        entry = timeline(records, "Taihulight")
        assert all(r == 1.0 for r in entry.ratios)

    def test_gyoukou_sorted_chronologically(self):
        records, _ = ingest.load_bundled("fig3_timeline.csv")
        entry = timeline(records, "Gyoukou")
        assert entry.points == ((2017.0, pytest.approx(1.677e15, rel=1e-12)),
                                (2017.5, pytest.approx(19.136e15, rel=1e-12)))

    def test_single_measurement_empty_ratios(self):
        records, _ = parse(HEADER + "Solo,2019.0,HPL,2e15,1e15,\n")
        entry = timeline(records, "Solo")
        assert entry.ratios == ()

    def test_overflowing_ratio_is_value_error(self):
        records, _ = parse(HEADER + "A,2018.0,HPL,,5e-324,\n"
                                    "A,2018.5,HPL,,1e17,\n")
        with pytest.raises(ValueError, match="ratio of machine 'A' overflows"):
            timeline(records, "A")

    def test_unknown_machine(self):
        records, _ = ingest.load_bundled("fig3_timeline.csv")
        with pytest.raises(ValueError, match="no records"):
            timeline(records, "Colossus")

    def test_mixed_benchmarks_name_the_machine(self):
        records, _ = parse(HEADER + "A,2018.0,HPL,,1e17,\n"
                                    "A,2018.0,HPCG,,1e15,\n")
        with pytest.raises(ValueError,
                           match="machine 'A' mixes benchmarks HPCG, HPL$"):
            timeline(records, "A")

    def test_two_rmax_values_on_one_date_name_the_machine_and_date(self):
        records, _ = parse(HEADER + "Summit,2017.5,HPL,,9e16,\n"
                                    "Summit,2018.0,HPL,,122.3e15,\n"
                                    "Summit,2018.0,HPL,,100.0e15,\n")
        with pytest.raises(ValueError, match="machine 'Summit' has two rmax "
                                             "values on date 2018.0$"):
            timeline(records, "Summit")

    def test_benchmark_without_rmax_is_not_mixed_in(self):
        records, _ = parse(HEADER + "A,2018.0,HPL,,1e17,\n"
                                    "A,2018.5,HPCG,2e17,,\n"
                                    "A,2019.0,HPL,,2e17,\n")
        assert timeline(records, "A").ratios == (2.0,)


class TestMeta:
    def test_bundled_meta(self):
        meta = ingest.load_bundled_meta()
        assert meta["Taihulight"]["cores"] == 10_649_600
        assert meta["Taihulight"]["rpeak_flops"] == pytest.approx(125.4359e15)
        assert set(meta) == {"Taihulight", "Summit", "Sierra",
                             "K computer", "JUQUEEN"}

    def test_join_fills_missing_only(self):
        records = [
            MachineRecord("Taihulight", 2019.0, "HPL",
                          r_peak=0.125e18, r_max=0.0930e18),
            MachineRecord("nobody", 2019.0, "HPL", r_peak=2e15, r_max=1e15),
        ]
        joined = join_meta(records, ingest.load_bundled_meta())
        assert joined[0].cores == 10_649_600
        assert joined[0].r_peak == 0.125e18  # measurement wins
        assert joined[1].cores is None

    def test_join_returns_a_complete_record_itself(self):
        r = MachineRecord("Taihulight", 2019.0, "HPL",
                          r_peak=0.125e18, r_max=0.0930e18, cores=40)
        (joined,) = join_meta([r], ingest.load_bundled_meta())
        assert joined is r

    def test_filled_peak_below_payload_names_the_machine(self):
        r = MachineRecord("Taihulight", 2016.0, "HPL", r_max=1e30, cores=40)
        with pytest.raises(ingest.PayloadExceedsPeak) as exc:
            join_meta([r], ingest.load_bundled_meta())
        assert str(exc.value) == ("Taihulight: r_max 1e+30 exceeds r_peak "
                                  "1.25436e+17 (r_peak from machines_meta.csv)")

    def test_bad_meta_header(self):
        with pytest.raises(ParseError) as exc:
            load_meta("# comment\n\nmachine,cpus,rpeak_flops\nX,1,1e12\n")
        assert (exc.value.line, exc.value.column) == (3, "machine,cpus,rpeak_flops")
        assert load_meta("# no header, no rows\n") == {}

    def test_repeated_machine_is_parse_error(self):
        with pytest.raises(ParseError, match="duplicate machine 'X'$") as exc:
            load_meta("machine,cores,rpeak_flops\nX,10,1e12\nY,10,1e12\n"
                      " X ,20,2e12\n")
        assert (exc.value.line, exc.value.column) == (4, "machine")

    def test_meta_cores_are_whole_counts(self):
        meta = load_meta("machine,cores,rpeak_flops\nX,1.2e3,1e12\n")
        assert type(meta["X"]["cores"]) is int
        (joined,) = join_meta([MachineRecord("X", 2019.0, "HPL", r_max=1e11)], meta)
        assert type(joined.cores) is int and joined.cores == 1200

    @pytest.mark.parametrize("column,row", [
        ("cores", "X,abc,1e12"),
        ("cores", "X,1.5,1e12"),
        ("cores", "X,inf,1e12"),
        ("cores", "X,0,1e12"),
        ("cores", "X,-3,1e12"),
        ("rpeak_flops", "X,10,nan"),
        ("rpeak_flops", "X,10,abc"),
        ("rpeak_flops", "X,10,0"),
        ("*", "X,,1e12"),
    ])
    def test_bad_meta_cell_reports_line_and_column(self, column, row):
        with pytest.raises(ParseError) as exc:
            load_meta(f"machine,cores,rpeak_flops\n{row}\n")
        assert (exc.value.line, exc.value.column) == (2, column)


class TestBundledData:
    def test_fig3_parses_clean(self):
        records, warnings = ingest.load_bundled("fig3_timeline.csv")
        assert warnings == []
        assert len(records) == 67
        assert len(machine_names(records)) == 8

    def test_fig4_parses_clean(self):
        records, warnings = ingest.load_bundled("fig4_points.csv")
        assert warnings == []
        assert len(records) == 48
        hpl = [r for r in records if r.benchmark == "HPL"]
        hpcg = [r for r in records if r.benchmark == "HPCG"]
        assert len(hpl) == 27
        assert len(hpcg) == 21
        taihulight = [r for r in hpl if r.machine == "Taihulight"]
        assert taihulight[0].r_peak == pytest.approx(0.125e18, rel=1e-12)
        assert taihulight[0].r_max == pytest.approx(0.0930e18, rel=1e-12)
