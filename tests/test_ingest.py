"""Measurement parsing, derivation, timelines and the bundled datasets."""

import io

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

    def test_exceedance_has_its_own_exception(self):
        with pytest.raises(ingest.PayloadExceedsPeak):
            MachineRecord("Bad", 2000.0, "HPL", r_peak=1e12, r_max=2e12)
        _, warnings = parse(HEADER + "Bad,2000.0,HPL,1e12,2e12,\n")
        assert warnings == [
            "line 2: rejected 'Bad': r_max 2e+12 exceeds r_peak 1e+12"]


_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -",
    min_size=1, max_size=20).map(str.strip).filter(
        lambda s: s and not s.startswith("#"))


@st.composite
def _records(draw):
    r_peak = draw(st.one_of(st.none(), st.floats(min_value=1e9, max_value=1e18)))
    if r_peak is None:
        r_max = draw(st.floats(min_value=1e6, max_value=1e18))
    else:
        r_max = draw(st.one_of(st.none(),
                               st.floats(min_value=1e6, max_value=r_peak)))
    return MachineRecord(
        machine=draw(_names),
        date=draw(st.floats(min_value=1990.0, max_value=2100.0)),
        benchmark=draw(st.sampled_from(["HPL", "HPCG"])),
        r_peak=r_peak,
        r_max=r_max,
        cores=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10**8))),
    )


class TestRoundTrip:
    @settings(max_examples=200, derandomize=True)
    @given(records=st.lists(_records(), max_size=20))
    def test_parse_serialize_identity(self, records):
        sink = io.StringIO()
        serialize_records(records, sink)
        parsed, warnings = parse(sink.getvalue())
        assert warnings == []
        assert parsed == records


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
