"""Command-line behavior: subcommands, exit codes, units, determinism."""

import argparse
import bisect
import collections.abc
import csv
import gc
import importlib
import io
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from functools import partial
from pathlib import Path

import import_budget
import pytest
from csv_fuzz import csv_text
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parascale import cli, ingest, report
from parascale.contributions import (DEFAULT_MACHINE, AlphaDecomposition,
                                     MachineModel, peak_point, preset)
from parascale.model import FIGURE_DATA, PAYLOAD_RPEAK_RANGE
from parascale.units import PREFIX_EXP, format_flops, parse_flops
from reference_units import parse_flops as reference_parse_flops

SRC = Path(__file__).resolve().parent.parent / "src"
REPO_DATA = SRC / "parascale" / "data"

# Finite options whose results once overflowed to inf: a slope so small that
# N* = inf, an efficiency so small that 1/eff = inf, and t*a = inf.
PREDICT_TINY_SLOPE = ["predict", "--preset", "NN", "--rpeak", "4.8621192886493096e+16",
                      "--override", "loop_clocks_per_pu=1.6e-308"]
INVERT_OVERFLOW = ["invert", "--n", "4.513758932198827e+252",
                   "--rpeak", "5.0057508638918984e+16",
                   "--rmax", "2.454219613359543e-299"]
RELATIVISTIC_OVERFLOW = ["relativistic", "--t", "1e300", "--a", "1e300"]
# A payload so small that the next edition's improvement ratio overflows.
TINY_RMAX = ("machine,date,benchmark,rpeak_flops,rmax_pflops,cores\n"
             "Summit,2018.0,HPL,,5e-324,\nSummit,2018.5,HPL,,122.3,\n")
# Rows whose efficiency underflows to 0 (on 100 cores, then on one), or whose
# serial fraction overflows.
UNDERFLOW_EFFICIENCY = ("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n"
                        "X,2019.0,HPL,1e300,1e-300,100\n")
OVERFLOW_NONPARALLEL = UNDERFLOW_EFFICIENCY.replace("1e-300", "1e-10")
UNDERFLOW_ONE_CORE = UNDERFLOW_EFFICIENCY.replace(",100\n", ",1\n")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def grab(pattern, text):
    m = re.search(pattern, text)
    assert m, f"{pattern!r} not found in {text!r}"
    return float(m.group(1))


def _flop_literal(lead, sign, digits, point, exponent, prefix, trail):
    if point is not None:  # fixed form; point may fall before or after all digits
        digits = f"{digits[:point]}.{digits[point:]}"
    return f"{lead}{sign}{digits}{exponent}{prefix}{trail}"


# up to 17 significant digits, fixed or exponent form, every prefix and "k"
_FLOP_TEXT = st.builds(
    _flop_literal,
    lead=st.sampled_from(["", " ", "  "]),
    sign=st.sampled_from(["", "-", "+"]),
    digits=st.text("0123456789", min_size=1, max_size=17),
    point=st.one_of(st.none(), st.integers(0, 17)),
    exponent=st.one_of(st.just(""), st.builds(
        "{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
        st.integers(0, 400))),
    prefix=st.sampled_from([*PREFIX_EXP, "k"]),
    trail=st.sampled_from(["", " ", "\t"]))


class TestUnits:
    def test_parse_prefix_suffixes(self):
        assert parse_flops("0.1254E") == 0.1254e18
        assert parse_flops("100G") == 100e9
        assert parse_flops("5.87P") == 5.87e15
        assert parse_flops("123456") == 123456.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_flops("12..3E")
        with pytest.raises(ValueError):
            parse_flops("")

    def test_prefix_scales_the_literal_once(self):
        # the float the literal denotes, not float("0.1254") * 1e18
        assert parse_flops("0.1254E") == 1.254e17 != 0.1254 * 1e18
        assert parse_flops("1.5e3P") == 1.5e18
        assert parse_flops(" 7.25e-3 k ") == 7.25

    @settings(max_examples=2000, derandomize=True)
    @given(text=_FLOP_TEXT)
    @example(text="1e999999E")  # decimal raised Overflow here
    @example(text="E")
    def test_same_float_as_the_decimal_reference(self, text):
        # up to 17 significant digits: the reference's 28-digit decimal
        # context may round twice only on longer literals
        try:
            expected = reference_parse_flops(text)
        except (ValueError, ArithmeticError):  # ArithmeticError: decimal.Overflow
            with pytest.raises(ValueError):
                parse_flops(text)
            return
        assert parse_flops(text) == expected

    def test_format(self):
        assert format_flops(1e11) == "100 Gflop/s"
        assert format_flops(0.1254e18, "E") == "0.1254 Eflop/s"
        assert format_flops(5.861936e15, "P") == "5.86194 Pflop/s"
        with pytest.raises(ValueError, match="^unknown unit prefix 'Q'$"):
            format_flops(1.0, "Q")


class TestInvert:
    def test_taihulight_hpl(self, capsys):
        rc, out, _ = run(capsys, "invert", "--n", "10649600",
                         "--rpeak", "0.1254E", "--rmax", "0.0930E")
        assert rc == 0
        value = grab(r"nonparallel \(1-alpha_eff\) = ([0-9.eE+-]+)", out)
        assert value == pytest.approx(3.3e-8, rel=0.05)
        assert "alpha_eff" in out and "efficiency" in out

    def test_taihulight_hpcg(self, capsys):
        rc, out, _ = run(capsys, "invert", "--n", "10649600",
                         "--rpeak", "0.1254E", "--rmax", "0.000480E")
        assert rc == 0
        value = grab(r"nonparallel \(1-alpha_eff\) = ([0-9.eE+-]+)", out)
        assert value == pytest.approx(2.4e-5, rel=0.05)

    def test_efficiency_below_one_over_n_is_warned(self, capsys):
        # less than one PU delivered: the serial fraction printed is above 1
        rc, out, err = run(capsys, "invert", "--n", "10",
                           "--rpeak", "1000", "--rmax", "1")
        assert (rc, out) == (0, "efficiency = 0.001\n"
                                "nonparallel (1-alpha_eff) = 111\n"
                                "alpha_eff = -110\n")
        assert err == ("warning: efficiency 0.001 is below 1/N = 0.1; "
                       "no serial fraction in [0, 1] explains it\n")

    @pytest.mark.parametrize("n,rmax,shown,bound", [
        ("9", "0.1111111111111111", "0.1111111111111111", "1/9"),
        ("3", "0.3333333333333333", "0.3333333333333333", "1/3"),
    ], ids=["ninth", "third"])
    def test_efficiency_an_ulp_under_one_over_n_is_warned(self, capsys, n, rmax,
                                                          shown, bound):
        # the serial fraction rounds to 1, but eff * N < 1 exactly; 1/N as a
        # float is eff itself, so it is written as a fraction
        rc, out, err = run(capsys, "invert", "--n", n, "--rpeak", "1", "--rmax", rmax)
        assert rc == 0
        assert grab(r"nonparallel \(1-alpha_eff\) = ([0-9.eE+-]+)", out) == 1
        assert err == (f"warning: efficiency {shown} is below 1/N = {bound}; "
                       "no serial fraction in [0, 1] explains it\n")

    @settings(max_examples=300, derandomize=True)
    @given(n=st.floats(2.0, 1e15), ulps=st.sampled_from([-1, 0, 1]))
    @example(n=9.0, ulps=0)
    def test_warning_fires_exactly_below_one_over_n(self, n, ulps):
        # efficiencies at the float nearest 1/N and its two neighbours
        eff = math.nextafter(1.0 / n, ulps) if ulps else 1.0 / n
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main(["invert", *_options(n=n, rpeak=1.0, rmax=eff)])
        assert rc == 0
        assert bool(err.getvalue()) == (Fraction(eff) * Fraction(n) < 1)

    @pytest.mark.parametrize("argv", [
        ["--n", "10649600", "--rpeak", "0.1254E", "--rmax", "0.0930E"],
        ["--n", "10", "--rpeak", "1000", "--rmax", "100"],  # the float above 1/N
        ["--n", "4", "--rpeak", "1", "--rmax", "0.25"],  # exactly 1/N
    ], ids=["taihulight", "one-over-n", "exactly-one-over-n"])
    def test_consistent_inversion_writes_no_warning(self, capsys, argv):
        rc, out, err = run(capsys, "invert", *argv)
        assert (rc, err) == (0, "")
        assert grab(r"nonparallel \(1-alpha_eff\) = ([0-9.eE+-]+)", out) <= 1

    def test_single_pu_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "invert", "--n", "1",
                         "--rpeak", "2E", "--rmax", "1E")
        assert rc == 1
        assert "usage error" in err

    def test_overflowing_prefixed_value_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "invert", "--n", "100",
                           "--rpeak", "1e999999E", "--rmax", "1P")
        assert (rc, out) == (1, "")
        assert err == ("usage error: --rpeak: flop/s value must be finite, "
                       "got '1e999999E'\n")

    def test_rmax_above_rpeak_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, "invert", "--n", "100",
                       "--rpeak", "1E", "--rmax", "2E")
        assert rc == 1


class TestFiniteFloatOptions:
    @pytest.mark.parametrize("argv", [
        ["invert", "--n", "nan", "--rpeak", "0.1254E", "--rmax", "0.0930E"],
        ["invert", "--n", "inf", "--rpeak", "0.1254E", "--rmax", "0.0930E"],
        ["predict", "--n", "1e6", "--p", "100G", "--alpha", "nan"],
        ["predict", "--n", "inf", "--p", "100G", "--alpha", "0.5"],
        ["relativistic", "--t", "1", "--n", "inf"],
        ["predict", "--n", "1e6", "--p", "100G", "--alpha=-inf"],
        ["relativistic", "--t", "inf"],
        ["relativistic", "--t", "1", "--a", "nan"],
        ["invert", "--n", "abc", "--rpeak", "0.1254E", "--rmax", "0.0930E"],
    ])
    def test_non_finite_is_usage_error(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert "usage error" in err and "not a finite number" in err
        assert out == ""


class TestFlopsOptions:
    """The flop/s options are parsed by the parser, each error naming its flag."""

    @pytest.mark.parametrize("argv,flag", [
        (["predict", "--preset", "HPL", "--rpeak", "bad"], "--rpeak"),
        (["predict", "--n", "1e6", "--p", "bad", "--alpha", "0.5"], "--p"),
        (["invert", "--n", "100", "--rpeak", "bad", "--rmax", "1P"], "--rpeak"),
        (["invert", "--n", "100", "--rpeak", "1E", "--rmax", "bad"], "--rmax"),
        (["sweep", "--preset", "HPL", "--rpeak-min", "bad"], "--rpeak-min"),
        (["sweep", "--preset", "HPL", "--rpeak-max", "bad"], "--rpeak-max")])
    def test_bad_value_is_usage_error_naming_the_option(self, capsys, argv, flag):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == f"usage error: {flag}: cannot parse flop/s value 'bad'\n"

    def test_sweep_defaults_are_figure_6_range(self):
        assert report.FIG6_RPEAK_RANGE is PAYLOAD_RPEAK_RANGE
        args = cli.build_parser().parse_args(["sweep", "--preset", "HPL"])
        assert (args.rpeak_min, args.rpeak_max) == PAYLOAD_RPEAK_RANGE
        # the range the help text and the parser read give the same floats
        assert tuple(map(parse_flops, ("0.001E", "1.1E"))) == PAYLOAD_RPEAK_RANGE


class TestPredict:
    def test_explicit_system(self, capsys):
        rc, out, err = run(capsys, "predict", "--n", "1",
                           "--p", "100e9", "--alpha", "0.5")
        assert rc == 0
        assert "r_max = 100 Gflop/s" in out
        assert err == ""

    def test_preset_hpl(self, capsys):
        rc, out, _ = run(capsys, "predict", "--preset", "HPL",
                         "--rpeak", "0.00587E", "--unit", "E")
        assert rc == 0
        assert grab(r"r_max = ([0-9.eE+-]+) Eflop/s", out) == pytest.approx(
            0.00586, rel=1e-3)

    def test_preset_past_peak_warns(self, capsys):
        rc, out, err = run(capsys, "predict", "--preset", "NN", "--rpeak", "1E")
        assert rc == 0
        assert "past the payload peak" in err
        assert "r_peak*" in err  # peak report included
        assert "r_max" in out    # data still on stdout

    def test_preset_pu_count_overflow_is_data_error(self, capsys):
        rc, out, err = run(capsys, "predict", "--preset", "HPL", "--rpeak", "0.5E",
                           "--override", "perf_per_pu=1e-300")
        assert (rc, out) == (2, "")
        assert err == ("error: PU count r_peak / perf_per_pu overflows: "
                       "5e+17 / 1e-300 flop/s\n")

    def test_explicit_system_overflow_names_the_options(self, capsys):
        rc, out, err = run(capsys, "predict", "--n", "1e308", "--p", "1E",
                           "--alpha", "0.5")
        assert (rc, out) == (2, "")
        assert err == "error: --n * --p overflows: 1e+308 * 1e+18 flop/s\n"

    def test_preset_outside_validity_is_data_error(self, capsys):
        # serial fraction reaches 1 around N=4e9 on the NN preset
        rc, _, err = run(capsys, "predict", "--preset", "NN", "--rpeak", "500E")
        assert rc == 2
        assert "outside model validity" in err

    def test_override_changes_model(self, capsys):
        _, base, _ = run(capsys, "predict", "--preset", "HPL",
                         "--rpeak", "0.00587E", "--unit", "E")
        _, hpcgish, _ = run(capsys, "predict", "--preset", "HPL",
                            "--rpeak", "0.00587E", "--unit", "E",
                            "--override", "alpha_sw=2e-6")
        _, real_hpcg, _ = run(capsys, "predict", "--preset", "HPCG",
                              "--rpeak", "0.00587E", "--unit", "E")
        assert hpcgish != base
        assert hpcgish == real_hpcg

    def test_unknown_override_key(self, capsys):
        rc, _, err = run(capsys, "predict", "--preset", "HPL",
                         "--rpeak", "1P", "--override", "warp_factor=9")
        assert rc == 1
        assert "warp_factor" in err

    @pytest.mark.parametrize("key", ["total_clocks", "bio_factor"])
    def test_non_finite_override_is_data_error(self, capsys, key):
        rc, out, err = run(capsys, "predict", "--preset", "HPL",
                           "--rpeak", "1P", "--override", f"{key}=nan")
        assert rc == 2
        assert f"error: {key} must be finite" in err
        assert out == ""

    def test_missing_arguments(self, capsys):
        rc, _, _ = run(capsys, "predict", "--n", "4")
        assert rc == 1

    @pytest.mark.parametrize("argv,message", [
        (["--rpeak", "1P", "--override", "alpha_sw"],
         "override must be key=value, got 'alpha_sw'"),
        (["--rpeak", "1P", "--override", "alpha_sw=abc"],
         "override alpha_sw: not a number: 'abc'"),
        ([], "predict --preset needs --rpeak")], ids=["no-equals", "not-a-number",
                                                      "no-rpeak"])
    def test_preset_usage_error_says_what_is_wrong(self, capsys, argv, message):
        rc, out, err = run(capsys, "predict", "--preset", "HPL", *argv)
        assert (rc, out, err) == (1, "", f"usage error: {message}\n")

    def test_explicit_system_refuses_preset_options(self, capsys):
        rc, out, err = run(capsys, "predict", "--n", "1e6", "--p", "100G",
                           "--alpha", "0.999999", "--override", "bogus=1")
        assert (rc, out) == (1, "")
        assert err == "usage error: predict --n/--p/--alpha does not take --override\n"

    def test_preset_refuses_explicit_system_options(self, capsys):
        rc, out, err = run(capsys, "predict", "--preset", "HPL", "--rpeak", "0.5E",
                           "--n", "5", "--alpha", "2")
        assert (rc, out) == (1, "")
        assert err == "usage error: predict --preset does not take --n, --alpha\n"

    def test_non_positive_per_pu_performance_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "predict", "--n", "1e6", "--p", "0",
                           "--alpha", "0.5")
        assert (rc, out) == (1, "")
        assert err == "usage error: --p must be > 0, got 0\n"

    def test_rpeak_below_one_pu_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "predict", "--preset", "HPL", "--rpeak", "50G")
        assert (rc, out) == (1, "")
        assert err == ("usage error: --rpeak must be at least one PU "
                       "(1e+11 flop/s), got 5e+10\n")

    @pytest.mark.parametrize("command,argv", [("predict", ("--rpeak", "1E")),
                                              ("sweep", ("--points", "3"))])
    def test_preset_name_in_any_case(self, capsys, command, argv):
        # as preset("hpl") and `figure 6a` accept it
        upper = run(capsys, command, "--preset", "HPL", *argv)
        assert upper[0] == 0
        assert run(capsys, command, "--preset", "hpl", *argv) == upper
        rc, out, err = run(capsys, command, "--preset", "xyz", *argv)
        assert (rc, out) == (1, "")
        assert err == ("usage error: --preset: invalid choice: 'XYZ' "
                       "(choose from 'HPL', 'HPCG', 'NN')\n")

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "predict", "--preset", "HPCG", "--rpeak", "0.01E")
        _, second, _ = run(capsys, "predict", "--preset", "HPCG", "--rpeak", "0.01E")
        assert first == second


class TestSweep:
    def test_maximum_matches_peak_point(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--preset", "HPCG")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rpeak_flops,rmax_flops,efficiency"
        best = max(float(line.split(",")[1]) for line in lines[1:])
        peak = peak_point(DEFAULT_MACHINE, preset("HPCG"))
        assert best == pytest.approx(peak.r_max_star, rel=0.01)

    def test_bad_range(self, capsys):
        rc, _, _ = run(capsys, "sweep", "--preset", "HPL",
                       "--rpeak-min", "2E", "--rpeak-max", "1E")
        assert rc == 1

    def test_fewer_than_two_points_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "sweep", "--preset", "HPL", "--points", "1")
        assert (rc, out, err) == (1, "", "usage error: --points must be >= 2\n")

    def test_model_error_writes_no_rows(self, capsys):
        rc, out, err = run(capsys, "sweep", "--preset", "NN", "--rpeak-max", "500E")
        assert (rc, out) == (2, "")
        assert "outside model validity" in err

    def test_model_error_is_found_at_the_end_and_writes_no_file(self, capsys,
                                                               tmp_path):
        path = tmp_path / "f.csv"
        rc, out, err = run(capsys, "sweep", "--preset", "NN", "--rpeak-max", "500E",
                           "-o", str(path))
        assert (rc, out) == (2, "")
        assert err == ("error: serial fraction 1.25 >= 1 at N=5e+09: "
                       "outside model validity\n")
        assert not path.exists()

    def test_rows_are_written_as_they_are_computed(self, monkeypatch):
        out = io.StringIO()
        written = []  # stdout length at each model evaluation

        def spy(r_peak, m, d):
            written.append(len(out.getvalue()))
            return rmax_of_rpeak(r_peak, m, d)

        rmax_of_rpeak = cli.rmax_of_rpeak
        monkeypatch.setattr(cli, "rmax_of_rpeak", spy)
        with redirect_stdout(out):
            assert cli.main(["sweep", "--preset", "HPL", "--points", "5"]) == 0
        lines = out.getvalue().splitlines(keepends=True)
        assert len(lines) == 6
        # the last point is computed after the header and the first 4 rows
        assert written[-1] == len("".join(lines[:5]))

    @pytest.mark.parametrize("name,fig_id", [("HPL", "6A"), ("HPCG", "6B"),
                                             ("NN", "6C")])
    def test_default_rows_are_figure_6_samples(self, capsys, name, fig_id):
        rc, out, _ = run(capsys, "sweep", "--preset", name)
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        rmax = next(s for s in report.build_figure(fig_id).series
                    if s.name == "rmax")
        assert [(float(r_peak) / 1e18, float(r_max) / 1e18)
                for r_peak, r_max, _ in rows] == list(zip(rmax.xs, rmax.ys))

    @pytest.mark.parametrize("argv,range_text", [
        (["--points", "3", "--rpeak-min", "5e-324", "--rpeak-max", "1e-323",
          "--override", "perf_per_pu=5e-324"], "[5e-324, 1e-323]"),
        (["--points", "5", "--rpeak-min", "100G",
          "--rpeak-max", "100.00000000000003G"],
         "[100000000000.0, 100000000000.00003]")])
    def test_range_too_narrow_for_points_is_usage_error(self, capsys, tmp_path,
                                                        argv, range_text):
        path = tmp_path / "f.csv"
        rc, out, err = run(capsys, "sweep", "--preset", "HPL", *argv,
                           "-o", str(path))
        assert (rc, out) == (1, "")
        assert err == (f"usage error: --points {argv[1]}: range {range_text} "
                       f"is too narrow\n")
        assert not path.exists()
        rc, out, _ = run(capsys, "sweep", "--preset", "HPL", *argv)
        assert (rc, out) == (1, "")

    def test_two_points_sweep_the_narrowest_range(self, capsys):
        hi = math.nextafter(1e11, math.inf)  # the two ends are the samples
        rc, out, _ = run(capsys, "sweep", "--preset", "HPL", "--points", "2",
                         "--rpeak-min", "100G", "--rpeak-max", repr(hi))
        assert rc == 0
        rows = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert rows == [1e11, hi]


class TestTimeline:
    def test_bundled_summit(self, capsys):
        rc, out, _ = run(capsys, "timeline", "--machine", "Summit")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "date,rmax_flops,ratio_vs_previous"
        ratios = [float(line.split(",")[2]) for line in lines[2:]]
        assert ratios[0] == pytest.approx(1.173, abs=0.001)
        assert ratios[1] == pytest.approx(1.036, abs=0.001)

    def test_repo_data_file(self, capsys):
        rc, out, _ = run(capsys, "timeline", "--machine", "Gyoukou",
                         "--data", str(REPO_DATA / "fig3_timeline.csv"))
        assert rc == 0
        assert out.count("\n") == 3  # header + two measurements

    def test_data_file_with_a_byte_order_mark(self, capsys, tmp_path):
        # as a spreadsheet saves "CSV UTF-8": a BOM and CRLF line ends
        text = (REPO_DATA / "fig3_timeline.csv").read_text(encoding="utf-8")
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
        expected = run(capsys, "timeline", "--machine", "Summit")
        assert expected[0] == 0
        assert run(capsys, "timeline", "--machine", "Summit",
                   "--data", str(data)) == expected

    def test_unknown_machine_is_data_error(self, capsys):
        rc, _, err = run(capsys, "timeline", "--machine", "Colossus")
        assert rc == 2
        assert "Colossus" in err

    @pytest.mark.parametrize("machine,message", [
        ("Ghost", "machine 'Ghost' has no rmax value"),
        ("Nobody", "no records for machine 'Nobody'")])
    def test_no_rmax_told_apart_from_no_records(self, capsys, tmp_path, machine,
                                                message):
        data = tmp_path / "two.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_pflops,cores\n"
                        "Summit,2018.5,HPL,,143.5,\n"
                        "Ghost,2018.5,HPL,1e17,,\nGhost,2019.0,HPL,1e17,,\n",
                        encoding="utf-8")
        rc, out, err = run(capsys, "timeline", "--machine", machine,
                           "--data", str(data))
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_missing_file_is_data_error(self, capsys):
        rc, _, _ = run(capsys, "timeline", "--machine", "X",
                       "--data", "/nonexistent.csv")
        assert rc == 2

    def test_history_mixing_benchmarks_is_data_error(self, capsys):
        rc, out, err = run(capsys, "timeline", "--machine", "Taihulight",
                           "--data", str(REPO_DATA / "fig4_points.csv"))
        assert (rc, out) == (2, "")
        assert err == "error: machine 'Taihulight' mixes benchmarks HPCG, HPL\n"

    @pytest.mark.parametrize("argv", [["timeline", "--machine", "Summit"],
                                      ["figure", "3", "--format", "svg"]])
    def test_two_rmax_values_on_one_date_is_data_error(self, capsys, tmp_path, argv):
        # one list edition holds one rmax per machine, so no ratio is made
        data = tmp_path / "twice.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_pflops,cores\n"
                        "Summit,2018.0,HPL,,122.3,\nSummit,2018.0,HPL,,100.0,\n",
                        encoding="utf-8")
        out_path = tmp_path / "out"
        rc, out, err = run(capsys, *argv, "--data", str(data), "-o", str(out_path))
        assert (rc, out, err) == (
            2, "", "error: machine 'Summit' has two rmax values on date 2018.0\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [["timeline", "--machine", "A"],
                                      ["figure", "3"]])
    def test_cell_over_csv_field_limit_is_data_error(self, capsys, tmp_path, argv):
        # the csv module refuses a field over 131,072 characters
        data = tmp_path / "big.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n"
                        + "A" * 140_000 + ",2019.0,HPL,1e17,1e16,\n",
                        encoding="utf-8")
        rc, out, err = run(capsys, *argv, "--data", str(data), "-o", str(tmp_path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: line 2") and "Traceback" not in err


class TestRelativistic:
    def test_one_day(self, capsys):
        rc, out, _ = run(capsys, "relativistic", "--t", "86400", "--n", "1")
        assert rc == 0
        v = grab(r"relativistic = ([0-9.]+) m/s", out)
        assert v == pytest.approx(847580.61, abs=0.01)
        classic = grab(r"classic = ([0-9.]+) m/s", out)
        assert abs(v - classic) / classic < 1e-5
        assert out == ("classic = 847584.000000 m/s\n"
                       "relativistic = 847580.612539 m/s\n"
                       "limit = 299792458.000000 m/s\n")

    def test_density_below_one(self, capsys):
        rc, _, _ = run(capsys, "relativistic", "--t", "1", "--n", "0.5")
        assert rc == 1

    def test_huge_time_saturates(self, capsys):
        # (t*a)^2 overflows a float; the answer is the limit, not a traceback
        rc, out, err = run(capsys, "relativistic", "--t", "1e300")
        assert (rc, err) == (0, "")  # no traceback, no warning
        values = [float(v) for v in re.findall(r"= (\S+) m/s", out)]
        assert len(values) == 3 and all(math.isfinite(v) for v in values)
        assert values[1] == values[2] == 299792458.0
        # speeds from 1e15 m/s on print in exponent form, not 301 digits
        assert out.startswith("classic = 9.810000e+300 m/s\n")

    @pytest.mark.parametrize("argv, expected", [
        (["--t", "1e-9"], ["9.810000e-09", "9.810000e-09", "299792458.000000"]),
        (["--t", "1", "--n", "1e300"], ["9.810000", "2.997925e-292", "2.997925e-292"]),
        (["--t", "1e-4"], ["9.810000e-04", "9.810000e-04", "299792458.000000"]),
        (["--t", "0"], ["0.000000", "0.000000", "299792458.000000"]),
    ])
    def test_tiny_speed_prints_in_exponent_form(self, capsys, argv, expected):
        # a nonzero speed below 1e-3 m/s would read 0.000000 in fixed point
        rc, out, err = run(capsys, "relativistic", *argv)
        assert (rc, err) == (0, "")
        assert re.findall(r"= (\S+) m/s", out) == expected


class TestFigure:
    def test_writes_csv(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "figure", "6A", "-o", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "fig6A.csv").exists()
        assert not (tmp_path / "fig6A.svg").exists()
        assert str(tmp_path / "fig6A.csv") in out

    def test_svg_format_writes_both(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "figure", "5", "--out", str(tmp_path),
                       "--format", "svg")
        assert rc == 0
        assert (tmp_path / "fig5.csv").exists()
        assert (tmp_path / "fig5.svg").exists()

    def test_name_with_a_carriage_return_reads_back_from_the_figure_csv(
            self, capsys, tmp_path):
        # RFC 4180 quotes a cell holding a bare \r, as serialize_records does
        data = tmp_path / "cr.csv"
        data.write_bytes(b'machine,date,benchmark,rpeak_flops,rmax_pflops,cores\n'
                         b'"A\rB",2018.5,HPL,,1.0,\n')
        rc, _, _ = run(capsys, "figure", "3", "--data", str(data),
                       "--out", str(tmp_path))
        assert rc == 0
        text = (tmp_path / "fig3.csv").read_bytes().decode("utf-8")
        assert text == 'series,x,y\n"A\rB",2018.5,1.0\n'
        assert list(csv.reader(io.StringIO(text, newline=""))) == [
            ["series", "x", "y"], ["A\rB", "2018.5", "1.0"]]

    def test_names_that_xml_forbids_render_as_replacement_characters(
            self, capsys, tmp_path):
        names = ["A\x01B", "C\x1cD", "E\uffffF"]
        data = tmp_path / "ctrl.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n"
                        + "".join(f"{n},2018.5,HPL,,1.0,\n" for n in names),
                        encoding="utf-8", newline="")
        rc, _, _ = run(capsys, "figure", "3", "--data", str(data),
                       "--out", str(tmp_path), "--format", "svg")
        assert rc == 0
        root = ET.fromstring((tmp_path / "fig3.svg").read_bytes())  # well-formed
        texts = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
        assert ["A\ufffdB", "C\ufffdD", "E\ufffdF"] == [t for t in texts
                                                   if "\ufffd" in t]
        text = (tmp_path / "fig3.csv").read_bytes().decode("utf-8")
        assert [row[0] for row in csv.reader(io.StringIO(text, newline=""))][1:] == names

    def test_repo_data_override(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "figure", "3",
                       "--data", str(REPO_DATA / "fig3_timeline.csv"),
                       "--out", str(tmp_path))
        assert rc == 0
        text = (tmp_path / "fig3.csv").read_text()
        assert "Summit,2019.0,148.6" in text

    def test_data_parse_warnings_reach_stderr(self, capsys, tmp_path):
        clean = REPO_DATA / "fig3_timeline.csv"
        planted = tmp_path / "planted.csv"
        planted.write_text(clean.read_text(encoding="utf-8")
                           + "Planted,2018.0,HPL,1.0,2.0,\n", encoding="utf-8")
        csv_path = tmp_path / "fig3.csv"
        rc, out, err = run(capsys, "figure", "3", "--data", str(clean),
                           "--out", str(tmp_path))
        assert (rc, err) == (0, "")
        clean_bytes = csv_path.read_bytes()
        rc, out_planted, err = run(capsys, "figure", "3", "--data", str(planted),
                                   "--out", str(tmp_path))
        assert rc == 0
        assert err.startswith("warning: line ") and err.count("\n") == 1
        assert "'Planted'" in err and "exceeds r_peak" in err
        # stdout and the figure are those of the file without the rejected row
        assert out_planted == out
        assert csv_path.read_bytes() == clean_bytes

    def test_payload_above_metadata_peak_names_the_machine(self, capsys, tmp_path):
        data = tmp_path / "points.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n"
                        "Taihulight,2016.0,HPL,,1e30,\n", encoding="utf-8")
        rc, out, err = run(capsys, "figure", "1", "--data", str(data),
                           "--out", str(tmp_path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: Taihulight: r_max 1e+30 exceeds r_peak")
        assert "machines_meta.csv" in err and "Traceback" not in err

    @pytest.mark.parametrize("text,reason", [
        (UNDERFLOW_EFFICIENCY, "efficiency must be in (0, 1], got 0.0"),
        (OVERFLOW_NONPARALLEL, "serial fraction overflows at efficiency 1e-310"),
        (UNDERFLOW_ONE_CORE, "efficiency must be in (0, 1], got 0.0"),
    ], ids=["underflow", "overflow", "underflow-one-core"])
    def test_uninvertible_efficiency_names_the_record(self, capsys, tmp_path,
                                                      text, reason):
        data = tmp_path / "points.csv"
        data.write_text(text, encoding="utf-8")
        rc, out, err = run(capsys, "figure", "1", "--data", str(data),
                           "--out", str(tmp_path))
        assert (rc, out) == (2, "")
        assert err == f"error: X (HPL, 2019.0): {reason}\n"

    def test_one_core_record_is_not_overlaid(self, capsys, tmp_path):
        # one PU gives no serial fraction, so figure 1 has no marker for it
        data = tmp_path / "points.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n"
                        "Solo,2019.0,HPL,2e15,1e15,1\n"
                        "Duo,2019.0,HPCG,2e15,1e15,2\n", encoding="utf-8")
        rc, out, err = run(capsys, "figure", "1", "--data", str(data),
                           "--out", str(tmp_path))
        # Duo's serial fraction, 1, is above the axis
        assert (rc, out) == (0, f"{tmp_path / 'fig1.csv'}\n")
        assert err == ("warning: machine 'Duo' (HPCG, 2019.0) at 2 PUs and "
                       "serial fraction 1 is outside the axes; its marker is "
                       "left out of the SVG\n")
        rows = (tmp_path / "fig1.csv").read_text(encoding="utf-8").splitlines()
        assert [r for r in rows if "measured" in r] == ["HPCG measured,2.0,0.5"]

    def test_marker_outside_the_axes_is_warned(self, capsys, tmp_path):
        # Low delivered less than one of its 4 PUs: serial fraction 19/3
        data = tmp_path / "points.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n"
                        "In,2019.0,HPL,2e18,1e18,1000000\n"
                        "Low,2019.0,HPCG,2e15,1e14,4\n", encoding="utf-8")
        rc, out, err = run(capsys, "figure", "1", "--data", str(data),
                           "--out", str(tmp_path), "--format", "svg")
        assert rc == 0
        assert err == ("warning: machine 'Low' (HPCG, 2019.0) at 4 PUs and "
                       "serial fraction 6.33333 is outside the axes; its "
                       "marker is left out of the SVG\n")
        rows = (tmp_path / "fig1.csv").read_text(encoding="utf-8").splitlines()
        assert [r for r in rows if "measured" in r] == [
            "HPCG measured,4.0,0.05", "HPL measured,1000000.0,0.5"]
        root = ET.fromstring((tmp_path / "fig1.svg").read_bytes())
        assert len(list(root.iter("{http://www.w3.org/2000/svg}circle"))) == 1

    def test_record_with_efficiency_one_is_warned(self, capsys, tmp_path):
        # rmax == rpeak on 8 cores: serial fraction 0, below the log axis
        data = tmp_path / "points.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n"
                        "Full,2019.0,HPL,2e15,2e15,8\n", encoding="utf-8")
        rc, out, err = run(capsys, "figure", "1", "--data", str(data),
                           "--out", str(tmp_path), "--format", "svg")
        assert rc == 0
        assert err == ("warning: machine 'Full' (HPL, 2019.0) at 8 PUs and "
                       "serial fraction 0 is outside the axes; its marker is "
                       "left out of the SVG\n")
        rows = (tmp_path / "fig1.csv").read_text(encoding="utf-8").splitlines()
        assert [r for r in rows if "measured" in r] == ["HPL measured,8.0,1.0"]
        root = ET.fromstring((tmp_path / "fig1.svg").read_bytes())
        assert list(root.iter("{http://www.w3.org/2000/svg}circle")) == []

    @pytest.mark.parametrize("cells,axis", [("5e-324,5e-324", "x"), ("1e15,5e-324", "y")],
                             ids=["rpeak", "rmax"])
    def test_figure4_point_at_zero_eflops_is_data_error(self, capsys, tmp_path,
                                                        cells, axis):
        # in Eflop/s the value underflows to 0, which a log axis cannot place
        data = tmp_path / "points.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_flops,cores\n"
                        f"A,2019.0,HPL,{cells},\n", encoding="utf-8")
        rc, out, err = run(capsys, "figure", "4", "--format", "svg",
                           "--data", str(data), "--out", str(tmp_path / "out"))
        assert (rc, out) == (2, "")
        assert err == f"error: series 'HPL measured' has {axis} <= 0 on a log axis\n"
        assert not (tmp_path / "out").exists()

    def test_render_error_writes_no_file(self, capsys, tmp_path, monkeypatch):
        # the SVG is rendered before the directory or either file is made
        def planted(cs):
            raise ValueError("planted")
        monkeypatch.setattr(report, "render_svg", planted)
        rc, out, err = run(capsys, "figure", "4", "--format", "svg",
                           "--out", str(tmp_path / "out"))
        assert (rc, out, err) == (2, "", "error: planted\n")
        assert not (tmp_path / "out").exists()

    def test_point_past_the_float_range_writes_no_file(self, capsys, tmp_path,
                                                       monkeypatch):
        # x = 1e300 on an axis one ulp wide would be drawn at x = inf
        axis = report.AxisSpec("x", "", "linear", 1.0, math.nextafter(1.0, 2.0))
        cs = report.CurveSet("t", axis, axis, (report.Series("s", (1.0, 1e300),
                                                             (1.0, 1.0)),))
        monkeypatch.setattr(report, "build_figure", lambda *args, **kwargs: cs)
        rc, out, err = run(capsys, "figure", "4", "--format", "svg",
                           "--out", str(tmp_path / "out"))
        assert (rc, out) == (2, "")
        assert err == "error: series 's' has a point too far off its axes to draw\n"
        assert not (tmp_path / "out").exists()

    def test_machine_without_rmax_is_left_out_with_a_warning(self, capsys, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("machine,date,benchmark,rpeak_flops,rmax_pflops,cores\n"
                        "Summit,2018.5,HPL,,143.5,\n"
                        "Ghost,2018.5,HPL,1e17,,\n", encoding="utf-8")
        rc, out, err = run(capsys, "figure", "3", "--data", str(data),
                           "--out", str(tmp_path))
        assert (rc, out) == (0, f"{tmp_path / 'fig3.csv'}\n")
        assert err == "warning: machine 'Ghost' has no rmax; left out of the figure\n"
        rows = (tmp_path / "fig3.csv").read_text(encoding="utf-8").splitlines()
        assert rows == ["series,x,y", "Summit,2018.5,143.5"]

    def test_unknown_id_lists_valid_ids(self, capsys):
        rc, _, err = run(capsys, "figure", "9")
        assert rc == 1
        for fig_id in ("1", "3", "4", "5", "6A", "6B", "6C"):
            assert fig_id in err

    @pytest.mark.parametrize("fig_id", ["5", "6A", "6B", "6C"])
    def test_data_for_a_model_figure_is_usage_error(self, capsys, tmp_path,
                                                    fig_id):
        out_dir = tmp_path / "d"
        rc, out, err = run(capsys, "figure", fig_id, "--data", "/nonexistent.csv",
                           "-o", str(out_dir))
        assert (rc, out) == (1, "")
        assert err.startswith("usage error: --data: ")
        assert not out_dir.exists()

    def test_data_help_lists_the_figures_that_read_data(self, capsys):
        rc, out, _ = run(capsys, "figure", "--help")
        assert rc == 0
        assert f"(figures {', '.join(FIGURE_DATA)})" in " ".join(out.split())

    def test_figure3_history_mixing_benchmarks_writes_no_file(self, capsys,
                                                              tmp_path):
        rc, out, err = run(capsys, "figure", "3", "--format", "svg",
                           "--data", str(REPO_DATA / "fig4_points.csv"),
                           "-o", str(tmp_path))
        assert (rc, out) == (2, "")
        assert "mixes benchmarks" in err and "Taihulight" in err
        assert list(tmp_path.iterdir()) == []


class TestImportBudget:
    @pytest.mark.parametrize("row", import_budget.ROWS, ids=lambda row: row[0])
    def test_entry_point_keeps_its_budget(self, row, tmp_path):
        assert import_budget.check(row, SRC, tmp_path) == ""

    @pytest.mark.parametrize("code, forbidden, required, expected", [
        ("import decimal", ("decimal", "zlib"), (), "loads ['decimal']"),
        ("pass", (), ("decimal",), "does not load ['decimal']"),
        ("raise ValueError('planted')", (), (), "ValueError: planted\n")],
        ids=["forbidden loaded", "required missing", "code raises"])
    def test_broken_row_is_reported(self, tmp_path, code, forbidden, required,
                                    expected):
        message = import_budget.check(("planted row", code, forbidden, required),
                                      SRC, tmp_path)
        assert message.startswith("planted row: ") and message.endswith(expected)


class TestStartup:
    @staticmethod
    def _plain_parser(monkeypatch, **kwargs):
        # an ArgumentParser that only raises on errors: argparse's own
        # formatter throughout
        class Plain(argparse.ArgumentParser):
            def __init__(self, **init):
                super().__init__(**kwargs, **init)

            def error(self, message):
                raise cli.UsageError(message)

        monkeypatch.setattr(cli, "_Parser", Plain)

    @pytest.mark.parametrize("columns", [None, "50", "0", "abc"])
    def test_help_width_is_the_one_shutil_gives(self, capsys, monkeypatch,
                                                columns):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        argvs = (["--help"], ["predict", "--help"])
        ours = [run(capsys, *argv) for argv in argvs]
        width = shutil.get_terminal_size().columns - 2
        self._plain_parser(monkeypatch, formatter_class=partial(
            argparse.HelpFormatter, width=width))
        assert [run(capsys, *argv) for argv in argvs] == ours

    @pytest.mark.parametrize("columns", ["50", "200"])
    @pytest.mark.parametrize("argv", [["--help"], ["predict", "--help"]])
    def test_help_bytes_equal_argparses_own(self, capsys, monkeypatch, columns,
                                            argv):
        monkeypatch.setenv("COLUMNS", columns)
        ours = run(capsys, *argv)
        self._plain_parser(monkeypatch)
        assert run(capsys, *argv) == ours


#: the CPython-private names the package imports, each with its public object
PRIVATE_NAMES = [
    ("_csv.reader", csv.reader),
    ("_csv.Error", csv.Error),
    ("_collections_abc.Iterable", collections.abc.Iterable),
    ("_collections_abc.Sequence", collections.abc.Sequence),
    ("_collections_abc.Callable", collections.abc.Callable),
    ("_operator.itemgetter", operator.itemgetter),
    ("_bisect.bisect_right", bisect.bisect_right),
    ("_collections._tuplegetter", type(collections.namedtuple("T", "a").a)),
]


class TestPackageRoot:
    INGEST_NAMES = ["DerivedRecord", "MachineRecord", "ParseError",
                    "TimelineEntry", "derive", "parse_records",
                    "serialize_records", "timeline"]

    def test_ingest_names_load_on_first_use(self):
        # dir() lists them before ingest loads; `import *` loads it and binds
        # ingest's own objects
        code = ("import sys, parascale\n"
                "print(sorted(set(parascale.__all__) - set(dir(parascale))))\n"
                "print('parascale.ingest' in sys.modules)\n"
                "names = {}\n"
                "exec('from parascale import *', names)\n"
                "print(sorted(set(parascale.__all__) - set(names)))\n"
                "from parascale import ingest\n"
                f"print([n for n in {self.INGEST_NAMES!r}\n"
                "       if not getattr(parascale, n) is names[n] is getattr(ingest, n)])")
        done = import_budget.run_child(code, SRC)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "False", "[]", "[]"]

    def test_in_process_an_ingest_name_loads_on_first_use(self, monkeypatch):
        import parascale
        from parascale import ingest
        assert parascale.derive is ingest.derive  # bound, so monkeypatch restores it
        monkeypatch.delitem(vars(parascale), "derive")
        assert parascale.derive is ingest.derive
        assert vars(parascale)["derive"] is ingest.derive  # bound again by __getattr__

    def test_in_process_dir_lists_every_public_name(self):
        import parascale
        assert set(parascale.__all__) <= set(dir(parascale))

    def test_unknown_name_is_attribute_error(self):
        import parascale
        with pytest.raises(AttributeError, match="no_such_name"):
            parascale.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from parascale import no_such_name  # noqa: F401

    @pytest.mark.parametrize("private,public", PRIVATE_NAMES,
                             ids=[private for private, _ in PRIVATE_NAMES])
    def test_private_stdlib_name_is_the_public_object(self, private, public):
        # the package imports these to keep csv's, collections', operator's and
        # bisect's Python layers out of start-up; an interpreter that moves one
        # fails here by its name
        module, _, name = private.rpartition(".")
        assert getattr(importlib.import_module(module), name) is public


# as the installed console script runs: `parascale = "parascale.cli:run"`
CONSOLE_SCRIPT = "import sys; from parascale.cli import run; sys.exit(run())"


class TestEntryPoint:
    @pytest.mark.parametrize("argv", [
        ["invert", "--n", "10649600", "--rpeak", "0.1254E", "--rmax", "0.0930E"],
        ["predict", "--preset", "HPL", "--rpeak", "1E"],
        ["predict", "--n", "1e6", "--p", "100G", "--alpha", "0.999999"],
        ["sweep", "--preset", "NN", "--points", "8"],
        ["timeline", "--machine", "Summit"],
        ["relativistic", "--t", "1e7"],
        ["figure", "1", "--format", "svg"],
        ["predict"],                              # usage error
        ["timeline", "--machine", "Nope"],        # data error
        ["--help"],
        ["surface"],                              # unknown command
    ], ids=" ".join)
    def test_a_process_ends_as_main_returns(self, capsys, monkeypatch, tmp_path, argv):
        # `python -m parascale.cli` and the console script enter through
        # cli.run: same exit status, stdout, stderr and files as cli.main
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("PARASCALE_DEBUG", raising=False)
        monkeypatch.chdir(tmp_path)
        gc_state = gc.get_freeze_count(), gc.isenabled()
        rc, out, err = run(capsys, *argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == gc_state
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for name, entry in (("module", ["-m", "parascale.cli"]),
                            ("console script", ["-c", CONSOLE_SCRIPT])):
            cwd = tmp_path / name
            cwd.mkdir()
            done = subprocess.run([sys.executable, "-S", *entry, *argv], cwd=cwd,
                                  env=env, capture_output=True, timeout=60)
            assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (
                rc, out, err), name
            assert {p.name: p.read_bytes() for p in cwd.iterdir()} == files, name

    def test_run_freezes_the_heap_after_main(self):
        code = ("import gc, sys\nfrom parascale.cli import run\n"
                "code = run()\nprint(code, gc.get_freeze_count() > 0)")
        done = subprocess.run([sys.executable, "-S", "-c", code, "relativistic", "--t", "1e7"],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.splitlines()[-1] == "0 True"


class TestBrokenPipe:
    def test_reader_closing_early_ends_quietly(self, tmp_path):
        # ~1 MB of rows, far beyond a pipe's buffer, so writes fail once the
        # reader is gone
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, "-S", "-m", "parascale.cli", "sweep",
                 "--preset", "HPL", "--points", "20000"],
                env=env, stdout=subprocess.PIPE, stderr=err)
            assert proc.stdout.readline() == b"rpeak_flops,rmax_flops,efficiency\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            err.seek(0)
            assert err.read() == ""

    def test_in_process_the_exit_time_flush_goes_to_devnull(self, monkeypatch):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        with open(write, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert cli.main(["sweep", "--preset", "HPL", "--points", "4"]) == 0
            assert os.path.samestat(os.fstat(write), os.stat(os.devnull))


class TestInternalError:
    @staticmethod
    def _bug(*args):
        raise KeyError("planted")

    def test_reported_without_traceback(self, capsys, monkeypatch):
        monkeypatch.delenv("PARASCALE_DEBUG", raising=False)
        monkeypatch.setattr(ingest, "timeline", self._bug)
        rc, out, err = run(capsys, "timeline", "--machine", "Summit")
        assert (rc, out) == (2, "")
        assert err == "internal error: KeyError: 'planted'\n"

    def test_debug_reraises(self, monkeypatch):
        monkeypatch.setenv("PARASCALE_DEBUG", "1")
        monkeypatch.setattr(ingest, "timeline", self._bug)
        with pytest.raises(KeyError, match="planted"):
            cli.main(["timeline", "--machine", "Summit"])


class TestHelp:
    @pytest.mark.parametrize("subcommand,needle", [
        ("predict", "flop/s"),
        ("invert", "flop/s"),
        ("sweep", "flop/s"),
        ("relativistic", "seconds"),
        ("timeline", "fractional"),
    ])
    def test_help_names_units(self, capsys, subcommand, needle):
        rc, out, _ = run(capsys, subcommand, "--help")
        assert rc == 0
        assert needle in out

    def test_no_command_is_usage_error(self, capsys):
        rc, _, _ = run(capsys)
        assert rc == 1

    def test_surface_is_not_a_command(self, capsys):
        # its grid is the nonparallel=... series of `figure 1`
        rc, out, err = run(capsys, "surface")
        assert (rc, out) == (1, "")
        assert err.startswith("usage error: ") and "invalid choice" in err
        choices = err.partition("choose from")[2]
        assert re.findall(r"\w+", choices) == ["predict", "invert", "sweep",
                                               "timeline", "relativistic", "figure"]


class TestOverflow:
    @pytest.mark.parametrize("argv,code", [(PREDICT_TINY_SLOPE, 0),
                                           (INVERT_OVERFLOW, 2),
                                           (RELATIVISTIC_OVERFLOW, 2)],
                             ids=["predict", "invert", "relativistic"])
    def test_finite_answer_or_data_error(self, capsys, argv, code):
        rc, out, err = run(capsys, *argv)
        assert rc == code
        if code == 0:  # no payload peak within float range, so no warning
            assert err == ""
            assert all(math.isfinite(float(v)) for v in re.findall(r"= (\S+)", out))
        else:
            assert out == "" and err.startswith("error: ")
            assert "overflows" in err


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NON_FINITE = re.compile(r"\b(inf|nan)\b", re.IGNORECASE)
_OVERRIDE_KEYS = [*AlphaDecomposition._fields, *MachineModel._fields]


def _options(**values):
    # --key=value keeps argparse from reading "-1e-05" as an option
    return [f"--{key}={value!r}" for key, value in values.items()]


_ARGV = st.one_of(
    st.builds(lambda n, rpeak, rmax: ["invert", *_options(n=n, rpeak=rpeak, rmax=rmax)],
              _FINITE, _FINITE, _FINITE),
    st.builds(lambda t, n, a: ["relativistic", *_options(t=t, n=n, a=a)],
              _FINITE, _FINITE, _FINITE),
    st.builds(lambda n, p, alpha: ["predict", *_options(n=n, p=p, alpha=alpha)],
              _FINITE, _FINITE, _FINITE),
    st.builds(lambda name, rpeak, key, value: [
                  "predict", "--preset", name, *_options(rpeak=rpeak),
                  f"--override={key}={value!r}"],
              st.sampled_from(["HPL", "HPCG", "NN"]), _FINITE,
              st.sampled_from(_OVERRIDE_KEYS), _FINITE),
)


class TestNumericOptionsFuzz:
    @settings(max_examples=400, derandomize=True)
    @given(argv=_ARGV)
    @example(argv=PREDICT_TINY_SLOPE)
    @example(argv=INVERT_OVERFLOW)
    @example(argv=RELATIVISTIC_OVERFLOW)
    def test_exit_code_and_finite_stdout(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
        assert not _NON_FINITE.search(out.getvalue())


class TestDataFuzz:
    """Free and mutated ``--data`` files through ``timeline``, ``figure 3``,
    ``figure 4`` and ``figure 1``, the figures as CSV and SVG."""

    # a loaded 2-vCPU host has taken longer than Hypothesis's default 0.2 s
    # on one example, so this fuzz has the figure 1 fuzz's deadline.
    @settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=2))
    @given(text=csv_text(), machine=st.sampled_from(["Summit", "Gyoukou", "A"]),
           figure=st.sampled_from([None, "3", "4"]))
    @example(text=TINY_RMAX, machine="Summit", figure=None)  # ratio overflows
    @example(text=TINY_RMAX.replace("pflops", "flops"), machine="Summit",
             figure="3")  # r_max in Pflop/s underflows to 0 on a log axis
    def test_exit_code_and_finite_output(self, tmp_path_factory, text, machine,
                                         figure):
        self._check(tmp_path_factory, text, machine, figure)

    # figure 1 draws its 64 x 512 grid whatever the data (about 0.1 s with
    # its SVG on a 2-vCPU host), so it has a deadline of its own rather than
    # Hypothesis's default 0.2 s.
    @settings(max_examples=100, derandomize=True,
              deadline=timedelta(seconds=2))
    @given(text=csv_text())
    @example(text=UNDERFLOW_EFFICIENCY)
    @example(text=OVERFLOW_NONPARALLEL)
    @example(text=UNDERFLOW_ONE_CORE)
    def test_figure1_exit_code_and_finite_output(self, tmp_path_factory, text):
        self._check(tmp_path_factory, text, None, "1")

    @staticmethod
    def _check(tmp_path_factory, text, machine, figure):
        work = tmp_path_factory.getbasetemp() / "data-fuzz"
        work.mkdir(exist_ok=True)
        data = work / "data.csv"
        data.write_text(text, encoding="utf-8")
        argv = (["figure", figure, "--format", "svg", "-o", str(work)] if figure
                else ["timeline", "--machine", machine])
        written = work / f"fig{figure}.csv"
        written.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main([*argv, "--data", str(data)])
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
        assert not _NON_FINITE.search(out.getvalue())
        if figure and rc == 0:  # the x and y columns; a name may read "nan"
            rows = written.read_text(encoding="utf-8").splitlines()
            assert all(math.isfinite(float(v))
                       for row in rows[1:] for v in row.rsplit(",", 2)[1:])
