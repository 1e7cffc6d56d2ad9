"""Command-line behavior: subcommands, exit codes, units, determinism."""

import io
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parascale import cli, report
from parascale.contributions import (DEFAULT_MACHINE, AlphaDecomposition,
                                     MachineModel, peak_point, preset)
from parascale.units import format_flops, parse_flops

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


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def grab(pattern, text):
    m = re.search(pattern, text)
    assert m, f"{pattern!r} not found in {text!r}"
    return float(m.group(1))


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

    def test_format(self):
        assert format_flops(1e11) == "100 Gflop/s"
        assert format_flops(0.1254e18, "E") == "0.1254 Eflop/s"
        assert format_flops(5.861936e15, "P") == "5.86194 Pflop/s"


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

    def test_single_pu_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "invert", "--n", "1",
                         "--rpeak", "2E", "--rmax", "1E")
        assert rc == 1
        assert "usage error" in err

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
        ["surface", "--nmax", "inf"],
        ["surface", "--npar-min", "nan"],
        ["relativistic", "--t", "inf"],
        ["relativistic", "--t", "1", "--a", "nan"],
    ])
    def test_non_finite_is_usage_error(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert "usage error" in err and "not a finite number" in err
        assert out == ""


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
        peak = peak_point(DEFAULT_MACHINE, preset("HPCG").decomposition)
        assert best == pytest.approx(peak.r_max_star, rel=0.01)

    def test_bad_range(self, capsys):
        rc, _, _ = run(capsys, "sweep", "--preset", "HPL",
                       "--rpeak-min", "2E", "--rpeak-max", "1E")
        assert rc == 1

    def test_model_error_writes_no_rows(self, capsys):
        rc, out, err = run(capsys, "sweep", "--preset", "NN", "--rpeak-max", "500E")
        assert (rc, out) == (2, "")
        assert "outside model validity" in err

    @pytest.mark.parametrize("name,fig_id", [("HPL", "6A"), ("HPCG", "6B"),
                                             ("NN", "6C")])
    def test_default_rows_are_figure_6_samples(self, capsys, name, fig_id):
        rc, out, _ = run(capsys, "sweep", "--preset", name)
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        rmax = next(s for s in report.build_figure(fig_id).series
                    if s.name == "rmax")
        assert [(float(r_peak) / 1e18, float(r_max) / 1e18)
                for r_peak, r_max, _ in rows] == list(rmax.points)


class TestSurface:
    def test_unity_efficiency_row(self, capsys):
        rc, out, _ = run(capsys, "surface", "--nmax", "1e8",
                         "--points", "16", "--rows", "4")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "series,x,y"
        corner = [line for line in lines[1:]
                  if line.split(",")[1] == "1.0" and line.split(",")[2] == "1.0"]
        assert len(corner) == 4  # every serial-fraction row starts at E(1)=1

    def test_bad_range(self, capsys):
        rc, _, _ = run(capsys, "surface", "--npar-min", "0")
        assert rc == 1


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

    def test_unknown_machine_is_data_error(self, capsys):
        rc, _, err = run(capsys, "timeline", "--machine", "Colossus")
        assert rc == 2
        assert "Colossus" in err

    def test_missing_file_is_data_error(self, capsys):
        rc, _, _ = run(capsys, "timeline", "--machine", "X",
                       "--data", "/nonexistent.csv")
        assert rc == 2


class TestRelativistic:
    def test_one_day(self, capsys):
        rc, out, _ = run(capsys, "relativistic", "--t", "86400", "--n", "1")
        assert rc == 0
        v = grab(r"relativistic = ([0-9.]+) m/s", out)
        assert v == pytest.approx(847580.61, abs=0.01)
        classic = grab(r"classic = ([0-9.]+) m/s", out)
        assert abs(v - classic) / classic < 1e-5

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

    def test_unknown_id_lists_valid_ids(self, capsys):
        rc, _, err = run(capsys, "figure", "9")
        assert rc == 1
        for fig_id in ("1", "3", "4", "5", "6A", "6B", "6C"):
            assert fig_id in err


class TestStartup:
    def test_import_loads_no_png_modules(self):
        # the heat map's PNG encoder imports these lazily; start-up pays nothing
        code = ("import sys, parascale.cli; "
                "print(sorted({'struct', 'binascii', 'base64'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


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
_OVERRIDE_KEYS = [f.name for cls in (AlphaDecomposition, MachineModel)
                  for f in fields(cls)]


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
        assert not re.search(r"\b(inf|nan)\b", out.getvalue(), re.IGNORECASE)
