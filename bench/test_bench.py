"""Self-tests of the benchmark: each output check catches a corrupted output
and the runner counts the op as failed; clean outputs pass; BENCHMARK.json
names exactly the metrics the runner prints.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import os
import random
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def failures_of(w, inp) -> list[str]:
    """Failures the runner records for one op of ``w`` on ``inp``."""
    stats = run.Stats()
    run.run_op(w, inp, stats)
    assert stats.attempted == 1
    return stats.failures


class CorruptedOp:
    """An op that returns a corrupted version of the real op's output."""

    def __init__(self, real, corrupt):
        self.real, self.corrupt = real, corrupt

    def __getattr__(self, name):
        return getattr(self.real, name)

    def __call__(self, inp):
        return self.corrupt(self.real(inp))


def corrupt_op(w, corrupt):
    w.op = CorruptedOp(w.op, corrupt)
    return w


def prepared(cls, seed=7):
    w = cls(seed)
    w.setup()
    w.prepare()
    return w


@pytest.fixture(scope="module")
def cli_workload():
    return prepared(workloads.Cli)


def small_ingest(seed=3, n_rows=400):
    w = prepared(workloads.Ingest, seed)
    return w, workloads.measurement_file(random.Random(seed), w.op.meta, n_rows)


# ---------------------------------------------------------------- clean

def test_clean_figure_passes_and_counts_bytes():
    w = prepared(workloads.Figures)
    stats = run.Stats()
    for _ in range(2):
        run.run_op(w, "3", stats)
    assert stats.failures == []
    assert stats.counts["svg.elements.3"][0] > 1
    assert stats.counts["out_bytes"][0] == (stats.counts["report.csv_bytes.3"][0]
                                            + stats.counts["svg.bytes.3"][0])


def test_clean_ingest_passes_with_planted_rejections():
    w, measurement = small_ingest()
    assert failures_of(w, measurement) == []
    planted = sum(measurement["n_planted"] for measurement in w.files)
    assert planted > 0, "the generator plants rows with r_max > r_peak"


def test_clean_model_passes():
    w = prepared(workloads.Model)
    for case in w.reference_pass(0):
        assert failures_of(w, case) == []


def test_clean_cli_child_passes(cli_workload):
    assert failures_of(cli_workload, cli_workload.pool["invert"][0]) == []


# ------------------------------------------------------------ corrupted

def test_flipped_byte_in_figure_csv_fails():
    def flip(out):
        csv_text, svg_text = out
        return csv_text[:10] + chr(ord(csv_text[10]) ^ 1) + csv_text[11:], svg_text
    w = corrupt_op(prepared(workloads.Figures), flip)
    assert "CSV differs" in failures_of(w, "3")[0]


def test_svg_that_is_not_xml_fails():
    w = corrupt_op(prepared(workloads.Figures),
                   lambda out: (out[0], out[1].replace("</svg>", "")))
    assert "well-formed" in failures_of(w, "3")[0]


def test_svg_that_changes_between_passes_fails():
    w = prepared(workloads.Figures)
    assert failures_of(w, "5") == []
    corrupt_op(w, lambda out: (out[0], out[1].replace("<svg ", "<svg  ", 1)))
    assert "first pass" in failures_of(w, "5")[0]


def test_cli_nonzero_exit_fails(cli_workload):
    argv = cli_workload.pool["sweep"][0]
    _, stdout = cli_workload.expected[tuple(argv)]
    cli_workload.run = lambda argv, tracer=None: (
        workloads.CliResult(1, stdout, b"usage error", 0.01), 0.05, 0.06, 5.0)
    try:
        assert "exit code 1" in failures_of(cli_workload, argv)[0]
    finally:
        del cli_workload.run


def test_cli_stdout_mismatch_and_nonfinite_fail(cli_workload):
    argv = cli_workload.pool["invert"][1]
    code, stdout = cli_workload.expected[tuple(argv)]
    wrong = workloads.CliResult(0, stdout[:-2] + b"\n", b"", 0.01)
    with pytest.raises(workloads.CheckFailed, match="differs"):
        cli_workload.check(argv, wrong)
    cli_workload.expected[tuple(argv)] = (code, b"efficiency = nan\n")
    try:
        with pytest.raises(workloads.CheckFailed, match="non-finite"):
            cli_workload.check(argv, workloads.CliResult(
                0, b"efficiency = nan\n", b"", 0.01))
    finally:
        cli_workload.expected[tuple(argv)] = (code, stdout)


def test_dropped_ingest_row_fails():
    def drop_record(out):
        records, *rest = out
        return (records[1:], *rest)
    w, measurement = small_ingest()
    corrupt_op(w, drop_record)
    assert "generated" in failures_of(w, measurement)[0]


def test_ingest_round_trip_loss_fails():
    def drop_reparsed(out):
        *head, reparsed, rewarnings = out
        return (*head, reparsed[:-1], rewarnings)
    w, measurement = small_ingest()
    corrupt_op(w, drop_reparsed)
    assert "parse(serialize" in failures_of(w, measurement)[0]


def test_model_inversion_off_by_1e_5_fails():
    def skew(out):
        peak, recovered = out
        return peak, recovered[:-1] + [recovered[-1] * (1 + 1e-5)]
    w = corrupt_op(prepared(workloads.Model), skew)
    assert "inversion" in failures_of(w, w.reference_pass(0)[0])[0]


def test_model_peak_off_by_2_percent_fails():
    class Shifted:
        def __init__(self, peak):
            self.n_star = peak.n_star * 1.02
    w = corrupt_op(prepared(workloads.Model),
                   lambda out: (Shifted(out[0]), out[1]))
    assert "n_star" in failures_of(w, w.reference_pass(0)[0])[0]


def test_raising_op_counts_as_failed():
    def boom(out):
        raise ValueError("boom")
    w = corrupt_op(prepared(workloads.Model), boom)
    assert "ValueError: boom" in failures_of(w, w.reference_pass(0)[0])[0]


def test_wrong_setup_child_output_counts_as_failed(monkeypatch):
    w = prepared(workloads.Model)

    def lost_point(w, first_input, floor_first):
        peak, recovered = w.op(first_input)
        return 0.1, 0.05, (peak, recovered[:-1]), 20_000
    monkeypatch.setattr(run, "setup_sample", lost_point)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    stats = run.Stats()
    samples, _, _ = run.run_untraced(w, w.inputs(), 0.01, stats)
    assert samples == []
    assert [f for f in stats.failures if "set-up" in f and "lost points" in f]


def test_setup_child_returns_its_output_for_checking():
    w = prepared(workloads.Model)
    case = w.reference_pass(0)[0]
    seconds, floor, out, peak_kib = run.setup_sample(w, case, floor_first=True)
    assert floor > 0 and peak_kib > 1024
    assert w.check(case, out) == {"out_bytes": 0}


def test_cli_setup_child_output_is_checked(cli_workload):
    argv = cli_workload.pool["timeline"][0]
    _, _, out, _ = run.setup_sample(cli_workload, argv, floor_first=False)
    assert cli_workload.check(argv, out)["out_bytes"] > 0
    code, stdout = cli_workload.expected[tuple(argv)]
    cli_workload.expected[tuple(argv)] = (code, stdout + b"extra\n")
    try:
        with pytest.raises(workloads.CheckFailed, match="differs"):
            cli_workload.check(argv, out)
    finally:
        cli_workload.expected[tuple(argv)] = (code, stdout)


def test_op_cost_is_mean_over_labels_of_median_ratio():
    stats = run.Stats()
    stats.costs.update({"1": [10.0, 12.0, 11.0], "3": [1.0]})
    assert stats.op_cost_rel == 6.0


# ------------------------------------------------------------- contract

def test_benchmark_json_names_the_runner_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.layer_metric_units()


def test_figure_reference_ids_match_the_program():
    from parascale import report
    assert tuple(run.figure_ids()) == tuple(report.FIGURE_IDS)
