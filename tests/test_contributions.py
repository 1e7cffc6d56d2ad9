"""Overhead-decomposition tests: preset constants, curve shapes, peak search.

Frozen expected values come from 50-digit decimal evaluation of the closed
forms (oracle comments give the expression).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from peak_search import numeric_peak_n

from parascale.contributions import (DEFAULT_MACHINE, AlphaDecomposition,
                                     MachineModel, ModelDomainError,
                                     alpha_os, alpha_total, analytic_peak_n,
                                     peak_point, preset, rmax_of_rpeak)
from parascale.model import ParallelSystem, modern_total_perf


def replace(record, **changes):
    """A copy of ``record`` with ``changes``, built through its validating
    constructor (the record's ``_replace`` would skip the checks)."""
    return type(record)(**{**record._asdict(), **changes})


HPL = preset("HPL")
HPCG = preset("HPCG")
NN = preset("NN")


class TestPresets:
    def test_hpl_constants(self):
        assert HPL.alpha_sw == 2e-8
        assert HPL.ctx_switch_clocks == 1e4
        assert HPL.total_clocks == 2e13
        assert HPL.loop_clocks_per_pu == 1.0
        assert HPL.bio_factor == 1.0

    def test_hpcg_constants(self):
        assert HPCG.alpha_sw == 2e-6
        assert HPCG.ctx_switch_clocks == 1e4

    def test_nn_constants(self):
        assert NN.alpha_sw == 2e-6
        assert NN.bio_factor == 5000.0

    def test_shared_machine(self):
        assert DEFAULT_MACHINE.perf_per_pu == 100e9

    @pytest.mark.parametrize("name,fields", [
        ("HPL", (2e-8, 1e4, 2e13, 1.0, 1.0)),
        ("HPCG", (2e-6, 1e4, 2e13, 1.0, 1.0)),
        ("NN", (2e-6, 1e4, 2e13, 1.0, 5000.0))])
    def test_decomposition_field_for_field(self, name, fields):
        d = preset(name)
        assert tuple(d) == fields
        assert type(d) is AlphaDecomposition

    def test_lookup_case_insensitive(self):
        assert preset("hpcg") is preset("HPCG")

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("LINPACK2000")

    def test_overrides(self):
        d = replace(HPL, alpha_sw=7e-7)
        assert d.alpha_sw == 7e-7
        assert d.total_clocks == HPL.total_clocks


class TestAlphaOs:
    def test_constant_term(self):
        # context-switch floor: 1e4 / 2e13 = 5e-10
        assert HPL.constant_part - HPL.alpha_sw == pytest.approx(5e-10, rel=1e-12)

    def test_million_pus_hpl(self):
        # oracle: 5e-10 + 1e6/2e13 = 5.05e-8
        assert alpha_os(1e6, HPL) == pytest.approx(5.05e-8, rel=1e-12)

    def test_million_pus_nn(self):
        # oracle: 5e-10 + 5000*1e6/2e13 = 2.500005e-4
        assert alpha_os(1e6, NN) == pytest.approx(2.500005e-4, rel=1e-12)

    def test_linear_in_n(self):
        assert (alpha_os(2e6, HPL) - alpha_os(1e6, HPL)) == pytest.approx(
            alpha_os(3e6, HPL) - alpha_os(2e6, HPL), rel=1e-9)


class TestAlphaTotal:
    def test_hpl_small_n(self):
        assert HPL.constant_part == pytest.approx(2.05e-8, rel=1e-12)

    def test_hpcg_small_n(self):
        assert HPCG.constant_part == pytest.approx(2.0005e-6, rel=1e-12)

    def test_nn_at_measured_scale(self):
        # oracle: 2e-6 + 5e-10 + 5000*58700/2e13 = 1.66755e-5
        assert alpha_total(58700, NN) == pytest.approx(1.66755e-5, rel=1e-12)

    def test_validity_guard(self):
        with pytest.raises(ModelDomainError, match=r"at N=4\.1e\+09: "):
            alpha_total(4.1e9, NN)  # 5000*4.1e9/2e13 > 1

    @settings(max_examples=300, derandomize=True)
    @given(n1=st.integers(min_value=1, max_value=10**9),
           n2=st.integers(min_value=1, max_value=10**9),
           which=st.sampled_from(["HPL", "HPCG", "NN"]))
    def test_affine_in_n(self, n1, n2, which):
        d = preset(which)
        a1, a2 = alpha_total(n1, d), alpha_total(n2, d)
        # exact up to rounding of the evaluations themselves
        tol = 16 * math.ulp(max(a1, a2))
        assert abs((a2 - a1) - d.slope * (n2 - n1)) <= tol


class TestRmaxOfRpeak:
    def test_hpl_reference_machine(self):
        # oracle: 0.00587e18 / (1 + (58700-1)*2.3435e-8) = 5861936255624438.35
        point = rmax_of_rpeak(0.00587e18, DEFAULT_MACHINE, HPL)
        assert point.r_max == pytest.approx(5861936255624438.35, rel=1e-12)
        # the measured reference value at this nominal performance is
        # 0.005 Eflop/s; the model line passes near it
        assert point.r_max == pytest.approx(0.005e18, rel=0.2)

    def test_hpcg_reference_machine(self):
        # oracle: 0.00587e18 / (1 + 58699*2.003435e-6) = 5252328147608880.76;
        # far above the measured 0.000095 Eflop/s dot, which is an overlay,
        # not a model fit (frozen gap factor 55.29)
        point = rmax_of_rpeak(0.00587e18, DEFAULT_MACHINE, HPCG)
        assert point.r_max == pytest.approx(5252328147608880.76, rel=1e-12)
        assert 50 < point.r_max / 0.000095e18 < 60

    def test_nn_near_peak(self):
        # oracle: 0.00632e18 / (1 + (63200-1)*1.7800535e-5) = 2974154317331854.7
        point = rmax_of_rpeak(0.00632e18, DEFAULT_MACHINE, NN)
        assert point.r_max == pytest.approx(2974154317331854.7, rel=1e-12)
        peak = peak_point(DEFAULT_MACHINE, NN)
        assert point.r_max == pytest.approx(peak.r_max_star, rel=1e-3)

    def test_below_one_pu_rejected(self):
        with pytest.raises(ValueError, match="below one PU"):
            rmax_of_rpeak(1e9, DEFAULT_MACHINE, HPL)

    @pytest.mark.parametrize("r_peak,perf_per_pu", [(0.5e18, 1e-300),
                                                     (math.inf, 1e9)])
    def test_overflowing_pu_count_rejected(self, r_peak, perf_per_pu):
        # N = r_peak / perf_per_pu is inf: name the overflow, not an N=inf
        with pytest.raises(ValueError, match="PU count r_peak / perf_per_pu overflows"):
            rmax_of_rpeak(r_peak, MachineModel(perf_per_pu), HPL)

    def test_efficiency_attached(self):
        point = rmax_of_rpeak(1e15, DEFAULT_MACHINE, HPL)
        assert point.efficiency == pytest.approx(point.r_max / point.r_peak, rel=1e-12)

    @settings(max_examples=1000, derandomize=True)
    @given(r_peak=st.floats(min_value=1e11, max_value=1e19))
    def test_benchmark_ordering(self, r_peak):
        # more serial fraction never helps
        r_hpl = rmax_of_rpeak(r_peak, DEFAULT_MACHINE, HPL).r_max
        r_hpcg = rmax_of_rpeak(r_peak, DEFAULT_MACHINE, HPCG).r_max
        r_nn = rmax_of_rpeak(r_peak, DEFAULT_MACHINE, NN).r_max
        assert r_hpl >= r_hpcg >= r_nn


class TestPeakPoint:
    def test_hpl_peak(self):
        # oracle: N* = sqrt((1-2.05e-8)*2e13) = 4472135.909, i.e. about
        # 0.447 Eflop/s nominal on the 100 Gflop/s machine
        peak = peak_point(DEFAULT_MACHINE, HPL)
        assert peak.n_star == pytest.approx(4472135.909, rel=1e-4)
        assert peak.r_peak_star == pytest.approx(0.44721359e18, rel=1e-4)
        assert 0.3e18 < peak.r_peak_star < 0.7e18
        assert peak.r_max_star == pytest.approx(0.21380608e18, rel=1e-4)

    def test_nn_peak(self):
        # oracle: N* = sqrt((1-2.0005e-6)*2e13/5000) = 63245.49
        peak = peak_point(DEFAULT_MACHINE, NN)
        assert peak.n_star == pytest.approx(63245.49, rel=1e-4)
        assert peak.r_peak_star == pytest.approx(0.0063245e18, rel=1e-4)

    def test_no_interior_maximum(self):
        flat = AlphaDecomposition(alpha_sw=1e-6, ctx_switch_clocks=1e4,
                                  total_clocks=2e13, loop_clocks_per_pu=0.0)
        with pytest.raises(ValueError, match="no interior maximum"):
            peak_point(DEFAULT_MACHINE, flat)
        with pytest.raises(ValueError, match="no interior maximum"):
            analytic_peak_n(flat)

    def test_slope_too_small_for_a_finite_peak(self):
        # oracle: slope = 1.6e-308 / 2e13 rounds to a subnormal, and
        # sqrt((1 - a) / slope) overflows to inf
        tiny = replace(NN, loop_clocks_per_pu=1.6e-308)
        assert tiny.slope > 0
        with pytest.raises(ValueError, match="no finite interior maximum"):
            analytic_peak_n(tiny)
        with pytest.raises(ValueError, match="no finite interior maximum"):
            peak_point(DEFAULT_MACHINE, tiny)

    def test_peak_beyond_the_float_range_of_r_peak(self):
        # N* = 6.3e149 is finite, but N* * 1e200 flop/s per PU is not
        huge = replace(NN, loop_clocks_per_pu=1e-290)
        with pytest.raises(ValueError, match="no finite interior maximum"):
            peak_point(MachineModel(1e200), huge)

    @pytest.mark.parametrize("which", ["HPL", "HPCG", "NN"])
    def test_numeric_matches_analytic(self, which):
        d = preset(which)
        closed_form = peak_point(DEFAULT_MACHINE, d).n_star
        assert numeric_peak_n(DEFAULT_MACHINE, d) == pytest.approx(
            closed_form, rel=1e-4)

    @pytest.mark.parametrize("params", [
        dict(alpha_sw=0.0, ctx_switch_clocks=0.0, total_clocks=0.5),  # N* < 1
        dict(alpha_sw=1.0, ctx_switch_clocks=0.0, total_clocks=2e13),
        dict(alpha_sw=0.5, ctx_switch_clocks=1e13, total_clocks=2e13),
        # 1 - a = -1e600 is past the float range
        dict(alpha_sw=0.0, ctx_switch_clocks=1e300, total_clocks=1e-300),
    ], ids=["n_star_below_one", "alpha_sw_one", "constant_part_one",
            "constant_part_past_the_float_range"])
    def test_no_interior_maximum_outside_domain(self, params):
        d = AlphaDecomposition(**params)
        with pytest.raises(ValueError, match="no interior maximum"):
            analytic_peak_n(d)
        with pytest.raises(ValueError, match="no interior maximum"):
            peak_point(DEFAULT_MACHINE, d)

    def test_integer_neighbour_stays_inside_validity(self):
        # oracle: N* = sqrt(1.44) = 1.2; the validity bound is N*^2 = 1.44,
        # so N = 2 lies outside the model, but the payload is taken at N*
        # itself, which lies inside it: no ModelDomainError
        d = AlphaDecomposition(alpha_sw=0.0, ctx_switch_clocks=0.0,
                               total_clocks=1.44)
        peak = peak_point(DEFAULT_MACHINE, d)
        assert peak.n_star == pytest.approx(1.2, rel=1e-12)
        assert peak.r_peak_star == 1.2 * DEFAULT_MACHINE.perf_per_pu
        assert peak.r_max_star == rmax_of_rpeak(
            1.2 * DEFAULT_MACHINE.perf_per_pu, DEFAULT_MACHINE, d).r_max
        with pytest.raises(ModelDomainError):
            rmax_of_rpeak(2 * DEFAULT_MACHINE.perf_per_pu, DEFAULT_MACHINE, d)

    @settings(max_examples=300, derandomize=True)
    @given(alpha_sw=st.floats(min_value=0.0, max_value=1e-4),
           ctx=st.floats(min_value=0.0, max_value=1e6),
           total=st.floats(min_value=1e10, max_value=1e15),
           loop=st.floats(min_value=1e-3, max_value=1e3))
    def test_unimodal(self, alpha_sw, ctx, total, loop):
        d = AlphaDecomposition(alpha_sw=alpha_sw, ctx_switch_clocks=ctx,
                               total_clocks=total, loop_clocks_per_pu=loop)
        assume(d.constant_part < 0.5)
        peak = peak_point(DEFAULT_MACHINE, d)
        assume(peak.n_star >= 2.0)

        def rmax(n):
            return rmax_of_rpeak(n * DEFAULT_MACHINE.perf_per_pu,
                                 DEFAULT_MACHINE, d).r_max

        assert rmax(peak.n_star / 2) < peak.r_max_star
        assert rmax(peak.n_star * 2) < peak.r_max_star


def decompositions(max_alpha_sw):
    """Decompositions whose per-PU part stays below 0.1 up to N = 1e7, so
    the serial fraction is below 1 wherever alpha_sw <= 0.875."""
    return st.builds(
        AlphaDecomposition, alpha_sw=st.floats(0.0, max_alpha_sw),
        ctx_switch_clocks=st.floats(0.0, 1e6), total_clocks=st.floats(1e13, 1e16),
        loop_clocks_per_pu=st.floats(1e-3, 10.0), bio_factor=st.floats(1.0, 1e4))


def exact_alpha_total(n_proc, d):
    """alpha_sw + (ctx + bio * loop * N) / total in exact arithmetic."""
    return Fraction(d.alpha_sw) + (
        Fraction(d.ctx_switch_clocks)
        + Fraction(d.bio_factor) * Fraction(d.loop_clocks_per_pu) * Fraction(n_proc)
    ) / Fraction(d.total_clocks)


def ulps(got, exact):
    """Distance of ``got`` from ``exact`` in ulps of the float nearest ``exact``."""
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))


class TestExactOracle:
    """Each formula against exact arithmetic at its float arguments, within
    one ulp per rounding it performs."""

    @settings(max_examples=300, derandomize=True)
    @given(d=decompositions(0.875), n_proc=st.floats(1.0, 1e7))
    def test_alpha_total(self, d, n_proc):
        # six roundings: ctx / total, bio * loop, * N, / total and two sums
        assert ulps(alpha_total(n_proc, d), exact_alpha_total(n_proc, d)) <= 6

    @settings(max_examples=300, derandomize=True)
    @given(d=decompositions(0.875), perf_per_pu=st.floats(1e6, 1e12),
           n_proc=st.floats(1.0, 1e7))
    def test_rmax_of_rpeak(self, d, perf_per_pu, n_proc):
        r_peak = n_proc * perf_per_pu
        point = rmax_of_rpeak(r_peak, MachineModel(perf_per_pu), d)
        # exact at the float PU count r_peak / perf_per_pu the model starts
        # from: six roundings in alpha_total, four in the efficiency
        # (N - 1, product, sum, reciprocal) and one in r_peak * efficiency
        n = Fraction(r_peak / perf_per_pu)
        eff = 1 / (1 + (n - 1) * exact_alpha_total(n, d))
        assert ulps(point.efficiency, eff) <= 10
        assert ulps(point.r_max, r_peak * eff) <= 11

    @settings(max_examples=300, derandomize=True)
    @given(d=decompositions(0.9999999))
    # ctx / total within 1 % of 1 - alpha_sw, which the draws do not reach,
    # for alpha_sw = 0, below 1/2 and above it: there, rounding ctx / total
    # or 1 - alpha_sw before the subtraction would be magnified past the bound
    @example(d=AlphaDecomposition(0.0, 4.77594e14, 4.78e14))
    @example(d=AlphaDecomposition(0.0159, 5.30709e14, 5.43e14))
    @example(d=AlphaDecomposition(0.719, 2.53189e13, 9.06e13))
    # the same corner with total_clocks past 1e300, and a huge total_clocks
    # far from it: 1 - a is exact there too
    @example(d=AlphaDecomposition(0.0, 4.77594e302, 4.78e302))
    @example(d=AlphaDecomposition(0.3, 6.9e304, 1e305))
    @example(d=AlphaDecomposition(0.0, 9.99e304, 1e305))
    @example(d=AlphaDecomposition(2e-8, 1e4, 1e305))
    def test_analytic_peak_n(self, d):
        # N* = sqrt((1 - a) / b), a = alpha_sw + ctx / total, b = bio * loop /
        # total: five roundings (one in 1 - a, two in b, the quotient, sqrt).
        # 1 - a is one exact quotient of integers rounded once, so no rounding
        # is magnified where ctx / total nears 1 - alpha_sw.
        a = Fraction(d.alpha_sw) + Fraction(d.ctx_switch_clocks) / Fraction(d.total_clocks)
        b = (Fraction(d.bio_factor) * Fraction(d.loop_clocks_per_pu)
             / Fraction(d.total_clocks))
        assume(b < 1 - a)
        got = Fraction(analytic_peak_n(d))
        tol = 5 * Fraction(math.ulp(float(got)))
        # sqrt((1 - a) / b) is within tol of got iff (1 - a) / b lies between
        # the squares of got - tol and got + tol
        assert (got - tol) ** 2 <= (1 - a) / b <= (got + tol) ** 2


class TestCrossModule:
    @settings(max_examples=300, derandomize=True)
    @given(n=st.integers(min_value=1, max_value=10**8),
           nonparallel=st.floats(min_value=1e-10, max_value=0.99))
    def test_degenerate_decomposition_is_plain_model(self, n, nonparallel):
        # with no context-switch or looping cost the decomposition collapses
        # to a constant serial fraction, and the two routes must agree exactly
        d = AlphaDecomposition(alpha_sw=nonparallel, ctx_switch_clocks=0.0,
                               total_clocks=2e13, loop_clocks_per_pu=0.0)
        perf = DEFAULT_MACHINE.perf_per_pu
        via_curve = rmax_of_rpeak(n * perf, DEFAULT_MACHINE, d).r_max
        via_model = modern_total_perf(
            ParallelSystem.from_nonparallel(n, perf, nonparallel))
        assert via_curve == via_model

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaDecomposition(alpha_sw=-1e-9, ctx_switch_clocks=0,
                               total_clocks=1e13)
        with pytest.raises(ValueError):
            AlphaDecomposition(alpha_sw=0, ctx_switch_clocks=0, total_clocks=0)
        with pytest.raises(ValueError):
            MachineModel(perf_per_pu=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha_sw", "ctx_switch_clocks",
                                       "total_clocks", "loop_clocks_per_pu",
                                       "bio_factor"])
    def test_decomposition_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(HPL, **{field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_machine_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="perf_per_pu must be finite"):
            MachineModel(perf_per_pu=bad)
