"""Core formula tests: frozen oracle values, edge cases and properties.

Expected values marked "oracle" were computed independently with 50-digit
decimal arithmetic and frozen here.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parascale.model import (LIGHT_SPEED, ParallelSystem, PerformancePoint,
                             RelativisticParams, alpha_from_measurement,
                             classic_speed, classic_total_perf, efficiency,
                             efficiency_from_nonparallel, modern_total_perf,
                             relativistic_speed, saturation_limit)

TAIHULIGHT_CORES = 10_649_600


class TestClassicTotalPerf:
    def test_single_pu(self):
        assert classic_total_perf(ParallelSystem(1, 100e9, 0.5)) == 100e9

    def test_linear_scaling(self):
        assert classic_total_perf(ParallelSystem(1e6, 100e9, 1.0)) == 0.1e18

    def test_taihulight_peak(self):
        # per-PU perf back-computed from r_peak / cores; oracle: the product
        # must reconstruct the nominal performance
        per_pu = 0.1254e18 / TAIHULIGHT_CORES
        sys = ParallelSystem(TAIHULIGHT_CORES, per_pu, 1.0)
        assert classic_total_perf(sys) == pytest.approx(0.1254e18, rel=1e-12)
        assert per_pu == pytest.approx(11.78e9, rel=1e-3)


class TestModernTotalPerf:
    def test_fully_parallel_equals_classic(self):
        sys = ParallelSystem(123456, 3.7e9, 1.0)
        assert modern_total_perf(sys) == classic_total_perf(sys)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_single_pu_returns_perf_single(self, alpha):
        assert modern_total_perf(ParallelSystem(1, 42e9, alpha)) == 42e9

    def test_measured_scale_system(self):
        # oracle: 58700*100e9 / (1 + 58699*2.34e-8) = 5861948282248059.5
        sys = ParallelSystem.from_nonparallel(58700, 100e9, 2.34e-8)
        assert modern_total_perf(sys) == pytest.approx(5861948282248059.5, rel=1e-12)
        assert modern_total_perf(sys) == pytest.approx(0.00586e18, rel=1e-3)


class TestEfficiency:
    def test_single_pu_always_one(self):
        assert efficiency(1, 0.5) == 1.0

    def test_perfect_parallelism(self):
        assert efficiency(1e6, 1.0) == 1.0

    def test_taihulight_hpl_value(self):
        # oracle: 1 / (1 + 10649599*3.3e-8) = 0.73995322934705979
        eff = efficiency_from_nonparallel(TAIHULIGHT_CORES, 3.3e-8)
        assert eff == pytest.approx(0.73995322934705979, rel=1e-12)
        assert eff == pytest.approx(0.740, abs=5e-4)
        # the directly measured value is r_max/r_peak = 0.0930/0.1254
        assert eff == pytest.approx(0.0930 / 0.1254, rel=3e-3)

    def test_strictly_decreasing_in_n(self):
        values = [efficiency(n, 0.999) for n in (1, 10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            efficiency(10, 1.5)


class TestAlphaFromMeasurement:
    def test_perfect_efficiency_two_pus(self):
        assert alpha_from_measurement(2, 1.0) == 0.0

    def test_taihulight_hpl(self):
        # oracle: (0.1254/0.0930 - 1) / 10649599 = 3.2713635205813247e-08
        got = alpha_from_measurement(TAIHULIGHT_CORES, 0.0930 / 0.1254)
        assert got == pytest.approx(3.2713635205813247e-08, rel=1e-12)
        assert got == pytest.approx(3.3e-8, rel=0.10)

    def test_taihulight_hpcg(self):
        # oracle: (0.1254/0.000480 - 1) / 10649599 = 2.4437539854787021e-05
        got = alpha_from_measurement(TAIHULIGHT_CORES, 0.000480 / 0.1254)
        assert got == pytest.approx(2.4437539854787021e-05, rel=1e-12)
        assert got == pytest.approx(2.4e-5, rel=0.10)

    def test_degenerate_below_two_pus(self):
        with pytest.raises(ValueError, match="degenerate"):
            alpha_from_measurement(1, 0.9)

    @pytest.mark.parametrize("eff", [0.0, -0.1, 1.1])
    def test_invalid_efficiency(self, eff):
        with pytest.raises(ValueError):
            alpha_from_measurement(100, eff)

    def test_overflow_is_an_error(self):
        # oracle: 1 / 4.9e-316 overflows to inf; the result is not finite
        with pytest.raises(ValueError, match="overflows"):
            alpha_from_measurement(4.5e252, 4.9e-316)


class TestSaturationLimit:
    def test_fully_serial(self):
        assert saturation_limit(100e9, 1.0) == 100e9

    def test_direct_division(self):
        assert saturation_limit(100e9, 1e-8) == 1e19

    def test_large_n_approaches_limit(self):
        sys = ParallelSystem.from_nonparallel(1e10, 100e9, 1e-8)
        limit = saturation_limit(100e9, 1e-8)
        assert abs(modern_total_perf(sys) - limit) / limit < 0.01

    def test_zero_nonparallel_unbounded(self):
        with pytest.raises(ValueError):
            saturation_limit(100e9, 0.0)


class TestSpeeds:
    def test_zero_time(self):
        assert classic_speed(0, 9.81) == 0.0
        assert relativistic_speed(0, RelativisticParams()) == 0.0

    def test_classic_values(self):
        assert classic_speed(1, 9.81) == 9.81
        assert classic_speed(86_400, 9.81) == pytest.approx(847_584.0)

    def test_one_day_under_gravity(self):
        # oracle: 847584 / sqrt(1 + (847584/c)^2) = 847580.61253946304
        v = relativistic_speed(86_400, RelativisticParams())
        assert v == pytest.approx(847580.61253946304, rel=1e-12)
        # agrees with the classic value to within 0.001 %
        assert abs(v - 847_584.0) / 847_584.0 < 1e-5

    def test_asymptote_c_over_n(self):
        p1 = RelativisticParams(density=1.0)
        v = relativistic_speed(1e12, p1)
        assert v < LIGHT_SPEED
        assert v > 0.9999999 * LIGHT_SPEED
        p2 = RelativisticParams(density=2.0)
        v2 = relativistic_speed(1e12, p2)
        assert v2 < LIGHT_SPEED / 2
        assert v2 > 0.9999999 * LIGHT_SPEED / 2

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            relativistic_speed(-1.0, RelativisticParams())

    def test_classic_overflow_is_an_error(self):
        assert math.isfinite(classic_speed(1e300, 9.81))
        with pytest.raises(ValueError, match="overflows"):
            classic_speed(1e300, 1e300)

    @pytest.mark.parametrize("t,accel", [(1e300, 9.81), (1e300, 1e300),
                                         (1.4e154 * LIGHT_SPEED, 1.0)])
    def test_huge_argument_is_the_limit(self, t, accel):
        # (t*a / (c/n))^2 overflows a float here; the speed is c/n
        for density in (1.0, 2.0):
            p = RelativisticParams(accel=accel, density=density)
            assert relativistic_speed(t, p) == p.limit_speed


class TestValidation:
    def test_parallel_system_invariants(self):
        with pytest.raises(ValueError):
            ParallelSystem(0, 100e9, 0.5)
        with pytest.raises(ValueError):
            ParallelSystem(10, -1.0, 0.5)
        with pytest.raises(ValueError):
            ParallelSystem(10, 100e9, 1.5)

    def test_nonparallel_reported_alongside_alpha(self):
        sys = ParallelSystem(10, 100e9, 0.75)
        assert sys.nonparallel == pytest.approx(0.25)
        sys2 = ParallelSystem.from_nonparallel(10, 100e9, 3.3e-8)
        assert sys2.nonparallel == 3.3e-8
        assert sys2.alpha == pytest.approx(1.0, abs=1e-7)

    def test_relativistic_params_invariants(self):
        with pytest.raises(ValueError):
            RelativisticParams(accel=-1)
        with pytest.raises(ValueError):
            RelativisticParams(density=0.5)

    def test_performance_point(self):
        p = PerformancePoint(r_peak=200e15, r_max=100e15)
        assert p.efficiency == 0.5
        with pytest.raises(ValueError):
            PerformancePoint(r_peak=100e15, r_max=200e15)

    @pytest.mark.parametrize("cls,kwargs", [
        (ParallelSystem, dict(n_proc=math.nan, perf_single=1e9, alpha=0.5)),
        (ParallelSystem, dict(n_proc=math.inf, perf_single=1e9, alpha=0.5)),
        (ParallelSystem, dict(n_proc=10, perf_single=math.nan, alpha=0.5)),
        (ParallelSystem, dict(n_proc=10, perf_single=math.inf, alpha=0.5)),
        (ParallelSystem, dict(n_proc=10, perf_single=1e9, alpha=math.nan)),
        (ParallelSystem, dict(n_proc=10, perf_single=1e9, alpha=0.5,
                              nonparallel=math.inf)),
        (RelativisticParams, dict(accel=math.nan)),
        (RelativisticParams, dict(accel=math.inf)),
        (RelativisticParams, dict(light_speed=math.nan)),
        (RelativisticParams, dict(light_speed=math.inf)),
        (RelativisticParams, dict(density=math.nan)),
        (RelativisticParams, dict(density=math.inf)),
        (PerformancePoint, dict(r_peak=math.nan, r_max=1e15)),
        (PerformancePoint, dict(r_peak=math.inf, r_max=1e15)),
        (PerformancePoint, dict(r_peak=math.inf, r_max=math.inf)),
        (PerformancePoint, dict(r_peak=2e15, r_max=math.nan)),
        (PerformancePoint, dict(r_peak=2e15, r_max=1e15, efficiency=math.inf)),
    ])
    def test_non_finite_fields_rejected(self, cls, kwargs):
        # nan in nonparallel or efficiency means "derive it", so only
        # infinities are tried there
        with pytest.raises(ValueError):
            cls(**kwargs)


class TestProperties:
    @settings(max_examples=300, derandomize=True)
    @given(n=st.integers(min_value=2, max_value=10**8),
           eff=st.floats(min_value=1e-4, max_value=1.0))
    def test_inversion_round_trip(self, n, eff):
        nonparallel = alpha_from_measurement(n, eff)
        back = efficiency_from_nonparallel(n, nonparallel)
        assert back == pytest.approx(eff, rel=1e-12)

    @settings(max_examples=300, derandomize=True)
    @given(n=st.floats(min_value=1.0, max_value=1e8),
           perf=st.floats(min_value=1.0, max_value=1e15),
           alpha=st.floats(min_value=0.0, max_value=1.0))
    def test_modern_is_classic_times_efficiency(self, n, perf, alpha):
        sys = ParallelSystem(n, perf, alpha)
        expected = classic_total_perf(sys) * efficiency(n, alpha)
        assert modern_total_perf(sys) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=300, derandomize=True)
    @given(nonparallel=st.floats(min_value=1e-10, max_value=1.0),
           n1=st.floats(min_value=1.0, max_value=1e9),
           factor=st.floats(min_value=1.001, max_value=1e3))
    def test_monotone_and_bounded_by_saturation(self, nonparallel, n1, factor):
        perf = 100e9
        s1 = ParallelSystem.from_nonparallel(n1, perf, nonparallel)
        s2 = ParallelSystem.from_nonparallel(n1 * factor, perf, nonparallel)
        m1, m2 = modern_total_perf(s1), modern_total_perf(s2)
        limit = saturation_limit(perf, nonparallel)
        assert m2 >= m1 * (1.0 - 1e-12)
        assert m1 <= limit * (1.0 + 1e-12)
        assert m2 <= limit * (1.0 + 1e-12)

    @settings(max_examples=300, derandomize=True)
    @given(t=st.floats(min_value=0.0, max_value=1e12),
           accel=st.floats(min_value=1e-3, max_value=1e3),
           density=st.floats(min_value=1.0, max_value=10.0))
    def test_relativistic_bounds(self, t, accel, density):
        p = RelativisticParams(accel=accel, density=density)
        v = relativistic_speed(t, p)
        assert v < p.limit_speed
        assert v <= classic_speed(t, accel)

    @settings(max_examples=300, derandomize=True)
    @given(frac=st.floats(min_value=1e-9, max_value=1e-3),
           density=st.floats(min_value=1.0, max_value=10.0))
    def test_small_argument_agreement(self, frac, density):
        # when t*a is at most 1e-3 of the limit speed, the correction is
        # invisible at the 1e-6 level
        p = RelativisticParams(density=density)
        limit = p.limit_speed
        t = frac * limit / p.accel
        classic = classic_speed(t, p.accel)
        assert abs(relativistic_speed(t, p) - classic) <= 1e-6 * classic
