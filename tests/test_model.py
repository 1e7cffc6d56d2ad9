"""Core formula tests: frozen oracle values, edge cases and properties.

Expected values marked "oracle" were computed independently with 50-digit
decimal arithmetic and frozen here.
"""

import collections
import copy
import inspect
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parascale import contributions, ingest, model, report
from parascale.model import (LIGHT_SPEED, ParallelSystem, PerformancePoint,
                             RelativisticParams, alpha_from_measurement,
                             classic_speed, classic_total_perf, efficiency,
                             efficiency_from_nonparallel, logspace,
                             modern_total_perf, relativistic_speed,
                             saturation_limit)

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
        with pytest.raises(ValueError, match=r"^n_proc must be >= 1, got 0\.5$"):
            efficiency_from_nonparallel(0.5, 0.1)
        with pytest.raises(ValueError, match=r"^nonparallel must be >= 0, got -0\.1$"):
            efficiency_from_nonparallel(10, -0.1)

    @settings(max_examples=500, derandomize=True)
    @given(st.floats(1.0, 1e12), st.floats(0.0, 1e3))
    def test_within_four_ulps_of_the_exact_efficiency(self, n_proc, nonparallel):
        # exact 1 / (1 + (N - 1) * x) at the float N and x; the float form
        # rounds at most four times (N - 1, the product, the sum and the
        # reciprocal), one ulp each
        exact = 1 / (1 + (Fraction(n_proc) - 1) * Fraction(nonparallel))
        error = abs(Fraction(efficiency_from_nonparallel(n_proc, nonparallel)) - exact)
        assert error <= 4 * Fraction(math.ulp(float(exact)))


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

    @settings(max_examples=500, derandomize=True)
    @given(st.integers(2, 10**8),
           st.one_of(st.floats(1e-6, 1.0),  # and the last floats below 1:
                     st.integers(1, 2**20).map(lambda k: 1.0 - k * 2.0**-53)))
    def test_within_three_ulps_of_the_exact_inversion(self, n_proc, eff):
        # exact (1 - eff) / eff / (N - 1) at the float eff and integer N; the
        # float form rounds at most three times (N - 1 is exact), one ulp each
        exact = (1 - Fraction(eff)) / Fraction(eff) / (n_proc - 1)
        error = abs(Fraction(alpha_from_measurement(n_proc, eff)) - exact)
        assert error <= 3 * Fraction(math.ulp(float(exact)))

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
        with pytest.raises(ValueError, match=r"^t must be >= 0, got -1\.0$"):
            classic_speed(-1.0, 9.81)

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

    @pytest.mark.parametrize("lo,hi,n,message", [
        (1.0, 1.0, 5, r"need 0 < lo < hi, got \[1\.0, 1\.0\]"),
        (1.0, 10.0, 1, "need at least 2 samples")])
    def test_logspace_refuses_an_empty_range_or_one_sample(self, lo, hi, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            logspace(lo, hi, n)

    def test_relativistic_params_invariants(self):
        with pytest.raises(ValueError):
            RelativisticParams(accel=-1)
        with pytest.raises(ValueError):
            RelativisticParams(density=0.5)

    def test_performance_point(self):
        p = PerformancePoint(r_peak=200e15, efficiency=0.5)
        assert p == (200e15, 100e15, 0.5)
        with pytest.raises(ValueError):
            PerformancePoint(r_peak=100e15, efficiency=2.0)

    def test_payload_is_not_an_argument_of_the_point(self):
        # r_max is r_peak * efficiency, so it cannot be given beside them
        with pytest.raises(TypeError):
            PerformancePoint(2e15, 1e15, 1.0)
        with pytest.raises(TypeError):
            PerformancePoint(r_peak=2e15, r_max=1e15)

    @pytest.mark.parametrize("r_peak,eff", [
        pytest.param(0.0, 0.5, id="zero-peak"),
        pytest.param(-1e15, 0.5, id="negative-peak"),
        pytest.param(5e-324, 0.25, id="payload-underflows"),
    ])
    def test_payload_must_be_positive(self, r_peak, eff):
        with pytest.raises(ValueError, match=r"need 0 < r_peak < inf"):
            PerformancePoint(r_peak, eff)

    @settings(max_examples=200, derandomize=True)
    @given(r_peak=st.floats(1e-300, 1e300), eff=st.floats(1e-8, 1.0))
    def test_payload_is_peak_times_efficiency(self, r_peak, eff):
        assert PerformancePoint(r_peak, eff) == (r_peak, r_peak * eff, eff)

    @pytest.mark.parametrize("cls,kwargs", [
        (ParallelSystem, dict(n_proc=math.nan, perf_single=1e9, alpha=0.5)),
        (ParallelSystem, dict(n_proc=math.inf, perf_single=1e9, alpha=0.5)),
        (ParallelSystem, dict(n_proc=10, perf_single=math.nan, alpha=0.5)),
        (ParallelSystem, dict(n_proc=10, perf_single=math.inf, alpha=0.5)),
        (ParallelSystem, dict(n_proc=10, perf_single=1e9, alpha=math.nan)),
        pytest.param(ParallelSystem.from_nonparallel,
                     dict(n_proc=10, perf_single=1e9, nonparallel=math.inf),
                     id="ParallelSystem-kwargs5"),
        (RelativisticParams, dict(accel=math.nan)),
        (RelativisticParams, dict(accel=math.inf)),
        # explicit ids from here on: each case keeps its id as others come and go
        pytest.param(RelativisticParams, dict(density=math.nan),
                     id="RelativisticParams-kwargs10"),
        pytest.param(RelativisticParams, dict(density=math.inf),
                     id="RelativisticParams-kwargs11"),
        pytest.param(PerformancePoint, dict(r_peak=math.nan, efficiency=0.5),
                     id="PerformancePoint-kwargs12"),
        pytest.param(PerformancePoint, dict(r_peak=math.inf, efficiency=0.5),
                     id="PerformancePoint-kwargs13"),
        pytest.param(PerformancePoint, dict(r_peak=math.inf, efficiency=1.0),
                     id="PerformancePoint-kwargs14"),
        pytest.param(PerformancePoint, dict(r_peak=2e15, efficiency=math.nan),
                     id="PerformancePoint-kwargs15"),
        pytest.param(PerformancePoint, dict(r_peak=2e15, efficiency=math.inf),
                     id="PerformancePoint-kwargs16"),
        pytest.param(ParallelSystem.from_nonparallel,
                     dict(n_proc=10, perf_single=1e9, nonparallel=math.nan),
                     id="ParallelSystem-nonparallel-nan"),
    ])
    def test_non_finite_fields_rejected(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    @pytest.mark.parametrize("efficiency", [
        pytest.param(0.0, id="zero"),
        pytest.param(1.5, id="above-one"),
        pytest.param(-3.0, id="negative"),
    ])
    def test_efficiency_outside_unit_interval_rejected(self, efficiency):
        with pytest.raises(ValueError, match=r"efficiency must be in \(0, 1\]"):
            PerformancePoint(r_peak=2e15, efficiency=efficiency)

    def test_nonparallel_is_not_an_argument_of_the_constructor(self):
        # only from_nonparallel stores a serial fraction other than 1 - alpha
        with pytest.raises(TypeError):
            ParallelSystem(10, 1e9, 0.5, 0.9)
        with pytest.raises(TypeError):
            ParallelSystem(10, 1e9, alpha=0.5, nonparallel=0.9)


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


_AXIS = report.AxisSpec("x", "flop/s", "log10", 1.0, 10.0)
_MACHINE_RECORD = ingest.MachineRecord("Summit", 2018.5, "HPL", 2e17, 1.4e17, 2414592)
#: one instance of each public record type
RECORDS = [
    ParallelSystem.from_nonparallel(10, 1e9, 3.3e-8),  # 1 - alpha would round it
    PerformancePoint(1e18, 0.5),
    RelativisticParams(9.81, 1.5),
    contributions.preset("NN"),
    contributions.DEFAULT_MACHINE,
    contributions.peak_point(contributions.DEFAULT_MACHINE, contributions.preset("HPL")),
    _MACHINE_RECORD,
    ingest.derive([_MACHINE_RECORD])[0],
    ingest.TimelineEntry(((2018.5, 1.2e17), (2019.0, 1.4e17)), (1.4 / 1.2,)),
    _AXIS,
    report.Series("a", (1.0, 2.0), (3.0, 4.0), axis="y2"),
    report.CurveSet("t", _AXIS, _AXIS, (report.Series("a", (1.0, 2.0), (3.0, 4.0)),)),
]
#: the record types whose constructor takes their fields as they are stored
PLAIN = [contributions.PeakPoint, ingest.DerivedRecord, ingest.TimelineEntry,
         report.Series]


def _ids(records):
    return [type(r).__name__ for r in records]


def _reference(cls):
    """The collections named tuple with the fields and defaults of ``cls``."""
    defaults = ("y", None) if cls is report.Series else None
    return collections.namedtuple(cls.__name__, cls._fields, defaults=defaults)


class TestRecordTypes:
    def test_every_public_record_type_has_an_instance(self):
        public = {obj for mod in (model, contributions, ingest, report)
                  for name, obj in vars(mod).items()
                  if isinstance(obj, type) and issubclass(obj, tuple)
                  and hasattr(obj, "_fields") and not name.startswith("_")}
        assert public == {type(r) for r in RECORDS}
        assert set(PLAIN) <= public

    @pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
    def test_copy_deepcopy_and_pickle_round_trip(self, record):
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(record)
            assert twin == record  # so ParallelSystem keeps its exact 3.3e-8

    @pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
    def test_matches_collections_namedtuple(self, record):
        cls = type(record)
        ref = _reference(cls)(*record)
        assert cls._fields == ref._fields
        assert record._asdict() == ref._asdict()
        assert repr(record) == repr(ref)
        assert record == ref == tuple(record)
        assert hash(record) == hash(ref) == hash(tuple(record))
        assert [getattr(record, f) for f in cls._fields] == list(record)
        for twin in (record, ref):  # a bare tuple: no instance dict to add a name to
            assert not hasattr(twin, "__dict__")
            with pytest.raises(AttributeError):
                setattr(twin, "no_such_field", 1)

    @pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
    def test_replace_skips_the_checks(self, record):
        # an object no check accepts is stored as given, in every field
        bad = object()
        ref = _reference(type(record))(*record)
        for i, name in enumerate(record._fields):
            changed = record._replace(**{name: bad})
            assert type(changed) is type(record)
            assert changed[i] is bad
            assert tuple(changed) == tuple(ref._replace(**{name: bad}))
        with pytest.raises(ValueError, match="no_such_field"):
            record._replace(no_such_field=1)
        # the package's error on every version; named tuples raise TypeError
        # from 3.13 on
        with pytest.raises(TypeError if sys.version_info >= (3, 13) else ValueError,
                           match="no_such_field"):
            ref._replace(no_such_field=1)

    @pytest.mark.parametrize("cls", PLAIN, ids=[c.__name__ for c in PLAIN])
    def test_keyword_and_positional_construction(self, cls):
        record = next(r for r in RECORDS if type(r) is cls)
        ref = _reference(cls)
        assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] \
            == [(p.name, p.default) for p in inspect.signature(ref).parameters.values()]
        kwargs = record._asdict()
        assert cls(*record) == cls(**kwargs) == ref(**kwargs) == record
        head, *tail = record._fields
        assert cls(record[0], **{f: kwargs[f] for f in tail}) == record
        for name in cls._fields:  # each field left out in turn
            rest = {f: v for f, v in kwargs.items() if f != name}
            try:
                expected = ref(**rest)
            except TypeError:
                with pytest.raises(TypeError, match=name):
                    cls(**rest)
            else:  # a field with a default
                assert cls(**rest) == expected
        for build in (cls, ref):
            with pytest.raises(TypeError, match="bogus"):
                build(**kwargs, bogus=1)
            with pytest.raises(TypeError):
                build(*record, record[0])  # one positional too many
            with pytest.raises(TypeError, match=head):
                build(*record, **{head: record[0]})  # a field given twice

    def test_series_defaults(self):
        ref = _reference(report.Series)
        for args, kwargs in ((("a", (1.0,), (2.0,)), {}),
                             (("a",), {"xs": (1.0,), "ys": (2.0,)}),
                             (("a", (1.0,), (2.0,)), {"level": 3.0}),
                             ((), {"name": "a", "xs": (1.0,), "ys": (2.0,), "axis": "y2"})):
            series = report.Series(*args, **kwargs)
            assert series == ref(*args, **kwargs)
            assert repr(series) == repr(ref(*args, **kwargs))
        assert report.Series("a", (1.0,), (2.0,))[3:] == ("y", None)
