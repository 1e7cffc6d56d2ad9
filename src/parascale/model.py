"""Closed-form performance model for parallelized sequential systems.

The classic rule adds processor performances linearly:

    perf_total(N) = N * perf_single

The saturation-corrected ("modern") rule divides that by the overhead of
organizing the joint work, controlled by the parallel fraction ``alpha``:

    perf_total(N) = N * perf_single / (N*(1-alpha) + alpha)

The denominator equals ``1 + (N-1)*(1-alpha)``, which is the numerically
stable form used throughout: it never cancels, even for non-parallelizable
fractions down to 1e-8 combined with core counts up to 1e8.

The same correction pattern appears in kinematics: a body under constant
acceleration follows ``v = t*a`` classically, but saturates at ``c/n`` when
the relativistic correction ``1/sqrt(1 + (t*a/(c/n))^2)`` is applied.  Both
families are provided here because their curves are generated side by side.

All functions are pure; all quantities are SI (flop/s, seconds, m/s).
Unit prefixes (Gflop/s, Eflop/s, ...) exist only at I/O boundaries.
"""

from __future__ import annotations

import math
from _collections import _tuplegetter  # the C field accessor of collections' named tuples
from itertools import chain

#: Speed of light in vacuum, m/s.
LIGHT_SPEED = 299_792_458.0

#: Log-spaced samples per model curve (figures and ``sweep``).
SAMPLES_PER_CURVE = 512

#: Nominal flop/s that figure 6's panels span: ``sweep``'s default range.
PAYLOAD_RPEAK_RANGE = (1e15, 1.1e18)

#: Figures :func:`parascale.report.build_figure` builds, and the bundled dataset
#: of each that reads one; kept here so that the parser needs no figure code.
FIGURE_IDS = ("1", "3", "4", "5", "6A", "6B", "6C")
FIGURE_DATA = {"1": "fig4_points.csv", "3": "fig3_timeline.csv", "4": "fig4_points.csv"}


def logspace(lo: float, hi: float, n: int) -> chain[float]:
    """``n`` log-uniform samples from ``lo`` to ``hi``, both ends exact; the
    arguments are checked on the call, the samples made one at a time."""
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    if n < 2:
        raise ValueError("need at least 2 samples")
    a, b = math.log10(lo), math.log10(hi)
    return chain((lo,), (10.0 ** (a + (b - a) * i / (n - 1))
                         for i in range(1, n - 1)), (hi,))


class _Record(tuple):
    """What the classes :func:`record_type` makes share."""

    __slots__ = ()

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def _replace(self, /, **changes):
        """A copy with ``changes`` made, without the checks, as a named tuple's."""
        new = tuple.__new__(type(self), map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return new

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # from the stored fields: a constructor that derives a field takes
        # one argument fewer, and ParallelSystem's would round ``nonparallel``
        return tuple.__new__, (type(self), tuple(self))


_MISSING = object()


def record_type(typename: str, field_names: str, defaults: tuple = ()) -> type:
    """A tuple subclass with the named fields, the last ones defaulting to
    ``defaults``, as collections' named tuple factory makes, without loading
    ``collections``.  A subclass that checks its fields overrides ``__new__``
    and builds the tuple with ``tuple.__new__(cls, (...))``."""
    fields = tuple(field_names.split())
    n = len(fields)
    fallback = (_MISSING,) * (n - len(defaults)) + defaults

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != n:
            values = (*args, *map(kwargs.pop, fields[len(args):], fallback[len(args):]))
            missing = [f for f, v in zip(fields, values) if v is _MISSING]
            if len(args) > n or kwargs or missing:
                raise TypeError(f"{typename}() got {len(args)} positional arguments for "
                                f"{n} fields, unexpected or repeated {[*kwargs]}, "
                                f"missing {missing}")
            args = values
        return tuple.__new__(cls, args)

    return type(typename, (_Record,), {
        **{name: _tuplegetter(i, f"Alias for field number {i}")
           for i, name in enumerate(fields)},
        "__slots__": (), "_fields": fields, "__new__": __new__})


def require_finite(record) -> None:
    """Raise ValueError if any field of ``record`` is not finite."""
    for name, value in zip(record._fields, record):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_efficiency(eff: float) -> None:
    """Raise ValueError unless the efficiency ``eff`` is in (0, 1]."""
    if not 0.0 < eff <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {eff}")


class ParallelSystem(record_type("ParallelSystem",
                                 "n_proc perf_single alpha nonparallel")):
    """A machine described by PU count, per-PU performance and parallel fraction.

    ``ParallelSystem(n_proc, perf_single, alpha)`` stores ``nonparallel`` as
    ``1 - alpha``.  Measured systems are characterised by their serial
    remainder (values like 3.3e-8), which ``1 - alpha`` would round, so
    :meth:`from_nonparallel` is the one way to store it exactly.
    """

    __slots__ = ()

    def __new__(cls, n_proc: float, perf_single: float, alpha: float):
        if n_proc < 1:
            raise ValueError(f"n_proc must be >= 1, got {n_proc}")
        if perf_single <= 0:
            raise ValueError(f"perf_single must be > 0, got {perf_single}")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self = tuple.__new__(cls, (n_proc, perf_single, alpha, 1.0 - alpha))
        require_finite(self)  # alpha and nonparallel are in [0, 1] already
        return self

    @classmethod
    def from_nonparallel(cls, n_proc: float, perf_single: float,
                         nonparallel: float) -> "ParallelSystem":
        """Build a system from the serial fraction (1 - alpha), kept exact."""
        if not 0.0 <= nonparallel <= 1.0:
            raise ValueError(f"nonparallel must be in [0, 1], got {nonparallel}")
        system = cls(n_proc, perf_single, 1.0 - nonparallel)
        return system._replace(nonparallel=nonparallel)


class RelativisticParams(record_type("RelativisticParams", "accel density")):
    """Constant acceleration and the optical density of the medium."""

    __slots__ = ()

    def __new__(cls, accel: float = 9.81, density: float = 1.0):
        self = tuple.__new__(cls, (accel, density))
        require_finite(self)
        if accel <= 0:
            raise ValueError(f"accel must be > 0, got {accel}")
        if density < 1:
            raise ValueError(f"density must be >= 1, got {density}")
        return self

    @property
    def limit_speed(self) -> float:
        """Asymptotic speed c/n."""
        return LIGHT_SPEED / self.density


class PerformancePoint(record_type("PerformancePoint", "r_peak r_max efficiency")):
    """Nominal performance and efficiency in (0, 1], with the payload
    ``r_max = r_peak * efficiency`` they give."""

    __slots__ = ()

    def __new__(cls, r_peak: float, efficiency: float):
        require_efficiency(efficiency)
        r_max = r_peak * efficiency  # 0 if the product underflows
        if not (r_max > 0.0 and r_peak < math.inf):
            raise ValueError(f"need 0 < r_peak < inf and r_peak * efficiency > 0, "
                             f"got r_peak={r_peak}, efficiency={efficiency}")
        return tuple.__new__(cls, (r_peak, r_max, efficiency))


def classic_total_perf(sys: ParallelSystem) -> float:
    """Linear performance addition: N * perf_single."""
    return sys.n_proc * sys.perf_single


def efficiency_from_nonparallel(n_proc: float, nonparallel: float) -> float:
    """Efficiency 1 / (1 + (N-1)*(1-alpha)) given the serial fraction directly.

    This is the precision-preserving primitive behind :func:`efficiency`;
    it accepts serial fractions above 1 so that algebraic inversions of
    inconsistent measurements still round-trip.
    """
    if n_proc < 1:
        raise ValueError(f"n_proc must be >= 1, got {n_proc}")
    if nonparallel < 0:
        raise ValueError(f"nonparallel must be >= 0, got {nonparallel}")
    return 1.0 / (1.0 + (n_proc - 1.0) * nonparallel)


def efficiency(n_proc: float, alpha: float) -> float:
    """Parallelization efficiency 1 / (N*(1-alpha) + alpha).

    Equals 1 at N=1 for any alpha, and decreases strictly with N when
    alpha < 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return efficiency_from_nonparallel(n_proc, 1.0 - alpha)


def modern_total_perf(sys: ParallelSystem) -> float:
    """Saturation-corrected performance: classic value times efficiency."""
    return classic_total_perf(sys) * efficiency_from_nonparallel(
        sys.n_proc, sys.nonparallel)


def alpha_from_measurement(n_proc: float, eff: float) -> float:
    """Invert a measured efficiency into the serial fraction (1 - alpha_eff).

    Solves eff = 1 / (1 + (N-1)*x) for x as (1 - eff) / eff / (N - 1), which
    does not cancel near eff = 1 as (1/eff - 1) / (N - 1) would.
    The returned value is the non-parallelizable fraction; the parallel
    fraction itself is 1 minus the result.  A measurement with eff < 1/N is
    inconsistent with any alpha in [0, 1] and yields a value above 1.  An
    efficiency so small that the result overflows raises ValueError.
    """
    if n_proc < 2:
        raise ValueError(
            f"inversion degenerate: need n_proc >= 2, got {n_proc}")
    require_efficiency(eff)
    nonparallel = (1.0 - eff) / eff / (n_proc - 1.0)
    if not math.isfinite(nonparallel):
        raise ValueError(f"serial fraction overflows at efficiency {eff:.6g}")
    return nonparallel


def saturation_limit(perf_single: float, nonparallel: float) -> float:
    """Large-N limit of the corrected performance: perf_single / (1-alpha)."""
    if not 0.0 < nonparallel <= 1.0:
        raise ValueError(
            f"nonparallel must be in (0, 1] for a finite limit, "
            f"got {nonparallel}")
    return perf_single / nonparallel


def classic_speed(t: float, accel: float) -> float:
    """Speed of a uniformly accelerated body without correction: t * accel.

    Raises ValueError when the product overflows to infinity.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    v = t * accel
    if not math.isfinite(v):
        raise ValueError(f"classic speed t * accel overflows for t={t:.6g}, "
                         f"accel={accel:.6g}")
    return v


def relativistic_speed(t: float, p: RelativisticParams) -> float:
    """Speed with relativistic correction, bounded above by c/n.

    v(t) = t*a / sqrt(1 + (t*a / (c/n))^2); monotone increasing in t and
    indistinguishable from ``classic_speed`` while t*a << c/n.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    v = t * p.accel
    ratio = v / p.limit_speed
    if ratio > 1e154:  # ratio ** 2 would overflow; v / ratio is c/n there
        return p.limit_speed
    return v / math.sqrt(1.0 + ratio ** 2)
