"""Decomposition of the non-parallelizable fraction into measurable parts.

The serial remainder of a parallelized run is not one number: it grows with
the machine.  This module models it as

    (1-alpha_total)(N) = alpha_sw                      software component
                       + ctx_switch_clocks / total_clocks
                       + bio_factor * loop_clocks_per_pu * N / total_clocks

i.e. an affine function of the PU count N.  The constant part collects the
software serial fraction and the context-switching cost; the linear part is
the orchestration ("looping") cost the coordinating PU pays once per fellow
PU, optionally scaled by ``bio_factor`` for workloads synchronized on a much
slower period than the hardware clock (processor-based neural simulation).

Because the serial fraction grows with N while nominal performance grows
linearly, the payload performance curve R_Max(R_Peak) has an interior
maximum: past it, adding processors reduces delivered performance.
:func:`peak_point` locates it in closed form.
"""

from __future__ import annotations

import math

from .model import (PerformancePoint, efficiency_from_nonparallel, record_type,
                    require_finite)


class ModelDomainError(ValueError):
    """Raised when an evaluation leaves the model's validity region."""


class AlphaDecomposition(record_type("AlphaDecomposition", "alpha_sw ctx_switch_clocks "
                                     "total_clocks loop_clocks_per_pu bio_factor")):
    """Constants generating the serial fraction (1-alpha_total)(N)."""

    __slots__ = ()

    def __new__(cls, alpha_sw: float, ctx_switch_clocks: float,
                total_clocks: float, loop_clocks_per_pu: float = 1.0,
                bio_factor: float = 1.0):
        self = tuple.__new__(cls, (alpha_sw, ctx_switch_clocks, total_clocks,
                                   loop_clocks_per_pu, bio_factor))
        require_finite(self)
        for name in ("alpha_sw", "ctx_switch_clocks", "loop_clocks_per_pu"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if total_clocks <= 0:
            raise ValueError("total_clocks must be > 0")
        if bio_factor < 1:
            raise ValueError("bio_factor must be >= 1")
        return self

    @property
    def constant_part(self) -> float:
        """N-independent serial fraction: alpha_sw + ctx/total."""
        return self.alpha_sw + self.ctx_switch_clocks / self.total_clocks

    @property
    def slope(self) -> float:
        """Serial fraction added per PU: bio * loop / total."""
        return self.bio_factor * self.loop_clocks_per_pu / self.total_clocks


class MachineModel(record_type("MachineModel", "perf_per_pu")):
    """Per-PU payload performance of the modeled machine."""

    __slots__ = ()

    def __new__(cls, perf_per_pu: float):
        self = tuple.__new__(cls, (perf_per_pu,))
        require_finite(self)
        if perf_per_pu <= 0:
            raise ValueError("perf_per_pu must be > 0")
        return self


#: Machine the built-in presets are calibrated for: 100 Gflop/s per PU at 1 GHz.
DEFAULT_MACHINE = MachineModel(perf_per_pu=100e9)

_CTX_SWITCH_CLOCKS = 1e4   # clock cycles burned per context change
_TOTAL_CLOCKS = 2e13       # clock cycles in the full benchmark run
_BIO_CLOCK_FACTOR = 5000.0  # grid-time sync period vs hardware clock period

# (name, alpha_sw, bio_factor): the only values in which the presets differ.
_PRESETS = {name: AlphaDecomposition(
                alpha_sw=alpha_sw, ctx_switch_clocks=_CTX_SWITCH_CLOCKS,
                total_clocks=_TOTAL_CLOCKS, loop_clocks_per_pu=1.0,
                bio_factor=bio_factor)
            for name, alpha_sw, bio_factor in (("HPL", 2e-8, 1.0),
                                               ("HPCG", 2e-6, 1.0),
                                               ("NN", 2e-6, _BIO_CLOCK_FACTOR))}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset(name: str) -> AlphaDecomposition:
    """The decomposition of a built-in benchmark preset (HPL, HPCG or NN),
    looked up by case-insensitive name."""
    try:
        return _PRESETS[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of "
            f"{', '.join(_PRESETS)}") from None


def alpha_os(n_proc: float, d: AlphaDecomposition) -> float:
    """System-side serial fraction: context switching plus per-PU looping."""
    return (d.ctx_switch_clocks / d.total_clocks
            + d.bio_factor * d.loop_clocks_per_pu * n_proc / d.total_clocks)


def alpha_total(n_proc: float, d: AlphaDecomposition) -> float:
    """Total serial fraction alpha_sw + alpha_os(N).

    Raises :class:`ModelDomainError` when the result reaches 1: a serial
    fraction of one or more means the model no longer describes anything,
    and clamping would silently fabricate curves.
    """
    total = d.alpha_sw + alpha_os(n_proc, d)
    if total >= 1.0:
        raise ModelDomainError(
            f"serial fraction {total:.6g} >= 1 at N={n_proc:.6g}: "
            f"outside model validity")
    return total


def rmax_of_rpeak(r_peak: float, m: MachineModel,
                  d: AlphaDecomposition) -> PerformancePoint:
    """Payload performance delivered at a given nominal performance.

    The PU count N = r_peak / perf_per_pu is treated as continuous, as the
    swept curves require.
    """
    if r_peak < m.perf_per_pu:
        raise ValueError(
            f"r_peak {r_peak:.6g} below one PU ({m.perf_per_pu:.6g} flop/s)")
    n_proc = r_peak / m.perf_per_pu
    if not math.isfinite(n_proc):
        raise ValueError(f"PU count r_peak / perf_per_pu overflows: "
                         f"{r_peak:.6g} / {m.perf_per_pu:.6g} flop/s")
    eff = efficiency_from_nonparallel(n_proc, alpha_total(n_proc, d))
    return PerformancePoint(r_peak, eff)


class PeakPoint(record_type("PeakPoint", "n_star r_peak_star r_max_star")):
    """Interior maximum of the R_Max(R_Peak) curve at the continuous N*."""

    __slots__ = ()


def peak_point(m: MachineModel, d: AlphaDecomposition) -> PeakPoint:
    """Locate the PU count where payload performance turns over.

    The maximizer is the closed form :func:`analytic_peak_n`, inside the
    validity bound N*^2 since N* > 1, and the payload there is
    :func:`rmax_of_rpeak`'s.  ValueError ("no finite interior maximum") is
    raised, as by :func:`analytic_peak_n`, when the nominal performance
    N* * perf_per_pu is not a finite float.
    """
    n_star = analytic_peak_n(d)
    r_peak_star = n_star * m.perf_per_pu
    if not math.isfinite(r_peak_star):
        raise ValueError(f"no finite interior maximum: N* = {n_star:.6g} PUs "
                         f"of {m.perf_per_pu:.6g} flop/s overflow r_peak")
    return PeakPoint(n_star=n_star, r_peak_star=r_peak_star,
                     r_max_star=rmax_of_rpeak(r_peak_star, m, d).r_max)


def analytic_peak_n(d: AlphaDecomposition) -> float:
    """Closed-form maximizer N* = sqrt((1-a)/b) of the payload curve.

    With a = ``constant_part`` and b = ``slope`` the payload curve
    N / (1 + (N-1)*(a + b*N)) is Gunther's Universal Scalability Law, and
    N* is its peak.  It is an interior maximum only when 0 < b < 1 - a,
    i.e. N* > 1; otherwise the curve saturates without turning over (b = 0)
    or the model is invalid from N = 1 on, and ValueError is raised.  So is
    a slope too small for N* to be a finite float.  1 - a is formed exactly
    from the constants and rounded once, for every finite decomposition.
    """
    # 1 - a = 1 - p/q - (c/e) / (t/f) from the exact ratios, rounded once by
    # int / int: no rounding is magnified where ctx / total nears 1 - alpha_sw.
    # A negative 1 - a, which has no maximum, is taken as 0 so that the
    # quotient cannot overflow a float
    (p, q), (c, e), (t, f) = (d.alpha_sw.as_integer_ratio(),
                              d.ctx_switch_clocks.as_integer_ratio(),
                              d.total_clocks.as_integer_ratio())
    parallel = max((q - p) * e * t - c * f * q, 0) / (q * e * t)
    if not 0.0 < d.slope < parallel:
        raise ValueError(
            f"no interior maximum: need 0 < slope < 1 - constant_part, got "
            f"slope {d.slope:.6g}, constant_part {d.constant_part:.6g}")
    n_star = math.sqrt(parallel / d.slope)
    if not math.isfinite(n_star):
        raise ValueError(f"no finite interior maximum: slope {d.slope:.6g} "
                         f"puts N* beyond the float range")
    return n_star
