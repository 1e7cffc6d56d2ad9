"""Numeric peak search: the independent oracle for the closed-form peak.

``contributions.peak_point`` takes the payload maximum from the closed form
sqrt((1-a)/b).  The tests compare it against this search, which finds the
maximum of the payload curve without using that form: it brackets the
turnover by doubling N and then runs a golden-section search over log N.
"""

import math

from parascale.contributions import AlphaDecomposition, MachineModel, alpha_os


def _rmax_at(n_proc: float, m: MachineModel, d: AlphaDecomposition) -> float:
    # Bare curve evaluation; callers stay below the validity bound.
    beta = d.alpha_sw + alpha_os(n_proc, d)
    return n_proc * m.perf_per_pu / (1.0 + (n_proc - 1.0) * beta)


def _golden_section_log_max(f, lo: float, hi: float, rel_tol: float) -> float:
    """Maximize a unimodal f over [lo, hi] by golden-section on log x."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = f(math.exp(c)), f(math.exp(e))
    while b - a > rel_tol:
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = f(math.exp(e))
    return math.exp(0.5 * (a + b))


def numeric_peak_n(m: MachineModel, d: AlphaDecomposition,
                   rel_tol: float = 1e-6) -> float:
    """PU count maximizing payload performance, found by search alone."""
    def f(n: float) -> float:
        return _rmax_at(n, m, d)

    hi = 4.0
    while f(hi) >= f(hi / 2.0):
        hi *= 2.0
        if hi > 1e15:
            raise ValueError("no interior maximum found below N=1e15")
    return _golden_section_log_max(f, 1.0, hi, rel_tol)
