"""Compound asymptotic expansions: dominant, intermediate (n = 5) and subdominant levels.

For x -> +infinity every exponential level of F_n is one formula,

    2 A0 x^theta e^(x cos(k pi/n)) Re[ w e^(i x sin(k pi/n)) sum_j c_j (e^(-i k pi/n)/x)^j ],

which differs between levels only in the angle k and the complex start
weight w:

    n   level          k   w
    all dominant       1   e^(i pi theta/n)
    3   subdominant    3   cos(pi(a-b))
    4   subdominant    3   -e^(3 i pi theta/4) sum_r e^(2 pi i b_r)
    5   intermediate   3   -e^(3 i pi theta/5) sum_r e^(2 pi i b_r)
    5   subdominant    5   sum_{r<=3} cos(pi(theta + 2 b_r + 2 b_4))

The k = n levels sit at e^(-x): there e^(-i k pi/n) is exactly -1, so their
sums alternate and vanish exactly when w does (half-integer a-b for n = 3).

Optimal truncation cuts each sum at the least magnitude |c_j| x^(-j) over the
available coefficient table (the weight and phase are excluded from the
magnitude, so all levels share one index).
"""

import logging
from math import ceil, cos, log, pi

from mpmath import mp

from .coeffs import stirling_matching_coeffs
from .errors import (CoeffShortfall, DomainError, NoMinimumDetected, OrderUnsupported,
                     PrecisionInsufficient)
from .precision import auto_series_dps, check_dps, to_mpf
from .reference import METHOD_ASYMPTOTIC, METHOD_COMPOUND, EvalResult, series_eval

logger = logging.getLogger(__name__)

#: the levels of each order with their angle k: the level sits at e^(x cos(k pi/n))
_ANGLES = {
    3: {"dominant": 1, "subdominant": 3},
    4: {"dominant": 1, "subdominant": 3},
    5: {"dominant": 1, "intermediate": 3, "subdominant": 5},
}


def _start_weight(params, k, working):
    """The complex start weight w of the level at angle k (see the module table)."""
    n, bs, theta = params.n, params.b_list, params.theta
    if k == n and n == 3:
        return mp.cospi(to_mpf(bs[0] - bs[1], working))  # exact 0 at half-integer a-b
    if k == n:
        return mp.fsum(mp.cospi(to_mpf(theta + 2 * b + 2 * bs[3], working)) for b in bs[:3])
    amplitude = 1 if k == 1 else -mp.fsum(mp.expjpi(to_mpf(2 * b, working)) for b in bs)
    return amplitude * mp.expjpi(to_mpf(k * theta / n, working))


def _check_args(params, coeffs, x, M, dps):
    if coeffs.params != params:
        raise ValueError("coefficient table belongs to different parameters")
    if M < 1:
        raise ValueError("need at least one term")
    if M > len(coeffs):
        raise CoeffShortfall(f"requested {M} terms but the table holds {len(coeffs)}")
    working = check_dps(dps) if dps is not None else params.dps
    with mp.workdps(working):
        xm = to_mpf(x, working)
    if xm <= 0:
        raise DomainError(f"asymptotic series require x > 0, got {xm}")
    return xm, working


def _level_series(level, params, coeffs, x, M, dps):
    """One exponential level truncated after M terms (j = 0..M-1).

    ``error_estimate`` is the first omitted term, |prefactor * w| |c_M| x^(-M),
    plus the rounding floor 10^(1-dps) |value|.
    """
    k = _ANGLES[params.n].get(level)
    if k is None:
        raise OrderUnsupported(f"order n = {params.n} has no {level} level")
    xm, working = _check_args(params, coeffs, x, M, dps)
    with mp.workdps(working):
        theta = to_mpf(params.theta, working)
        a0 = to_mpf(params.A0, working) if working > params.dps else params.A0
        w = _start_weight(params, k, working)
        angle = mp.mpf(k) / params.n
        pref = 2 * a0 * xm ** theta * mp.exp(xm * mp.cospi(angle))
        phase = w * mp.expj(xm * mp.sinpi(angle))
        step = mp.mpc(mp.cospi(angle), -mp.sinpi(angle)) / xm
        total = mp.mpf(0)
        for j in range(M):
            total += coeffs[j] * phase.real
            phase *= step
        trace = tuple(abs(coeffs[j]) * xm ** (-j) for j in range(M))
        omitted = abs(coeffs[M]) * xm ** (-M) if M < len(coeffs) else trace[-1]
        value = pref * total
        # where the expansion terminates, c_M vanishes and only the rounding remains
        error = abs(pref * w) * omitted + mp.mpf(10) ** (1 - working) * abs(value)
        return EvalResult(value=value, method=METHOD_ASYMPTOTIC, terms_used=M,
                          max_term_magnitude=max(trace), error_estimate=error, term_trace=trace)


def dominant_series(params, coeffs, x, M, dps=None):
    """Truncated dominant expansion (M terms, j = 0..M-1)."""
    return _level_series("dominant", params, coeffs, x, M, dps)


def subdominant_series(params, coeffs, x, M, dps=None):
    """Truncated exponentially small expansion (M terms)."""
    return _level_series("subdominant", params, coeffs, x, M, dps)


def intermediate_series_n5(params, coeffs, x, M, dps=None):
    """Truncated middle exponential level, which exists only for n = 5."""
    return _level_series("intermediate", params, coeffs, x, M, dps)


def optimal_truncation_index(coeffs, x, allow_boundary=False):
    """Index of the least magnitude |c_j| x^(-j) over the table.

    The coefficient magnitudes oscillate, so the scan takes the global least
    term of the available table rather than the first local dip (shallow
    pre-asymptotic dips would truncate far too early).  If the least term
    sits at the very end of the table the minimum is unconfirmed and
    NoMinimumDetected is raised (extend the table), unless ``allow_boundary``
    accepts it, as a fixed coefficient budget does.
    """
    mags = coeffs.term_magnitudes(x)
    best = min(range(len(mags)), key=mags.__getitem__)
    if best == len(mags) - 1 and not allow_boundary:
        raise NoMinimumDetected(
            f"term magnitudes still decreasing at the end of a {len(coeffs)}-coefficient table")
    return best


OPTIMAL = "optimal"


def _table_for(params, x, truncation):
    if truncation == OPTIMAL:
        m = max(32, ceil(2.0 * float(to_mpf(x, 30))) + 16)
        for _ in range(3):
            table = stirling_matching_coeffs(params, m)
            try:
                j0 = optimal_truncation_index(table, x)
                return table, j0
            except NoMinimumDetected:
                logger.debug("compound table: no least term within %d coefficients at x = %s, "
                             "growing to %d", m, x, ceil(m * 1.5))
                m = ceil(m * 1.5)
        raise NoMinimumDetected(f"no confirmed least term within {m} coefficients")
    m = int(truncation)
    if m < 1:
        raise ValueError("fixed truncation must request at least one term")
    return stirling_matching_coeffs(params, max(m + 1, 2)), m - 1


def compound_eval(params, x, truncation=OPTIMAL, dps=None):
    """Dominant (+ intermediate for n = 5) + subdominant, jointly truncated.

    ``truncation`` is either ``"optimal"`` (least-term index, one shared index
    since all levels carry the same |c_j| x^(-j) trace) or an integer M (use
    exactly M terms per level).  ``error_estimate`` is the dominant level's:
    the magnitude of its first omitted term, prefactor included, plus its
    rounding floor.
    """
    table, j0 = _table_for(params, x, truncation)
    m_used = j0 + 1
    working = check_dps(dps) if dps is not None else params.dps
    dom = dominant_series(params, table, x, m_used, dps=working)
    with mp.workdps(working):
        value = dom.value + _exp_small(params, table, x, m_used, working)
    return EvalResult(value=value, method=METHOD_COMPOUND, terms_used=m_used,
                      max_term_magnitude=dom.max_term_magnitude,
                      error_estimate=dom.error_estimate, term_trace=dom.term_trace)


def _exp_small(params, table, x, M, working):
    """Every level below the dominant one, each summed to M terms."""
    value = subdominant_series(params, table, x, M, dps=working).value
    if "intermediate" in _ANGLES[params.n]:
        with mp.workdps(working):
            value += intermediate_series_n5(params, table, x, M, dps=working).value
    return value


def _residual_target_digits(x):
    # resolve the e^(-x) level under e^(x cos(pi/n)) with several digits spare
    return ceil(0.8 * float(to_mpf(x, 30))) + 12


def residual_dps(n, x):
    """Least parameter precision at which ``residual_F`` resolves the e^(-x) level.

    That level lies (1 + cos(pi/n)) x / ln 10 digits below the dominant one;
    10 digits are kept spare.
    """
    return ceil((1 + cos(pi / n)) * float(to_mpf(x, 30)) / log(10)) + 10


def residual_F(params, x, j0, dps=None):
    """F_n(x) minus the dominant expansion summed through index j0 (inclusive).

    This is the numerically extracted exponentially small residual; compare it
    with ``subdominant_series`` (plus the intermediate level for n = 5).  The
    dominant sum uses coefficients at ``params.dps`` digits, so
    PrecisionInsufficient is raised when ``params.dps`` is below
    ``residual_dps(params.n, x)``.
    """
    if j0 < 0:
        raise ValueError("truncation index must be non-negative")
    needed = residual_dps(params.n, x)
    if params.dps < needed:
        raise PrecisionInsufficient(
            f"residual at x = {float(to_mpf(x, 30)):.6g} needs parameters at {needed} digits "
            f"or more to resolve the e^(-x) level, got {params.dps}")
    target = _residual_target_digits(x)
    working = check_dps(dps) if dps is not None else auto_series_dps(target)
    base = series_eval(params, x, target_digits=target, dps=working)
    table = stirling_matching_coeffs(params, j0 + 2)
    dom = dominant_series(params, table, x, j0 + 1, dps=working)
    with mp.workdps(working):
        return base.value - dom.value


def exp_small_optimal(params, x, table, dps=None):
    """All below-dominant levels at their least term over ``table`` (the residual's counterpart).

    For n = 3 and n = 4 this is just the subdominant expansion; for n = 5 it
    also includes the middle exponential level.  Returns (value, index).
    """
    j0 = optimal_truncation_index(table, x)
    working = check_dps(dps) if dps is not None else params.dps
    return _exp_small(params, table, x, j0 + 1, working), j0
