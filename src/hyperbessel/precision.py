"""Precision plumbing: explicit-precision reals on top of mpmath.

A "big real" in this package is an ``mpmath.mpf`` produced under an explicit
decimal working precision (``dps``).  Precision is always passed as an
argument; functions only touch the mpmath context through a local
``mp.workdps`` block, so results are reproducible.  All types are immutable
values, but mpmath's working precision itself is process-global, so run
concurrent evaluations in separate processes rather than threads.

Exact rational carriers (``fractions.Fraction``) are used for function
parameters wherever the input is exactly representable, so that derived
quantities such as a - b or theta + theta_prime are exact before the final
rounding to ``dps`` digits.  Every evaluator admits its x by ``exact_x``.
"""

import logging
from fractions import Fraction

import mpmath
from mpmath import mp

from .errors import DomainError, PrecisionInsufficient

logger = logging.getLogger(__name__)

MIN_DPS = 30
DEFAULT_DPS = 50
#: digits above the target that direct summation works at
SERIES_GUARD_DIGITS = 10
#: the largest x any evaluator admits: the compound levels' exponent and phase are formed
#: 10 digits past the working precision, so past this their rounding exceeds the estimate
MAX_X = 10 ** 11


def to_fraction(value):
    """Convert an exactly-representable number to Fraction.

    Accepts int, Fraction, str ("2/3", "0.25", "1e-3"), and finite float and
    mpf (both are dyadic rationals, hence exact); DomainError for inf or nan.
    """
    if isinstance(value, (float, mpmath.mpf)) and not mpmath.isfinite(value):
        raise DomainError(f"{value} is not a finite number")
    if isinstance(value, (int, float, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, mpmath.mpf):
        p, q = mpmath.libmp.to_rational(value._mpf_)
        return Fraction(int(p), int(q))
    raise TypeError(f"cannot interpret {value!r} as an exact real")


def to_mpf(value, dps):
    """Round ``value`` (number-like or Fraction) once to an mpf with ``dps`` digits."""
    with mp.workdps(dps):
        if isinstance(value, Fraction):
            return mp.make_mpf(mpmath.libmp.from_rational(value.numerator, value.denominator,
                                                          mp.prec, mpmath.libmp.round_nearest))
        return +mpmath.mpmathify(value)


def exact_x(x, working):
    """x as an exact Fraction: an int, Fraction or str exactly, a float or mpf first rounded
    to ``working`` digits.  DomainError for x < 0 or non-finite x, PrecisionInsufficient
    past ``MAX_X``."""
    xq = to_fraction(x if isinstance(x, (int, Fraction, str)) else to_mpf(x, working))
    if xq < 0:
        raise DomainError(f"x must be non-negative, got {xq}")
    if xq > MAX_X:
        raise PrecisionInsufficient(f"x = {mp.nstr(to_mpf(xq, 15), 5)} is past {MAX_X:.0e}, "
                                    "where the levels' rounding alone exceeds the estimate")
    return xq


def auto_series_dps(target_digits):
    """Working precision for direct summation: the target plus guard digits.

    ``series_eval`` forms the partial sum exactly, so the ~e^x cancellation
    between its terms costs no digits and the precision does not depend on
    x.  Only the final division and the gamma product are rounded; the guard
    covers them and a caller's rescaling (``humbert_rescale``).  Low targets still
    get ``DEFAULT_DPS`` digits.
    """
    working = max(DEFAULT_DPS, int(target_digits) + SERIES_GUARD_DIGITS)
    logger.debug("auto_series_dps: %d digits for a %d-digit target", working, target_digits)
    return working


def check_dps(dps):
    if int(dps) < MIN_DPS:
        raise ValueError(f"working precision must be at least {MIN_DPS} digits, got {dps}")
    return int(dps)


