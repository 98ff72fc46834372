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
rounding to ``dps`` digits.
"""

import logging
from fractions import Fraction

import mpmath
from mpmath import mp

logger = logging.getLogger(__name__)

MIN_DPS = 30
DEFAULT_DPS = 50
#: digits above the target that direct summation works at
SERIES_GUARD_DIGITS = 10


def to_fraction(value):
    """Convert an exactly-representable number to Fraction.

    Accepts int, Fraction, str ("2/3", "0.25", "1e-3"), float and mpf (both
    are dyadic rationals, hence exact).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, mpmath.mpf):
        p, q = mpmath.libmp.to_rational(value._mpf_)
        return Fraction(int(p), int(q))
    raise TypeError(f"cannot interpret {value!r} as an exact real")


def to_mpf(value, dps):
    """Round ``value`` (number-like or Fraction) to an mpf with ``dps`` digits."""
    with mp.workdps(dps):
        if isinstance(value, Fraction):
            return mp.mpf(value.numerator) / value.denominator
        return +mpmath.mpmathify(value)


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


