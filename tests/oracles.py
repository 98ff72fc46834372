"""Independent cross-checks that only the tests run.

* ``closed_form_c123`` and ``general_c1``: exact polynomials for the
  expansion coefficients c_1..c_3 (n = 3) and c_1 (any order), against which
  both coefficient engines are checked.
* ``humbert_identity_check``: the series identity
  sum_k (-lam x/3)^k / k! J_{k,k}(x) = J_{0,0}(x (1+lam)^(1/3)), a check of
  ``humbert_J`` along a whole family of orders.  It sets its own working
  precision, 1.2 x + 30 guard digits above the target.
"""

import math
from fractions import Fraction

from mpmath import mp

from hyperbessel import DomainError, humbert_J
from hyperbessel.precision import DEFAULT_DPS, check_dps, to_fraction, to_mpf


class TailNotConverged(Exception):
    """An outer series was truncated while its last term was still significant."""


def closed_form_c123(a, b, precision=DEFAULT_DPS):
    """The exact polynomials for c_1, c_2, c_3 at n = 3 (symmetric in a, b).

    Evaluated in exact rational arithmetic, then rounded to ``precision``.
    """
    a = to_fraction(a)
    b = to_fraction(b)
    p = {k: a ** k + b ** k for k in range(1, 7)}
    ab = a * b
    c1 = Fraction(-2, 3) + p[1] - p[2] + ab
    c2 = Fraction(2, 9) + Fraction(1, 6) * (
        -4 * p[1] + p[2] - 4 * p[3] + 3 * p[4] - 3 * ab * (p[1] + 2 * p[2]) + ab * (17 + 9 * ab))
    c3 = Fraction(32, 81) + Fraction(1, 162) * (
        -72 * p[1] - 198 * p[2] + 45 * p[3] + 81 * p[4] + 27 * p[5] - 27 * p[6]
        + 3 * ab * (120 + 135 * ab + 63 * ab ** 2)
        + 27 * ab ** 2 * (p[1] - 6 * p[2])
        + 9 * ab * (24 * p[1] - 63 * p[2] + 6 * p[3] + 9 * p[4]))
    return tuple(to_mpf(v, precision) for v in (c1, c2, c3))


def general_c1(params):
    """c_1 = (n/2) { sum_j b_j(1-b_j) - theta(1-theta)/n - (n^2-1)/(6n) }, any order."""
    n = params.n
    s = sum((bj * (1 - bj) for bj in params.b_list), Fraction(0))
    value = Fraction(n, 2) * (s - params.theta * (1 - params.theta) / n - Fraction(n * n - 1, 6 * n))
    return to_mpf(value, params.dps)


def humbert_identity_check(x, lam, N, target_digits=20, dps=None):
    """Partial sum of sum_k (-lam*x/3)^k / k! J_{k,k}(x) against J_{0,0}(x (1+lam)^(1/3)).

    Returns (lhs, rhs, |lhs - rhs|).  Raises TailNotConverged when the first
    omitted outer term still exceeds the 10^(-target) tolerance.  The outer
    sum alternates and its terms grow up to ~e^x (lam = -1) times the result,
    so unlike ``series_eval`` it needs guard digits that grow with x: it works
    at 1.2 x + 30 digits above the target and sums each J_{k,k} to 10 digits
    below that.
    """
    lam = to_fraction(lam)
    if lam < -1:
        raise DomainError("need 1 + lam >= 0 so the right-hand argument is real")
    guard = math.ceil(1.2 * float(to_mpf(x, 30))) + 30
    working = check_dps(dps) if dps is not None else max(target_digits + guard, DEFAULT_DPS)
    with mp.workdps(working):
        xm = to_mpf(x, working)
        lam_m = to_mpf(lam, working)
        lhs = mp.mpf(0)
        outer = mp.mpf(1)  # (-lam x/3)^k / k!
        for k in range(N + 1):
            jkk = humbert_J(k, k, xm, target_digits=working - 10, dps=working)
            lhs += outer * jkk.value
            outer = outer * (-lam_m * xm / 3) / (k + 1)
        tol = mp.mpf(10) ** (-target_digits)
        if outer != 0:
            omitted = abs(outer) * abs(humbert_J(N + 1, N + 1, xm,
                                                 target_digits=10, dps=working).value)
            if omitted > tol:
                raise TailNotConverged(
                    f"omitted term at k={N + 1} still {mp.nstr(omitted, 3)} > {mp.nstr(tol, 3)}")
        arg = xm * (1 + lam_m) ** (mp.mpf(1) / 3)
        rhs = humbert_J(0, 0, arg, target_digits=working - 10, dps=working).value
        return lhs, rhs, abs(lhs - rhs)
