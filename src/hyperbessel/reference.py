"""Ground-truth evaluation by exact direct summation, plus exact closed forms.

The central object is

    F_n(x) = sum_{k>=0} (-)^k (x/n)^(n k) / (Gamma(k+b_1) ... Gamma(k+b_{n-1}) k!),

an entire function whose terms peak near k ~ x/n at magnitude ~e^x while the
sum itself is only ~e^(x cos(pi/n)).  With x/n = p/q and b_j = u_j/v_j the
ratio of successive terms is the fixed integer a = -p^n prod_j v_j over the
integer polynomial B(k) = q^n (k+1) prod_j (v_j k + u_j), so
``series_eval`` forms the partial sum exactly in integers by binary splitting
(Haible & Papanikolaou, "Fast multiprecision evaluation of series of rational
numbers", 1998).  The ~e^x cancellation therefore costs no digits: only the
final division and the prod_j Gamma(b_j) factor are rounded.  The Humbert
hyper-Bessel function is the rescaled n = 3 case

    J_{m,nu}(x) = (x/3)^(m+nu) F_3(x; b = (m+1, nu+1)),

and ``humbert_rescale`` is the one place that applies the factor, to a
series or a compound evaluation of F_3 alike.
"""

import enum
import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from mpmath import libmp, mp

from .errors import DomainError, PrecisionInsufficient
from .params import derive_params
from .precision import DEFAULT_DPS, auto_series_dps, check_dps, exact_x, to_fraction, to_mpf

logger = logging.getLogger(__name__)

METHOD_SERIES = "series"
METHOD_CLOSED_FORM = "closed-form"
METHOD_ASYMPTOTIC = "asymptotic"
METHOD_COMPOUND = "compound"

#: digits below the target at which the term count is chosen, so that the
#: exact tail check rarely asks for more terms
TAIL_GUARD_DIGITS = 10
#: extensions of the term count before a partial sum that stays below its
#: tail is taken for a zero of F
MAX_EXTENSIONS = 8
#: terms that ``_TermRatio.split`` sums in one loop instead of splitting further
LEAF_TERMS = 8


@dataclass(frozen=True)
class EvalResult:
    """One evaluation: value plus convergence/cancellation diagnostics.

    ``error_estimate`` is absolute.  ``max_term_magnitude`` is the largest
    term summed, in the units of ``value``, so ``digits_lost`` =
    log10(max_term / |value|) shows how much the terms cancel: for a series
    result the peak |t_k| to float accuracy, for an asymptotic or compound
    result the lead level's |prefactor w| times the peak |c_j| x^(-j), and
    for a closed form |value| itself.
    """

    value: object
    method: str
    terms_used: int
    max_term_magnitude: object
    error_estimate: object

    @property
    def digits_lost(self):
        if self.value == 0 or self.max_term_magnitude == 0:
            return mp.mpf(0)
        return mp.log10(abs(self.max_term_magnitude) / abs(self.value))


class _TermRatio:
    """r_{k+1} / r_k = a / B(k) for F_n at an exact x, with r_0 = 1.

    ``logs`` holds the float magnitudes ln|r_k| scanned so far and ``den``
    the integers B(k), one entry ahead of ``logs``.
    """

    def __init__(self, n, b_list, xq):
        z = xq / n
        self.a = -z.numerator ** n * math.prod(b.denominator for b in b_list)
        self._qn = z.denominator ** n
        self._vu = tuple((b.denominator, b.numerator) for b in b_list)
        # |B(k)| increases once every k + b_j is positive, so the ratios fall
        self._k_mono = max(0, max(math.ceil(-b) for b in b_list))
        self.logs = [0.0]
        self.den = [self._qn * math.prod(u for _, u in self._vu)]

    def scan(self, goal):
        """Scan on to the first N >= 1 at which the tail from r_N is at most
        2|r_N| (r_N lies past every sign change of k + b_j and the ratio
        after it is at most 1/2) and ln|r_N| <= goal; return N."""
        log, log_a, two_a = math.log, math.log(abs(self.a)), 2 * abs(self.a)
        logs, den, qn, vu, k_mono = self.logs, self.den, self._qn, self._vu, self._k_mono
        k, last, d = len(logs), logs[-1], den[-1]
        while True:
            last = last + log_a - log(abs(d))
            logs.append(last)
            d = qn * (k + 1)
            for v, u in vu:
                d *= v * k + u
            den.append(d)
            if k >= k_mono and two_a <= abs(d) and last <= goal:
                return k
            k += 1

    def split(self, lo, hi):
        """Binary splitting of the terms lo..hi-1, down to leaves of at most
        ``LEAF_TERMS`` terms that one loop sums.

        Returns integers (P, Q, T) with P = a^(hi-lo), Q = B(lo)...B(hi-1)
        and T/Q = sum_{k=lo}^{hi-1} r_k / r_lo, so P/Q = r_hi / r_lo.
        """
        if hi - lo <= LEAF_TERMS:
            a, p, q, t = self.a, 1, 1, 0
            for d in self.den[lo:hi]:
                p, q, t = p * a, q * d, (t + p) * d
            return p, q, t
        mid = (lo + hi) // 2
        p1, q1, t1 = self.split(lo, mid)
        p2, q2, t2 = self.split(mid, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _exact_sum(ratio, target_digits, log_expected):
    """(N, P, Q, T): the first N terms sum to T/Q and r_N = P/Q, with
    2|r_N| <= 10^(-target-1) |T/Q|.

    N is first chosen from the float magnitudes, ``TAIL_GUARD_DIGITS`` below
    the target relative to e^log_expected; when the exact sum is smaller
    than expected (near a zero of F) the range is extended by the missing
    digits and merged into the same (P, Q, T).
    """
    terms = ratio.scan(log_expected - (target_digits + TAIL_GUARD_DIGITS) * math.log(10))
    p, q, t = ratio.split(0, terms)
    for _ in range(MAX_EXTENSIONS):
        if 2 * abs(p) * 10 ** (target_digits + 1) <= abs(t):
            return terms, p, q, t
        deficit = (math.log10(2 * abs(p)) + target_digits + 1 - math.log10(abs(t))
                   if t else TAIL_GUARD_DIGITS)
        more = ratio.scan(ratio.logs[terms] - (deficit + TAIL_GUARD_DIGITS) * math.log(10))
        logger.debug("series_eval: tail 10^%.1f above the target at %d terms, extending to %d",
                     deficit, terms, more)
        p2, q2, t2 = ratio.split(terms, more)
        p, q, t, terms = p * p2, q * q2, t * q2 + p * t2, more
    raise PrecisionInsufficient(
        f"the partial sum is still below its tail after {terms} terms: F is zero "
        f"to about {target_digits} digits here, so no relative accuracy can be certified")


def _quotient(num, den, prec):
    """num/den for integers as an mpf of ``prec`` bits.

    The integer quotient is cut 10 bits below that and then rounded, so the
    result is within 0.51 units in its last place.
    """
    if den < 0:
        num, den = -num, -den
    shift = prec + 10 + den.bit_length() - num.bit_length()
    scaled = num << shift if shift >= 0 else num >> -shift
    return mp.make_mpf(libmp.from_man_exp(scaled // den, -shift, prec, libmp.round_nearest))


def _exp_mpf(log_value):
    """e^log_value as an mpf to float accuracy, at any magnitude."""
    e2 = log_value / math.log(2)
    e = math.floor(e2)
    return mp.make_mpf(libmp.from_man_exp(int(2.0 ** (e2 - e + 52)), e - 52))


def series_eval(params, x, target_digits=20, dps=None):
    """Sum F_n(x) exactly until the tail is provably below the target.

    With r_k = t_k prod_j Gamma(b_j), the partial sum of N terms is the
    rational T/Q formed by binary splitting from the integer ratio a / B(k)
    (see the module docstring).  A float pass over ln|r_k| picks N so that
    the tail is at most 2|r_N| and sits ``TAIL_GUARD_DIGITS`` below the
    target relative to the expected size e^(x cos(pi/n)) x^min(theta, 0);
    the exact sum then must show 2|r_N| <= 10^(-target-1) |T/Q|, and where
    it does not (near a zero of F) N is extended without starting over.

    Only T/Q and the gamma product are rounded, at the working precision
    (``auto_series_dps`` unless ``dps`` is given), so ``error_estimate`` is
    the tail bound 2|t_N| plus 10^(1-dps) |value|.  ``max_term_magnitude``
    is the peak |t_k| of the summed terms to float accuracy, from the float
    logs.  Raises PrecisionInsufficient when that rounding cannot certify
    the target, and DomainError or PrecisionInsufficient where
    ``precision.exact_x`` refuses x (a float or mpf x is read at the
    working precision).
    """
    working = check_dps(dps) if dps is not None else auto_series_dps(target_digits)
    xq = exact_x(x, working)
    n, b_list = params.n, params.b_list
    ratio = _TermRatio(n, b_list, xq)
    if ratio.a == 0:
        terms, p, q, t = 1, 0, 1, 1
    else:
        xf = float(xq)
        log_expected = (xf * math.cos(math.pi / n)
                        + min(float(params.theta), 0) * math.log(max(xf, 1)))
        terms, p, q, t = _exact_sum(ratio, target_digits, log_expected)
    with mp.workdps(working + 10):
        gammas = mp.fprod([mp.gamma(to_mpf(b, working + 10)) for b in b_list])
    with mp.workdps(working):
        value = _quotient(t, q, mp.prec) / gammas
        tail = _quotient(2 * abs(p), abs(q), mp.prec) / abs(gammas)
        error = tail + abs(value) * mp.mpf(10) ** (1 - working)
        if value == 0 or error > mp.mpf(10) ** (-target_digits) * abs(value):
            raise PrecisionInsufficient(
                f"cannot certify {target_digits} digits at {working} dps: error bound "
                f"{mp.nstr(error, 3)} against value {mp.nstr(value, 3)}; "
                f"use at least {target_digits + 2} dps")
        peak = max(ratio.logs[:terms]) - sum(math.lgamma(b) for b in b_list)
        return EvalResult(value=value, method=METHOD_SERIES, terms_used=terms,
                          max_term_magnitude=_exp_mpf(peak), error_estimate=error)


class ClosedFormCase(enum.Enum):
    """Parameter sets with an exact elementary evaluation."""

    N3_THIRDS = "n3:(1/3,2/3)"
    N3_FOUR_FIVE_THIRDS = "n3:(4/3,5/3)"
    N4_QUARTERS = "n4:(1/4,1/2,3/4)"
    N5_FIFTHS = "n5:(1/5,2/5,3/5,4/5)"

    @property
    def order(self):
        return {ClosedFormCase.N3_THIRDS: 3, ClosedFormCase.N3_FOUR_FIVE_THIRDS: 3,
                ClosedFormCase.N4_QUARTERS: 4, ClosedFormCase.N5_FIFTHS: 5}[self]

    @property
    def b_list(self):
        return {
            ClosedFormCase.N3_THIRDS: (Fraction(1, 3), Fraction(2, 3)),
            ClosedFormCase.N3_FOUR_FIVE_THIRDS: (Fraction(4, 3), Fraction(5, 3)),
            ClosedFormCase.N4_QUARTERS: (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
            ClosedFormCase.N5_FIFTHS: (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)),
        }[self]


def closed_form_eval(case, x, precision=None):
    """Exact elementary formula for the four special parameter sets.

    x is admitted by ``precision.exact_x``; N3_FOUR_FIVE_THIRDS requires x > 0.
    """
    dps = check_dps(precision) if precision is not None else DEFAULT_DPS
    with mp.workdps(dps):
        xm = to_mpf(exact_x(x, dps), dps)
        if case is ClosedFormCase.N3_THIRDS:
            value = 3 ** mp.mpf("-0.5") / (2 * mp.pi) * (
                2 * mp.exp(xm / 2) * mp.cos(mp.sqrt(3) / 2 * xm) + mp.exp(-xm))
        elif case is ClosedFormCase.N3_FOUR_FIVE_THIRDS:
            if xm == 0:
                raise DomainError("x = 0 not allowed: the formula carries an x^(-2) prefactor")
            value = 3 ** mp.mpf("1.5") / (2 * mp.pi * xm ** 2) * (
                2 * mp.exp(xm / 2) * mp.cos(mp.sqrt(3) / 2 * xm - 2 * mp.pi / 3) + mp.exp(-xm))
        elif case is ClosedFormCase.N4_QUARTERS:
            a0 = mp.mpf(4) ** mp.mpf("-0.5") / (2 * mp.pi) ** mp.mpf("1.5")
            value = 4 * a0 * mp.cos(xm / mp.sqrt(2)) * mp.cosh(xm / mp.sqrt(2))
        elif case is ClosedFormCase.N5_FIFTHS:
            a0 = mp.mpf(5) ** mp.mpf("-0.5") / (2 * mp.pi) ** 2
            value = a0 * (2 * mp.exp(xm * mp.cospi(mp.mpf(1) / 5)) * mp.cos(xm * mp.sinpi(mp.mpf(1) / 5))
                          + 2 * mp.exp(xm * mp.cospi(mp.mpf(3) / 5)) * mp.cos(xm * mp.sinpi(mp.mpf(3) / 5))
                          + mp.exp(-xm))
        else:
            raise ValueError(f"unknown case {case!r}")
        return EvalResult(value=value, method=METHOD_CLOSED_FORM, terms_used=1,
                          max_term_magnitude=abs(value), error_estimate=abs(value) * mp.mpf(10) ** (5 - dps))


def humbert_J(m, nu, x, target_digits=20, dps=None):
    """The hyper-Bessel function J_{m,nu}(x) = (x/3)^(m+nu) F_3(x; m+1, nu+1).

    F_3 is summed by ``series_eval`` and rescaled by ``humbert_rescale``.  The
    orders need not be integers; m+1 and nu+1 must avoid the gamma poles.
    x = 0 requires m + nu >= 0: J is 0 where m + nu > 0, and
    1/(Gamma(m+1) Gamma(1-m)) at nu = -m.
    """
    working = check_dps(dps) if dps is not None else auto_series_dps(target_digits)
    params = derive_params(3, (to_fraction(m) + 1, to_fraction(nu) + 1), precision=working)
    return humbert_rescale(series_eval(params, x, target_digits=target_digits, dps=working),
                           m, nu, x, working)


def humbert_rescale(result, m, nu, x, dps):
    """``result``, an evaluation of F_3(x; m+1, nu+1), as J_{m,nu}(x): value, peak
    term and error estimate times (x/3)^(m+nu), at ``dps`` digits.

    x is admitted by ``precision.exact_x``.  Raises DomainError at x = 0 when
    m + nu < 0, where the factor has a pole.
    """
    power = to_fraction(m) + to_fraction(nu)
    if power == 0:
        return result
    with mp.workdps(dps):
        xm = to_mpf(exact_x(x, dps), dps)
        if xm == 0 and power < 0:
            raise DomainError("x = 0 requires m + nu >= 0")
        factor = (xm / 3) ** to_mpf(power, dps)
        return replace(result, value=result.value * factor,
                       max_term_magnitude=abs(factor) * result.max_term_magnitude,
                       error_estimate=abs(factor) * result.error_estimate)
