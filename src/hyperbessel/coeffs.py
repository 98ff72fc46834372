"""Normalized inverse-factorial-expansion coefficients c_j, by two independent engines.

The coefficients are defined through

    Gamma(n s + theta') / (Gamma(s+1) prod_j Gamma(s+b_j))
        = n^(n s + 1) A0 * { sum_j c_j / (n s + theta')_j + O(1/(n s + theta')_M) }

with c_0 = 1.  Two algorithms are provided:

* ``stirling_matching_coeffs`` (any supported order): expand the logarithm of
  the gamma ratio above in powers of 1/s via the Stirling series, exponentiate,
  and solve the triangular system that matches the reciprocal-Pochhammer sum
  order by order.  The s*log s, s, log s and constant parts must cancel
  identically; their numerical residue is checked and ``CancellationFailure``
  is raised if the derived constants are inconsistent.

* ``riney_coeffs`` (n = 3 only): the explicit recurrence

      c_j = -(1/(27 j)) sum_{k<j} c_k e(j,k),
      e(j,k) = sum_r D_r (theta' - 3 b_r)_{3+j} / (theta' - 3 b_r)_k

  with b_1 = a, b_2 = b, b_3 = 1 and weights D_r that are singular at a = b,
  a = 1 or b = 1 (``SingularRineyWeights``).

Closed forms for c_1..c_3 (n = 3) and the general-order c_1 are also exposed;
they serve as independent cross-checks of both engines.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from mpmath import mp

from .errors import (CancellationFailure, OrderUnsupported, SeriesLengthInsufficient,
                     SingularRineyWeights)
from .params import ExpansionParams
from .powerseries import PowerSeries1OverS, reciprocal_linear
from .precision import DEFAULT_DPS, to_mpf

#: extra series orders beyond M kept by the matching engine
SERIES_GUARD = 8

#: digits assumed lost to the mildly conditioned triangular solve
EST_DIGITS_MARGIN = 10


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients c_0 ... c_{M-1} for one parameter set.

    ``est_digits`` is a conservative estimate of the correct significant
    digits; cross-engine comparison typically shows far better agreement.
    """

    params: ExpansionParams
    c: tuple
    method: str
    est_digits: int

    def __len__(self):
        return len(self.c)

    def __getitem__(self, j):
        return self.c[j]

    def term_magnitudes(self, x, dps=None):
        """|c_j| x^(-j) for every tabulated j (the truncation-choice trace)."""
        dps = dps or self.params.dps
        with mp.workdps(dps):
            xm = to_mpf(x, dps)
            return tuple(abs(cj) * xm ** (-j) for j, cj in enumerate(self.c))


@functools.lru_cache(maxsize=None)
def bernoulli_number(m):
    """Exact Bernoulli number B_m (B_1 = -1/2) via the defining recurrence."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(m):
        acc += comb(m + 1, k) * bernoulli_number(k)
    return -acc / (m + 1)


@dataclass(frozen=True)
class _LogGammaAsym:
    """ln Gamma(scale*s + shift) for s -> +inf, split into symbolic parts.

    Represents  a * s*ln(s) + b * s + c * ln(s) + tail(1/s),
    where tail includes the constant term.
    """

    s_log_s: object
    s_lin: object
    log_s: object
    tail: PowerSeries1OverS

    def __sub__(self, other):
        return _LogGammaAsym(self.s_log_s - other.s_log_s, self.s_lin - other.s_lin,
                             self.log_s - other.log_s, self.tail - other.tail)


def _log_gamma_series(scale, shift, length, dps):
    """Stirling expansion of ln Gamma(scale*s + shift), re-expanded in 1/s.

    ln(scale*s + shift) is written as ln(scale) + ln(s) + ln(1 + shift/(scale*s))
    and every factor is expanded through order s^(-length).
    """
    with mp.workdps(dps):
        c = to_mpf(scale, dps)
        d = to_mpf(shift, dps)
        dc = d / c
        tail = [mp.mpf(0)] * (length + 1)
        tail[0] = (d - mp.mpf(1) / 2) * mp.log(c) + mp.log(2 * mp.pi) / 2
        # (c*s + d - 1/2) * ln(1 + d/(c*s)), collected by power of 1/s
        for j in range(1, length + 1):
            tail[j] += c * (-1) ** j * dc ** (j + 1) / (j + 1)
            tail[j] += (d - mp.mpf(1) / 2) * (-1) ** (j + 1) * dc ** j / j
        # Bernoulli tail: sum_k B_{2k} / (2k(2k-1) (c*s+d)^{2k-1})
        k = 1
        while 2 * k - 1 <= length:
            b2k = bernoulli_number(2 * k)
            coef = to_mpf(b2k, dps) / (2 * k * (2 * k - 1)) / c ** (2 * k - 1)
            p = 2 * k - 1
            for m2 in range(0, length - p + 1):
                tail[p + m2] += coef * (-1) ** m2 * comb(p + m2 - 1, m2) * dc ** m2
            k += 1
        return _LogGammaAsym(c, c * mp.log(c) - c, d - mp.mpf(1) / 2,
                             PowerSeries1OverS(tuple(tail), dps))


def _log_ratio_series(params, length, dps):
    """1/s-expansion of ln R(s), R(s) = Gamma(n s + theta') / (n^(n s + 1) A0 Gamma(s+1) prod Gamma(s+b_j)).

    The s*ln s, s, ln s and constant contributions cancel by construction;
    the numerical residue is verified and zeroed.
    """
    n = params.n
    with mp.workdps(dps):
        ln_n = mp.log(n)
        # ln A0 from the exact rational theta, at full working precision
        ln_a0 = to_mpf(Fraction(-1, 2) - params.theta, dps) * ln_n - mp.mpf(n - 1) / 2 * mp.log(2 * mp.pi)
        total = _log_gamma_series(n, params.theta_prime, length, dps)
        total = _LogGammaAsym(total.s_log_s, total.s_lin - n * ln_n, total.log_s,
                              total.tail - PowerSeries1OverS.constant(ln_n + ln_a0, length, dps))
        total = total - _log_gamma_series(1, 1, length, dps)
        for bj in params.b_list:
            total = total - _log_gamma_series(1, bj, length, dps)
        tol = mp.mpf(10) ** (10 - dps) * (1 + abs(ln_a0) + n)
        residues = (abs(total.s_log_s), abs(total.s_lin), abs(total.log_s), abs(total.tail[0]))
        if max(residues) > tol:
            raise CancellationFailure(
                f"log-ratio terms failed to cancel for {params.describe()}: residues {residues}")
        tail = (mp.mpf(0),) + total.tail.coeffs[1:]
        return PowerSeries1OverS(tail, dps)


def _pochhammer_reciprocal_series(n, theta_prime, j, previous, length, dps):
    """Series of 1/(n s + theta')_j, built incrementally from the (j-1)-series."""
    return previous * reciprocal_linear(to_mpf(theta_prime, dps) + (j - 1), n, length, dps)


@functools.lru_cache(maxsize=64)
def _stirling_matching_cached(params, M, L):
    # Guard digits: the triangular solve multiplies by n^m at order m and the
    # matched sums cancel mildly; working above params.dps keeps the delivered
    # digits at full requested precision.
    work = params.dps + 10 + M // 2
    n = params.n
    series = _log_ratio_series(params, L, work)
    r = series.exp()
    with mp.workdps(work):
        c = [mp.mpf(1)]
        q = PowerSeries1OverS.constant(1, L, work)
        q_rows = [q]
        for j in range(1, M):
            q = _pochhammer_reciprocal_series(n, params.theta_prime, j, q, L, work)
            q_rows.append(q)
        for m in range(1, M):
            acc = r[m]
            for j in range(1, m):
                acc -= c[j] * q_rows[j][m]
            c.append(acc / q_rows[m][m])
    with mp.workdps(params.dps):
        return tuple(+cj for cj in c)


def stirling_matching_coeffs(params, M, L=None):
    """Coefficients c_0..c_{M-1} by gamma-asymptotics matching (any valid params).

    ``L`` is the formal series length; it defaults to M + 8 and must leave at
    least that guard (``SeriesLengthInsufficient`` otherwise).
    """
    if M < 1:
        raise ValueError("need at least one coefficient")
    if L is None:
        L = M + SERIES_GUARD
    if L < M + SERIES_GUARD:
        raise SeriesLengthInsufficient(f"series length {L} < M + {SERIES_GUARD} = {M + SERIES_GUARD}")
    c = _stirling_matching_cached(params, int(M), int(L))
    return CoeffTable(params=params, c=c, method="stirling", est_digits=params.dps - EST_DIGITS_MARGIN)


def _riney_singularity_gap(params):
    a, b = params.b_list
    return min(abs(a - b), abs(1 - a), abs(1 - b))


@functools.lru_cache(maxsize=64)
def _riney_cached(params, M):
    work = params.dps + 10
    with mp.workdps(work):
        a, b = (to_mpf(v, work) for v in params.b_list)
        theta_prime = to_mpf(params.theta_prime, work)
        bases = (a, b, mp.mpf(1))
        weights = (-1 / ((a - b) * (1 - a)),
                   1 / ((a - b) * (1 - b)),
                   1 / ((1 - a) * (1 - b)))
        c = [mp.mpf(1)]
        for j in range(1, M):
            acc = mp.mpf(0)
            for q0, d_r in zip(bases, weights):
                q = theta_prime - 3 * q0
                # (q)_{3+j} / (q)_k = prod_{i=k}^{j+2} (q+i), built downward in k
                prod = (q + j - 1) * (q + j) * (q + j + 1) * (q + j + 2)
                partial = d_r * c[j - 1] * prod
                for k in range(j - 2, -1, -1):
                    prod = prod * (q + k)
                    partial += d_r * c[k] * prod
                acc += partial
            c.append(-acc / (27 * j))
    with mp.workdps(params.dps):
        return tuple(+cj for cj in c)


def riney_coeffs(params, M):
    """Coefficients c_0..c_{M-1} by the explicit n = 3 recurrence.

    Requires n = 3 and parameters away from the weight singularities
    a = b, a = 1, b = 1 (within 10^(-dps/2)); use the matching engine there.
    """
    if params.n != 3:
        raise OrderUnsupported("the explicit recurrence is specific to n = 3")
    if M < 1:
        raise ValueError("need at least one coefficient")
    gap = _riney_singularity_gap(params)
    if gap == 0 or float(gap) < 10.0 ** (-params.dps / 2):
        raise SingularRineyWeights(
            f"weights singular or near-singular for {params.describe()} (gap {gap}); "
            "use stirling_matching_coeffs")
    c = _riney_cached(params, int(M))
    return CoeffTable(params=params, c=c, method="riney", est_digits=params.dps - EST_DIGITS_MARGIN)


def closed_form_c123(a, b, precision=DEFAULT_DPS):
    """The exact polynomials for c_1, c_2, c_3 at n = 3 (symmetric in a, b).

    Evaluated in exact rational arithmetic, then rounded to ``precision``.
    """
    from .precision import to_fraction
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
