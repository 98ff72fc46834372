"""Normalized inverse-factorial-expansion coefficients c_j, by two independent engines.

The coefficients are defined through

    Gamma(n s + theta') / (Gamma(s+1) prod_j Gamma(s+b_j))
        = n^(n s + 1) A0 * { sum_j c_j / (n s + theta')_j + O(1/(n s + theta')_M) }

with c_0 = 1.  Two algorithms are provided:

* ``stirling_matching_coeffs`` (any supported order): expand the logarithm of
  the gamma ratio above in powers of 1/s, exponentiate, and solve the
  triangular system that matches the reciprocal-Pochhammer sum order by
  order.  Each coefficient of the logarithm is an exact rational in the
  Bernoulli polynomials B_{k+1}(theta'), B_{k+1}(1) and B_{k+1}(b_j), formed
  exactly and rounded once; its s*log s, s, log s and constant parts cancel
  identically, since ``ExpansionParams`` derives theta and theta' from the
  b_j.  Where the ratio is a constant (the closed-form
  sets) every c_j, j >= 1, comes out exactly 0.  The longest table built so
  far is kept for each recently used parameter set, and shorter requests are
  answered with its prefix (``_TableStore``).

* ``riney_coeffs`` (n = 3 only): the explicit recurrence

      c_j = -(1/(27 j)) sum_{k<j} c_k e(j,k),
      e(j,k) = sum_r D_r (theta' - 3 b_r)_{3+j} / (theta' - 3 b_r)_k

  with b_1 = a, b_2 = b, b_3 = 1 and weights D_r that are singular at a = b,
  a = 1 or b = 1 (``SingularRineyWeights``).

A ``CoeffTable`` carries its parameter set, so the asymptotic levels take the
table alone.  The closed forms for c_1..c_3 (n = 3) and the general-order c_1
that cross-check both engines live with the tests (``tests/oracles.py``).
"""

import functools
import logging
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from mpmath import mp
from mpmath.libmp import fone, from_rational, fzero, mpf_div, mpf_mul, round_nearest

from .errors import OrderUnsupported, SingularRineyWeights
from .params import ExpansionParams
from .powerseries import PowerSeries1OverS, _dot, reciprocal_linear
from .precision import to_mpf

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients c_0 ... c_{M-1} for one parameter set, rounded to
    ``params.dps`` digits, and the engine (``method``) that built them."""

    params: ExpansionParams
    c: tuple
    method: str

    def __len__(self):
        return len(self.c)

    def __getitem__(self, j):
        return self.c[j]

    def scaled_terms(self, x, dps):
        """u_j = c_j x^(-j) for every tabulated j, each rounded once to ``dps`` digits.

        x^(-j) is a running product of 1/x carried with enough guard bits that
        its accumulated rounding stays far below the last digit of u_j.
        """
        with mp.workdps(dps):
            prec = mp.prec
            xm = to_mpf(x, dps)
        carry = prec + len(self.c).bit_length() + 10
        step = mpf_div(fone, xm._mpf_, carry, round_nearest)
        power, terms = fone, []
        for cj in self.c:
            terms.append(mp.make_mpf(mpf_mul(cj._mpf_, power, prec, round_nearest)))
            power = mpf_mul(power, step, carry, round_nearest)
        return tuple(terms)


@functools.lru_cache(maxsize=None)
def bernoulli_number(m):
    """Exact Bernoulli number B_m (B_1 = -1/2) via the defining recurrence."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(m):
        acc += comb(m + 1, k) * bernoulli_number(k)
    return -acc / (m + 1)


def _log_ratio_series(params, length, dps):
    """1/s-expansion of ln R(s), R(s) = Gamma(n s + theta') / (n^(n s + 1) A0 Gamma(s+1) prod Gamma(s+b_j)).

    From ln Gamma(z+a) ~ (z+a-1/2) ln z - z + ln(2 pi)/2
    + sum_k (-)^(k+1) B_{k+1}(a) / (k(k+1) z^k) (DLMF 5.11.8) the s*ln s, s,
    ln s and constant parts cancel identically, since theta' = 1 - theta and
    theta = (n-1)/2 - sum b_j.  What remains is t_0 = 0 and the exact rationals

        t_k = (-)^(k+1)/(k(k+1)) [B_{k+1}(theta')/n^k - B_{k+1}(1) - sum_j B_{k+1}(b_j)],

    each formed in integers and rounded once to ``dps`` digits.
    """
    n, bs = params.n, params.b_list
    # every shift as u/V, so V^(k+1) B_{k+1}(u/V) = sum_i C(k+1, i) B_i V^i u^(k+1-i);
    # D B_i are integers
    V = lcm(params.theta_prime.denominator, *(b.denominator for b in bs))
    u0 = int(params.theta_prime * V)
    us = [V] + [int(b * V) for b in bs]
    bern = [bernoulli_number(i) for i in range(length + 2)]
    D = lcm(*(b.denominator for b in bern))
    beta = [b.numerator * (D // b.denominator) for b in bern]
    V_pow = [V ** m for m in range(length + 2)]
    u0_pow = [u0 ** m for m in range(length + 2)]
    us_pow = [sum(u ** m for u in us) for m in range(length + 2)]
    with mp.workdps(dps):
        prec = mp.prec
    tail = [fzero]
    for k in range(1, length + 1):
        nk = n ** k
        # n^k V^(k+1) D times the bracket of t_k
        num = sum(comb(k + 1, i) * beta[i] * V_pow[i] * (u0_pow[k + 1 - i] - nk * us_pow[k + 1 - i])
                  for i in range(k + 2) if beta[i])
        tail.append(from_rational(num if k % 2 else -num, k * (k + 1) * D * nk * V_pow[k + 1],
                                  prec, round_nearest))
    return PowerSeries1OverS._from_raw(tail, dps)


class _TableStore:
    """The longest matching-engine table built so far for each of the ``size``
    most recently used parameter sets.

    A request for M coefficients is answered with exactly the first M of the
    stored table.  Only a longer request builds, and its table then replaces
    the stored one, so an x-range evaluated for one parameter set builds once
    per new maximum M.
    """

    def __init__(self, size):
        self.size = size
        self._tables = OrderedDict()    # params -> c

    def prefix(self, params, M, work):
        """c_0..c_{M-1}, built by ``_stirling_build(params, M, work)`` if nothing stored covers M."""
        c = self._tables.get(params, ())
        if len(c) < M:
            logger.debug("stirling table build: %s, M = %d at %d working digits, replacing %d "
                         "coefficients", params.describe(), M, work, len(c))
            c = self._tables[params] = _stirling_build(params, M, work)
        self._tables.move_to_end(params)
        if len(self._tables) > self.size:
            self._tables.popitem(last=False)
        return c[:M]


_TABLES = _TableStore(64)


def _stirling_build(params, M, work):
    n = params.n
    # the solve for c_0..c_{M-1} reads every series through order M - 1 only
    L = M - 1
    series = _log_ratio_series(params, L, work)
    r = series.exp()
    # q_rows[j] = 1/(n s + theta')_j with theta' + (j - 1) rounded at ``work``
    # digits; the j = 0 row, the series 1, is never read.  Row j - 1 starts at
    # order j - 1, so its product reads step row j only through L - j + 1
    q_rows = [None]
    with mp.workdps(work):
        prec = mp.prec
        theta_prime, scale = to_mpf(params.theta_prime, work), mp.mpf(n)
        for j in range(1, M):
            step = reciprocal_linear(theta_prime + (j - 1), scale, L - j + 1, work)
            q_rows.append(step if j == 1 else q_rows[-1] * step)
    # c_m = (r_m - sum_{0<j<m} c_j q_j[m]) / q_m[m], each rounded once
    c = [fone]
    neg_c = []
    for m in range(1, M):
        xs = [r[m]._mpf_] + neg_c
        ys = [fone] + [q_rows[j][m]._mpf_ for j in range(1, m)]
        c.append(_dot(xs, ys, prec, q_rows[m][m]._mpf_))
        sign, man, exp, bc = c[-1]
        neg_c.append((sign ^ 1, man, exp, bc))
    with mp.workdps(params.dps):
        return tuple(+mp.make_mpf(cj) for cj in c)


def stirling_matching_coeffs(params, M):
    """Coefficients c_0..c_{M-1} by gamma-asymptotics matching (any valid params).

    The log-ratio, exp and reciprocal-Pochhammer series are built through
    order M - 1, the last order the triangular solve reads (step row j of
    the Pochhammer products through M - j, the last its product reads), at
    ``params.dps + 10 + M // 2`` working digits (the solve multiplies by n^m
    at order m and its sums cancel mildly), and each c_j is rounded once to
    ``params.dps``.  The table is kept per parameter set (see ``_TableStore``),
    so a request no longer than one already built is answered by its prefix.
    """
    if M < 1:
        raise ValueError("need at least one coefficient")
    M = int(M)
    c = _TABLES.prefix(params, M, params.dps + 10 + M // 2)
    return CoeffTable(params=params, c=c, method="stirling")


def _riney_singularity_gap(params):
    a, b = params.b_list
    return min(abs(a - b), abs(1 - a), abs(1 - b))


def _riney_build(params, M, work):
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
    Each call builds afresh at ``params.dps + 10`` working digits, whatever M
    is, so a shorter table is the same bits as a prefix of a longer one.
    """
    if params.n != 3:
        raise OrderUnsupported("the explicit recurrence is specific to n = 3")
    if M < 1:
        raise ValueError("need at least one coefficient")
    gap = _riney_singularity_gap(params)
    if gap ** 2 < Fraction(1, 10 ** params.dps):  # exact: a float threshold underflows
        raise SingularRineyWeights(
            f"weights singular or near-singular for {params.describe()} (gap {gap}); "
            "use stirling_matching_coeffs")
    c = _riney_build(params, int(M), params.dps + 10)
    return CoeffTable(params=params, c=c, method="riney")

