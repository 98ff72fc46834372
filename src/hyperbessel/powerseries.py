"""Truncated formal series in 1/s with arbitrary-precision coefficients.

``PowerSeries1OverS((r0, r1, ..., rL), dps)`` represents

    r0 + r1/s + r2/s^2 + ... + rL/s^L.

Each output coefficient is an exact sum of exact products, rounded once to
``dps`` decimal digits: a product sums integer mantissas aligned once per
operand, skipping both operands' leading zeros; ``exp`` and the coefficient
engine's triangular solve use ``_dot``.  This is the workhorse behind the
gamma-ratio coefficient engine.
"""

from dataclasses import dataclass
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import (dps_to_prec, fone, from_int, from_man_exp, fzero, mpf_div, mpf_mul,
                          mpf_neg, mpf_pos, round_nearest)

from .precision import check_dps, to_mpf


def _dot(xs, ys, prec, divisor=None):
    """sum_i x_i y_i over raw mpf tuples (sign, man, exp, bc), rounded once.

    Each product is an exact integer; the products are summed exactly in one
    Python int aligned to the smallest exponent, and only that sum is rounded,
    to ``prec`` bits, to nearest.  With ``divisor`` (a raw mpf) the result is
    the exact sum divided by it, still rounded once.  ``bc`` is not read, so a
    caller may fold an integer factor or a sign into a tuple's mantissa or
    sign.  Inputs must be finite.
    """
    total = 0
    low = None
    for (sx, mx, ex, _), (sy, my, ey, _) in zip(xs, ys):
        if not (mx and my):
            if (ex and not mx) or (ey and not my):
                raise ValueError("_dot needs finite inputs")
            continue
        m = -mx * my if sx != sy else mx * my
        e = ex + ey
        if low is None:
            total, low = m, e
        elif e >= low:
            total += m << (e - low)
        else:
            total = (total << (low - e)) + m
            low = e
    if low is None:
        return fzero
    if divisor is None:
        return from_man_exp(total, low, prec, round_nearest)
    return mpf_div(from_man_exp(total, low), divisor, prec, round_nearest)


def _raw(values):
    return [v._mpf_ for v in values]


def _aligned(values):
    """(ms, e, v): values[i] = ms[i] 2^e exactly, and v leading values are 0."""
    raw = _raw(values)
    if any(e and not m for _, m, e, _ in raw):
        raise ValueError("series coefficients must be finite")
    low = min((e for _, m, e, _ in raw if m), default=0)
    ms = [((-m if s else m) << (e - low)) if m else 0 for s, m, e, _ in raw]
    return ms, low, next((i for i, m in enumerate(ms) if m), len(ms))


@dataclass(frozen=True)
class PowerSeries1OverS:
    coeffs: tuple
    dps: int

    def __post_init__(self):
        check_dps(self.dps)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @classmethod
    def _from_raw(cls, raw, dps):
        return cls(tuple(mp.make_mpf(v) for v in raw), dps)

    @property
    def length(self):
        """Highest retained order L."""
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k]

    def __mul__(self, other):
        """The product through the longer operand's order L, at the larger dps.

        Order k is the exact sum of a_i b_(k-i) over the i at or past a's
        valuation (its count of leading zeros) with k - i at or past b's,
        rounded once.  The product is known through L only where each
        operand's length plus the other's valuation reaches L; otherwise
        ValueError.
        """
        dps = max(self.dps, other.dps)
        prec = dps_to_prec(dps)
        (a, ea, va), (b, eb, vb) = _aligned(self.coeffs), _aligned(other.coeffs)
        la, lb = len(a) - 1, len(b) - 1
        L = max(la, lb)
        if min(la + vb, lb + va) < L:
            raise ValueError(f"lengths {la}, {lb} with valuations {va}, {vb} do not determine a product")
        rb = b[::-1]    # b[k-i] sits at lb-k+i
        out = [fzero] * min(va + vb, L + 1)
        for k in range(va + vb, L + 1):
            lo = max(va, k - lb)
            total = sum(map(mul, a[lo:min(la, k - vb) + 1], rb[lb - k + lo:]))
            out.append(from_man_exp(total, ea + eb, prec, round_nearest))
        return PowerSeries1OverS._from_raw(out, dps)

    __rmul__ = __mul__

    def exp(self):
        """exp of a series with zero constant term.

        Uses g_m = (1/m) * sum_{k=1..m} k f_k g_{m-k}, g_0 = 1.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp requires a vanishing constant term")
        prec = dps_to_prec(self.dps)
        # k f_k is exact: k multiplies the mantissa
        kf = [(s, k * man, e, bc) for k, (s, man, e, bc) in enumerate(_raw(self.coeffs))]
        g = [fone]
        for m in range(1, self.length + 1):
            g.append(_dot(kf[1:m + 1], g[m - 1::-1], prec, from_int(m)))
        return PowerSeries1OverS._from_raw(g, self.dps)


def reciprocal_linear(c, scale, length, dps):
    """Series of 1/(scale*s + c) = (1/(scale*s)) * sum_m (-c/scale)^m s^(-m) through order ``length``,
    stepped on raw mpf tuples rounded to nearest at ``dps`` digits, as mpf arithmetic rounds them."""
    prec = dps_to_prec(dps)
    c, scale = (mpf_pos(v._mpf_, prec, round_nearest) if isinstance(v, mpf) else to_mpf(v, dps)._mpf_
                for v in (c, scale))
    ratio = mpf_neg(mpf_div(c, scale, prec, round_nearest))
    out = [fzero, mpf_div(fone, scale, prec, round_nearest)]
    for _ in range(1, length):
        out.append(mpf_mul(out[-1], ratio, prec, round_nearest))
    return PowerSeries1OverS._from_raw(out[:length + 1], dps)
