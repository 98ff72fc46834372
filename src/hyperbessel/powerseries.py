"""Truncated formal series in 1/s with arbitrary-precision coefficients.

``PowerSeries1OverS((r0, r1, ..., rL), dps)`` represents

    r0 + r1/s + r2/s^2 + ... + rL/s^L.

All operations truncate at the common length L and are exact through order
s^(-L) for exact inputs.  Products and ``exp`` form each output coefficient
as an exact sum of exact products, rounded once to ``dps`` decimal digits
(``_dot``).  This is the workhorse behind the gamma-ratio coefficient
engine.
"""

from dataclasses import dataclass

from mpmath import mp
from mpmath.libmp import dps_to_prec, fone, from_int, from_man_exp, fzero, mpf_div, round_nearest

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

    def _binary_dps(self, other):
        return max(self.dps, other.dps)

    def _check_compatible(self, other):
        if self.length != other.length:
            raise ValueError(f"series lengths differ: {self.length} vs {other.length}")

    def __mul__(self, other):
        self._check_compatible(other)
        dps = self._binary_dps(other)
        prec = dps_to_prec(dps)
        L = self.length
        a = _raw(self.coeffs)
        b = _raw(reversed(other.coeffs))
        # out[k] = sum_i a[i] b[k-i]; b[k-i] sits at L-k+i in the reversed list
        return PowerSeries1OverS._from_raw([_dot(a[:k + 1], b[L - k:], prec)
                                            for k in range(L + 1)], dps)

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
    """Series of 1/(scale*s + c) = (1/(scale*s)) * sum_m (-c/scale)^m s^(-m)."""
    with mp.workdps(dps):
        cs = to_mpf(c, dps) / to_mpf(scale, dps)
        out = [mp.mpf(0)] * (length + 1)
        inv = 1 / to_mpf(scale, dps)
        term = inv
        for m in range(1, length + 1):
            out[m] = term
            term = term * (-cs)
        return PowerSeries1OverS(tuple(out), dps)
