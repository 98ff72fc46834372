"""Truncated formal series in 1/s with arbitrary-precision coefficients.

``PowerSeries1OverS((r0, r1, ..., rL), dps)`` represents

    r0 + r1/s + r2/s^2 + ... + rL/s^L.

All operations truncate at the common length L and are exact through order
s^(-L) for exact inputs; coefficient arithmetic is carried out at ``dps``
decimal digits.  This is the workhorse behind the gamma-ratio coefficient
engine.
"""

from dataclasses import dataclass

from mpmath import mp

from .precision import check_dps, to_mpf


@dataclass(frozen=True)
class PowerSeries1OverS:
    coeffs: tuple
    dps: int

    def __post_init__(self):
        check_dps(self.dps)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @classmethod
    def constant(cls, value, length, dps):
        with mp.workdps(dps):
            c = [mp.mpf(0)] * (length + 1)
            c[0] = to_mpf(value, dps)
            return cls(tuple(c), dps)

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

    def __add__(self, other):
        self._check_compatible(other)
        dps = self._binary_dps(other)
        with mp.workdps(dps):
            return PowerSeries1OverS(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), dps)

    def __sub__(self, other):
        self._check_compatible(other)
        dps = self._binary_dps(other)
        with mp.workdps(dps):
            return PowerSeries1OverS(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), dps)

    def scale(self, factor):
        with mp.workdps(self.dps):
            f = to_mpf(factor, self.dps)
            return PowerSeries1OverS(tuple(f * a for a in self.coeffs), self.dps)

    def __mul__(self, other):
        if not isinstance(other, PowerSeries1OverS):
            return self.scale(other)
        self._check_compatible(other)
        dps = self._binary_dps(other)
        L = self.length
        with mp.workdps(dps):
            out = [mp.mpf(0)] * (L + 1)
            for i, ai in enumerate(self.coeffs):
                if ai == 0:
                    continue
                for j in range(L + 1 - i):
                    bj = other.coeffs[j]
                    if bj != 0:
                        out[i + j] += ai * bj
            return PowerSeries1OverS(tuple(out), dps)

    __rmul__ = __mul__

    def exp(self):
        """exp of a series with zero constant term.

        Uses g_m = (1/m) * sum_{k=1..m} k f_k g_{m-k}, g_0 = 1.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp requires a vanishing constant term")
        L = self.length
        with mp.workdps(self.dps):
            g = [mp.mpf(0)] * (L + 1)
            g[0] = mp.mpf(1)
            for m in range(1, L + 1):
                acc = mp.mpf(0)
                for k in range(1, m + 1):
                    fk = self.coeffs[k]
                    if fk != 0:
                        acc += k * fk * g[m - k]
                g[m] = acc / m
            return PowerSeries1OverS(tuple(g), self.dps)


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
