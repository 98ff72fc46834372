"""Parameter validation and the constants of the asymptotic theory.

For order n with denominator parameters b_1 ... b_{n-1} the associated
constants are

    kappa  = n
    theta  = (n - 1)/2 - sum_j b_j    (theta' = 1 - theta)
    A0     = n^(-1/2 - theta) / (2 pi)^((n-1)/2)

For n = 3 with b_list = (a, b) this reduces to theta = 1 - a - b and
A0 = 3^(-1/2 - theta) / (2 pi).  theta, theta' and A0 are derived on first use,
and A0 is kept for the 64 most recent (n, theta, dps).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from mpmath import mp

from .errors import ArityMismatch, OrderUnsupported, PoleParameter
from .precision import DEFAULT_DPS, check_dps, to_fraction, to_mpf

SUPPORTED_ORDERS = (3, 4, 5)


@dataclass(frozen=True)
class ExpansionParams:
    """Validated parameter set (n, b_list, dps) and the constants derived from it.

    ``theta`` and ``theta_prime`` are exact and ``A0`` is rounded to ``dps`` digits, each
    on first use.  Instances are immutable and hashable by these three fields (cache keys).
    """

    n: int
    b_list: tuple          # exact Fractions, ascending
    dps: int

    @cached_property
    def theta(self):
        return Fraction(self.n - 1, 2) - sum(self.b_list, Fraction(0))

    @cached_property
    def theta_prime(self):
        return 1 - self.theta

    @cached_property
    def A0(self):
        return _a0(self.n, self.theta, self.dps)

    def describe(self):
        bs = ", ".join(str(b) for b in self.b_list)
        return f"n={self.n} b=({bs}) theta={self.theta} dps={self.dps}"


@lru_cache(maxsize=64)
def _a0(n, theta, dps):
    """A0 rounded to ``dps`` digits.  Cached here, not only per instance, because each
    ``derive_params`` call makes a new instance while the parameter sets of a sweep recur."""
    with mp.workdps(dps + 10):
        a0 = (mp.mpf(n) ** to_mpf(Fraction(-1, 2) - theta, dps + 10)
              / (2 * mp.pi) ** (mp.mpf(n - 1) / 2))
    with mp.workdps(dps):
        return +a0


def derive_params(n, b_list, precision=DEFAULT_DPS):
    """Validate (n, b_list) as a parameter set at ``precision`` digits.

    The order of ``b_list`` is ignored: it is stored sorted, so one parameter
    multiset is one ``ExpansionParams``.  Raises OrderUnsupported,
    ArityMismatch or PoleParameter on bad input.
    """
    if n not in SUPPORTED_ORDERS:
        raise OrderUnsupported(f"order n={n} not in {SUPPORTED_ORDERS}")
    dps = check_dps(precision)
    bs = tuple(sorted(to_fraction(b) for b in b_list))
    if len(bs) != n - 1:
        raise ArityMismatch(f"order n={n} needs {n - 1} denominator parameters, got {len(bs)}")
    for b in bs:
        if b.denominator == 1 and b <= 0:
            raise PoleParameter(f"parameter {b} is a non-positive integer (gamma pole)")
    return ExpansionParams(n=int(n), b_list=bs, dps=dps)
