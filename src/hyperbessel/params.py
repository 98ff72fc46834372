"""Parameter validation and the constants of the asymptotic theory.

For order n with denominator parameters b_1 ... b_{n-1} the associated
constants are

    kappa  = n
    sigma  = sum_j b_j
    theta  = (n - 1)/2 - sigma        (theta' = 1 - theta)
    A0     = n^(-1/2 - theta) / (2 pi)^((n-1)/2)

For n = 3 with b_list = (a, b) this reduces to theta = 1 - a - b and
A0 = 3^(-1/2 - theta) / (2 pi).
"""

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import ArityMismatch, OrderUnsupported, PoleParameter
from .precision import DEFAULT_DPS, check_dps, to_fraction, to_mpf

SUPPORTED_ORDERS = (3, 4, 5)


@dataclass(frozen=True)
class ExpansionParams:
    """Validated parameter set with all derived constants.

    The rational fields are exact; ``A0`` is rounded to ``dps`` digits.
    Instances are immutable and hashable (usable as cache keys).
    """

    n: int
    b_list: tuple          # exact Fractions
    dps: int
    kappa: int
    sigma_n: Fraction
    theta: Fraction
    theta_prime: Fraction
    A0: object             # mpf at dps digits

    @property
    def b_mp(self):
        """Denominator parameters rounded to working precision."""
        return tuple(to_mpf(b, self.dps) for b in self.b_list)

    def describe(self):
        bs = ", ".join(str(b) for b in self.b_list)
        return f"n={self.n} b=({bs}) theta={self.theta} dps={self.dps}"


def derive_params(n, b_list, precision=DEFAULT_DPS):
    """Validate (n, b_list) and derive all constants at ``precision`` digits.

    Raises OrderUnsupported, ArityMismatch or PoleParameter on bad input.
    """
    if n not in SUPPORTED_ORDERS:
        raise OrderUnsupported(f"order n={n} not in {SUPPORTED_ORDERS}")
    dps = check_dps(precision)
    bs = tuple(to_fraction(b) for b in b_list)
    if len(bs) != n - 1:
        raise ArityMismatch(f"order n={n} needs {n - 1} denominator parameters, got {len(bs)}")
    for b in bs:
        if b.denominator == 1 and b <= 0:
            raise PoleParameter(f"parameter {b} is a non-positive integer (gamma pole)")
    sigma = sum(bs, Fraction(0))
    theta = Fraction(n - 1, 2) - sigma
    theta_prime = 1 - theta
    with mp.workdps(dps + 10):
        a0 = mp.mpf(n) ** (to_mpf(Fraction(-1, 2) - theta, dps + 10)) / (2 * mp.pi) ** (mp.mpf(n - 1) / 2)
    with mp.workdps(dps):
        a0 = +a0
    return ExpansionParams(n=int(n), b_list=bs, dps=dps, kappa=int(n),
                           sigma_n=sigma, theta=theta, theta_prime=theta_prime, A0=a0)
