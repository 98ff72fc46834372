"""Exception hierarchy for the hyperbessel package."""


class HyperBesselError(Exception):
    """Base class for all numeric and contract errors raised by this package."""


class OrderUnsupported(HyperBesselError):
    """The order n lies outside the supported set {3, 4, 5}."""


class PoleParameter(HyperBesselError):
    """A denominator parameter is a non-positive integer (gamma pole)."""


class ArityMismatch(HyperBesselError):
    """b_list does not contain exactly n - 1 parameters."""


class SingularRineyWeights(HyperBesselError):
    """The Riney recurrence weights are singular (a = b, a = 1 or b = 1)."""


class PrecisionInsufficient(HyperBesselError):
    """The working precision cannot deliver the requested target accuracy."""


class DomainError(HyperBesselError):
    """Argument outside the supported domain (e.g. x < 0, or x = 0 where x > 0 is required)."""


class CoeffShortfall(HyperBesselError):
    """More coefficients were requested than the table provides."""


class NoMinimumDetected(HyperBesselError):
    """Term magnitudes were still decreasing when the coefficient table ran out."""
