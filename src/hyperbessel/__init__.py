"""Arbitrary-precision Humbert hyper-Bessel functions and their compound asymptotics.

Evaluates

    F_n(x) = sum_k (-)^k (x/n)^(n k) / (Gamma(k+b_1)...Gamma(k+b_{n-1}) k!)

for n = 3, 4, 5 (and the hyper-Bessel rescaling J_{m,nu}) by direct summation
and by the compound asymptotic expansion whose exponentially small levels are
retained, with two independent engines for the expansion coefficients.
Any set of exponential levels is summed by one evaluator, ``level_series``;
``compound_eval`` sums them all on a coefficient table it grows as needed.
J_{m,nu} is F_3 times one factor, applied by ``reference.humbert_rescale``.
The cross-checks that only the tests run (closed forms for c_1..c_3 and the
general-order c_1, the J_{k,k} series identity) are in ``tests/oracles.py``.
"""

from .asym import compound_eval, level_series, residual_F
from .coeffs import CoeffTable, riney_coeffs, stirling_matching_coeffs
from .errors import (ArityMismatch, CoeffShortfall, DomainError, HyperBesselError,
                     NoMinimumDetected, OrderUnsupported, PoleParameter, PrecisionInsufficient,
                     SingularRineyWeights)
from .params import ExpansionParams, derive_params
from .reference import ClosedFormCase, EvalResult, closed_form_eval, humbert_J, series_eval
from .verify import (TableReport, TableRow, reproduce_all, reproduce_table1,
                     reproduce_table2, reproduce_table3, reproduce_table4)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch", "ClosedFormCase", "CoeffShortfall", "CoeffTable", "DomainError",
    "EvalResult", "ExpansionParams", "HyperBesselError", "NoMinimumDetected", "OrderUnsupported",
    "PoleParameter", "PrecisionInsufficient", "SingularRineyWeights", "TableReport", "TableRow",
    "closed_form_eval", "compound_eval", "derive_params", "humbert_J", "level_series",
    "reproduce_all", "reproduce_table1", "reproduce_table2", "reproduce_table3",
    "reproduce_table4", "residual_F", "riney_coeffs", "series_eval", "stirling_matching_coeffs",
]
