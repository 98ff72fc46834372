"""Arbitrary-precision Humbert hyper-Bessel functions and their compound asymptotics.

Evaluates

    F_n(x) = sum_k (-)^k (x/n)^(n k) / (Gamma(k+b_1)...Gamma(k+b_{n-1}) k!)

for n = 3, 4, 5 (and the hyper-Bessel rescaling J_{m,nu}) by direct summation
and by the compound asymptotic expansion whose exponentially small levels are
retained, with two independent engines for the expansion coefficients.
"""

from .asym import (compound_eval, dominant_series, exp_small_optimal, intermediate_series_n5,
                   optimal_truncation_index, residual_F, subdominant_series)
from .coeffs import (CoeffTable, bernoulli_number, closed_form_c123, general_c1,
                     riney_coeffs, stirling_matching_coeffs)
from .errors import (ArityMismatch, CancellationFailure, CoeffShortfall, DomainError,
                     HyperBesselError, NoMinimumDetected, OrderUnsupported, PoleParameter,
                     PrecisionInsufficient, SeriesLengthInsufficient, SingularRineyWeights,
                     TailNotConverged)
from .params import ExpansionParams, derive_params
from .powerseries import PowerSeries1OverS
from .reference import (ClosedFormCase, EvalResult, closed_form_eval, humbert_J,
                        humbert_identity_check, series_eval)
from .verify import (TableReport, TableRow, reproduce_all, reproduce_table1,
                     reproduce_table2, reproduce_table3, reproduce_table4)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch", "CancellationFailure", "ClosedFormCase",
    "CoeffShortfall", "CoeffTable", "DomainError", "EvalResult", "ExpansionParams",
    "HyperBesselError", "NoMinimumDetected", "OrderUnsupported",
    "PoleParameter", "PowerSeries1OverS", "PrecisionInsufficient",
    "SeriesLengthInsufficient", "SingularRineyWeights", "TableReport", "TableRow",
    "TailNotConverged", "bernoulli_number", "closed_form_c123", "closed_form_eval",
    "compound_eval", "derive_params", "dominant_series", "exp_small_optimal",
    "general_c1", "humbert_J", "humbert_identity_check", "intermediate_series_n5",
    "optimal_truncation_index", "reproduce_all", "reproduce_table1", "reproduce_table2",
    "reproduce_table3", "reproduce_table4", "residual_F", "riney_coeffs", "series_eval",
    "stirling_matching_coeffs", "subdominant_series",
]
