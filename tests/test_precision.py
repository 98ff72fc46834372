"""The one rule by which every evaluator admits its x: ``precision.exact_x``."""

from fractions import Fraction

import pytest
from mpmath import mp

from hyperbessel import (ClosedFormCase, DomainError, PrecisionInsufficient, closed_form_eval,
                         compound_eval, derive_params, humbert_J, level_series, series_eval,
                         stirling_matching_coeffs)
from hyperbessel import asym
from hyperbessel.precision import MAX_X, exact_x, to_fraction, to_mpf
from hyperbessel.reference import humbert_rescale

NON_FINITE = (float("inf"), float("-inf"), float("nan"), mp.inf, -mp.inf, mp.nan)

#: every entry point that takes an x, or a parameter read by the same conversion
ENTRY_POINTS = {
    "series_eval": lambda p, x: series_eval(p, x),
    "humbert_J x": lambda p, x: humbert_J(0, 0, x),
    "humbert_J m": lambda p, x: humbert_J(x, 0, 2),
    "humbert_rescale": lambda p, x: humbert_rescale(series_eval(p, 2), "-1/3", "-1/6", x, 50),
    "compound_eval": lambda p, x: compound_eval(p, x),
    "level_series": lambda p, x: level_series(stirling_matching_coeffs(p, 8), x, ("dominant",)),
    "closed_form_eval": lambda p, x: closed_form_eval(ClosedFormCase.N3_THIRDS, x),
    "residual_dps": lambda p, x: asym.residual_dps(3, x),
    "derive_params b": lambda p, x: derive_params(3, (x, "5/6")),
}


@pytest.fixture(scope="module")
def params():
    return derive_params(3, ("2/3", "5/6"))


@pytest.mark.parametrize("x", NON_FINITE, ids=lambda v: f"{type(v).__name__}({v})")
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_non_finite_number_is_a_domain_error_everywhere(params, entry, x):
    # libmp.to_rational reads an infinite mpf as 0: unchecked, F(inf) would be F(0)
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](params, x)


@pytest.mark.parametrize("x", ["1e400", 10 * MAX_X])
def test_series_refuses_x_past_max_x(params, x):
    # one bound for every evaluator: unbounded, the series would overflow a float at
    # 1e400 and sum for days at 10^12
    with pytest.raises(PrecisionInsufficient):
        series_eval(params, x)
    with pytest.raises(PrecisionInsufficient):
        humbert_J(0, 0, x)


def test_exact_x_reads_exact_inputs_exactly_and_rounds_floats_to_the_working_digits():
    for x in (7, Fraction(10001, 10), "1000.1", "1e3", MAX_X):
        assert exact_x(x, 50) == to_fraction(x)
    assert exact_x(0.1, 50) == Fraction(0.1)   # a double is exact at 50 digits
    with mp.workdps(80):
        third = mp.mpf(1) / 3
    assert exact_x(third, 50) == to_fraction(to_mpf(third, 50)) != to_fraction(third)
    with pytest.raises(DomainError):
        exact_x("-1/3", 50)
    with pytest.raises(PrecisionInsufficient):
        exact_x(MAX_X + Fraction(1, 10 ** 60), 50)


def test_to_mpf_rounds_a_fraction_once():
    # a numerator longer than the working precision must not be rounded before the division
    q = Fraction("1000.1" + "0" * 46 + "1")
    r = to_mpf(q, 50)
    assert abs(to_fraction(r) - q) <= Fraction(2) ** r._mpf_[2] / 2
