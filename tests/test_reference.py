import logging
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hyperbessel import (ClosedFormCase, DomainError, PrecisionInsufficient, TailNotConverged,
                         closed_form_eval, derive_params, humbert_J, humbert_identity_check,
                         series_eval)
from hyperbessel.precision import to_fraction

F = Fraction


def hyper_oracle(n, b_list, x, dps):
    """Independent evaluation through mpmath's generic hypergeometric code."""
    with mp.workdps(dps):
        bs = [mp.mpf(F(b).numerator) / F(b).denominator for b in b_list]
        z = -(mp.mpf(F(x).numerator) / F(x).denominator / n) ** n
        return mpmath.hyper([], bs, z) / mp.fprod([mp.gamma(b) for b in bs])


@st.composite
def series_cases(draw):
    n = draw(st.sampled_from((3, 4, 5)))
    grid = st.integers(-11, 36).filter(lambda k: k > 0 or k % 12)  # no gamma poles
    bs = tuple(F(draw(grid), 12) for _ in range(n - 1))
    x = F(draw(st.sampled_from(range(400 * 64 + 1))), 64)
    if draw(st.booleans()):
        x = mp.mpf(float(x) * 1.0000001)      # a non-grid dyadic, exact at any precision
    return n, bs, x, draw(st.sampled_from((20, 30, 40)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(series_cases())
def test_series_meets_target_and_error_estimate(case):
    n, bs, x, target = case
    r = series_eval(derive_params(n, bs), x, target_digits=target)
    xq = to_fraction(x)      # exact: the float-valued mpf needs no rounding
    # the reference carries at least 10 digits more than the working precision,
    # so its own error stays far below the rounding part of error_estimate
    want = hyper_oracle(n, bs, xq, target + 40)
    with mp.workdps(target + 40):
        err = abs(r.value - want)
        assert err <= mp.mpf(10) ** (-target) * abs(want)
        assert err <= r.error_estimate
    assert r.terms_used == len(r.term_trace)


def test_series_near_a_zero_extends_the_term_count(caplog):
    # x is within 1e-27 of a zero of F_3(x; 2/3, 5/6) near 38.7, so |F| ~ 5e-24
    # lies far below its expected size and the first term count fails the
    # exact tail check
    x = F(38700929699882395033204937787, 10 ** 27)
    with caplog.at_level(logging.DEBUG, logger="hyperbessel.reference"):
        r = series_eval(derive_params(3, ("2/3", "5/6")), x, target_digits=20)
    assert any("extending" in rec.getMessage() for rec in caplog.records)
    want = hyper_oracle(3, ("2/3", "5/6"), x, 150)
    with mp.workdps(150):
        assert abs(want) < mp.mpf("1e-20")
        err = abs(r.value - want)
        assert err <= mp.mpf("1e-20") * abs(want)
        assert err <= r.error_estimate
    assert r.terms_used == len(r.term_trace)


def test_value_at_zero():
    p = derive_params(3, ("1/3", "2/3"))
    r = series_eval(p, 0)
    with mp.workdps(50):
        want = mp.sqrt(3) / (2 * mp.pi)  # 1/(Gamma(1/3) Gamma(2/3)) by reflection
        assert abs(r.value - want) <= want * mp.mpf("1e-45")
    assert r.terms_used <= 3


def test_against_independent_hypergeometric():
    cases = [(3, ("2/3", "5/6"), 7), (3, ("5/4", "1/4"), 16), (4, ("-1/4", "1/2", "5/8"), 11),
             (5, ("1/5", "2/5", "3/5", "9/10"), 9), (3, (1, 1), 13)]
    for n, bs, x in cases:
        p = derive_params(n, bs, precision=60)
        got = series_eval(p, x, target_digits=32, dps=90).value
        want = hyper_oracle(n, bs, x, 90)
        with mp.workdps(60):
            assert abs(got - want) <= abs(want) * mp.mpf("1e-30")


def test_closed_form_cases_match_series():
    for case in ClosedFormCase:
        p = derive_params(case.order, case.b_list, precision=60)
        for x in (1, 10):
            if x == 0 and case is ClosedFormCase.N3_FOUR_FIVE_THIRDS:
                continue
            cf = closed_form_eval(case, x, precision=60)
            s = series_eval(p, x, target_digits=35, dps=80)
            with mp.workdps(60):
                assert abs(s.value - cf.value) <= abs(cf.value) * mp.mpf("1e-32")


def test_closed_form_domain_error():
    with pytest.raises(DomainError):
        closed_form_eval(ClosedFormCase.N3_FOUR_FIVE_THIRDS, 0)
    closed_form_eval(ClosedFormCase.N3_THIRDS, 0)  # fine here


def test_self_consistency_increasing_target():
    p = derive_params(3, ("5/4", "1/4"), precision=60)
    for x in (1, 5, 10, 20):
        r1 = series_eval(p, x, target_digits=20)
        r2 = series_eval(p, x, target_digits=30)
        with mp.workdps(70):
            assert abs(r1.value - r2.value) <= abs(r2.value) * mp.mpf("1e-20")


def test_cancellation_accounting():
    # digits lost ~ (x/2) log10(e) for n = 3; assert within +-3 digits
    p = derive_params(3, ("2/3", "5/6"), precision=60)
    with mp.workdps(60):
        for x in (10, 20, 30, 40):
            r = series_eval(p, x, target_digits=20)
            expected = x / 2 * mp.log10(mp.e)
            assert abs(r.digits_lost - expected) <= 3


def test_permutation_symmetry():
    pa = derive_params(3, ("5/4", "1/4"))
    pb = derive_params(3, ("1/4", "5/4"))
    ra = series_eval(pa, 9)
    rb = series_eval(pb, 9)
    with mp.workdps(50):
        assert abs(ra.value - rb.value) <= abs(rb.value) * mp.mpf("1e-45")


def test_negative_x_rejected():
    p = derive_params(3, ("1/3", "2/3"))
    with pytest.raises(DomainError):
        series_eval(p, -1)


def test_precision_insufficient_when_forced_low():
    p = derive_params(3, ("2/3", "5/6"), precision=40)
    with pytest.raises(PrecisionInsufficient):
        series_eval(p, 30, target_digits=40, dps=40)


def test_eval_result_diagnostics():
    p = derive_params(3, ("2/3", "5/6"))
    r = series_eval(p, 10)
    assert r.method == "series"
    assert r.terms_used == len(r.term_trace)
    assert r.max_term_magnitude == max(r.term_trace)
    assert r.error_estimate >= 0


def test_humbert_at_zero():
    assert humbert_J(0, 0, 0).value == 1
    assert humbert_J(1, 2, 0).value == 0
    with pytest.raises(DomainError):
        humbert_J("-1/2", "-2/3", 0)


def test_humbert_rescaling():
    # J_{1,2}(x) = (x/3)^3 F(x; 2, 3)
    p = derive_params(3, (2, 3), precision=60)
    x = 3
    j = humbert_J(1, 2, x, target_digits=30)
    f = series_eval(p, x, target_digits=30)
    with mp.workdps(50):
        assert abs(j.value - f.value) <= abs(f.value) * mp.mpf("1e-28")


def test_humbert_against_frozen_oracle():
    # independent oracle: mpmath.hyper at 60 digits (value frozen)
    j = humbert_J("1/2", "2/3", 10, target_digits=28)
    with mp.workdps(40):
        want = mp.mpf("8.12448076490108198436022360961")
        assert abs(j.value - want) <= abs(want) * mp.mpf("1e-28")
        # scaled value has the x^(-1)-decay order of magnitude
        scaled = j.value * mp.exp(mp.mpf(-5))
        assert mp.mpf("0.01") < abs(scaled) < mp.mpf("1")


def test_identity_lambda_zero():
    lhs, rhs, diff = humbert_identity_check(5, 0, 0)
    assert lhs == rhs
    assert diff == 0


def test_identity_generic():
    lhs, rhs, diff = humbert_identity_check(2, "0.5", 30)
    with mp.workdps(50):
        assert diff <= mp.mpf("1e-20")


def test_identity_holds_at_larger_x():
    # the outer alternating sum cancels in floating point (by ~13 digits at
    # x = 80, lam = -1): its x-proportional guard digits, spent both on the
    # working precision and on each J_{k,k}, must keep the difference below
    # the target
    _, _, diff = humbert_identity_check(30, "1/4", 120)
    with mp.workdps(50):
        assert diff <= mp.mpf("1e-20")
    _, _, diff = humbert_identity_check(80, -1, 200, target_digits=40)
    with mp.workdps(50):
        assert diff <= mp.mpf("1e-40")


def test_identity_collapses_at_minus_one():
    lhs, rhs, diff = humbert_identity_check(4, -1, 40)
    with mp.workdps(50):
        assert abs(rhs - 1) <= mp.mpf("1e-30")
        assert diff <= mp.mpf("1e-20")


def test_identity_tail_guard():
    with pytest.raises(TailNotConverged):
        humbert_identity_check(4, -1, 3)
