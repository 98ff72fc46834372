import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hyperbessel import (ClosedFormCase, CoeffShortfall, DomainError, NoMinimumDetected,
                         OrderUnsupported, closed_form_eval, compound_eval, derive_params,
                         dominant_series, exp_small_optimal, intermediate_series_n5,
                         optimal_truncation_index, residual_F, series_eval,
                         stirling_matching_coeffs, subdominant_series)
from hyperbessel.precision import to_mpf

F = Fraction


@pytest.fixture(scope="module")
def thirds():
    p = derive_params(3, ("1/3", "2/3"), precision=60)
    return p, stirling_matching_coeffs(p, 12)


def test_dominant_leading_term_thirds(thirds):
    # single-term dominant series is 2 A0 e^(x/2) cos(sqrt(3) x / 2) here
    p, t = thirds
    with mp.workdps(60):
        for x in (2, 9):
            got = dominant_series(p, t, x, 1).value
            want = 2 * p.A0 * mp.exp(mp.mpf(x) / 2) * mp.cos(mp.sqrt(3) * x / 2)
            assert abs(got - want) <= abs(want) * mp.mpf("1e-55")


def test_dominant_leading_term_four_five_thirds():
    p = derive_params(3, ("4/3", "5/3"), precision=60)
    t = stirling_matching_coeffs(p, 4)
    with mp.workdps(60):
        x = mp.mpf(10)
        got = dominant_series(p, t, x, 1).value
        want = (3 ** mp.mpf("1.5") / (2 * mp.pi * x ** 2)) * 2 * mp.exp(x / 2) \
            * mp.cos(mp.sqrt(3) / 2 * x - 2 * mp.pi / 3)
        assert abs(got - want) <= abs(want) * mp.mpf("1e-55")


def test_dominant_leading_term_quarters():
    p = derive_params(4, ("1/4", "1/2", "3/4"), precision=60)
    t = stirling_matching_coeffs(p, 4)
    with mp.workdps(60):
        x = mp.mpf(5)
        got = dominant_series(p, t, x, 1).value
        want = 2 * p.A0 * mp.exp(x / mp.sqrt(2)) * mp.cos(x / mp.sqrt(2))
        assert abs(got - want) <= abs(want) * mp.mpf("1e-55")


def test_subdominant_leading_term_thirds(thirds):
    # cos(pi(a-b)) = 1/2 leaves exactly A0 e^(-x)
    p, t = thirds
    with mp.workdps(60):
        for x in (3, 8):
            got = subdominant_series(p, t, x, 1).value
            want = p.A0 * mp.exp(-mp.mpf(x))
            assert abs(got - want) <= abs(want) * mp.mpf("1e-55")


def test_subdominant_vanishes_at_half_integer_gap():
    # dyadic half-integer a-b makes the parity factor exactly zero
    p = derive_params(3, ("3/4", "1/4"))
    t = stirling_matching_coeffs(p, 10)
    assert subdominant_series(p, t, 15, 8).value == 0
    # non-dyadic representations still collapse to working precision
    p2 = derive_params(3, ("7/6", "2/3"), precision=50)
    t2 = stirling_matching_coeffs(p2, 10)
    v = subdominant_series(p2, t2, 15, 8).value
    with mp.workdps(50):
        assert abs(v) <= mp.mpf("1e-40")


def test_subdominant_n5_fifths():
    # sum of the three parity cosines is exactly 1/2 for the fifths
    p = derive_params(5, ("1/5", "2/5", "3/5", "4/5"), precision=60)
    t = stirling_matching_coeffs(p, 4)
    with mp.workdps(60):
        x = mp.mpf(6)
        got = subdominant_series(p, t, x, 1).value
        want = p.A0 * mp.exp(-x)
        assert abs(got - want) <= abs(want) * mp.mpf("1e-50")


def test_intermediate_n5_fifths():
    p = derive_params(5, ("1/5", "2/5", "3/5", "4/5"), precision=60)
    t = stirling_matching_coeffs(p, 4)
    with mp.workdps(60):
        x = mp.mpf(6)
        got = intermediate_series_n5(p, t, x, 1).value
        want = 2 * p.A0 * mp.exp(x * mp.cospi(mp.mpf(3) / 5)) * mp.cos(x * mp.sinpi(mp.mpf(3) / 5))
        assert abs(got - want) <= abs(want) * mp.mpf("1e-50")


def test_intermediate_requires_n5(thirds):
    p, t = thirds
    with pytest.raises(OrderUnsupported):
        intermediate_series_n5(p, t, 5, 1)


def test_levels_validate_table_binding(thirds):
    p, t = thirds
    other = derive_params(3, ("2/3", "5/6"), precision=60)
    for level in (dominant_series, subdominant_series):
        with pytest.raises(ValueError):
            level(other, t, 5, 1)


def test_domain_and_shortfall(thirds):
    p, t = thirds
    with pytest.raises(DomainError):
        dominant_series(p, t, 0, 1)
    with pytest.raises(CoeffShortfall):
        dominant_series(p, t, 5, len(t) + 1)


def test_sign_alternation_consistency():
    # consecutive subdominant truncations differ by exactly the added term
    p = derive_params(3, ("5/4", "1/4"), precision=60)
    t = stirling_matching_coeffs(p, 12)
    with mp.workdps(60):
        x = mp.mpf(9)
        for m in (3, 6):
            d = subdominant_series(p, t, x, m + 1).value - subdominant_series(p, t, x, m).value
            pref = 2 * p.A0 * mp.cospi(mp.mpf(1)) * x ** mp.mpf("-0.5") * mp.exp(-x)
            want = pref * (-1) ** m * t[m] * x ** (-m)
            assert abs(d - want) <= (abs(want) + mp.mpf("1e-60")) * mp.mpf("1e-40")


def test_optimal_truncation_frozen_indices():
    p = derive_params(3, ("2/3", "5/6"))
    t = stirling_matching_coeffs(p, 60)
    assert optimal_truncation_index(t, 10) == 16
    assert optimal_truncation_index(t, 20) == 34


def test_optimal_truncation_no_minimum():
    p = derive_params(3, ("2/3", "5/6"))
    t = stirling_matching_coeffs(p, 10)
    with pytest.raises(NoMinimumDetected):
        optimal_truncation_index(t, 50)  # terms still decreasing at the table end
    # a fixed coefficient budget takes the boundary as its least term
    assert optimal_truncation_index(t, 50, allow_boundary=True) == 9


@pytest.mark.parametrize("n, bs, level", [
    (4, ("-1/4", "1/2", "5/8"), subdominant_series),
    (5, ("1/10", "1/5", "3/10", "11/10"), intermediate_series_n5),
])
def test_error_estimate_bounds_next_term(n, bs, level):
    # the first omitted term carries the level's amplitude |sum_r e^(2 pi i b_r)|
    p = derive_params(n, bs, precision=50)
    t = stirling_matching_coeffs(p, 14)
    with mp.workdps(50):
        for m in range(1, 13):
            s_m = level(p, t, 12, m)
            added = abs(level(p, t, 12, m + 1).value - s_m.value)
            assert added <= s_m.error_estimate * (1 + mp.mpf("1e-40"))


def test_compound_collapses_on_closed_forms():
    for case in ClosedFormCase:
        p = derive_params(case.order, case.b_list, precision=60)
        c = compound_eval(p, 9, truncation=1, dps=60)
        cf = closed_form_eval(case, 9, precision=60)
        with mp.workdps(60):
            assert abs(c.value - cf.value) <= abs(cf.value) * mp.mpf("1e-55")


def test_compound_matches_series():
    p = derive_params(3, ("2/3", "5/6"), precision=60)
    c = compound_eval(p, 25, dps=60)
    s = series_eval(p, 25, target_digits=30)
    with mp.workdps(60):
        err = abs(c.value - s.value)
        assert err <= abs(s.value) * mp.mpf("1e-14")
        assert err <= 30 * c.error_estimate


def test_compound_matches_series_n4_generic():
    p = derive_params(4, ("-1/4", "1/2", "5/8"), precision=60)
    c = compound_eval(p, 18, dps=60)
    s = series_eval(p, 18, target_digits=30)
    with mp.workdps(60):
        assert abs(c.value - s.value) <= abs(s.value) * mp.mpf("1e-10")


def test_compound_fixed_truncation():
    p = derive_params(3, ("2/3", "5/6"), precision=60)
    c = compound_eval(p, 18, truncation=7, dps=60)
    assert c.terms_used == 7
    s = series_eval(p, 18, target_digits=30)
    with mp.workdps(60):
        assert abs(c.value - s.value) <= abs(s.value) * mp.mpf("1e-6")


def test_humbert_rescaled_compound_consistency():
    # (x/3)^(m+nu) * compound tracks the direct Humbert evaluation
    from hyperbessel import humbert_J
    m, nu = F(1, 2), F(2, 3)
    p = derive_params(3, (m + 1, nu + 1), precision=60)
    for x in (15, 20):
        c = compound_eval(p, x, dps=60)
        j = humbert_J(m, nu, x, target_digits=30)
        with mp.workdps(60):
            scale = (mp.mpf(x) / 3) ** (mp.mpf(7) / 6)
            assert abs(scale * c.value - j.value) <= 30 * scale * c.error_estimate


def test_residual_matches_exp_small():
    p = derive_params(3, ("5/4", "1/4"), precision=60)
    t = stirling_matching_coeffs(p, 40)
    resid = residual_F(p, 15, 15)
    es, j_sub = exp_small_optimal(p, 15, table=t, dps=70)
    with mp.workdps(50):
        assert abs(resid - es) <= abs(es) * mp.mpf("0.02")
    assert j_sub > 15


def test_residual_match_improves_with_x():
    p = derive_params(3, ("5/4", "1/4"), precision=60)
    t = stirling_matching_coeffs(p, 45)
    rels = []
    with mp.workdps(60):
        for x, j0 in ((10, 13), (15, 15), (20, 24)):
            resid = residual_F(p, x, j0)
            es, _ = exp_small_optimal(p, x, table=t, dps=75)
            rels.append(abs(resid - es) / abs(es))
    assert rels[0] > rels[1] > rels[2]


def test_n5_intermediate_in_residual():
    # adding the middle level must explain most of the residual gap
    p = derive_params(5, ("1/5", "2/5", "3/5", "9/10"), precision=60)
    t = stirling_matching_coeffs(p, 100)
    j0 = optimal_truncation_index(t, 40)
    resid = residual_F(p, 40, j0)
    sub = subdominant_series(p, t, 40, j0 + 1, dps=80).value
    inter = intermediate_series_n5(p, t, 40, j0 + 1, dps=80).value
    with mp.workdps(60):
        # frozen regression value for the intermediate level at x=40
        assert abs(inter - mp.mpf("4.346149086e-8")) <= mp.mpf("1e-15")
        assert abs(resid - sub - inter) <= mp.mpf("0.6") * abs(resid - sub)


def test_exp_small_optimal_includes_intermediate():
    p = derive_params(5, ("1/5", "2/5", "3/5", "9/10"), precision=60)
    t = stirling_matching_coeffs(p, 100)
    es, j0 = exp_small_optimal(p, 40, table=t, dps=80)
    assert j0 == optimal_truncation_index(t, 40)
    sub = subdominant_series(p, t, 40, j0 + 1, dps=80).value
    inter = intermediate_series_n5(p, t, 40, j0 + 1, dps=80).value
    with mp.workdps(80):
        assert inter != 0
        assert abs(es - (sub + inter)) <= abs(inter) * mp.mpf("1e-70")


def test_sine_product_split_identities():
    """The recombination factors behind the exponential levels.

    For n = 4:  prod_{j<=3} sin(pi(b_j - s))
                  = (1/4) { cos(pi(theta + 3s)) - sum_j cos(pi(theta + 2 b_j + s)) }
    For n = 5:  prod_{j<=4} sin(pi(b_j - s))
                  = (1/8) { cos(pi(theta + 4s)) - sum_j cos(pi(theta + 2 b_j + 2s))
                            + sum_{r<=3} cos(pi(theta + 2 b_r + 2 b_4)) }

    These fix the sign and weight of every subdominant/intermediate term, so a
    direct numerical check at arbitrary s pins the implementation's structure.
    """
    rng = random.Random(3)
    with mp.workdps(60):
        for _ in range(4):
            bs4 = [F(rng.randint(-8, 25), 8) for _ in range(3)]
            theta4 = mp.mpf(3) / 2 - sum(mp.mpf(b.numerator) / b.denominator for b in bs4)
            bs5 = [F(rng.randint(-8, 25), 8) for _ in range(4)]
            theta5 = mp.mpf(2) - sum(mp.mpf(b.numerator) / b.denominator for b in bs5)
            for s in (mp.mpf("0.37"), mp.mpf("2.9")):
                lhs4 = mp.fprod([mp.sin(mp.pi * (mp.mpf(b.numerator) / b.denominator - s)) for b in bs4])
                rhs4 = (mp.cos(mp.pi * (theta4 + 3 * s))
                        - mp.fsum(mp.cos(mp.pi * (theta4 + 2 * mp.mpf(b.numerator) / b.denominator + s))
                                  for b in bs4)) / 4
                assert abs(lhs4 - rhs4) <= mp.mpf("1e-55")
                lhs5 = mp.fprod([mp.sin(mp.pi * (mp.mpf(b.numerator) / b.denominator - s)) for b in bs5])
                b5m = [mp.mpf(b.numerator) / b.denominator for b in bs5]
                rhs5 = (mp.cos(mp.pi * (theta5 + 4 * s))
                        - mp.fsum(mp.cos(mp.pi * (theta5 + 2 * bj + 2 * s)) for bj in b5m)
                        + mp.fsum(mp.cos(mp.pi * (theta5 + 2 * br + 2 * b5m[3])) for br in b5m[:3])) / 8
                assert abs(lhs5 - rhs5) <= mp.mpf("1e-55")


def test_compound_matches_series_n5_generic():
    p = derive_params(5, ("1/5", "2/5", "3/5", "9/10"), precision=60)
    c = compound_eval(p, 30, dps=60)
    s = series_eval(p, 30, target_digits=30)
    with mp.workdps(60):
        assert abs(c.value - s.value) <= abs(s.value) * mp.mpf("1e-13")


def test_remainder_scaling_mini():
    # |F - S_5| / (x^theta e^(x/2) x^-5) stays bounded across x
    p = derive_params(3, ("7/4", "17/50"), precision=60)
    t = stirling_matching_coeffs(p, 6)
    ratios = []
    with mp.workdps(80):
        for x in (20, 30, 40):
            s = series_eval(p, x, target_digits=25)
            d = dominant_series(p, t, x, 5, dps=80)
            xm = mp.mpf(x)
            theta = mp.mpf(p.theta.numerator) / p.theta.denominator
            ratios.append(abs(s.value - d.value) / (xm ** theta * mp.exp(xm / 2) * xm ** -5))
        assert max(ratios) <= 10 * min(ratios)


LEVELS = {"dominant": dominant_series, "intermediate": intermediate_series_n5,
          "subdominant": subdominant_series}
PROPERTY_DPS = 40


def _q(value):
    return to_mpf(value, PROPERTY_DPS)


def _reference_level(p, t, x, M, level):
    """A level summed term by term in its cosine form; returns (value, |prefactor w0|).

    The oscillating levels take one cos and one sin per term; the e^(-x)
    levels (k = n) alternate in sign.
    """
    n, bs, theta = p.n, p.b_list, _q(p.theta)
    k = {"dominant": 1, "intermediate": 3, "subdominant": 3 if n == 4 else n}[level]
    pref = 2 * p.A0 * x ** theta * mp.exp(x * mp.cospi(mp.mpf(k) / n))
    if k == n:
        if n == 3:
            w0 = mp.cospi(_q(bs[0] - bs[1]))
        else:
            w0 = mp.fsum(mp.cospi(_q(p.theta + 2 * b + 2 * bs[3])) for b in bs[:3])
        total = mp.fsum((-1) ** j * t[j] * x ** (-j) for j in range(M))
        return pref * w0 * total, abs(pref * w0)
    if k == 1:
        c, s = mp.mpf(1), mp.mpf(0)
    else:
        c = -mp.fsum(mp.cospi(_q(2 * b)) for b in bs)
        s = -mp.fsum(mp.sinpi(_q(2 * b)) for b in bs)
    osc = x * mp.sinpi(mp.mpf(k) / n)
    total = mp.mpf(0)
    for j in range(M):
        phi = osc + k * mp.pi * (theta - j) / n
        total += t[j] * x ** (-j) * (mp.cos(phi) * c - mp.sin(phi) * s)
    return pref * total, abs(pref) * mp.hypot(c, s)


@st.composite
def level_cases(draw):
    n = draw(st.sampled_from((3, 4, 5)))
    grid = st.integers(-11, 30).filter(lambda k: k > 0 or k % 12)  # no gamma poles
    bs = tuple(F(draw(grid), 12) for _ in range(n - 1))
    level = draw(st.sampled_from(["dominant", "subdominant"] + (["intermediate"] if n == 5 else [])))
    x = F(draw(st.integers(32, 320)), 8)
    return n, bs, level, x, draw(st.integers(1, 30))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(level_cases())
def test_level_evaluator_matches_per_term_reference(case):
    n, bs, level, x, M = case
    p = derive_params(n, bs, precision=PROPERTY_DPS)
    t = stirling_matching_coeffs(p, M + 1)
    got = LEVELS[level](p, t, x, M).value
    with mp.workdps(PROPERTY_DPS):
        xm = _q(x)
        want, scale = _reference_level(p, t, xm, M, level)
        magnitude = mp.fsum(abs(t[j]) * xm ** (-j) for j in range(M))
        assert abs(got - want) <= mp.mpf(10) ** (5 - PROPERTY_DPS) * scale * magnitude
