import random
from fractions import Fraction

import pytest
from mpmath import mp

from hyperbessel import PowerSeries1OverS
from hyperbessel.powerseries import reciprocal_linear


def frac_series(fracs, dps=50):
    with mp.workdps(dps):
        return PowerSeries1OverS(tuple(mp.mpf(f.numerator) / f.denominator for f in fracs), dps)


def test_mul_matches_exact_rational_product():
    f = [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)]
    g = [Fraction(2), Fraction(0), Fraction(5, 4), Fraction(-1, 6)]
    L = 3
    want = [sum(f[i] * g[k - i] for i in range(k + 1)) for k in range(L + 1)]
    prod = frac_series(f) * frac_series(g)
    with mp.workdps(50):
        for k in range(L + 1):
            w = mp.mpf(want[k].numerator) / want[k].denominator
            assert abs(prod[k] - w) <= abs(w or 1) * mp.mpf("1e-48")


def test_exp_of_single_pole_term():
    # exp(a/s) = sum a^k / k! s^-k
    a = Fraction(3, 7)
    L = 12
    s = frac_series([Fraction(0), a] + [Fraction(0)] * (L - 1))
    e = s.exp()
    with mp.workdps(50):
        fact = 1
        for k in range(L + 1):
            if k:
                fact *= k
            want = mp.mpf((a ** k).numerator) / (a ** k).denominator / fact
            assert abs(e[k] - want) <= abs(want) * mp.mpf("1e-45")


def test_exp_of_sum_is_product_of_exps():
    # exp(f + g) = exp(f) * exp(g) for random series with zero constant terms
    rng = random.Random(5)
    L = 15
    f, g = (frac_series([Fraction(0)] + [Fraction(rng.randint(-50, 50), rng.randint(1, 40))
                                         for _ in range(L)], dps=60) for _ in range(2))
    lhs = (f + g).exp()
    rhs = f.exp() * g.exp()
    with mp.workdps(60):
        for k in range(L + 1):
            assert abs(lhs[k] - rhs[k]) <= (abs(rhs[k]) + 1) * mp.mpf("1e-50")


def test_exp_preconditions():
    f = frac_series([Fraction(1, 2), Fraction(1)])
    with pytest.raises(ValueError):
        f.exp()


def test_length_mismatch_rejected():
    f = frac_series([Fraction(1), Fraction(2)])
    g = frac_series([Fraction(1), Fraction(2), Fraction(3)])
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g


def test_add_sub_scale():
    f = frac_series([Fraction(1), Fraction(2), Fraction(3)])
    g = frac_series([Fraction(0), Fraction(1), Fraction(-1)])
    assert [float(c) for c in (f + g).coeffs] == [1.0, 3.0, 2.0]
    assert [float(c) for c in (f - g).coeffs] == [1.0, 1.0, 4.0]
    assert [float(c) for c in f.scale(2).coeffs] == [2.0, 4.0, 6.0]


def test_reciprocal_linear_inverts():
    # (scale*s + c) * series(1/(scale*s + c)) == 1 through order L
    scale, c, L, dps = 3, Fraction(7, 2), 10, 50
    s = reciprocal_linear(c, scale, L, dps)
    with mp.workdps(dps):
        cm = mp.mpf(7) / 2
        assert abs(scale * s[1] - 1) <= mp.mpf("1e-48")
        for k in range(1, L):
            resid = scale * s[k + 1] + cm * s[k]
            assert abs(resid) <= mp.mpf("1e-45")


def test_precision_propagates_upward():
    f = frac_series([Fraction(1), Fraction(2)], dps=40)
    g = frac_series([Fraction(1), Fraction(3)], dps=60)
    assert (f + g).dps == 60
    assert (f * g).dps == 60


def test_minimum_precision():
    with pytest.raises(ValueError):
        PowerSeries1OverS((mp.mpf(1),), 10)
