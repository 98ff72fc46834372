import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import dps_to_prec, fnan, fone, from_man_exp, from_rational, fzero, round_nearest

from hyperbessel.powerseries import PowerSeries1OverS, _dot, reciprocal_linear
from hyperbessel.precision import to_fraction, to_mpf


def frac_series(fracs, dps=50):
    with mp.workdps(dps):
        return PowerSeries1OverS(tuple(mp.mpf(f.numerator) / f.denominator for f in fracs), dps)


def rounded_once(value, prec):
    """The raw mpf nearest to the exact rational ``value`` at ``prec`` bits."""
    return from_rational(value.numerator, value.denominator, prec, round_nearest)


def test_mul_matches_exact_rational_product():
    # each coefficient is the exact convolution of the (rounded) inputs, rounded once
    fs = frac_series([Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)])
    gs = frac_series([Fraction(2), Fraction(0), Fraction(5, 4), Fraction(-1, 6)])
    f, g = ([to_fraction(v) for v in s.coeffs] for s in (fs, gs))
    prod = fs * gs
    with mp.workdps(50):
        for k in range(4):
            want = sum(f[i] * g[k - i] for i in range(k + 1))
            assert prod[k]._mpf_ == rounded_once(want, mp.prec)


finite_mpf = st.builds(from_man_exp, st.integers(-2 ** 200, 2 ** 200), st.integers(-300, 300))

#: raw coefficients of a series of 1..40 terms, after 0..39 leading zeros
raw_series = st.builds(lambda zeros, values: ([fzero] * zeros + values)[:40],
                       st.integers(0, 39), st.lists(finite_mpf, min_size=1, max_size=40))


def _valuation(values):
    return next((i for i, v in enumerate(values) if v), len(values))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=raw_series, b=raw_series, same_length=st.booleans(),
       dps_a=st.integers(30, 120), dps_b=st.integers(30, 120))
def test_mul_is_the_exact_convolution_rounded_once(a, b, same_length, dps_a, dps_b):
    # 30..120 digits are 103..402 bits; a product is known through the longer
    # length only where each length plus the other's valuation reaches it
    if same_length:
        b = (b + [fzero] * len(a))[:len(a)]
    fs, gs = PowerSeries1OverS._from_raw(a, dps_a), PowerSeries1OverS._from_raw(b, dps_b)
    f, g = ([to_fraction(v) for v in s.coeffs] for s in (fs, gs))
    la, lb = len(f) - 1, len(g) - 1
    L = max(la, lb)
    if min(la + _valuation(g), lb + _valuation(f)) < L:
        with pytest.raises(ValueError):
            fs * gs
        return
    prod = fs * gs
    prec = dps_to_prec(max(dps_a, dps_b))
    assert prod.length == L and prod.dps == max(dps_a, dps_b)
    for k in range(L + 1):
        exact = sum((f[i] * g[k - i] for i in range(max(0, k - lb), min(la, k) + 1)), Fraction(0))
        assert prod[k]._mpf_ == rounded_once(exact, prec), k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pairs=st.lists(st.tuples(finite_mpf, finite_mpf), max_size=10),
       mirrored=st.integers(0, 10), prec=st.integers(8, 400),
       divisor=st.none() | finite_mpf.filter(lambda v: v[1] != 0))
def test_dot_is_the_exact_sum_rounded_once(pairs, mirrored, prec, divisor):
    # mirroring a prefix with the sign flipped cancels it exactly; all of it gives 0
    pairs += [((1 - x[0],) + x[1:], y) for x, y in pairs[:mirrored]]
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    exact = sum((to_fraction(mp.make_mpf(x)) * to_fraction(mp.make_mpf(y)) for x, y in pairs),
                Fraction(0))
    if divisor is not None:
        exact /= to_fraction(mp.make_mpf(divisor))
    assert _dot(xs, ys, prec, divisor) == rounded_once(exact, prec)


def test_dot_refuses_non_finite_inputs():
    with pytest.raises(ValueError):
        _dot([fone, fnan], [fone, fone], 53)


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
    fs, gs = ([Fraction(0)] + [Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(L)]
              for _ in range(2))
    f, g = frac_series(fs, dps=60), frac_series(gs, dps=60)
    lhs = frac_series([a + b for a, b in zip(fs, gs)], dps=60).exp()
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
        f * g


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


def _reciprocal_linear_by_mpf(c, scale, length, dps):
    """The term-by-term mpf loop at ``dps`` digits that ``reciprocal_linear`` must equal bit for bit."""
    with mp.workdps(dps):
        cs = to_mpf(c, dps) / to_mpf(scale, dps)
        out = [mp.mpf(0)] * (length + 1)
        term = 1 / to_mpf(scale, dps)
        for m in range(1, length + 1):
            out[m] = term
            term = term * (-cs)
        return out


def test_reciprocal_linear_is_the_mpf_loop_bit_for_bit():
    with mp.workdps(120):
        finer = mp.mpf(1) / 3 + 7          # more bits than any dps below keeps
    with mp.workdps(30):
        coarser = -mp.mpf(5) / 7
    for c in (Fraction(7, 2), Fraction(-5, 3), finer, coarser, mp.mpf(0)):
        for scale in (3, 4, mp.mpf(5), Fraction(7, 3)):
            for dps in (30, 50, 97):
                for length in range(41):
                    got = reciprocal_linear(c, scale, length, dps)
                    want = _reciprocal_linear_by_mpf(c, scale, length, dps)
                    assert got.dps == dps
                    assert [v._mpf_ for v in got.coeffs] == [v._mpf_ for v in want], (c, scale, dps, length)


def test_precision_propagates_upward():
    f = frac_series([Fraction(1), Fraction(2)], dps=40)
    g = frac_series([Fraction(1), Fraction(3)], dps=60)
    assert (f * g).dps == 60


def test_minimum_precision():
    with pytest.raises(ValueError):
        PowerSeries1OverS((mp.mpf(1),), 10)
