import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from hyperbessel import (ClosedFormCase, CoeffShortfall, DomainError, NoMinimumDetected,
                         OrderUnsupported, PrecisionInsufficient, closed_form_eval, compound_eval,
                         derive_params, level_series, residual_F, series_eval,
                         stirling_matching_coeffs)
from hyperbessel import asym, coeffs, verify
from hyperbessel.precision import MAX_X, to_mpf

F = Fraction

#: the benchmark's compound_sweep sets, two per order
SWEEP_SETS = (
    (3, (F(2, 3), F(5, 6))),
    (4, (F(-1, 4), F(1, 2), F(5, 8))),
    (5, (F(1, 3), F(1, 2), F(2, 3), F(5, 4))),
    (3, (F(1, 6), F(3, 4))),
    (4, (F(1, 3), F(2, 3), F(7, 6))),
    (5, (F(-1, 3), F(1, 4), F(3, 4), F(3, 2))),
)


@pytest.fixture(scope="module")
def thirds():
    p = derive_params(3, ("1/3", "2/3"), precision=60)
    return p, stirling_matching_coeffs(p, 12)


def test_dominant_leading_term_thirds(thirds):
    # single-term dominant series is 2 A0 e^(x/2) cos(sqrt(3) x / 2) here
    p, t = thirds
    with mp.workdps(60):
        for x in (2, 9):
            got = level_series(t, x, ("dominant",), 1).value
            want = 2 * p.A0 * mp.exp(mp.mpf(x) / 2) * mp.cos(mp.sqrt(3) * x / 2)
            assert abs(got - want) <= abs(want) * mp.mpf("1e-55")


def test_dominant_leading_term_four_five_thirds():
    p = derive_params(3, ("4/3", "5/3"), precision=60)
    t = stirling_matching_coeffs(p, 4)
    with mp.workdps(60):
        x = mp.mpf(10)
        got = level_series(t, x, ("dominant",), 1).value
        want = (3 ** mp.mpf("1.5") / (2 * mp.pi * x ** 2)) * 2 * mp.exp(x / 2) \
            * mp.cos(mp.sqrt(3) / 2 * x - 2 * mp.pi / 3)
        assert abs(got - want) <= abs(want) * mp.mpf("1e-55")


def test_dominant_leading_term_quarters():
    p = derive_params(4, ("1/4", "1/2", "3/4"), precision=60)
    t = stirling_matching_coeffs(p, 4)
    with mp.workdps(60):
        x = mp.mpf(5)
        got = level_series(t, x, ("dominant",), 1).value
        want = 2 * p.A0 * mp.exp(x / mp.sqrt(2)) * mp.cos(x / mp.sqrt(2))
        assert abs(got - want) <= abs(want) * mp.mpf("1e-55")


def test_subdominant_leading_term_thirds(thirds):
    # cos(pi(a-b)) = 1/2 leaves exactly A0 e^(-x)
    p, t = thirds
    with mp.workdps(60):
        for x in (3, 8):
            got = level_series(t, x, ("subdominant",), 1).value
            want = p.A0 * mp.exp(-mp.mpf(x))
            assert abs(got - want) <= abs(want) * mp.mpf("1e-55")


def test_subdominant_vanishes_at_half_integer_gap():
    # dyadic half-integer a-b makes the parity factor exactly zero
    p = derive_params(3, ("3/4", "1/4"))
    t = stirling_matching_coeffs(p, 10)
    assert level_series(t, 15, ("subdominant",), 8).value == 0
    # non-dyadic representations still collapse to working precision
    p2 = derive_params(3, ("7/6", "2/3"), precision=50)
    t2 = stirling_matching_coeffs(p2, 10)
    v = level_series(t2, 15, ("subdominant",), 8).value
    with mp.workdps(50):
        assert abs(v) <= mp.mpf("1e-40")


def test_subdominant_vanishes_on_a_rotated_cube_root_triple():
    # residues 1/12, 5/12, 3/4 step by 1/3: sum_r e^(2 pi i b_r) is exactly 0
    p = derive_params(4, ("1/12", "3/4", "29/12"))
    t = stirling_matching_coeffs(p, 30)
    sub = level_series(t, 12, ("subdominant",), 20)
    assert sub.value == 0 and sub.error_estimate == 0
    c = compound_eval(p, 12)
    assert c.value == level_series(stirling_matching_coeffs(p, c.terms_used), 12, ("dominant",),
                                   c.terms_used).value


def test_intermediate_never_vanishes_on_two_antipodal_pairs():
    # the n = 5 intermediate weight is the unit phase e^(3 i pi theta/5), also where
    # the b's form two antipodal pairs (e^(2 i pi b_r) summing to 0)
    p = derive_params(5, ("1/4", "3/4", "1/3", "5/6"), precision=60)
    t = stirling_matching_coeffs(p, 30)
    with mp.workdps(60):
        w = asym._start_weight(p, 3)
        assert abs(w - mp.expjpi(to_mpf(3 * p.theta / 5, 60))) <= mp.mpf("1e-58")
    for M in (1, 20):
        inter = level_series(t, 12, ("intermediate",), M)
        assert inter.value != 0 and inter.error_estimate != 0
    assert level_series(t, 12, ("subdominant",), 20).value != 0


def _closed_form_weight(p, k, dps):
    """The complex start weight w at ``dps`` digits from the closed forms of the
    module table, not from the exact terms."""
    n, bs, theta = p.n, p.b_list, p.theta
    with mp.workdps(dps):
        if k == 1 or (n, k) == (5, 3):
            return mp.expjpi(to_mpf(k * theta / n, dps))
        if k < n:
            return -mp.fsum(mp.expjpi(to_mpf(3 * theta / n + 2 * b, dps)) for b in bs)
        if n == 3:
            return mp.cospi(to_mpf(bs[0] - bs[1], dps))
        return mp.fsum(mp.cospi(to_mpf(theta + 2 * b + 2 * bs[3], dps)) for b in bs[:3])


#: exact zeros among the grid's start weights, per order and angle
TWELFTHS_ZEROS = {3: {1: 0, 3: 12}, 4: {1: 0, 3: 8}, 5: {1: 0, 3: 0, 5: 150}}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_start_weight_is_exactly_zero_where_it_vanishes_on_the_twelfths(n):
    # every multiset of residues k/12, as it is and shifted by whole numbers, every level
    found = dict.fromkeys(TWELFTHS_ZEROS[n], 0)
    with mp.workdps(60):
        for ks in itertools.combinations_with_replacement(range(1, 13), n - 1):
            for shift in (0, 1):
                p = derive_params(n, tuple(F(k, 12) + shift * i for i, k in enumerate(ks)), 60)
                for k in asym.LEVELS[n].values():
                    vanishes = asym._start_weight(p, k) == 0
                    assert vanishes == (abs(_closed_form_weight(p, k, 60)) < mp.mpf("1e-50")), \
                        (p.b_list, k)
                    found[k] += vanishes
    assert found == TWELFTHS_ZEROS[n]


@pytest.mark.parametrize("bs", [(F(1, 12), F(1, 12), F(5, 12), F(3, 4)),
                                (F(1, 12), F(1, 6), F(5, 12), F(3, 4)),
                                (F(1, 12), F(1, 6), F(1, 2), F(5, 6)),
                                (F(1, 5), F(2, 5), F(3, 5), F(9, 10))])
def test_n5_subdominant_is_exactly_zero_where_its_weight_cancels(bs):
    t = stirling_matching_coeffs(derive_params(5, bs), 30)
    for M in (1, 20):
        sub = level_series(t, 12, ("subdominant",), M)
        assert sub.value == 0 and sub.error_estimate == 0


def test_parameter_order_is_ignored():
    # the k = 5 weight of ``vanishing`` came out as +-7.35e-51 by the order of b
    vanishing = (F(1, 6), F(1, 3), F(3, 4), F(5, 4))
    for bs in (vanishing, (F(-1, 3), F(1, 4), F(3, 4), F(3, 2))):
        p, q = derive_params(5, bs), derive_params(5, bs[::-1])
        assert p == q and p.b_list == tuple(sorted(bs))
        for x in (8, 20):
            a, b = compound_eval(p, x), compound_eval(q, x)
            assert (a.value, a.error_estimate, a.terms_used) == (b.value, b.error_estimate, b.terms_used)
        sub = level_series(stirling_matching_coeffs(q, 30), 20, ("subdominant",), 20)
        assert (sub.value == 0) == (bs == vanishing)


#: large primes and semiprimes, up to (10^9 + 7)(10^9 + 9)
LARGE_DENOMINATORS = (10007, 999983, 1000003, 1000033, 999999999989,
                      1000003 * 1000033, (10 ** 9 + 7) * (10 ** 9 + 9))


def _off_grid_sets(count, seed):
    """Float-derived b (denominators near 2^52) and b over large primes and
    semiprimes, each b drawn on its own, so one set can hold several of them."""
    rng = random.Random(seed)
    yield 3, ("1/1000000016000000063", "2/3")
    yield 3, (F(1, 1000003), F(2, 1000033))
    for _ in range(count):
        n = rng.choice((3, 4, 5))
        bs = []
        for _ in range(n - 1):
            d = rng.choice(LARGE_DENOMINATORS) * rng.choice((1, 6))
            bs.append(F(rng.uniform(0.01, 3)) if rng.random() < 0.3 else F(rng.randint(1, 3 * d), d))
        yield n, bs


def test_start_weight_off_the_grid_is_never_zero_and_stays_cheap(monkeypatch):
    # the reduction only looks for primes of N up to the number of terms; its
    # steps are bounded by the terms and by the primes 2, 3, 5 of N, and do not
    # grow with the large primes.  An uncached weight takes about 0.2 ms; the
    # 50 ms bound leaves 250 times that, where a search for the primes of a
    # semiprime near 10^18 would take minutes.
    steps, reduce = [0], asym._cyclotomic_zero

    def counted(*args):
        steps[0] += 1
        return reduce(*args)

    monkeypatch.setattr(asym, "_cyclotomic_zero", counted)
    for n, bs in _off_grid_sets(200, 5):
        p = derive_params(n, bs)
        for k in asym.LEVELS[n].values():
            terms = asym._weight_terms(p, k)
            small, N = 0, 2 * math.lcm(*(q.denominator for _, q in terms))
            for prime in (2, 3, 5):
                while N % prime == 0:
                    small, N = small + 1, N // prime
            seconds = []
            for _ in range(3):
                steps[0], start = 0, time.perf_counter()
                w = asym._start_weight.__wrapped__(p, k)
                seconds.append(time.perf_counter() - start)
            assert w != 0, (p.b_list, k)
            assert steps[0] <= len(terms) * (small + 1), (p.b_list, k, steps[0])
            assert min(seconds) < 0.05, (p.b_list, k, seconds)


def test_subdominant_n5_fifths():
    # sum of the three parity cosines is exactly 1/2 for the fifths
    p = derive_params(5, ("1/5", "2/5", "3/5", "4/5"), precision=60)
    t = stirling_matching_coeffs(p, 4)
    with mp.workdps(60):
        x = mp.mpf(6)
        got = level_series(t, x, ("subdominant",), 1).value
        want = p.A0 * mp.exp(-x)
        assert abs(got - want) <= abs(want) * mp.mpf("1e-50")


def test_intermediate_n5_fifths():
    p = derive_params(5, ("1/5", "2/5", "3/5", "4/5"), precision=60)
    t = stirling_matching_coeffs(p, 4)
    with mp.workdps(60):
        x = mp.mpf(6)
        got = level_series(t, x, ("intermediate",), 1).value
        want = 2 * p.A0 * mp.exp(x * mp.cospi(mp.mpf(3) / 5)) * mp.cos(x * mp.sinpi(mp.mpf(3) / 5))
        assert abs(got - want) <= abs(want) * mp.mpf("1e-50")


def test_intermediate_requires_n5(thirds):
    _, t = thirds
    with pytest.raises(OrderUnsupported):
        level_series(t, 5, ("intermediate",), 1)


def test_domain_and_shortfall(thirds):
    _, t = thirds
    with pytest.raises(DomainError):
        level_series(t, 0, ("dominant",), 1)
    with pytest.raises(CoeffShortfall):
        level_series(t, 5, ("dominant",), len(t) + 1)


def test_compound_rejects_non_positive_x_before_building_a_table():
    # a parameter set no other test uses, so a table built for it would show in the store
    p = derive_params(4, ("7/12", "5/6", "13/12"), precision=41)
    for x in (0, -1, F(-1, 2), "-3"):
        for truncation in ("optimal", 5, 0, -3):
            with pytest.raises(DomainError):
                compound_eval(p, x, truncation=truncation)
    # so is a term count below 1
    for truncation in (0, -3):
        with pytest.raises(ValueError):
            compound_eval(p, 10, truncation=truncation)
    assert p not in coeffs._TABLES._tables
    with pytest.raises(DomainError):
        level_series(stirling_matching_coeffs(p, 8), 0, ("dominant",))


def test_compound_refuses_x_past_max_x_before_building_a_table():
    # past 10^11 the levels' exponent and phase cannot be resolved; the sizing works
    # in logs, so even an x beyond float range is refused cleanly, not overflowed
    p = derive_params(5, ("7/12", "5/6", "13/12", "17/12"), precision=43)
    for x in ("1e400", F(10) ** 400, 10 * MAX_X):
        with pytest.raises(PrecisionInsufficient):
            compound_eval(p, x)
        with pytest.raises(PrecisionInsufficient):
            asym.residual_dps(5, x)
    assert p not in coeffs._TABLES._tables


#: one compound_sweep set per order, and Lambda = 2 sin(pi/n), the distance to the
#: nearest pair of Borel singularities: the least term sits near j = Lambda x
ENVELOPE_SETS = SWEEP_SETS[:3]
LAMBDA = {n: 2 * math.sin(math.pi / n) for n in (3, 4, 5)}


@pytest.mark.parametrize("n, bs", ENVELOPE_SETS)
def test_compound_table_is_sized_from_the_least_term_envelope(n, bs, monkeypatch):
    # below the precision floor the first table is max(16, ceil(Lambda x) + 14)
    # coefficients, and it holds the least term, so it is never grown
    p = derive_params(n, bs)
    for x in (6, 10, 16, 30, 60):
        monkeypatch.setattr(coeffs, "_TABLES", coeffs._TableStore(1))
        compound_eval(p, x)
        assert len(coeffs._TABLES._tables[p]) == max(16, math.ceil(LAMBDA[n] * x) + 14), x


def test_envelope_table_keeps_the_cut_off_a_late_interference_dip():
    # a 45-coefficient table (2x + 16) reaches a late dip at j0 = 34, 4.5e-8 off; the
    # envelope's 34 coefficients end before it, and the cut at j0 = 22 is 7.3e-10 off
    p = derive_params(4, (F(5, 2), F(-1, 4), F(1, 12)))
    x = F(2803, 200)
    c = compound_eval(p, x)
    s = series_eval(p, x, target_digits=50)
    assert c.terms_used == 23
    with mp.workdps(60):
        err = abs(c.value - s.value)
        assert err <= c.error_estimate
        assert err <= mp.mpf("1e-9") * abs(s.value)


def test_compound_grows_its_table_while_the_least_term_is_its_last(monkeypatch):
    # at large b the envelope's 29 coefficients still fall at their end: the table
    # grows 1.5-fold to 44, whose least term is the 29th
    monkeypatch.setattr(coeffs, "_TABLES", coeffs._TableStore(1))
    p = derive_params(4, (F(17, 3), F(173, 12), F(155, 12)))
    x = F(10043, 1000)
    assert asym._first_table(p, x) == 29
    c = compound_eval(p, x)
    assert len(coeffs._TABLES._tables[p]) == 44
    assert c.terms_used == 29
    s = series_eval(p, x, target_digits=40)
    with mp.workdps(60):
        assert abs(c.value - s.value) <= c.error_estimate


@pytest.mark.parametrize("n, bs", ENVELOPE_SETS)
def test_compound_meets_its_estimate_at_a_non_dyadic_x_far_out(n, bs):
    # the levels read x 10 digits past the working precision: rounded to the 50
    # working digits, x = 1000.1 alone puts n = 3 off by 31 estimates
    p = derive_params(n, bs)
    for x in ("1000.1", "3000.001"):
        c = compound_eval(p, x)
        s = series_eval(p, x, target_digits=65)
        with mp.workdps(80):
            assert abs(c.value - s.value) <= c.error_estimate, x


@pytest.mark.parametrize("n, bs", ENVELOPE_SETS)
def test_compound_cuts_at_the_precision_floor_far_out(n, bs, monkeypatch):
    # past the floor crossing no term changes a digit: the table stays O(dps) long
    # at any x, and the value still meets its estimate
    p = derive_params(n, bs)
    for x in (150, 300, 1000, 10 ** 4):
        monkeypatch.setattr(coeffs, "_TABLES", coeffs._TableStore(1))
        c = compound_eval(p, x)
        assert len(coeffs._TABLES._tables[p]) <= 80, x
        s = series_eval(p, x, target_digits=65)
        with mp.workdps(80):
            assert abs(c.value - s.value) <= c.error_estimate, x


def test_a_single_noise_level_coefficient_does_not_end_the_sum():
    # c_2 vanishes at n = 3, b = (2/3, 5/3) and comes out as rounding noise, below the
    # precision floor at any x: it is passed over as the least term (at x = 10 a cut
    # there leaves 2.5e-4 of the value), and alone it does not end the scan at the
    # floor (at x = 300 the sum runs on to the floor crossing)
    p = derive_params(3, (F(2, 3), F(5, 3)))
    with mp.workdps(p.dps):
        assert abs(stirling_matching_coeffs(p, 3)[2]) < mp.mpf(10) ** -(p.dps + 2)
    for x in (10, 300):
        c = compound_eval(p, x)
        assert c.terms_used > asym.FLOOR_RUN + 3, x
        s = series_eval(p, x, target_digits=65)
        with mp.workdps(80):
            assert abs(c.value - s.value) <= c.error_estimate, x


def test_sign_alternation_consistency():
    # consecutive subdominant truncations differ by exactly the added term
    p = derive_params(3, ("5/4", "1/4"), precision=60)
    t = stirling_matching_coeffs(p, 12)
    with mp.workdps(60):
        x = mp.mpf(9)
        for m in (3, 6):
            d = (level_series(t, x, ("subdominant",), m + 1).value
                 - level_series(t, x, ("subdominant",), m).value)
            pref = 2 * p.A0 * mp.cospi(mp.mpf(1)) * x ** mp.mpf("-0.5") * mp.exp(-x)
            want = pref * (-1) ** m * t[m] * x ** (-m)
            assert abs(d - want) <= (abs(want) + mp.mpf("1e-60")) * mp.mpf("1e-40")


def test_optimal_truncation_frozen_indices():
    p = derive_params(3, ("2/3", "5/6"))
    t = stirling_matching_coeffs(p, 60)
    assert level_series(t, 10, ("dominant",)).terms_used == 17
    assert level_series(t, 20, ("dominant",)).terms_used == 35


def test_optimal_truncation_no_minimum():
    p = derive_params(3, ("2/3", "5/6"))
    t = stirling_matching_coeffs(p, 10)
    with pytest.raises(NoMinimumDetected):
        level_series(t, 50, ("dominant",))  # terms still decreasing at the table end
    # a fixed coefficient budget, as in the golden tables, sums the whole table
    assert verify._least_term_sum(t, 50, "dominant").terms_used == 10


@pytest.mark.parametrize("n, bs, level", [
    (4, ("-1/4", "1/2", "5/8"), "subdominant"),
    (5, ("1/10", "1/5", "3/10", "11/10"), "intermediate"),
])
def test_error_estimate_bounds_next_term(n, bs, level):
    # the first omitted term carries the level's amplitude |sum_r e^(2 pi i b_r)|
    p = derive_params(n, bs, precision=50)
    t = stirling_matching_coeffs(p, 14)
    with mp.workdps(50):
        for m in range(1, 13):
            s_m = level_series(t, 12, (level,), m)
            added = abs(level_series(t, 12, (level,), m + 1).value - s_m.value)
            assert added <= s_m.error_estimate * (1 + mp.mpf("1e-40"))


def test_compound_collapses_on_closed_forms():
    for case in ClosedFormCase:
        p = derive_params(case.order, case.b_list, precision=60)
        c = compound_eval(p, 9, truncation=1)
        cf = closed_form_eval(case, 9, precision=60)
        with mp.workdps(60):
            assert abs(c.value - cf.value) <= abs(cf.value) * mp.mpf("1e-55")


def test_compound_matches_series():
    p = derive_params(3, ("2/3", "5/6"), precision=60)
    c = compound_eval(p, 25)
    s = series_eval(p, 25, target_digits=30)
    with mp.workdps(60):
        err = abs(c.value - s.value)
        assert err <= abs(s.value) * mp.mpf("1e-14")
        assert err <= 30 * c.error_estimate


@pytest.mark.parametrize("n, bs, x", [(3, ("4/3", "2/3"), F(252, 25)),
                                      (4, ("9/4", "5/2", "-1/4"), F(4659, 500))])
def test_terminating_expansion_estimate_covers_rounding(n, bs, x):
    # c_j vanish past a few terms here, so the first omitted term is rounding
    # noise; the estimate must still cover the value's own rounding
    p = derive_params(n, bs)
    c = compound_eval(p, x)
    s = series_eval(p, x, target_digits=60)
    with mp.workdps(80):
        assert abs(c.value - s.value) <= c.error_estimate


def test_compound_matches_series_n4_generic():
    p = derive_params(4, ("-1/4", "1/2", "5/8"), precision=60)
    c = compound_eval(p, 18)
    s = series_eval(p, 18, target_digits=30)
    with mp.workdps(60):
        assert abs(c.value - s.value) <= abs(s.value) * mp.mpf("1e-10")


def test_compound_fixed_truncation():
    p = derive_params(3, ("2/3", "5/6"), precision=60)
    c = compound_eval(p, 18, truncation=7)
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
        c = compound_eval(p, x)
        j = humbert_J(m, nu, x, target_digits=30)
        with mp.workdps(60):
            scale = (mp.mpf(x) / 3) ** (mp.mpf(7) / 6)
            assert abs(scale * c.value - j.value) <= 30 * scale * c.error_estimate


def test_residual_matches_exp_small():
    p = derive_params(3, ("5/4", "1/4"), precision=60)
    t = stirling_matching_coeffs(p, 40)
    resid = residual_F(p, 15, 15)
    below = level_series(t, 15, ("subdominant",))
    es, j_sub = below.value, below.terms_used - 1
    with mp.workdps(50):
        assert abs(resid - es) <= abs(es) * mp.mpf("0.02")
    assert j_sub > 15


def test_residual_rederives_params_too_coarse_for_the_exp_small_level():
    # the e^(-x) level lies 1.5 x / ln 10 ~ 59 digits below the dominant sum at x = 90,
    # so 50-digit parameters are taken to residual_dps = 69 digits
    assert asym.residual_dps(3, 90) == 69
    coarse = residual_F(derive_params(3, ("4/3", "1/4"), precision=50), 90, 30)
    fine = residual_F(derive_params(3, ("4/3", "1/4"), precision=69), 90, 30)
    assert coarse._mpf_ == fine._mpf_


def test_residual_rejects_a_negative_index():
    with pytest.raises(ValueError):
        residual_F(derive_params(3, ("4/3", "1/4")), 10, -1)


def test_residual_match_improves_with_x():
    p = derive_params(3, ("5/4", "1/4"), precision=60)
    t = stirling_matching_coeffs(p, 45)
    rels = []
    with mp.workdps(60):
        for x, j0 in ((10, 13), (15, 15), (20, 24)):
            resid = residual_F(p, x, j0)
            es = level_series(t, x, ("subdominant",)).value
            rels.append(abs(resid - es) / abs(es))
    assert rels[0] > rels[1] > rels[2]


def test_n5_intermediate_in_residual():
    # the levels below the dominant one explain the residual, and the middle level most of it
    p = derive_params(5, ("1/5", "2/5", "3/5", "9/10"), precision=60)
    t = stirling_matching_coeffs(p, 100)
    j0 = level_series(t, 40, ("dominant",)).terms_used - 1
    resid = residual_F(p, 40, j0)
    below = level_series(t, 40, ("intermediate", "subdominant"), j0 + 1).value
    sub = level_series(t, 40, ("subdominant",), j0 + 1).value
    inter = level_series(t, 40, ("intermediate",), j0 + 1).value
    with mp.workdps(60):
        assert abs(resid - below) <= mp.mpf("0.02") * abs(below)
        assert abs(resid - sub - inter) <= mp.mpf("0.6") * abs(resid - sub)


@pytest.mark.parametrize("bs", [(F(1, 3), F(1, 2), F(2, 3), F(5, 4)),
                                (F(1, 5), F(2, 5), F(3, 5), F(9, 10)),
                                (F(-1, 3), F(1, 4), F(3, 4), F(3, 2))])
def test_n5_compound_meets_its_estimate_where_the_intermediate_level_stands_clear(bs):
    # at x >= 40 the intermediate level lies far above the dominant remainder, so a
    # wrong start weight shows as an error many times the estimate
    p = derive_params(5, bs, precision=90)
    for x in (60, 40):
        c = compound_eval(p, x)
        s = series_eval(p, x, target_digits=80)
        with mp.workdps(90):
            assert abs(c.value - s.value) <= 3 * c.error_estimate, x


@pytest.mark.parametrize("n, bs, x", [(5, (F(1, 5), F(2, 5), F(3, 5), F(9, 10)), 40)]
                         + [(n, bs, x) for n, bs in SWEEP_SETS for x in (8, F(23, 2), 14)])
def test_exp_small_optimal_includes_intermediate(n, bs, x):
    # every level below the dominant one, cut at one index: the least term of the table's scan
    p = derive_params(n, bs, precision=80)
    t = stirling_matching_coeffs(p, 100)
    below = [level for level in asym.LEVELS[n] if level != "dominant"]
    es = level_series(t, x, below)
    j0 = es.terms_used - 1
    assert j0 == level_series(t, x, ("dominant",)).terms_used - 1
    levels = [level_series(t, x, (level,), j0 + 1).value for level in below]
    with mp.workdps(80):
        assert levels[0] != 0
        assert abs(es.value - mp.fsum(levels)) <= max(abs(v) for v in levels) * mp.mpf("1e-70")


def test_sine_product_split_identities():
    """The recombination factors behind the exponential levels.

    For n = 4:  prod_{j<=3} sin(pi(b_j - s))
                  = (1/4) { cos(pi(theta + 3s)) - sum_j cos(pi(theta + 2 b_j + s)) }
    For n = 5:  prod_{j<=4} sin(pi(b_j - s))
                  = (1/8) { cos(pi(theta + 4s)) - sum_j cos(pi(theta + 2 b_j + 2s))
                            + sum_{r<=3} cos(pi(theta + 2 b_r + 2 b_4)) }

    A direct numerical check at arbitrary s pins the identities themselves.
    Their last sum is the n = 5 e^(-x) weight, but they do not fix the weights
    of the k < n levels: the direct series at large x gives the n = 5
    intermediate weight e^(3 i pi theta/5), not the
    -sum_j e^(i pi (3 theta/5 + 2 b_j)) that the middle sum suggests.
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
    c = compound_eval(p, 30)
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
            d = level_series(t, x, ("dominant",), 5)
            xm = mp.mpf(x)
            theta = mp.mpf(p.theta.numerator) / p.theta.denominator
            ratios.append(abs(s.value - d.value) / (xm ** theta * mp.exp(xm / 2) * xm ** -5))
        assert max(ratios) <= 10 * min(ratios)


PROPERTY_DPS = 40


def _q(value):
    return to_mpf(value, PROPERTY_DPS)


def _reference_level(p, t, x, M, level):
    """A level summed term by term in its cosine form; returns (value, |prefactor w|).

    The oscillating levels take one cos and one sin per term; the e^(-x)
    levels (k = n) alternate in sign.  The weights are formed from the closed
    forms at twice the precision, and a weight below 10^(-3 PROPERTY_DPS/2)
    there is taken as an exact 0.
    """
    n, theta = p.n, _q(p.theta)
    k = {"dominant": 1, "intermediate": 3, "subdominant": 3 if n == 4 else n}[level]
    pref = 2 * p.A0 * x ** theta * mp.exp(x * mp.cospi(mp.mpf(k) / n))
    w = _closed_form_weight(p, k, 2 * PROPERTY_DPS)
    with mp.workdps(2 * PROPERTY_DPS):
        if abs(w) < mp.mpf(10) ** (-3 * PROPERTY_DPS // 2):
            w = mp.zero
    c, s = +mp.re(w), +mp.im(w)
    if k == n:
        total = mp.fsum((-1) ** j * t[j] * x ** (-j) for j in range(M))
        return pref * c * total, abs(pref * c)
    osc = x * mp.sinpi(mp.mpf(k) / n)
    total = mp.mpf(0)
    for j in range(M):
        phi = osc - k * mp.pi * j / n
        total += t[j] * x ** (-j) * (mp.cos(phi) * c - mp.sin(phi) * s)
    return pref * total, abs(pref) * mp.hypot(c, s)


#: every (order, level) pair, drawn first so that each is reached alike
LEVEL_PAIRS = tuple((n, level) for n in (3, 4, 5) for level in asym.LEVELS[n])
#: one parameter set per order for the fixed example of each pair
EXAMPLE_SETS = {3: (F(5, 12), F(7, 6)), 4: (F(-1, 4), F(1, 2), F(2, 3)),
                5: (F(1, 3), F(1, 2), F(2, 3), F(5, 4))}


@st.composite
def level_cases(draw):
    n, level = draw(st.sampled_from(LEVEL_PAIRS))
    grid = st.integers(-11, 30).filter(lambda k: k > 0 or k % 12)  # no gamma poles
    bs = tuple(F(draw(grid), 12) for _ in range(n - 1))
    x = F(draw(st.integers(32, 320)), 8)
    return n, bs, level, x, draw(st.integers(1, 30))


def _one_example_per_pair(test):
    """Run one fixed case of every (order, level) pair besides the drawn ones."""
    for n, level in LEVEL_PAIRS:
        test = example((n, EXAMPLE_SETS[n], level, F(100, 8), 12))(test)
    return test


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@_one_example_per_pair
@given(level_cases())
def test_level_evaluator_matches_per_term_reference(case):
    n, bs, level, x, M = case
    p = derive_params(n, bs, precision=PROPERTY_DPS)
    t = stirling_matching_coeffs(p, M + 1)
    got = level_series(t, x, (level,), M).value
    with mp.workdps(PROPERTY_DPS):
        xm = _q(x)
        want, scale = _reference_level(p, t, xm, M, level)
        magnitude = mp.fsum(abs(t[j]) * xm ** (-j) for j in range(M))
        assert abs(got - want) <= mp.mpf(10) ** (5 - PROPERTY_DPS) * scale * magnitude


def _grid_draws(seed):
    """One parameter set per order, b drawn on the grid p/12 in (-1, 3] without 0."""
    rng = random.Random(seed)
    grid = [F(k, 12) for k in range(-11, 37) if k]
    return tuple((n, tuple(rng.choice(grid) for _ in range(n - 1))) for n in (3, 4, 5))


ONE_PASS_SETS = SWEEP_SETS + _grid_draws(8)
ONE_PASS_X = (6, F(23, 2), 30)
ONE_PASS_M = (1, 2, 5, 6, 10, 11, 17, 31, 44, 60)


def _term_by_term(p, t, x, M, k, dps):
    """sum_j c_j Re(w e^(i x sin(k pi/n)) (e^(-i k pi/n)/x)^j), prefactor included,
    one complex power per term at ``dps`` digits, with the evaluator's start weight w."""
    w = asym._start_weight(p, k)
    with mp.workdps(dps):
        xm = to_mpf(x, dps)
        angle = mp.mpf(k) / p.n
        pref = 2 * p.A0 * xm ** to_mpf(p.theta, dps) * mp.exp(xm * mp.cospi(angle))
        phase = w * mp.expj(xm * mp.sinpi(angle))
        z = mp.expjpi(-angle) / xm
        return pref * mp.fsum(t[j] * (phase * z ** j).real for j in range(M))


@pytest.mark.parametrize("n, bs", ONE_PASS_SETS)
def test_level_sums_from_residue_classes_match_term_by_term(n, bs):
    """The residue-class level sums against a term-by-term sum 20 digits finer.

    Each level value must agree within its own rounding floor 10^(1-dps) |value|,
    and ``compound_eval`` must equal the sum of the single levels at the same
    ``terms_used``.
    """
    p = derive_params(n, bs)
    t = stirling_matching_coeffs(p, max(ONE_PASS_M) + 1)
    angles = asym.LEVELS[n]
    floor = mp.mpf(10) ** (1 - p.dps)
    for x in ONE_PASS_X:
        for M in ONE_PASS_M:
            for level, k in angles.items():
                got = level_series(t, x, (level,), M).value
                want = _term_by_term(p, t, x, M, k, p.dps + 20)
                with mp.workdps(p.dps + 20):
                    assert abs(got - want) <= floor * abs(got), (level, x, M)
        c = compound_eval(p, x)
        tc = stirling_matching_coeffs(p, c.terms_used + 1)
        parts = [level_series(tc, x, (level,), c.terms_used).value for level in angles]
        with mp.workdps(p.dps + 20):
            assert abs(c.value - mp.fsum(parts)) <= floor * abs(c.value), x


@pytest.mark.parametrize("n, bs", ONE_PASS_SETS)
def test_compound_eval_is_level_series_over_every_level(n, bs, monkeypatch):
    # the table compound_eval sums is the last one it asks the store for
    built = []

    def recorded(params, M):
        built.append(stirling_matching_coeffs(params, M))
        return built[-1]

    monkeypatch.setattr(asym, "stirling_matching_coeffs", recorded)
    p = derive_params(n, bs)
    for x in ONE_PASS_X:
        c = compound_eval(p, x)
        ls = level_series(built[-1], x, asym.LEVELS[n], c.terms_used)
        assert (c.method, ls.method) == ("compound", "asymptotic")
        for field in ("value", "error_estimate", "max_term_magnitude"):
            assert getattr(c, field)._mpf_ == getattr(ls, field)._mpf_, (x, field)
        assert c.terms_used == ls.terms_used


@pytest.mark.parametrize("n, bs", SWEEP_SETS)
def test_compound_peak_term_is_in_the_units_of_the_value(n, bs):
    # the peak term carries the lead level's prefactor, as the value does, so a
    # compound sum never reads as gaining digits by cancellation
    p = derive_params(n, bs)
    for x in (8, F(23, 2), 14, 25):
        c = compound_eval(p, x)
        assert c.digits_lost >= -0.5, x


def test_level_series_refuses_a_short_table_and_a_missing_level():
    t = stirling_matching_coeffs(derive_params(3, ("2/3", "5/6")), 10)
    with pytest.raises(NoMinimumDetected):
        level_series(t, 50, ("dominant",))   # terms still decreasing at the table end
    with pytest.raises(OrderUnsupported):
        level_series(t, 5, ("dominant", "intermediate"))
    with pytest.raises(ValueError):
        level_series(t, 5, ())
