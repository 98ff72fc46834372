import logging
import math
import pickle
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hyperbessel import (ClosedFormCase, DomainError, PrecisionInsufficient, closed_form_eval,
                         derive_params, humbert_J, reference, series_eval)
from hyperbessel.precision import auto_series_dps, to_fraction, to_mpf
from hyperbessel.reference import _exp_mpf, _TermRatio
from oracles import TailNotConverged, humbert_identity_check

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
    assert r.max_term_magnitude._mpf_ == max(_eager_trace(p, 10, r.terms_used))._mpf_
    assert r.error_estimate >= 0


def test_humbert_at_zero():
    assert humbert_J(0, 0, 0).value == 1
    assert humbert_J(1, 2, 0).value == 0
    # at nu = -m, J_{m,-m}(0) = 1/(Gamma(m+1) Gamma(1-m)): 2/pi at m = 1/2
    with mp.workdps(50):
        assert abs(humbert_J("1/2", "-1/2", 0).value - 2 / mp.pi) <= mp.mpf("1e-48")
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


# ---- the direct sum's internals against straightforward references ----

def _den_reference(n, bs, xq, k):
    """B(k) = q^n (k+1) prod_j (v_j k + u_j) for x/n = p/q, b_j = u_j/v_j."""
    out = (xq / n).denominator ** n * (k + 1)
    for b in bs:
        out *= b.denominator * k + b.numerator
    return out


def _scan_reference(ratio, n, bs, xq, logs, den, goal):
    """The term-at-a-time scan loop, on the lists ``logs`` and ``den``."""
    log_a = math.log(abs(ratio.a))
    while True:
        k = len(logs)
        logs.append(logs[-1] + log_a - math.log(abs(den[-1])))
        den.append(_den_reference(n, bs, xq, k))
        if k >= ratio._k_mono and 2 * abs(ratio.a) <= abs(den[k]) and logs[k] <= goal:
            return k


def _split_reference(a, den, lo, hi):
    """Binary splitting recursed down to single terms."""
    if hi - lo == 1:
        return a, den[lo], den[lo]
    mid = (lo + hi) // 2
    p1, q1, t1 = _split_reference(a, den, lo, mid)
    p2, q2, t2 = _split_reference(a, den, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _random_ratio_cases(count, seed):
    rng = random.Random(seed)
    grid = [F(k, 12) for k in range(-11, 37) if k % 12 or k > 0]
    for _ in range(count):
        n = rng.choice((3, 4, 5))
        bs = tuple(sorted(rng.choice(grid) for _ in range(n - 1)))
        xq = F(rng.randint(1, 400_000), 1000)
        yield n, bs, xq


def test_scan_in_two_steps_matches_the_reference_loop():
    for n, bs, xq in list(_random_ratio_cases(25, 3)) + [(3, (F(-5, 2), F(-7, 12)), F(35, 4))]:
        ratio = _TermRatio(n, bs, xq)
        logs, den = [0.0], [_den_reference(n, bs, xq, 0)]
        assert ratio.den == den
        for goal in (-20.0, -90.0):
            assert ratio.scan(goal) == _scan_reference(ratio, n, bs, xq, logs, den, goal)
            assert ratio.logs == logs and ratio.den == den


def test_block_leaves_split_like_single_terms():
    for n, bs, xq in list(_random_ratio_cases(20, 4)) + [(4, (F(-11, 4), F(-3, 2), F(1, 3)), F(9, 2))]:
        ratio = _TermRatio(n, bs, xq)
        assert ratio._k_mono <= 3
        ratio.scan(-200.0)
        size = len(ratio.den) - 1
        for terms in range(1, min(size, 40) + 1):
            for lo in (0, 1, 2, size - terms):     # lo below _k_mono: B(k) < 0 where k + b_j < 0
                if 0 <= lo and lo + terms <= size:
                    assert ratio.split(lo, lo + terms) == _split_reference(ratio.a, ratio.den, lo, lo + terms)
        # an extension merged onto an earlier range, as in the tail check
        first, more = size // 3, size
        p, q, t = ratio.split(0, first)
        p2, q2, t2 = ratio.split(first, more)
        assert (p * p2, q * q2, t * q2 + p * t2) == _split_reference(ratio.a, ratio.den, 0, more)


def _eager_trace(params, x, terms):
    """|t_k| for k < terms, formed term by term from the float logs."""
    xq = F(x)
    logs, den = [0.0], [_den_reference(params.n, params.b_list, xq, 0)]
    if terms > 1:
        ratio = _TermRatio(params.n, params.b_list, xq)
        log_a = math.log(abs(ratio.a))
        for k in range(1, terms):
            logs.append(logs[-1] + log_a - math.log(abs(den[-1])))
            den.append(_den_reference(params.n, params.b_list, xq, k))
    log_gamma = sum(math.lgamma(b) for b in params.b_list)
    return tuple(_exp_mpf(log_r - log_gamma) for log_r in logs)


@pytest.mark.parametrize("n, bs, x, target", [
    (3, ("2/3", "5/6"), F(61, 4), 20),
    (4, ("-1/4", "1/2", "5/8"), F(1237, 10), 30),
    (5, ("1/3", "1/2", "2/3", "5/4"), F(4003, 7), 20),
    # within 1e-27 of a zero of F_3: the term count is extended past the first pick
    (3, ("2/3", "5/6"), F(38700929699882395033204937787, 10 ** 27), 20),
    (4, ("1/6", "3/4", "4/3"), 0, 20),
])
def test_max_term_magnitude_is_the_eager_peak(n, bs, x, target):
    r = series_eval(derive_params(n, bs), x, target_digits=target)
    want = _eager_trace(derive_params(n, bs), x, r.terms_used)
    assert r.max_term_magnitude._mpf_ == max(want)._mpf_
    copy = pickle.loads(pickle.dumps(r))
    assert copy == r and hash(copy) == hash(r)


def test_series_eval_takes_one_exponential(monkeypatch):
    calls = []

    def counting(log_value):
        calls.append(log_value)
        return _exp_mpf(log_value)

    monkeypatch.setattr(reference, "_exp_mpf", counting)
    r = series_eval(derive_params(4, ("1/6", "3/4", "4/3")), F(2501, 10), target_digits=30)
    assert r.terms_used > 50
    assert len(calls) == 1


@pytest.mark.parametrize("m, nu, x", [
    (1, 2, 10), (F(1, 2), F(-1, 3), F(237, 10)), (F(-1, 2), F(-2, 3), F(41, 4)),
    (F(-2, 3), F(2, 3), 17), (0, 0, F(7, 2)), (3, F(5, 2), 60),
])
def test_humbert_trace_is_in_J_units(m, nu, x):
    j = humbert_J(m, nu, x)
    f = series_eval(derive_params(3, (to_fraction(m) + 1, to_fraction(nu) + 1)), x)
    working = auto_series_dps(20)
    with mp.workdps(working):
        scale = abs((to_mpf(x, working) / 3) ** to_mpf(to_fraction(m) + to_fraction(nu), working))
        want = scale * f.max_term_magnitude
    assert j.max_term_magnitude._mpf_ == want._mpf_
