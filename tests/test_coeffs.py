import hashlib
import logging
import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

from hyperbessel import (ClosedFormCase, OrderUnsupported, SingularRineyWeights, compound_eval,
                         derive_params, riney_coeffs, stirling_matching_coeffs)
from hyperbessel import asym, coeffs
from hyperbessel.coeffs import bernoulli_number
from hyperbessel.verify import fixture_rows
from oracles import closed_form_c123, general_c1

F = Fraction


def as_mpf(f, dps=50):
    with mp.workdps(dps):
        return mp.mpf(f.numerator) / f.denominator


def test_bernoulli_exact_values():
    assert bernoulli_number(0) == F(1)
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == F(-691, 2730)


def test_bernoulli_against_mpmath():
    with mp.workdps(60):
        for m in range(0, 42, 2):
            b = bernoulli_number(m)
            want = mpmath.bernoulli(m)
            got = mp.mpf(b.numerator) / b.denominator
            assert abs(got - want) <= abs(want) * mp.mpf("1e-55")


def test_table1_values_both_engines(table1_params, table1_stirling, table1_riney):
    # quoted values are all exact dyadic rationals for this parameter set
    with mp.workdps(50):
        for rec in fixture_rows("T1"):
            j = int(rec["j"])
            quoted = mp.mpf(rec["value"])
            for table in (table1_stirling, table1_riney):
                assert abs(table[j] - quoted) <= abs(quoted) * mp.mpf("1e-14")


def test_engines_agree_to_working_precision(table1_stirling, table1_riney):
    with mp.workdps(60):
        for u, v in zip(table1_stirling.c, table1_riney.c):
            assert abs(u - v) <= (abs(v) + 1) * mp.mpf("1e-45")


def test_closed_form_c123_values():
    c1, c2, c3 = closed_form_c123("2/3", "5/6")
    with mp.workdps(50):
        assert c1 == mp.mpf(1) / 4
        assert c2 == mp.mpf(5) / 32
        assert c3 == mp.mpf(15) / 128
    for a, b in [("1/3", "2/3"), ("4/3", "5/3")]:
        assert closed_form_c123(a, b) == (0, 0, 0)
    # repeated unit parameters: exactly where the explicit recurrence is singular
    c1, c2, c3 = closed_form_c123(1, 1)
    with mp.workdps(50):
        assert abs(c1 - mp.mpf(1) / 3) <= mp.mpf("1e-48")
        assert abs(c2 - mp.mpf(2) / 9) <= mp.mpf("1e-48")
        assert abs(c3 - mp.mpf(14) / 81) <= mp.mpf("1e-48")


def test_closed_forms_match_engine(table1_stirling):
    c123 = closed_form_c123("2/3", "5/6")
    with mp.workdps(50):
        for j, want in enumerate(c123, start=1):
            assert abs(table1_stirling[j] - want) <= (abs(want) + 1) * mp.mpf("1e-45")


def test_general_c1():
    assert general_c1(derive_params(3, ("2/3", "5/6"))) == as_mpf(F(1, 4))
    assert general_c1(derive_params(4, ("1/4", "1/2", "3/4"))) == 0
    assert general_c1(derive_params(5, ("1/5", "2/5", "3/5", "4/5"))) == 0
    rng = random.Random(11)
    with mp.workdps(50):
        for n in (3, 4, 5):
            bs = tuple(F(rng.randint(1, 59), 20) for _ in range(n - 1))
            p = derive_params(n, bs)
            t = stirling_matching_coeffs(p, 3)
            assert abs(general_c1(p) - t[1]) <= (abs(t[1]) + 1) * mp.mpf("1e-40")


def test_riney_singularities():
    for a, b in [(1, 1), (F(3, 2), F(3, 2)), (1, F(1, 2)), (F(1, 2), 1)]:
        with pytest.raises(SingularRineyWeights):
            riney_coeffs(derive_params(3, (a, b)), 5)
    # near-singular inputs are rejected rather than limped through
    with pytest.raises(SingularRineyWeights):
        riney_coeffs(derive_params(3, (1 + F(1, 10 ** 30), F(1, 2))), 5)


@pytest.mark.parametrize("dps, gap, singular", [(700, F(1, 10 ** 400), True),
                                                 (100, F(1, 10 ** 60), True),
                                                 (100, F(1, 10 ** 40), False)])
def test_riney_singularity_threshold_is_exact_at_any_precision(dps, gap, singular):
    # the threshold gap < 10^(-dps/2) is 0.0 in floats once dps is near 650
    p = derive_params(3, (F(2, 3), F(2, 3) + gap), precision=dps)
    if singular:
        with pytest.raises(SingularRineyWeights):
            riney_coeffs(p, 5)
    else:
        assert len(riney_coeffs(p, 5)) == 5


def test_riney_is_n3_only():
    with pytest.raises(OrderUnsupported):
        riney_coeffs(derive_params(4, ("1/4", "1/2", "3/4")), 5)


def test_riney_vanishing_case():
    t = riney_coeffs(derive_params(3, ("1/3", "2/3")), 5)
    with mp.workdps(50):
        assert all(abs(c) <= mp.mpf("1e-45") for c in t.c[1:])


def test_stirling_vanishing_cases():
    # the gamma ratio is a constant here (Gauss multiplication), so every t_k
    # is exactly 0 and so is every c_j, j >= 1: the least term is c_1
    cases = [(case.order, case.b_list) for case in ClosedFormCase] + [(3, (F(2, 3), F(4, 3)))]
    for n, bs in cases:
        p = derive_params(n, bs)
        assert all(c == 0 for c in stirling_matching_coeffs(p, 40).c[1:])
        assert compound_eval(p, F(19, 2)).terms_used == 2


def test_stirling_handles_riney_singular_points():
    # c_1 = 1/3 at a = b = 1 (from the closed form), where the recurrence fails
    t = stirling_matching_coeffs(derive_params(3, (1, 1)), 4)
    with mp.workdps(50):
        assert abs(t[1] - mp.mpf(1) / 3) <= mp.mpf("1e-45")


@pytest.mark.parametrize("n, bs", [(3, ("1/6", "3/4")), (4, ("1/3", "2/3", "7/6")),
                                   (5, ("-1/3", "1/4", "3/4", "3/2"))])
def test_stirling_coefficients_within_one_ulp(n, bs):
    # the same engine 60 digits finer, rounded to dps, is the reference
    M, dps = 40, 50
    got = stirling_matching_coeffs(derive_params(n, bs, precision=dps), M).c
    fine = stirling_matching_coeffs(derive_params(n, bs, precision=dps + 60), M).c
    with mp.workdps(dps):
        for u, v in zip(got, fine):
            ref = +v
            assert abs(u - ref) <= mp.ldexp(1, mp.mag(ref) - mp.prec)


@pytest.mark.parametrize("n, bs, dps, M, digest", [
    (3, ("1/6", "3/4"), 50, 48, "e243cce1fa6456f3f64c34449b74f3999c78c178a42fb0cd5f2fb68f504775ee"),
    (4, ("1/3", "2/3", "7/6"), 50, 48, "cc196adf9e6a3c2938a6814c8f40cf4a679c44284df8e2444825dc08288ae074"),
    (5, ("-1/3", "1/4", "3/4", "3/2"), 50, 48,
     "bff0014c4d47836deb88d3eaa24144711735eb15ae881990244d2d92c5edbf39"),
    (4, ("-1/4", "1/2", "5/8"), 60, 40, "c005ef7ba2f634c4769db251ead458b70c24e9ab1063e19071816359adb83ce3"),
])
def test_stirling_coefficients_keep_their_bits(monkeypatch, n, bs, dps, M, digest):
    # SHA-256 of the raw (sign, man, exp) of every c_j from a fresh build: a
    # faster kernel must give the same bits; a new algorithm (such as an exact
    # recurrence) changes these digests on purpose
    monkeypatch.setattr(coeffs, "_TABLES", coeffs._TableStore(1))
    c = stirling_matching_coeffs(derive_params(n, bs, precision=dps), M).c
    assert hashlib.sha256(repr(tuple(v._mpf_[:3] for v in c)).encode()).hexdigest() == digest


@pytest.mark.parametrize("n, bs", [(3, ("7/12", "5/4")), (4, ("1/6", "5/12", "3/2")),
                                   (5, ("1/12", "1/3", "7/12", "5/3"))])
def test_shortest_tables_bound_the_pochhammer_rows(n, bs):
    # M = 1 builds no row; M = 2 builds only 1/(n s + theta'), and c_1 is its closed form
    p = derive_params(n, bs, precision=47)   # a precision no other test uses: fresh builds
    assert stirling_matching_coeffs(p, 1).c == (1,)
    c1 = stirling_matching_coeffs(p, 2)[1]
    want = general_c1(p)
    with mp.workdps(p.dps):
        assert want != 0
        assert abs(c1 - want) <= mp.ldexp(1, mp.mag(want) - mp.prec)


@pytest.mark.parametrize("d_theta, d_theta_prime", [pytest.param(1, -1, id="theta-vs-sigma"),
                                                     pytest.param(0, 1, id="theta-prime-only")])
def test_cancellation_check_guards_inconsistent_params(d_theta, d_theta_prime):
    # the log/constant terms cancel exactly only when theta = (n-1)/2 - sum b_j
    # and theta' = 1 - theta; both are derived from b, so no route gives the
    # engine a theta inconsistent with sigma, or a theta' inconsistent with theta
    import dataclasses

    p = derive_params(3, ("2/3", "5/6"))
    want = stirling_matching_coeffs(p, 5).c
    with pytest.raises(TypeError):
        dataclasses.replace(p, theta=p.theta + d_theta, theta_prime=p.theta_prime + d_theta_prime)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.theta = p.theta + d_theta
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.theta_prime = p.theta_prime + d_theta_prime
    assert (p.theta, p.theta_prime) == (F(-1, 2), F(3, 2))
    assert stirling_matching_coeffs(p, 5).c == want


def test_permutation_symmetry():
    with mp.workdps(50):
        for engine in (stirling_matching_coeffs, riney_coeffs):
            t1 = engine(derive_params(3, ("7/5", "3/10")), 20)
            t2 = engine(derive_params(3, ("3/10", "7/5")), 20)
            for u, v in zip(t1.c, t2.c):
                assert abs(u - v) <= (abs(v) + 1) * mp.mpf("1e-45")


def test_cross_engine_random_pairs():
    rng = random.Random(99)
    done = 0
    with mp.workdps(60):
        while done < 6:
            a = F(rng.randint(10, 290), 100)
            b = F(rng.randint(10, 290), 100)
            if min(abs(a - b), abs(1 - a), abs(1 - b)) <= F(5, 100):
                continue
            p = derive_params(3, (a, b))
            ts = stirling_matching_coeffs(p, 25)
            tr = riney_coeffs(p, 25)
            for u, v in zip(ts.c, tr.c):
                assert abs(u - v) <= max(abs(v), 1) * mp.mpf("1e-40")
            done += 1


def test_inverse_factorial_identity():
    """The defining identity itself, evaluated at finite s, bounds the engine output.

    Gamma(3s+theta') / (3^(3s+1) A0 Gamma(s+1) Gamma(s+a) Gamma(s+b)) must agree
    with sum_j c_j/(3s+theta')_j up to the first omitted term's scale.
    """
    for bs in [(1, 1), ("2/3", "5/6"), ("5/4", "1/4")]:
        p = derive_params(3, bs, precision=60)
        t = stirling_matching_coeffs(p, 25)
        with mp.workdps(120):
            for s in (mp.mpf(25), mp.mpf(40)):
                tp = mp.mpf(p.theta_prime.numerator) / p.theta_prime.denominator
                lhs = mp.gamma(3 * s + tp) / (
                    mp.mpf(3) ** (3 * s + 1) * p.A0 * mp.gamma(s + 1)
                    * mp.fprod([mp.gamma(s + mp.mpf(b.numerator) / b.denominator) for b in p.b_list]))
                rhs = mp.mpf(0)
                poch = mp.mpf(1)
                for j, cj in enumerate(t.c):
                    rhs += cj / poch
                    poch *= 3 * s + tp + j
                omitted = max(abs(c) for c in t.c[-3:]) / poch * (3 * s)
                assert abs(lhs - rhs) <= 10 * omitted


def _resurgence_sets(per_order=4, seed=12):
    """b on the 1/12 grid with a nonzero multiplier S, and away from the Riney
    singularities for n = 3, where both engines are checked."""
    rng, sets = random.Random(seed), []
    for n in (3, 4, 5):
        drawn = []
        while len(drawn) < per_order:
            bs = tuple(F(rng.randint(-11, 35), 12) for _ in range(n - 1))
            if any(b.denominator == 1 and b <= 0 for b in bs) or (n == 3 and len({*bs, 1}) < 3):
                continue
            if not asym._vanishes(((F(1), F(0)),) + tuple((F(1), 2 * b) for b in bs)):
                drawn.append(bs)
        engines = ("stirling", "riney") if n == 3 else ("stirling",)
        sets += [(n, bs, engine) for bs in drawn for engine in engines]
    return sets


#: rho_4 from the zeta = -1 singularity, rho_5 from the next pair; n = 3 has none,
#: and its error comes from the cut at L
RESURGENCE_RHO = {3: 0.5, 4: 2 ** -0.5, 5: math.sin(math.pi / 5) / math.sin(2 * math.pi / 5)}
RESURGENCE_C = {3: 100, 4: 10, 5: 10}


@pytest.mark.parametrize("n, bs, engine", _resurgence_sets())
def test_late_coefficients_follow_the_resurgence_relation(n, bs, engine):
    """c_j ~ 2 Re[K g_j], g_j = zeta^theta sum_{m<L} c_m zeta^(-m) Gamma(j-m) / (1-zeta)^(j-m),
    zeta = e^(2 pi i/n), with the Stokes multiplier S = 2 pi i K = -(1 + sum_r e^(2 pi i b_r)).

    K is fitted from each pair (c_J, c_{J+1}), J = 30, 32, ..., 88, L = min(J/2, 30), so
    every c_j from 30 to 89 enters one fit; each fit must give S to C rho_n^J.
    """
    p = derive_params(n, bs, precision=60)
    t = (stirling_matching_coeffs if engine == "stirling" else riney_coeffs)(p, 92)
    rho, worst = RESURGENCE_RHO[n], []
    with mp.workdps(60):
        zeta = mp.expjpi(mp.mpf(2) / n)
        stokes = -(1 + mp.fsum(mp.expjpi(2 * as_mpf(b, 60)) for b in p.b_list))
        lead = mp.expjpi(2 * as_mpf(p.theta, 60) / n)
        scaled = [t[m] * ((1 - zeta) / zeta) ** m for m in range(30)]
        for J in range(30, 89, 2):
            g = [lead / (1 - zeta) ** j * mp.fsum(scaled[m] * math.factorial(j - m - 1)
                                                  for m in range(min(J // 2, 30)))
                 for j in (J, J + 1)]
            k = mp.lu_solve(mp.matrix([[2 * gj.real, -2 * gj.imag] for gj in g]),
                            mp.matrix([t[J], t[J + 1]]))
            worst.append((float(abs(2j * mp.pi * mp.mpc(k[0], k[1]) / stokes - 1)) / rho ** J, J))
    ratio, J = max(worst)
    assert ratio <= RESURGENCE_C[n], f"J = {J}: |S_J/S - 1| = {ratio:.3g} rho^J"


def test_log_ratio_series_against_bernoulli_polynomials():
    """Independent derivation of the 1/s-expansion of ln R(s).

    The same expansion follows from ln Gamma(z+a) ~ (z+a-1/2) ln z - z + ln(2pi)/2
    + sum_k (-)^{k+1} B_{k+1}(a) / (k(k+1) z^k), giving the closed coefficient

        t_k = (-)^{k+1}/(k(k+1)) [ B_{k+1}(theta')/n^k - B_{k+1}(1) - sum_j B_{k+1}(b_j) ].

    Each t_k must be that exact rational rounded once, to nearest.
    """
    import sympy

    from hyperbessel.coeffs import _log_ratio_series

    for n, bs in [(3, (F(2, 3), F(5, 6))), (4, (F(-1, 4), F(1, 2), F(5, 8))),
                  (5, (F(1, 5), F(2, 5), F(3, 5), F(9, 10)))]:
        p = derive_params(n, bs, precision=50)
        series = _log_ratio_series(p, 30, 60)
        assert series[0] == 0
        with mp.workdps(60):
            for k in range(1, 31):
                tk = (sympy.bernoulli(k + 1, sympy.Rational(p.theta_prime)) / sympy.Integer(n) ** k
                      - sympy.bernoulli(k + 1, 1)
                      - sum(sympy.bernoulli(k + 1, sympy.Rational(b)) for b in bs))
                tk = sympy.Rational(tk) * (-1) ** (k + 1) / (k * (k + 1))
                assert series[k]._mpf_ == from_rational(int(tk.p), int(tk.q), mp.prec, round_nearest)


def test_coeff_table_metadata(table1_params, table1_stirling, table1_riney):
    assert len(table1_stirling) == 26
    assert table1_stirling.method == "stirling"
    assert table1_riney.method == "riney"
    assert table1_stirling.params == table1_riney.params == table1_params
    assert table1_stirling[0] == 1
    u = table1_stirling.scaled_terms(10, 50)
    with mp.workdps(50):
        assert abs(u[2] - table1_stirling[2] / 100) <= mp.mpf("1e-45")


def _builds(caplog):
    """The table builds logged so far (cache hits log nothing)."""
    return [r.getMessage() for r in caplog.records if "table build" in r.getMessage()]


def test_shorter_request_is_served_by_the_stored_prefix(caplog):
    p = derive_params(3, ("7/12", "13/12"), precision=53)
    with caplog.at_level(logging.DEBUG, logger="hyperbessel.coeffs"):
        long = stirling_matching_coeffs(p, 30)
        assert len(_builds(caplog)) == 1
        short = stirling_matching_coeffs(p, 21)
        assert len(_builds(caplog)) == 1
    assert len(short) == 21 and short.c == long.c[:21]


def test_longer_request_builds_and_replaces_the_stored_table(caplog):
    p = derive_params(4, ("5/12", "3/4", "7/6"), precision=53)
    with caplog.at_level(logging.DEBUG, logger="hyperbessel.coeffs"):
        stirling_matching_coeffs(p, 20)
        longer = stirling_matching_coeffs(p, 30)
        again = stirling_matching_coeffs(p, 25)
    builds = _builds(caplog)
    assert len(builds) == 2
    assert builds[0].startswith("stirling table build: " + p.describe())
    assert builds[0].endswith(f"M = 20 at {53 + 10 + 10} working digits, replacing 0 coefficients")
    assert builds[1].endswith(f"M = 30 at {53 + 10 + 15} working digits, replacing 20 coefficients")
    assert len(longer) == 30 and again.c == longer.c[:25]


def test_least_recently_used_params_are_evicted(caplog):
    size = coeffs._TABLES.size
    sets = [derive_params(3, (F(k, 997), F(1, 7)), precision=51) for k in range(1, size + 2)]
    with caplog.at_level(logging.DEBUG, logger="hyperbessel.coeffs"):
        for p in sets[:size]:
            stirling_matching_coeffs(p, 2)
        stirling_matching_coeffs(sets[0], 2)           # now the most recently used
        assert len(_builds(caplog)) == size
        stirling_matching_coeffs(sets[size], 2)        # evicts sets[1]
        stirling_matching_coeffs(sets[0], 2)
        assert len(_builds(caplog)) == size + 1
        stirling_matching_coeffs(sets[1], 2)
        assert len(_builds(caplog)) == size + 2


def test_riney_prefix_is_a_fresh_build():
    # the recurrence works at dps + 10 whatever M is, so a prefix is the same bits
    p = derive_params(3, ("5/12", "11/6"), precision=57)
    long = riney_coeffs(p, 40)
    short = riney_coeffs(p, 23)
    assert short.c == long.c[:23] == coeffs._riney_build(p, 23, p.dps + 10)


def test_compound_eval_does_not_depend_on_the_order_x_is_visited(monkeypatch):
    # an x-range evaluated downward then upward is served by prefixes of the
    # largest table; each x must come out as from a fresh table of its own M
    grid = [F(8) + F(k, 2) for k in range(13)]
    for n, bs in [(3, ("2/3", "5/6")), (5, ("1/3", "1/2", "2/3", "5/4"))]:
        p = derive_params(n, bs)
        swept = {}
        for x in grid[::-1] + grid:
            r = compound_eval(p, x)
            swept.setdefault(x, set()).add((r.value, r.terms_used))
        for x in grid:
            monkeypatch.setattr(coeffs, "_TABLES", coeffs._TableStore(coeffs._TABLES.size))
            r = compound_eval(p, x)
            assert swept[x] == {(r.value, r.terms_used)}
