import dataclasses
from fractions import Fraction

import pytest
from mpmath import mp

from hyperbessel import (ArityMismatch, ExpansionParams, OrderUnsupported, PoleParameter, coeffs,
                         derive_params, series_eval, stirling_matching_coeffs)
from hyperbessel.precision import to_mpf


def test_thirds_case():
    p = derive_params(3, (Fraction(1, 3), Fraction(2, 3)))
    assert p.theta == 0
    assert p.theta_prime == 1
    with mp.workdps(50):
        want = 3 ** mp.mpf("-0.5") / (2 * mp.pi)
        assert abs(p.A0 - want) <= abs(want) * mp.mpf("1e-48")


def test_two_thirds_five_sixths():
    # theta = -1/2 makes A0 collapse to 1/(2 pi)
    p = derive_params(3, ("2/3", "5/6"))
    assert p.theta == Fraction(-1, 2)
    with mp.workdps(50):
        want = 1 / (2 * mp.pi)
        assert abs(p.A0 - want) <= abs(want) * mp.mpf("1e-48")


def test_n4_quarters():
    p = derive_params(4, ("1/4", "2/4", "3/4"))
    assert p.theta == 0
    with mp.workdps(50):
        want = 4 ** mp.mpf("-0.5") / (2 * mp.pi) ** mp.mpf("1.5")
        assert abs(p.A0 - want) <= abs(want) * mp.mpf("1e-48")


def test_n5_theta():
    p = derive_params(5, ("1/5", "2/5", "3/5", "9/10"))
    assert p.theta == Fraction(-1, 10)


def test_pole_parameter_rejected():
    with pytest.raises(PoleParameter):
        derive_params(3, ("2/3", "-1"))
    with pytest.raises(PoleParameter):
        derive_params(3, ("0", "1/2"))
    with pytest.raises(PoleParameter):
        derive_params(4, ("1/4", "-2", "3/4"))


def test_order_and_arity():
    with pytest.raises(OrderUnsupported):
        derive_params(6, ("1/2",) * 5)
    with pytest.raises(OrderUnsupported):
        derive_params(2, ("1/2",))
    with pytest.raises(ArityMismatch):
        derive_params(3, ("1/2", "1/3", "1/4"))
    with pytest.raises(ArityMismatch):
        derive_params(5, ("1/2", "1/3"))


def test_theta_plus_theta_prime_exactly_one():
    for bs in [("2/3", "5/6"), ("0.17", "2.31"), ("1/7", "3/11")]:
        p = derive_params(3, bs)
        assert p.theta + p.theta_prime == 1


def test_permutation_symmetry():
    p1 = derive_params(4, ("1/4", "5/8", "7/3"))
    p2 = derive_params(4, ("7/3", "1/4", "5/8"))
    assert p1.theta == p2.theta
    assert p1.A0 == p2.A0


def test_general_formula_reduces_to_n3_form():
    # (n-1)/2 - sigma at n=3 must equal 1 - a - b exactly
    for a, b in [(Fraction(2, 3), Fraction(5, 6)), (Fraction(13, 10), Fraction(1, 7))]:
        p = derive_params(3, (a, b))
        assert p.theta == 1 - a - b


def test_min_precision_enforced():
    with pytest.raises(ValueError):
        derive_params(3, ("1/2", "1/3"), precision=20)


def test_hashable_and_equal():
    p1 = derive_params(3, ("2/3", "5/6"))
    p2 = derive_params(3, (Fraction(2, 3), Fraction(5, 6)))
    assert p1 == p2
    assert len({p1, p2}) == 1


def test_params_are_n_b_and_dps_and_theta_follows_b():
    assert [f.name for f in dataclasses.fields(ExpansionParams)] == ["n", "b_list", "dps"]
    p = derive_params(3, ("2/3", "5/6"))
    assert (p.theta, p.theta_prime) == (Fraction(-1, 2), Fraction(3, 2))
    q = dataclasses.replace(p, b_list=(Fraction(1, 4), Fraction(7, 12)))
    assert q.theta == 1 - Fraction(1, 4) - Fraction(7, 12) and q.theta_prime == 1 - q.theta
    # values read on first use are not fields: a fresh, unread copy is the same key
    fresh = derive_params(3, ("5/6", "2/3"))
    assert p == fresh and hash(p) == hash(fresh)
    assert q != p and dataclasses.replace(p, dps=60) != p and dataclasses.replace(p, n=4) != p


def test_accepts_float_and_mpf_inputs():
    p = derive_params(3, (0.25, mp.mpf("0.5")))
    assert p.b_list == (Fraction(1, 4), Fraction(1, 2))


def _eager_A0(n, theta, dps):
    with mp.workdps(dps + 10):
        a0 = mp.mpf(n) ** (to_mpf(Fraction(-1, 2) - theta, dps + 10)) / (2 * mp.pi) ** (mp.mpf(n - 1) / 2)
    with mp.workdps(dps):
        return +a0


def test_A0_is_computed_on_first_use_only():
    p = derive_params(4, ("1/6", "5/12", "13/12"))
    series_eval(p, 25)
    assert "A0" not in vars(p)
    a0 = p.A0
    assert vars(p)["A0"] is a0 and p.A0 is a0


@pytest.mark.parametrize("n, bs", [(3, ("2/3", "5/6")), (4, ("-1/4", "1/2", "5/8")),
                                   (5, ("1/3", "1/2", "2/3", "5/4"))])
@pytest.mark.parametrize("dps", [30, 50, 90])
def test_A0_matches_the_eager_formula_bit_for_bit(n, bs, dps):
    p = derive_params(n, bs, precision=dps)
    assert p.A0._mpf_ == _eager_A0(n, p.theta, dps)._mpf_


def test_b_order_is_one_key_and_one_table(monkeypatch):
    p1 = derive_params(5, ("7/12", "-5/12", "29/12", "1/12"))
    p2 = derive_params(5, ("1/12", "29/12", "7/12", "-5/12"))
    assert p1 == p2 and hash(p1) == hash(p2)
    c1 = stirling_matching_coeffs(p1, 20)

    def no_build(*args):
        raise AssertionError("the stored table was not reused")

    monkeypatch.setattr(coeffs, "_stirling_build", no_build)
    c2 = stirling_matching_coeffs(p2, 20)
    assert [c._mpf_ for c in c2] == [c._mpf_ for c in c1]
