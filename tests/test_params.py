from fractions import Fraction

import pytest
from mpmath import mp

from hyperbessel import ArityMismatch, OrderUnsupported, PoleParameter, derive_params


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


def test_accepts_float_and_mpf_inputs():
    p = derive_params(3, (0.25, mp.mpf("0.5")))
    assert p.b_list == (Fraction(1, 4), Fraction(1, 2))
