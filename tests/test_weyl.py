"""Exact twisted group algebra on quantized covector keys."""

import numpy as np
import pytest

from moyalorbit import weyl
from moyalorbit.geometry import SkewForm, Spacetime, q_form, standard_skew

SIGMA = standard_skew(Spacetime(4, (1, -1, -1, -1)))
PLANE = SkewForm(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_unit_is_identity():
    a = weyl.unit_u(np.array([1.0, 0.0, 2.0, -1.0]), SIGMA)
    unit = weyl.unit_u(np.zeros(4), SIGMA)
    assert weyl.mul(unit, a) == a
    assert weyl.mul(a, unit) == a


def test_weyl_relation_integer_covectors():
    # u_(1,0) u_(0,1) = e(Q) u_(1,1) with Q = 1 for the plane form.
    ua = weyl.unit_u(np.array([1.0, 0.0]), PLANE)
    ub = weyl.unit_u(np.array([0.0, 1.0]), PLANE)
    prod = weyl.mul(ua, ub)
    key = weyl.covector_key(np.array([1.0, 1.0]))
    assert set(prod.terms) == {key}
    expected = weyl.e(q_form(PLANE, np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert abs(prod.terms[key] - expected) < 1e-15


def test_inverse_generator_cancels_exactly():
    a = np.array([0.3, -1.7, 0.25, 2.0])
    ua = weyl.unit_u(a, SIGMA)
    uinv = weyl.unit_u(-a, SIGMA)
    prod = weyl.mul(ua, uinv)
    # the key arithmetic is exact, so the product lands on the unit key
    assert set(prod.terms) == {weyl.covector_key(np.zeros(4))}
    assert abs(abs(prod.terms[weyl.covector_key(np.zeros(4))]) - 1.0) < 1e-15


def test_associativity_on_random_words():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ua, ub, ug = (
            weyl.unit_u(rng.uniform(-2, 2, 4), SIGMA) for _ in range(3)
        )
        left = weyl.mul(weyl.mul(ua, ub), ug)
        right = weyl.mul(ua, weyl.mul(ub, ug))
        assert left.isclose(right, tol=1e-13)


def test_involution_antihomomorphism():
    rng = np.random.default_rng(3)
    a = weyl.unit_u(rng.uniform(-1, 1, 4), SIGMA).scaled(0.7 + 0.2j)
    b = weyl.unit_u(rng.uniform(-1, 1, 4), SIGMA).scaled(-0.1 + 1.1j)
    s = a + b
    t = weyl.unit_u(rng.uniform(-1, 1, 4), SIGMA)
    lhs = weyl.star(weyl.mul(s, t))
    rhs = weyl.mul(weyl.star(t), weyl.star(s))
    assert lhs.isclose(rhs, tol=1e-13)


def test_star_is_involutive():
    a = weyl.unit_u(np.array([0.4, -0.9, 1.0, 0.0]), SIGMA).scaled(1.0 - 2.0j)
    assert weyl.star(weyl.star(a)) == a


def test_zero_form_is_commutative():
    zero = SkewForm(np.zeros((4, 4)))
    rng = np.random.default_rng(4)
    a = weyl.unit_u(rng.uniform(-1, 1, 4), zero)
    b = weyl.unit_u(rng.uniform(-1, 1, 4), zero)
    assert weyl.mul(a, b).isclose(weyl.mul(b, a), tol=1e-15)


def test_key_quantization_roundtrip():
    alpha = np.array([0.3, -1.7, 0.12345, 2.0])
    back = weyl.key_to_covector(weyl.covector_key(alpha))
    assert np.max(np.abs(back - alpha)) <= weyl.KEY_QUANTUM


def test_context_mismatch_raises():
    a = weyl.unit_u(np.zeros(4), SIGMA)
    b = weyl.unit_u(np.zeros(2), PLANE)
    with pytest.raises(ValueError):
        weyl.mul(a, b)
