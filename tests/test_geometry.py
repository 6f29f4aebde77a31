"""Spacetime, Lorentz transforms, skew forms, and the orbit action."""

import numpy as np
import pytest

from moyalorbit.geometry import (
    LorentzTransform,
    SkewForm,
    Spacetime,
    act_on_form,
    draw_word,
    in_stabilizer,
    make_boost,
    make_rotation,
    orbit_invariants,
    parity,
    q_form,
    random_lorentz,
    sample_orbit,
    skewize,
    standard_skew,
    time_reversal,
    to_group,
)

ST4 = Spacetime(4, (1, -1, -1, -1))
ST2 = Spacetime(2, (1, -1))


def test_spacetime_defaults_and_eta():
    assert ST4.dim == 4
    np.testing.assert_array_equal(ST4.eta, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_spacetime_rejects_odd_dimension():
    with pytest.raises(ValueError, match="dim must be even"):
        Spacetime(3, (1, -1, -1))


def test_lorentz_constructor_rejects_non_lorentz():
    with pytest.raises(ValueError):
        LorentzTransform(np.eye(4) * 2.0, ST4)


def test_lorentz_constructor_rejects_nan():
    # a NaN defect compares false with any bound, so the check must be "not <="
    with pytest.raises(ValueError, match="not a Lorentz transform"):
        LorentzTransform(np.full((2, 2), np.nan), ST2)


def test_forms_and_transforms_freeze_a_copy_of_the_callers_matrix():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = np.eye(2)
    stored = SkewForm(m).matrix, LorentzTransform(t, ST2).matrix
    assert m.flags.writeable and t.flags.writeable
    assert not any(a.flags.writeable for a in stored)
    m[0, 1] = t[0, 0] = 2.0
    np.testing.assert_array_equal(stored[0], [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(stored[1], np.eye(2))


def test_boost_and_rotation_preserve_metric():
    eta = ST4.eta
    for t in (make_boost(ST4, 1, 0.7), make_rotation(ST4, (2, 3), 0.9)):
        assert np.max(np.abs(t.matrix.T @ eta @ t.matrix - eta)) < 1e-12


def test_inverse_and_compose():
    t = make_boost(ST4, 2, 1.1).compose(make_rotation(ST4, (1, 2), 0.4))
    assert np.max(np.abs(t.compose(t.inverse()).matrix - np.eye(4))) < 1e-12


def test_reflections_are_involutions():
    for r in (parity(ST4), time_reversal(ST4)):
        assert np.max(np.abs(r.compose(r).matrix - np.eye(4))) < 1e-15


def test_standard_skew_block_form():
    s = standard_skew(ST4)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 3] = 1.0
    expected[1, 0] = expected[3, 2] = -1.0
    np.testing.assert_array_equal(s.matrix, expected)
    s.assert_invertible()


def test_skew_form_rejects_non_skew():
    with pytest.raises(ValueError):
        SkewForm(np.eye(2))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_skew_form_rejects_non_finite_entries(value):
    # [[0, inf], [-inf, 0]] is exactly skew; NaN is not, but the finiteness message comes first
    with pytest.raises(ValueError, match="skew form entries must be finite"):
        SkewForm(np.array([[0.0, value], [-value, 0.0]]))


def test_skewize_symmetrizes_roundoff():
    m = standard_skew(ST4).matrix + 1e-15 * np.ones((4, 4))
    s = skewize(m)
    np.testing.assert_array_equal(s.matrix, -s.matrix.T)


def test_act_on_form_is_a_left_action():
    rng = np.random.default_rng(7)
    sigma = standard_skew(ST4)
    for _ in range(20):
        t1 = random_lorentz(ST4, rng)
        t2 = random_lorentz(ST4, rng)
        left = act_on_form(t1.compose(t2), sigma)
        right = act_on_form(t1, act_on_form(t2, sigma))
        assert np.max(np.abs(left.matrix - right.matrix)) < 1e-10


def test_q_form_covariance():
    # Q_{T sigma T^t}(a, b) = Q_sigma(T^t a, T^t b)
    rng = np.random.default_rng(11)
    sigma = standard_skew(ST4)
    for _ in range(20):
        t = random_lorentz(ST4, rng)
        a = rng.uniform(-1, 1, 4)
        b = rng.uniform(-1, 1, 4)
        lhs = q_form(act_on_form(t, sigma), a, b)
        rhs = q_form(sigma, t.matrix.T @ a, t.matrix.T @ b)
        assert abs(lhs - rhs) < 1e-10


def test_orbit_invariants_constant_on_orbit():
    sigma = standard_skew(ST4)
    base = orbit_invariants(sigma, ST4)
    for t, s in sample_orbit(ST4, 30, 5, sigma):
        assert np.max(np.abs(orbit_invariants(s, ST4) - base)) < 1e-8


@pytest.mark.parametrize("metric", [(-1, -1, -1, -1), (-1, -1), (1, 1, 1, 1), (1, 1)])
def test_a_metric_of_one_sign_samples_without_boosts(metric):
    # a boost mixes a +1 axis with a -1 axis; drawing one on (-1, ..., -1) raised
    st = Spacetime(len(metric), metric)
    sigma = standard_skew(st)
    base = orbit_invariants(sigma, st)
    for t, s in sample_orbit(st, 20, seed=5, sigma0=sigma):
        assert np.max(np.abs(t.matrix.T @ st.eta @ t.matrix - st.eta)) <= 1e-12
        assert np.max(np.abs(orbit_invariants(s, st) - base)) < 1e-8


def test_sample_orbit_consistency_and_determinism():
    sigma = standard_skew(ST4)
    pairs = sample_orbit(ST4, 10, 3, sigma)
    for t, s in pairs:
        pushed = act_on_form(t, sigma)
        assert np.max(np.abs(pushed.matrix - s.matrix)) < 1e-12
    again = sample_orbit(ST4, 10, 3, sigma)
    for (t1, s1), (t2, s2) in zip(pairs, again):
        np.testing.assert_array_equal(t1.matrix, t2.matrix)
        np.testing.assert_array_equal(s1.matrix, s2.matrix)


def test_stabilizer_membership():
    sigma = standard_skew(ST4)
    boost01 = make_boost(ST4, 1, 0.8)      # mixes axes 0 and 1
    rot23 = make_rotation(ST4, (2, 3), 1.2)
    rot12 = make_rotation(ST4, (1, 2), 0.5)
    assert in_stabilizer(boost01, sigma)
    assert in_stabilizer(rot23, sigma)
    assert not in_stabilizer(rot12, sigma)


def test_stabilizer_closed_under_group_operations():
    sigma = standard_skew(ST4)
    a = make_boost(ST4, 1, 0.8)
    b = make_rotation(ST4, (2, 3), 1.2)
    assert in_stabilizer(a.compose(b), sigma)
    assert in_stabilizer(a.inverse(), sigma)


def test_plane_orbit_is_sign_pair():
    # In d = 2 the orbit of the standard form is {+sigma0, -sigma0}.
    sigma = standard_skew(ST2)
    for t, s in sample_orbit(ST2, 40, 9, sigma):
        gap = min(
            np.max(np.abs(s.matrix - sigma.matrix)),
            np.max(np.abs(s.matrix + sigma.matrix)),
        )
        assert gap < 1e-10


J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize(
    "matrix",
    [1e-4 * np.kron(np.eye(2), J), 1e-7 * J, 1e300 * J, np.kron(np.diag([1.0, 1e-11]), J)],
    ids=["1e-4 (J+J)", "1e-7 J", "1e300 J", "J + 1e-11 J"],
)
def test_invertibility_does_not_depend_on_scale(matrix):
    # |det| of 1e-4 (J+J) is 1e-16 and of 1e-7 J is 1e-14: a det test refuses both
    SkewForm(matrix).assert_invertible()


@pytest.mark.parametrize(
    "matrix", [np.kron(np.diag([1.0, 1e-15]), J), np.zeros((4, 4))], ids=["J + 1e-15 J", "zero"]
)
def test_invertibility_refuses_a_form_singular_at_its_own_scale(matrix):
    with pytest.raises(ValueError, match="not invertible"):
        SkewForm(matrix).assert_invertible()


def per_letter_random_lorentz(st, rng, max_word=8):
    """The sampler as one validated LorentzTransform per letter and one
    projection per word: the reference of the stacked sampler."""
    d = st.dim
    spatial = [i for i, m in enumerate(st.metric) if m == -1]
    planes = [(i, j) for i in range(d) for j in range(i + 1, d) if st.metric[i] == st.metric[j]]
    length = int(rng.integers(1, max_word + 1))
    m = np.eye(d)
    for _ in range(length):
        kind = rng.random()
        if kind < 0.4 and spatial:
            g = make_boost(st, int(rng.choice(spatial)), float(rng.uniform(-1, 1)))
        elif kind < 0.9 and planes:
            plane = planes[int(rng.integers(len(planes)))]
            g = make_rotation(st, plane, float(rng.uniform(0, 2 * np.pi)))
        else:
            g = parity(st) if rng.random() < 0.5 else time_reversal(st)
        m = g.matrix @ m
    x = m.copy()
    for _ in range(3):
        x = 0.5 * (x + st.eta @ np.linalg.inv(x).T @ st.eta)
    return LorentzTransform(x, st)


@pytest.mark.parametrize("seed", [0, 11, 4001])
@pytest.mark.parametrize("st, max_word", [(ST2, 2), (ST4, 8)], ids=["d2", "d4"])
def test_stacked_sampler_equals_the_per_letter_sampler(st, max_word, seed):
    one, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        t = random_lorentz(st, one, max_word=max_word)
        assert np.array_equal(t.matrix, per_letter_random_lorentz(st, ref, max_word).matrix)
    rng = np.random.default_rng(seed)
    words = to_group(st, [draw_word(st, rng, max_word) for _ in range(50)])
    ref = np.random.default_rng(seed)
    for t in words:
        assert np.array_equal(t.matrix, per_letter_random_lorentz(st, ref, max_word).matrix)
    # the generator is left where the per-letter sampler leaves it
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 11, 4001, 20260])
def test_sample_orbit_equals_the_per_letter_sampler(seed):
    # seed 20260 and n = 64: the d=4 benchmark catalogue's forms, whose inputs
    # are checked against recorded ones, so every bit counts
    sigma = standard_skew(ST4)
    rng = np.random.default_rng(seed)
    for t, s in sample_orbit(ST4, 64, seed, sigma):
        ref = per_letter_random_lorentz(ST4, rng)
        assert np.array_equal(t.matrix, ref.matrix)
        assert np.array_equal(s.matrix, act_on_form(ref, sigma).matrix)


def test_to_group_validates_each_word():
    with pytest.raises(ValueError, match="not a Lorentz transform"):
        to_group(ST2, [np.eye(2), np.diag([2.0, 0.5])])
