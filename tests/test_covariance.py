"""Fibered functions over group samples: actions, equivariance, the pointwise theorem."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moyalorbit import covariance as cov
from moyalorbit import suites
from moyalorbit.geometry import (
    LorentzTransform,
    Spacetime,
    make_rotation,
    parity,
    random_lorentz,
    sample_orbit,
    standard_skew,
    time_reversal,
)
from moyalorbit.grids import GridFunction, GridSpec, forward_array, separable_waves, shift
from moyalorbit.oracle import GaussianFactor, SeparableGaussian, random_gaussian

ST2 = Spacetime(2, (1, -1))
ST4 = Spacetime(4, (1, -1, -1, -1))
PLANE = standard_skew(ST2)
SPEC = GridSpec(dim=2, n=64, length=8.0, theta=1.0)
SPEC1D = GridSpec(dim=1, n=64, length=8.0, theta=1.0)


def gaussian_fiber(spec, c=(0.0, 0.0), w=(1.2, 1.3)):
    return SeparableGaussian(
        (GaussianFactor(c[0], w[0]), GaussianFactor(c[1], w[1]))
    ).sample(spec)


def line_gaussian(sample, spec1d=SPEC1D, c=0.0, w=1.0):
    return cov.FiberedFunction.from_callable(
        sample, spec1d, lambda t, r: np.exp(-np.pi * (r - c) ** 2 / w**2)
    )


def small_sample(seed=0, size=3, spacetime=ST2):
    rng = np.random.default_rng(seed)
    return tuple(random_lorentz(spacetime, rng, max_word=2) for _ in range(size))


def test_fibered_function_rejects_wrong_shape_and_non_finite_values():
    sample = small_sample(size=2)
    with pytest.raises(ValueError, match="shape"):
        cov.FiberedFunction(sample, SPEC, np.zeros((3, 64, 64)))
    with pytest.raises(ValueError, match="shape"):
        cov.FiberedFunction(sample, SPEC1D, np.zeros((2, 64, 64)))
    bad = np.zeros((2, 64))
    bad[1, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        cov.FiberedFunction(sample, SPEC1D, bad)


def test_fibered_function_does_not_freeze_caller_array():
    values = np.zeros((2, 64))
    f = cov.FiberedFunction(small_sample(size=2), SPEC1D, values)
    values[0, 0] = 1.0  # the caller's array stays writable
    assert f.values[0, 0] == 0.0
    assert not f.values.flags.writeable


def test_phi_alpha_rejects_a_two_dimensional_psi():
    sample = small_sample(size=2)
    psi = cov.FiberedFunction(sample, SPEC, np.zeros((2, 64, 64)))
    with pytest.raises(ValueError, match="one-dimensional"):
        cov.phi_alpha(np.array([1.0, 0.0]), psi, SPEC)


def test_tau_and_rho_match_per_fiber_shift_bit_for_bit():
    rng = np.random.default_rng(7)
    sample = small_sample(seed=7, size=4)
    vals = rng.normal(size=(4, 64, 64)) + 1j * rng.normal(size=(4, 64, 64))
    f = cov.FiberedFunction(sample, SPEC, vals)
    x, alpha = np.array([0.3, -0.45]), np.array([0.8, 0.35])
    for t, fib, ref in zip(sample, cov.tau_act(x, f).values, vals):
        assert np.array_equal(fib, shift(GridFunction(SPEC, ref), t.matrix @ x).values)
    psi = cov.FiberedFunction(sample, SPEC1D, rng.normal(size=(4, 64)))
    rows = cov.rho_act(alpha, x, psi).values
    for t, row, ref in zip(sample, rows, psi.values):
        single = shift(GridFunction(SPEC1D, ref), alpha @ (t.matrix @ x))
        assert np.array_equal(row, single.values)


def test_tau_act_shifts_each_fiber():
    sample = small_sample()
    f = cov.FiberedFunction(sample, SPEC, np.stack([gaussian_fiber(SPEC).values] * len(sample)))
    x = np.array([0.25, -0.1])
    shifted = cov.tau_act(x, f)
    for t, fib in zip(sample, shifted.values):
        tx = t.matrix @ x
        expected = gaussian_fiber(SPEC, c=(-tx[0], -tx[1]))
        assert np.max(np.abs(fib - expected.values)) < 1e-9


def test_gamma_covariance_identity():
    rng = np.random.default_rng(1)
    for s in (parity(ST2), time_reversal(ST2)):
        t = random_lorentz(ST2, rng, max_word=2)
        sample = (t, t.compose(s))
        fibers = [
            gaussian_fiber(SPEC, c=(float(rng.uniform(-0.2, 0.2)), 0.0)).values
            for _ in range(2)
        ]
        f = cov.FiberedFunction(sample, SPEC, np.stack(fibers))
        x = np.array([0.2, -0.3])
        assert cov.check_gamma_covariance(s, x, f, 2) < 1e-9


def test_phi_alpha_equivariance():
    rng = np.random.default_rng(2)
    t = random_lorentz(ST2, rng, max_word=2)
    sample = (t, t.compose(parity(ST2)))
    psi = line_gaussian(sample, c=0.1, w=1.1)
    alpha = np.array([1.0, 1.0])
    x = np.array([0.15, -0.2])
    assert cov.check_phi_equivariance(alpha, x, psi, SPEC) < 1e-9


def periodic_gaussian(r, c, w, length=8.0):
    # the trigonometric interpolant of a sampled line Gaussian is its
    # length-periodic sum
    return sum(np.exp(-np.pi * (r - c - j * length) ** 2 / w**2) for j in range(-2, 3))


@pytest.mark.parametrize("alpha", [(1.0, -1.0)], ids=["integer"])
def test_phi_alpha_matches_closed_form(alpha):
    sample = small_sample(seed=8, size=2)
    centers, w = (0.1, -0.3), 1.1
    r = SPEC1D.axis()
    psi = cov.FiberedFunction(
        sample, SPEC1D, np.stack([np.exp(-np.pi * (r - c) ** 2 / w**2) for c in centers])
    )
    out = cov.phi_alpha(np.array(alpha), psi, SPEC)
    aq = np.tensordot(np.array(alpha), SPEC.mesh(), axes=(0, 0))
    for fib, c in zip(out.values, centers):
        assert np.max(np.abs(fib - periodic_gaussian(aq, c, w))) <= 1e-10


@pytest.mark.parametrize("alpha", [(1.0,), (1.0, 0.0, 1.0)])
def test_phi_alpha_rejects_an_alpha_that_does_not_fit_the_grid(alpha):
    psi = line_gaussian(small_sample(size=2))
    with pytest.raises(ValueError, match="alpha"):
        cov.phi_alpha(np.array(alpha), psi, SPEC)


def phi_alpha_reference(alpha, psi, grid, full_band=False):
    # Phi^alpha as one N x N^d table e(alpha(q) p) contracted with every fiber;
    # psi's unpaired -N/2 coefficient is dropped, as phi_alpha drops it, unless full_band
    spec1d = psi.spec
    coeffs = forward_array(psi.values, spec1d) * spec1d.dx
    if not full_band:
        coeffs[:, 0] = 0
    waves = separable_waves(np.outer(spec1d.dual_axis(), alpha), grid.axis())
    return np.tensordot(coeffs, waves, axes=(1, 0)) * spec1d.dp


@pytest.mark.parametrize(
    "alpha",
    [(0.5, 0.375), (0.5, -0.375), (2.0, 1.0), (1.0, -2.0), (np.nan, 1.0)],
    ids=["fractional", "fractional-negative", "entry-2", "entry-minus-2", "nan"],
)
def test_phi_alpha_refuses_a_covector_outside_the_torus_model(alpha):
    # alpha(q) of a grid node is a line node only for integer alpha, and an
    # entry of magnitude 2 sends psi's band past the grid's, where it aliases
    psi = line_gaussian(small_sample(size=2))
    with pytest.raises(ValueError, match=r"entries in \{-1, 0, 1\}"):
        cov.phi_alpha(np.array(alpha), psi, SPEC)


@pytest.mark.parametrize("line", [{"n": 16}, {"length": 6.0}], ids=["n", "length"])
def test_phi_alpha_refuses_a_line_on_another_grid(line):
    # a 16-point line on the 64-grid, or a 6-long line in the 8-box: the
    # grid's nodes are no longer line nodes
    spec1d = GridSpec(**{"dim": 1, "n": 64, "length": 8.0, **line})
    psi = cov.FiberedFunction(small_sample(size=2), spec1d, np.ones((2, spec1d.n)))
    with pytest.raises(ValueError, match="same n and length"):
        cov.phi_alpha(np.array([1.0, -1.0]), psi, SPEC)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("alpha", [(1, 0), (0, 1), (1, 1), (1, -1), (-1, -1)])
def test_phi_alpha_matches_the_full_wave_table(alpha, n):
    # the suite's four covectors and an all-negative one on random full-band
    # fibers: the gather reads the same sum at the grid's nodes
    spec = GridSpec(dim=2, n=n, length=8.0, theta=1.0)
    spec1d = GridSpec(dim=1, n=n, length=8.0, theta=1.0)
    rng = np.random.default_rng(n)
    sample = small_sample(seed=10, size=3)
    psi = cov.FiberedFunction(
        sample, spec1d, rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    )
    alpha = np.array(alpha, dtype=float)
    ref = phi_alpha_reference(alpha, psi, spec)
    out = cov.phi_alpha(alpha, psi, spec).values
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def every_covector(dim, nonzero=False):
    alphas = (np.array(a, dtype=float) for a in itertools.product((-1, 0, 1), repeat=dim))
    return [a for a in alphas if not nonzero or a.any()]


@pytest.mark.parametrize(
    "dim, n, length",
    [(2, 8, 6.0), (2, 16, 8.0), (2, 64, 8.0), (2, 64, 16.0), (4, 8, 8.0)],
)
def test_phi_alpha_matches_the_full_wave_table_for_every_covector(dim, n, length):
    spec = GridSpec(dim=dim, n=n, length=length)
    spec1d = GridSpec(dim=1, n=n, length=length)
    rng = np.random.default_rng(n + dim)
    values = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    psi = cov.FiberedFunction(small_sample(seed=10, size=2), spec1d, values)
    for alpha in every_covector(dim):
        ref = phi_alpha_reference(alpha, psi, spec)
        out = cov.phi_alpha(alpha, psi, spec).values
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref)), alpha


def full_band_line(sample, spec1d, seed):
    """Complex noise on every line node, one row per transform of sample."""
    rng = np.random.default_rng(seed)
    shape = (len(sample), spec1d.n)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return cov.FiberedFunction(sample, spec1d, values)


@pytest.mark.parametrize(
    "dim, n, length",
    [(2, n, length) for n in (8, 16, 32, 64) for length in (6.0, 8.0)] + [(4, 8, 8.0)],
)
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    x=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
)
def test_phi_alpha_is_equivariant_on_full_band_noise(dim, n, length, seed, x):
    # every nonzero covector of the torus model, on noise that fills the band
    # (the -N/2 mode included, which phi_alpha drops)
    spec = GridSpec(dim=dim, n=n, length=length)
    sample = small_sample(seed, size=2, spacetime=ST4 if dim == 4 else ST2)
    psi = full_band_line(sample, GridSpec(dim=1, n=n, length=length), seed)
    bound = 1e-13 * np.max(np.abs(psi.values))
    x = np.array(x[:dim])
    for alpha in every_covector(dim, nonzero=True):
        assert cov.check_phi_equivariance(alpha, x, psi, spec) <= bound, alpha


def test_phi_alpha_past_the_torus_model_fails_equivariance(monkeypatch):
    # negative control: the dense table at alpha = (2, 1) puts frequencies 2p
    # past the grid's band, so the shift ramps see aliases; this is why
    # phi_alpha refuses that alpha
    spec1d = GridSpec(dim=1, n=16, length=8.0)
    psi = full_band_line(small_sample(size=2), spec1d, 3)
    monkeypatch.setattr(
        cov,
        "phi_alpha",
        lambda a, f, grid: cov.FiberedFunction(f.sample, grid, phi_alpha_reference(a, f, grid)),
    )
    defect = cov.check_phi_equivariance(
        np.array([2.0, 1.0]), np.array([0.15, -0.2]), psi, GridSpec(dim=2, n=16, length=8.0)
    )
    assert defect > 0.1 * np.max(np.abs(psi.values))


@pytest.mark.parametrize(
    "grid", [{"n": 8}, {"n": 16}, {"n": 32}, {"length": 6.0}, {"length": 16.0}]
)
def test_equivariance_suite_passes_on_valid_grids(grid):
    # with psi's -N/2 mode kept, phi_equivariance read 0.21, 1.8e-2 and 1.2e-5
    # at n 8, 16 and 32, and 1.2e-8 and 6.0e-6 at length 6 and 16 (bound 1e-9)
    report = suites.suite_equivariance(suites.RunConfig.from_dict({"grid": grid}))
    assert report["pass"] is True


def test_full_band_phi_alpha_fails_equivariance(monkeypatch):
    # negative control: the -N/2 mode has no +N/2 partner, so alpha = (1, -1)
    # sends it off the grid, where the shift ramp takes the other sign
    spec = GridSpec(dim=2, n=16, length=8.0, theta=1.0)
    spec1d = GridSpec(dim=1, n=16, length=8.0, theta=1.0)
    psi = cov.FiberedFunction.from_callable(
        small_sample(seed=2, size=2), spec1d, lambda t, r: np.exp(-np.pi * (r - 0.1) ** 2 / 1.1**2)
    )
    alpha, x = np.array([1.0, -1.0]), np.array([0.15, -0.2])
    assert cov.check_phi_equivariance(alpha, x, psi, spec) <= 1e-9
    monkeypatch.setattr(
        cov,
        "phi_alpha",
        lambda a, f, grid: cov.FiberedFunction(
            f.sample, grid, phi_alpha_reference(a, f, grid, full_band=True)
        ),
    )
    assert cov.check_phi_equivariance(alpha, x, psi, spec) > 1e-3


def test_rho_act_matches_analytic_shift():
    sample = small_sample(seed=9, size=3)
    c, w = 0.1, 1.1
    psi = line_gaussian(sample, c=c, w=w)
    alpha, x = np.array([1.0, 0.5]), np.array([0.3, -0.2])
    out = cov.rho_act(alpha, x, psi)
    r = SPEC1D.axis()
    for t, row in zip(sample, out.values):
        a = alpha @ (t.matrix @ x)
        assert np.max(np.abs(row - periodic_gaussian(r + a, c, w))) <= 1e-10


def test_pointwise_theorem_integer_covector():
    sample = small_sample(seed=3, size=3)
    psi1 = line_gaussian(sample, c=0.0, w=1.2)
    psi2 = line_gaussian(sample, c=0.2, w=1.0)
    alpha = np.array([1.0, 0.0])
    defect = cov.check_pointwise_theorem(alpha, psi1, psi2, PLANE, SPEC)
    assert defect < 1e-6


def test_pointwise_theorem_negative_control():
    # different covectors on the two sides: genuinely deformed product
    sample = small_sample(seed=4, size=2)
    psi1 = line_gaussian(sample, c=0.0, w=1.2)
    psi2 = line_gaussian(sample, c=0.2, w=1.0)
    defect = cov.check_pointwise_theorem(
        np.array([1.0, 0.0]), psi1, psi2, PLANE, SPEC, alpha2=np.array([0.0, 1.0])
    )
    assert defect > 1e-2


@pytest.mark.parametrize("lines", ["gaussian", "noise"])
def test_pointwise_theorem_at_d4(lines):
    # on sigma0 and three orbit forms T sigma0 T^t; with one covector on both
    # sides sigma(alpha p, alpha p') = 0, so the product is the pointwise one,
    # while e_2 on psi2's side deforms it
    spec = GridSpec(dim=4, n=8, length=8.0)
    spec1d = GridSpec(dim=1, n=8, length=8.0)
    sigma0 = standard_skew(ST4)
    orbit = sample_orbit(ST4, 3, 7, sigma0)
    sample = (LorentzTransform(np.eye(4), ST4),) + tuple(t for t, _ in orbit)
    if lines == "gaussian":
        psi1 = line_gaussian(sample, spec1d, c=0.1, w=1.3)
        psi2 = line_gaussian(sample, spec1d, c=-0.2, w=1.0)
    else:
        psi1, psi2 = (full_band_line(sample, spec1d, seed) for seed in (17, 18))
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    for alpha in ((1, 0, 0, 0), (1, -1, 1, 0), (1, 1, 1, 1)):
        alpha = np.array(alpha, dtype=float)
        assert cov.check_pointwise_theorem(alpha, psi1, psi2, sigma0, spec) <= 1e-12
        assert cov.check_pointwise_theorem(alpha, psi1, psi2, sigma0, spec, alpha2=e2) > 0.1


def test_gamma_act_raises_when_a_draw_lacks_t_s_inverse():
    # the draw (t, t) holds no t P^-1 = t P
    t = small_sample(seed=7, size=1)[0]
    f = cov.FiberedFunction((t, t), SPEC, np.zeros((2, 64, 64)))
    with pytest.raises(KeyError, match="not found"):
        cov.gamma_act(parity(ST2), f, 2)


def test_fibered_function_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="nonempty"):
        cov.FiberedFunction((), SPEC1D, np.zeros((0, 64)))


def per_draw_equivariance(cfg):
    """The equivariance suite's values from one pass per draw, in the suite's RNG order."""
    spec = GridSpec(dim=2, n=cfg.n, length=cfg.length, theta=cfg.theta)
    spec1d = GridSpec(dim=1, n=cfg.n, length=cfg.length, theta=cfg.theta)
    rng = np.random.default_rng(cfg.seed + 1)
    int_alphas = [np.array(a, dtype=float) for a in ((1, 0), (0, 1), (1, 1), (1, -1))]
    worst_phi = 0.0
    for _ in range(suites.DRAWS):
        t1 = random_lorentz(ST2, rng, max_word=2)
        t2 = random_lorentz(ST2, rng, max_word=2)
        c = float(rng.uniform(-0.3, 0.3))
        w = float(rng.uniform(0.9, 1.3))
        psi = cov.FiberedFunction.from_callable(
            (t1, t2), spec1d, lambda t, r: np.exp(-np.pi * (r - c) ** 2 / w**2)
        )
        alpha = int_alphas[int(rng.integers(len(int_alphas)))]
        x = rng.uniform(-0.3, 0.3, 2)
        worst_phi = max(worst_phi, cov.check_phi_equivariance(alpha, x, psi, spec))
    reflections = [parity(ST2), time_reversal(ST2)]
    worst_gamma = 0.0
    for _ in range(suites.DRAWS):
        t = random_lorentz(ST2, rng, max_word=2)
        s = reflections[int(rng.integers(2))]
        fibers = [random_gaussian(rng, 2).sample(spec).values for _ in range(2)]
        f = cov.FiberedFunction((t, t.compose(s)), spec, np.stack(fibers))
        x = rng.uniform(-0.3, 0.3, 2)
        worst_gamma = max(worst_gamma, cov.check_gamma_covariance(s, x, f, 2))
    return worst_phi, worst_gamma


@pytest.mark.parametrize(
    "cfg",
    [pytest.param(suites.RunConfig(seed=seed), id=str(seed)) for seed in (0, 11, 4001)]
    + [
        # at seed 0 on grids whose passes chunk the draws in other sizes
        pytest.param(suites.RunConfig(n=n, length=length), id=f"n{n}-L{length:g}")
        for n, length in ((16, 8.0), (32, 8.0), (64, 6.0), (64, 16.0))
    ],
)
def test_stacked_equivariance_suite_equals_per_draw_passes(cfg):
    report = suites.suite_equivariance(cfg)
    values = tuple(check["value"] for check in report["checks"])
    assert [check["name"] for check in report["checks"]] == ["phi_equivariance", "gamma_covariance"]
    assert values == per_draw_equivariance(cfg)


@pytest.mark.parametrize("s", [parity(ST2), time_reversal(ST2)], ids=["P", "T"])
def test_stacked_gamma_draws_sharing_a_transform_read_as_per_draw_checks(s):
    # two draws with t = P stack to the sample (P, P S, P, P S): each T S^-1
    # must come from T's own draw, not from the first match in the whole sample
    p = parity(ST2)
    draw = (p, p.compose(s))
    rng = np.random.default_rng(9)
    fibers = np.stack(
        [gaussian_fiber(SPEC, c=tuple(rng.uniform(-0.2, 0.2, 2))).values for _ in range(4)]
    )
    xs = np.array([[0.2, -0.1], [-0.25, 0.15]])
    draws = [cov.FiberedFunction(draw, SPEC, fibers[2 * i : 2 * i + 2]) for i in range(2)]
    stacked = cov.FiberedFunction(draw * 2, SPEC, fibers)
    x_per_fiber = np.repeat(xs, 2, axis=0)
    assert np.array_equal(
        cov.gamma_act(s, stacked, 2).values,
        np.concatenate([cov.gamma_act(s, f, 2).values for f in draws]),
    )
    per_draw = max(cov.check_gamma_covariance(s, x, f, 2) for x, f in zip(xs, draws))
    assert cov.check_gamma_covariance(s, x_per_fiber, stacked, 2) == per_draw
    # the lookup over the whole stacked sample pairs the second draw with the first
    assert cov.check_gamma_covariance(s, x_per_fiber, stacked, 4) > 1e-3


def test_equivariance_suite_peak_memory_is_chunked():
    # passes of 8 fibers peak at about 3.1 MiB, of 32 fibers at 11.4 MiB, and
    # all 200 fibers in one stacked pass at about 106 MiB; gamma fibers held
    # through each check read about 3.6 MiB
    cfg = suites.RunConfig()
    suites.suite_equivariance(cfg)  # first-call set-up stays out of the trace
    tracemalloc.start()
    try:
        suites.suite_equivariance(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


def test_gamma_covariance_fails_with_s_in_place_of_its_inverse_at_d4(monkeypatch):
    # every finite-order element of O(1,1) is its own inverse, so no plane draw
    # can tell S from S^-1; at d = 4 the 90-degree rotation R of the (x1, x2)
    # plane has order 4, and the draw {t, tR, tR^2, tR^3} holds both t R^-1 and
    # t R.  At seed 3 the defect reads 5.7e-17, and 0.47 with S for S^-1
    spec = GridSpec(dim=4, n=8, length=8.0)
    r = LorentzTransform(np.round(make_rotation(ST4, (1, 2), np.pi / 2).matrix), ST4)
    rng = np.random.default_rng(3)
    draw = [random_lorentz(ST4, rng, max_word=2)]
    for _ in range(3):
        draw.append(draw[-1].compose(r))
    fibers = [
        SeparableGaussian(
            tuple(
                GaussianFactor(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(1.1, 1.5)))
                for _ in range(4)
            )
        ).sample(spec).values
        for _ in draw
    ]
    f = cov.FiberedFunction(tuple(draw), spec, fibers)
    x = rng.uniform(-0.3, 0.3, 4)
    assert cov.check_gamma_covariance(r, x, f, 4) <= suites.TOLERANCES["gamma_covariance"][1]
    monkeypatch.setattr(LorentzTransform, "inverse", lambda self: self)
    assert cov.check_gamma_covariance(r, x, f, 4) > 0.1


def two_pass_gamma_covariance(s, x, f, draw_size):
    """tau_x gamma_S F against gamma_S tau_Sx F, each side with its own
    transforms and lookups: the reference of the one-spectrum check."""
    xs = np.broadcast_to(np.asarray(x, dtype=float), (len(f.sample), f.spec.dim))
    lhs = cov.tau_act(xs, cov.gamma_act(s, f, draw_size))
    rhs = cov.gamma_act(s, cov.tau_act(np.stack([s.matrix @ xi for xi in xs]), f), draw_size)
    return lhs.max_abs_diff(rhs)


@pytest.mark.parametrize("seed", [0, 11, 4001])
def test_one_spectrum_gamma_check_equals_the_two_pass_check(monkeypatch, seed):
    # every stacked gamma pass of the suite, checked both ways
    passes = []
    check = cov.check_gamma_covariance

    def recording(s, x, f, draw_size):
        value = check(s, x, f, draw_size)
        passes.append((value, two_pass_gamma_covariance(s, x, f, draw_size)))
        return value

    monkeypatch.setattr(cov, "check_gamma_covariance", recording)
    suites.suite_equivariance(suites.RunConfig(seed=seed))
    assert len(passes) >= 2
    assert all(value == reference for value, reference in passes)


def test_one_spectrum_gamma_check_equals_the_two_pass_check_at_d4():
    # the d=4 draw {t, tR, tR^2, tR^3}, where S and S^-1 differ
    spec = GridSpec(dim=4, n=8, length=8.0)
    r = LorentzTransform(np.round(make_rotation(ST4, (1, 2), np.pi / 2).matrix), ST4)
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(2):
        draws.append(random_lorentz(ST4, rng, max_word=2))
        for _ in range(3):
            draws.append(draws[-1].compose(r))
    envelope = np.exp(-np.pi * np.sum(spec.mesh() ** 2, axis=0) / 4)
    fibers = rng.normal(size=(8,) + (8,) * 4) * envelope
    f = cov.FiberedFunction(tuple(draws), spec, fibers)
    xs = np.repeat(rng.uniform(-0.3, 0.3, (2, 4)), 4, axis=0)
    value = cov.check_gamma_covariance(r, xs, f, 4)
    assert value == two_pass_gamma_covariance(r, xs, f, 4)
    assert value <= suites.TOLERANCES["gamma_covariance"][1]


def test_equivariance_suite_projects_its_words_in_one_stack(monkeypatch):
    # 3 * DRAWS words, PROJECTION_SWEEPS inversions of the whole stack
    shapes = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(np.shape(a)) or inv(a))
    suites.suite_equivariance(suites.RunConfig())
    assert shapes == [(3 * suites.DRAWS, 2, 2)] * 3
