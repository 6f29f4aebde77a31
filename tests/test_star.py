"""Deformed product on grids: oracle agreement, algebraic identities, limits."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from moyalorbit.geometry import (
    LorentzTransform,
    SkewForm,
    Spacetime,
    act_on_form,
    parity,
    q_form,
    sample_orbit,
    standard_skew,
    time_reversal,
)
from moyalorbit import star, weyl
from moyalorbit.grids import (
    GridFunction,
    GridSpec,
    fft_forward,
    forward_array,
    inverse_array,
    separable_waves,
)
from moyalorbit.oracle import (
    GaussianFactor,
    SeparableGaussian,
    oracle_defect,
    random_gaussian,
    star_oracle_point,
)
from moyalorbit.star import (
    PHASE_CUT,
    commutator_constant,
    interior_mask,
    involution,
    poisson_bracket,
    relative_l2,
    semiclassical_defects,
    semiclassical_sweep,
    star_commutator,
    star_product,
    weyl_action,
)

PLANE = SkewForm(np.array([[0.0, 1.0], [-1.0, 0.0]]))

F_GAUSS = SeparableGaussian((GaussianFactor(0.2, 1.3, 0.0), GaussianFactor(-0.1, 1.2, 0.1)))
G_GAUSS = SeparableGaussian((GaussianFactor(-0.3, 1.4, 0.05), GaussianFactor(0.1, 1.5, 0.0)))

# Frozen reference for (F_GAUSS x G_GAUSS)(0.5, -0.25) at theta = 1 on the
# plane form, computed by adaptive quadrature of the reduced single integral
# (two independent 1-D quad calls, tolerance 1e-11).
ORACLE_POINT = 0.22048589984378358 + 0.009262104399166908j


def reference_star_product(f, g, sigma):
    """Per-node kernel with one exp per ramp and plane-wave entry.

    out(q) = sum_p dp^d ghat(p) f(q - theta sigma p) e(q.p), accumulated in
    batches of 128 dual nodes; the test reference for the fast kernels.
    """
    spec = f.spec
    ghat = fft_forward(g).values.reshape(-1)
    fhat = forward_array(f.values, spec)
    nodes = spec.dual_nodes()
    k = spec.dual_mesh()
    x = spec.mesh()
    out = np.zeros((spec.n,) * spec.dim, dtype=complex)
    for start in range(0, nodes.shape[0], 128):
        p = nodes[start : start + 128]
        shifts = -spec.theta * (sigma.matrix @ p.T).T
        ramp = np.exp(2j * np.pi * np.tensordot(shifts, k, axes=(1, 0)))
        shifted = inverse_array(fhat[None, ...] * ramp, spec)
        waves = np.exp(2j * np.pi * np.tensordot(p, x, axes=(1, 0)))
        c = ghat[start : start + 128] * spec.dp**spec.dim
        out += np.einsum("c,c...->...", c, shifted * waves)
    return out


def quadrature_star_point(f, g, s, theta, q):
    """(f x g)(q) for d = 2 separable Gaussians and sigma = s J, by quadrature.

    The single-integral formula factorizes into two 1-D integrals,

        [int f2(q2 + th s p1) g1hat(p1) e(q1 p1) dp1]
        * [int f1(q1 - th s p2) g2hat(p2) e(q2 p2) dp2],

    each integrated adaptively on the real line (tolerance 1e-11).
    """
    q1, q2 = q
    f1, f2 = f.factors
    g1, g2 = g.factors

    def complex_quad(fn):
        kw = dict(epsabs=1e-11, epsrel=1e-11, limit=200)
        re = quad(lambda t: fn(t).real, -np.inf, np.inf, **kw)[0]
        im = quad(lambda t: fn(t).imag, -np.inf, np.inf, **kw)[0]
        return complex(re, im)

    def int1(p1):
        return f2(q2 + theta * s * p1) * g1.hat(p1) * np.exp(2j * np.pi * q1 * p1)

    def int2(p2):
        return f1(q1 - theta * s * p2) * g2.hat(p2) * np.exp(2j * np.pi * q2 * p2)

    return complex_quad(int1) * complex_quad(int2)


def random_grid(spec, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.n,) * spec.dim
    return GridFunction(spec, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def spec64(theta=1.0):
    return GridSpec(dim=2, n=64, length=8.0, theta=theta)


@pytest.mark.parametrize(
    "center, width, freq",
    [
        (0.1, -1.2, 0.0),  # a negative width flips the sign of prod(w_g)
        (0.1, 0.0, 0.0),  # a zero width divides by zero
        (0.1, np.nan, 0.0),
        (0.1, np.inf, 0.0),
        (np.nan, 1.2, 0.0),
        (0.1, 1.2, -np.inf),
        (0.1, 1e-300, 0.0),  # width**2 underflows to 0
        (0.1, 1e200, 0.0),  # width**2 overflows
    ],
)
def test_gaussian_factor_rejects_bad_parameters(center, width, freq):
    with pytest.raises(ValueError):
        GaussianFactor(center, width, freq)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 64), (3, 16), (4, 8)])
def test_separable_sample_equals_the_full_mesh_evaluation(d, n):
    # N^d stays under numpy's 256 KiB bar for reusing a temporary; above it
    # __call__'s out * fac(x) runs in fac(x)'s buffer with the operands
    # swapped, which rounds differently
    spec = GridSpec(dim=d, n=n, length=7.0)
    rng = np.random.default_rng(d)
    for _ in range(3):
        g = random_gaussian(rng, d)
        assert np.array_equal(g.sample(spec).values, GridFunction(spec, g(*spec.mesh())).values)


@pytest.mark.parametrize("d, n", [(2, 128), (3, 32)])
def test_separable_sample_of_a_large_grid_is_within_one_rounding(d, n):
    spec = GridSpec(dim=d, n=n, length=7.0)
    g = random_gaussian(np.random.default_rng(d), d)
    ref = g(*spec.mesh())
    assert max_rel(g.sample(spec).values, ref) <= 2 * np.finfo(float).eps
    with pytest.raises(ValueError, match="factors"):
        g.sample(GridSpec(dim=d + 1, n=8))


def test_frozen_oracle_point_quadrature():
    val = star_oracle_point(F_GAUSS, G_GAUSS, PLANE, 1.0, (0.5, -0.25))
    assert abs(val - ORACLE_POINT) < 1e-10


@pytest.mark.parametrize(
    "s, theta, q",
    [
        (1.0, 0.5, (0.5, -0.25)),
        (1.0, 2.0, (-1.0, -0.5)),
        (-1.0, 1.0, (-0.7, 0.4)),
        (-1.0, 0.5, (1.2, 0.1)),
        (2.0, 2.0, (0.3, 0.9)),
        (2.0, 1.0, (0.0, -1.1)),
    ],
)
def test_closed_form_matches_quadrature(s, theta, q):
    val = star_oracle_point(F_GAUSS, G_GAUSS, SkewForm(s * PLANE.matrix), theta, q)
    ref = quadrature_star_point(F_GAUSS, G_GAUSS, s, theta, q)
    assert abs(val - ref) <= 1e-10 * abs(ref)


def test_fft_product_matches_frozen_point():
    spec = spec64()
    result = star_product(F_GAUSS.sample(spec), G_GAUSS.sample(spec), PLANE)
    axis = spec.axis()
    i = int(np.argmin(np.abs(axis - 0.5)))
    j = int(np.argmin(np.abs(axis + 0.25)))
    assert abs(result.values[i, j] - ORACLE_POINT) < 1e-9


def test_fft_product_matches_oracle_subgrid():
    rng = np.random.default_rng(12)
    spec = spec64()
    for _ in range(3):
        f = random_gaussian(rng, 2)
        g = random_gaussian(rng, 2)
        result = star_product(f.sample(spec), g.sample(spec), PLANE)
        assert oracle_defect(result, f, g, PLANE) < 1e-6


def test_d3_product_matches_closed_form():
    # the continuum check off d = 2: a dense random skew form at d = 3
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    sigma = SkewForm(m - m.T)
    f = random_gaussian(rng, 3)
    g = random_gaussian(rng, 3)
    spec = GridSpec(dim=3, n=32, length=8.0, theta=1.0)
    result = star_product(f.sample(spec), g.sample(spec), sigma)
    assert oracle_defect(result, f, g, sigma) < 1e-6


@pytest.mark.parametrize("s1, s2", [(1.0, 1.0), (2.0, -0.5)])
def test_closed_form_factorizes_d4(s1, s2):
    # sigma = s1 J (+) s2 J: the d = 4 closed form is the product of two d = 2 ones
    rng = np.random.default_rng(21)
    f = random_gaussian(rng, 4)
    g = random_gaussian(rng, 4)
    q = rng.uniform(-2.0, 2.0, size=(64, 4))
    sigma = SkewForm(np.kron(np.diag([s1, s2]), PLANE.matrix))
    out = star_oracle_point(f, g, sigma, 0.7, q)

    def plane(h, axes):
        return SeparableGaussian(h.factors[axes])

    ref = 1.0
    for axes, s in ((slice(0, 2), s1), (slice(2, 4), s2)):
        sigma_2 = SkewForm(s * PLANE.matrix)
        ref = ref * star_oracle_point(plane(f, axes), plane(g, axes), sigma_2, 0.7, q[:, axes])
    assert max_rel(out, ref) <= 1e-13


def test_zero_form_reduces_to_pointwise_product():
    spec = spec64()
    f = F_GAUSS.sample(spec)
    g = G_GAUSS.sample(spec)
    result = star_product(f, g, SkewForm(np.zeros((2, 2))))
    assert relative_l2(result, f * g) < 1e-10


def test_involution_is_antihomomorphism():
    spec = spec64()
    f = F_GAUSS.sample(spec)
    g = G_GAUSS.sample(spec)
    lhs = involution(star_product(f, g, PLANE))
    rhs = star_product(involution(g), involution(f), PLANE)
    assert relative_l2(lhs, rhs) < 1e-11


def test_associativity():
    spec = spec64()
    rng = np.random.default_rng(5)
    f = random_gaussian(rng, 2).sample(spec)
    g = random_gaussian(rng, 2).sample(spec)
    h = random_gaussian(rng, 2).sample(spec)
    lhs = star_product(star_product(f, g, PLANE), h, PLANE)
    rhs = star_product(f, star_product(g, h, PLANE), PLANE)
    assert relative_l2(lhs, rhs) < 1e-6


def test_weyl_action_composition_phase():
    # W_a W_b = e(theta Q_ab) W_{a+b} on grid functions
    spec = spec64()
    g = G_GAUSS.sample(spec)
    alpha = np.array([0.5, 0.25])
    beta = np.array([-0.25, 0.75])
    lhs = weyl_action(alpha, weyl_action(beta, g, PLANE), PLANE)
    phase = np.exp(2j * np.pi * spec.theta * q_form(PLANE, alpha, beta))
    rhs = phase * weyl_action(alpha + beta, g, PLANE)
    assert relative_l2(lhs, rhs) < 1e-11


def test_inner_product_gaussian_closed_form():
    # <f, f>_B = int |f|^2; each factor integrates to w / sqrt(2)
    spec = spec64()
    f = SeparableGaussian((GaussianFactor(0.0, 1.2), GaussianFactor(0.3, 1.4))).sample(spec)
    expected = (1.2 / np.sqrt(2.0)) * (1.4 / np.sqrt(2.0))
    val = np.vdot(f.values, f.values) * spec.dx**spec.dim
    assert abs(val - expected) < 1e-9
    assert abs(val.imag) < 1e-12


def test_poisson_bracket_of_gaussians():
    # {f, g} = sigma_jk d_j f d_k g; for the plane form fx gy - fy gx
    spec = spec64()
    x = spec.mesh()
    f = GridFunction(spec, np.exp(-np.pi * (x[0] ** 2 + x[1] ** 2)))
    g = GridFunction(spec, np.exp(-np.pi * ((x[0] - 0.3) ** 2 + x[1] ** 2)))
    pb = poisson_bracket(f, g, PLANE)
    fx = -2 * np.pi * x[0] * f.values
    fy = -2 * np.pi * x[1] * f.values
    gx = -2 * np.pi * (x[0] - 0.3) * g.values
    gy = -2 * np.pi * x[1] * g.values
    expected = fx * gy - fy * gx
    assert np.max(np.abs(pb.values - expected)) < 1e-8


def test_commutator_constant_on_plateau_window():
    from scipy.special import erf

    theta, a, tau = 0.5, 2.8, 0.5
    spec = GridSpec(dim=2, n=64, length=8.0, theta=theta)
    x = spec.mesh()

    def plateau(t):
        return 0.5 * (erf(np.sqrt(np.pi) * (t + a) / tau) - erf(np.sqrt(np.pi) * (t - a) / tau))

    w = plateau(x[0]) * plateau(x[1])
    al = np.array([0.7, 0.2])
    be = np.array([-0.3, 0.6])
    f = GridFunction(spec, (al[0] * x[0] + al[1] * x[1]) * w)
    g = GridFunction(spec, (be[0] * x[0] + be[1] * x[1]) * w)
    comm = star_commutator(f, g, PLANE)
    ref = commutator_constant(theta, PLANE, al, be) * w**2
    mask = interior_mask(spec, 1.0)
    defect = np.linalg.norm(comm.values[mask] - ref[mask]) / np.linalg.norm(ref[mask])
    assert defect < 1e-3


def test_star_compatibility_with_inner_product():
    # <f x g, h> = <g, f* x h> for the B-pairing
    spec = spec64()
    rng = np.random.default_rng(8)
    f = random_gaussian(rng, 2).sample(spec)
    g = random_gaussian(rng, 2).sample(spec)
    h = random_gaussian(rng, 2).sample(spec)
    dv = spec.dx**spec.dim
    lhs = np.vdot(star_product(f, g, PLANE).values, h.values) * dv
    rhs = np.vdot(g.values, star_product(involution(f), h, PLANE).values) * dv
    assert abs(lhs - rhs) < 1e-8


def test_semiclassical_defects_shrink():
    spec = spec64()
    f = F_GAUSS.sample(spec)
    g = G_GAUSS.sample(spec)
    d1a, d2a = semiclassical_defects(f, g, PLANE, 0.5)
    d1b, d2b = semiclassical_defects(f, g, PLANE, 0.25)
    assert d1b < d1a
    assert d2b < d2a


def test_sweep_rejects_bad_theta_lists():
    spec = spec64()
    f = F_GAUSS.sample(spec)
    g = G_GAUSS.sample(spec)
    with pytest.raises(ValueError):
        semiclassical_sweep(f, g, PLANE, [0.5, 1.0])
    with pytest.raises(ValueError):
        semiclassical_sweep(f, g, PLANE, [1.0, -0.5])
    for thetas in ([1.0], []):  # one theta leaves no slope to fit
        with pytest.raises(ValueError, match="at least 2"):
            semiclassical_sweep(f, g, PLANE, thetas)


def test_sweep_refuses_zero_defects():
    # g = 0 makes f *_th g, g *_th f and {f, g} zero, so D1 = D2 = 0 and log 0 has no slope
    spec = spec64()
    f = F_GAUSS.sample(spec)
    g = GridFunction(spec, np.zeros((spec.n,) * spec.dim, dtype=complex))
    with pytest.raises(ValueError, match="a log-log slope needs positive defects"):
        semiclassical_sweep(f, g, PLANE, [1.0, 0.5])


def test_star_product_refuses_phases_past_the_cut():
    # on n = 8, L = 8 the dual nodes reach N/2L = 0.5: the bound is theta sum|J| / 4 = theta / 2
    spec = GridSpec(dim=2, n=8, length=8.0, theta=2 * PHASE_CUT)
    f = F_GAUSS.sample(spec)
    star_product(f, f, PLANE)  # exactly at the cut
    over = GridFunction(spec.with_theta(np.nextafter(spec.theta, np.inf)), f.values)
    with pytest.raises(ValueError, match="past the cut"):
        star_product(over, over, PLANE)


def test_interior_mask_and_relative_l2():
    spec = GridSpec(dim=2, n=16, length=8.0)
    mask = interior_mask(spec, 1.0)
    x = spec.mesh()
    assert np.all(np.max(np.abs(x), axis=0)[mask] <= 1.0)
    f = GridFunction(spec, np.ones((16, 16), dtype=complex))
    assert relative_l2(f, f) == 0.0


def test_relative_l2_rejects_zero_reference():
    spec = GridSpec(dim=2, n=8, length=8.0)
    zero = GridFunction(spec, np.zeros((8, 8)))
    with pytest.raises(ValueError):
        relative_l2(zero, zero)
    with pytest.raises(ValueError):
        relative_l2(random_grid(spec, 0), zero)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("s", [1.0, -1.0, 0.0])
@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_plane_split_matches_reference_kernel(n, s, theta):
    spec = GridSpec(dim=2, n=n, length=8.0, theta=theta)
    f = F_GAUSS.sample(spec) * random_grid(spec, 1)
    g = G_GAUSS.sample(spec)
    sigma = SkewForm(s * PLANE.matrix)
    out = star_product(f, g, sigma).values
    assert max_rel(out, reference_star_product(f, g, sigma)) <= 1e-13


def test_factored_ramps_match_reference_kernel_d4():
    st4 = Spacetime()
    base = standard_skew(st4)
    dense = sample_orbit(st4, 3, 7, base)[2][1]
    assert np.all(dense.matrix[~np.eye(4, dtype=bool)] != 0.0)
    spec = GridSpec(dim=4, n=8, length=8.0, theta=1.0)
    x = spec.mesh()
    f = GridFunction(spec, np.exp(-np.pi * np.sum((x - 0.2) ** 2, axis=0) / 1.5))
    g = GridFunction(spec, np.exp(-np.pi * np.sum((x + 0.1) ** 2, axis=0) / 1.7 + 0.4j * x[0]))
    for sigma in (base, dense):
        out = star_product(f, g, sigma).values
        assert max_rel(out, reference_star_product(f, g, sigma)) <= 1e-13


def test_odd_dimension_matches_reference_kernel():
    # d = 3, the one odd dimension checked: two E axes and a dense skew form
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 3))
    sigma = SkewForm(m - m.T)
    spec = GridSpec(dim=3, n=8, length=8.0, theta=1.0)
    f = random_grid(spec, 1)
    g = random_grid(spec, 2)
    out = star_product(f, g, sigma).values
    assert max_rel(out, reference_star_product(f, g, sigma)) <= 1e-13


@pytest.mark.parametrize("s1, s2", [(1.0, 1.0), (2.0, -0.5)])
def test_block_diagonal_d4_factorizes(s1, s2):
    # f = f12 (x) f34, g = g12 (x) g34, sigma = s1 J (+) s2 J:
    # f * g = (f12 *_{s1 J} g12) (x) (f34 *_{s2 J} g34) exactly on the lattice
    plane = GridSpec(dim=2, n=8, length=8.0, theta=1.0)
    spec = GridSpec(dim=4, n=8, length=8.0, theta=1.0)
    f12, f34, g12, g34 = (random_grid(plane, seed) for seed in range(4))
    sigma = SkewForm(np.kron(np.diag([s1, s2]), PLANE.matrix))

    def tensor(a, b):
        return GridFunction(spec, np.multiply.outer(a.values, b.values))

    out = star_product(tensor(f12, f34), tensor(g12, g34), sigma).values
    ref = np.multiply.outer(
        star_product(f12, g12, SkewForm(s1 * PLANE.matrix)).values,
        star_product(f34, g34, SkewForm(s2 * PLANE.matrix)).values,
    )
    assert max_rel(out, ref) <= 1e-13


def dense_d4_form():
    """An orbit form T sigma0 T^t at d = 4 with every entry off the diagonal nonzero."""
    st4 = Spacetime()
    return sample_orbit(st4, 3, 7, standard_skew(st4))[2][1]


@pytest.mark.parametrize("d, rows", [(3, 3), (4, 5)])
def test_batches_with_a_short_last_batch_match_reference_kernel(d, rows, monkeypatch):
    # 64 or 512 E-nodes in batches of 3 or 5 rows: a short final batch, off
    # the one-batch (d = 2, 3) and whole-batch (d = 4) paths at the default size
    spec = GridSpec(dim=d, n=8, length=8.0, theta=1.0)
    if d == 3:
        m = np.random.default_rng(11).normal(size=(3, 3))
        sigma = SkewForm(m - m.T)
    else:
        sigma = dense_d4_form()
    assert (spec.n ** (d - 1)) % rows != 0
    monkeypatch.setattr(star, "_BATCH_ENTRIES", rows * spec.size)
    f = random_grid(spec, 1)
    g = random_grid(spec, 2)
    out = star_product(f, g, sigma).values
    assert max_rel(out, reference_star_product(f, g, sigma)) <= 1e-13


def test_d2_batches_with_a_short_last_batch_match_reference_kernel(monkeypatch):
    # 64 p_E rows in batches of 5: twelve full batches and a short one of 4
    spec = spec64()
    rows = 5
    assert spec.n % rows != 0
    monkeypatch.setattr(star, "_BATCH_ENTRIES", rows * spec.size)
    f = F_GAUSS.sample(spec) * random_grid(spec, 1)
    g = G_GAUSS.sample(spec)
    out = star_product(f, g, PLANE).values
    assert max_rel(out, reference_star_product(f, g, PLANE)) <= 1e-13


@pytest.mark.parametrize("d, n", [(2, 16), (4, 8)])
def test_product_leaves_its_inputs_alone_and_repeats_exactly(d, n):
    # the kernel transforms its own buffers in place, never the caller's values
    spec = GridSpec(dim=d, n=n, length=8.0, theta=1.0)
    sigma = PLANE if d == 2 else dense_d4_form()
    f = random_grid(spec, 1)
    g = random_grid(spec, 2)
    before = f.values.copy(), g.values.copy()
    first = star_product(f, g, sigma).values
    assert np.array_equal(f.values, before[0]) and np.array_equal(g.values, before[1])
    assert np.array_equal(star_product(f, g, sigma).values, first)


@pytest.mark.parametrize("d, n", [(2, 64), (4, 8)])
def test_one_product_peaks_under_four_megabytes(d, n):
    # two cache-sized batch buffers, reused: nothing batch-sized per batch
    spec = GridSpec(dim=d, n=n, length=8.0, theta=1.0)
    sigma = PLANE if d == 2 else dense_d4_form()
    f = random_grid(spec, 1)
    g = random_grid(spec, 2)
    tracemalloc.start()
    try:
        star_product(f, g, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def trig_polynomial(rng, spec, form, terms=6):
    """sum_i c_i u_{alpha_i} at the form theta sigma, alpha_i on the dual
    lattice with indices in [-N/4, N/4), so every alpha + beta stays in band."""
    element = weyl.WeylElement({}, form)
    for _ in range(terms):
        alpha = rng.integers(-spec.n // 4, spec.n // 4, size=spec.dim) * spec.dp
        element = element + weyl.unit_u(alpha, form).scaled(complex(*rng.normal(size=2)))
    return element


def on_grid(element, spec):
    """q -> sum c_alpha e(alpha.q) on the grid, through one e(.) table."""
    alphas = np.array([weyl.key_to_covector(k) for k in element.terms])
    coeffs = np.array(list(element.terms.values()))
    return GridFunction(spec, np.tensordot(coeffs, separable_waves(alphas, spec.axis()), axes=1))


def test_d4_product_equals_exact_twisted_algebra_product():
    # the grid formula is exact on in-band trigonometric polynomials, so it
    # must reproduce weyl.mul at theta sigma for a dense orbit form
    sigma = dense_d4_form()
    spec = GridSpec(dim=4, n=8, length=8.0, theta=1.0)
    form = SkewForm(spec.theta * sigma.matrix)
    rng = np.random.default_rng(4)
    for _ in range(2):
        a = trig_polynomial(rng, spec, form)
        b = trig_polynomial(rng, spec, form)
        exact = on_grid(weyl.mul(a, b), spec).values
        f, g = on_grid(a, spec), on_grid(b, spec)
        assert max_rel(star_product(f, g, sigma).values, exact) <= 1e-13
        # negative control: the reversed form conjugates every twist phase
        assert max_rel(star_product(f, g, SkewForm(-sigma.matrix)).values, exact) > 0.1


def test_line_star_product_is_rejected():
    spec = GridSpec(dim=1, n=8, length=8.0)
    f = random_grid(spec, 0)
    with pytest.raises(ValueError):
        star_product(f, f, SkewForm(np.zeros((1, 1))))


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([8, 16]),
    theta=st.floats(0.1, 4.0),
    s=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_reversed_form_swaps_factors(n, theta, s, seed):
    # f *_{-sigma} g = g *_sigma f holds exactly on the lattice
    spec = GridSpec(dim=2, n=n, length=8.0, theta=theta)
    f = random_grid(spec, seed)
    g = random_grid(spec, seed + 1)
    sigma = SkewForm(s * PLANE.matrix)
    lhs = star_product(f, g, SkewForm(-sigma.matrix)).values
    rhs = star_product(g, f, sigma).values
    assert max_rel(lhs, rhs) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.1, 4.0),
    orbit_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_reversed_form_swaps_factors_d4(theta, orbit_seed, seed):
    # the d = 2 property above, over dense orbit forms at d = 4
    st4 = Spacetime()
    sigma = sample_orbit(st4, 1, orbit_seed, standard_skew(st4))[0][1]
    spec = GridSpec(dim=4, n=8, length=8.0, theta=theta)
    f = random_grid(spec, seed)
    g = random_grid(spec, seed + 1)
    lhs = star_product(f, g, SkewForm(-sigma.matrix)).values
    rhs = star_product(g, f, sigma).values
    assert max_rel(lhs, rhs) <= 1e-12


PLANE_ST = Spacetime(2, (1, -1))
REFLECTIONS = {"parity": parity(PLANE_ST), "time_reversal": time_reversal(PLANE_ST)}


def reflect(f, p):
    """f o P for a diagonal reflection P: index j -> (N - j) mod N on each flipped axis."""
    index = -np.arange(f.spec.n) % f.spec.n
    values = f.values
    for axis in np.flatnonzero(np.diag(p.matrix) < 0):
        values = np.take(values, index, axis=axis)
    return GridFunction(f.spec, values)


def reflection_defect(f, g, sigma, p):
    # P sigma P^t = -sigma for a one-axis reflection of the plane
    lhs = star_product(reflect(f, p), reflect(g, p), act_on_form(p, sigma)).values
    rhs = reflect(star_product(f, g, sigma), p).values
    return max_rel(lhs, rhs)


@pytest.mark.parametrize("name", sorted(REFLECTIONS))
@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([8, 16]),
    s=st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
    k=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reflection_covariance_at_closed_twist(name, n, s, k, seed):
    # (f o P) *_{-sigma} (g o P) = (f *_sigma g) o P is exact on the lattice
    # when |theta s N / L^2| = k is an integer (the closed twist of suite_cstar)
    length = 8.0
    spec = GridSpec(dim=2, n=n, length=length, theta=k * length**2 / (n * abs(s)))
    f = random_grid(spec, seed)
    g = random_grid(spec, seed + 1)
    assert reflection_defect(f, g, SkewForm(s * PLANE.matrix), REFLECTIONS[name]) <= 1e-12


@pytest.mark.parametrize("name", sorted(REFLECTIONS))
def test_reflection_covariance_fails_off_closed_twist(name):
    # negative control: theta s N / L^2 = 1/2
    spec = GridSpec(dim=2, n=16, length=8.0, theta=2.0)
    f = random_grid(spec, 3)
    g = random_grid(spec, 4)
    assert reflection_defect(f, g, PLANE, REFLECTIONS[name]) > 1e-2


def closed_twist_defects(spec, sigma, seed, outer=None, band=None):
    """(associativity, involution) defects, relative max-abs, on seeded noise
    f, g, h: (f * g) * h against f * (g * h), and (f * g)* against g* * f*.
    outer, if set, is the form of the outer product of (f * g) * h; band, if
    set, keeps only the noise's modes with |k| < band on every axis."""
    f, g, h = (random_grid(spec, seed + i) for i in range(3))
    if band is not None:
        k = np.fft.fftfreq(spec.n, 1.0 / spec.n)  # each bin's integer mode, -N/2 included
        inside = np.all(np.abs(np.meshgrid(*[k] * spec.dim, indexing="ij")) < band, axis=0)
        f, g, h = (
            GridFunction(spec, np.fft.ifftn(np.fft.fftn(u.values) * inside)) for u in (f, g, h)
        )
    fg = star_product(f, g, sigma)
    left = star_product(fg, h, sigma if outer is None else outer)
    assoc = max_rel(left.values, star_product(f, star_product(g, h, sigma), sigma).values)
    adjoint = star_product(involution(g), involution(f), sigma)
    return assoc, max_rel(involution(fg).values, adjoint.values)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([8, 16, 32]),
    length=st.sampled_from([6.0, 8.0]),
    c=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_twist_product_is_an_exact_algebra_on_noise(n, length, c, seed):
    # at the integral twist c = theta s N / L^2 the product is a finite twisted
    # convolution: associative and *-compatible on any grid data, band edge included
    theta = abs(c) * length**2 / n
    spec = GridSpec(dim=2, n=n, length=length, theta=theta)
    sigma = SkewForm(float(np.sign(c)) * PLANE.matrix)
    assert max(closed_twist_defects(spec, sigma, seed)) <= 1e-12
    # negative controls: an open twist, and -sigma in the outer product
    open_spec = GridSpec(dim=2, n=n, length=length, theta=1.3 * theta)
    assert closed_twist_defects(open_spec, sigma, seed)[0] > 0.1
    assert closed_twist_defects(spec, sigma, seed, outer=SkewForm(-sigma.matrix))[0] > 0.1


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([16, 32]),
    theta=st.sampled_from([0.37, 1.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_open_twist_product_is_an_algebra_inside_the_band(n, theta, seed):
    # at an open twist a frequency sum that leaves the band folds.  With every
    # axis at |k| < N/4 the product is associative; with the unpaired -N/2 mode
    # dropped (|k| < N/2) it is *-compatible, (f * g)* = g* * f*
    spec = GridSpec(dim=2, n=n, length=8.0, theta=theta)
    assert closed_twist_defects(spec, PLANE, seed, band=n // 4)[0] <= 1e-13
    assert closed_twist_defects(spec, PLANE, seed, band=n // 2)[1] <= 1e-13
    # negative controls: the full band, where both fail
    assert min(closed_twist_defects(spec, PLANE, seed)) > 0.1


def test_product_is_covariant_under_space_axis_permutations_d4():
    # alpha_L (f *_sigma g) = (alpha_L f) *_{L sigma L^t} (alpha_L g), alpha_L f = f o L^-1,
    # holds exactly on the lattice for an unsigned permutation L of the space axes,
    # at an open twist and on dense orbit forms.  L = I[p] (row i is e_p[i]), so
    # (L^-1 q)_p[i] = q_i and alpha_L transposes the values' axes by p.
    st4 = Spacetime()
    sigma0 = standard_skew(st4)
    forms = [sigma0] + [s for _, s in sample_orbit(st4, 3, 7, sigma0)]
    spec = GridSpec(dim=4, n=8, length=8.0, theta=1.3)
    f, g = random_grid(spec, 11), random_grid(spec, 12)
    products = [star_product(f, g, sigma).values for sigma in forms]
    for p in [(0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2)]:  # a swap and two 3-cycles
        lam = LorentzTransform(np.eye(4)[list(p)], st4)
        fp, gp = (GridFunction(spec, np.transpose(h.values, p)) for h in (f, g))
        for sigma, fg in zip(forms, products):
            moved = star_product(fp, gp, act_on_form(lam, sigma)).values
            assert max_rel(moved, np.transpose(fg, p)) <= 1e-13
        # negative control: sigma kept in place of L sigma L^t
        kept = star_product(fp, gp, forms[-1]).values
        assert max_rel(kept, np.transpose(products[-1], p)) > 0.5
