"""Finite left-regular operator matrices and representation checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moyalorbit import operators, suites
from moyalorbit.geometry import SkewForm
from moyalorbit.grids import (
    GridFunction,
    GridSpec,
    forward_array,
    inverse_array,
    separable_waves,
    shift_batch,
    unitary_dft,
)
from moyalorbit.operators import (
    OperatorMatrix,
    apply_operator,
    build_left_regular_matrix,
    cstar_identity_check,
    heisenberg_blocks,
    left_regular_blocks,
    twist,
)
from moyalorbit.oracle import GaussianFactor, SeparableGaussian
from moyalorbit.star import involution, star_product
from moyalorbit.suites import RunConfig, suite_cstar

PLANE = SkewForm(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def closed_spec(n=16, length=8.0):
    # theta n / L^2 integral, so the lattice twist closes on the torus and
    # the compression is an exact *-representation up to roundoff
    return GridSpec(dim=2, n=n, length=length, theta=length**2 / n)


def random_grid(spec, seed):
    # full-band values, so the Nyquist rows and columns count too
    rng = np.random.default_rng(seed)
    shape = (spec.n,) * spec.dim
    return GridFunction(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def reference_build(f, sigma):
    """The one-shot dense build: every k in one shift_batch, one whole-matrix transform."""
    spec = f.spec
    nodes = spec.dual_nodes()
    m = spec.size
    shifts = -spec.theta * (sigma.matrix @ nodes.T).T
    b = shift_batch(f.values, spec, shifts)
    b *= separable_waves(nodes, spec.axis())
    b = b.reshape(m, m).T.reshape((m,) + (spec.n,) * spec.dim)
    return forward_array(b, spec).reshape(m, m) / spec.size


def reference_heisenberg_blocks(op):
    """The blocks and off-block share, read off the whole transformed matrix at once."""
    c = round(twist(op.spec, op.sigma))
    n = op.spec.n
    b = unitary_dft(op.matrix.reshape(n, n, n, n), axis=0, inverse=False)
    b = unitary_dft(b, axis=2, inverse=True)
    a = np.arange(n)
    x2 = (a[:, None] + c * a[None, :]) % n
    index = (a[None, :, None], x2[:, :, None], a[None, None, :], x2[:, None, :])
    blocks = b[index]
    total = np.sum(np.abs(b) ** 2)
    b[index] = 0.0
    return blocks, float(np.sqrt(np.sum(np.abs(b) ** 2) / total))


def assert_blocks_match_reference(op):
    # the blocks are the same entries; the share sums in another order
    blocks, defect = heisenberg_blocks(op)
    ref_blocks, ref_defect = reference_heisenberg_blocks(op)
    assert np.array_equal(blocks, ref_blocks)
    assert abs(defect - ref_defect) <= 1e-14 * ref_defect


def gaussians(spec):
    f = SeparableGaussian(
        (GaussianFactor(0.2, np.sqrt(2.0)), GaussianFactor(-0.1, np.sqrt(2.0), 0.1))
    ).sample(spec)
    g = SeparableGaussian(
        (GaussianFactor(-0.3, 1.4, 0.05), GaussianFactor(0.1, 1.5))
    ).sample(spec)
    return f, g


@pytest.mark.parametrize("s", [1.0, -1.0, 0.0])
@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_apply_matches_star_product(theta, s):
    # over the plane orbit sigma = sJ: the matrix and the kernel share one
    # shift and plane-wave table, and must give the same product
    spec = GridSpec(dim=2, n=16, length=8.0, theta=theta)
    f, g = gaussians(spec)
    sigma = PLANE.scaled(s)
    op = build_left_regular_matrix(f, sigma)
    direct = star_product(f, g, sigma)
    assert (apply_operator(op, g) - direct).max_abs() < 1e-11


def test_unit_function_gives_identity_matrix():
    spec = closed_spec()
    one = GridFunction(spec, np.ones((spec.n, spec.n), dtype=complex))
    op = build_left_regular_matrix(one, PLANE)
    assert np.max(np.abs(op.matrix - np.eye(spec.size))) < 1e-12


def test_homomorphism_at_closed_twist():
    spec = closed_spec()
    f, g = gaussians(spec)
    mf = build_left_regular_matrix(f, PLANE)
    mg = build_left_regular_matrix(g, PLANE)
    mfg = build_left_regular_matrix(star_product(f, g, PLANE), PLANE)
    defect = np.linalg.norm(mfg.matrix - mf.matrix @ mg.matrix, 2)
    assert defect < 1e-10 * mf.spectral_norm() * mg.spectral_norm()


def test_adjoint_at_closed_twist():
    spec = closed_spec()
    f, _ = gaussians(spec)
    mf = build_left_regular_matrix(f, PLANE)
    mfs = build_left_regular_matrix(involution(f), PLANE)
    assert np.linalg.norm(mfs.matrix - mf.adjoint(), 2) < 1e-11 * mf.spectral_norm()


def test_cstar_identity_and_positivity():
    spec = closed_spec()
    f, _ = gaussians(spec)
    rep = cstar_identity_check(f, PLANE)
    assert rep["cstar_defect"] < 1e-10
    assert rep["min_eig"] > -1e-10 * rep["norm_f"] ** 2


def test_open_twist_breaks_representation():
    # negative control: with theta n / L^2 = 1/4 the finite compression is
    # far from a homomorphism
    spec = GridSpec(dim=2, n=16, length=8.0, theta=1.0)
    f, g = gaussians(spec)
    mf = build_left_regular_matrix(f, PLANE)
    mg = build_left_regular_matrix(g, PLANE)
    mfg = build_left_regular_matrix(star_product(f, g, PLANE), PLANE)
    defect = np.linalg.norm(mfg.matrix - mf.matrix @ mg.matrix, 2) / (
        mf.spectral_norm() * mg.spectral_norm()
    )
    assert defect > 1e-3


def test_dimension_and_size_guards():
    spec4 = GridSpec(dim=4, n=8, length=8.0)
    f4 = GridFunction(spec4, np.zeros((8,) * 4, dtype=complex))
    with pytest.raises(ValueError):
        build_left_regular_matrix(f4, SkewForm.zero(4))
    spec_big = GridSpec(dim=2, n=128, length=8.0)
    f_big = GridFunction(spec_big, np.zeros((128, 128), dtype=complex))
    with pytest.raises(ValueError):
        build_left_regular_matrix(f_big, PLANE)


def test_operator_matrix_shape_guard():
    spec = GridSpec(dim=2, n=16, length=8.0)
    with pytest.raises(ValueError):
        OperatorMatrix(np.eye(7), spec, PLANE)


def test_suite_cstar_takes_five_spectral_norms(monkeypatch):
    # one dense build, L_f, the spot check of the direct blocks; the five
    # norms ||L_f||, ||L_g||, ||L_{f* x f}|| and the two defects, and the
    # positivity spectrum, come from the 32 Heisenberg blocks of side 32 that
    # left_regular_blocks builds straight from each h: no SVD, 2-norm or
    # eigvalsh of a 1024 x 1024 matrix
    side = 32
    calls = {"norm": [], "svd": [], "eigvalsh": [], "build": 0}

    def counting(name, fn):
        def wrapper(x, *args, **kwargs):
            calls[name].append(np.shape(x))
            return fn(x, *args, **kwargs)

        return wrapper

    for name in ("norm", "svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    build = suites.build_left_regular_matrix

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(suites, "build_left_regular_matrix", counting_build)
    rep = suite_cstar(RunConfig())
    assert rep["pass"]
    assert calls["build"] == 1
    assert calls["norm"] == []
    assert calls["svd"] == [(side, side, side)] * 5
    assert calls["eigvalsh"] == [(side, side, side)]


def block_norm(blocks):
    return np.linalg.svd(blocks, compute_uv=False).max()


def twisted(n, c, length=8.0):
    """Spec and plane form with twist theta s n / L^2 = c (an integer)."""
    s = -1.0 if c < 0 else 1.0
    spec = GridSpec(dim=2, n=n, length=length, theta=abs(c) * length**2 / n)
    return spec, PLANE.scaled(s)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("c", [1, -1, 2, 3])
def test_heisenberg_blocks_carry_the_spectrum(n, c):
    # the N blocks of side N are a unitary image of L_f: their N^2 singular
    # values are those of the dense matrix, and nothing lies off the blocks
    spec, sigma = twisted(n, c)
    f, _ = gaussians(spec)
    op = build_left_regular_matrix(f, sigma)
    blocks, defect = heisenberg_blocks(op)
    assert blocks.shape == (n, n, n)
    assert defect <= 1e-13
    block_sv = np.sort(np.linalg.svd(blocks, compute_uv=False), axis=None)[::-1]
    dense_sv = np.linalg.svd(op.matrix, compute_uv=False)
    assert np.max(np.abs(block_sv - dense_sv)) <= 1e-13 * dense_sv[0]


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("c", [-3, -1, 1, 2, 3])
def test_direct_blocks_match_the_dense_blocks(n, c):
    spec, sigma = twisted(n, c)
    h = random_grid(spec, 100 * n + c)
    dense = heisenberg_blocks(build_left_regular_matrix(h, sigma))[0]
    direct = left_regular_blocks(h, sigma)
    assert direct.shape == (n, n, n)
    assert np.max(np.abs(direct - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("s", [1.0, -1.0, 0.0])
@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_slabbed_build_matches_the_one_shot_build(n, closed, s):
    # theta = L^2 / n closes the twist of J; theta = 1 leaves it open at n <= 32
    spec = closed_spec(n) if closed else GridSpec(dim=2, n=n, length=8.0, theta=1.0)
    f = random_grid(spec, n)
    out = build_left_regular_matrix(f, PLANE.scaled(s)).matrix
    assert np.array_equal(out, reference_build(f, PLANE.scaled(s)))


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("c", [-3, -1, 1, 2, 3])
def test_slabbed_blocks_match_the_whole_matrix_blocks(n, c):
    spec, sigma = twisted(n, c)
    assert_blocks_match_reference(build_left_regular_matrix(random_grid(spec, 10 * n + c), sigma))


def test_short_last_slab_matches_the_reference(monkeypatch):
    # 48 k rows per build slab (256 = 5 * 48 + 16) and 3 x_2 rows per block
    # slab (16 = 5 * 3 + 1): several slabs, the last one short
    spec, sigma = twisted(16, 2)
    monkeypatch.setattr(operators, "_SLAB_ENTRIES", 3 * spec.n**3)
    f = random_grid(spec, 7)
    op = build_left_regular_matrix(f, sigma)
    assert np.array_equal(op.matrix, reference_build(f, sigma))
    assert_blocks_match_reference(op)


def test_dense_spot_check_holds_the_matrix_plus_one_slab():
    # the one-shot build peaked at four matrices, the whole-matrix blocks at three
    spec = closed_spec(32)
    f, _ = gaussians(spec)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        heisenberg_blocks(build_left_regular_matrix(f, PLANE))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * spec.size**2 * 16


def test_heisenberg_blocks_reject_open_twist():
    # the spec of test_open_twist_breaks_representation: theta n / L^2 = 1/4;
    # the dense and the direct block builders alike
    spec = GridSpec(dim=2, n=16, length=8.0, theta=1.0)
    f, _ = gaussians(spec)
    with pytest.raises(ValueError):
        heisenberg_blocks(build_left_regular_matrix(f, PLANE))
    with pytest.raises(ValueError):
        left_regular_blocks(f, PLANE)


gaussian_factor = st.builds(
    GaussianFactor,
    st.floats(-0.5, 0.5),
    st.floats(1.0, 1.6),
    st.floats(-0.2, 0.2),
)
gaussian_pair = st.tuples(*[st.tuples(gaussian_factor, gaussian_factor)] * 2)


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.1, 4.0), s=st.floats(-2.0, 2.0), factors=gaussian_pair)
def test_apply_matches_star_product_property(theta, s, factors):
    spec = GridSpec(dim=2, n=16, length=8.0, theta=theta)
    f, g = (SeparableGaussian(pair).sample(spec) for pair in factors)
    sigma = PLANE.scaled(s)
    direct = star_product(f, g, sigma)
    out = apply_operator(build_left_regular_matrix(f, sigma), g)
    assert (out - direct).max_abs() <= 1e-11 * max(direct.max_abs(), 1.0)


@settings(max_examples=25, deadline=None)
@given(c=st.sampled_from([-3, -2, -1, 1, 2, 3]), factors=gaussian_pair)
def test_blockwise_homomorphism_at_integer_twist(c, factors):
    spec, sigma = twisted(16, c)
    f, g = (SeparableGaussian(pair).sample(spec) for pair in factors)
    fg = star_product(f, g, sigma)
    # every example runs both block builders: blocks of the dense matrix, and direct
    for blocks_of in (
        lambda h: heisenberg_blocks(build_left_regular_matrix(h, sigma))[0],
        lambda h: left_regular_blocks(h, sigma),
    ):
        bf, bg, bfg = (blocks_of(h) for h in (f, g, fg))
        assert block_norm(bfg - bf @ bg) <= 1e-11 * block_norm(bf) * block_norm(bg)


def transposed_form(build, f, sigma):
    return OperatorMatrix(build(f, SkewForm(sigma.matrix.T)).matrix, f.spec, sigma)


def stretched_theta(build, f, sigma):
    g = GridFunction(f.spec.with_theta(f.spec.theta * (1 + 1e-6)), f.values)
    return OperatorMatrix(build(g, sigma).matrix, f.spec, sigma)


def dropped_nyquist(build, f, sigma):
    fhat = forward_array(f.values, f.spec)
    fhat[0] = 0.0  # the first-axis Nyquist row of the centered spectrum
    return build(GridFunction(f.spec, inverse_array(fhat, f.spec)), sigma)


@pytest.mark.parametrize(
    "mutation, failing",
    [
        # values at seed 0: block_structure_defect 0.87, dense_blocks_match 1.0
        (transposed_form, {"block_structure_defect", "dense_blocks_match"}),
        # 2.9e-6 and 4.6e-6
        (stretched_theta, {"block_structure_defect", "dense_blocks_match"}),
        # the off-block share stays at roundoff; dense_blocks_match 4.3e-11
        (dropped_nyquist, {"dense_blocks_match"}),
    ],
)
def test_spot_check_fails_on_a_mutated_dense_build(mutation, failing, monkeypatch):
    # negative controls: a dense L_f built with the wrong form, theta or f,
    # labelled with the suite's own spec and form, must fail the spot check
    build = suites.build_left_regular_matrix
    monkeypatch.setattr(
        suites, "build_left_regular_matrix", lambda f, sigma: mutation(build, f, sigma)
    )
    rep = suite_cstar(RunConfig())
    assert not rep["pass"]
    assert {c["name"] for c in rep["checks"] if not c["pass"]} == failing


def test_cstar_fails_on_blocks_built_at_the_transposed_form(monkeypatch):
    # negative control on the direct side: every L_h built at sigma^T = -sigma.
    # At seed 0 dense_blocks_match reads 1.0 and homomorphism_defect 0.55;
    # the adjoint, C* and positivity checks hold for the opposite form too
    blocks = suites.left_regular_blocks
    monkeypatch.setattr(
        suites, "left_regular_blocks", lambda h, sigma: blocks(h, SkewForm(sigma.matrix.T))
    )
    rep = suite_cstar(RunConfig())
    assert not rep["pass"]
    failing = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert failing == {"dense_blocks_match", "homomorphism_defect"}


@pytest.mark.parametrize("length", [6.0, 10.0, 16.0])
def test_suite_cstar_closes_the_twist_at_any_length(length):
    # theta = L^2 / 32 keeps the twist at 1 whatever the box length
    rep = suite_cstar(RunConfig(length=length))
    assert rep["grid"] == {
        "n": 32,
        "length": length,
        "theta": length**2 / 32,
        "twist": 1.0,
    }
    assert rep["pass"], rep["checks"]
