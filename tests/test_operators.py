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
    unitary_dft,
)
from moyalorbit.operators import (
    OperatorMatrix,
    apply_blocks,
    build_left_regular_matrix,
    cstar_identity_check,
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


def reference_heisenberg_blocks(op):
    """The blocks and off-block share of a dense L_f, read off the whole transformed matrix.

    The dense reference for left_regular_blocks: blocks[r, a_1, b_1] is the
    entry of (F x I) L_f (F x I)^H at rows (a_1, r + c a_1) and columns
    (b_1, r + c b_1), second index mod N, with F the unitary DFT on the first
    axis; the share is the Frobenius share of that matrix outside the blocks.
    """
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
    sigma = SkewForm(s * PLANE.matrix)
    op = build_left_regular_matrix(f, sigma)
    direct = star_product(f, g, sigma)
    out = op.matrix @ g.values.reshape(-1)
    assert np.max(np.abs(out.reshape(g.values.shape) - direct.values)) < 1e-11


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
        build_left_regular_matrix(f4, SkewForm(np.zeros((4, 4))))
    for n in (64, 128):
        spec_big = GridSpec(dim=2, n=n, length=8.0)
        f_big = GridFunction(spec_big, np.zeros((n, n), dtype=complex))
        with pytest.raises(ValueError):
            build_left_regular_matrix(f_big, PLANE)


def test_operator_matrix_shape_guard():
    spec = GridSpec(dim=2, n=16, length=8.0)
    with pytest.raises(ValueError):
        OperatorMatrix(np.eye(7), spec, PLANE)


def test_suite_cstar_takes_five_spectral_norms(monkeypatch):
    # no dense build: the five norms ||L_f||, ||L_g||, ||L_{f* x f}|| and the
    # two defects, the positivity spectrum and the check against the product
    # come from the 32 Heisenberg blocks of side 32 that left_regular_blocks
    # builds straight from each h: no SVD, 2-norm or eigvalsh of a
    # 1024 x 1024 matrix
    side = 32
    calls = {"norm": [], "svd": [], "eigvalsh": [], "build": 0}

    def counting(name, fn):
        def wrapper(x, *args, **kwargs):
            calls[name].append(np.shape(x))
            return fn(x, *args, **kwargs)

        return wrapper

    for name in ("norm", "svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    build = operators.build_left_regular_matrix

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(operators, "build_left_regular_matrix", counting_build)
    rep = suite_cstar(RunConfig())
    assert rep["pass"]
    assert calls["build"] == 0
    assert calls["norm"] == []
    assert calls["svd"] == [(side, side, side)] * 5
    assert calls["eigvalsh"] == [(side, side, side)]


def block_norm(blocks):
    return np.linalg.svd(blocks, compute_uv=False).max()


def twisted(n, c, length=8.0):
    """Spec and plane form with twist theta s n / L^2 = c (an integer)."""
    s = -1.0 if c < 0 else 1.0
    spec = GridSpec(dim=2, n=n, length=length, theta=abs(c) * length**2 / n)
    return spec, SkewForm(s * PLANE.matrix)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("c", [1, -1, 2, 3])
def test_heisenberg_blocks_carry_the_spectrum(n, c):
    # the N blocks of side N are a unitary image of L_f: their N^2 singular
    # values are those of the dense matrix, and nothing lies off the blocks
    spec, sigma = twisted(n, c)
    f, _ = gaussians(spec)
    op = build_left_regular_matrix(f, sigma)
    dense, defect = reference_heisenberg_blocks(op)
    assert defect <= 1e-13
    dense_sv = np.linalg.svd(op.matrix, compute_uv=False)
    for blocks in (dense, left_regular_blocks(f, sigma)):
        assert blocks.shape == (n, n, n)
        block_sv = np.sort(np.linalg.svd(blocks, compute_uv=False), axis=None)[::-1]
        assert np.max(np.abs(block_sv - dense_sv)) <= 1e-13 * dense_sv[0]


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("c", [-3, -1, 1, 2, 3])
def test_direct_blocks_match_the_dense_blocks(n, c):
    spec, sigma = twisted(n, c)
    h = random_grid(spec, 100 * n + c)
    dense = reference_heisenberg_blocks(build_left_regular_matrix(h, sigma))[0]
    direct = left_regular_blocks(h, sigma)
    assert direct.shape == (n, n, n)
    assert np.max(np.abs(direct - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("c", [-3, -1, 1, 2, 3])
def test_block_apply_matches_the_star_product(n, c):
    # full-band h and eta, Nyquist rows and columns included: L_h eta applied
    # through the direct blocks is the lattice product h * eta
    spec, sigma = twisted(n, c)
    h, eta = random_grid(spec, 100 * n + c), random_grid(spec, 7 * n - c)
    direct = star_product(h, eta, sigma)
    out = apply_blocks(left_regular_blocks(h, sigma), eta, sigma)
    assert (out - direct).max_abs() <= 1e-13 * direct.max_abs()


def test_suite_cstar_peaks_under_3_mib():
    # matrix-free, and each product's 32 blocks of side 32 (0.5 MiB) live only
    # through its own checks: about 2.5 MiB, 3.8 with all five sets held at
    # once; one dense L_f alone is 16 MiB
    suite_cstar(RunConfig())  # first-call imports (about 0.8 MiB) stay out of the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        suite_cstar(RunConfig())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_heisenberg_blocks_reject_open_twist():
    # the spec of test_open_twist_breaks_representation: theta n / L^2 = 1/4;
    # the block builder and the block apply alike
    spec = GridSpec(dim=2, n=16, length=8.0, theta=1.0)
    f, g = gaussians(spec)
    with pytest.raises(ValueError):
        left_regular_blocks(f, PLANE)
    with pytest.raises(ValueError):
        apply_blocks(np.zeros((16, 16, 16), dtype=complex), g, PLANE)


def test_block_apply_rejects_blocks_of_another_grid():
    spec, sigma = twisted(16, 1)
    blocks = left_regular_blocks(random_grid(twisted(8, 1)[0], 1), sigma)
    with pytest.raises(ValueError):
        apply_blocks(blocks, random_grid(spec, 2), sigma)


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
    sigma = SkewForm(s * PLANE.matrix)
    direct = star_product(f, g, sigma)
    out = build_left_regular_matrix(f, sigma).matrix @ g.values.reshape(-1)
    gap = np.max(np.abs(out.reshape(g.values.shape) - direct.values))
    assert gap <= 1e-11 * max(direct.max_abs(), 1.0)


@settings(max_examples=25, deadline=None)
@given(c=st.sampled_from([-3, -2, -1, 1, 2, 3]), factors=gaussian_pair)
def test_blockwise_homomorphism_at_integer_twist(c, factors):
    spec, sigma = twisted(16, c)
    f, g = (SeparableGaussian(pair).sample(spec) for pair in factors)
    fg = star_product(f, g, sigma)
    # every example runs both block builders: blocks of the dense matrix, and direct
    for blocks_of in (
        lambda h: reference_heisenberg_blocks(build_left_regular_matrix(h, sigma))[0],
        lambda h: left_regular_blocks(h, sigma),
    ):
        bf, bg, bfg = (blocks_of(h) for h in (f, g, fg))
        assert block_norm(bfg - bf @ bg) <= 1e-11 * block_norm(bf) * block_norm(bg)


def dense_spot_check(op, f):
    """The dense checks that op, a dense L_f, fails against the direct blocks of f.

    block_structure_defect is the off-block share of op, dense_blocks_match
    the relative max-abs gap between its blocks and left_regular_blocks(f);
    each must stay at or below 1e-12.
    """
    dense, off_block = reference_heisenberg_blocks(op)
    gap = np.max(np.abs(dense - left_regular_blocks(f, op.sigma))) / np.max(np.abs(dense))
    checks = {"block_structure_defect": off_block, "dense_blocks_match": gap}
    return {name for name, value in checks.items() if not value <= 1e-12}


class MutatedDenseBuild:
    """Dense L_f built with the wrong form, theta or f, labelled with the right spec and form."""

    @staticmethod
    def transposed_form(f, sigma):
        op = build_left_regular_matrix(f, SkewForm(sigma.matrix.T))
        return OperatorMatrix(op.matrix, f.spec, sigma)

    @staticmethod
    def stretched_theta(f, sigma):
        g = GridFunction(f.spec.with_theta(f.spec.theta * (1 + 1e-6)), f.values)
        return OperatorMatrix(build_left_regular_matrix(g, sigma).matrix, f.spec, sigma)

    @staticmethod
    def dropped_nyquist(f, sigma):
        fhat = forward_array(f.values, f.spec)
        fhat[0] = 0.0  # the first-axis Nyquist row of the centered spectrum
        return build_left_regular_matrix(GridFunction(f.spec, inverse_array(fhat, f.spec)), sigma)


@pytest.mark.parametrize(
    "mutation, failing",
    [
        # values at N = 32: block_structure_defect 0.87, dense_blocks_match 1.0
        (MutatedDenseBuild.transposed_form, {"block_structure_defect", "dense_blocks_match"}),
        # 2.9e-6 and 4.6e-6
        (MutatedDenseBuild.stretched_theta, {"block_structure_defect", "dense_blocks_match"}),
        # the off-block share stays at roundoff; dense_blocks_match 4.3e-11
        (MutatedDenseBuild.dropped_nyquist, {"dense_blocks_match"}),
    ],
)
def test_spot_check_fails_on_a_mutated_dense_build(mutation, failing):
    # negative controls for the dense reference the block tests compare with:
    # the suite's f at N = 32 passes the spot check, a mutated build fails it
    spec = closed_spec(32)
    f, _ = gaussians(spec)
    assert dense_spot_check(build_left_regular_matrix(f, PLANE), f) == set()
    assert dense_spot_check(mutation(f, PLANE), f) == failing


def stretched_theta(monkeypatch):
    # every product of the suite at theta (1 + 1e-6), labelled with its own grid
    product = suites.star_product

    def mutated(f, g, sigma):
        spec = f.spec.with_theta(f.spec.theta * (1 + 1e-6))
        out = product(GridFunction(spec, f.values), GridFunction(spec, g.values), sigma)
        return GridFunction(f.spec, out.values)

    monkeypatch.setattr(suites, "star_product", mutated)


def twist_off_by_one(monkeypatch):
    # the apply reads the twist c + 1; the blocks are built at c
    apply, closed = suites.apply_blocks, operators._closed_twist

    def mutated(blocks, eta, sigma):
        with monkeypatch.context() as m:
            m.setattr(operators, "_closed_twist", lambda spec, s: closed(spec, s) + 1)
            return apply(blocks, eta, sigma)

    monkeypatch.setattr(suites, "apply_blocks", mutated)


def dropped_nyquist(axis):
    def mutation(monkeypatch):
        # every block built from h with its Nyquist row (axis 0) or column
        # (axis 1) of the centered spectrum dropped
        blocks = suites.left_regular_blocks

        def mutated(h, sigma):
            hhat = forward_array(h.values, h.spec)
            hhat[(slice(None),) * axis + (0,)] = 0.0
            return blocks(GridFunction(h.spec, inverse_array(hhat, h.spec)), sigma)

        monkeypatch.setattr(suites, "left_regular_blocks", mutated)

    return mutation


@pytest.mark.parametrize(
    "mutate, failing",
    [
        # values of blocks_match_product at seed 0 in the comments
        pytest.param(stretched_theta, {"blocks_match_product"}, id="stretched_theta"),  # 5.4e-6
        pytest.param(twist_off_by_one, {"blocks_match_product"}, id="twist_off_by_one"),  # 2.3
        # 2.7e-11 and 9.4e-11: the other checks stay under their bounds
        pytest.param(dropped_nyquist(0), {"blocks_match_product"}, id="dropped_nyquist_row"),
        pytest.param(dropped_nyquist(1), {"blocks_match_product"}, id="dropped_nyquist_column"),
    ],
)
def test_blocks_match_product_fails_on_a_mutation(mutate, failing, monkeypatch):
    # negative controls: blocks, apply or products built with the wrong theta,
    # twist or f must fail the check against the product
    mutate(monkeypatch)
    rep = suite_cstar(RunConfig())
    assert not rep["pass"]
    assert {c["name"] for c in rep["checks"] if not c["pass"]} == failing


def test_cstar_fails_on_blocks_built_at_the_transposed_form(monkeypatch):
    # negative control on the direct side: every L_h built at sigma^T = -sigma.
    # At seed 0 blocks_match_product reads 1.5 and homomorphism_defect 0.55;
    # the adjoint, C* and positivity checks hold for the opposite form too
    blocks = suites.left_regular_blocks
    monkeypatch.setattr(
        suites, "left_regular_blocks", lambda h, sigma: blocks(h, SkewForm(sigma.matrix.T))
    )
    rep = suite_cstar(RunConfig())
    assert not rep["pass"]
    failing = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert failing == {"blocks_match_product", "homomorphism_defect"}


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


def test_the_seed_enters_the_cstar_suite_only_through_eta():
    reports = [suite_cstar(RunConfig(seed=seed)) for seed in (0, 11, 4001)]
    assert all(rep["pass"] for rep in reports), [rep["checks"] for rep in reports]
    values = [{c["name"]: c["value"] for c in rep["checks"]} for rep in reports]
    for other in values[1:]:
        moved = {name for name in values[0] if values[0][name] != other[name]}
        assert moved == {"blocks_match_product"}
