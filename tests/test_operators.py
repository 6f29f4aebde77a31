"""Finite left-regular operator matrices and representation checks."""

import numpy as np
import pytest

from moyalorbit.geometry import SkewForm
from moyalorbit.grids import GridFunction, GridSpec
from moyalorbit.operators import (
    OperatorMatrix,
    apply_operator,
    build_left_regular_matrix,
    cstar_identity_check,
)
from moyalorbit.oracle import GaussianFactor, SeparableGaussian
from moyalorbit.star import involution, star_product
from moyalorbit.suites import RunConfig, suite_cstar

PLANE = SkewForm(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def closed_spec(n=16, length=8.0):
    # theta n / L^2 integral, so the lattice twist closes on the torus and
    # the compression is an exact *-representation up to roundoff
    return GridSpec(dim=2, n=n, length=length, theta=length**2 / n)


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
        OperatorMatrix(np.eye(7), spec, PLANE, "bad")


def test_suite_cstar_takes_five_spectral_norms(monkeypatch):
    # ||L_f|| comes once from cstar_identity_check; the homomorphism and
    # adjoint defects reuse it: ||L_f||, ||L_g||, ||L_{f* x f}|| and two defects
    norm = np.linalg.norm
    calls = []

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    suite_cstar(RunConfig())
    assert len(calls) == 5
