"""Acceptance gate: one test per criterion, at the pinned tolerances.

Criteria (tolerances in parentheses):
 1. exact Weyl relations and associativity over the orbit (1e-12)
 2. star-product / translation-action bridge on a flat window (1e-3)
 3. FFT product vs closed-form Gaussian oracle (1e-6), sigma = 0 limit (1e-10)
 4. first-order commutator constant on plateau windows (1e-3)
 5. pointwise-product theorem for cylinder functions (1e-6), negative control
 6. action equivariance and covariance identities (1e-9)
 7. representation properties of the finite compression (1e-3 / 1e-6 / 5%)
 8. orbit geometry: action consistency, invariants, stabilizer (1e-9 / 1e-10)
 9. semiclassical scaling exponents (slope brackets)
10. byte-identical deterministic outputs
"""

import json

import numpy as np
from scipy.special import erf

from moyalorbit.geometry import (
    SkewForm,
    Spacetime,
    act_on_form,
    in_stabilizer,
    make_boost,
    make_rotation,
    orbit_invariants,
    q_form,
    random_lorentz,
    standard_skew,
)
from moyalorbit.grids import GridFunction, GridSpec
from moyalorbit.oracle import oracle_defect, random_gaussian
from moyalorbit.star import (
    commutator_constant,
    interior_mask,
    relative_l2,
    star_commutator,
    star_product,
    weyl_action,
)
from moyalorbit.suites import (
    RunConfig,
    suite_cstar,
    suite_equivariance,
    suite_semiclassical,
    suite_weyl,
)
from moyalorbit import covariance as cov

ST4 = Spacetime(4, (1, -1, -1, -1))
ST2 = Spacetime(2, (1, -1))
PLANE = standard_skew(ST2)
CFG = RunConfig()


def report_line(name, value, tol, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {value:.3e} (tol {tol:.1e})")


def test_criterion_1_weyl_relations():
    rep = suite_weyl(CFG)
    worst = max(c["value"] for c in rep["checks"])
    report_line("weyl relations + associativity", worst, 1e-12, rep["pass"])
    assert rep["pass"]


def test_criterion_2_translation_bridge():
    # star against a windowed plane wave matches the windowed translation
    # action in the window interior; broad window, theta = 1/2
    spec = GridSpec(dim=2, n=64, length=8.0, theta=0.5)
    x = spec.mesh()
    ww = 16.0
    w = np.exp(-np.pi * (x[0] ** 2 + x[1] ** 2) / ww**2)
    alpha = np.array([0.5, 0.25])
    f = GridFunction(spec, w * np.exp(2j * np.pi * (alpha[0] * x[0] + alpha[1] * x[1])))
    g = GridFunction(
        spec, np.exp(-np.pi * ((x[0] - 0.1) ** 2 / 1.44 + (x[1] + 0.2) ** 2))
    )
    lhs = star_product(f, g, PLANE)
    rhs = GridFunction(spec, w * weyl_action(alpha, g, PLANE).values)
    defect = relative_l2(lhs, rhs, interior_mask(spec, 2.0))
    ok = defect < 1e-3
    report_line("translation-action bridge", defect, 1e-3, ok)
    assert ok


def test_criterion_3_oracle_agreement():
    rng = np.random.default_rng(42)
    spec = GridSpec(dim=2, n=64, length=8.0, theta=1.0)
    worst = 0.0
    for _ in range(20):
        f = random_gaussian(rng, 2)
        g = random_gaussian(rng, 2)
        result = star_product(f.sample(spec), g.sample(spec), PLANE)
        worst = max(worst, oracle_defect(result, f, g, PLANE))
    f = random_gaussian(rng, 2).sample(spec)
    g = random_gaussian(rng, 2).sample(spec)
    zero_defect = relative_l2(star_product(f, g, SkewForm(np.zeros((2, 2)))), f * g)
    ok = worst < 1e-6 and zero_defect < 1e-10
    report_line("oracle agreement (20 pairs)", worst, 1e-6, ok)
    assert worst < 1e-6
    assert zero_defect < 1e-10


def test_criterion_4_commutator_constant():
    theta, a, tau = 0.5, 2.8, 0.5
    spec = GridSpec(dim=2, n=64, length=8.0, theta=theta)
    x = spec.mesh()

    def plateau(t):
        return 0.5 * (
            erf(np.sqrt(np.pi) * (t + a) / tau) - erf(np.sqrt(np.pi) * (t - a) / tau)
        )

    w = plateau(x[0]) * plateau(x[1])
    mask = interior_mask(spec, 1.0)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        al = rng.uniform(-1, 1, 2)
        be = rng.uniform(-1, 1, 2)
        sigma = PLANE if rng.integers(2) else SkewForm(-PLANE.matrix)
        f = GridFunction(spec, (al[0] * x[0] + al[1] * x[1]) * w)
        g = GridFunction(spec, (be[0] * x[0] + be[1] * x[1]) * w)
        comm = star_commutator(f, g, sigma)
        ref = commutator_constant(theta, sigma, al, be) * w**2
        defect = np.linalg.norm(comm.values[mask] - ref[mask]) / np.linalg.norm(
            ref[mask]
        )
        worst = max(worst, defect)
    ok = worst < 1e-3
    report_line("commutator constant (10 draws)", worst, 1e-3, ok)
    assert ok


def test_criterion_5_pointwise_theorem():
    spec = GridSpec(dim=2, n=64, length=8.0, theta=1.0)
    spec1d = GridSpec(dim=1, n=64, length=8.0, theta=1.0)
    rng = np.random.default_rng(23)
    sample = tuple(random_lorentz(ST2, rng, max_word=2) for _ in range(5))
    psi1 = cov.FiberedFunction.from_callable(
        sample, spec1d, lambda t, r: np.exp(-np.pi * (r - 0.1) ** 2 / 1.3**2)
    )
    psi2 = cov.FiberedFunction.from_callable(
        sample, spec1d, lambda t, r: np.exp(-np.pi * (r + 0.2) ** 2)
    )
    alpha = np.array([1.0, 1.0])
    defect = cov.check_pointwise_theorem(alpha, psi1, psi2, PLANE, spec)
    control = cov.check_pointwise_theorem(
        alpha, psi1, psi2, PLANE, spec, alpha2=np.array([1.0, -1.0])
    )
    ok = defect < 1e-6 and control > 1e-2
    report_line("pointwise theorem (5 fibers)", defect, 1e-6, ok)
    assert defect < 1e-6
    assert control > 1e-2


def test_criterion_6_equivariance():
    rep = suite_equivariance(CFG)
    worst = max(c["value"] for c in rep["checks"])
    report_line("equivariance + covariance", worst, 1e-9, rep["pass"])
    assert rep["pass"]


def test_criterion_7_representation():
    rep = suite_cstar(CFG)
    by_name = {c["name"]: c for c in rep["checks"]}
    report_line(
        "homomorphism defect", by_name["homomorphism_defect"]["value"], 1e-3,
        rep["pass"],
    )
    assert rep["pass"]


def test_criterion_8_orbit_geometry():
    sigma0 = standard_skew(ST4)
    base_inv = orbit_invariants(sigma0, ST4)
    rng = np.random.default_rng(31)
    worst_action = 0.0
    worst_inv = 0.0
    worst_q = 0.0
    for _ in range(1000):
        t1 = random_lorentz(ST4, rng)
        t2 = random_lorentz(ST4, rng)
        left = act_on_form(t1.compose(t2), sigma0)
        right = act_on_form(t1, act_on_form(t2, sigma0))
        worst_action = max(worst_action, np.max(np.abs(left.matrix - right.matrix)))
        worst_inv = max(
            worst_inv, np.max(np.abs(orbit_invariants(left, ST4) - base_inv))
        )
        a = rng.uniform(-1, 1, 4)
        b = rng.uniform(-1, 1, 4)
        worst_q = max(
            worst_q,
            abs(
                q_form(left, a, b)
                - q_form(sigma0, (t1.compose(t2)).matrix.T @ a,
                         (t1.compose(t2)).matrix.T @ b)
            ),
        )
    stab_a = make_boost(ST4, 1, 0.8)
    stab_b = make_rotation(ST4, (2, 3), 1.2)
    closure = (
        in_stabilizer(stab_a, sigma0)
        and in_stabilizer(stab_b, sigma0)
        and in_stabilizer(stab_a.compose(stab_b), sigma0)
        and in_stabilizer(stab_a.inverse(), sigma0)
    )
    ok = worst_action < 1e-9 and worst_inv < 1e-7 and worst_q < 1e-10 and closure
    report_line("orbit geometry (1000 draws)", max(worst_action, worst_q), 1e-9, ok)
    assert worst_action < 1e-9
    assert worst_inv < 1e-7
    assert worst_q < 1e-10
    assert closure


def test_criterion_9_semiclassical_slopes():
    rep = suite_semiclassical(CFG)
    slopes = {c["name"]: c["value"] for c in rep["checks"]}
    report_line("semiclassical slope d2", slopes["slope_d2"], 2.2, rep["pass"])
    assert rep["pass"]


def test_criterion_10_deterministic_outputs(tmp_path):
    from moyalorbit.cli import main

    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["orbit", "-n", "6", "--seed", "11", "--out", str(out)]) == 0
        blobs.append((out / "orbit.json").read_bytes())
    rep1 = json.dumps(suite_weyl(CFG), sort_keys=True)
    rep2 = json.dumps(suite_weyl(CFG), sort_keys=True)
    # the verify-all benchmark fails any op whose report bytes differ
    reports = []
    for sub in ("c", "d"):
        out = tmp_path / sub
        assert main(["verify", "--suite", "all", "--seed", "0", "--out", str(out)]) == 0
        reports.append((out / "verify_all.json").read_bytes())
    ok = blobs[0] == blobs[1] and rep1 == rep2 and reports[0] == reports[1]
    report_line("deterministic outputs", float(not ok), 0.5, ok)
    assert ok
