"""Named verification suites with machine-readable reports.

Each suite returns {"suite": name, "checks": [...], "pass": bool} where a
check carries its measured value and the tolerance it was held to.  Every
bound, draw count and theta ladder is a module constant; a RunConfig sets
only the model (spacetime, base form, grid, seed).  The suites are
deterministic for a fixed RunConfig (seeded randomness only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moyalorbit import covariance as cov
from moyalorbit import weyl
from moyalorbit.geometry import (
    SkewForm,
    Spacetime,
    parity,
    q_form,
    random_lorentz,
    sample_orbit,
    standard_skew,
    time_reversal,
)
from moyalorbit.gridio import json_value
from moyalorbit.grids import GridSpec
from moyalorbit.operators import (
    build_left_regular_matrix,
    heisenberg_blocks,
    left_regular_blocks,
    twist,
)
from moyalorbit.oracle import GaussianFactor, SeparableGaussian
from moyalorbit.star import involution, semiclassical_sweep, star_product

SUITE_NAMES = ("weyl", "equivariance", "cstar", "semiclassical")

# The pinned bound of every check: a config sets the model, never the verdict.
TOLERANCES = {
    "weyl_phase": 1e-12,
    "weyl_assoc": 1e-12,
    "phi_equivariance": 1e-9,
    "gamma_covariance": 1e-9,
    "block_structure": 1e-12,  # off-block share of the dense L_f
    "dense_blocks": 1e-12,  # relative max-abs gap, dense vs direct blocks of L_f
    "hom_defect": 1e-3,
    "adjoint_defect": 1e-6,
    "cstar_defect": 0.05,
    "positivity": 1e-6,
    "slope_d1": (0.9, 1.1),
    "slope_d2": (1.8, 2.2),
}

DRAWS = 100  # random draws per check of the weyl and equivariance suites
SEMICLASSICAL_THETAS = (1.0, 0.5, 0.25, 0.125, 0.0625)


@dataclass(frozen=True)
class RunConfig:
    """Run parameters: spacetime, optional sigma0 override, grid, seed."""

    dim: int = 4
    metric: tuple = (1, -1, -1, -1)
    sigma0: tuple | None = None
    n: int = 64
    length: float = 8.0
    theta: float = 1.0
    seed: int = 0

    _KNOWN = {"dim", "metric", "sigma0", "grid", "seed"}
    _GRID_KNOWN = {"n", "length", "theta"}

    def __post_init__(self):
        # GridSpec, Spacetime and SkewForm hold the rules: a bad config fails at load
        GridSpec(dim=1, n=self.n, length=self.length, theta=self.theta)
        if self.base_form().dim != self.spacetime().dim:
            raise ValueError(f"sigma0 must be {self.dim}x{self.dim}, got {self.base_form().dim}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(json_value(dict, data, "config")) - cls._KNOWN
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        grid = json_value(dict, data.get("grid", {}), "grid")
        unknown = set(grid) - cls._GRID_KNOWN
        if unknown:
            raise ValueError(f"unknown grid keys: {sorted(unknown)}")
        kwargs = {}
        if "dim" in data:
            kwargs["dim"] = json_value(int, data["dim"], "dim")
        if "metric" in data:
            kwargs["metric"] = json_value([int], data["metric"], "metric")
        elif "dim" in data:
            kwargs["metric"] = tuple([1] + [-1] * (kwargs["dim"] - 1))
        if data.get("sigma0") is not None:
            kwargs["sigma0"] = json_value([[float]], data["sigma0"], "sigma0")
        for key, kind in (("n", int), ("length", float), ("theta", float)):
            if key in grid:
                kwargs[key] = json_value(kind, grid[key], f"grid.{key}")
        if "seed" in data:
            kwargs["seed"] = json_value(int, data["seed"], "seed")
        return cls(**kwargs)

    def spacetime(self) -> Spacetime:
        return Spacetime(self.dim, self.metric)

    def base_form(self) -> SkewForm:
        if self.sigma0 is not None:
            form = SkewForm(np.asarray(self.sigma0))
            form.assert_invertible()
            return form
        return standard_skew(self.spacetime())


def _check(name: str, value: float, tol, mode: str = "le") -> dict:
    if mode == "le":
        ok = value <= tol
    elif mode == "ge":
        ok = value >= tol
    elif mode == "range":
        ok = tol[0] <= value <= tol[1]
    else:
        raise ValueError(mode)
    return {
        "name": name,
        "value": float(value),
        "tol": list(tol) if mode == "range" else float(tol),
        "mode": mode,
        "pass": bool(ok),
    }


def _plane_spacetime() -> Spacetime:
    return Spacetime(2, (1, -1))


def _plane_form() -> SkewForm:
    return standard_skew(_plane_spacetime())


def semiclassical_pair(cfg: RunConfig) -> tuple:
    """The semiclassical Gaussian pair (f, g) on the N=n, L=length, theta=1 plane grid."""
    spec = GridSpec(dim=2, n=cfg.n, length=cfg.length, theta=1.0)
    f = SeparableGaussian((GaussianFactor(0.5, 1.2), GaussianFactor(0.0, 1.3)))
    g = SeparableGaussian((GaussianFactor(-0.4, 1.1), GaussianFactor(0.3, 1.2)))
    return f.sample(spec), g.sample(spec)


def suite_weyl(cfg: RunConfig) -> dict:
    """Exact Weyl relations and associativity in the twisted group algebra."""
    st = cfg.spacetime()
    sigma0 = cfg.base_form()
    rng = np.random.default_rng(cfg.seed)
    forms = [s for _, s in sample_orbit(st, DRAWS, cfg.seed, sigma0)]
    worst_phase = 0.0
    worst_assoc = 0.0
    for sigma in forms:
        alpha = rng.uniform(-1, 1, st.dim)
        beta = rng.uniform(-1, 1, st.dim)
        gamma = rng.uniform(-1, 1, st.dim)
        ua, ub, ug = (weyl.unit_u(v, sigma) for v in (alpha, beta, gamma))
        prod = weyl.mul(ua, ub)
        key = tuple(
            x + y for x, y in zip(weyl.covector_key(alpha), weyl.covector_key(beta))
        )
        a_exact = weyl.key_to_covector(weyl.covector_key(alpha))
        b_exact = weyl.key_to_covector(weyl.covector_key(beta))
        expected = weyl.e(q_form(sigma, a_exact, b_exact))
        if set(prod.terms) != {key}:
            worst_phase = np.inf
        else:
            worst_phase = max(worst_phase, abs(prod.terms[key] - expected))
        left = weyl.mul(weyl.mul(ua, ub), ug)
        right = weyl.mul(ua, weyl.mul(ub, ug))
        keys = set(left.terms) | set(right.terms)
        worst_assoc = max(
            worst_assoc,
            max(abs(left.terms.get(k, 0) - right.terms.get(k, 0)) for k in keys),
        )
    checks = [
        _check("weyl_relation_phase", worst_phase, TOLERANCES["weyl_phase"]),
        _check("generator_associativity", worst_assoc, TOLERANCES["weyl_assoc"]),
    ]
    return {"suite": "weyl", "checks": checks, "pass": all(c["pass"] for c in checks)}


def _gaussian_fibers(sample, spec, rng) -> cov.FiberedFunction:
    fibers = []
    for _ in range(len(sample)):
        g = SeparableGaussian(
            tuple(
                GaussianFactor(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(1.1, 1.5)))
                for _ in range(spec.dim)
            )
        )
        fibers.append(g.sample(spec).values)
    return cov.FiberedFunction(sample, spec, np.stack(fibers))


def suite_equivariance(cfg: RunConfig) -> dict:
    """Phi^alpha equivariance and tau-gamma covariance at roundoff scale."""
    st = _plane_spacetime()
    spec = GridSpec(dim=2, n=cfg.n, length=cfg.length, theta=cfg.theta)
    spec1d = GridSpec(dim=1, n=cfg.n, length=cfg.length, theta=cfg.theta)
    rng = np.random.default_rng(cfg.seed + 1)
    int_alphas = [np.array(a, dtype=float) for a in ((1, 0), (0, 1), (1, 1), (1, -1))]
    worst_phi = 0.0
    for _ in range(DRAWS):
        t1 = random_lorentz(st, rng, max_word=2)
        t2 = random_lorentz(st, rng, max_word=2)
        sample = cov.GroupSample((t1, t2))
        c = float(rng.uniform(-0.3, 0.3))
        w = float(rng.uniform(0.9, 1.3))
        psi = cov.FiberedFunction.from_callable(
            sample, spec1d, lambda t, r: np.exp(-np.pi * (r - c) ** 2 / w**2)
        )
        alpha = int_alphas[int(rng.integers(len(int_alphas)))]
        x = rng.uniform(-0.3, 0.3, 2)
        worst_phi = max(worst_phi, cov.check_phi_equivariance(alpha, x, psi, spec))
    reflections = [parity(st), time_reversal(st)]
    worst_gamma = 0.0
    for _ in range(DRAWS):
        t = random_lorentz(st, rng, max_word=2)
        s = reflections[int(rng.integers(2))]
        sample = cov.GroupSample((t, t.compose(s)))
        f = _gaussian_fibers(sample, spec, rng)
        x = rng.uniform(-0.3, 0.3, 2)
        worst_gamma = max(worst_gamma, cov.check_gamma_covariance(s, x, f))
    checks = [
        _check("phi_equivariance", worst_phi, TOLERANCES["phi_equivariance"]),
        _check("gamma_covariance", worst_gamma, TOLERANCES["gamma_covariance"]),
    ]
    return {
        "suite": "equivariance",
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _block_norm(blocks: np.ndarray) -> float:
    """Spectral norm of a block-diagonal operator from its (N, N, N) blocks."""
    return float(np.linalg.svd(blocks, compute_uv=False).max())


def _adjoint(blocks: np.ndarray) -> np.ndarray:
    return blocks.conj().transpose(0, 2, 1)


def suite_cstar(cfg: RunConfig) -> dict:
    """Representation properties of the left-regular compression.

    Runs at N = 32 with theta = L^2 / 32, so the twist c = theta N / L^2 is 1
    and the lattice twist closes on the torus; otherwise the finite
    compression is not a *-representation in operator norm.  Every quantity
    is taken from the Heisenberg blocks of each L_h, built straight from h
    (operators.left_regular_blocks).  One dense L_f is the spot check:
    block_structure_defect is its off-block share, and dense_blocks_match the
    relative max-abs gap between its blocks and the direct ones.
    """
    sigma = _plane_form()
    n = 32
    spec = GridSpec(dim=2, n=n, length=cfg.length, theta=cfg.length**2 / n)
    f = SeparableGaussian(
        (
            GaussianFactor(0.2, np.sqrt(2.0)),
            GaussianFactor(-0.1, np.sqrt(2.0), 0.1),
        )
    ).sample(spec)
    g = SeparableGaussian(
        (GaussianFactor(-0.3, 1.4, 0.05), GaussianFactor(0.1, 1.5))
    ).sample(spec)
    fs = involution(f)
    # the dense spot check first, while no other blocks are held
    dense, off_block = heisenberg_blocks(build_left_regular_matrix(f, sigma))
    bf, bg, bfg, bfs, bfsf = (
        left_regular_blocks(h, sigma)
        for h in (f, g, star_product(f, g, sigma), fs, star_product(fs, f, sigma))
    )
    dense_gap = float(np.max(np.abs(dense - bf)) / np.max(np.abs(dense)))
    norm_f = _block_norm(bf)
    norm_g = _block_norm(bg)
    norm_fsf = _block_norm(bfsf)
    hom = _block_norm(bfg - bf @ bg) / (norm_f * norm_g)
    adj = _block_norm(bfs - _adjoint(bf)) / norm_f
    cstar = abs(norm_fsf - norm_f**2) / norm_f**2
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (bfsf + _adjoint(bfsf)))))
    checks = [
        _check("block_structure_defect", off_block, TOLERANCES["block_structure"]),
        _check("dense_blocks_match", dense_gap, TOLERANCES["dense_blocks"]),
        _check("homomorphism_defect", hom, TOLERANCES["hom_defect"]),
        _check("adjoint_defect", adj, TOLERANCES["adjoint_defect"]),
        _check("cstar_identity_defect", cstar, TOLERANCES["cstar_defect"]),
        _check(
            "positivity_min_eig",
            min_eig,
            -TOLERANCES["positivity"] * norm_f**2,
            mode="ge",
        ),
    ]
    return {
        "suite": "cstar",
        "grid": {
            "n": n,
            "length": spec.length,
            "theta": spec.theta,
            "twist": twist(spec, sigma),
        },
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def suite_semiclassical(cfg: RunConfig) -> dict:
    """Log-log slopes of the commutative-limit defects D1 and D2."""
    f, g = semiclassical_pair(cfg)
    result = semiclassical_sweep(f, g, _plane_form(), SEMICLASSICAL_THETAS)
    checks = [
        _check("slope_d1", result["slope_d1"], TOLERANCES["slope_d1"], mode="range"),
        _check("slope_d2", result["slope_d2"], TOLERANCES["slope_d2"], mode="range"),
        _check(
            "d2_monotone_decreasing",
            float(
                all(
                    b["d2"] < a["d2"]
                    for a, b in zip(result["rows"], result["rows"][1:])
                )
            ),
            1.0,
            mode="ge",
        ),
    ]
    return {
        "suite": "semiclassical",
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "rows": result["rows"],
    }


def run_suite(name: str, cfg: RunConfig) -> dict:
    if name == "weyl":
        return suite_weyl(cfg)
    if name == "equivariance":
        return suite_equivariance(cfg)
    if name == "cstar":
        return suite_cstar(cfg)
    if name == "semiclassical":
        return suite_semiclassical(cfg)
    if name == "all":
        reports = [run_suite(n, cfg) for n in SUITE_NAMES]
        return {
            "suite": "all",
            "reports": reports,
            "pass": all(r["pass"] for r in reports),
        }
    raise KeyError(f"unknown suite: {name}")
