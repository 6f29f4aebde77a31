"""Named verification suites with machine-readable reports.

Each suite returns {"suite": name, "checks": [...], "pass": bool} where a
check carries its measured value and the tolerance it was held to.  Every
bound, draw count and theta ladder is a module constant; a RunConfig sets
only the model (spacetime, base form, grid, seed).  The suites are
deterministic for a fixed RunConfig (seeded randomness only).

The table SUITES names every suite for run_suite, `verify --suite` and the
"all" report: a new suite is one suite_<name>(cfg) function plus one SUITES
entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moyalorbit import covariance as cov
from moyalorbit import weyl
from moyalorbit.geometry import (
    SkewForm,
    Spacetime,
    draw_word,
    parity,
    q_form,
    sample_orbit,
    standard_skew,
    time_reversal,
    to_group,
)
from moyalorbit.gridio import json_value
from moyalorbit.grids import GridFunction, GridSpec
from moyalorbit.operators import apply_blocks, left_regular_blocks, twist
from moyalorbit.oracle import GaussianFactor, SeparableGaussian
from moyalorbit.star import involution, semiclassical_sweep, star_product

# The pinned bound of every check: a config sets the model, never the verdict.
TOLERANCES = {
    "weyl_phase": 1e-12,
    "weyl_assoc": 1e-12,
    "phi_equivariance": 1e-9,
    "gamma_covariance": 1e-9,
    "blocks_product": 1e-12,  # relative max-abs gap, L_f eta from the blocks vs f * eta
    "hom_defect": 1e-3,
    "adjoint_defect": 1e-6,
    "cstar_defect": 0.05,
    "positivity": 1e-6,
    "slope_d1": (0.9, 1.1),
    "slope_d2": (1.8, 2.2),
}

DRAWS = 100  # random draws per check of the weyl and equivariance suites
STACK_ENTRIES = 2**17  # grid entries per stacked equivariance pass: 32 fibers of 64^2, 2 MiB
SEMICLASSICAL_THETAS = (1.0, 0.5, 0.25, 0.125, 0.0625)

# The plane model of the equivariance, cstar and semiclassical suites and of `sweep`
PLANE = Spacetime(2, (1, -1))
PLANE_FORM = standard_skew(PLANE)


def _typed_keys(data: dict, kinds: dict, what: str, prefix: str) -> dict:
    """data's values read as the JSON types kinds gives their keys; another key is an error."""
    unknown = set(data) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return {key: json_value(kinds[key], value, prefix + key) for key, value in data.items()}


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

    # each config key, and each key of its "grid" object, with its JSON type
    _KEYS = {"dim": int, "metric": [int], "sigma0": [[float]], "grid": dict, "seed": int}
    _GRID_KEYS = {"n": int, "length": float, "theta": float}

    def __post_init__(self):
        # GridSpec, Spacetime and SkewForm hold the rules: a bad config fails at load
        GridSpec(dim=1, n=self.n, length=self.length, theta=self.theta)
        if self.base_form().dim != self.spacetime().dim:
            raise ValueError(f"sigma0 must be {self.dim}x{self.dim}, got {self.base_form().dim}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = json_value(dict, data, "config")
        if "sigma0" in data and data["sigma0"] is None:  # null: the standard form
            del data["sigma0"]
        kwargs = _typed_keys(data, cls._KEYS, "config", "")
        kwargs.update(_typed_keys(kwargs.pop("grid", {}), cls._GRID_KEYS, "grid", "grid."))
        if "dim" in kwargs and "metric" not in kwargs:
            kwargs["metric"] = tuple([1] + [-1] * (kwargs["dim"] - 1))
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
    else:  # "range"
        ok = tol[0] <= value <= tol[1]
    return {
        "name": name,
        "value": float(value),
        "tol": list(tol) if mode == "range" else float(tol),
        "mode": mode,
        "pass": bool(ok),
    }


def _report(name: str, checks: list, **extra) -> dict:
    return {"suite": name, "checks": checks, "pass": all(c["pass"] for c in checks), **extra}


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
    return _report("weyl", checks)


def _random_gaussian(dim: int, rng) -> SeparableGaussian:
    return SeparableGaussian(
        tuple(
            GaussianFactor(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(1.1, 1.5)))
            for _ in range(dim)
        )
    )


def _stacked_passes(draws: list, spec: GridSpec):
    """(key, sample, fiber items, x per fiber) for each stacked pass over draws.

    A draw is (key, transforms, one item per transform, x), and each transform
    is one fiber on spec.  The draws of each key run in order, in chunks of at
    most STACK_ENTRIES grid entries.
    """
    for key in sorted({d[0] for d in draws}):
        group = [d for d in draws if d[0] == key]
        step = max(1, STACK_ENTRIES // (len(group[0][1]) * spec.size))
        for chunk in (group[i : i + step] for i in range(0, len(group), step)):
            sample = cov.GroupSample(tuple(t for d in chunk for t in d[1]))
            items = [item for d in chunk for item in d[2]]
            yield key, sample, items, [d[3] for d in chunk for _ in d[1]]


def suite_equivariance(cfg: RunConfig) -> dict:
    """Phi^alpha equivariance and tau-gamma covariance at roundoff scale.

    Every draw is made first, Phi's then gamma's, and their 3 * DRAWS Lorentz
    words are projected to the group in one stack.  The Phi draws of one
    covector alpha, and the gamma draws of one reflection S, then run as
    stacked FiberedFunction passes (_stacked_passes).  Each value is the
    largest defect over the draws, as one pass per draw gives it.
    """
    spec = GridSpec(dim=2, n=cfg.n, length=cfg.length, theta=cfg.theta)
    spec1d = GridSpec(dim=1, n=cfg.n, length=cfg.length, theta=cfg.theta)
    rng = np.random.default_rng(cfg.seed + 1)
    int_alphas = [np.array(a, dtype=float) for a in ((1, 0), (0, 1), (1, 1), (1, -1))]
    words = []  # every draw's words, in drawing order: 2 per Phi draw, then 1 per gamma draw
    phi_items = []  # (alpha index, psi on the line per fiber, x)
    for _ in range(DRAWS):
        words += [draw_word(PLANE, rng, 2) for _ in range(2)]
        c = float(rng.uniform(-0.3, 0.3))
        w = float(rng.uniform(0.9, 1.3))
        line = np.exp(-np.pi * (spec1d.axis() - c) ** 2 / w**2)
        alpha = int(rng.integers(len(int_alphas)))
        x = rng.uniform(-0.3, 0.3, 2)
        phi_items.append((alpha, (line, line), x))
    gamma_items = []  # (reflection index, a Gaussian per fiber, x)
    for _ in range(DRAWS):
        words.append(draw_word(PLANE, rng, 2))
        k = int(rng.integers(2))
        gaussians = [_random_gaussian(spec.dim, rng) for _ in range(2)]
        x = rng.uniform(-0.3, 0.3, 2)
        gamma_items.append((k, gaussians, x))
    transforms = to_group(PLANE, words)
    pairs = zip(transforms[: 2 * DRAWS : 2], transforms[1 : 2 * DRAWS : 2])
    # (alpha index, (t1, t2), lines, x) and (reflection index, (t, t S), gaussians, x)
    phi_draws = [(a, pair, lines, x) for pair, (a, lines, x) in zip(pairs, phi_items)]
    reflections = [parity(PLANE), time_reversal(PLANE)]
    gamma_draws = [
        (k, (t, t.compose(reflections[k])), gaussians, x)
        for t, (k, gaussians, x) in zip(transforms[2 * DRAWS :], gamma_items)
    ]
    worst_phi = 0.0
    for alpha, sample, lines, xs in _stacked_passes(phi_draws, spec):
        psi = cov.FiberedFunction(sample, spec1d, lines)
        worst_phi = max(worst_phi, cov.check_phi_equivariance(int_alphas[alpha], xs, psi, spec))
    worst_gamma = 0.0
    for k, sample, gaussians, xs in _stacked_passes(gamma_draws, spec):
        f = cov.FiberedFunction(sample, spec, [g.sample(spec).values for g in gaussians])
        worst_gamma = max(worst_gamma, cov.check_gamma_covariance(reflections[k], xs, f, 2))
    checks = [
        _check("phi_equivariance", worst_phi, TOLERANCES["phi_equivariance"]),
        _check("gamma_covariance", worst_gamma, TOLERANCES["gamma_covariance"]),
    ]
    return _report("equivariance", checks)


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
    (operators.left_regular_blocks).  blocks_match_product ties the blocks of
    L_f to the product: L_f eta applied through them (operators.apply_blocks)
    against f * eta, as a relative max-abs gap, on a full-band complex noise
    eta.  The seed enters only through eta, so only that value moves with it.
    """
    sigma = PLANE_FORM
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
    rng = np.random.default_rng(cfg.seed)
    eta = GridFunction(spec, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    fs = involution(f)
    bf, bg, bfg, bfs, bfsf = (
        left_regular_blocks(h, sigma)
        for h in (f, g, star_product(f, g, sigma), fs, star_product(fs, f, sigma))
    )
    f_eta = star_product(f, eta, sigma)
    product_gap = (apply_blocks(bf, eta, sigma) - f_eta).max_abs() / f_eta.max_abs()
    norm_f = _block_norm(bf)
    norm_g = _block_norm(bg)
    norm_fsf = _block_norm(bfsf)
    hom = _block_norm(bfg - bf @ bg) / (norm_f * norm_g)
    adj = _block_norm(bfs - _adjoint(bf)) / norm_f
    cstar = abs(norm_fsf - norm_f**2) / norm_f**2
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (bfsf + _adjoint(bfsf)))))
    checks = [
        _check("blocks_match_product", product_gap, TOLERANCES["blocks_product"]),
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
    grid = {"n": n, "length": spec.length, "theta": spec.theta, "twist": twist(spec, sigma)}
    return _report("cstar", checks, grid=grid)


def suite_semiclassical(cfg: RunConfig) -> dict:
    """Log-log slopes of the commutative-limit defects D1 and D2."""
    f, g = semiclassical_pair(cfg)
    result = semiclassical_sweep(f, g, PLANE_FORM, SEMICLASSICAL_THETAS)
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
    return _report("semiclassical", checks, rows=result["rows"])


SUITES = {
    "weyl": suite_weyl,
    "equivariance": suite_equivariance,
    "cstar": suite_cstar,
    "semiclassical": suite_semiclassical,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, cfg: RunConfig) -> dict:
    """The report of suite name, or of every suite in SUITES order for "all"."""
    if name == "all":
        reports = [run_suite(n, cfg) for n in SUITES]
        return {"suite": "all", "reports": reports, "pass": all(r["pass"] for r in reports)}
    if name not in SUITES:
        raise KeyError(f"unknown suite: {name}")
    # looked up by name when called, so a wrapper installed on the module (as
    # perfbench/tracer.py installs one) is the one run
    return globals()[SUITES[name].__name__](cfg)
