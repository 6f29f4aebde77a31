"""Named verification suites with machine-readable reports.

Each suite returns {"suite": name, "checks": [...], "pass": bool} where a
check carries its measured value and the tolerance it was held to.  Every
bound, draw count and theta ladder is a module constant; a RunConfig sets
only the model (spacetime, base form, grid, seed).  The suites are
deterministic for a fixed RunConfig (seeded randomness only).

The table SUITES names every suite for run_suite, `verify --suite` and the
"all" report: a new suite is one suite_<name>(cfg) function plus one SUITES
entry.  RunConfig.from_dict types a config against the table RunConfig._KEYS
with gridio.json_value; RunConfig itself checks the values and derives the
default metric (1, -1, ..., -1) from dim.
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
from moyalorbit.gridio import MAX_DIM, json_value
from moyalorbit.grids import GridFunction, GridSpec
from moyalorbit.operators import apply_blocks, left_regular_blocks, twist
from moyalorbit.oracle import GaussianFactor, SeparableGaussian, random_gaussian
from moyalorbit.star import involution, semiclassical_sweep, star_product

# The pinned bound of every check, keyed by the name its report prints, as
# (mode, bound): "le" passes value <= bound, "ge" value >= bound and "range"
# lo <= value <= hi.  A config sets the model, never the verdict.
TOLERANCES = {
    "weyl_relation_phase": ("le", 1e-12),
    "generator_associativity": ("le", 1e-12),
    "phi_equivariance": ("le", 1e-9),
    "gamma_covariance": ("le", 1e-9),
    # relative max-abs gap, L_f eta from the blocks vs f * eta
    "blocks_match_product": ("le", 1e-12),
    "homomorphism_defect": ("le", 1e-3),
    "adjoint_defect": ("le", 1e-6),
    "cstar_identity_defect": ("le", 0.05),
    "positivity_min_eig": ("ge", -1e-6),  # in units of ||L_f||^2
    "slope_d1": ("range", (0.9, 1.1)),
    "slope_d2": ("range", (1.8, 2.2)),
    "d2_monotone_decreasing": ("ge", 1.0),
}

DRAWS = 100  # random draws per check of the weyl and equivariance suites
STACK_ENTRIES = 2**15  # grid entries per stacked equivariance pass: 8 fibers of 64^2, 0.5 MiB
SEMICLASSICAL_THETAS = (1.0, 0.5, 0.25, 0.125, 0.0625)

# The plane model of the equivariance, cstar and semiclassical suites and of `sweep`
PLANE = Spacetime(2, (1, -1))
PLANE_FORM = standard_skew(PLANE)


def _check_dim(dim: int) -> None:
    if not 0 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 0..{MAX_DIM}, the .moya header's u8, got {dim}")


@dataclass(frozen=True)
class RunConfig:
    """Run parameters: spacetime, optional sigma0 override, grid, seed."""

    dim: int = 4
    metric: tuple | None = None  # None: (1, -1, ..., -1)
    sigma0: tuple | None = None
    n: int = 64
    length: float = 8.0
    theta: float = 1.0
    seed: int = 0

    # each config key, and each key of its "grid" object, with its JSON type
    _KEYS = {"dim": int, "metric": [int], "sigma0": [[float]], "seed": int}
    _KEYS["grid"] = {"n": int, "length": float, "theta": float}

    def __post_init__(self):
        # GridSpec, Spacetime and SkewForm hold the rules: a bad config fails at load
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _check_dim(self.dim)  # before the metric's list is built
        if self.metric is None:
            object.__setattr__(self, "metric", tuple([1] + [-1] * (self.dim - 1)))
        GridSpec(dim=1, n=self.n, length=self.length, theta=self.theta)
        if self.base_form().dim != self.spacetime().dim:
            raise ValueError(f"sigma0 must be {self.dim}x{self.dim}, got {self.base_form().dim}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = json_value(dict, data, "config")
        if data.get("sigma0", ()) is None:  # null: the standard form
            del data["sigma0"]
        kwargs = json_value(cls._KEYS, data, "config")
        kwargs.update(kwargs.pop("grid", {}))
        return cls(**kwargs)

    def spacetime(self) -> Spacetime:
        return Spacetime(self.dim, self.metric)

    def base_form(self) -> SkewForm:
        if self.sigma0 is not None:
            form = SkewForm(np.asarray(self.sigma0))
            form.assert_invertible()
            return form
        return standard_skew(self.spacetime())


def _check(name: str, value: float, unit: float = 1.0) -> dict:
    """The report entry of check name: value against its TOLERANCES row, the bound times unit."""
    mode, bound = TOLERANCES[name]
    if mode == "range":
        tol = [b * unit for b in bound]
        ok = tol[0] <= value <= tol[1]
    else:
        tol = float(bound * unit)
        ok = value <= tol if mode == "le" else value >= tol
    return {"name": name, "value": float(value), "tol": tol, "mode": mode, "pass": bool(ok)}


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
        (ka,), (kb,) = ua.terms, ub.terms  # the quantized alpha and beta
        key = tuple(x + y for x, y in zip(ka, kb))
        a_exact, b_exact = weyl.key_to_covector(ka), weyl.key_to_covector(kb)
        expected = weyl.e(q_form(sigma, a_exact, b_exact))
        if set(prod.terms) != {key}:
            worst_phase = np.inf
        else:
            worst_phase = max(worst_phase, abs(prod.terms[key] - expected))
        left = weyl.mul(prod, ug)
        right = weyl.mul(ua, weyl.mul(ub, ug))
        keys = set(left.terms) | set(right.terms)
        worst_assoc = max(
            worst_assoc,
            max(abs(left.terms.get(k, 0) - right.terms.get(k, 0)) for k in keys),
        )
    checks = [
        _check("weyl_relation_phase", worst_phase),
        _check("generator_associativity", worst_assoc),
    ]
    return _report("weyl", checks)


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
            sample = tuple(t for d in chunk for t in d[1])
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
        gaussians = [random_gaussian(rng, spec.dim) for _ in range(2)]
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
        _check("phi_equivariance", worst_phi),
        _check("gamma_covariance", worst_gamma),
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
    # each product's blocks (0.5 MiB) are built right before their checks and
    # freed after them: a traced run peaks at about 2.5 MiB, 3.8 with all held
    bf, bg = left_regular_blocks(f, sigma), left_regular_blocks(g, sigma)
    f_eta = star_product(f, eta, sigma)
    product_gap = (apply_blocks(bf, eta, sigma) - f_eta).max_abs() / f_eta.max_abs()
    norm_f = _block_norm(bf)
    norm_g = _block_norm(bg)
    hom = _block_norm(left_regular_blocks(star_product(f, g, sigma), sigma) - bf @ bg)
    hom /= norm_f * norm_g
    del bg
    fs = involution(f)
    adj = _block_norm(left_regular_blocks(fs, sigma) - _adjoint(bf)) / norm_f
    del bf
    bfsf = left_regular_blocks(star_product(fs, f, sigma), sigma)
    cstar = abs(_block_norm(bfsf) - norm_f**2) / norm_f**2
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (bfsf + _adjoint(bfsf)))))
    checks = [
        _check("blocks_match_product", product_gap),
        _check("homomorphism_defect", hom),
        _check("adjoint_defect", adj),
        _check("cstar_identity_defect", cstar),
        _check("positivity_min_eig", min_eig, norm_f**2),
    ]
    grid = {"n": n, "length": spec.length, "theta": spec.theta, "twist": twist(spec, sigma)}
    return _report("cstar", checks, grid=grid)


def suite_semiclassical(cfg: RunConfig) -> dict:
    """Log-log slopes of the commutative-limit defects D1 and D2."""
    f, g = semiclassical_pair(cfg)
    result = semiclassical_sweep(f, g, PLANE_FORM, SEMICLASSICAL_THETAS)
    rows = result["rows"]
    decreasing = all(b["d2"] < a["d2"] for a, b in zip(rows, rows[1:]))
    checks = [
        _check("slope_d1", result["slope_d1"]),
        _check("slope_d2", result["slope_d2"]),
        _check("d2_monotone_decreasing", float(decreasing)),
    ]
    return _report("semiclassical", checks, rows=rows)


SUITES = {
    "weyl": suite_weyl,
    "equivariance": suite_equivariance,
    "cstar": suite_cstar,
    "semiclassical": suite_semiclassical,
}


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
