"""Group actions on fibered functions over a finite sample of transforms.

A FiberedFunction assigns one GridFunction to each transform in a finite
group sample; all actions here are precompositions with the point maps
(x-translation tau, right translation gamma), so the pinned conventions are

    (tau_x F)(T, q) = F(T, q + T x)
    (gamma_S F)(T, q) = F(T S^-1, q)
    (rho_x psi)(T, r) = psi(T, r + alpha(T x))

which satisfy tau_x gamma_S = gamma_S tau_Sx and make the cylinder map
Phi^alpha equivariant exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moyalorbit.geometry import LorentzTransform, SkewForm, act_on_form
from moyalorbit.grids import (
    GridFunction,
    GridSpec,
    forward_array,
    separable_waves,
    shift_batch,
)
from moyalorbit.star import relative_l2, star_product

MATCH_TOL = 1e-9  # max-entry distance at which GroupSample.index_of matches
MODULUS_POINTS = 4096
MODULUS_RADIUS = 20.0


@dataclass(frozen=True)
class GroupSample:
    """A finite, nonempty list of transforms, optionally flagged as bounded."""

    transforms: tuple
    bounded_flag: bool = False
    bound: float | None = None

    def __post_init__(self):
        if len(self.transforms) == 0:
            raise ValueError("group sample must be nonempty")
        if self.bounded_flag:
            top = max(np.linalg.norm(t.matrix, 2) for t in self.transforms)
            if self.bound is None or top > self.bound:
                raise ValueError("bounded_flag requires max operator norm <= bound")

    def __len__(self) -> int:
        return len(self.transforms)

    def index_of(self, matrix: np.ndarray) -> int:
        for i, t in enumerate(self.transforms):
            if np.max(np.abs(t.matrix - matrix)) <= MATCH_TOL:
                return i
        raise KeyError("transform not found in sample")


@dataclass(frozen=True)
class FiberedFunction:
    """One GridFunction per sample transform, sharing a single GridSpec."""

    sample: GroupSample
    fibers: tuple

    def __post_init__(self):
        if len(self.fibers) != len(self.sample):
            raise ValueError("one fiber per transform required")
        spec = self.fibers[0].spec
        if any(f.spec != spec for f in self.fibers):
            raise ValueError("fibers must share one GridSpec")

    @property
    def spec(self) -> GridSpec:
        return self.fibers[0].spec

    def max_abs_diff(self, other: "FiberedFunction") -> float:
        return max(
            float(np.max(np.abs(a.values - b.values)))
            for a, b in zip(self.fibers, other.fibers)
        )


@dataclass(frozen=True)
class RealLineFunction:
    """Per-fiber 1-D periodic grid function psi(T, r), r in [-L/2, L/2)."""

    sample: GroupSample
    spec1d: GridSpec
    values: np.ndarray  # (n_fibers, N)

    def __post_init__(self):
        if self.spec1d.dim != 1:
            raise ValueError("spec1d must be one-dimensional")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (len(self.sample), self.spec1d.n):
            raise ValueError("values must have shape (n_fibers, N)")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, sample: GroupSample, spec1d: GridSpec, fn) -> "RealLineFunction":
        r = spec1d.axis()
        vals = np.stack([np.asarray(fn(t, r), dtype=complex) for t in sample.transforms])
        return cls(sample, spec1d, vals)


def tau_act(x, f: FiberedFunction) -> FiberedFunction:
    """(tau_x F)(T, q) = F(T, q + T x): every fiber in one phase-ramp batch."""
    shifts = np.stack([t.matrix @ x for t in f.sample.transforms])
    fhat = forward_array(np.stack([fib.values for fib in f.fibers]), f.spec)
    values = shift_batch(fhat, f.spec, shifts)
    return FiberedFunction(f.sample, tuple(GridFunction(f.spec, v) for v in values))


def gamma_act(s: LorentzTransform, f: FiberedFunction) -> FiberedFunction:
    """(gamma_S F)(T, q) = F(T S^-1, q); sample must contain each T S^-1."""
    s_inv = s.inverse().matrix
    fibers = []
    for t in f.sample.transforms:
        j = f.sample.index_of(t.matrix @ s_inv)
        fibers.append(f.fibers[j])
    return FiberedFunction(f.sample, tuple(fibers))


def rho_act(alpha, x, psi: RealLineFunction) -> RealLineFunction:
    """(rho_x psi)(T, r) = psi(T, r + alpha(T x)): every fiber in one 1-D batch."""
    alpha = np.asarray(alpha, dtype=float)
    shifts = np.array([[alpha @ (t.matrix @ x)] for t in psi.sample.transforms])
    values = shift_batch(forward_array(psi.values, psi.spec1d), psi.spec1d, shifts)
    return RealLineFunction(psi.sample, psi.spec1d, values)


def phi_alpha(alpha, psi: RealLineFunction, grid: GridSpec) -> FiberedFunction:
    """(Phi^alpha psi)(T, q) = psi(T, alpha(q)), by spectral interpolation."""
    spec1d = psi.spec1d
    if grid.length != spec1d.length:
        raise ValueError("grid and line function box lengths must agree")
    coeffs = forward_array(psi.values, spec1d) * spec1d.dx  # (n_fibers, N)
    # e(alpha(q) p) = prod_a e(p alpha_a q_a): one table [p, q] for every fiber
    waves = separable_waves(np.outer(spec1d.dual_axis(), alpha), grid.axis())
    values = np.tensordot(coeffs, waves, axes=(1, 0)) * spec1d.dp
    return FiberedFunction(psi.sample, tuple(GridFunction(grid, v) for v in values))


def check_phi_equivariance(alpha, x, psi: RealLineFunction, grid: GridSpec) -> float:
    """Max-entry defect of Phi^alpha(rho_x psi) = tau_x(Phi^alpha psi)."""
    lhs = phi_alpha(alpha, rho_act(alpha, x, psi), grid)
    rhs = tau_act(x, phi_alpha(alpha, psi, grid))
    return lhs.max_abs_diff(rhs)


def check_gamma_covariance(s: LorentzTransform, x, f: FiberedFunction) -> float:
    """Max-entry defect of tau_x gamma_S = gamma_S tau_Sx."""
    x = np.asarray(x, dtype=float)
    lhs = tau_act(x, gamma_act(s, f))
    rhs = gamma_act(s, tau_act(s.matrix @ x, f))
    return lhs.max_abs_diff(rhs)


def restrict_to_E(f: FiberedFunction, subset) -> FiberedFunction:
    """Restriction to a nonempty subset of fiber indices."""
    subset = list(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    sample = GroupSample(
        tuple(f.sample.transforms[i] for i in subset),
        f.sample.bounded_flag,
        f.sample.bound,
    )
    return FiberedFunction(sample, tuple(f.fibers[i] for i in subset))


def modulus_of_continuity(alpha, phi, sample: GroupSample, xs) -> list:
    """sup over T in the sample and r of |phi(r - alpha(Tx)) - phi(r)| per x.

    phi is a callable on the real line, sampled at MODULUS_POINTS points of
    [-MODULUS_RADIUS, MODULUS_RADIUS].  For a bounded sample and Lipschitz phi
    the modulus is <= Lip * sup|alpha^t T| * |x|; along an unbounded boost
    sequence it need not vanish as x -> 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    r = np.linspace(-MODULUS_RADIUS, MODULUS_RADIUS, MODULUS_POINTS)
    base = np.asarray(phi(r))
    out = []
    for x in xs:
        x = np.asarray(x, dtype=float)
        worst = 0.0
        for t in sample.transforms:
            a = float(alpha @ (t.matrix @ x))
            worst = max(worst, float(np.max(np.abs(phi(r - a) - base))))
        out.append({"x": x.tolist(), "modulus": worst})
    return out


def fibered_star_product(
    f: FiberedFunction, g: FiberedFunction, sigma0: SkewForm
) -> FiberedFunction:
    """Fiberwise star product; fiber T deforms along T sigma0 T^t."""
    if f.spec != g.spec:
        raise ValueError("grid specs do not match")
    fibers = []
    for t, ff, gf in zip(f.sample.transforms, f.fibers, g.fibers):
        fibers.append(star_product(ff, gf, act_on_form(t, sigma0)))
    return FiberedFunction(f.sample, tuple(fibers))


def check_pointwise_theorem(
    alpha,
    psi1: RealLineFunction,
    psi2: RealLineFunction,
    sigma0: SkewForm,
    grid: GridSpec,
    alpha2=None,
) -> float:
    """Max per-fiber relative L2 defect of Phi(psi1) x Phi(psi2) = Phi(psi1 psi2).

    With alpha2 set (a different covector on psi2's side) this is the
    negative control: the product is then genuinely deformed.
    """
    a2 = alpha if alpha2 is None else alpha2
    f1 = phi_alpha(alpha, psi1, grid)
    f2 = phi_alpha(a2, psi2, grid)
    prod = fibered_star_product(f1, f2, sigma0)
    return max(
        relative_l2(fib, c1 * c2) for fib, c1, c2 in zip(prod.fibers, f1.fibers, f2.fibers)
    )


def lift_from_sigma(h, sample: GroupSample, sigma0: SkewForm) -> FiberedFunction:
    """Fiber T -> h(T sigma0 T^t) for h defined on the sampled orbit points."""
    fibers = tuple(h(act_on_form(t, sigma0)) for t in sample.transforms)
    return FiberedFunction(sample, fibers)
