"""Closed-form continuum oracle for the deformed product, any d and any sigma.

Test functions are separable Gaussians (per-axis center c, width w,
modulation b).  For them the integrand of

    (f x g)(q) = int f(q - S p) ghat(p) e(q.p) dp,    S = theta sigma,

is a Gaussian in p, exp(-pi p^T M p + 2 pi h^T p + kappa), with
A = diag(1/w_f^2), W = diag(w_g), r = q - c_f and

    M     = S^T A S + W^2                     (real, positive definite)
    h     = S^T A r + W^2 b_g + i (q - c_g - S^T b_f)
    kappa = -pi r^T A r + 2 pi i b_f.q - pi b_g^T W^2 b_g + 2 pi i c_g.b_g,

so (f x g)(q) = prod(w_g) det(M)^(-1/2) exp(kappa + pi h^T M^-1 h): one
d x d inverse, vectorized over every evaluation point.  None of the FFT
machinery is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moyalorbit.geometry import SkewForm
from moyalorbit.grids import GridFunction, GridSpec
from moyalorbit.star import relative_l2

# random_gaussian draws: center in +-CENTER_SCALE, width in WIDTH_RANGE,
# modulation frequency in +-FREQ_SCALE
CENTER_SCALE = 0.3
WIDTH_RANGE = (1.1, 1.6)
FREQ_SCALE = 0.15


@dataclass(frozen=True)
class GaussianFactor:
    """One axis of a separable Gaussian: exp(-pi (t-c)^2 / w^2) e(b t)."""

    center: float = 0.0
    width: float = 1.0
    freq: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.center) and np.isfinite(self.freq)):
            raise ValueError(f"center and freq must be finite, got {self.center}, {self.freq}")
        # also false for NaN; __call__ and hat divide and multiply by width**2,
        # and float * overflows to inf where ** raises OverflowError
        if not (0 < self.width < np.inf and 0 < self.width * self.width < np.inf):
            raise ValueError(
                f"width must be positive and finite, and so must its square, got {self.width}"
            )

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(
            -np.pi * (t - self.center) ** 2 / self.width**2
            + 2j * np.pi * self.freq * t
        )

    def hat(self, p):
        """Closed-form Fourier transform under the e(2 pi i t) kernel."""
        p = np.asarray(p, dtype=float)
        u = p - self.freq
        return (
            self.width
            * np.exp(-np.pi * self.width**2 * u**2)
            * np.exp(-2j * np.pi * self.center * u)
        )


@dataclass(frozen=True)
class SeparableGaussian:
    """A product of per-axis Gaussian factors."""

    factors: tuple

    @property
    def dim(self) -> int:
        return len(self.factors)

    def __call__(self, *coords):
        out = 1.0
        for fac, c in zip(self.factors, coords):
            out = out * fac(c)
        return out

    def sample(self, spec: GridSpec) -> GridFunction:
        """self on spec's mesh, one factor per axis.

        Each factor is evaluated on spec.axis() alone (d exps of N points, not
        of N^d), and the tables are multiplied by broadcasting in __call__'s order.
        """
        if self.dim != spec.dim:
            raise ValueError(f"{self.dim} factors on a grid of dim {spec.dim}")
        out = 1.0
        for a, fac in enumerate(self.factors):
            shape = [1] * spec.dim
            shape[a] = spec.n
            out = out * fac(spec.axis()).reshape(shape)
        return GridFunction(spec, out)


def random_gaussian(rng: np.random.Generator, dim: int) -> SeparableGaussian:
    """A seeded random separable Gaussian, concentrated well inside the box."""
    factors = tuple(
        GaussianFactor(
            center=float(rng.uniform(-CENTER_SCALE, CENTER_SCALE)),
            width=float(rng.uniform(*WIDTH_RANGE)),
            freq=float(rng.uniform(-FREQ_SCALE, FREQ_SCALE)),
        )
        for _ in range(dim)
    )
    return SeparableGaussian(factors)


def star_oracle_point(
    f: SeparableGaussian,
    g: SeparableGaussian,
    sigma: SkewForm,
    theta: float,
    q,
):
    """Closed-form (f x g)(q) for q of shape (d,) or (..., d)."""
    cf, wf, bf = np.array([[a.center, a.width, a.freq] for a in f.factors]).T
    cg, wg, bg = np.array([[a.center, a.width, a.freq] for a in g.factors]).T
    q = np.asarray(q, dtype=float)
    if not f.dim == g.dim == sigma.dim == q.shape[-1]:  # else the arrays broadcast silently
        raise ValueError(f"dims differ: f {f.dim}, g {g.dim}, sigma {sigma.dim}, q {q.shape[-1]}")
    s = theta * sigma.matrix
    a = 1.0 / wf**2
    m = s.T @ (a[:, None] * s) + np.diag(wg**2)
    r = q - cf
    h = (a * r) @ s + wg**2 * bg + 1j * (q - cg - bf @ s)
    kappa = (
        -np.pi * (a * r**2).sum(axis=-1)
        + 2j * np.pi * (q @ bf)
        - np.pi * (wg**2 * bg**2).sum()
        + 2j * np.pi * (cg @ bg)
    )
    quad_form = ((h @ np.linalg.inv(m)) * h).sum(axis=-1)
    return np.prod(wg) / np.sqrt(np.linalg.det(m)) * np.exp(kappa + np.pi * quad_form)


def oracle_defect(
    fft_result: GridFunction,
    f: SeparableGaussian,
    g: SeparableGaussian,
    sigma: SkewForm,
) -> float:
    """Relative L2 mismatch between the FFT product and the oracle on every node."""
    spec = fft_result.spec
    vals = star_oracle_point(f, g, sigma, spec.theta, np.moveaxis(spec.mesh(), 0, -1))
    return relative_l2(fft_result, GridFunction(spec, vals))
