"""Independent adaptive-quadrature oracle for the deformed product.

Test functions are separable Gaussians (per-axis center, width, modulation).
In d = 2 every skew form is s * [[0,1],[-1,0]], so the single-integral
formula factorizes into two 1-D integrals per evaluation point:

    (f x g)(q) = [int f2(q2 + th s p1) g1hat(p1) e(q1 p1) dp1]
               * [int f1(q1 - th s p2) g2hat(p2) e(q2 p2) dp2].

Each factor is integrated adaptively on the real line (scipy.integrate.quad),
using the closed-form Gaussian Fourier transform for ghat.  None of the FFT
machinery is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from moyalorbit.geometry import SkewForm
from moyalorbit.grids import GridFunction, GridSpec

QUAD_TOL = 1e-11  # absolute and relative tolerance of each 1-D quad
ORACLE_STRIDE = 8  # oracle_defect compares every 8th node per axis
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
        return GridFunction.from_callable(spec, self)


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


def _sigma_scale(sigma: SkewForm) -> float:
    """The scalar s with sigma = s [[0,1],[-1,0]] (any 2x2 skew form)."""
    if sigma.dim != 2:
        raise ValueError("oracle supports d = 2 only")
    return float(sigma.matrix[0, 1])


def _complex_quad(fn) -> complex:
    kw = dict(epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    re = quad(lambda t: fn(t).real, -np.inf, np.inf, **kw)[0]
    im = quad(lambda t: fn(t).imag, -np.inf, np.inf, **kw)[0]
    return complex(re, im)


def star_oracle_point(
    f: SeparableGaussian,
    g: SeparableGaussian,
    sigma: SkewForm,
    theta: float,
    q,
) -> complex:
    """Adaptive-quadrature value of (f x g)(q) for d = 2 separable Gaussians."""
    s = _sigma_scale(sigma)
    q1, q2 = float(q[0]), float(q[1])
    f1, f2 = f.factors
    g1, g2 = g.factors

    def int1(p1):
        return f2(q2 + theta * s * p1) * g1.hat(p1) * np.exp(2j * np.pi * q1 * p1)

    def int2(p2):
        return f1(q1 - theta * s * p2) * g2.hat(p2) * np.exp(2j * np.pi * q2 * p2)

    return _complex_quad(int1) * _complex_quad(int2)


def oracle_defect(
    fft_result: GridFunction,
    f: SeparableGaussian,
    g: SeparableGaussian,
    sigma: SkewForm,
) -> float:
    """Relative L2 mismatch between the FFT product and the oracle subgrid."""
    spec = fft_result.spec
    axis = spec.axis()[::ORACLE_STRIDE]
    vals = np.array(
        [star_oracle_point(f, g, sigma, spec.theta, (q1, q2)) for q1 in axis for q2 in axis]
    )
    sub = fft_result.values[::ORACLE_STRIDE, ::ORACLE_STRIDE].reshape(-1)
    return float(np.linalg.norm(sub - vals) / np.linalg.norm(vals))
