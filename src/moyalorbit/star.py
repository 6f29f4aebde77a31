"""The FFT-evaluated deformed product and its derived operations.

The oscillatory double integral defining the deformed product is never
discretized directly; the computational definition is the absolutely
convergent Fourier-reduced single integral

    (f x g)(q) = int f(q - theta sigma p) ghat(p) e(q.p) dp,

which on the lattice reads

    out(q) = (dp^d / N^d) sum_{k,p} F(k) ghat(p) e(-theta k.sigma p) e(q.(k + p))

with F the unweighted transform of f and ghat carrying dx^d.  Shifts are
band-limited phase ramps, so results need no commensurability between
sigma and the lattice.  Two evaluation paths, chosen by dimension:

- d = 2: every skew form is s J, so the phase e(-theta s (k1 p2 - k2 p1))
  splits into a (p1, k2) and a (k1, p2) factor.  Each factor is a 1-D
  transform along axis 2, their product is one N^3 array, and a fold over
  k1 + p1 (exact mod N on the centered lattice, N even) leaves one 1-D
  transform along axis 1: O(N^3 log N) work and N^2 exps.
- other d (general sigma): per-dual-node accumulation, O(N^{2d} log N)
  work, with every ramp and plane wave assembled from per-axis exp tables
  (d tables of shape (chunk, N) per batch and the N x N table of
  grids.plane_waves) instead of N^{2d} exps.
"""

from __future__ import annotations

import numpy as np

from moyalorbit.geometry import SkewForm, q_form
from moyalorbit.grids import (
    GridFunction,
    GridSpec,
    fft_forward,
    forward_array,
    inverse_array,
    modulation,
    plane_waves,
    shift,
    shift_batch,
    spectral_gradient,
)

# Dual nodes per accumulation batch; fixed so reduction order is bit-stable.
_CHUNK = 128


def star_product(f: GridFunction, g: GridFunction, sigma: SkewForm) -> GridFunction:
    """Deformed product of two grid functions at deformation theta * sigma."""
    if f.spec != g.spec:
        raise ValueError("grid specs do not match")
    spec = f.spec
    if sigma.dim != spec.dim:
        raise ValueError("skew form dimension mismatch")
    ghat = fft_forward(g).values  # carries dx^d
    fhat = forward_array(f.values, spec)  # unweighted
    if spec.dim == 2:
        out = _star_plane(fhat, ghat, spec, sigma.matrix[0, 1])
    else:
        out = _star_nodes(fhat, ghat, spec, sigma)
    return GridFunction(spec, out)


def _star_plane(fhat: np.ndarray, ghat: np.ndarray, spec: GridSpec, s: float) -> np.ndarray:
    """d = 2 product for sigma = s J by the exact axis split."""
    n = spec.n
    line = GridSpec(dim=1, n=n, length=spec.length)
    p = spec.dual_axis()
    r = np.exp(2j * np.pi * spec.theta * s * np.outer(p, p))  # R[p1, k2]
    a = inverse_array(fhat[:, None, :] * r[None, :, :], line)  # [k1, p1, q2]
    b = inverse_array(ghat[None, :, :] * r.conj()[:, None, :], line)  # [k1, p1, q2]
    # e(q1 (k1 + p1)) has period N/L in k1 + p1 on the grid, so k1 + p1 folds
    # exactly onto the dual node with index (i_k1 + i_p1 - N/2) mod N.
    i = np.arange(n)
    p1_of = (i[None, :] - i[:, None] + n // 2) % n  # [i_k1, j] -> i_p1
    folded = np.take_along_axis(a * b, p1_of[:, :, None], axis=1).sum(axis=0)  # [j, q2]
    return inverse_array(folded.T, line).T * (n * spec.dp**2)


def _star_nodes(
    fhat: np.ndarray, ghat: np.ndarray, spec: GridSpec, sigma: SkewForm
) -> np.ndarray:
    """Any d: accumulate over dual nodes p, with separable ramps and waves."""
    nodes = spec.dual_nodes()  # fixed row-major order
    index = np.arange(nodes.shape[0])
    weights = ghat.reshape(-1) * spec.dp**spec.dim
    out = np.zeros((spec.n,) * spec.dim, dtype=complex)
    for start in range(0, nodes.shape[0], _CHUNK):
        batch = slice(start, start + _CHUNK)
        # f(q - theta sigma p) = (shift by -theta sigma p)(q)
        shifts = -spec.theta * (sigma.matrix @ nodes[batch].T).T
        shifted = shift_batch(fhat, spec, shifts)
        wave = plane_waves(spec, index[batch])
        out += np.einsum("c,c...->...", weights[batch], shifted * wave)
    return out


def involution(f: GridFunction) -> GridFunction:
    """Pointwise complex conjugation."""
    return f.conj()


def weyl_action(alpha, f: GridFunction, sigma: SkewForm) -> GridFunction:
    """q -> e(q.alpha) f(q + theta sigma alpha): left product by u_alpha."""
    alpha = np.asarray(alpha, dtype=float)
    spec = f.spec
    shifted = shift(f, spec.theta * (sigma.matrix @ alpha))
    return GridFunction(spec, modulation(spec, alpha) * shifted.values)


def star_commutator(f: GridFunction, g: GridFunction, sigma: SkewForm) -> GridFunction:
    return star_product(f, g, sigma) - star_product(g, f, sigma)


def inner_product_B(xi: GridFunction, eta: GridFunction) -> complex:
    """Riemann-sum inner product int conj(xi) eta with weight dx^d."""
    if xi.spec != eta.spec:
        raise ValueError("grid specs do not match")
    return complex(np.sum(np.conj(xi.values) * eta.values) * xi.spec.dx**xi.spec.dim)


def poisson_bracket(f: GridFunction, g: GridFunction, sigma: SkewForm) -> GridFunction:
    """{f, g}_sigma = sum_jk sigma_jk (d_j f)(d_k g), spectral derivatives."""
    if f.spec != g.spec:
        raise ValueError("grid specs do not match")
    df = spectral_gradient(f)
    dg = spectral_gradient(g)
    out = np.zeros_like(f.values)
    m = sigma.matrix
    for j in range(f.spec.dim):
        for k in range(f.spec.dim):
            if m[j, k] != 0.0:
                out = out + m[j, k] * df[j].values * dg[k].values
    return GridFunction(f.spec, out)


def commutator_constant(theta: float, sigma: SkewForm, alpha, beta) -> complex:
    """Interior value of [alpha(q) w, beta(q) w]_star on a flat window.

    Re-derived from the single-integral formula: expanding
    f(q - theta sigma p) to first order and using
    int p_j ghat(p) e(q.p) dp = (d_j g)/(2 pi i) gives
    [f, g] = -(theta / pi i) sum_jk sigma_jk d_j f d_k g + O(theta^3),
    which for linear coordinates equals (theta / pi i) Q_ab.
    """
    return (theta / (np.pi * 1j)) * q_form(sigma, alpha, beta)


def semiclassical_defects(
    f: GridFunction, g: GridFunction, sigma: SkewForm, theta: float
) -> tuple:
    """(D1, D2) at a given theta.

    D1 = ||f *_th g - f g||_2.
    D2 = ||(1/th)(f *_th g - g *_th f) + (1/pi i) {f, g}_sigma||_2; the sign
    matches the re-derived first-order commutator term above.
    """
    spec = f.spec.with_theta(theta)
    ft = GridFunction(spec, f.values)
    gt = GridFunction(spec, g.values)
    fg = star_product(ft, gt, sigma)
    gf = star_product(gt, ft, sigma)
    d1 = (fg - ft * gt).norm2()
    bracket = poisson_bracket(ft, gt, sigma)
    resid = (1.0 / theta) * (fg - gf) + (1.0 / (np.pi * 1j)) * bracket
    return d1, resid.norm2()


def semiclassical_sweep(
    f: GridFunction, g: GridFunction, sigma: SkewForm, thetas
) -> dict:
    """D1 and D2 across a decreasing theta list, with fitted log-log slopes."""
    thetas = [float(t) for t in thetas]
    if any(t <= 0 for t in thetas) or any(b >= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("thetas must be positive and strictly decreasing")
    rows = []
    for t in thetas:
        d1, d2 = semiclassical_defects(f, g, sigma, t)
        rows.append({"theta": t, "d1": d1, "d2": d2})
    if len(rows) >= 2:
        logt = np.log([r["theta"] for r in rows])
        slope_d1 = float(np.polyfit(logt, np.log([r["d1"] for r in rows]), 1)[0])
        slope_d2 = float(np.polyfit(logt, np.log([r["d2"] for r in rows]), 1)[0])
    else:
        slope_d1 = slope_d2 = float("nan")
    return {"rows": rows, "slope_d1": slope_d1, "slope_d2": slope_d2}


def interior_mask(spec: GridSpec, radius: float) -> np.ndarray:
    """Boolean mask of grid points with sup-norm |q| <= radius."""
    x = spec.mesh()
    return np.max(np.abs(x), axis=0) <= radius


def relative_l2(a: GridFunction, b: GridFunction, mask: np.ndarray | None = None) -> float:
    """||a - b||_2 / ||b||_2, optionally restricted to a mask."""
    da = a.values
    db = b.values
    if mask is not None:
        da = da[mask]
        db = db[mask]
    denom = np.linalg.norm(db)
    if denom == 0.0:
        raise ValueError("reference has zero norm; relative error undefined")
    return float(np.linalg.norm(da - db) / denom)
