"""The FFT-evaluated deformed product and its derived operations.

The oscillatory double integral defining the deformed product is never
discretized directly; the computational definition is the absolutely
convergent Fourier-reduced single integral

    (f x g)(q) = int f(q - theta sigma p) ghat(p) e(q.p) dp,

which on the lattice reads

    out(q) = (dp^d / N^d) sum_{k,p} F(k) ghat(p) e(-theta k.sigma p) e(q.(k + p))

with F the unweighted transform of f and ghat carrying dx^d.  Shifts are
band-limited phase ramps, so results need no commensurability between
sigma and the lattice.

One kernel serves every d >= 2.  With a the last axis and E the others,
sigma_aa = 0 for every skew form, so the phase factors as

    e(-theta (sigma_aE.p_E) k_a) e(theta (sigma_aE.k_E) p_a) e(-theta k_E.sigma_EE p_E):

one ramp table R[u, v] = e(-theta (sigma_aE.u) v) over E-nodes u and axis-a
dual nodes v (f takes R, ghat conj(R)), then the E-E twist, which is 1 at
d = 2 and whenever sigma_EE = 0, so it is skipped there.  1-D transforms
along axis a, a fold over k_E + p_E (exact mod N per axis on the centered
lattice, N even) and one transform over the E axes give O(N^{2d-1} log N)
work and O(d N^d) exps.

The p_E rows run in batches.  For a row p_E and a fold target j the partner
is k_E = j - p_E (per axis, mod N), so the batch arrays are laid out as
[p_E, j, q_a]: both are gathered from the N^d tables fhat and conj(R) by
np.take, and the fold is a plain sum over the batch's p_E rows.  The two
batch buffers are allocated once per product and transformed in place, so a
batch allocates nothing batch-sized; the twist comes from one small
separable_waves table over the batch's rows.

The axis-a transforms are uncentered.  The centering along axis a is a fixed
permutation (grids.swap_halves) that commutes with the ramps, the twist and
the fold, so it is applied once to fhat, ghat and R before the batch loop and
once to the folded sum after it, not twice per batch-sized array.
"""

from __future__ import annotations

import numpy as np

from moyalorbit.geometry import SkewForm, q_form
from moyalorbit.grids import (
    GridFunction,
    GridSpec,
    fft_forward,
    forward_array,
    ifft_last,
    inverse_array,
    separable_waves,
    shift,
    spectral_gradient,
    swap_halves,
)

# Entries per batch of the kernel's two (p_E, j, q_a) buffers; fixed so the
# reduction order is bit-stable, and cache-sized (0.5 MB per buffer).
_BATCH_ENTRIES = 2**15

# Largest lattice phase k.(theta sigma p) the kernel takes, in cycles.  The
# roundoff of e(phi) is about 2^-53 |phi| cycles, which passes the oracle's
# 1e-6 cycles near 1e10: past the cut the product is noise, so the input is
# refused.  This is representability, not resolution: a grid can be far
# below the cut and still not resolve the product.
PHASE_CUT = 1e10


def star_product(f: GridFunction, g: GridFunction, sigma: SkewForm) -> GridFunction:
    """Deformed product of two grid functions at deformation theta * sigma."""
    f.check_spec(g)
    spec, m = f.spec, sigma.matrix
    if sigma.dim != spec.dim:
        raise ValueError("skew form dimension mismatch")
    if spec.dim < 2:
        raise ValueError("star product needs dim >= 2; on a line sigma is zero")
    p_max = spec.n / (2 * spec.length)  # |k_j|, |p_j| <= N/2L on the dual lattice
    bound = spec.theta * float(np.abs(m).sum()) * p_max * p_max  # float *: inf, not a raise
    if not bound <= PHASE_CUT:  # NaN included
        raise ValueError(
            f"the product's phases reach theta sum|sigma_jk| (N/2L)^2 = {bound:.3g} cycles, "
            f"past the cut {PHASE_CUT:g} where the roundoff of e(phase) passes 1e-6 cycles"
        )
    n, d = spec.n, spec.dim
    plane = GridSpec(dim=d - 1, n=n, length=spec.length)  # the E axes
    p = spec.dual_axis()
    nodes = plane.dual_nodes()  # E-nodes, row-major
    # axis a in np.fft order from here to the end of the loop
    r = swap_halves(separable_waves(-spec.theta * (nodes @ m[-1, :-1])[:, None], p))  # R[p_E, k_a]
    fhat = swap_halves(forward_array(f.values, spec).reshape(-1, n))  # unweighted, [k_E, k_a]
    ghat = swap_halves(fft_forward(g).values.reshape(-1, n))  # carries dx^d, [p_E, p_a]
    # e(q_E.(k_E + p_E)) has period N/L in each k_e + p_e on the grid, so k_E + p_E
    # folds exactly onto the E-node j with per-axis index (i_k + i_p - N/2) mod N:
    # for a p_E row, k_E = k_of[p_E, j] has index (j - i_p + N/2) mod N per axis.
    shape = (n,) * (d - 1)
    index = np.indices(shape).reshape(d - 1, -1)
    shifted = index + n // 2
    m_ee = m[:-1, :-1]
    twisted = bool(np.any(m_ee))  # sigma_EE = 0 (always at d = 2): the twist is 1
    size = nodes.shape[0]
    rows = min(size, max(1, _BATCH_ENTRIES // spec.size))
    rc = r.conj()
    x = np.empty((rows, size, n), dtype=complex)  # [p_E, j, q_a], reused per batch
    y = np.empty_like(x)
    folded = np.zeros((size, n), dtype=complex)  # [E-node j of k_E + p_E, q_a]
    for start in range(0, size, rows):
        pb = slice(start, start + rows)
        i_k = shifted[:, None] - index[:, pb, None]  # [axis e, p_E, j]
        i_k &= n - 1  # mod N, N a power of 2
        k_of = np.ravel_multi_index(tuple(i_k), shape)  # [p_E, j] -> k_E
        xb, yb = x[: len(k_of)], y[: len(k_of)]
        # every index is in range; "clip" writes out directly where "raise" buffers
        np.take(fhat, k_of, axis=0, out=xb, mode="clip")
        xb *= r[pb, None, :]  # fhat(k_E, k_a) R(p_E, k_a)
        np.take(rc, k_of, axis=0, out=yb, mode="clip")
        np.multiply(ghat[pb, None, :], yb, out=yb)  # ghat(p_E, p_a) conj R(k_E, p_a)
        ifft_last(xb)  # over k_a, in place
        ifft_last(yb)  # over p_a, in place
        xb *= yb  # the f-transform on the left: operand order changes rounding
        if twisted:
            # e(-theta k_E.sigma_EE p_E) = prod_e e(-theta c_e k_e), c = sigma_EE p_E
            twist = separable_waves(-spec.theta * (nodes[pb] @ m_ee.T), p)
            at = k_of + size * np.arange(len(k_of))[:, None]  # flat index of (p_E, k_E)
            xb *= np.take(twist, at)[:, :, None]
        folded += xb.sum(axis=0)
    folded = swap_halves(folded)  # axis a back in centered order
    out = inverse_array(np.moveaxis(folded.reshape((n,) * d), -1, 0), plane)
    return GridFunction(spec, np.moveaxis(out, 0, -1) * (n * spec.dp**d))


def involution(f: GridFunction) -> GridFunction:
    """Pointwise complex conjugation."""
    return f.conj()


def weyl_action(alpha, f: GridFunction, sigma: SkewForm) -> GridFunction:
    """q -> e(q.alpha) f(q + theta sigma alpha): left product by u_alpha."""
    alpha = np.asarray(alpha, dtype=float)
    spec = f.spec
    shifted = shift(f, spec.theta * (sigma.matrix @ alpha))
    return GridFunction(spec, separable_waves([alpha], spec.axis())[0] * shifted.values)


def star_commutator(f: GridFunction, g: GridFunction, sigma: SkewForm) -> GridFunction:
    return star_product(f, g, sigma) - star_product(g, f, sigma)


def inner_product_B(xi: GridFunction, eta: GridFunction) -> complex:
    """Riemann-sum inner product int conj(xi) eta with weight dx^d."""
    xi.check_spec(eta)
    return complex(np.sum(np.conj(xi.values) * eta.values) * xi.spec.dx**xi.spec.dim)


def poisson_bracket(f: GridFunction, g: GridFunction, sigma: SkewForm) -> GridFunction:
    """{f, g}_sigma = sum_jk sigma_jk (d_j f)(d_k g), spectral derivatives."""
    f.check_spec(g)
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
    d2 = resid.norm2()
    return d1, d2


def semiclassical_sweep(
    f: GridFunction, g: GridFunction, sigma: SkewForm, thetas
) -> dict:
    """D1 and D2 across a decreasing theta list, with fitted log-log slopes.

    Fewer than 2 thetas, or a theta where D1 or D2 is not finite and positive, raise ValueError.
    """
    thetas = [float(t) for t in thetas]
    if len(thetas) < 2:
        raise ValueError(f"a log-log slope needs at least 2 thetas, got {len(thetas)}")
    if any(t <= 0 for t in thetas) or any(b >= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("thetas must be positive and strictly decreasing")
    rows = []
    for t in thetas:
        d1, d2 = semiclassical_defects(f, g, sigma, t)
        if not np.isfinite(d1) or not np.isfinite(d2):  # (1/theta)(f*g - g*f) overflowed
            raise ValueError(f"D1 = {d1!r}, D2 = {d2!r} at theta = {t!r}: theta is too small")
        if d1 <= 0 or d2 <= 0:  # log 0 leaves no slope to fit
            raise ValueError(
                f"D1 = {d1!r}, D2 = {d2!r} at theta = {t!r}: a log-log slope needs positive defects"
            )
        rows.append({"theta": t, "d1": d1, "d2": d2})
    logt = np.log(thetas)
    slope_d1 = float(np.polyfit(logt, np.log([r["d1"] for r in rows]), 1)[0])
    slope_d2 = float(np.polyfit(logt, np.log([r["d2"] for r in rows]), 1)[0])
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
