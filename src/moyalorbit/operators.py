"""Finite-matrix compression of the left-regular operator L_f.

At the point-evaluation state q0 = 0 on the identity fiber, L_f acts on a
grid vector eta by

    (L_f eta)(x) = int f(x - theta sigma k) e(x.k) etahat(k) dk,

which is exactly the star product f * eta in the discretized model.  The
matrix is assembled in closed form,

    M[x, y] = N^-d sum_k f(x - theta sigma k) e((x - y).k),

in slabs: the columns k of one slab are band-limited shifts times a
grids.separable_waves table of the plane waves e(x.k), and then the rows x
of one slab are transformed over the dual index in place.  Peak memory is
the matrix plus one slab of _SLAB_ENTRIES entries per working array.

On the plane, sigma = s J, the Weyl unitary u_alpha modulates by alpha and
translates by theta sigma alpha, which is c (alpha_2, -alpha_1) grid steps for
alpha on the dual lattice and the twist c = theta s N / L^2.  At closed twist
(c an integer) a unitary DFT along the first axis turns the modulation into a
shift of the frequency index a_1 and leaves the class r = (x_2 - c a_1) mod N
of every row and column fixed.  So (F x I) L_f (F x I)^H is block diagonal:
N blocks B_r of side N, indexed by a_1, whose singular values, products,
adjoints and spectra are those of L_f.  left_regular_blocks builds them from
f in O(N^3), and apply_blocks applies them to a grid vector, so the cstar
suite checks the blocks against the product with no N^2 x N^2 matrix.

The dense build stays for two readers: the tests take it as the reference
for the blocks, and the benchmark's span tracer wraps
build_left_regular_matrix, OperatorMatrix.spectral_norm and
cstar_identity_check by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moyalorbit.geometry import SkewForm
from moyalorbit.grids import (
    GridFunction,
    GridSpec,
    forward_array,
    separable_waves,
    shift_batch,
    unitary_dft,
)
from moyalorbit.star import involution, star_product

MAX_SIDE = 4096
# Entries per slab of the dense build: the working set beyond the matrix
# stays bounded, and the sums run in a fixed order.
_SLAB_ENTRIES = 2**16


@dataclass(frozen=True)
class OperatorMatrix:
    """Square complex matrix of side N^d, with the grid and form it acts for."""

    matrix: np.ndarray
    spec: GridSpec
    sigma: SkewForm

    def __post_init__(self):
        side = self.spec.size
        if self.matrix.shape != (side, side):
            raise ValueError(f"matrix side must be {side}")

    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def adjoint(self) -> np.ndarray:
        return self.matrix.conj().T


def build_left_regular_matrix(f: GridFunction, sigma: SkewForm) -> OperatorMatrix:
    """Matrix of eta -> f * eta on grid vectors (d <= 2 enforced)."""
    spec = f.spec
    if spec.dim > 2:
        raise ValueError("operator matrices are desk-scale: d <= 2 only")
    if spec.size > MAX_SIDE:
        raise ValueError(f"matrix side {spec.size} exceeds {MAX_SIDE}")
    nodes = spec.dual_nodes()  # (M, d), row-major centered order
    m = spec.size
    rows = max(1, _SLAB_ENTRIES // m)
    shifts = -spec.theta * (sigma.matrix @ nodes.T).T
    out = np.empty((m, m), dtype=complex)
    # out[x, k] = f(x - theta sigma k) e(x.k), one slab of k at a time
    for start in range(0, m, rows):
        kc = slice(start, start + rows)
        b = shift_batch(f.values, spec, shifts[kc])
        b *= separable_waves(nodes[kc], spec.axis())
        out[:, kc] = b.reshape(-1, m).T
    # sum_k out[x, k] e(-y.k): centered forward transform over the k axes, one slab of x at a time
    for start in range(0, m, rows):
        xc = slice(start, start + rows)
        slab = out[xc].reshape((-1,) + (spec.n,) * spec.dim)
        out[xc] = forward_array(slab, spec).reshape(-1, m) / m
    return OperatorMatrix(out, spec, sigma)


def twist(spec: GridSpec, sigma: SkewForm) -> float:
    """c = theta s N / L^2 for sigma = s J on the plane: grid steps per dual step."""
    if spec.dim != 2 or sigma.dim != 2:
        raise ValueError("the twist is defined on the plane (d = 2) only")
    return spec.theta * float(sigma.matrix[0, 1]) * spec.n / spec.length**2


def _closed_twist(spec: GridSpec, sigma: SkewForm) -> int:
    """The twist c as an integer; ValueError when it is open."""
    c = twist(spec, sigma)
    if abs(c - round(c)) > 1e-9:
        raise ValueError(f"open twist c = {c}: L_f has no block structure")
    return round(c)


def left_regular_blocks(h: GridFunction, sigma: SkewForm) -> np.ndarray:
    """The N Heisenberg blocks of L_h at closed twist, built from h alone.

    After the unitary DFT on the first axis, u_alpha (alpha = p_m) moves the
    frequency index b to b + m_1' and x_2 by c m_1', with a phase
    e(m_2' (x_2 + c b) / N) up to centering.  Summed against hhat over m_2,
    that phase undoes the transform on the second axis, so with G the centered
    unweighted transform of h on the first axis alone

        blocks[r, a, b] = (-1)^(a + b) G[(a - b + N/2) mod N, (r + c (a + b)) mod N] / N.

    O(N^3) work and memory, no N^2 x N^2 matrix.  Raises ValueError when the
    twist is open.
    """
    c = _closed_twist(h.spec, sigma)
    n = h.spec.n
    line = GridSpec(dim=1, n=n, length=h.spec.length, theta=h.spec.theta)
    g = forward_array(h.values.T, line).T  # [m_1, x_2]
    a = np.arange(n)
    ab = a[:, None] + a[None, :]
    m1 = (a[:, None] - a[None, :] + n // 2) % n  # [a, b]
    x2 = (a[:, None, None] + c * ab) % n  # [r, a, b]
    return g[m1, x2] * ((-1.0) ** ab / n)


def apply_blocks(blocks: np.ndarray, eta: GridFunction, sigma: SkewForm) -> GridFunction:
    """L_h eta from the blocks of L_h (left_regular_blocks(h, sigma)), O(N^3).

    The unitary DFT of eta on the first axis, then per class r the vector
    v_r[b] = v[b, (r + c b) mod N] times the block B_r, scattered back to the
    same entries, then the inverse DFT.  Raises ValueError when the twist is
    open or the blocks do not fit the grid.
    """
    c = _closed_twist(eta.spec, sigma)
    n = eta.spec.n
    if blocks.shape != (n, n, n):
        raise ValueError(f"blocks must be {n} x {n} x {n}")
    a = np.arange(n)
    index = (a[None, :], (a[:, None] + c * a[None, :]) % n)  # [r, a_1] -> (a_1, x_2)
    v = unitary_dft(eta.values, axis=0, inverse=False)
    w = np.empty_like(v)
    w[index] = (blocks @ v[index][..., None])[..., 0]
    return GridFunction(eta.spec, unitary_dft(w, axis=0, inverse=True))


def cstar_identity_check(f: GridFunction, sigma: SkewForm) -> dict:
    """Norms of L_f and L_{f* x f} and the relative C*-identity defect."""
    lf = build_left_regular_matrix(f, sigma)
    lfsf = build_left_regular_matrix(star_product(involution(f), f, sigma), sigma)
    norm_f = lf.spectral_norm()
    norm_fsf = lfsf.spectral_norm()
    defect = abs(norm_fsf - norm_f**2) / norm_f**2
    herm = 0.5 * (lfsf.matrix + lfsf.adjoint())
    min_eig = float(np.min(np.linalg.eigvalsh(herm)))
    return {
        "norm_f": norm_f,
        "norm_fstar_f": norm_fsf,
        "cstar_defect": float(defect),
        "min_eig": min_eig,
    }
