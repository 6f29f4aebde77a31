"""Finite-matrix compression of the left-regular operator L_f.

At the point-evaluation state q0 = 0 on the identity fiber, L_f acts on a
grid vector eta by

    (L_f eta)(x) = int f(x - theta sigma k) e(x.k) etahat(k) dk,

which is exactly the star product f * eta in the discretized model.  The
matrix is assembled in closed form,

    M[x, y] = N^-d sum_k f(x - theta sigma k) e((x - y).k),

via one batch of band-limited shifts times the plane waves of
grids.plane_waves and one FFT over the dual index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moyalorbit.geometry import SkewForm
from moyalorbit.grids import GridFunction, GridSpec, forward_array, plane_waves, shift_batch
from moyalorbit.star import involution, star_product

MAX_SIDE = 4096


@dataclass(frozen=True)
class OperatorMatrix:
    """Square complex matrix of side N^d with provenance metadata."""

    matrix: np.ndarray
    spec: GridSpec
    sigma: SkewForm
    provenance: str = ""

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
    # B[k, x] = f(x - theta sigma k) e(x.k)
    shifts = -spec.theta * (sigma.matrix @ nodes.T).T
    b = shift_batch(forward_array(f.values, spec), spec, shifts)
    b *= plane_waves(spec, np.arange(m))
    # sum_k B[k, x] e(-y.k): centered forward transform over the k axes
    b = b.reshape(m, m).T.reshape((m,) + (spec.n,) * spec.dim)
    mtx = forward_array(b, spec).reshape(m, m) / spec.size
    return OperatorMatrix(mtx, spec, sigma)


def apply_operator(op: OperatorMatrix, eta: GridFunction) -> GridFunction:
    if eta.spec != op.spec:
        raise ValueError("grid specs do not match")
    out = op.matrix @ eta.values.reshape(-1)
    return GridFunction(op.spec, out.reshape(eta.values.shape))


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
