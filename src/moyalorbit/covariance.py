"""Group actions on fibered functions over a finite sample of transforms.

A FiberedFunction holds one grid function per transform of a finite group
sample, a nonempty tuple of transforms, stacked in one array; a line
function psi(T, r) is a FiberedFunction on a one-dimensional grid.  All
actions here are precompositions with the point maps (x-translation tau,
right translation gamma), so the pinned conventions are

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
    frozen_values,
    inverse_array,
    shift_batch,
    shift_spectrum,
    spectrum,
)
from moyalorbit.star import relative_l2, star_product

MATCH_TOL = 1e-9  # max-entry distance at which _index_of matches a transform


@dataclass(frozen=True, eq=False)
class FiberedFunction:
    """One grid function per transform of sample, a nonempty tuple of
    transforms: values[i] is the fiber of sample[i].

    values has shape (len(sample),) + (N,)*spec.dim and is copied, frozen and
    checked by grids.frozen_values, as GridFunction's values are.
    """

    sample: tuple
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if len(self.sample) == 0:
            raise ValueError("group sample must be nonempty")
        shape = (len(self.sample),) + (self.spec.n,) * self.spec.dim
        object.__setattr__(self, "values", frozen_values(self.values, shape))

    @classmethod
    def from_callable(cls, sample: tuple, spec: GridSpec, fn) -> "FiberedFunction":
        """Fiber T is fn(T, x_1, ..., x_d) on spec's mesh."""
        mesh = spec.mesh()
        return cls(sample, spec, np.stack([fn(t, *mesh) for t in sample]))

    def fiber(self, i: int) -> GridFunction:
        return GridFunction(self.spec, self.values[i])

    def max_abs_diff(self, other: "FiberedFunction") -> float:
        return float(np.max(np.abs(self.values - other.values)))


def _shifted(f: FiberedFunction, shifts: np.ndarray) -> FiberedFunction:
    """Fiber i moved to x -> f_i(x + shifts[i]): one shift_batch call."""
    return FiberedFunction(f.sample, f.spec, shift_batch(f.values, f.spec, shifts))


def _points(x, f: FiberedFunction) -> np.ndarray:
    """x as one point per fiber, shape (len(f.sample), k); a single point serves every fiber."""
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(x, (len(f.sample),) + x.shape[-1:])


def tau_act(x, f: FiberedFunction) -> FiberedFunction:
    """(tau_x F)(T, q) = F(T, q + T x); x is one point, or one point per fiber."""
    xs = _points(x, f)
    return _shifted(f, np.stack([t.matrix @ xi for t, xi in zip(f.sample, xs)]))


def _index_of(transforms: tuple, matrix: np.ndarray) -> int:
    """The index of the first transform within MATCH_TOL of matrix; else KeyError."""
    for i, t in enumerate(transforms):
        if np.max(np.abs(t.matrix - matrix)) <= MATCH_TOL:
            return i
    raise KeyError("transform not found in sample")


def _right_translation_order(s: LorentzTransform, sample: tuple, draw_size: int) -> list:
    """order[i] = the fiber of T_i S^-1, looked up in T_i's own draw.

    The fibers are consecutive draws of draw_size transforms each, and each
    draw must contain every T S^-1: draws may share transforms, so a lookup
    in the whole stacked sample could pair fibers of different draws.
    """
    s_inv = s.inverse().matrix
    order = []
    for start in range(0, len(sample), draw_size):
        draw = sample[start : start + draw_size]
        order += [start + _index_of(draw, t.matrix @ s_inv) for t in draw]
    return order


def gamma_act(s: LorentzTransform, f: FiberedFunction, draw_size: int) -> FiberedFunction:
    """(gamma_S F)(T, q) = F(T S^-1, q), for fibers in draws of draw_size transforms
    (see _right_translation_order)."""
    order = _right_translation_order(s, f.sample, draw_size)
    return FiberedFunction(f.sample, f.spec, f.values[order])


def rho_act(alpha, x, psi: FiberedFunction) -> FiberedFunction:
    """(rho_x psi)(T, r) = psi(T, r + alpha(T x)) for a line function psi; x as in tau_act."""
    alpha = np.asarray(alpha, dtype=float)
    xs = _points(x, psi)
    return _shifted(
        psi, np.array([[alpha @ (t.matrix @ xi)] for t, xi in zip(psi.sample, xs)])
    )


def phi_alpha(alpha, psi: FiberedFunction, grid: GridSpec) -> FiberedFunction:
    """(Phi^alpha psi)(T, q) = psi(T, alpha(q)) for alpha with entries in {-1, 0, 1}.

    The line and the grid share n and length, so alpha(q) at the node k of
    the grid is the line's node (alpha.k + (1 - sum alpha) N/2) mod N: each
    fiber is a gather of the line's band-limited samples.  A non-integer entry
    puts alpha(q) between line nodes, and an entry of magnitude 2 or more
    sends psi's band past the grid's, where it aliases: both are refused.
    """
    spec1d = psi.spec
    if spec1d.dim != 1:
        raise ValueError("psi must be a line function (a one-dimensional grid)")
    if (spec1d.n, spec1d.length) != (grid.n, grid.length):
        raise ValueError("grid and line function must have the same n and length")
    alpha = np.asarray(alpha, dtype=float)
    if grid.dim < 2 or alpha.shape != (grid.dim,):
        raise ValueError(f"alpha must be a covector of length grid.dim >= 2, got {alpha.shape}")
    if not np.all(np.isin(alpha, (-1, 0, 1))):
        raise ValueError(f"alpha must have entries in {{-1, 0, 1}}, got {alpha.tolist()}")
    coeffs = forward_array(psi.values, spec1d)
    # the -N/2 mode has no +N/2 partner on the grid, so a negative entry of
    # alpha would send it off the grid and break equivariance: drop it
    coeffs[:, 0] = 0
    line = inverse_array(coeffs, spec1d)
    n, a = grid.n, alpha.astype(int)
    index = np.tensordot(a, np.indices((n,) * grid.dim), axes=1) + (1 - a.sum()) * n // 2
    return FiberedFunction(psi.sample, grid, np.take(line, index % n, axis=1))


def check_phi_equivariance(alpha, x, psi: FiberedFunction, grid: GridSpec) -> float:
    """Max-entry defect of Phi^alpha(rho_x psi) = tau_x(Phi^alpha psi); x as in tau_act."""
    lhs = phi_alpha(alpha, rho_act(alpha, x, psi), grid)
    rhs = tau_act(x, phi_alpha(alpha, psi, grid))
    return lhs.max_abs_diff(rhs)


def check_gamma_covariance(
    s: LorentzTransform, x, f: FiberedFunction, draw_size: int | None = None
) -> float:
    """Max-entry defect of tau_x gamma_S = gamma_S tau_Sx.

    x as in tau_act; the fibers are draws of draw_size transforms as in
    gamma_act (default: one draw of the whole sample).  Both sides shift the
    permuted spectrum of f, since the transform of f[order] is the transform
    of f, permuted: fiber i of the left side is f[order[i]] moved by T_i x_i,
    and of the right side f[order[i]] moved by T_j S x_j with j = order[i].
    """
    xs = _points(x, f)
    draw_size = len(f.sample) if draw_size is None else draw_size
    order = _right_translation_order(s, f.sample, draw_size)
    values_hat = spectrum(f.values, f.spec)[order]
    lhs_shifts = np.stack([t.matrix @ xi for t, xi in zip(f.sample, xs)])
    rhs_shifts = np.stack([f.sample[j].matrix @ (s.matrix @ xs[j]) for j in order])
    lhs = shift_spectrum(values_hat, f.spec, lhs_shifts)
    rhs = shift_spectrum(values_hat, f.spec, rhs_shifts)
    return float(np.max(np.abs(lhs - rhs)))


def check_pointwise_theorem(
    alpha,
    psi1: FiberedFunction,
    psi2: FiberedFunction,
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
    return max(
        relative_l2(
            star_product(f1.fiber(i), f2.fiber(i), act_on_form(t, sigma0)),
            f1.fiber(i) * f2.fiber(i),
        )
        for i, t in enumerate(f1.sample)
    )

