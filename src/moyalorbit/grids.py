"""Periodic grids and centered FFT conventions.

Functions live on the lattice x_k = -L/2 + k L/N per axis; the dual lattice
is p_m = (m - N/2)/L.  With the e(t) = exp(2 pi i t) kernel the forward
transform is ghat(p) = sum_x g(x) e(-x.p) (L/N)^d and inversion carries the
weight (1/L)^d, so Fourier inversion holds with no extra constants and
exp(-pi |x|^2) is self-dual.  Real-valued shifts are done by phase ramps,
exact in the band-limited periodic model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a periodic box: dim, points per axis, box length, theta."""

    dim: int
    n: int = 64
    length: float = 8.0
    theta: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of 2 and >= 8")
        top = float(np.finfo(np.float32).max)  # the .moya header holds L as f32
        if not 0 < self.length <= top:  # also false for NaN
            raise ValueError(
                f"length must be positive and finite, at most {top:.7g}, got {self.length}"
            )
        if not 0 < self.theta < np.inf:
            raise ValueError(f"theta must be positive and finite, got {self.theta}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dp(self) -> float:
        return 1.0 / self.length

    @property
    def size(self) -> int:
        return self.n**self.dim

    def axis(self) -> np.ndarray:
        """Spatial nodes per axis: -L/2 + k L/N."""
        return -self.length / 2 + np.arange(self.n) * self.dx

    def dual_axis(self) -> np.ndarray:
        """Dual nodes per axis: (m - N/2)/L, centered."""
        return (np.arange(self.n) - self.n // 2) * self.dp

    def mesh(self) -> np.ndarray:
        """Array of shape (dim, N, ..., N) of spatial coordinates."""
        return np.stack(np.meshgrid(*([self.axis()] * self.dim), indexing="ij"))

    def dual_mesh(self) -> np.ndarray:
        return np.stack(np.meshgrid(*([self.dual_axis()] * self.dim), indexing="ij"))

    def dual_nodes(self) -> np.ndarray:
        """All dual lattice points, shape (N^d, dim), fixed row-major order."""
        return self.dual_mesh().reshape(self.dim, -1).T

    def with_theta(self, theta: float) -> "GridSpec":
        return replace(self, theta=theta)


class GridFunction:
    """Complex values on the periodic lattice of a GridSpec."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.array(values, dtype=complex)  # a copy: freezing must not reach the caller
        shape = (spec.n,) * spec.dim
        if values.shape != shape:
            raise ValueError(f"values must have shape {shape}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        self.spec = spec
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def from_callable(cls, spec: GridSpec, fn) -> "GridFunction":
        mesh = spec.mesh()
        return cls(spec, np.asarray(fn(*mesh), dtype=complex))

    def norm2(self) -> float:
        """Grid L2 norm with weight dx^d."""
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2) * self.spec.dx**self.spec.dim)
        )

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _check_spec(self, other: "GridFunction") -> None:
        if self.spec != other.spec:
            raise ValueError("grid specs do not match")

    def __add__(self, other):
        self._check_spec(other)
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other):
        self._check_spec(other)
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_spec(other)
            return GridFunction(self.spec, self.values * other.values)
        return GridFunction(self.spec, self.values * other)

    __rmul__ = __mul__

    def conj(self) -> "GridFunction":
        return GridFunction(self.spec, np.conj(self.values))

    def __repr__(self) -> str:
        return f"GridFunction(dim={self.spec.dim}, n={self.spec.n})"


def _centered(transform, values: np.ndarray, axes) -> np.ndarray:
    """An np.fft transform over axes, with index 0 at the center of each axis."""
    return np.fft.fftshift(
        transform(np.fft.ifftshift(values, axes=axes), axes=axes), axes=axes
    )


def fft_forward(f: GridFunction) -> GridFunction:
    """ghat(p) = sum_x g(x) e(-2 pi i x.p) dx^d on the centered dual lattice."""
    spec = f.spec
    axes = tuple(range(spec.dim))
    scale = spec.dx**spec.dim
    return GridFunction(spec, _centered(np.fft.fftn, f.values, axes) * scale)


def fft_inverse(fhat: GridFunction) -> GridFunction:
    """g(x) = sum_p ghat(p) e(2 pi i x.p) dp^d."""
    spec = fhat.spec
    axes = tuple(range(spec.dim))
    scale = spec.size * spec.dp**spec.dim
    return GridFunction(spec, _centered(np.fft.ifftn, fhat.values, axes) * scale)


def forward_array(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Centered forward transform of the trailing dim axes (no dx weight)."""
    axes = tuple(range(values.ndim - spec.dim, values.ndim))
    return _centered(np.fft.fftn, values, axes)


def inverse_array(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    axes = tuple(range(values.ndim - spec.dim, values.ndim))
    return _centered(np.fft.ifftn, values, axes)


def swap_halves(values: np.ndarray) -> np.ndarray:
    """Swap the two halves of the last axis, a copy.

    N is even on every grid, so this one permutation maps centered index order
    to np.fft's order and back: _centered applies it on each side of a transform.
    """
    return np.fft.fftshift(values, axes=-1)


def ifft_last(values: np.ndarray) -> np.ndarray:
    """Uncentered inverse DFT along the last axis, weighted 1/N as np.fft.ifft,
    in place: values is overwritten and returned.

    inverse_array on a 1-D spec is swap_halves(ifft_last(swap_halves(values))).
    """
    return np.fft.ifft(values, axis=-1, out=values)


def unitary_dft(values: np.ndarray, axis: int, inverse: bool) -> np.ndarray:
    """Unitary, uncentered 1-D DFT along one axis (its inverse if inverse)."""
    transform = np.fft.ifft if inverse else np.fft.fft
    return transform(values, axis=axis, norm="ortho")


def separable_waves(coeffs, axis) -> np.ndarray:
    """out[i, x_1, ..., x_d] = prod_a e(coeffs[i, a] axis[x_a]): the one e(.)-table builder."""
    tables = [np.exp(2j * np.pi * np.outer(c, axis)) for c in np.asarray(coeffs, float).T]
    out = tables[0]
    for table in tables[1:]:
        out = out[..., None] * np.expand_dims(table, tuple(range(1, out.ndim)))
    return out


def shift_batch(values: np.ndarray, spec: GridSpec, shifts: np.ndarray) -> np.ndarray:
    """Shifted copies f(x + s_i) for a batch of shifts.

    values: spatial values of one f, shape (N,)*dim, or of one f per shift,
    shape (m,) + (N,)*dim.  shifts: (m, dim).  Returns (m,) + (N,)*dim.  The
    spectrum stays in np.fft's order between one ifftshift in and one fftshift
    out; the ramp e(s.k) comes from separable_waves on the dual axis in that order.
    """
    axes = tuple(range(-spec.dim, 0))
    spectrum = np.fft.fftn(np.fft.ifftshift(values, axes=axes), axes=axes)
    ramp = separable_waves(shifts, np.fft.ifftshift(spec.dual_axis()))
    # spectrum * ramp, written over the ramp; ramp * spectrum would round differently
    np.multiply(spectrum, ramp, out=ramp)
    del spectrum
    return np.fft.fftshift(np.fft.ifftn(ramp, axes=axes), axes=axes)


def shift(f: GridFunction, s) -> GridFunction:
    """x -> f(x + s) for an arbitrary real shift s: shift_batch with one row."""
    spec = f.spec
    shifts = np.asarray(s, dtype=float).reshape(1, spec.dim)
    return GridFunction(spec, shift_batch(f.values, spec, shifts)[0])


def spectral_gradient(f: GridFunction) -> list:
    """Per-axis spectral derivatives [df/dx_1, ...] as GridFunctions."""
    spec = f.spec
    fhat = forward_array(f.values, spec)
    k = spec.dual_mesh()
    out = []
    for a in range(spec.dim):
        out.append(
            GridFunction(spec, inverse_array(fhat * (2j * np.pi * k[a]), spec))
        )
    return out
