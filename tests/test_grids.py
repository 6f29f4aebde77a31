"""Centered grids, FFT conventions, shifts, and spectral derivatives."""

import numpy as np
import pytest

from moyalorbit.grids import (
    GridFunction,
    GridSpec,
    fft_forward,
    fft_inverse,
    ifft_last,
    inverse_array,
    separable_waves,
    shift,
    shift_batch,
    shift_spectrum,
    spectral_gradient,
    spectrum,
    swap_halves,
)


def gaussian_2d(spec, c=(0.0, 0.0), w=1.0):
    x = spec.mesh()
    vals = np.exp(-np.pi * ((x[0] - c[0]) ** 2 + (x[1] - c[1]) ** 2) / w**2)
    return GridFunction(spec, vals.astype(complex))


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(dim=2, n=48)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(dim=2, n=4)  # too small


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["length", "theta"])
def test_spec_rejects_non_finite_length_and_theta(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        GridSpec(dim=2, n=16, **{field: value})


def test_axis_is_centered():
    spec = GridSpec(dim=1, n=16, length=8.0)
    axis = spec.axis()
    assert axis[0] == -4.0
    assert axis[8] == 0.0
    assert spec.dx == 0.5
    assert spec.dp == 0.125


def test_standard_gaussian_is_fft_self_dual():
    spec = GridSpec(dim=2, n=64, length=8.0)
    f = gaussian_2d(spec)
    fhat = fft_forward(f)
    assert np.max(np.abs(fhat.values - f.values)) < 1e-12


def test_fft_roundtrip():
    rng = np.random.default_rng(0)
    spec = GridSpec(dim=2, n=32, length=8.0)
    f = GridFunction(spec, rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    back = fft_inverse(fft_forward(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * f.max_abs()


def test_parseval():
    rng = np.random.default_rng(1)
    spec = GridSpec(dim=2, n=32, length=8.0)
    f = GridFunction(spec, rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    # discrete Plancherel: sum |fhat|^2 dp^d = sum |f|^2 dx^d
    lhs = np.sum(np.abs(fft_forward(f).values) ** 2) * spec.dp**2
    rhs = np.sum(np.abs(f.values) ** 2) * spec.dx**2
    assert abs(lhs - rhs) < 1e-10 * rhs


def test_shift_matches_analytic_gaussian():
    spec = GridSpec(dim=2, n=64, length=8.0)
    f = gaussian_2d(spec, w=1.0)
    s = np.array([0.3, -0.7])
    shifted = shift(f, s)
    expected = gaussian_2d(spec, c=(-s[0], -s[1]))  # f(x + s)
    assert np.max(np.abs(shifted.values - expected.values)) < 1e-10


def test_shift_batch_consistency():
    spec = GridSpec(dim=2, n=32, length=8.0)
    f = gaussian_2d(spec, w=1.2)
    shifts = np.array([[0.1, 0.2], [-0.5, 0.0], [0.0, 0.0]])
    batch = shift_batch(f.values, spec, shifts)
    for row, s in zip(batch, shifts):
        single = shift(f, s)
        assert np.max(np.abs(row - single.values)) < 1e-11


@pytest.mark.parametrize("d", [1, 2, 3])
def test_separable_waves_match_the_full_exponential(d):
    spec = GridSpec(dim=d, n=8, length=6.0)
    rng = np.random.default_rng(d)
    coeffs = rng.normal(scale=2.0, size=(5, d))
    x = spec.mesh()
    phase = 2 * np.pi * np.tensordot(coeffs, x, axes=(1, 0))  # (5,) + (N,)*d
    expected = np.exp(1j * phase)
    waves = separable_waves(coeffs, spec.axis())
    assert waves.shape == expected.shape
    # each of the d + 1 exps is off by about eps * |its phase|, the d - 1
    # products by about eps each; the sum of the per-axis |phases| bounds both
    largest = 2 * np.pi * np.max(np.tensordot(np.abs(coeffs), np.abs(x), axes=(1, 0)))
    bound = 4 * np.finfo(float).eps * (d + 2 * largest)
    assert np.max(np.abs(waves - expected)) <= bound


@pytest.mark.parametrize("n", [8, 64])
def test_uncentered_last_axis_inverse_matches_inverse_array_bit_for_bit(n):
    # star_product's axis-a route: swap once, transform uncentered, swap back
    spec = GridSpec(dim=1, n=n, length=8.0)
    rng = np.random.default_rng(n)
    values = rng.normal(size=(3, 5, n)) + 1j * rng.normal(size=(3, 5, n))
    centered = inverse_array(values, spec)
    assert np.array_equal(swap_halves(ifft_last(swap_halves(values))), centered)
    assert np.array_equal(swap_halves(swap_halves(values)), values)
    # the swap takes the centered dual axis to np.fft's order, zero frequency first
    assert np.array_equal(swap_halves(spec.dual_axis()), np.fft.fftfreq(n, spec.dx))


def test_shift_batch_of_stacked_functions_matches_shift_bit_for_bit():
    # 6 x 64^2 complex entries pass numpy's 256 KiB bar for reusing a
    # temporary in place, which would swap the operands of the complex product
    spec = GridSpec(dim=2, n=64, length=8.0)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(6, 64, 64)) + 1j * rng.normal(size=(6, 64, 64))
    shifts = rng.normal(scale=0.7, size=(6, 2))
    batch = shift_batch(values, spec, shifts)
    for row, v, s in zip(batch, values, shifts):
        assert np.array_equal(row, shift(GridFunction(spec, v), s).values)


def rolled_shift_batch(values, spec, shifts):
    """The shift with the centering rolls around it: the reference of the
    roll-free shift_batch."""
    axes = tuple(range(-spec.dim, 0))
    values_hat = np.fft.fftn(np.fft.ifftshift(values, axes=axes), axes=axes)
    ramp = separable_waves(shifts, np.fft.ifftshift(spec.dual_axis()))
    np.multiply(values_hat, ramp, out=ramp)
    return np.fft.fftshift(np.fft.ifftn(ramp, axes=axes), axes=axes)


@pytest.mark.parametrize("dim, n, m", [(1, 64, 7), (2, 8, 3), (2, 64, 32), (3, 16, 4)])
@pytest.mark.parametrize("stacked", [False, True], ids=["one-f", "f-per-shift"])
def test_roll_free_shift_batch_matches_the_rolled_route_bit_for_bit(dim, n, m, stacked):
    # a translation commutes with the half-swap of every axis
    spec = GridSpec(dim=dim, n=n, length=8.0)
    rng = np.random.default_rng(dim * n + m)
    shape = ((m,) if stacked else ()) + (n,) * dim
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    shifts = rng.normal(scale=2.0, size=(m, dim))
    out = shift_batch(values, spec, shifts)
    assert np.array_equal(out, rolled_shift_batch(values, spec, shifts))
    values_hat = spectrum(values, spec)
    kept = values_hat.copy()
    assert np.array_equal(shift_spectrum(values_hat, spec, shifts), out)
    assert np.array_equal(values_hat, kept)  # the spectrum serves more than one shift


def test_spectral_gradient_of_gaussian():
    spec = GridSpec(dim=2, n=64, length=8.0)
    f = gaussian_2d(spec)
    x = spec.mesh()
    grads = spectral_gradient(f)
    for j in range(2):
        expected = -2.0 * np.pi * x[j] * f.values
        assert np.max(np.abs(grads[j].values - expected)) < 1e-9


def test_gridfunction_arithmetic_and_spec_guard():
    spec = GridSpec(dim=2, n=16, length=8.0)
    other = GridSpec(dim=2, n=16, length=4.0)
    f = gaussian_2d(spec)
    g = GridFunction(other, np.zeros((16, 16), dtype=complex))
    assert (f - f).max_abs() == 0.0
    assert np.max(np.abs((2.0 * f).values - 2.0 * f.values)) == 0.0
    with pytest.raises(ValueError):
        f + g


def test_gridfunction_does_not_freeze_caller_array():
    spec = GridSpec(dim=2, n=8, length=8.0)
    vals = np.ones((8, 8), dtype=complex)
    f = GridFunction(spec, vals)
    assert vals.flags.writeable
    vals[0, 0] = 2.0
    assert f.values[0, 0] == 1.0
    assert not f.values.flags.writeable


def test_norm2_of_gaussian():
    # int exp(-2 pi |x|^2 / w^2) dx over R^2 = w^2 / 2
    spec = GridSpec(dim=2, n=64, length=8.0)
    w = 1.3
    f = gaussian_2d(spec, w=w)
    assert abs(f.norm2() - np.sqrt(w**2 / 2.0)) < 1e-9
