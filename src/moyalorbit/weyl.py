"""Exact arithmetic in the twisted group algebra of Weyl unitaries.

Elements are finite complex combinations of symbols delta_alpha indexed by
covectors; multiplication follows u_alpha u_beta = e(Q_ab) u_{alpha+beta}
with e(t) = exp(2 pi i t) and Q_ab = beta(sigma(alpha)).  Covector keys are
quantized to integer multiples of 2^-32 so key arithmetic is exact.
"""

from __future__ import annotations

import numpy as np

from moyalorbit.geometry import SkewForm, q_form

KEY_QUANTUM = 2.0**-32


def e(t: float) -> complex:
    """e(t) = exp(2 pi i t)."""
    return complex(np.exp(2j * np.pi * t))


def covector_key(alpha) -> tuple:
    """Canonical integer key for a covector, in units of KEY_QUANTUM."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("covector entries must be finite")
    return tuple(int(round(c / KEY_QUANTUM)) for c in alpha)


def key_to_covector(key: tuple) -> np.ndarray:
    return np.array(key, dtype=float) * KEY_QUANTUM


class WeylElement:
    """A finite complex combination of Weyl generators at a fixed skew form."""

    __slots__ = ("terms", "sigma")

    def __init__(self, terms: dict, sigma: SkewForm):
        self.terms = {k: complex(c) for k, c in terms.items() if c != 0}
        self.sigma = sigma

    @property
    def dim(self) -> int:
        return self.sigma.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.terms == other.terms and np.array_equal(
            self.sigma.matrix, other.sigma.matrix
        )

    def isclose(self, other: "WeylElement", tol: float = 1e-12) -> bool:
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys
        )

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check_context(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return WeylElement(terms, self.sigma)

    def scaled(self, c: complex) -> "WeylElement":
        return WeylElement({k: c * v for k, v in self.terms.items()}, self.sigma)

    def _check_context(self, other: "WeylElement") -> None:
        if not np.array_equal(self.sigma.matrix, other.sigma.matrix):
            raise ValueError("elements live over different skew forms")

    def __repr__(self) -> str:
        return f"WeylElement({len(self.terms)} terms, dim={self.dim})"


def unit_u(alpha, sigma: SkewForm) -> WeylElement:
    """The generator u_alpha (a single unit-coefficient term)."""
    key = covector_key(alpha)
    if len(key) != sigma.dim:
        raise ValueError("covector dimension mismatch")
    return WeylElement({key: 1.0 + 0.0j}, sigma)


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Bilinear extension of u_alpha u_beta = e(Q_ab) u_{alpha+beta}."""
    a._check_context(b)
    sigma = a.sigma
    terms: dict = {}
    for ka, ca in a.terms.items():
        alpha = key_to_covector(ka)
        for kb, cb in b.terms.items():
            beta = key_to_covector(kb)
            key = tuple(x + y for x, y in zip(ka, kb))
            phase = e(q_form(sigma, alpha, beta))
            terms[key] = terms.get(key, 0.0) + ca * cb * phase
    return WeylElement(terms, sigma)


def star(a: WeylElement) -> WeylElement:
    """The involution: (alpha, c) -> (-alpha, conj(c))."""
    return WeylElement(
        {tuple(-x for x in k): np.conj(c) for k, c in a.terms.items()}, a.sigma
    )

