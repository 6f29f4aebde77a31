"""Input catalogues for the star workloads and the seeded op sequences.

Each catalogue is a fixed list of cases generated from a fixed catalogue
seed with the library's own generators (``random_gaussian`` for the
Gaussians, ``sample_orbit`` for the d=4 skew forms).  Reference outputs for
every case live in ``reference/``; ``record.py`` writes them.  The run seed
only chooses which cases run and in which order, so every op a run makes has
a recorded reference, whatever the seed.

All cases keep the wrap ratio theta * |sigma| * N / (2 L^2) at or below 0.5,
the default grid's value, with |sigma| the largest absolute row sum (which
bounds the spectral norm too).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moyalorbit.geometry import SkewForm, Spacetime, sample_orbit, standard_skew
from moyalorbit.grids import GridSpec
from moyalorbit.oracle import SeparableGaussian, random_gaussian

LENGTH = 8.0
MAX_WRAP = 0.5
CATALOGUE_SEED = 20260
D2_N = 64
D2_THETAS = (0.5, 1.0)
D2_PAIRS_PER_KEY = 2  # Gaussian pairs per (theta, sign)
D4_N = 8
D4_THETA = 1.0
D4_ORBIT_CASES = 7  # plus the block-diagonal base form


@dataclass(frozen=True)
class StarCase:
    """One star-product input: f, g on a grid, deformed along sigma."""

    name: str
    spec: GridSpec
    sigma: SkewForm
    f: SeparableGaussian
    g: SeparableGaussian


def wrap_ratio(spec: GridSpec, sigma: SkewForm) -> float:
    norm = float(np.max(np.sum(np.abs(sigma.matrix), axis=1)))
    return spec.theta * norm * spec.n / (2 * spec.length**2)


def d2_catalogue() -> list:
    """N=64 separable Gaussians with sigma = +J or -J."""
    rng = np.random.default_rng(CATALOGUE_SEED)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    cases = []
    for theta in D2_THETAS:
        for sign in (1.0, -1.0):
            for k in range(D2_PAIRS_PER_KEY):
                spec = GridSpec(dim=2, n=D2_N, length=LENGTH, theta=theta)
                name = f"n{D2_N}_t{theta:g}_{'p' if sign > 0 else 'm'}{k}"
                sigma = SkewForm(sign * j)
                cases.append(StarCase(name, spec, sigma, random_gaussian(rng, 2), random_gaussian(rng, 2)))
    return cases


def d4_catalogue() -> list:
    """The base form plus dense orbit points T sigma0 T^t, at d=4, N=8."""
    st = Spacetime(4, (1, -1, -1, -1))
    sigma0 = standard_skew(st)
    spec = GridSpec(dim=4, n=D4_N, length=LENGTH, theta=D4_THETA)
    sigmas = [("base", sigma0)]
    for i, (_, s) in enumerate(sample_orbit(st, 64, CATALOGUE_SEED, sigma0)):
        if len(sigmas) > D4_ORBIT_CASES:
            break
        if wrap_ratio(spec, s) <= MAX_WRAP:
            sigmas.append((f"orbit{i}", s))
    if len(sigmas) != D4_ORBIT_CASES + 1:
        raise RuntimeError("too few orbit points within the wrap limit")
    rng = np.random.default_rng(CATALOGUE_SEED + 1)
    return [
        StarCase(name, spec, s, random_gaussian(rng, 4), random_gaussian(rng, 4))
        for name, s in sigmas
    ]


def case_params(case: StarCase) -> dict:
    """The inputs that fix a case's output, as arrays (stored with its reference)."""
    return {
        "spec": np.array([case.spec.n, case.spec.length, case.spec.theta]),
        "sigma": case.sigma.matrix,
        "f": np.array([[c.center, c.width, c.freq] for c in case.f.factors]),
        "g": np.array([[c.center, c.width, c.freq] for c in case.g.factors]),
    }


def shuffled(cases: list, seed: int):
    """Endless case indices, in seeded permutations of the catalogue.

    Each case appears once per pass, so a run uses every case about equally
    often, whatever the seed.
    """
    rng = np.random.default_rng(seed)
    while True:
        yield from (int(i) for i in rng.permutation(len(cases)))
