"""Which `verify` check catches which seeded defect: the mutation table.

A row replaces one src/ function by a mutant, in every moyalorbit module that
bound it by name (as perfbench/tracer.py finds the bindings it wraps), runs
run_suite("all", RunConfig()) and asserts that the report fails with at
least the row's checks failing.  A row whose defect `verify` does not catch
yet is a strict xfail that names the ROADMAP item meant to catch it: once
that check lands the xfail fails, and the row must list what it catches.

The last test is the coverage statement: every TOLERANCES row is caught by
some passing row, or is listed in UNCAUGHT.
"""

import importlib
import sys

import numpy as np
import pytest

import moyalorbit.cli  # noqa: F401  (loads every module that may bind a name)
from moyalorbit.geometry import SkewForm
from moyalorbit.suites import TOLERANCES, RunConfig, run_suite
from moyalorbit.weyl import WeylElement

# Checks no row catches.  Item 6: generator_associativity holds under either
# sign of the Weyl phase, and gamma_covariance holds bit for bit at d = 2,
# where P and T are diagonal involutions (S and its inverse are the same).
UNCAUGHT = {"generator_associativity", "gamma_covariance"}


def scaled_sigma(c):
    """star_product at c theta: theta and sigma enter only as theta sigma."""
    return lambda product: lambda f, g, sigma: product(f, g, SkewForm(c * sigma.matrix))


def without_ee_block(product):
    """star_product with sigma_EE zeroed: the same product as dropping the twist."""

    def mutant(f, g, sigma):
        m = sigma.matrix.copy()
        m[:-1, :-1] = 0.0
        return product(f, g, SkewForm(m))

    return mutant


def reversed_phase(mul):
    """weyl.mul with Q_ba for Q_ab: sigma negated inside the product."""

    def mutant(a, b):
        flipped = SkewForm(-a.sigma.matrix)
        product = mul(WeylElement(a.terms, flipped), WeylElement(b.terms, flipped))
        return WeylElement(product.terms, a.sigma)

    return mutant


# (id, module, name, mutant of the original, checks that must fail, xfail reason)
ROWS = (
    ("theta-1e-6", "star", "star_product", scaled_sigma(1 + 1e-6), {"blocks_match_product"}, None),
    (
        "theta-doubled", "star", "star_product", scaled_sigma(2.0),
        {"blocks_match_product", "homomorphism_defect", "cstar_identity_defect",
         "slope_d1", "slope_d2", "d2_monotone_decreasing"},
        None,
    ),
    (
        "theta-halved", "star", "star_product", scaled_sigma(0.5),
        {"blocks_match_product", "homomorphism_defect", "cstar_identity_defect",
         "positivity_min_eig", "slope_d2"},
        None,
    ),
    (
        "sigma-negated", "star", "star_product", scaled_sigma(-1.0),
        {"blocks_match_product", "homomorphism_defect", "slope_d2", "d2_monotone_decreasing"},
        None,
    ),
    (
        "operands-swapped", "star", "star_product",
        lambda product: lambda f, g, sigma: product(g, f, sigma),
        {"blocks_match_product", "homomorphism_defect", "slope_d2", "d2_monotone_decreasing"},
        None,
    ),
    ("weyl-phase-reversed", "weyl", "mul", reversed_phase, {"weyl_relation_phase"}, None),
    (
        "rho-x-negated", "covariance", "rho_act",
        lambda act: lambda alpha, x, psi: act(alpha, -np.asarray(x), psi),
        {"phi_equivariance"}, None,
    ),
    (
        "tau-x-negated", "covariance", "tau_act",
        lambda act: lambda x, f: act(-np.asarray(x), f),
        {"phi_equivariance"}, None,
    ),
    (
        "involution-identity", "star", "involution", lambda involution: lambda f: f,
        {"adjoint_defect", "cstar_identity_defect", "positivity_min_eig"}, None,
    ),
    (
        "sigma-ee-zeroed", "star", "star_product", without_ee_block, set(),
        "item 18: verify runs no d = 4 product, and at d = 2 sigma_EE is 0",
    ),
    (
        "q-form-negated", "geometry", "q_form", lambda q: lambda sigma, a, b: -q(sigma, a, b),
        set(), "item 5: no check ties the Weyl cocycle's sign to the grid product",
    ),
    (
        "gamma-inverse-reflection", "covariance", "check_gamma_covariance",
        lambda check: lambda s, x, f, draw_size: check(s.inverse(), x, f, draw_size),
        set(), "item 6: at d = 2 the reflection S is its own inverse",
    ),
)


def patch_everywhere(monkeypatch, module: str, name: str, mutate) -> None:
    """Replace moyalorbit.<module>.<name> by mutate(original) wherever a module bound it."""
    original = getattr(importlib.import_module(f"moyalorbit.{module}"), name)
    mutant = mutate(original)
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "moyalorbit"]
    for owner in modules:
        for key, value in list(vars(owner).items()):
            if value is original:
                monkeypatch.setattr(owner, key, mutant)


@pytest.mark.parametrize(
    "module, name, mutate, caught",
    [
        pytest.param(
            *row[1:5], id=row[0],
            marks=[pytest.mark.xfail(strict=True, reason=row[5])] if row[5] else [],
        )
        for row in ROWS
    ],
)
def test_verify_fails_on_the_mutant(monkeypatch, module, name, mutate, caught):
    patch_everywhere(monkeypatch, module, name, mutate)
    report = run_suite("all", RunConfig())
    failing = {c["name"] for r in report["reports"] for c in r["checks"] if not c["pass"]}
    assert not report["pass"]
    assert caught <= failing


def test_every_tolerance_row_is_caught_or_listed_as_uncaught():
    caught = set().union(*(row[4] for row in ROWS if row[5] is None))
    assert caught | UNCAUGHT == set(TOLERANCES)
    assert not caught & UNCAUGHT
