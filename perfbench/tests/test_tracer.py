"""Self-test of the benchmark's span tracer.

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import moyalorbit.cli  # noqa: F401  (loads every layer, as the benchmark does)
from moyalorbit import covariance, grids, operators, star, suites
from moyalorbit import cli as cli_module
from moyalorbit.geometry import SkewForm
from moyalorbit.grids import GridSpec
from moyalorbit.oracle import GaussianFactor, SeparableGaussian

import tracer as tr

J = SkewForm(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def gaussian(spec, c=0.1):
    return SeparableGaussian((GaussianFactor(c, 1.2), GaussianFactor(-c, 1.3, 0.1))).sample(spec)


@pytest.fixture
def tracer():
    t = tr.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_by_name_import_is_wrapped(tracer):
    originals = {id(fn): name for name, fn in tracer.originals.items()}
    for module in tr.library_modules():
        for key, value in vars(module).items():
            assert id(value) not in originals, f"{module.__name__}.{key} is unwrapped"
    for module, key, name in (
        (star, "shift_batch", "grids.shift_batch"),
        (operators, "shift_batch", "grids.shift_batch"),
        (covariance, "shift", "grids.shift"),
        (suites, "star_product", "star.star_product"),
        (suites, "sample_orbit", "geometry.sample_orbit"),
        (suites, "cstar_identity_check", "operators.cstar_identity_check"),
        (cli_module, "star_product", "star.star_product"),
        (cli_module, "oracle_defect", "oracle.oracle_defect"),
    ):
        assert getattr(module, key).__wrapped__ is tracer.originals[name]
    assert operators.OperatorMatrix.spectral_norm.__wrapped__ is (
        tracer.originals["operators.OperatorMatrix.spectral_norm"]
    )


def test_uninstall_restores_originals():
    t = tr.Tracer()
    before = star.star_product, suites.star_product, grids.shift_batch
    t.install()
    assert star.star_product is not before[0]
    t.uninstall()
    assert (star.star_product, suites.star_product, grids.shift_batch) == before


def test_one_n32_product_spans_and_ramp_entries(tracer):
    spec = GridSpec(dim=2, n=32)
    f, g = gaussian(spec), gaussian(spec, -0.2)
    tracer.op = 0
    star.star_product(f, g, J)
    names = [s[0] for s in tracer.spans]
    assert names.count("star.star_product") == 1
    assert names.count("grids.shift_batch") == 8
    assert tracer.counts["grids.ramp_entries"] == 1024**2
    assert all(s[4] == 0 for s in tracer.spans)


def test_self_times_and_nesting(tracer):
    spec = GridSpec(dim=2, n=8, theta=2.0)
    f = gaussian(spec)
    operators.cstar_identity_check(f, J)
    star.semiclassical_defects(f, gaussian(spec, 0.3), J, 0.5)
    spans = tracer.spans
    assert {s[0] for s in spans} >= {
        "operators.cstar_identity_check",
        "operators.build_left_regular_matrix",
        "operators.OperatorMatrix.spectral_norm",
        "star.semiclassical_defects",
        "star.poisson_bracket",
        "grids.shift_batch",
    }
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        assert end >= start
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2], f"{name} outside {p[0]}"
            children[parent] += end - start
    for span, covered in zip(spans, children):
        assert covered <= span[2] - span[1]
    self_times = tracer.self_times()
    assert all(s >= 0 for s in self_times)
    # Self times partition the root spans' time.
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
    assert sum(self_times) == pytest.approx(roots, rel=1e-9)
    summary = tracer.summary()
    assert summary["operators.build_left_regular_matrix"]["calls"] == 2
    assert tracer.counts["operators.matrix_bytes"] == 2 * 64**2 * 16
