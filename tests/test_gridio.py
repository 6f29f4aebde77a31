"""Binary grid format round trips, malformed-file errors and the JSON reader on any input."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moyalorbit import gridio
from moyalorbit.geometry import Spacetime, standard_skew
from moyalorbit.grids import GridFunction, GridSpec
from moyalorbit.suites import RunConfig

ST2 = Spacetime(2, (1, -1))
PLANE = standard_skew(ST2)


def random_grid(seed=0, n=16, theta=0.5):
    rng = np.random.default_rng(seed)
    spec = GridSpec(dim=2, n=n, length=8.0, theta=theta)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return GridFunction(spec, vals)


def test_grid_roundtrip_exact(tmp_path):
    f = random_grid()
    path = tmp_path / "f.moya"
    gridio.write_grid(path, f, PLANE)
    g, sigma, _ = gridio.read_grid(path)
    assert g.spec == f.spec
    np.testing.assert_array_equal(g.values, f.values)
    np.testing.assert_array_equal(sigma.matrix, PLANE.matrix)


def test_grid_roundtrip_without_sigma(tmp_path):
    f = random_grid(seed=1)
    path = tmp_path / "f.moya"
    gridio.write_grid(path, f)
    _, sigma, _ = gridio.read_grid(path)
    assert sigma is None


def test_grid_roundtrip_keeps_exact_length(tmp_path):
    spec = GridSpec(dim=2, n=8, length=8.3, theta=0.5)
    f = GridFunction(spec, np.arange(64.0).reshape(8, 8))
    path = tmp_path / "f.moya"
    gridio.write_grid(path, f)
    g, _, _ = gridio.read_grid(path)
    assert g.spec == spec
    assert g.spec.length == 8.3


def test_sidecar_length_must_match_header(tmp_path):
    f = random_grid()
    path = tmp_path / "f.moya"
    gridio.write_grid(path, f)
    sidecar = path.with_suffix(".moya.json")
    sidecar.write_text(sidecar.read_text().replace('"length": 8.0', '"length": 8.5'))
    with pytest.raises(ValueError, match="sidecar.length 8.5 disagrees with header 8.0"):
        gridio.read_grid(path)


@pytest.mark.parametrize("edit", [{"n": 32}, {"dim": 3}, {"n": 32, "dim": 3}])
def test_sidecar_shape_must_match_header(tmp_path, edit):
    f = random_grid()  # n = 16, dim = 2
    path = tmp_path / "f.moya"
    gridio.write_grid(path, f)
    sidecar = path.with_suffix(".moya.json")
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))
    with pytest.raises(ValueError, match="disagrees with header"):
        gridio.read_grid(path)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "junk.moya"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError, match="bad magic; not a .moya file"):
        gridio.read_grid(path)


def test_truncated_file_raises(tmp_path):
    f = random_grid(seed=2)
    path = tmp_path / "f.moya"
    gridio.write_grid(path, f)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ValueError, match="payload bytes, expected"):
        gridio.read_grid(path)
    path.write_bytes(raw[:8])
    with pytest.raises(ValueError, match="file too short for a .moya header"):
        gridio.read_grid(path)


def test_unsupported_version_raises(tmp_path):
    f = random_grid(seed=3)
    path = tmp_path / "f.moya"
    gridio.write_grid(path, f)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # version byte
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported version 99"):
        gridio.read_grid(path)



# JSON-like leaves: ints reach +-10^400, beyond the float range, and floats
# include +-inf and NaN, which json.dumps writes as Infinity and NaN
NUMBERS = st.integers(min_value=-(10**400), max_value=10**400) | st.floats()
LEAVES = st.none() | st.booleans() | st.text("aehinst", max_size=3) | NUMBERS
MATRICES = st.lists(st.lists(NUMBERS, max_size=4), max_size=4)
USAGE_ERRORS = (ValueError, OSError)  # what cli.main maps to exit 2


def json_like(keys):
    """Nested JSON-like values whose object keys are mostly drawn from keys."""
    key = st.sampled_from(sorted(keys)) | st.text("aehinst", max_size=3)
    return st.recursive(
        LEAVES,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(key, inner, max_size=4),
        max_leaves=8,
    )


CONFIG_KEYS = ("dim", "metric", "sigma0", "grid", "seed", "n", "length", "theta")
CONFIGS = json_like(CONFIG_KEYS) | st.fixed_dictionaries(
    {},
    optional={
        "dim": st.sampled_from([10**20, -(10**20)]) | st.integers(max_value=255),
        "metric": st.lists(st.sampled_from([1, -1]), max_size=6) | LEAVES,
        "sigma0": MATRICES | LEAVES,
        "grid": st.fixed_dictionaries({}, optional=dict.fromkeys(("n", "length", "theta"), LEAVES)),
        "seed": LEAVES,
    },
)
SIDECARS = json_like(gridio.SIDECAR_KEYS) | st.fixed_dictionaries(
    {},
    optional={
        "dim": st.just(2) | LEAVES,
        "n": st.just(8) | LEAVES,
        "length": st.just(8.0) | LEAVES,
        "theta": LEAVES,
        "sigma": MATRICES | LEAVES,
        "gaussian": MATRICES | LEAVES,
    },
)


@settings(max_examples=100, deadline=None)
@given(data=CONFIGS)
def test_any_json_config_loads_or_is_a_usage_error(data):
    try:
        RunConfig.from_dict(data)
    except USAGE_ERRORS:
        pass


@settings(max_examples=100, deadline=None)
@given(data=SIDECARS)
def test_any_json_sidecar_reads_or_is_a_usage_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "any-sidecar.moya"
    gridio.write_grid(path, random_grid(n=8))
    gridio.sidecar_path(path).write_text(json.dumps(data))
    try:
        gridio.read_grid(path)
    except USAGE_ERRORS:
        pass
