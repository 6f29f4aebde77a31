"""Grid binary format, the one reader of JSON input, the JSON output format
and the file I/O of every command.

The .moya format: a 16-byte header (magic "MOYA", u8 version, u8 dim,
u16 N, f32 L, 4 pad bytes, all little-endian) followed by N^d complex
float64 values, row-major.  A required JSON sidecar <path>.json carries the
grid spec and theta, and optionally the skew form and a `gauss` grid's
Gaussian, one c,w,b row per axis.  Every JSON input is read by read_json and
typed by json_value.  An OSError while reading or writing is a ValueError
"cannot read|write PATH: reason" (io_errors).
"""

from __future__ import annotations

import contextlib
import json
import struct
from pathlib import Path

import numpy as np

from moyalorbit.geometry import SkewForm
from moyalorbit.grids import GridFunction, GridSpec
from moyalorbit.oracle import GaussianFactor, SeparableGaussian

MAGIC = b"MOYA"
VERSION = 1
_HEADER = "<4sBBHf4x"  # magic, version, dim, N, L, pad
MAX_DIM = 255  # the header holds dim as a u8
SIDECAR_KEYS = {  # each sidecar key with its JSON type
    "dim": int, "n": int, "length": float, "theta": float,
    "sigma": [[float]], "gaussian": [[float]],
}


def json_value(kind, value, key: str):
    """A JSON value as kind (int, float, dict, [kind] for a list, or a dict of
    kinds for an object with only those keys, each optional); else a
    ValueError that names key.  A bool is never a number."""
    if isinstance(kind, list):
        return tuple(json_value(kind[0], v, key) for v in json_value(list, value, key))
    if isinstance(kind, dict):
        unknown = set(json_value(dict, value, key)) - set(kind)
        if unknown:
            raise ValueError(f"unknown {key} keys: {sorted(unknown)}")
        return {k: json_value(kind[k], v, f"{key}.{k}") for k, v in value.items()}
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{key} is an integer beyond the float range") from None


def read_json(path):
    """The JSON value in file path; else a ValueError that names path."""
    with io_errors("read"):
        raw = Path(path).read_bytes()
    try:
        return json.loads(raw.decode())
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"{path} is not JSON: {exc}") from None


@contextlib.contextmanager
def io_errors(verb: str):
    """Turn an OSError inside into a ValueError "cannot VERB PATH: reason"."""
    try:
        yield
    except OSError as exc:
        where = "" if exc.filename is None else f" {exc.filename}"
        raise ValueError(f"cannot {verb}{where}: {exc.strerror or exc}") from exc


def make_dir(path) -> None:
    """mkdir -p, an I/O error as io_errors gives it."""
    with io_errors("write"):
        Path(path).mkdir(parents=True, exist_ok=True)


def write_text(path, text: str) -> None:
    path = Path(path)
    make_dir(path.parent)
    with io_errors("write"):
        path.write_text(text)


def sidecar_path(path) -> Path:
    """The JSON sidecar of a grid file: <path>.json."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


def json_text(data) -> str:
    """The text of every JSON output: sorted keys, indent 1, a final newline."""
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def write_json(path, data) -> None:
    write_text(path, json_text(data))


def grid_sidecar(spec: GridSpec, sigma: SkewForm | None, gaussian: SeparableGaussian | None):
    """A grid's sidecar: the spec, theta, and sigma and the Gaussian if given."""
    sidecar = {"dim": spec.dim, "n": spec.n, "length": spec.length, "theta": spec.theta}
    if sigma is not None:
        sidecar["sigma"] = sigma.to_json()
    if gaussian is not None:
        sidecar["gaussian"] = [[f.center, f.width, f.freq] for f in gaussian.factors]
    return sidecar


def write_grid_file(path, f: GridFunction, sidecar: dict) -> None:
    """The grid file and its sidecar, each written once."""
    spec = f.spec
    header = struct.pack(_HEADER, MAGIC, VERSION, spec.dim, spec.n, spec.length)
    data = np.ascontiguousarray(f.values, dtype="<c16").tobytes()
    with io_errors("write"):
        Path(path).write_bytes(header + data)
    write_text(sidecar_path(path), json_text(sidecar))


def write_grid(path, f: GridFunction, sigma: SkewForm | None = None) -> None:
    write_grid_file(path, f, grid_sidecar(f.spec, sigma, None))


def read_grid(path) -> tuple:
    """(GridFunction, sigma or None, SeparableGaussian or None): the sidecar is
    required, parsed once and typed by SIDECAR_KEYS, and an error in it names
    it.  It must hold dim, n, length and theta; sigma and gaussian are optional."""
    path, side = Path(path), sidecar_path(path)
    with io_errors("read"):
        raw = path.read_bytes()
    if len(raw) < 16:
        raise ValueError(f"{path}: file too short for a .moya header")
    magic, version, dim, n, length = struct.unpack(_HEADER, raw[:16])
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic; not a .moya file")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    sidecar = read_json(side)
    try:
        sidecar = json_value(SIDECAR_KEYS, sidecar, "sidecar")
        missing = {"dim", "n", "length", "theta"} - set(sidecar)
        if missing:
            raise ValueError(f"missing sidecar keys: {sorted(missing)}")
        for key, value in (("dim", dim), ("n", n)):
            if sidecar[key] != value:
                raise ValueError(f"sidecar.{key} {sidecar[key]} disagrees with header {value}")
        sigma = SkewForm(np.asarray(sidecar["sigma"])) if "sigma" in sidecar else None
        gaussian = None
        if "gaussian" in sidecar:
            rows = sidecar["gaussian"]
            if len(rows) != dim or any(len(row) != 3 for row in rows):
                raise ValueError(f"sidecar.gaussian must hold {dim} c,w,b rows, one per axis")
            gaussian = SeparableGaussian(tuple(GaussianFactor(*row) for row in rows))
        spec = GridSpec(dim, n, sidecar["length"], sidecar["theta"])
        # the header holds L as f32; the sidecar holds it exactly
        if np.float32(spec.length) != np.float32(length):
            raise ValueError(f"sidecar.length {spec.length} disagrees with header {length}")
    except ValueError as exc:
        raise ValueError(f"{side}: {exc}") from None
    if len(raw) - 16 != 16 * spec.size:
        raise ValueError(f"{path}: {len(raw) - 16} payload bytes, expected {16 * spec.size}")
    values = np.frombuffer(raw[16:], dtype="<c16")  # GridFunction copies it
    return GridFunction(spec, values.reshape((n,) * dim)), sigma, gaussian
