"""Grid binary format, typed JSON input values, the JSON output format and
the file I/O of every command.

The .moya format: a 16-byte header (magic "MOYA", u8 version, u8 dim,
u16 N, f32 L, 4 pad bytes, all little-endian) followed by N^d complex
float64 values, row-major.  A JSON sidecar <path>.json carries the grid
spec, the skew form, and theta.  An OSError while reading or writing is a
ValueError "cannot read|write PATH: reason" (io_errors).
"""

from __future__ import annotations

import contextlib
import json
import struct
from pathlib import Path

import numpy as np

from moyalorbit.geometry import SkewForm
from moyalorbit.grids import GridFunction, GridSpec

MAGIC = b"MOYA"
VERSION = 1
_HEADER = "<4sBBHf4x"  # magic, version, dim, N, L, pad


class FormatError(ValueError):
    """Raised on a malformed .moya file, a mismatched sidecar or a mistyped JSON value."""


def json_value(kind, value, key: str):
    """A JSON value as kind (int, float, dict, or [kind] for a list); else FormatError.

    A bool is never a number, and an int is a float.
    """
    if isinstance(kind, list):
        return tuple(json_value(kind[0], v, key) for v in json_value(list, value, key))
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise FormatError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


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


def grid_sidecar(spec: GridSpec, sigma: SkewForm | None) -> dict:
    """The sidecar write_grid writes: the spec, theta, and sigma if given."""
    sidecar = {"dim": spec.dim, "n": spec.n, "length": spec.length, "theta": spec.theta}
    if sigma is not None:
        sidecar["sigma"] = sigma.to_json()
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
    write_grid_file(path, f, grid_sidecar(f.spec, sigma))


def read_grid(path) -> tuple:
    """(GridFunction, sigma or None, sidecar): the sidecar object is parsed once
    ({} without a sidecar), and a caller reads its own keys from it."""
    path = Path(path)
    with io_errors("read"):
        raw = path.read_bytes()
        side = sidecar_path(path)
        text = side.read_text() if side.exists() else None
    if len(raw) < 16:
        raise FormatError("file too short for a .moya header")
    magic, version, dim, n, length = struct.unpack(_HEADER, raw[:16])
    if magic != MAGIC:
        raise FormatError("bad magic; not a .moya file")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    theta = 1.0
    sigma = None
    sidecar = {}
    if text is not None:
        sidecar = json_value(dict, json.loads(text), "sidecar")
        theta = json_value(float, sidecar.get("theta", 1.0), "sidecar theta")
        for key, value in (("dim", dim), ("n", n)):
            if json_value(int, sidecar.get(key, value), f"sidecar {key}") != value:
                raise FormatError(f"sidecar {key} {sidecar[key]} disagrees with header {value}")
        if "sigma" in sidecar:
            sigma = SkewForm(np.asarray(json_value([[float]], sidecar["sigma"], "sidecar sigma")))
        if "length" in sidecar:
            # the header holds L as f32; the sidecar holds it exactly
            exact = json_value(float, sidecar["length"], "sidecar length")
            if np.float32(exact) != np.float32(length):
                raise FormatError(f"sidecar length {exact} disagrees with header {length}")
            length = exact
    spec = GridSpec(dim=dim, n=n, length=float(length), theta=theta)
    count = spec.size
    if len(raw) - 16 != 16 * count:
        raise FormatError(f"expected {16 * count} payload bytes, found {len(raw) - 16}")
    values = np.frombuffer(raw[16:], dtype="<c16")  # GridFunction copies it
    return GridFunction(spec, values.reshape((n,) * dim)), sigma, sidecar

