"""Grid binary format, typed JSON input values and the JSON output format.

The .moya format: a 16-byte header (magic "MOYA", u8 version, u8 dim,
u16 N, f32 L, 4 pad bytes, all little-endian) followed by N^d complex
float64 values, row-major.  A JSON sidecar <path>.json carries the grid
spec, the skew form, and theta.
"""

from __future__ import annotations

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


def json_text(data) -> str:
    """The text of every JSON output: sorted keys, indent 1, a final newline."""
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def write_json(path, data) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(data))


def write_grid(path, f: GridFunction, sigma: SkewForm | None = None) -> None:
    path = Path(path)
    spec = f.spec
    header = struct.pack(_HEADER, MAGIC, VERSION, spec.dim, spec.n, spec.length)
    data = np.ascontiguousarray(f.values, dtype="<c16").tobytes()
    path.write_bytes(header + data)
    sidecar = {
        "dim": spec.dim,
        "n": spec.n,
        "length": spec.length,
        "theta": spec.theta,
    }
    if sigma is not None:
        sidecar["sigma"] = sigma.to_json()
    path.with_suffix(path.suffix + ".json").write_text(json_text(sidecar))


def read_grid(path) -> tuple:
    """Returns (GridFunction, sigma-or-None)."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16:
        raise FormatError("file too short for a .moya header")
    magic, version, dim, n, length = struct.unpack(_HEADER, raw[:16])
    if magic != MAGIC:
        raise FormatError("bad magic; not a .moya file")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    theta = 1.0
    sigma = None
    sidecar_path = path.with_suffix(path.suffix + ".json")
    if sidecar_path.exists():
        sidecar = json_value(dict, json.loads(sidecar_path.read_text()), "sidecar")
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
    values = np.frombuffer(raw[16:], dtype="<c16")
    return GridFunction(spec, values.reshape((n,) * dim).copy()), sigma

