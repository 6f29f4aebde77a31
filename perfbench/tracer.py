"""Span tracer that times the library's layers from outside.

``Tracer.install`` replaces each traced public function by a wrapper, in its
defining module and in every ``moyalorbit`` module that imported it by name
(and, for methods, on the class).  A wrapper records one span per call:
name, start, end, parent span and the op it belongs to.  Some wrappers also
add to counters computed from argument shapes.  Spans stay in memory until
the run ends; ``uninstall`` puts the original functions back.

A span's self time is its duration minus the durations of its direct
children.  The library is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _ramp_entries(values_hat, spec, shifts):
    return {"grids.ramp_entries": np.shape(shifts)[0] * spec.size}


def _fft_points(values, spec):
    return {"grids.fft_points": np.size(values)}


def _fft_points_grid(f):
    return {"grids.fft_points": np.size(f.values)}


def _matrix_bytes(f, sigma, provenance=""):
    return {"operators.matrix_bytes": f.spec.size**2 * 16}


def _term_pairs(a, b):
    return {"weyl.mul.term_pairs": len(a.terms) * len(b.terms)}


def _grid_bytes_written(path, f, sigma=None):
    return {"gridio.bytes_written": 16 + 16 * f.spec.size}


def _grid_bytes_read(result):
    return {"gridio.bytes_read": 16 + 16 * result[0].spec.size}


# (module, attribute, counter from the call's arguments, counter from its result)
SPANS = (
    ("star", "star_product", None, None),
    ("star", "semiclassical_defects", None, None),
    ("star", "poisson_bracket", None, None),
    ("grids", "shift_batch", _ramp_entries, None),
    ("grids", "shift", None, None),
    ("grids", "forward_array", _fft_points, None),
    ("grids", "inverse_array", _fft_points, None),
    ("oracle", "oracle_defect", None, None),
    ("oracle", "star_oracle_point", None, None),
    ("operators", "build_left_regular_matrix", _matrix_bytes, None),
    ("operators", "OperatorMatrix.spectral_norm", None, None),
    ("operators", "cstar_identity_check", None, None),
    ("covariance", "phi_alpha", None, None),
    ("covariance", "tau_act", None, None),
    ("covariance", "rho_act", None, None),
    ("weyl", "mul", _term_pairs, None),
    ("geometry", "sample_orbit", None, None),
    ("geometry", "random_lorentz", None, None),
    ("gridio", "write_grid", _grid_bytes_written, None),
    ("gridio", "read_grid", None, _grid_bytes_read),
    ("cli", "cmd_star", None, None),
    ("cli", "cmd_verify", None, None),
    ("suites", "suite_weyl", None, None),
    ("suites", "suite_equivariance", None, None),
    ("suites", "suite_cstar", None, None),
    ("suites", "suite_semiclassical", None, None),
)

# Count-only wrappers: transforms that feed grids.fft_points but get no span.
COUNTS = (
    ("grids", "fft_forward", _fft_points_grid),
    ("grids", "fft_inverse", _fft_points_grid),
)

COUNTERS = (
    "grids.ramp_entries",
    "grids.fft_points",
    "operators.matrix_bytes",
    "weyl.mul.term_pairs",
    "gridio.bytes_written",
    "gridio.bytes_read",
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _, _ in SPANS)


def library_modules() -> list:
    """The loaded ``moyalorbit`` package and its submodules."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "moyalorbit" or name.startswith("moyalorbit."))
    ]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.originals = {}  # traced or counted name -> the unwrapped function

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod, attr, on_args, on_result in SPANS:
            wrapper = self._span_wrapper(f"{mod}.{attr}", on_args, on_result)
            self._patch(mod, attr, wrapper)
        for mod, attr, on_args in COUNTS:
            self._patch(mod, attr, self._count_wrapper(on_args))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, mod: str, attr: str, make_wrapper) -> None:
        home = importlib.import_module(f"moyalorbit.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            self.originals[f"{mod}.{attr}"] = original
            self._patched.append((cls, meth, original))
            setattr(cls, meth, make_wrapper(original))
            return
        original = getattr(home, attr)
        self.originals[f"{mod}.{attr}"] = original
        wrapper = make_wrapper(original)
        for module in library_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, key, original))
                    setattr(module, key, wrapper)

    def _span_wrapper(self, name: str, on_args, on_result):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if on_args is not None:
                    for key, n in on_args(*args, **kwargs).items():
                        counts[key] += n
                record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
                index = len(spans)
                spans.append(record)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if on_result is not None:
                    for key, n in on_result(result).items():
                        counts[key] += n
                return result

            return wrapper

        return make

    def _count_wrapper(self, on_args):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for key, n in on_args(*args, **kwargs).items():
                    counts[key] += n
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> list:
        """Per-span self time: duration minus the direct children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Totals per span name: calls, busy_s and self_s."""
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for span, self_s in zip(self.spans, self.self_times()):
            row = out[span[0]]
            row["calls"] += 1
            row["busy_s"] += span[2] - span[1]
            row["self_s"] += self_s
        return out

    def per_op_metrics(self, ops: int) -> dict:
        """Per-layer metrics as name -> (value per op, unit)."""
        summary = self.summary()
        metrics = {}
        for name in SPAN_NAMES:
            row = summary[name]
            metrics[f"{name}.calls"] = (row["calls"] / ops, "1/op")
            metrics[f"{name}.busy_s"] = (row["busy_s"] / ops, "s/op")
            metrics[f"{name}.self_s"] = (row["self_s"] / ops, "s/op")
        for key in COUNTERS:
            unit = "B/op" if "bytes" in key else "1/op"
            metrics[key] = (self.counts.get(key, 0) / ops, unit)
        metrics["trace.spans"] = (len(self.spans) / ops, "1/op")
        return metrics
