"""One owner per decision: one table of rules over the library's source.

Each src/moyalorbit/*.py is parsed once and every node is indexed by its
owner, "module.name" inside a top-level def or class and "module.<module>"
elsewhere.  A row of RULES is a matcher (node -> finding, "" for none), the
owners (fnmatch patterns) allowed to hold findings, which must then hold at
least one, the exact findings of src/ where their count is pinned, and a
planted (module, source, number of findings the rule must flag).
"""

import ast
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

import moyalorbit
from moyalorbit.suites import SUITES

RUNTIME_ROOTS = {*sys.stdlib_module_names, "numpy", "moyalorbit"}


def index(module: str, source: str) -> list:
    """(owner, node) for every node of the module's source."""
    return [
        (f"{module}.{getattr(top, 'name', '<module>')}", node)
        for top in ast.parse(source).body
        for node in ast.walk(top)
    ]


PACKAGE = sorted(Path(moyalorbit.__file__).parent.glob("*.py"))
SRC = [pair for path in PACKAGE for pair in index(path.stem, path.read_text())]


def dotted(node) -> str:
    """The text of a name or an attribute chain; "" for any other node."""
    return ast.unparse(node) if isinstance(node, (ast.Name, ast.Attribute)) else ""


def imported(node) -> list:
    """The parts of each dotted name an import brings in (`from m import a` brings m.a)."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".") for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [[*(node.module or "").split("."), alias.name] for alias in node.names]
    return []


def source_if(matched):
    """A matcher whose finding is the source of each node that matched."""
    return lambda node: ast.unparse(node) if matched(node) else ""


def error_exit(node) -> bool:
    """A use of USAGE_ERROR, or a print whose first argument holds "error:"."""
    if isinstance(node, ast.Call) and dotted(node.func) == "print" and node.args:
        return "error:" in ast.unparse(node.args[0])
    return dotted(node).split(".")[-1] == "USAGE_ERROR"


def stderr_text(node) -> str:
    """The first string of a statement whose own expressions (not the
    statements it holds) name stderr, or its source if it has none."""
    if not isinstance(node, ast.stmt):
        return ""
    kids = [kid for kid in ast.iter_child_nodes(node) if not isinstance(kid, ast.stmt)]
    own = [part for kid in kids if not isinstance(kid, ast.excepthandler) for part in ast.walk(kid)]
    if "stderr" not in {getattr(part, key, 0) for part in own for key in ("attr", "id", "name")}:
        return ""
    texts = (part.value for part in own if isinstance(getattr(part, "value", 0), str))
    return next(texts, ast.unparse(node))


def suite_params(node) -> str:
    if not (isinstance(node, ast.FunctionDef) and node.name.startswith("suite_")):
        return ""
    a = node.args
    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
    return ", ".join(p.arg for p in params if p)


FFT = {"fft", "fftpack"}
RULES = {  # name: (matcher, owners, exact findings or None, planted)
    "fft-only-in-grids": (
        source_if(lambda n: getattr(n, "attr", 0) in FFT or any(FFT & {*p} for p in imported(n))),
        ("grids.*",), None,
        ("cli", "import numpy.fft\nfrom scipy import fftpack\nnp.fft.fftn(x)", 3),
    ),
    "ctypes-only-in-cli": (
        source_if(lambda n: any(p[0] == "ctypes" for p in imported(n))),
        ("cli.*",), None, ("gridio", "import ctypes.util\nfrom ctypes import CDLL", 2),
    ),
    "json-dumps-only-in-gridio": (
        source_if(lambda n: dotted(n) == "json.dumps"),
        ("gridio.*",), None, ("cli", "text = json.dumps(report)", 1),
    ),
    "json-loads-only-in-gridio": (
        source_if(lambda n: dotted(n) in ("json.loads", "json.load", "loads")),
        ("gridio.*",), None, ("cli", "json.loads(a)\njson.load(b)\nloads(c)", 3),
    ),
    "numpy-error-state-once-in-cli-main": (
        source_if(lambda n: dotted(n).split(".")[-1] in ("errstate", "seterr", "seterrcall")),
        ("cli.main",), [("cli.main", "np.errstate")],
        ("cli", "def main():\n    with np.errstate(all='raise'):\n        seterrcall(f)", 2),
    ),
    "usage-exit-only-in-cli-main": (
        source_if(error_exit), ("cli.main", "cli.<module>"), None,
        ("cli", "def cmd_x(args, cfg):\n    print(f'error: {args}')\n    return USAGE_ERROR", 2),
    ),
    "stderr-only-in-the-cli-main-error-line": (
        stderr_text, ("cli.main",), [("cli.main", "error: ")],
        ("m", "from sys import stderr\ndef f(t):\n    if t:\n        sys.stderr.write('took')", 2),
    ),
    "suites-take-only-the-config": (
        suite_params, ("suites.suite_*",), [(f"suites.suite_{name}", "cfg") for name in SUITES],
        ("suites", "def suite_weyl(cfg, draws=400):\n    pass", 1),
    ),
    "runtime-imports-only-stdlib-and-numpy": (
        lambda n: " ".join(p[0] for p in imported(n) if p[0] not in RUNTIME_ROOTS), (), None,
        ("grids", "import scipy.special\nfrom scipy import fft\nimport numpy, requests", 3),
    ),
}


def broken(match, owners, exact, pairs) -> list:
    """The findings that break a rule: all of them unless they are its exact
    findings (where it pins them), else those outside its owners."""
    found = [(owner, finding) for owner, node in pairs if (finding := match(node))]
    if exact is not None and sorted(found) != sorted(exact):
        return found
    return [(owner, f) for owner, f in found if not any(fnmatch(owner, p) for p in owners)]


@pytest.mark.parametrize("match, owners, exact, planted", RULES.values(), ids=RULES)
def test_each_decision_has_one_owner(match, owners, exact, planted):
    assert broken(match, owners, exact, SRC) == []
    assert any(match(node) for _, node in SRC) == bool(owners)  # the matcher sees the real use
    module, source, flagged = planted
    assert len(broken(match, owners, exact, index(module, source))) == flagged
