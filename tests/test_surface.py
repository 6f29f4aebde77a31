"""The library surface stays what the commands and the benchmark reach.

Both guards read module sources with ast only.  A name is "named" by a source
when it appears there as a variable, an attribute, an imported name, or a
dotted string such as the tracer's "OperatorMatrix.spectral_norm".
"""

import ast
from pathlib import Path

import moyalorbit

PACKAGE = Path(moyalorbit.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Public functions, classes and methods that only tests reach: the helpers
# behind acceptance criteria 2, 4, 5 and 8, and tools the tests build fixtures
# or references with.  A new entry needs a caller in src/ or perfbench/.
TEST_ONLY = {
    "covariance.FiberedFunction.from_callable",
    "covariance.check_pointwise_theorem",
    "geometry.SkewForm.scaled",
    "geometry.SkewForm.zero",
    "geometry.in_stabilizer",
    "grids.GridFunction.from_callable",
    "operators.apply_operator",
    "oracle.GaussianFactor.hat",
    "star.commutator_constant",
    "star.inner_product_B",
    "star.interior_mask",
    "star.star_commutator",
    "star.weyl_action",
    "weyl.WeylElement.isclose",
    "weyl.WeylElement.scaled",
}


def _unused_imports(source: str) -> list:
    """Imported names that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
        elif isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def _named(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def _public_defs(module: str, tree: ast.Module) -> dict:
    """Qualified name -> bare name of each public top-level function, class and method."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    defs[f"{module}.{node.name}.{member.name}"] = member.name
    return {q: name for q, name in defs.items() if not name.startswith("_")}


def test_src_has_no_unused_imports():
    # __init__ imports to re-export, so it is the one exception
    offenders = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in offenders.items() if found} == {}
    assert _unused_imports("import numpy as np\nfrom a import b\nnp.pi\n") == ["b (line 2)"]


def test_only_pinned_names_are_unreached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    named = set().union(
        *map(_named, trees.values()),
        *(_named(ast.parse(path.read_text())) for path in sorted(PERFBENCH.glob("*.py"))),
    )
    defs = {}
    for module, tree in trees.items():
        defs.update(_public_defs(module, tree))
    assert {q for q, name in defs.items() if name not in named} == TEST_ONLY
