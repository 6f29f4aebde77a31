"""The library surface stays what the commands and the benchmark reach.

Both guards read module sources with ast only.  A top-level function or
class of module m is reached only through m: a bare name inside m itself,
an import from m, an attribute m.name (m possibly imported under another
name), or a string naming m and the name, as "m.name" or as the tracer's
("m", "name") pair.  A method is reached by its bare name anywhere, as an
attribute, a name or a dotted string such as the tracer's
"OperatorMatrix.spectral_norm".
"""

import ast
from pathlib import Path

import moyalorbit

PACKAGE = Path(moyalorbit.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Public functions, classes and methods that only tests reach: the helpers
# behind acceptance criteria 2, 4, 5 and 8 (the validated boost and rotation
# builders among them: the sampler multiplies raw letters), gamma_act, whose
# two-pass composition is the reference of the one-spectrum gamma check, and
# tools the tests build fixtures or references with.  Any other new entry
# needs a caller in src/ or perfbench/.
TEST_ONLY = {
    "covariance.FiberedFunction.from_callable",
    "covariance.check_pointwise_theorem",
    "covariance.gamma_act",
    "geometry.SkewForm.scaled",
    "geometry.SkewForm.zero",
    "geometry.in_stabilizer",
    "geometry.make_boost",
    "geometry.make_rotation",
    "grids.GridFunction.from_callable",
    "oracle.GaussianFactor.hat",
    "star.commutator_constant",
    "star.inner_product_B",
    "star.interior_mask",
    "star.star_commutator",
    "star.weyl_action",
    "weyl.WeylElement.isclose",
    "weyl.WeylElement.scaled",
    "weyl.star",
    "weyl.unit",
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
    """Every bare name the source mentions: the reach of a method."""
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


def _module_names(tree: ast.AST) -> dict:
    """Local name -> package module for each `from moyalorbit import m [as x]`."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "moyalorbit"
        for alias in node.names
    }


def _reached(tree: ast.AST, module: str | None) -> set:
    """(module, name) pairs the source reaches through the module; module is its own, if any."""
    aliases = _module_names(tree)
    reached = set()

    def text(node):
        is_text = isinstance(node, ast.Constant) and isinstance(node.value, str)
        return node.value if is_text else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and module is not None:
            reached.add((module, node.id))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("moyalorbit."):
            reached.update((node.module.split(".")[1], alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                reached.add((aliases[owner.id], node.attr))
            elif (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "moyalorbit"
            ):
                reached.add((owner.attr, node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            first, second = text(node.elts[0]), text(node.elts[1])
            if first is not None and second is not None:
                reached.add((first, second.split(".")[0]))
        elif text(node) is not None and text(node).count(".") == 1:
            reached.add(tuple(text(node).split(".")))
    return reached


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
    offenders = {
        path.name: _unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}
    assert _unused_imports("import numpy as np\nfrom a import b\nnp.pi\n") == ["b (line 2)"]


def test_only_pinned_names_are_unreached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    perfbench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    reached = set().union(
        *(_reached(tree, module) for module, tree in trees.items()),
        *(_reached(tree, None) for tree in perfbench),
    )
    named = set().union(*map(_named, [*trees.values(), *perfbench]))
    defs = {}
    for module, tree in trees.items():
        defs.update(_public_defs(module, tree))
    unreached = {
        q
        for q, name in defs.items()
        if (name not in named if q.count(".") == 2 else tuple(q.split(".")) not in reached)
    }
    assert unreached == TEST_ONLY


def test_a_name_is_reached_only_through_its_module():
    # a bare "unit" elsewhere, or a module named like the function, reaches nothing
    other = ast.parse('from moyalorbit import star\nreport = {"unit": 1}\nstar.star_product\n')
    assert ("weyl", "unit") not in _reached(other, "cli")
    assert ("weyl", "star") not in _reached(other, "cli")
    assert ("star", "star_product") in _reached(other, "cli")
    imported = ast.parse(
        "from moyalorbit.weyl import unit\nimport moyalorbit.weyl\nmoyalorbit.weyl.star\n"
    )
    assert {("weyl", "unit"), ("weyl", "star")} <= _reached(imported, None)
    assert ("weyl", "unit") in _reached(ast.parse("unit(sigma)\n"), "weyl")
    traced = ast.parse('SPANS = (("grids", "shift_batch", None),)\nNAME = "covariance.phi_alpha"\n')
    assert {("grids", "shift_batch"), ("covariance", "phi_alpha")} <= _reached(traced, None)
