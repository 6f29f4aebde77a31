"""The library surface stays what the commands and the benchmark reach.

The reach guards read module sources with ast only.  A top-level function or
class of module m is reached only through m: a bare name inside m itself,
an import from m, an attribute m.name (m possibly imported under another
name), or a string naming m and the name, as "m.name" or as the tracer's
("m", "name") pair.  A method is reached by its bare name anywhere, as an
attribute, a name or a dotted string such as the tracer's
"OperatorMatrix.spectral_norm".  The README guard imports the package and
resolves each module.name that README.md names in inline code.
"""

import ast
import importlib
import re
from pathlib import Path

import moyalorbit

PACKAGE = Path(moyalorbit.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"
GRID_SUFFIX = ".moya"  # `star.moya` names the star command's grid file, not an attribute

# Public functions, classes and methods that only tests reach: the helpers
# behind acceptance criteria 2, 4, 5 and 8 (the validated boost and rotation
# builders among them: the sampler multiplies raw letters); the references of
# faster checks (gamma_act, whose two-pass composition checks the one-spectrum
# gamma check, and GaussianFactor.hat, the closed-form transform); and weyl's
# algebra operations, which the tests would otherwise copy.  A name that a test
# can replace with one existing public call does not belong here: delete it.
# Any other new entry needs a caller in src/ or perfbench/.
TEST_ONLY = {
    "covariance.FiberedFunction.from_callable",
    "covariance.check_pointwise_theorem",
    "covariance.gamma_act",
    "geometry.in_stabilizer",
    "geometry.make_boost",
    "geometry.make_rotation",
    "oracle.GaussianFactor.hat",
    "star.commutator_constant",
    "star.interior_mask",
    "star.star_commutator",
    "star.weyl_action",
    "weyl.WeylElement.isclose",
    "weyl.WeylElement.scaled",
    "weyl.star",
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


def _assigned(tree: ast.Module) -> dict:
    """Name -> line of each name the module assigns at top level."""
    return {
        name.id: node.lineno
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    }


def _read(tree: ast.AST) -> set:
    """Every name the source reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def _unread_constants(sources: dict) -> list:
    """module.NAME (line) of each module-level assignment that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return sorted(
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        for name, line in _assigned(tree).items()
        if name not in read and not name.startswith("__")
    )


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


def test_src_has_no_unread_module_constants():
    # a constant that nothing in src/ reads is a stale knob; tests and the
    # benchmark do not count as readers
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_constants(sources) == []
    other = {"a": "A = 1\nB, C = 2, 3\nD: int = 4\nprint(A)\n", "b": "from a import C\nC.x\n"}
    assert _unread_constants(other) == ["a.B (line 2)", "a.D (line 3)"]


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
    # a bare "unit_u" elsewhere, or a module named like the function, reaches nothing
    other = ast.parse('from moyalorbit import star\nreport = {"unit_u": 1}\nstar.star_product\n')
    assert ("weyl", "unit_u") not in _reached(other, "cli")
    assert ("weyl", "star") not in _reached(other, "cli")
    assert ("star", "star_product") in _reached(other, "cli")
    imported = ast.parse(
        "from moyalorbit.weyl import unit_u\nimport moyalorbit.weyl\nmoyalorbit.weyl.star\n"
    )
    assert {("weyl", "unit_u"), ("weyl", "star")} <= _reached(imported, None)
    assert ("weyl", "unit_u") in _reached(ast.parse("unit_u(alpha, sigma)\n"), "weyl")
    traced = ast.parse('SPANS = (("grids", "shift_batch", None),)\nNAME = "covariance.phi_alpha"\n')
    assert {("grids", "shift_batch"), ("covariance", "phi_alpha")} <= _reached(traced, None)


def _readme_names(text: str, modules: set) -> list:
    """Each module.name[.attr] in the inline code of markdown text, module one
    of modules; fenced blocks and grid file names are skipped."""
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    return [
        match.group(0)
        for span in re.findall(r"`([^`]+)`", prose)
        if not span.endswith(GRID_SUFFIX)
        for match in re.finditer(r"(?<![\w.])(\w+)\.[\w.]*\w", span)
        if match.group(1) in modules
    ]


def _resolves(name: str) -> bool:
    """Whether name is an attribute path of its moyalorbit module."""
    module, *path = name.split(".")
    owner = importlib.import_module(f"moyalorbit.{module}")
    for attr in path:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_readme_names_resolve():
    # a rename or a deletion in src/ fails here until README.md follows it
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    names = _readme_names(README.read_text(), modules)
    assert "grids.shift_batch" in names and "star.moya" not in names
    assert [name for name in names if not _resolves(name)] == []
    text = "`grids.shift(f, x)`, `star.moya`, `np.fft`\n```\nweyl.gone\n```\n`geometry.Spacetime.x`"
    assert _readme_names(text, modules) == ["grids.shift", "geometry.Spacetime.x"]
    assert _resolves("grids.shift") and _resolves("geometry.SkewForm.to_json")
    assert not _resolves("geometry.Spacetime.x") and not _resolves("weyl.gone.copy")
