"""Every name a ctlab submodule exports has a caller inside the package.

Each submodule's ``__all__`` is read with ``ast``. A name counts as called
when some module of the package refers to it (as a name or an attribute)
outside its own ``def``/``class`` statement. Importing a name does not count,
so a re-export in ``__init__.py`` is no call, and the ``__all__`` string does
not count either. Names that only the test suite or the benchmark
reach are listed in TEST_ONLY, each with the reason it stays.
"""

import ast
from pathlib import Path

import ctlab

PACKAGE = Path(ctlab.__file__).resolve().parent

TEST_ONLY = {
    "moment_experiment": (
        "checks the paper's lower-bound moment constants; run by "
        "tests/test_acceptance.py::test_06b_hard_instance_moment_bounds"
    ),
    "lipschitz_probe": (
        "checks the paper's Lipschitz constants; run by "
        "tests/test_acceptance.py::test_09_lipschitz_probes_respect_constants"
    ),
    "type1_gamma_family": "an input of the benchmark's certify workload",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree) -> list:
    """(defined name or None, names referred to) for each top-level statement."""
    out = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
        out.append((owner, names))
    return out


def test_every_export_has_a_caller():
    trees = _trees()
    refs = {module: _references(tree) for module, tree in trees.items()}
    uncalled = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name in _exports(tree):
            called = any(
                name in names and not (other == module and owner == name)
                for other, statements in refs.items()
                for owner, names in statements
            )
            if not called and name not in TEST_ONLY:
                uncalled.append(f"{module}.{name}")
    assert not uncalled, "exported but never called inside ctlab: " + ", ".join(uncalled)


def test_test_only_names_are_exported():
    exported = {name for tree in _trees().values() for name in _exports(tree)}
    assert set(TEST_ONLY) <= exported
