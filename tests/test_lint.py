"""Dependency-free lint of the package source: no unused imports, no dangling exports."""

import ast
import pathlib

import pytest

import leibnizlat

SRC = pathlib.Path(leibnizlat.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _exported_names(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    unused = [
        "%s (line %d)" % (name, line) for name, line in _imported_names(tree) if name not in used
    ]
    assert unused == [], "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


def test_every_export_resolves():
    assert len(set(leibnizlat.__all__)) == len(leibnizlat.__all__)
    missing = [name for name in leibnizlat.__all__ if not hasattr(leibnizlat, name)]
    assert missing == []
