"""Dependency-free lint of the package: no unused imports, dangling exports or unread names."""

import ast
import collections
import pathlib

import pytest

import leibnizlat
from leibnizlat import Field, catalog, export_dot, lattice, verify

SRC = pathlib.Path(leibnizlat.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
REPO = pathlib.Path(__file__).resolve().parents[1]
CALLERS = MODULES + sorted(REPO.glob("perfbench/*.py"))
READERS = CALLERS + sorted(REPO.glob("tests/*.py"))


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


def _private_definitions(tree):
    """(name, line) for every ``_``-prefixed, non-dunder def, class or module-level name."""
    defined = [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(n, line) for n, line in defined if n.startswith("_") and not n.startswith("__")]


def _loaded_names(tree):
    """Every name read as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_private_definition_is_loaded():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    dead = [
        "%s:%d %s" % (module, line, name)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in loaded
    ]
    assert dead == [], "private names defined but never read: %s" % ", ".join(dead)


def test_every_module_level_function_is_loaded():
    """A module-level function in the package is read, as a bare name or an
    attribute, somewhere in the package or the benchmark, outside its own body.
    The tests do not count: a function only they call is kept for them alone."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS}
    loaded = collections.Counter(name for tree in trees.values() for name in _loaded_names(tree))
    dead = [
        "%s:%d %s" % (path.name, node.lineno, node.name)
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, ast.FunctionDef)
        and loaded[node.name] == sum(1 for name in _loaded_names(node) if name == node.name)
    ]
    assert dead == [], "module-level functions never read: %s" % ", ".join(dead)


def _dataclass_fields(tree):
    """(class, field, line) for the annotated fields of each ``@dataclass`` class,
    except a class that serialises itself whole with ``asdict``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        if any(isinstance(n, ast.Name) and n.id == "asdict" for n in ast.walk(node)):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id, stmt.lineno


def test_every_dataclass_field_is_read():
    """A dataclass field in the package is read as an attribute somewhere in the
    package, the tests or the benchmark."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in READERS}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        "%s %s.%s (line %d)" % (path.name, cls, name, line)
        for path in MODULES
        for cls, name, line in _dataclass_fields(trees[path])
        if name not in read
    ]
    assert unread == [], "dataclass fields never read: %s" % ", ".join(unread)


def test_no_one_vector_subalgebra_closure():
    """<v> is read off the lattice's line map, not built by the general closure of a
    one-vector list."""
    calls = [
        "%s:%d" % (path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "subalgebra_closure"
        and node.args
        and isinstance(node.args[0], (ast.List, ast.Tuple))
        and len(node.args[0].elts) == 1
    ]
    assert calls == [], "one-vector subalgebra_closure calls: %s" % ", ".join(calls)


_LATTICE_READERS = {
    "verify.py": ("subalgebra_closure", "square_zero_lines", "square_zero_subalgebra"),
    "lattice.py": ("subalgebra_closure", "square_zero_lines", "square_zero_subalgebra"),
}


def test_the_checks_read_subalgebras_off_the_lattice():
    """J is the join of the atoms and a generator's cyclic node is the top, so the
    check layer closes nothing; lattice.py reads each line's node off the node order,
    in the lattice's line map, which the all-WQI and element scans read."""
    calls = [
        "%s:%d %s" % (name, node.lineno, node.func.attr)
        for name, banned in _LATTICE_READERS.items()
        for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in banned
    ]
    assert calls == [], "subalgebras built beside the lattice: %s" % ", ".join(calls)


def test_line_map_closes_nothing():
    """<v> is the first node holding v, so the algebra has no closure of one vector beside
    subalgebra_closure, and the lattice's line map forms no closure, product or bracket."""
    tree = ast.parse((SRC / "algebra.py").read_text(), filename="algebra.py")
    algebra = next(n for n in tree.body
                   if isinstance(n, ast.ClassDef) and n.name == "LeibnizAlgebra")
    methods = {n.name for n in algebra.body if isinstance(n, ast.FunctionDef)}
    assert "subalgebra_closure" in methods and "cyclic_subalgebra" not in methods
    tree = ast.parse((SRC / "lattice.py").read_text(), filename="lattice.py")
    line_map = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef) and n.name == "cyclic_of_lines")
    calls = [
        "lattice.py:%d %s" % (node.lineno, node.func.attr)
        for node in ast.walk(line_map)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("subalgebra_closure", "product_space", "bracket")
    ]
    assert calls == [], "the line map builds subalgebras: %s" % ", ".join(calls)


@pytest.mark.parametrize(
    "make",
    [
        lambda: catalog.cyclic_solvable(3, Field.prime(3)),
        lambda: catalog.cyclic_nilpotent(3, Field.prime(2)),
        lambda: catalog.heisenberg_lie(Field.prime(3)),
    ],
    ids=["cyclic_solvable", "cyclic_nilpotent", "heisenberg"],
)
def test_no_attribute_is_added_to_a_built_lattice(make):
    """The lattice's derived attributes are all set at construction (see the class
    comment): the scans, the export and the checks add none."""
    l = make()
    analysis = verify.AlgebraAnalysis(l)
    lat = analysis.lattice
    keys = set(vars(lat))
    lattice.lattice_stats(lat)
    lattice.is_modular(lat)
    lattice.is_upper_semimodular(lat)
    lattice.is_lower_semimodular_lattice(lat)
    lattice.all_subalgebras_wqi(l, lat)
    lattice.wqi_elementwise(l, lat)
    lattice.frattini_ideal(l, lat)
    export_dot(lat)
    reports = [verify.run_check(cid, l, analysis) for cid in verify.CHECKS]
    assert len(reports) == 17 and not any(r.detail.startswith("budget") for r in reports)
    assert set(vars(lat)) == keys


@pytest.mark.parametrize("p", [2, 3, 7])
def test_no_attribute_is_added_to_an_algebra(p):
    """The packed structure table is set at construction, so the F_p kernels that read it
    (product_space and the element scan) add no attribute."""
    f = Field.prime(p)
    l = catalog.cyclic_solvable(3, f).change_of_basis(((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    keys = set(vars(l))
    assert "_packed" in keys
    full = l.full_subspace()
    l.product_space(full, full)
    lattice.wqi_elementwise(l, lattice.enumerate_subalgebras(l))
    assert set(vars(l)) == keys


def _inverse_scalings(tree):
    """The function names around each ``scale_row(<...>.inv(...), ...)`` call: a row
    scaled by a field inverse, the step that makes a pivot 1 in an elimination."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "scale_row"
                and node.args
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Attribute)
                and node.args[0].func.attr == "inv"
            ):
                yield func.name


def test_one_elimination_routine():
    """Every RREF in the package (rref, Subspace.span and sum, nullspace, invert_matrix, the
    span of product_space) is built by ``linalg._insert``; a second
    elimination loop would scale its pivot rows by an inverse too."""
    found = [
        "%s:%s" % (path.name, name)
        for path in MODULES
        for name in _inverse_scalings(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == ["linalg.py:_insert"], "rows scaled by an inverse in: %s" % ", ".join(found)
