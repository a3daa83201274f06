"""Every module-level import of the package is used, every private
module-level name is read somewhere in the package, and every public
module-level name and every class member is read by the package or by the
benchmark.

No linter runs on the sources, so this parses each module of src/axial and
fails on an imported name that the module never reads and does not export
in __all__, on a module-level _name (function, class or assignment) that no
module of src/axial reads, on a public module-level name that no module of
src/axial or bench loads, and on a class member whose name no module of
src/axial or bench loads as an attribute and the benchmark does not trace.
An import, __init__'s re-export included, is no read.
"""

import ast
import dataclasses
import functools
from pathlib import Path

import pytest

from axial import catalog
from axial.extension import Cocycle, CocycleSpace
from axial.fusion import FusionLaw, jordan_half_law
from axial.linalg import Matrix, RowReducer, Subspace
from axial.miyamoto import AutMatrix, AxisClosure, GroupClosure
from axial.scalars import FieldTag
from axial.spectral import AxisReport, eigen_decompose

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "axial").glob("*.py"))


def _module_imports(tree):
    """{bound name: line} of the imports outside functions and classes,
    those inside module-level if and try blocks included, __future__ aside."""
    names = {}
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse + getattr(node, "finalbody", [])
            todo += [stmt for h in getattr(node, "handlers", []) for stmt in h.body]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _module_imports(tree).items()
              if name not in read and name not in _exported(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def _definitions(tree):
    """{name: line} of the module-level functions, classes and assigned
    names, dunders aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.update((name, node.lineno) for name in targets if not name.startswith("__"))
    return names


@functools.lru_cache(maxsize=1)
def _package_reads():
    """Every name the package reads: a loaded ast.Name or an attribute."""
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_private_helpers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _package_reads()
    dead = {name: line for name, line in _definitions(tree).items()
            if name.startswith("_") and name not in read}
    assert not dead, f"{path.name}: private names no module reads {dead}"


# ---------------------------------------------------------------------------
# public module-level names and class members: each is read by the package
# or by the benchmark

BENCH = Path(__file__).resolve().parent.parent / "bench"

# public module-level names read by neither, and kept on purpose:
# {module.name: reason}
ALLOWED_UNREAD_NAMES = {
    "catalog.default_params": "the README's way to read an entry's parameter "
                              "defaults, beside build and list_catalog",
    "extension.aut_action": "the pullback of a cocycle along an automorphism: the "
                            "action of Aut(A, X) on H^2 that the Skjelbred-Sund "
                            "orbit step needs",
    "miyamoto.find_flip": "the swap of two axes by the graph lemma, which the "
                          "Skjelbred-Sund orbit step is to replace",
}

# read by neither, and kept on purpose: {Class.name: reason}
ALLOWED_UNREAD = {
    "C2Grading.sigma0": "the benchmark's miyamoto workload builds "
                        "C2Grading(plus, minus, 1) by position",
    "ExtensionReport.lifted_axes": "the paper's Y, the lifted axes a + theta(a, a) "
                                   "that the tests certify as axes of A_theta",
}


def _class_members(tree):
    """(Class.name, line) of the methods, properties, class and static
    methods, class-level annotated fields and self.x set in __init__ of
    every class in the module, dunders aside."""
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        members = {}
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                members[node.target.id] = node.lineno
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members[node.name] = node.lineno
                if node.name != "__init__":
                    continue
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        members[sub.attr] = sub.lineno
        yield from ((f"{cls.name}.{name}", line) for name, line in members.items()
                    if not name.startswith("__"))


def _span_target_names():
    """The last part of every dotted name in bench/tracing.SPAN_TARGETS,
    read from the source without importing it."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SPAN_TARGETS"
                        for t in node.targets)):
            return {target.rsplit(".", 1)[-1]
                    for _layer, target, *_ in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py defines no SPAN_TARGETS")


@functools.lru_cache(maxsize=1)
def _loads():
    """(names, attribute names) loaded in src/axial or bench."""
    names, attributes = set(), set()
    for path in SOURCES + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


@functools.lru_cache(maxsize=1)
def _attribute_reads():
    """Every attribute name loaded in src/axial or bench, and every traced
    name of the benchmark."""
    return _span_target_names() | _loads()[1]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_class_members(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _attribute_reads()
    unread = {name: line for name, line in _class_members(tree)
              if name.split(".")[1] not in read and name not in ALLOWED_UNREAD}
    assert not unread, f"{path.name}: class members nothing reads {unread}"


def _public_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {f"{path.stem}.{name}": line for name, line in _definitions(tree).items()
            if not name.startswith("_")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_public_names(path):
    read = set().union(*_loads())
    unread = {name: line for name, line in _public_definitions(path).items()
              if name.split(".")[1] not in read and name not in ALLOWED_UNREAD_NAMES}
    assert not unread, f"{path.name}: public names nothing reads {unread}"


def test_allowed_unread_names_are_unread():
    # an allowlisted name that gains a reader leaves the list
    read = set().union(*_loads())
    defined = {name for path in SOURCES for name in _public_definitions(path)}
    for name in ALLOWED_UNREAD_NAMES:
        assert name in defined and name.split(".")[1] not in read, name


def test_allowed_unread_members_are_unread():
    # an allowlisted name that gains a reader leaves the list
    read = _attribute_reads()
    members = {name for path in SOURCES
               for name, _ in _class_members(ast.parse(path.read_text(encoding="utf-8")))}
    for name in ALLOWED_UNREAD:
        assert name in members and name.split(".")[1] not in read, name


def test_deleted_members_stay_deleted():
    # names shared with a live member (Matrix.rank and RowReducer.rank,
    # FieldTag.render and the benchmark's own render) escape the liveness
    # test, so each deleted member is checked on its class
    # Cocycle.is_zero is shadowed the same way, by Subspace.is_zero, and
    # RowReducer.contains by CocycleSpace.contains
    methods = {Matrix: ("rref", "from_columns", "rank", "is_zero", "__add__", "scale", "zero",
                        "from_sparse_rows", "solve"),
               RowReducer: ("contains",),
               Subspace: ("of", "matrix", "_compat"),
               AutMatrix: ("apply",),
               Cocycle: ("from_vectors", "is_zero"),
               FusionLaw: ("has_value",),
               FieldTag: ("zero", "one", "inverse", "render", "sort_key", "parse")}
    for cls, names in methods.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    fields = {AutMatrix: ("kind", "source"), GroupClosure: ("generators", "cap"),
              AxisClosure: ("cap",), CocycleSpace: ("axes", "law"),
              AxisReport: ("element",)}
    for cls, names in fields.items():
        present = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            assert name not in present, f"{cls.__name__}.{name}"
    entry = catalog.build("B")
    # the structure constants are stored once, as _int_rows; Matrix._rows
    # keeps the name alive
    assert not hasattr(entry.algebra, "_rows")
    eigen = eigen_decompose(entry.algebra, entry.axis_sets["X12"][0])
    assert not hasattr(eigen, "element")
    # the eigenvectors and their inverse are the two Matrix attributes
    # eigenvectors and coordinates; no field copy or integer pair beside them
    for name in ("vectors", "_int_vectors", "_int_inverse"):
        assert not hasattr(eigen, name), f"Eigenbasis.{name}"
    assert not hasattr(jordan_half_law(), "tag")
    # a Subspace is the Matrix of its RREF, with no state of its own
    assert Subspace.__slots__ == () and Subspace.__bases__ == (Matrix,)
