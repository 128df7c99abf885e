"""The import layering of ``src/repro``, pinned.

Imports point down: every package of ``src/repro`` sits at one rank of
:data:`LAYERS` and may import only packages of a strictly lower rank,
so the package graph is a DAG by construction and a request can only
enter through the top.  :data:`LEAVES` are the paper-claim packages
that nothing in ``src/`` builds on (benchmarks, examples and the CLI
drive them).  The next upward import fails here rather than in review;
``docs/ARCHITECTURE.md`` "Layering" says what each layer may know.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import repro

ROOT_DIR = Path(repro.__file__).parent

#: Lowest first.  A package imports only what stands to its left.
LAYERS = (
    "core", "storage", "analysis", "lang", "lint", "prooftree", "kernels",
    "datalog", "chase", "engine", "reasoning", "rewriting", "incremental",
    "api", "server", "benchsuite", "workloads", "cli",
)

#: Imported by no ``src/`` module but ``cli.py``; import nothing above
#: ``api`` and not each other.
LEAVES = (
    "parallel", "reachability", "expressiveness", "dynfo", "owl2ql",
    "tiling",
)

#: The namespace module and its ``python -m`` entry point: above
#: everything, imported by nothing.
ROOT = ("__init__", "__main__")

RANK = {name: rank for rank, name in enumerate(LAYERS)}


def _package_of(path: Path) -> str:
    relative = path.relative_to(ROOT_DIR)
    return relative.parts[0] if len(relative.parts) > 1 else relative.stem


class _Imports(ast.NodeVisitor):
    """Every ``repro`` package a module imports, with line numbers —
    function-level imports included, ``if TYPE_CHECKING:`` bodies not."""

    def __init__(self, package: tuple):
        #: What the module's relative imports resolve against.
        self.package = package
        self.found: list = []

    def visit_If(self, node):
        test = node.test
        name = getattr(test, "id", None) or getattr(test, "attr", None)
        if name == "TYPE_CHECKING":
            for statement in node.orelse:
                self.visit(statement)
        else:
            self.generic_visit(node)

    def visit_Import(self, node):
        for alias in node.names:
            self._record(alias.name.split("."), (), node.lineno)

    def visit_ImportFrom(self, node):
        base = self.package[: len(self.package) - node.level + 1]
        target = list(base if node.level else ()) + (
            node.module.split(".") if node.module else []
        )
        self._record(target, [alias.name for alias in node.names], node.lineno)

    def _record(self, target, names, lineno):
        if not target or target[0] != "repro":
            return
        if len(target) > 1:
            self.found.append((target[1], lineno))
            return
        # ``from repro import X`` / ``from .. import X``: a subpackage
        # if one exists by that name, else a name of the root module.
        for name in names or ("__init__",):
            is_package = (ROOT_DIR / name).is_dir() or (
                ROOT_DIR / f"{name}.py"
            ).is_file()
            self.found.append((name if is_package else "__init__", lineno))


def module_imports(source: str, path: Path) -> list:
    package = ("repro",) + path.relative_to(ROOT_DIR).parts[:-1]
    visitor = _Imports(package)
    visitor.visit(ast.parse(source))
    return visitor.found


def package_edges() -> dict:
    """``(importer, imported) -> ["file:line", ...]`` across packages."""
    edges = defaultdict(list)
    for path in sorted(ROOT_DIR.rglob("*.py")):
        importer = _package_of(path)
        for imported, lineno in module_imports(path.read_text(), path):
            if imported != importer:
                edges[importer, imported].append(
                    f"{path.relative_to(ROOT_DIR)}:{lineno}"
                )
    return dict(edges)


def _allowed(importer: str, imported: str) -> bool:
    if importer in ROOT or importer == "cli":
        return imported in RANK or imported in LEAVES
    # A leaf may know ``api`` and everything below it; a layer only
    # what is strictly below itself (an undeclared package: nothing).
    ceiling = RANK["api"] + 1 if importer in LEAVES else RANK.get(importer, 0)
    return RANK.get(imported, len(LAYERS)) < ceiling


def violations(edges) -> list:
    """Every edge that does not go from a higher to a strictly lower
    layer (leaves: to ``api`` or below), as readable strings."""
    return [
        f"{importer} -> {imported} ({', '.join(where)})"
        for (importer, imported), where in sorted(edges.items())
        if not _allowed(importer, imported)
    ]


EDGES = package_edges()


def test_every_package_is_declared_exactly_once():
    on_disk = {_package_of(path) for path in ROOT_DIR.rglob("*.py")}
    declared = LAYERS + LEAVES + ROOT
    assert len(set(declared)) == len(declared)
    assert on_disk == set(declared)


def test_imports_point_down():
    assert violations(EDGES) == []


def test_core_imports_no_sibling_and_storage_only_core():
    imported_by = defaultdict(set)
    for importer, imported in EDGES:
        imported_by[importer].add(imported)
    assert imported_by["core"] == set()
    assert imported_by["storage"] == {"core"}


def test_leaves_are_reached_only_from_the_cli():
    importers = defaultdict(set)
    for importer, imported in EDGES:
        importers[imported].add(importer)
    for leaf in LEAVES:
        assert importers[leaf] <= {"cli"}, (leaf, importers[leaf])
    assert importers["__init__"] == importers["__main__"] == set()


def test_package_graph_is_acyclic():
    # Independent of the declared order: Kahn's algorithm must consume
    # every package.
    successors = defaultdict(set)
    indegree = dict.fromkeys(LAYERS + LEAVES + ROOT, 0)
    for importer, imported in EDGES:
        if imported not in successors[importer]:
            successors[importer].add(imported)
            indegree[imported] += 1
    ready = [name for name, degree in indegree.items() if degree == 0]
    consumed = 0
    while ready:
        name = ready.pop()
        consumed += 1
        for successor in successors[name]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    assert consumed == len(indegree), {
        name for name, degree in indegree.items() if degree > 0
    }


@pytest.mark.parametrize(
    "importer, imported",
    [
        ("chase", "api"),          # chase_answers calling up
        ("reasoning", "api"),      # certain_answers calling up
        ("core", "analysis"),      # Program.is_warded & co.
        ("core", "storage"),       # Instance subclassing an interface above it
        ("lint", "reachability"),  # a DiGraph borrowed from a leaf
        ("api", "parallel"),       # the per-read thread pool
        ("owl2ql", "server"),      # a leaf reaching above api
        ("dynfo", "tiling"),       # leaf to leaf
        ("datalog", "__init__"),   # ``from repro import ...`` inside src/
        ("datalog", "incremental"),  # AtomSet fetched from where it used to live
    ],
)
def test_an_upward_edge_is_a_violation(importer, imported):
    edge = {(importer, imported): ["somewhere.py:1"]}
    assert violations(edge) == [f"{importer} -> {imported} (somewhere.py:1)"]
    assert violations({**EDGES, **edge}) != []


def test_function_level_imports_count_and_type_checking_blocks_do_not():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import typing\n"
        "if TYPE_CHECKING:\n"
        "    from ..api import Session\n"
        "else:\n"
        "    from ..lang import parse_query\n"
        "if typing.TYPE_CHECKING:\n"
        "    import repro.server\n"
        "def late():\n"
        "    from ..analysis.wardedness import is_warded\n"
        "    from .. import storage, parse_program\n"
        "    from . import atoms\n"
        "    import repro.kernels.runtime\n"
    )
    found = module_imports(source, ROOT_DIR / "core" / "program.py")
    assert [name for name, _ in found] == [
        "lang", "analysis", "storage", "__init__", "core", "kernels",
    ]
