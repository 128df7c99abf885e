"""Every public top-level name of ``src/repro`` has a caller outside
``tests/``.

A function or class that only its own tests reach is a second copy of
something, or a module nothing runs; either way it is code to delete
(``docs/ARCHITECTURE.md`` "Layering").  The scan is token-level: a
public ``def``/``class`` at module level counts as used when some file
under ``src/``, ``benchmarks/`` or ``examples/`` names it through an
``ast.Name``, an ``ast.Attribute`` or an import alias.  Three things do
not count: the definition's own body, the re-exports of an
``__init__.py`` and the strings of ``__all__``.  Passes registered with
``@lint_pass`` are reached through the registry the decorator fills,
and :data:`EXEMPT` names the rest, each with its reason.
"""

import ast
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parents[2]
ROOT_DIR = REPO_DIR / "src" / "repro"
CALLER_DIRS = (ROOT_DIR, REPO_DIR / "benchmarks", REPO_DIR / "examples")

#: ``path relative to src/repro :: name`` -> why it stays without a caller.
EXEMPT = {
    "core/homomorphism.py::find_homomorphism":
        "the reference matcher the tests pin core/match.py against",
    "reasoning/answers.py::is_certain_answer":
        "the paper's decision problem, documented in docs/API.md",
    "benchsuite/stats.py::suite_corpus":
        "the engine/store agreement corpus (ROADMAP 9(b) decides its home)",
    "lint/__init__.py::pass_invocations":
        "the pass-execution counter accessor (ROADMAP 8 moves it)",
}


def _is_lint_pass(node) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", None) == "lint_pass":
            return True
    return False


def definitions(tree: ast.Module) -> list:
    """The public top-level ``def``/``class`` nodes of a module, minus
    ``@lint_pass`` registrations."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not _is_lint_pass(node)
    ]


def references(tree: ast.Module, *, is_init: bool) -> dict:
    """``name -> [node, ...]`` for every Name, Attribute and import alias
    of *tree*; an ``__init__.py``'s import aliases are re-exports and do
    not count."""
    found: dict = {}

    def add(name, node):
        found.setdefault(name, []).append(node)

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            add(node.id, node)
        elif isinstance(node, ast.Attribute):
            add(node.attr, node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not is_init:
            for alias in node.names:
                add(alias.name.rsplit(".", 1)[-1], node)
    return found


def _inside(node, definition) -> bool:
    return definition.lineno <= node.lineno <= definition.end_lineno


def uncalled(sources: dict) -> list:
    """``"path::name"`` for each public top-level definition of the
    ``src/repro`` files in *sources* (``Path -> text``) that nothing in
    *sources* references outside its own body."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used: dict = {}
    for path, tree in trees.items():
        for name, nodes in references(tree, is_init=path.name == "__init__.py").items():
            used.setdefault(name, []).extend((path, node) for node in nodes)
    missing = []
    for path, tree in sorted(trees.items()):
        if ROOT_DIR not in path.parents:
            continue
        for definition in definitions(tree):
            callers = [
                node
                for where, node in used.get(definition.name, ())
                if where != path or not _inside(node, definition)
            ]
            if not callers:
                missing.append(f"{path.relative_to(ROOT_DIR).as_posix()}::{definition.name}")
    return missing


def caller_sources() -> dict:
    return {
        path: path.read_text()
        for directory in CALLER_DIRS
        for path in sorted(directory.rglob("*.py"))
    }


def test_every_public_name_has_a_caller_outside_tests():
    missing = [name for name in uncalled(caller_sources()) if name not in EXEMPT]
    assert not missing, "public, but only tests call them:\n" + "\n".join(missing)


def test_every_exemption_is_still_needed():
    # An exempt name that gained a caller (or was deleted) leaves the list.
    assert sorted(set(uncalled(caller_sources())) & set(EXEMPT)) == sorted(EXEMPT)


def test_re_exports_all_strings_and_self_references_are_not_callers():
    sources = {
        ROOT_DIR / "pkg" / "__init__.py": (
            "from .mod import lonely, Used\n__all__ = ['lonely', 'Used']\n"
        ),
        ROOT_DIR / "pkg" / "mod.py": (
            "def lonely(n):\n"
            "    return lonely(n - 1) if n else 0\n"
            "class Used:\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "@lint_pass('E1', 'x', 'correctness')\n"
            "def registered(ctx):\n"
            "    pass\n"
        ),
        REPO_DIR / "examples" / "demo.py": "import pkg\npkg.Used()\n",
    }
    assert uncalled(sources) == ["pkg/mod.py::lonely"]


def test_an_import_alias_outside_init_is_a_caller():
    sources = {
        ROOT_DIR / "pkg" / "mod.py": "def helper():\n    pass\n",
        REPO_DIR / "benchmarks" / "bench.py": "from repro.pkg.mod import helper\n",
    }
    assert uncalled(sources) == []
