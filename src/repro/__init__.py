"""repro — a reproduction of "The Space-Efficient Core of Vadalog" (PODS 2019).

The package implements warded Datalog∃ (warded sets of tuple-generating
dependencies) with piece-wise linear recursion: the static analyses that
define the classes WARD and PWL, the chase, the proof-tree machinery and
the space-bounded query-answering algorithms of the paper, the
expressive-power translations, the Section 5 undecidability reduction,
and a Vadalog-style evaluation engine with the Section 7 optimizations.

Quickstart::

    from repro import parse_program, parse_query, certain_answers

    program, database = parse_program('''
        edge(a, b).  edge(b, c).
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
    ''')
    query = parse_query("q(X, Y) :- tc(X, Y).")
    print(certain_answers(query, database, program))
"""

import importlib

from .core import (
    Atom,
    Constant,
    ConjunctiveQuery,
    Database,
    Instance,
    Null,
    Program,
    Substitution,
    TGD,
    Variable,
)
from .lang import parse_atom, parse_program, parse_query

__version__ = "1.1.0"

__all__ = [
    "Atom",
    "Constant",
    "Variable",
    "Null",
    "Substitution",
    "TGD",
    "Program",
    "ConjunctiveQuery",
    "Instance",
    "Database",
    "parse_program",
    "parse_query",
    "parse_atom",
    "certain_answers",
    "Session",
    "CompiledProgram",
    "Planner",
    "QueryPlan",
    "AnswerStream",
    "compile_program",
    "ChangeSet",
    "MaintenanceReport",
    "api",
    "incremental",
    "__version__",
]

#: Names resolved through a subpackage on first access.
_LAZY_EXPORTS = {
    "api": (
        "certain_answers",
        "Session",
        "CompiledProgram",
        "Planner",
        "QueryPlan",
        "AnswerStream",
        "compile_program",
    ),
    "incremental": ("ChangeSet", "MaintenanceReport"),
}


def __getattr__(name):
    """Lazily surface the session and incremental layers at the root.

    ``repro.certain_answers``, ``repro.Session``, ``repro.ChangeSet``
    et al. resolve through their subpackages on first access, so
    importing the core package stays cheap.
    """
    for package, exports in _LAZY_EXPORTS.items():
        if name == package or name in exports:
            # import_module, not ``from . import``: the latter asks this
            # very hook for the submodule first and would recurse.
            module = importlib.import_module(f"{__name__}.{package}")
            return module if name == package else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """Make the lazy surface discoverable: ``dir(repro)`` lists the
    session-layer names even before their first access."""
    return sorted(set(globals()) | set(__all__))

