"""Atoms, predicates, and positions.

An atom is an expression ``R(t1, ..., tn)`` where ``R`` is an *n*-ary
predicate and each ``ti`` is a term (Section 2 of the paper).  A *fact*
is an atom all of whose arguments are constants.  A *position* ``R[i]``
identifies the *i*-th argument slot of ``R``; positions are the unit on
which the wardedness analysis (affected positions, Section 3) operates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .spans import AtomSpan
from .terms import Constant, Null, Term, Variable

__all__ = [
    "Atom",
    "Position",
    "match_atom",
    "atoms_variables",
]


@dataclass(frozen=True, slots=True)
class Position:
    """The position ``R[i]``: the *i*-th argument of predicate ``R``.

    Indices are 1-based, following the paper's notation ``R[1..n]``.
    """

    predicate: str
    index: int

    def __str__(self) -> str:
        return f"{self.predicate}[{self.index}]"


@dataclass(frozen=True, slots=True)
class Atom:
    """An atom ``R(t1, ..., tn)`` over constants, variables, and nulls.

    ``span`` records where this occurrence was written when the atom
    came from the parser (see :mod:`repro.core.spans`); it is excluded
    from equality and hashing — atoms built programmatically or derived
    by the engines simply carry ``span=None``.
    """

    predicate: str
    args: tuple[Term, ...]
    span: Optional[AtomSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    @property
    def arity(self) -> int:
        """Number of argument slots of this atom's predicate occurrence."""
        return len(self.args)

    def variables(self) -> set[Variable]:
        """The set ``var(α)`` of variables occurring in this atom."""
        return {t for t in self.args if isinstance(t, Variable)}

    def constants(self) -> set[Constant]:
        """The set of constants occurring in this atom."""
        return {t for t in self.args if isinstance(t, Constant)}

    def nulls(self) -> set[Null]:
        """The set of labeled nulls occurring in this atom."""
        return {t for t in self.args if isinstance(t, Null)}

    def is_fact(self) -> bool:
        """True iff every argument is a constant (the paper's *fact*)."""
        return all(isinstance(t, Constant) for t in self.args)

    def is_ground(self) -> bool:
        """True iff no argument is a variable (constants and nulls only)."""
        return not any(isinstance(t, Variable) for t in self.args)

    def positions(self) -> Iterator[tuple[Position, Term]]:
        """Yield ``(R[i], t_i)`` pairs for every argument slot (1-based)."""
        for i, term in enumerate(self.args, start=1):
            yield Position(self.predicate, i), term

    def positions_of(self, term: Term) -> set[Position]:
        """All positions of this atom at which *term* occurs."""
        return {
            Position(self.predicate, i)
            for i, t in enumerate(self.args, start=1)
            if t == term
        }

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {self.args!r})"


def match_atom(pattern: Atom, fact: Atom) -> Optional[dict[Variable, Term]]:
    """Bindings of *pattern*'s variables that make it equal *fact*.

    ``None`` unless predicate and arity agree, every non-variable
    argument of *pattern* equals *fact*'s, and repeated variables bind
    consistently.  The dict is fresh, so callers may extend it (it is
    the seed handed to :func:`~repro.core.homomorphism.homomorphisms`
    when a body atom is pinned to a delta fact).
    """
    if pattern.predicate != fact.predicate or len(pattern.args) != len(fact.args):
        return None
    seed: dict[Variable, Term] = {}
    for p_term, f_term in zip(pattern.args, fact.args):
        if isinstance(p_term, Variable):
            bound = seed.get(p_term)
            if bound is None:
                seed[p_term] = f_term
            elif bound != f_term:
                return None
        elif p_term != f_term:
            return None
    return seed


def atoms_variables(atoms: Iterable[Atom]) -> set[Variable]:
    """The set ``var(A)`` of variables occurring in a collection of atoms."""
    result: set[Variable] = set()
    for atom in atoms:
        result.update(atom.variables())
    return result


def schema_of(atoms: Iterable[Atom]) -> dict[str, int]:
    """Infer a schema (predicate → arity) from a collection of atoms.

    Raises ``ValueError`` if the same predicate occurs with two different
    arities, which would make the collection ill-formed.
    """
    schema: dict[str, int] = {}
    for atom in atoms:
        known = schema.get(atom.predicate)
        if known is None:
            schema[atom.predicate] = atom.arity
        elif known != atom.arity:
            raise ValueError(
                f"predicate {atom.predicate!r} used with arities "
                f"{known} and {atom.arity}"
            )
    return schema
