"""Termination control for the chase.

The chase of a warded set of TGDs need not terminate; the Vadalog system
controls recursion with *guide structures* (linear forest, warded forest,
lifted linear forest — Section 7(1) and reference [6]).  Those structures
are proprietary and only sketched in the literature, so this module
provides the closest open implementations of the same role
(**[SIM]** substitution, see DESIGN.md §5):

* :class:`DepthPolicy` — bound the *null depth* (how many nested
  existential inventions lead to a term).  Sound for query answering in
  the sense that everything derived is certain; completeness requires a
  sufficiently large bound.
* :class:`IsomorphismPolicy` — Vadalog-style aggressive termination
  control: a trigger is suppressed when every atom it would create is
  *isomorphic modulo nulls* to an atom already present (same predicate,
  same constants at the same positions, same equality pattern among
  nulls).  For warded sets this prunes the repetitive part of the chase
  while preserving all *ground* consequences along isomorphic
  sub-chases; queries that join on nulls across atoms may need the
  unpruned chase (the classic price of atom-level patterns — documented
  behaviour, exercised by the E7 ablation benchmark).

Policies are consulted *before* a trigger fires; returning False
suppresses it.  They also see the atoms the trigger would create.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Null
from .trigger import Trigger

__all__ = [
    "TerminationPolicy",
    "AlwaysFire",
    "DepthPolicy",
    "IsomorphismPolicy",
    "atom_shape",
]


class TerminationPolicy(Protocol):
    """Decides whether a trigger may fire given what it would produce."""

    def should_fire(
        self,
        trigger: Trigger,
        produced: Sequence[Atom],
        instance: Instance,
    ) -> bool:
        """Return False to suppress the trigger."""
        ...


class AlwaysFire:
    """The no-op policy: never suppresses anything."""

    def should_fire(
        self, trigger: Trigger, produced: Sequence[Atom], instance: Instance
    ) -> bool:
        return True


class DepthPolicy:
    """Suppress triggers that would create nulls deeper than *max_depth*."""

    def __init__(self, max_depth: int):
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        self.max_depth = max_depth

    def should_fire(
        self, trigger: Trigger, produced: Sequence[Atom], instance: Instance
    ) -> bool:
        for atom in produced:
            for term in atom.args:
                if isinstance(term, Null) and term.depth > self.max_depth:
                    return False
        return True


def atom_shape(atom: Atom) -> tuple:
    """The isomorphism type of an atom modulo null identity.

    Constants stay concrete; nulls are replaced by their first-occurrence
    index within the atom, so ``R(c, ⊥7, ⊥7)`` and ``R(c, ⊥9, ⊥9)`` share
    a shape while ``R(c, ⊥7, ⊥8)`` does not.
    """
    seen: dict[Null, int] = {}
    shaped: list[object] = []
    for term in atom.args:
        if isinstance(term, Null):
            index = seen.setdefault(term, len(seen))
            shaped.append(("null", index))
        else:
            shaped.append(("const", term))
    return (atom.predicate, tuple(shaped))


class IsomorphismPolicy:
    """Suppress triggers whose every produced atom repeats a known shape.

    The policy tracks the shapes of all atoms it has allowed into the
    instance; a trigger survives iff it contributes at least one *new*
    shape.  This emulates the guide-structure check of the Vadalog
    system: sub-chases rooted at isomorphic atoms are isomorphic, so one
    representative suffices for deriving ground atoms.
    """

    def __init__(self) -> None:
        self._shapes: set[tuple] = set()
        self.suppressed = 0

    def register(self, atoms: Iterable[Atom]) -> None:
        """Record the shapes of atoms already in the instance (e.g. D)."""
        for atom in atoms:
            self._shapes.add(atom_shape(atom))

    def should_fire(
        self, trigger: Trigger, produced: Sequence[Atom], instance: Instance
    ) -> bool:
        fresh = [a for a in produced if atom_shape(a) not in self._shapes]
        if not fresh:
            self.suppressed += 1
            return False
        for atom in produced:
            self._shapes.add(atom_shape(atom))
        return True
