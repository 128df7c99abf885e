"""Terms of the logical language: constants, variables, and labeled nulls.

The paper (Section 2) considers three disjoint, countably infinite sets:

* ``C`` — constants, the values stored in databases,
* ``N`` — labeled nulls, the fresh witnesses invented by the chase for
  existentially quantified variables,
* ``V`` — variables, used in rules and queries.

This module models each of them as an immutable, hashable class.  Term
identity is structural: two constants with the same value are the same
constant, two nulls with the same label are the same null, and so on.
All higher layers (atoms, substitutions, the chase, the proof-tree
machinery) are built on top of these three classes.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Term",
    "Constant",
    "Variable",
    "Null",
    "NullFactory",
]


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant of ``C``.

    The payload ``value`` may be any hashable Python value (strings and
    integers in practice).  Constants are the only terms allowed in
    database facts and in certain answers.
    """

    value: Union[str, int]

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


@dataclass(frozen=True, slots=True)
class Variable:
    """A variable of ``V``, identified by its name.

    Variable names are plain strings.  The convention of the surface
    syntax (see :mod:`repro.lang`) is that identifiers starting with an
    uppercase letter or an underscore denote variables, but this class
    itself places no restriction on names: internal machinery freely
    invents names such as ``v3`` or ``x@2``.
    """

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, slots=True)
class Null:
    """A labeled null of ``N``.

    Nulls appear only in instances produced by the chase; they stand for
    unknown values invented to witness existential quantifiers.  Each
    null carries a numeric ``label`` that identifies it, and the
    ``depth`` at which the chase invented it (database constants live at
    depth 0; a null invented by a trigger whose deepest input term has
    depth *d* gets depth *d + 1*).  Depth participates neither in
    equality nor in hashing — it is bookkeeping used by termination
    control — so two nulls are equal iff their labels coincide.
    """

    label: int
    depth: int = 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and self.label == other.label

    def __hash__(self) -> int:
        return hash(("null", self.label))

    def __str__(self) -> str:
        return f"⊥{self.label}"

    def __repr__(self) -> str:
        return f"Null({self.label})"


Term = Union[Constant, Variable, Null]


class NullFactory:
    """A thread-safe source of fresh labeled nulls.

    The chase requires that every application of an existential TGD uses
    nulls "not occurring in I".  A single factory per chase run
    guarantees global freshness.
    """

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def fresh(self, depth: int = 0) -> Null:
        """Return a null that no previous call of this factory returned."""
        with self._lock:
            label = next(self._counter)
        return Null(label, depth)


def is_constant(term: Term) -> bool:
    """Return True iff *term* is a constant of ``C``."""
    return isinstance(term, Constant)


def is_variable(term: Term) -> bool:
    """Return True iff *term* is a variable of ``V``."""
    return isinstance(term, Variable)


def is_null(term: Term) -> bool:
    """Return True iff *term* is a labeled null of ``N``."""
    return isinstance(term, Null)
