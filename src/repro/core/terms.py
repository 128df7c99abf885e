"""Terms of the logical language: constants, variables, and labeled nulls.

The paper (Section 2) considers three disjoint, countably infinite sets:

* ``C`` — constants, the values stored in databases,
* ``N`` — labeled nulls, the fresh witnesses invented by the chase for
  existentially quantified variables,
* ``V`` — variables, used in rules and queries.

This module models each of them as an immutable, hashable class.  All
higher layers (atoms, substitutions, the chase, the proof-tree
machinery) are built on top of these three classes.

Constants and variables are *interned*: ``Constant(v)`` returns the one
canonical instance for ``v`` (``Variable(n)`` likewise for ``n``), so
equality is identity and hashing is ``object.__hash__`` — both C-level,
which is what makes hashing an atom or probing an index cheap.  The
canonical instances live in a per-class weak table keyed on the value
alone (values equal under ``==`` share one term, so ``Constant(1) ==
Constant(True)`` as before); a term no longer referenced anywhere
drops out of it, so a long-running server does not keep every constant
it ever saw.  A miss takes a lock and checks again, so two threads that
race to construct the same term get the same object.  Pickling
re-interns on load, so a term read back in another process is that
process's canonical instance.

Nulls are not interned: two nulls are equal iff their labels coincide,
and the ``depth`` a null carries is bookkeeping outside equality.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Union

__all__ = [
    "Term",
    "Constant",
    "Variable",
    "Null",
    "NullFactory",
]


class _Interned:
    """One canonical, immutable instance per payload value.

    Subclasses name their payload slot in ``__slots__`` and get a weak
    intern table of their own.  Equality and hashing are inherited from
    ``object``: identity is the equality of interned terms.
    """

    __slots__ = ("__weakref__",)
    _table: "weakref.WeakValueDictionary"
    _lock: threading.Lock

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._table = weakref.WeakValueDictionary()
        cls._lock = threading.Lock()

    def __new__(cls, payload):
        term = cls._table.get(payload)
        if term is None:
            # Double-checked: the lock is paid only on a miss, and two
            # racing constructions return one object.
            with cls._lock:
                term = cls._table.get(payload)
                if term is None:
                    term = object.__new__(cls)
                    object.__setattr__(term, cls.__slots__[0], payload)
                    cls._table[payload] = term
        return term

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), (getattr(self, type(self).__slots__[0]),))


class Constant(_Interned):
    """A constant of ``C``.

    The payload ``value`` may be any hashable Python value (strings and
    integers in practice).  Constants are the only terms allowed in
    database facts and in certain answers.
    """

    __slots__ = ("value",)
    value: Union[str, int]

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


class Variable(_Interned):
    """A variable of ``V``, identified by its name.

    Variable names are plain strings.  The convention of the surface
    syntax (see :mod:`repro.lang`) is that identifiers starting with an
    uppercase letter or an underscore denote variables, but this class
    itself places no restriction on names: internal machinery freely
    invents names such as ``v3`` or ``x@2``.
    """

    __slots__ = ("name",)
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
        return hash(self.label)

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
