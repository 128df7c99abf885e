"""Instances and databases.

An *instance* over a schema is a (possibly infinite — here: finite,
possibly growing) set of atoms containing constants and nulls; a
*database* is a finite set of facts, i.e., atoms over constants only
(Section 2).  Both are backed by per-predicate and per-(position, term)
indexes so that the chase, homomorphism search, and the reasoning
algorithms can retrieve matching atoms without scanning.

``Instance`` is the reference implementation of the
:class:`~repro.core.store.FactStore` interface: the engines are
written against that interface, and alternative backends (columnar,
sharded — see :mod:`repro.storage`) are drop-in replacements.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Set

from .atoms import Atom, schema_of
from .memory import deep_sizeof
from .store import FactStore, MemoryReport
from .terms import Constant, Null, Term

__all__ = ["Instance", "Database"]


class Instance(FactStore):
    """A mutable set of ground atoms (constants and nulls) with indexes.

    The two indexes are:

    * predicate index — predicate name → set of atoms,
    * position index — (predicate, position, term) → set of atoms, used
      to seed homomorphism search and trigger matching with bound values.
    """

    backend_name = "instance"

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: Set[Atom] = set()
        self._by_predicate: Dict[str, Set[Atom]] = {}
        self._by_position: Dict[tuple[str, int, Term], Set[Atom]] = {}
        for atom in atoms:
            self.add(atom)

    # -- mutation ----------------------------------------------------------

    def add(self, atom: Atom) -> bool:
        """Insert *atom*; return True iff it was not already present."""
        if not atom.is_ground():
            raise ValueError(f"instances contain ground atoms only, got {atom}")
        self._check_mutable()
        if atom in self._atoms:
            return False
        self._atoms.add(atom)
        self._by_predicate.setdefault(atom.predicate, set()).add(atom)
        for i, term in enumerate(atom.args, start=1):
            self._by_position.setdefault((atom.predicate, i, term), set()).add(atom)
        return True

    def add_all(self, atoms: Iterable[Atom]) -> int:
        """Insert many atoms; return how many were new."""
        return sum(1 for atom in atoms if self.add(atom))

    def discard(self, atom: Atom) -> bool:
        """Remove *atom*; return True iff it was present.

        Both eager indexes shrink with the atom set; emptied index
        buckets are dropped so ``predicates()`` and the position probes
        never see ghost keys.
        """
        self._check_mutable()
        if atom not in self._atoms:
            return False
        self._atoms.discard(atom)
        bucket = self._by_predicate.get(atom.predicate)
        if bucket is not None:
            bucket.discard(atom)
            if not bucket:
                del self._by_predicate[atom.predicate]
        for i, term in enumerate(atom.args, start=1):
            key = (atom.predicate, i, term)
            positional = self._by_position.get(key)
            if positional is not None:
                positional.discard(atom)
                if not positional:
                    del self._by_position[key]
        return True

    # -- queries -----------------------------------------------------------

    def __contains__(self, atom: object) -> bool:
        return atom in self._atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def atoms(self) -> frozenset[Atom]:
        """A frozen snapshot of the current atom set."""
        return frozenset(self._atoms)

    def with_predicate(self, predicate: str) -> Set[Atom]:
        """All atoms whose predicate is *predicate* (live view copy)."""
        return set(self._by_predicate.get(predicate, ()))

    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        """All atoms whose predicate is *predicate* (FactStore form): a
        tuple snapshot, so the store may change while it is consumed."""
        return iter(tuple(self._by_predicate.get(predicate, ())))

    def count(self, predicate: Optional[str] = None) -> int:
        """Number of stored atoms, optionally restricted to a predicate."""
        if predicate is None:
            return len(self._atoms)
        return len(self._by_predicate.get(predicate, ()))

    def predicates(self) -> set[str]:
        """All predicate names with at least one atom."""
        return {p for p, s in self._by_predicate.items() if s}

    def matching_bound(
        self,
        predicate: str,
        bound: Mapping[int, Term],
        arity: Optional[int] = None,
    ) -> Iterator[Atom]:
        """Atoms of *predicate* agreeing with every bound (1-based) position.

        Uses the most selective available position index, whose bucket
        already agrees on the position it is keyed on, so only the other
        bound positions are compared; falls back to the predicate index
        when *bound* is empty.
        """
        candidates: Optional[Set[Atom]] = None
        keyed = None
        for position, term in bound.items():
            bucket = self._by_position.get((predicate, position, term))
            if not bucket:
                return
            if candidates is None or len(bucket) < len(candidates):
                candidates, keyed = bucket, position
        if candidates is None:
            candidates = self._by_predicate.get(predicate, ())
        rest = [(at - 1, term) for at, term in bound.items() if at != keyed]
        # Snapshot: the interface allows callers to add while consuming.
        for stored in tuple(candidates):
            args = stored.args
            if arity is not None and len(args) != arity:
                continue
            for index, term in rest:
                if index >= len(args) or args[index] != term:
                    break
            else:
                yield stored

    # ``matching`` (pattern form, repeated variables respected) is
    # inherited from FactStore and derives from matching_bound, so the
    # match semantics live in exactly one place (core.store).

    def active_domain(self) -> set[Term]:
        """``dom(I)``: every constant and null occurring in the instance."""
        domain: set[Term] = set()
        for atom in self._atoms:
            domain.update(atom.args)
        return domain

    def constants(self) -> set[Constant]:
        """All constants occurring in the instance."""
        return {t for t in self.active_domain() if isinstance(t, Constant)}

    def nulls(self) -> set[Null]:
        """All labeled nulls occurring in the instance."""
        return {t for t in self.active_domain() if isinstance(t, Null)}

    def schema(self) -> dict[str, int]:
        """Predicate → arity map inferred from the stored atoms."""
        return schema_of(self._atoms)

    def copy(self) -> "Instance":
        """An independent, unfrozen copy of the same type: the three
        containers are copied as they stand, no atom is re-checked."""
        clone = type(self).__new__(type(self))
        clone._atoms = set(self._atoms)
        clone._by_predicate = {k: set(v) for k, v in self._by_predicate.items()}
        clone._by_position = {k: set(v) for k, v in self._by_position.items()}
        return clone

    def memory_report(self, seen: Optional[set[int]] = None) -> MemoryReport:
        """Byte accounting: atom payload vs the two eager indexes."""
        if seen is None:
            seen = set()
        atoms_bytes = deep_sizeof(self._atoms, seen)
        predicate_bytes = deep_sizeof(self._by_predicate, seen)
        position_bytes = deep_sizeof(self._by_position, seen)
        return MemoryReport(
            backend=self.backend_name,
            atom_count=len(self._atoms),
            term_count=len(self.active_domain()),
            components={
                "atoms": atoms_bytes,
                "predicate_index": predicate_bytes,
                "position_index": position_bytes,
            },
        )

    def __repr__(self) -> str:
        return f"Instance({len(self._atoms)} atoms)"


class Database(Instance):
    """A finite set of *facts*: atoms over constants only (no nulls)."""

    def add(self, atom: Atom) -> bool:
        if not atom.is_fact():
            raise ValueError(
                f"databases contain facts (constants only), got {atom}"
            )
        return super().add(atom)

    def to_instance(self) -> Instance:
        """An :class:`Instance` copy, suitable as the chase's ``I0``."""
        return Instance(self._atoms)

    def __repr__(self) -> str:
        return f"Database({len(self._atoms)} facts)"
