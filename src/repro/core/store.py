"""The fact-storage interface.

The Vadalog system paper describes a dedicated storage/record-manager
layer — indexes and caches feeding the streaming operator network —
underneath the reasoning algorithms.  This module formalizes that layer
for the reproduction: :class:`FactStore` is the contract every backend
implements, and every engine (the chase, the operator network,
semi-naive evaluation, homomorphism search) is written against it.

A store holds *ground* atoms (constants and labeled nulls).  The
retrieval primitive is :meth:`FactStore.matching_bound`: all stored
atoms of a predicate whose argument at each bound (1-based) position
equals the given term.  The pattern form :meth:`FactStore.matching`
— match a possibly non-ground atom, respecting repeated variables —
is derived from it, so backends only implement the bound-position
probe.

Every backend also answers :meth:`FactStore.memory_report`, making the
paper's space-efficiency claims measurable per component (fact payload,
indexes, interning tables, caches) instead of anecdotal.

The interface lives in ``core``, below its reference implementation
:class:`~repro.core.instance.Instance`; the other backends, and the
name → class table behind ``store=``, are :mod:`repro.storage`, which
re-exports everything defined here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

from .atoms import Atom, match_atom, schema_of
from .terms import Constant, Null, Term, Variable

__all__ = ["FactStore", "FrozenStoreError", "MemoryReport"]


class FrozenStoreError(RuntimeError):
    """Mutation attempted on a store frozen by :meth:`FactStore.freeze`.

    Raised instead of silently corrupting a snapshot: the serving layer
    hands frozen EDB views to concurrent readers, and any write to one
    would break snapshot isolation for every in-flight query admitted
    under that version.
    """


@dataclass(frozen=True)
class MemoryReport:
    """Per-component byte accounting for one store.

    ``components`` maps a component name (``"facts"``, ``"indexes"``,
    ...) to its deeply measured size in bytes.  Components are measured
    with a shared visited-set, so shared objects are charged to the
    first component that reaches them and the total is not inflated by
    double counting.

    ``spilled`` accounts bytes that live *on disk* rather than in the
    process (the sharded backend's evicted pages); they never count
    toward ``total_bytes``, which remains the resident figure every
    space claim is made against.
    """

    backend: str
    atom_count: int
    term_count: int
    components: Mapping[str, int]
    spilled: Mapping[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.components.values())

    @property
    def resident_bytes(self) -> int:
        """Alias of :attr:`total_bytes`, paired with ``spilled_bytes``."""
        return self.total_bytes

    @property
    def spilled_bytes(self) -> int:
        return sum(self.spilled.values())

    def as_dict(self) -> dict:
        """A JSON-ready representation (used by the benchmarks)."""
        return {
            "backend": self.backend,
            "atom_count": self.atom_count,
            "term_count": self.term_count,
            "total_bytes": self.total_bytes,
            "resident_bytes": self.resident_bytes,
            "spilled_bytes": self.spilled_bytes,
            "components": dict(self.components),
            "spilled": dict(self.spilled),
        }

    def __str__(self) -> str:
        parts = ", ".join(
            f"{name}={size}B" for name, size in self.components.items()
        )
        spill = (
            f", spilled {self.spilled_bytes}B" if self.spilled else ""
        )
        return (
            f"MemoryReport({self.backend}: {self.atom_count} atoms, "
            f"{self.term_count} terms, {self.total_bytes}B{spill}; {parts})"
        )


class FactStore(ABC):
    """Abstract interface of a set of ground atoms with indexed retrieval.

    Backends differ in representation (object sets, interned columns,
    base-plus-delta overlays, ...) but expose the same operations, so
    the chase, the operator network, and semi-naive evaluation run
    unchanged on any of them.
    """

    #: Human-readable backend identifier, reported by ``memory_report``.
    backend_name: str = "abstract"

    #: Class-level default so backends need no ``__init__`` cooperation;
    #: :meth:`freeze` shadows it with an instance attribute.
    _frozen: bool = False

    #: True on backends that keep each relation as one or more
    #: :class:`~repro.storage.relation.Relation` *parts* over a shared
    #: interning ``table`` and hand them out through
    #: ``parts(predicate, arity, ids=None)`` /
    #: ``extend_rows(predicate, arity, rows)`` / ``release_indexes()``
    #: — the surface compiled kernels join in place.  The single declaration every dispatcher
    #: (:func:`repro.storage.kernel_capable`) reads.
    kernel_capable: bool = False

    # -- immutability ------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has sealed this store."""
        return self._frozen

    def freeze(self) -> "FactStore":
        """Seal the store: every later mutation raises
        :class:`FrozenStoreError`.

        Freezing is one-way and idempotent.  The snapshot manager of
        the serving layer freezes each EDB version before handing it to
        concurrent readers, and a ``DeltaOverlay`` freezes the base it
        is built over.
        """
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        """Guard for backend mutation paths (cheap: one attribute read)."""
        if self._frozen:
            raise FrozenStoreError(
                f"{type(self).__name__} is frozen (a snapshot view); "
                "mutations would corrupt concurrent readers"
            )

    # -- mutation ----------------------------------------------------------

    @abstractmethod
    def add(self, atom: Atom) -> bool:
        """Insert *atom*; return True iff it was not already present.

        Implementations must reject non-ground atoms with ValueError.
        """

    def add_all(self, atoms: Iterable[Atom]) -> int:
        """Insert many atoms; return how many were new."""
        return sum(1 for atom in atoms if self.add(atom))

    @abstractmethod
    def discard(self, atom: Atom) -> bool:
        """Remove *atom*; return True iff it was present.

        Removing an absent atom is a no-op (set semantics, mirroring
        :meth:`set.discard`).  Backends must keep every index, cache,
        and derived structure coherent with the shrunken atom set —
        the incremental-maintenance layer retracts through this.
        """

    def discard_all(self, atoms: Iterable[Atom]) -> int:
        """Remove many atoms; return how many were present."""
        return sum(1 for atom in atoms if self.discard(atom))

    # -- membership and iteration -----------------------------------------

    @abstractmethod
    def __contains__(self, atom: object) -> bool:
        """A point lookup, never a scan: a compiled join step that binds
        nothing asks this once per partial match
        (:func:`repro.core.match.probe`)."""

    @abstractmethod
    def __iter__(self) -> Iterator[Atom]: ...

    @abstractmethod
    def __len__(self) -> int: ...

    def contains(self, atom: Atom) -> bool:
        """Method form of ``atom in store``."""
        return atom in self

    def count(self, predicate: Optional[str] = None) -> int:
        """Number of stored atoms, optionally restricted to a predicate."""
        if predicate is None:
            return len(self)
        return sum(1 for _ in self.by_predicate(predicate))

    def atoms(self) -> frozenset[Atom]:
        """A frozen snapshot of the current atom set."""
        return frozenset(self)

    # -- retrieval ---------------------------------------------------------

    @abstractmethod
    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        """All stored atoms whose predicate is *predicate*.

        Like :meth:`matching_bound`, the returned iterator must be safe
        against mutation of the store while it is consumed.
        """

    @abstractmethod
    def predicates(self) -> set[str]:
        """All predicate names with at least one stored atom."""

    @abstractmethod
    def matching_bound(
        self,
        predicate: str,
        bound: Mapping[int, Term],
        arity: Optional[int] = None,
    ) -> Iterator[Atom]:
        """Atoms of *predicate* agreeing with every bound position.

        *bound* maps 1-based positions to ground terms, following the
        paper's ``R[i]`` notation.  With ``arity`` given, only atoms of
        that arity are returned.  An empty *bound* is a predicate scan.

        Implementations must iterate over snapshots, so callers may add
        atoms to the store while consuming the result (the engines'
        delta loops rely on this being backend-independent).
        """

    def matching(self, pattern: Atom) -> Iterator[Atom]:
        """Stored atoms matching the (possibly non-ground) *pattern*.

        Derived from :meth:`matching_bound`; repeated variables in the
        pattern are enforced here.
        """
        bound = {
            i: term
            for i, term in enumerate(pattern.args, start=1)
            if not isinstance(term, Variable)
        }
        need_agree = len(pattern.variables()) < sum(
            1 for t in pattern.args if isinstance(t, Variable)
        )
        for stored in self.matching_bound(
            pattern.predicate, bound, arity=pattern.arity
        ):
            if not need_agree or match_atom(pattern, stored) is not None:
                yield stored

    # -- derived views -----------------------------------------------------

    def active_domain(self) -> set[Term]:
        """``dom(I)``: every constant and null occurring in the store."""
        domain: set[Term] = set()
        for atom in self:
            domain.update(atom.args)
        return domain

    def constants(self) -> set[Constant]:
        """All constants occurring in the store."""
        return {t for t in self.active_domain() if isinstance(t, Constant)}

    def nulls(self) -> set[Null]:
        """All labeled nulls occurring in the store."""
        return {t for t in self.active_domain() if isinstance(t, Null)}

    def schema(self) -> dict[str, int]:
        """Predicate → arity map inferred from the stored atoms."""
        return schema_of(self)

    # -- lifecycle ---------------------------------------------------------

    def fresh(self) -> "FactStore":
        """An empty store of the same backend."""
        return type(self)()

    def copy(self) -> "FactStore":
        """An independent copy sharing no mutable state."""
        clone = self.fresh()
        clone.add_all(self)
        return clone

    # -- accounting --------------------------------------------------------

    @abstractmethod
    def memory_report(self, seen: Optional[set[int]] = None) -> MemoryReport:
        """Byte-level accounting of the store's resident structures.

        *seen* lets composite stores (e.g. an overlay) measure several
        member stores without charging shared objects twice.
        """
