"""Programs: finite sets of TGDs with their schema bookkeeping.

A :class:`Program` wraps a sequence of TGDs and exposes

* the schema ``sch(Σ)`` (predicate → arity),
* the extensional/intensional split (``edb(Σ)`` are the predicates never
  occurring in a head, Section 6),
* the single-head normal form,
* membership tests for the classes the paper studies — WARD, PWL,
  linear/IL, FULL — delegated to :mod:`repro.analysis`.

Programs are immutable; transformations return new programs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .tgd import TGD, single_head_program_atoms

__all__ = ["Program"]


class Program:
    """An immutable finite set of TGDs (the paper's Σ)."""

    def __init__(self, tgds: Iterable[TGD], name: str = ""):
        self._tgds: tuple[TGD, ...] = tuple(tgds)
        self.name = name
        self._schema: Optional[dict[str, int]] = None

    # -- container interface -------------------------------------------------

    def __iter__(self) -> Iterator[TGD]:
        return iter(self._tgds)

    def __len__(self) -> int:
        return len(self._tgds)

    def __getitem__(self, index: int) -> TGD:
        return self._tgds[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._tgds == other._tgds

    def __hash__(self) -> int:
        return hash(self._tgds)

    @property
    def tgds(self) -> tuple[TGD, ...]:
        return self._tgds

    # -- schema ------------------------------------------------------------

    def schema(self) -> dict[str, int]:
        """``sch(Σ)``: predicate → arity for every predicate in Σ."""
        if self._schema is None:
            schema: dict[str, int] = {}
            for tgd in self._tgds:
                for atom in tgd.body + tgd.head + tgd.negated:
                    known = schema.get(atom.predicate)
                    if known is None:
                        schema[atom.predicate] = atom.arity
                    elif known != atom.arity:
                        raise ValueError(
                            f"predicate {atom.predicate!r} used with arities "
                            f"{known} and {atom.arity}"
                        )
            self._schema = schema
        return dict(self._schema)

    def predicates(self) -> set[str]:
        """All predicate names of ``sch(Σ)``."""
        return set(self.schema())

    def head_predicates(self) -> set[str]:
        """Predicates occurring in some head: the intensional predicates."""
        preds: set[str] = set()
        for tgd in self._tgds:
            preds.update(tgd.head_predicates())
        return preds

    def intensional_predicates(self) -> set[str]:
        """Alias for :meth:`head_predicates` (IDB predicates)."""
        return self.head_predicates()

    def extensional_predicates(self) -> set[str]:
        """``edb(Σ)``: predicates that never occur in a head (Section 6)."""
        return self.predicates() - self.head_predicates()

    # -- structural class tests -------------------------------------------

    def is_full(self) -> bool:
        """True iff every TGD is full (no existentials): a Datalog program."""
        return all(t.is_full() for t in self._tgds)

    def is_single_head(self) -> bool:
        """True iff every TGD has a single head atom."""
        return all(t.is_single_head() for t in self._tgds)

    def has_negation(self) -> bool:
        """True iff some TGD carries negated body literals.

        Such a program is stratified negation: :mod:`repro.lint` checks
        its safety and stratifiability, the datalog engine evaluates it
        stratum by stratum, and the planner plans it on that engine
        only.
        """
        return any(t.negated for t in self._tgds)

    def max_body_size(self) -> int:
        """``max_{σ∈Σ} |body(σ)|`` — a factor of both node-width bounds."""
        return max(len(t.body) for t in self._tgds)

    # -- transformations ------------------------------------------------------

    def single_head(self, aux_prefix: str = "Aux") -> "Program":
        """The single-head normal form (idempotent on single-head input)."""
        if self.is_single_head():
            return self
        return Program(
            single_head_program_atoms(self._tgds, aux_prefix=aux_prefix),
            name=f"{self.name}+single_head" if self.name else "single_head",
        )

    def extend(self, extra: Iterable[TGD], name: str = "") -> "Program":
        """A new program with extra TGDs appended."""
        return Program(self._tgds + tuple(extra), name=name or self.name)

    def validate(self, allow_constants: bool = False) -> None:
        """Validate every TGD; see :meth:`TGD.validate`."""
        for tgd in self._tgds:
            tgd.validate(allow_constants=allow_constants)
        self.schema()  # raises on arity conflicts

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Program({len(self._tgds)} TGDs{label})"

    def pretty(self) -> str:
        """A readable multi-line rendering of the program."""
        return "\n".join(str(t) for t in self._tgds)
