"""Shared, lazily-computed analysis state for the lint passes.

A :class:`LintContext` wraps one program (plus, optionally, its parsed
facts and a query) and exposes the derived structures the passes read —
tolerant schema, predicate graph, wardedness/PWL reports — each
computed at most once per run.

Tolerance is the point: the production analyses
(:meth:`repro.core.program.Program.schema`,
:class:`~repro.analysis.predicate_graph.PredicateGraph`) *raise* on an
arity-inconsistent program, but the linter's job is to report that
inconsistency as a diagnostic and keep going.  The context therefore
builds its own conflict-tolerant schema, and the fragment reports
degrade to ``None`` when the schema is broken (their passes skip rather
than crash); the predicate graph needs names only and is always built.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..analysis.piecewise import PiecewiseReport, piecewise_report
from ..analysis.predicate_graph import PredicateGraph
from ..analysis.wardedness import WardednessReport, wardedness_report
from ..core.atoms import Atom, Position
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.spans import Span
from ..core.terms import Constant

__all__ = ["ArityUse", "FactSummary", "LintContext"]


def _constant_kind(constant: Constant) -> str:
    """``int`` or ``sym``: the two constant kinds the surface syntax has
    (quoted strings and lowercase names both parse to str values)."""
    return "int" if isinstance(constant.value, int) else "sym"


def _atom_whole(atom: Atom) -> Optional[Span]:
    return atom.span.whole if atom.span is not None else None


class ArityUse:
    """One predicate's observed arities: count and first span per arity."""

    __slots__ = ("counts", "first_span", "first_order")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.first_span: Dict[int, Optional[Span]] = {}
        self.first_order: List[int] = []  # arities in first-seen order

    def record(self, arity: int, span: Optional[Span]) -> None:
        if arity not in self.counts:
            self.counts[arity] = 0
            self.first_span[arity] = span
            self.first_order.append(arity)
        self.counts[arity] += 1


class FactSummary:
    """A compact per-predicate digest of a fact database.

    The linter never needs the facts themselves — only which predicates
    have facts, with what arities, and what constant kinds occupy each
    position.  Summarizing at parse/compile time keeps
    :class:`~repro.api.program.CompiledProgram` from pinning a copy of
    a large EDB just to lint against it.
    """

    __slots__ = ("arities", "position_kinds", "fact_count")

    def __init__(self) -> None:
        self.arities: Dict[str, ArityUse] = {}
        #: (position, kind) → span of the first fact exhibiting it.
        self.position_kinds: Dict[Tuple[Position, str], Optional[Span]] = {}
        self.fact_count = 0

    @classmethod
    def from_facts(cls, facts: Iterable[Atom]) -> "FactSummary":
        summary = cls()
        for atom in facts:
            summary.fact_count += 1
            whole = _atom_whole(atom)
            summary.arities.setdefault(atom.predicate, ArityUse()).record(atom.arity, whole)
            for index, (position, term) in enumerate(atom.positions()):
                if not isinstance(term, Constant):
                    continue
                key = (position, _constant_kind(term))
                if key not in summary.position_kinds:
                    span = atom.span.arg(index) if atom.span is not None else None
                    summary.position_kinds[key] = span
        return summary

    def predicates(self) -> Set[str]:
        return set(self.arities)


class LintContext:
    """Everything one lint run shares across its passes, built lazily."""

    def __init__(
        self,
        program: Program,
        *,
        facts: Optional[FactSummary] = None,
        query: Optional[ConjunctiveQuery] = None,
    ):
        self.program = program
        self.facts = facts
        self.query = query
        self._arity_uses: Optional[Dict[str, ArityUse]] = None
        self._ward: Optional[WardednessReport] = None
        self._ward_built = False
        self._pwl: Optional[PiecewiseReport] = None
        self._pwl_built = False

    # -- tolerant schema ---------------------------------------------------

    @property
    def arity_uses(self) -> Dict[str, ArityUse]:
        """Predicate → observed arities, over rules *and* facts.

        Unlike :meth:`Program.schema`, conflicts do not raise — they
        are exactly what the arity pass reports.
        """
        if self._arity_uses is None:
            uses: Dict[str, ArityUse] = {}
            for tgd in self.program:
                for atom in tgd.body + tgd.head + tgd.negated:
                    uses.setdefault(atom.predicate, ArityUse()).record(
                        atom.arity, _atom_whole(atom)
                    )
            if self.facts is not None:
                for predicate, fact_use in self.facts.arities.items():
                    use = uses.setdefault(predicate, ArityUse())
                    for arity in fact_use.first_order:
                        use.record(arity, fact_use.first_span[arity])
            self._arity_uses = uses
        return self._arity_uses

    @property
    def schema_consistent(self) -> bool:
        """True iff no predicate is used with conflicting arities."""
        return all(len(use.counts) == 1 for use in self.arity_uses.values())

    # -- predicate structure ----------------------------------------------

    @property
    def idb_predicates(self) -> Set[str]:
        """Predicates derived by some rule head."""
        return self.program.head_predicates()

    @cached_property
    def graph(self) -> PredicateGraph:
        """``pg(Σ)`` with its negative edges (arity conflicts or not)."""
        return PredicateGraph(self.program)

    @property
    def ward_report(self) -> Optional[WardednessReport]:
        """Definition 3.1 witnesses (independent of the schema map)."""
        if not self._ward_built:
            self._ward_built = True
            if self.schema_consistent:
                self._ward = wardedness_report(self.program)
        return self._ward

    @property
    def pwl_report(self) -> Optional[PiecewiseReport]:
        """Definition 4.1 recursive-atom counts."""
        if not self._pwl_built:
            self._pwl_built = True
            if self.schema_consistent:
                self._pwl = piecewise_report(self.program)
        return self._pwl
