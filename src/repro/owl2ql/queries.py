"""SPARQL-style basic graph patterns under the entailment regime.

A :class:`BGPQuery` is a conjunction of triple patterns over the
ontology vocabulary — ``(?x, "type", "person")`` or
``(?x, "worksFor", ?y)`` — compiled into a conjunctive query over the
``type``/``triple`` encoding and answered with the package's certain-
answer machinery.  This is the SPARQL/OWL 2 QL loop of Section 3 end to
end: pattern → CQ → warded PWL reasoning → entailment-regime answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple, Union

from ..api import certain_answers
from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant, Term, Variable
from .encoding import EncodedOntology

__all__ = ["Var", "TriplePattern", "BGPQuery", "answer_bgp"]

#: The reserved predicate marking an rdf:type pattern.
TYPE = "type"


@dataclass(frozen=True)
class Var:
    """A SPARQL-style variable, written ``Var("x")`` for ``?x``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Var, str]


@dataclass(frozen=True)
class TriplePattern:
    """One pattern: (subject, predicate, object).

    The predicate is a fixed property name or the reserved ``"type"``;
    subject and object may be :class:`Var` or individual/class names.
    (OWL 2 QL queries do not quantify over predicates.)
    """

    subject: PatternTerm
    predicate: str
    object: PatternTerm


def _to_term(value: PatternTerm) -> Term:
    if isinstance(value, Var):
        return Variable(f"V_{value.name}")
    return Constant(value)


@dataclass
class BGPQuery:
    """A basic graph pattern with selected output variables."""

    select: Tuple[Var, ...]
    patterns: Tuple[TriplePattern, ...]

    @staticmethod
    def make(
        select: Sequence[Var], patterns: Sequence[TriplePattern]
    ) -> "BGPQuery":
        return BGPQuery(tuple(select), tuple(patterns))

    def to_cq(self) -> ConjunctiveQuery:
        """Compile to a CQ over the ``type``/``triple`` vocabulary."""
        if not self.patterns:
            raise ValueError("a BGP needs at least one triple pattern")
        atoms: List[Atom] = []
        in_scope: Set[str] = set()
        for pattern in self.patterns:
            subject = _to_term(pattern.subject)
            obj = _to_term(pattern.object)
            for term in (pattern.subject, pattern.object):
                if isinstance(term, Var):
                    in_scope.add(term.name)
            if pattern.predicate == TYPE:
                atoms.append(Atom("type", (subject, obj)))
            else:
                atoms.append(
                    Atom(
                        "triple",
                        (subject, Constant(pattern.predicate), obj),
                    )
                )
        missing = [v.name for v in self.select if v.name not in in_scope]
        if missing:
            raise ValueError(
                f"selected variables not bound by any pattern: {missing}"
            )
        output = tuple(Variable(f"V_{v.name}") for v in self.select)
        return ConjunctiveQuery(output, tuple(atoms), head_predicate="q")


def answer_bgp(
    query: BGPQuery,
    encoded: EncodedOntology,
    **engine_kwargs,
) -> Set[Tuple[Constant, ...]]:
    """Certain answers of a BGP under the OWL 2 QL entailment regime."""
    return certain_answers(
        query.to_cq(),
        encoded.database,
        encoded.program,
        **engine_kwargs,
    )
