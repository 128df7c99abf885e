"""Tuple-generating dependencies (TGDs).

A TGD is a first-order sentence ``∀x̄∀ȳ (φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄))`` where φ
(the *body*) and ψ (the *head*) are conjunctions of atoms (Section 2).
Following the paper we usually write it as ``φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)``.

Key derived notions implemented here:

* ``front(σ)`` — the frontier: variables occurring in both body and head,
* ``var∃(σ)`` — the existentially quantified (head-only) variables,
* variable renaming ``σ_o`` (uniform renaming used by resolution steps),
* the single-head normal form used by Section 4.2 ("we assume, w.l.o.g.,
  TGDs with only one atom in the head"), via the standard
  certain-answer-preserving transformation of Calì, Gottlob & Pieris
  (reference [11] of the paper): a multi-head TGD is split through a
  fresh auxiliary predicate collecting the frontier and existential
  variables, followed by one projection rule per original head atom.

The paper's definition disallows constants in TGDs.  We follow that by
default but allow opting out (``allow_constants=True``) because practical
Vadalog programs do use constants; the static analyses treat constant
occurrences as trivially harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional, Sequence

from .atoms import Atom, atoms_variables
from .match import CompiledRule, compile_rule
from .spans import Span
from .substitution import Substitution
from .terms import Constant, Term, Variable

__all__ = ["TGD", "single_head_program_atoms"]


@dataclass(frozen=True)
class TGD:
    """A tuple-generating dependency ``body → ∃z̄ head``.

    ``body`` and ``head`` are tuples of atoms.  Existential variables are
    not written explicitly: every variable occurring in the head but not
    in the body is existentially quantified, exactly as in the rule-based
    surface syntax of Datalog∃.

    ``negated`` holds the rule's negated body literals (``not p(X̄)`` in
    the surface syntax): :mod:`repro.lint` checks their safety and
    stratifiability, and the datalog engine evaluates them stratum by
    stratum (:func:`~repro.datalog.seminaive.seminaive_rounds`); the
    planner refuses them on every other engine, and the chase and magic
    sets raise rather than silently ignore them.  ``span`` records where the rule was written (parser
    provenance; excluded from equality like every span).
    """

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    label: str = field(default="", compare=False)
    negated: tuple[Atom, ...] = ()
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("a TGD needs a non-empty body")
        if not self.head:
            raise ValueError("a TGD needs a non-empty head")
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "head", tuple(self.head))
        if not isinstance(self.negated, tuple):
            object.__setattr__(self, "negated", tuple(self.negated))

    # -- variable structure --------------------------------------------------

    @cached_property
    def _variable_sets(self) -> tuple[frozenset[Variable], ...]:
        """(body, head, frontier, existential) variables, computed once:
        ``cached_property`` writes the frozen instance's ``__dict__``,
        which equality and hashing never read.  Immutable because every
        caller is handed the same objects."""
        body = frozenset(atoms_variables(self.body))
        head = frozenset(atoms_variables(self.head))
        return body, head, body & head, head - body

    @cached_property
    def matcher(self) -> CompiledRule:
        """The body compiled once per pinned position, the head as a row
        projection (:mod:`repro.core.match`) — cached like the variable
        sets, so outside equality, hashing and ``repr``."""
        return compile_rule(self)

    def __getstate__(self) -> dict:
        """Pickle the fields only; what is cached is recomputed."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def body_variables(self) -> frozenset[Variable]:
        """Variables occurring in the body."""
        return self._variable_sets[0]

    def head_variables(self) -> frozenset[Variable]:
        """Variables occurring in the head."""
        return self._variable_sets[1]

    def frontier(self) -> frozenset[Variable]:
        """``front(σ)``: variables occurring in both body and head."""
        return self._variable_sets[2]

    def existential_variables(self) -> frozenset[Variable]:
        """``var∃(σ)``: head variables not occurring in the body."""
        return self._variable_sets[3]

    def variables(self) -> frozenset[Variable]:
        """All variables of the TGD."""
        return self.body_variables() | self.head_variables()

    def constants(self) -> set[Constant]:
        """All constants mentioned by the TGD (empty for paper-strict TGDs)."""
        found: set[Constant] = set()
        for atom in self.body + self.head:
            found.update(atom.constants())
        return found

    # -- structural properties ------------------------------------------------

    def is_full(self) -> bool:
        """True iff the TGD has no existential variables (a Datalog rule)."""
        return not self.existential_variables()

    def is_single_head(self) -> bool:
        """True iff the head consists of exactly one atom."""
        return len(self.head) == 1

    def predicates(self) -> set[str]:
        """All predicate names occurring in the TGD."""
        return {a.predicate for a in self.body + self.head}

    def body_predicates(self) -> set[str]:
        return {a.predicate for a in self.body}

    def head_predicates(self) -> set[str]:
        return {a.predicate for a in self.head}

    def negated_predicates(self) -> set[str]:
        return {a.predicate for a in self.negated}

    def has_negation(self) -> bool:
        """True iff the rule carries negated body literals."""
        return bool(self.negated)

    # -- renaming ----------------------------------------------------------

    def rename(self, suffix: str) -> "TGD":
        """The TGD ``σ_o``: every variable ``x`` renamed to ``x@suffix``.

        Resolution steps use this to keep rule variables disjoint from
        query variables ("to avoid undesirable clatter among variables").
        """
        mapping: dict[Term, Term] = {
            v: Variable(f"{v.name}@{suffix}") for v in self.variables()
        }
        subst = Substitution(mapping)
        return TGD(
            subst.apply_atoms(self.body),
            subst.apply_atoms(self.head),
            label=self.label,
            negated=subst.apply_atoms(self.negated),
        )

    def apply(self, substitution: Substitution) -> "TGD":
        """Apply a substitution to body and head."""
        return TGD(
            substitution.apply_atoms(self.body),
            substitution.apply_atoms(self.head),
            label=self.label,
            negated=substitution.apply_atoms(self.negated),
        )

    def validate(self, allow_constants: bool = False) -> None:
        """Check paper-strict well-formedness.

        Raises ``ValueError`` if the TGD mentions constants while
        *allow_constants* is False, or if it mentions nulls (never
        allowed: nulls belong to instances, not rules).
        """
        for atom in self.body + self.head:
            for term in atom.args:
                if isinstance(term, Constant) and not allow_constants:
                    raise ValueError(
                        f"TGD {self} mentions constant {term}; the paper's "
                        "TGDs are constant-free (pass allow_constants=True "
                        "to accept practical Vadalog rules)"
                    )
                if not isinstance(term, (Constant, Variable)):
                    raise ValueError(f"TGD {self} mentions non-rule term {term}")

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        if self.negated:
            body += ", " + ", ".join(f"not {a}" for a in self.negated)
        head = ", ".join(str(a) for a in self.head)
        exist = self.existential_variables()
        prefix = ""
        if exist:
            names = ",".join(sorted(v.name for v in exist))
            prefix = f"∃{names} "
        return f"{body} → {prefix}{head}"


def single_head_program_atoms(
    tgds: Sequence[TGD], aux_prefix: str = "Aux"
) -> list[TGD]:
    """Convert a set of TGDs into single-head normal form.

    Each multi-head TGD ``φ(x̄,ȳ) → ∃z̄ (h1, ..., hk)`` becomes

    * ``φ(x̄,ȳ) → ∃z̄ Aux_i(x̄', z̄)`` where ``x̄'`` is the frontier, and
    * ``Aux_i(x̄', z̄) → h_j`` for each j ∈ [k].

    The transformation preserves certain answers (paper reference [11])
    and maps warded sets to warded sets and piece-wise linear sets to
    piece-wise linear sets: the auxiliary predicate inherits the
    recursion structure of the original head.
    Single-head TGDs pass through unchanged.
    """
    result: list[TGD] = []
    counter = 0
    for tgd in tgds:
        if tgd.is_single_head():
            result.append(tgd)
            continue
        frontier = sorted(tgd.frontier(), key=lambda v: v.name)
        existentials = sorted(tgd.existential_variables(), key=lambda v: v.name)
        aux_args = tuple(frontier + existentials)
        aux_name = f"{aux_prefix}_{counter}"
        counter += 1
        aux_atom = Atom(aux_name, aux_args)
        result.append(
            TGD(
                tgd.body, (aux_atom,),
                label=tgd.label or "split",
                negated=tgd.negated,
                span=tgd.span,
            )
        )
        for head_atom in tgd.head:
            result.append(
                TGD((aux_atom,), (head_atom,), label=f"{tgd.label or 'split'}/proj")
            )
    return result
