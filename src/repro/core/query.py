"""Conjunctive queries.

A CQ over a schema S is ``q(x̄) :- ∃ȳ (R1(z̄1) ∧ ... ∧ Rn(z̄n))`` with
output variables x̄; we adopt the paper's rule-based syntax
``Q(x̄) ← R1(z̄1), ..., Rn(z̄n)`` (Section 2).  Evaluation ``q(I)`` over an
instance I is the set of tuples ``h(x̄)`` *of constants* with h a
homomorphism from ``atoms(q)`` to I — tuples containing nulls are not
answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .atoms import Atom, atoms_variables
from .instance import Instance
from .match import compile_atoms, holds, pinned_candidates, probe, selective_order
from .substitution import Substitution
from .terms import Constant, Term, Variable

__all__ = ["ConjunctiveQuery", "stream_new_answers"]


def stream_new_answers(query: "ConjunctiveQuery", events, delta_of):
    """Surface a query's answers over an engine's event stream.

    *events* is any iterator of engine events carrying ``index`` (0 for
    the seeded database) and ``instance`` (the live store after the
    event); ``delta_of(event)`` returns the atoms the event added.  The
    seed event is evaluated in full; every later event is
    delta-evaluated on its query-relevant atoms only
    (:meth:`ConjunctiveQuery.evaluate_delta`), and each answer is
    yielded once, in the event's block: a list in ``str`` order.  This
    is the one answer-surfacing protocol shared by the chase and
    semi-naive streams; on a kernel-capable store the semi-naive stream
    keeps it in id space (:func:`repro.kernels.stream_query_answers`),
    so no round's staged rows are decoded to feed it, and its blocks
    are id rows whose answers are decoded when read.
    """
    seen: set[tuple[Constant, ...]] = set()
    predicates = query.predicates()
    for event in events:
        if event.index == 0:
            fresh = query.evaluate(event.instance)
        else:
            relevant = [
                a for a in delta_of(event) if a.predicate in predicates
            ]
            if not relevant:
                continue
            fresh = query.evaluate_delta(event.instance, relevant)
        fresh -= seen
        if fresh:
            seen |= fresh
            yield sorted(fresh, key=str)


def _search(compiled, depth, store, row, answers, candidates=None) -> None:
    """Extend the partial match in *row* by step *depth* and those below
    it, adding the constants-only output tuple of every complete match
    to *answers*.  *candidates* are the stored atoms to try for this
    step; by default :func:`~repro.core.match.probe` asks *store*."""
    steps, output = compiled
    step = steps[depth]
    binds, agree = step.binds, step.agree
    if candidates is None:
        candidates = probe(step, store, row)
    depth += 1
    for stored in candidates:
        args = stored.args
        for index, earlier in agree:
            if args[index] != args[earlier]:
                break
        else:
            for index, slot in binds:
                row[slot] = args[index]
            if depth < len(steps):
                _search(compiled, depth, store, row, answers)
                continue
            image = tuple([row[slot] for slot in output])
            for term in image:
                if not isinstance(term, Constant):
                    break
            else:
                answers.add(image)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``Q(x̄) ← R1(z̄1), ..., Rn(z̄n)``.

    ``output`` is the tuple x̄ of output variables (possibly with
    repetitions, possibly empty for a Boolean CQ); every output variable
    must occur in some body atom.  ``head_predicate`` is the name used
    when the query is printed in rule form (``Q`` by default).
    """

    output: tuple[Variable, ...]
    atoms: tuple[Atom, ...]
    head_predicate: str = field(default="Q", compare=False)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a CQ needs at least one body atom")
        object.__setattr__(self, "output", tuple(self.output))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        body_vars = atoms_variables(self.atoms)
        for v in self.output:
            if v not in body_vars:
                raise ValueError(
                    f"output variable {v} does not occur in the query body"
                )

    # -- structure ---------------------------------------------------------

    def variables(self) -> set[Variable]:
        """All variables of the query body."""
        return atoms_variables(self.atoms)

    def output_variables(self) -> set[Variable]:
        """The set of output (distinguished) variables."""
        return set(self.output)

    def existential_variables(self) -> set[Variable]:
        """Body variables that are not output variables."""
        return self.variables() - set(self.output)

    def is_boolean(self) -> bool:
        """True iff the query has no output variables."""
        return not self.output

    def is_atomic(self) -> bool:
        """True iff the query body is a single atom."""
        return len(self.atoms) == 1

    def predicates(self) -> set[str]:
        """All predicate names in the query body."""
        return {a.predicate for a in self.atoms}

    def width(self) -> int:
        """``|q|``: the number of body atoms (the node-width unit)."""
        return len(self.atoms)

    # -- transformation -------------------------------------------------------

    def apply(self, substitution: Substitution) -> "ConjunctiveQuery":
        """Apply a substitution to body and output tuple.

        Output positions that become constants are dropped from the
        variable tuple interface; callers that instantiate outputs should
        use :meth:`instantiate` instead, which returns the Boolean CQ the
        decision problem works on.
        """
        new_atoms = substitution.apply_atoms(self.atoms)
        new_output = []
        for v in self.output:
            image = substitution.apply_term(v)
            if isinstance(image, Variable):
                new_output.append(image)
        return ConjunctiveQuery(
            tuple(new_output), new_atoms, head_predicate=self.head_predicate
        )

    def instantiate(self, answers: Sequence[Constant]) -> tuple[Atom, ...]:
        """The atoms of ``q(c̄)``: output variables replaced by constants.

        This is the first step of the Section 4.3 algorithm: "store in p
        the Boolean CQ obtained after instantiating the output variables
        of q with c̄".  Repeated output variables must receive consistent
        constants (guaranteed by construction here).
        """
        if len(answers) != len(self.output):
            raise ValueError(
                f"expected {len(self.output)} constants, got {len(answers)}"
            )
        mapping: dict[Term, Term] = {}
        for var, constant in zip(self.output, answers):
            existing = mapping.get(var)
            if existing is not None and existing != constant:
                raise ValueError(
                    f"output variable {var} bound to both {existing} and "
                    f"{constant}"
                )
            mapping[var] = constant
        subst = Substitution(mapping)
        return subst.apply_atoms(self.atoms)

    def rename(self, suffix: str) -> "ConjunctiveQuery":
        """Uniformly rename every variable ``x`` to ``x@suffix``."""
        mapping: dict[Term, Term] = {
            v: Variable(f"{v.name}@{suffix}") for v in self.variables()
        }
        subst = Substitution(mapping)
        return ConjunctiveQuery(
            tuple(subst.apply_term(v) for v in self.output),  # type: ignore[misc]
            subst.apply_atoms(self.atoms),
            head_predicate=self.head_predicate,
        )

    # -- evaluation ----------------------------------------------------------

    def _compile(self, pinned: Optional[int] = None) -> tuple:
        """``(steps, output slots)``, the atom at *pinned* first."""
        steps, slots = compile_atoms(
            self.atoms, selective_order(self.atoms, pinned)
        )
        return steps, tuple(slots[v] for v in self.output)

    @cached_property
    def _compiled(self) -> tuple:
        """Compiled once per (frozen) query, on first use; racing first
        calls compute equal values."""
        return self._compile()

    @cached_property
    def _compiled_pinned(self) -> tuple:
        """Likewise, one form per body atom with that atom first."""
        return tuple(self._compile(at) for at in range(len(self.atoms)))

    def evaluate(self, instance: Instance) -> set[tuple[Constant, ...]]:
        """``q(I)``: all constant output tuples under homomorphisms into I."""
        answers: set[tuple[Constant, ...]] = set()
        _search(self._compiled, 0, instance, {}, answers)
        return answers

    def evaluate_delta(
        self, instance: Instance, delta: Iterable[Atom]
    ) -> set[tuple[Constant, ...]]:
        """``q(I)`` restricted to matches that use at least one delta atom.

        *delta* must already be contained in *instance*.  Each body atom
        is pinned to each delta atom in turn and the remaining atoms are
        matched against the full instance, so over a run that feeds every
        new atom through here exactly the monotone closure of
        :meth:`evaluate` is reproduced: an answer surfaces in the round
        whose delta completes its earliest witnessing homomorphism.
        """
        answers: set[tuple[Constant, ...]] = set()
        delta_atoms = list(delta)
        for compiled in self._compiled_pinned:
            candidates = pinned_candidates(compiled[0][0], delta_atoms)
            _search(compiled, 0, instance, {}, answers, candidates)
        return answers

    def holds_in(self, instance: Instance) -> bool:
        """Boolean evaluation: does some homomorphism into I exist?  One
        that sends an output variable to a null counts."""
        steps, _ = self._compiled
        return holds(steps, instance, [None] * len(self.variables()))

    def __str__(self) -> str:
        head_args = ",".join(str(v) for v in self.output)
        body = ", ".join(str(a) for a in self.atoms)
        return f"{self.head_predicate}({head_args}) ← {body}"
