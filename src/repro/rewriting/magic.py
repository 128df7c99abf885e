"""Demand-driven (magic-set) rewriting of full programs.

The paper bounds the *space* of reasoning; this module bounds the
*relevance*: a bound-argument query (``q(Y) :- t(a, Y)``) over a full
(existential-free) program does not need the whole least fixpoint —
only the facts reachable from the query's constants.  The classical
answer is the magic-set transformation (Beeri & Ramakrishnan; the
generalized supplementary variant of Abiteboul–Hull–Vianu §13.3),
which the Vadalog system papers describe as the demand optimization of
their streaming pipeline.  Given a program Σ and a query q:

1. **Adornment propagation.**  The query's constants are the initial
   bound arguments.  Starting from a synthetic *goal rule* whose head
   carries one placeholder variable per distinct query constant (bound)
   plus the output variables (free), every reachable (predicate,
   adornment) pair is adorned by left-to-right sideways information
   passing through the rule bodies.

2. **Magic predicates.**  For each adorned IDB predicate ``p^α`` a
   predicate ``magic@p@α`` over the bound positions collects the
   *demanded* bindings; every rule defining ``p^α`` is guarded by it.

3. **Supplementary rules.**  Rule bodies are split into a chain of
   supplementary predicates (``sup@rule@i@α``) carrying exactly the
   bound variables still needed, so each demand rule reuses the join
   prefix instead of recomputing it (the "generalized supplementary"
   part; the zeroth supplementary is inlined as the magic guard).

The result is a standard full, single-head :class:`Program` evaluable
by the unchanged semi-naive engine, plus a **seed-fact generator**: one
ground magic fact per query built from the query's constants.  The
adorned program depends only on the query's *binding pattern*
(constants abstracted to placeholders), so sessions cache it per
(program, pattern) and re-seed per query — see
:meth:`AdornedProgram.instantiate`.

Asserted EDB facts of intensional predicates still flow into their
adorned versions through per-adornment copy rules
(``p@α(x̄) :- magic@p@α(x̄_b), p(x̄)``): in the rewritten program the
original predicate names are purely extensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.atoms import Atom
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant, Variable
from ..core.tgd import TGD

__all__ = [
    "AdornedProgram",
    "MagicRewriting",
    "MagicNotApplicable",
    "adorn_program",
    "binding_pattern",
    "magic_rewrite",
    "query_constants",
]


class MagicNotApplicable(ValueError):
    """The (program, query) pair is outside the rewriting's fragment."""


def query_constants(query: ConjunctiveQuery) -> Tuple[Constant, ...]:
    """The distinct constants of the query body, in first-occurrence order.

    These are the query's *bound arguments*: the values demand
    propagates from.  The order is the calling convention between the
    cached adorned program's placeholders and the per-query seed fact.
    """
    seen: List[Constant] = []
    for atom in query.atoms:
        for term in atom.args:
            if isinstance(term, Constant) and term not in seen:
                seen.append(term)
    return tuple(seen)


def binding_pattern(query: ConjunctiveQuery) -> tuple:
    """A hashable key identifying the query up to its constant values.

    Two queries share a binding pattern iff they have the same shape
    (predicates, variable names, output tuple) and the same *placement*
    of constants — with constant identity abstracted to first-occurrence
    indices, so ``t(a, Y)`` and ``t(b, Y)`` share one adorned program.
    """
    const_index: Dict[Constant, int] = {}
    shape = []
    for atom in query.atoms:
        tokens: List[tuple] = []
        for term in atom.args:
            if isinstance(term, Constant):
                tokens.append(
                    ("c", const_index.setdefault(term, len(const_index)))
                )
            else:
                tokens.append(("v", term.name))
        shape.append((atom.predicate, tuple(tokens)))
    return (tuple(v.name for v in query.output), tuple(shape))


@dataclass(frozen=True)
class MagicRewriting:
    """One query's demand rewriting: program + rewritten query + seeds.

    ``program`` is the adorned demand program (shared with every query
    of the same binding pattern); ``query`` is the rewritten query over
    the adorned goal predicate; ``seed`` holds the ground magic facts
    the evaluation must be seeded with (one per rewriting).
    """

    adorned: "AdornedProgram"
    query: ConjunctiveQuery
    seed: Tuple[Atom, ...]
    source: ConjunctiveQuery
    constants: Tuple[Constant, ...]

    @property
    def program(self) -> Program:
        return self.adorned.program

    @property
    def cache_token(self) -> tuple:
        """A hashable identity for fixpoint caches: unlike the plain
        fixpoint, a magic materialization is *demand-specific* — valid
        only for this binding pattern and these seed constants.  The
        constants themselves (frozen, hashable) are the token — their
        string forms would collide ``Constant(1)`` with
        ``Constant("1")`` and serve one query's demand fixpoint to the
        other."""
        return (self.adorned.pattern, self.constants)

    def describe(self) -> str:
        return (
            f"magic — {len(self.program)} demand rule(s) over "
            f"{len(self.adorned.adorned_predicates)} adorned predicate(s), "
            f"{len(self.constants)} bound constant(s)"
        )


@dataclass(frozen=True)
class AdornedProgram:
    """The binding-pattern-level artifact a session caches.

    Everything here is constant-free with respect to the query: the
    query's constants appear only as the ``placeholders`` (bound
    variables of the goal rule).  :meth:`instantiate` turns it into a
    :class:`MagicRewriting` for one concrete query by substituting the
    actual constants into the seed fact and the rewritten query.
    """

    pattern: tuple
    program: Program
    goal_predicate: str        # adorned goal: the answer predicate
    magic_goal: str            # magic predicate seeded per query
    placeholders: Tuple[Variable, ...]
    output: Tuple[Variable, ...]
    adorned_predicates: Tuple[str, ...]
    magic_predicates: frozenset
    supplementary_predicates: Tuple[str, ...]
    #: Does demand actually restrict evaluation?  True iff some
    #: reachable intensional adornment has a bound position *and* none
    #: is all-free: an all-free adornment re-derives that predicate's
    #: entire fixpoint — plus magic/supplementary bookkeeping — which
    #: is never cheaper than the unrewritten plan (the planner's
    #: ``auto`` mode declines; forced ``magic`` still applies).
    restricts: bool = True

    def instantiate(self, query: ConjunctiveQuery) -> MagicRewriting:
        """The concrete rewriting of *query* (same binding pattern)."""
        if binding_pattern(query) != self.pattern:
            raise ValueError(
                "query does not match this adorned program's binding "
                "pattern"
            )
        constants = query_constants(query)
        seed = Atom(self.magic_goal, constants)
        goal_atom = Atom(
            self.goal_predicate, tuple(constants) + tuple(query.output)
        )
        rewritten = ConjunctiveQuery(
            tuple(query.output),
            (goal_atom,),
            head_predicate=query.head_predicate,
        )
        return MagicRewriting(
            adorned=self,
            query=rewritten,
            seed=(seed,),
            source=query,
            constants=constants,
        )


def adorn_program(
    program: Program, query: ConjunctiveQuery
) -> AdornedProgram:
    """Build the adorned demand program for *query*'s binding pattern.

    *program* must be full (existential-free) and positive; multi-head
    rules are normalized first.  The transformation is the generalized
    supplementary magic-set rewriting with the zeroth supplementary
    inlined as the magic guard; see the module docstring.
    """
    normalized = (
        program if program.is_single_head() else program.single_head()
    )
    if not normalized.is_full():
        raise MagicNotApplicable(
            "magic-set rewriting needs a full (existential-free) "
            "program; existential rules invent values demand cannot "
            "enumerate"
        )
    if normalized.has_negation():
        raise MagicNotApplicable(
            "magic-set rewriting covers positive programs only; demand "
            "would cut a negated predicate short of its complete stratum"
        )
    schema = normalized.schema()
    idb = normalized.head_predicates()
    # Names already spoken for: generated predicates must not collide.
    existing: Set[str] = set(schema) | {a.predicate for a in query.atoms}

    def unique(name: str) -> str:
        while name in existing:
            name += "@"
        existing.add(name)
        return name

    # The goal rule: one bound placeholder per distinct query constant,
    # then the (free) output variables.
    constants = query_constants(query)
    taken = {v.name for v in query.variables()}
    placeholders: List[Variable] = []
    counter = 0
    for _ in constants:
        while f"B@{counter}" in taken:
            counter += 1
        placeholders.append(Variable(f"B@{counter}"))
        counter += 1
    to_placeholder = dict(zip(constants, placeholders))

    def abstract(atom: Atom) -> Atom:
        return Atom(
            atom.predicate,
            tuple(
                to_placeholder.get(t, t) if isinstance(t, Constant) else t
                for t in atom.args
            ),
        )

    goal_base = unique("goal@")
    output = tuple(query.output)
    goal_head = Atom(goal_base, tuple(placeholders) + output)
    goal_rule = TGD(
        tuple(abstract(a) for a in query.atoms),
        (goal_head,),
        label="magic/goal",
    )
    goal_adorn = "b" * len(placeholders) + "f" * len(output)

    rules_for: Dict[str, List[Tuple[int, TGD]]] = {}
    for index, tgd in enumerate(normalized):
        rules_for.setdefault(tgd.head[0].predicate, []).append((index, tgd))
    goal_index = len(normalized.tgds)

    adorned_memo: Dict[Tuple[str, str], str] = {}
    magic_memo: Dict[Tuple[str, str], str] = {}

    def adorned_name(pred: str, adorn: str) -> str:
        key = (pred, adorn)
        if key not in adorned_memo:
            adorned_memo[key] = unique(f"{pred}@{adorn}")
        return adorned_memo[key]

    def magic_name(pred: str, adorn: str) -> str:
        key = (pred, adorn)
        if key not in magic_memo:
            magic_memo[key] = unique(f"magic@{pred}@{adorn}")
        return magic_memo[key]

    out: List[TGD] = []
    sup_names: List[str] = []
    seen: Set[Tuple[str, str]] = set()
    queue: List[Tuple[str, str]] = [(goal_base, goal_adorn)]
    while queue:
        pred, adorn = queue.pop(0)
        if (pred, adorn) in seen:
            continue
        seen.add((pred, adorn))
        if pred == goal_base:
            rules = [(goal_index, goal_rule)]
        else:
            rules = rules_for.get(pred, [])
            # Copy rule: asserted facts of the (now purely extensional)
            # original predicate satisfy the demanded adorned version.
            arity = schema[pred]
            xs = tuple(Variable(f"X@{j}") for j in range(arity))
            bound_xs = tuple(
                x for x, flag in zip(xs, adorn) if flag == "b"
            )
            out.append(
                TGD(
                    (Atom(magic_name(pred, adorn), bound_xs),
                     Atom(pred, xs)),
                    (Atom(adorned_name(pred, adorn), xs),),
                    label="magic/edb",
                )
            )
        for rule_index, tgd in rules:
            head = tgd.head[0]
            bound_head_args = tuple(
                t for t, flag in zip(head.args, adorn) if flag == "b"
            )
            guard = Atom(magic_name(pred, adorn), bound_head_args)
            bound_vars = {
                t for t in bound_head_args if isinstance(t, Variable)
            }
            body = list(tgd.body)
            last = len(body) - 1
            for i, batom in enumerate(body):
                if batom.predicate in idb:
                    beta = "".join(
                        "b"
                        if isinstance(t, Constant) or t in bound_vars
                        else "f"
                        for t in batom.args
                    )
                    queue.append((batom.predicate, beta))
                    demanded = tuple(
                        t for t, flag in zip(batom.args, beta)
                        if flag == "b"
                    )
                    out.append(
                        TGD(
                            (guard,),
                            (Atom(magic_name(batom.predicate, beta),
                                  demanded),),
                            label="magic/demand",
                        )
                    )
                    used = Atom(
                        adorned_name(batom.predicate, beta), batom.args
                    )
                else:
                    used = batom
                if i < last:
                    available = bound_vars | batom.variables()
                    needed = head.variables()
                    for later in body[i + 1:]:
                        needed |= later.variables()
                    sup_vars = tuple(
                        sorted(available & needed, key=lambda v: v.name)
                    )
                    sup_pred = unique(f"sup@{rule_index}@{i}@{adorn}")
                    sup_names.append(sup_pred)
                    sup_atom = Atom(sup_pred, sup_vars)
                    out.append(
                        TGD((guard, used), (sup_atom,), label="magic/sup")
                    )
                    guard = sup_atom
                    bound_vars = set(sup_vars)
                else:
                    out.append(
                        TGD(
                            (guard, used),
                            (Atom(adorned_name(pred, adorn), head.args),),
                            label="magic/rule",
                        )
                    )
    base_name = program.name or "program"
    return AdornedProgram(
        pattern=binding_pattern(query),
        program=Program(out, name=f"{base_name}+magic"),
        goal_predicate=adorned_name(goal_base, goal_adorn),
        magic_goal=magic_name(goal_base, goal_adorn),
        placeholders=tuple(placeholders),
        output=output,
        adorned_predicates=tuple(
            f"{p}@{a}" for p, a in sorted(seen)
        ),
        magic_predicates=frozenset(magic_memo.values()),
        supplementary_predicates=tuple(sup_names),
        restricts=(
            any(
                pred != goal_base and "b" in adorn
                for pred, adorn in seen
            )
            and not any(
                pred != goal_base and "b" not in adorn
                for pred, adorn in seen
            )
        ),
    )


def magic_rewrite(
    program: Program, query: ConjunctiveQuery
) -> MagicRewriting:
    """Adorn *program* for *query* and instantiate the seeds in one step.

    Sessions prefer :func:`adorn_program` + a per-binding-pattern cache
    (:meth:`repro.api.Session.plan` wires that up); this is the
    uncached convenience used by the planner when no session is
    involved.
    """
    return adorn_program(program, query).instantiate(query)
