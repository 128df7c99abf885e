"""The registered diagnostic passes.

Each pass is a generator over a :class:`~repro.lint.context.LintContext`
yielding :class:`~repro.lint.diagnostics.Diagnostic` records.  Codes are
stable API: scripts filter on them (``--select``/``--ignore``), tests
pin them, and ``docs/LINT.md`` catalogues them — never renumber.

Two tiers (the code's hundreds digit):

* ``x1xx`` **correctness** — the program means something other than what
  was written: unsafe negation (E101), arity conflicts (E102), negation
  through recursion (E103), a blurred EDB/IDB split (W104), mixed
  constant kinds in one position (W105), probable typos (I106/I107),
  duplicated rules (I108);
* ``x2xx`` **performance / fragment** — the program is outside the
  paper's space-efficient fragments or defeats an optimization:
  non-warded (W201) and non-PWL (W202) rules with the offending
  variables named, cartesian-product bodies (W203), demand-opaque rules
  that defeat magic rewriting (W204), predicates unreachable from the
  query (W205), dead derived predicates (I206), and programs outside
  the maintainable fragment (I207).

Severity is the code's first letter: ``E`` error, ``W`` warning, ``I``
info.  ``E001 syntax-error`` (a program that does not parse) is issued
by :func:`repro.lint.lint_source`, not by a pass — a parse failure
preempts every pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.atoms import Atom
from ..core.spans import Span
from ..core.terms import Constant, Variable
from ..core.tgd import TGD
from .context import LintContext, _constant_kind
from .diagnostics import Diagnostic, severity_of_code

__all__ = ["PASSES", "LintPass", "lint_pass", "registered_codes"]


@dataclass(frozen=True)
class LintPass:
    """One registered pass: identity plus the check function."""

    code: str
    name: str
    severity: str
    tier: str
    needs_query: bool
    check: Callable[[LintContext], Iterable[Diagnostic]]
    summary: str

    def applicable(self, ctx: LintContext) -> bool:
        return not self.needs_query or ctx.query is not None


#: The registry, in code order — the order passes run and report.
PASSES: List[LintPass] = []


def lint_pass(code: str, name: str, tier: str, *, needs_query: bool = False) -> Callable:
    """Register a pass; severity derives from the code's first letter."""

    def register(check: Callable[[LintContext], Iterable[Diagnostic]]):
        summary = (check.__doc__ or "").strip().splitlines()[0]
        PASSES.append(
            LintPass(
                code=code,
                name=name,
                severity=severity_of_code(code),
                tier=tier,
                needs_query=needs_query,
                check=check,
                summary=summary,
            )
        )
        PASSES.sort(key=lambda p: p.code)
        return check

    return register


def registered_codes() -> Tuple[Tuple[str, str, str, str], ...]:
    """(code, name, severity, summary) for every registered pass —
    the CLI help text and the docs catalogue read this."""
    return tuple((p.code, p.name, p.severity, p.summary) for p in PASSES)


# -- span helpers ----------------------------------------------------------


def _whole(atom: Atom) -> Optional[Span]:
    return atom.span.whole if atom.span is not None else None


def _rule_span(tgd: TGD) -> Optional[Span]:
    return tgd.span


def _head_span(tgd: TGD) -> Optional[Span]:
    return _whole(tgd.head[0]) or tgd.span


def _variable_span(tgd: TGD, variable: Variable) -> Optional[Span]:
    """The span of *variable*'s first occurrence in the rule."""
    for atom in tgd.head + tgd.body + tgd.negated:
        if atom.span is None:
            continue
        for index, term in enumerate(atom.args):
            if term == variable:
                return atom.span.arg(index)
    return tgd.span


def _rules(ctx: LintContext) -> Iterator[Tuple[int, TGD]]:
    return enumerate(ctx.program)


def _names(variables) -> str:
    return ", ".join(sorted(v.name for v in variables))


# -- correctness tier ------------------------------------------------------


@lint_pass("E101", "unsafe-rule", "correctness")
def check_unsafe_rules(ctx: LintContext) -> Iterator[Diagnostic]:
    """Negation safety: every variable of a negated literal or of the
    head of a negated rule must be bound by a positive body atom."""
    for index, tgd in _rules(ctx):
        if not tgd.negated:
            continue
        bound = tgd.body_variables()
        for atom in tgd.negated:
            for variable in sorted(atom.variables() - bound, key=lambda v: v.name):
                yield Diagnostic(
                    code="E101",
                    name="unsafe-rule",
                    severity="error",
                    message=(
                        f"variable {variable.name} of negated literal "
                        f"'not {atom}' is not bound by any positive body "
                        "atom — negation can only filter values the "
                        "positive body produced"
                    ),
                    span=_variable_span(tgd, variable),
                    rule_index=index,
                    predicate=atom.predicate,
                )
        for variable in sorted(tgd.head_variables() - bound, key=lambda v: v.name):
            yield Diagnostic(
                code="E101",
                name="unsafe-rule",
                severity="error",
                message=(
                    f"head variable {variable.name} of a rule with "
                    "negation is not bound by any positive body atom — "
                    "existential invention under negation is unsafe"
                ),
                span=_variable_span(tgd, variable),
                rule_index=index,
                predicate=tgd.head[0].predicate,
            )


@lint_pass("E102", "arity-mismatch", "correctness")
def check_arity_conflicts(ctx: LintContext) -> Iterator[Diagnostic]:
    """Every use of a predicate — rules and facts — must agree on arity."""
    for predicate in sorted(ctx.arity_uses):
        use = ctx.arity_uses[predicate]
        if len(use.counts) == 1:
            continue
        baseline = use.first_order[0]
        for arity in use.first_order[1:]:
            yield Diagnostic(
                code="E102",
                name="arity-mismatch",
                severity="error",
                message=f"predicate {predicate!r} used with arities {baseline} and {arity}",
                span=use.first_span[arity],
                predicate=predicate,
            )


@lint_pass("E103", "negation-in-recursion", "correctness")
def check_negation_in_recursion(ctx: LintContext) -> Iterator[Diagnostic]:
    """A negated literal inside its own recursive component makes the
    program non-stratifiable: no layering evaluates the negation after
    its target is complete."""
    graph = ctx.graph
    for index, tgd in _rules(ctx):
        for atom in tgd.negated:
            if any(
                graph.mutually_recursive(atom.predicate, head) for head in tgd.head_predicates()
            ):
                yield Diagnostic(
                    code="E103",
                    name="negation-in-recursion",
                    severity="error",
                    message=(
                        f"negated literal 'not {atom}' depends on the "
                        "rule's own recursive component — the program "
                        "is not stratifiable (negation through "
                        "recursion)"
                    ),
                    span=_whole(atom) or tgd.span,
                    rule_index=index,
                    predicate=atom.predicate,
                )


@lint_pass("W104", "edb-predicate-in-head", "correctness")
def check_edb_in_head(ctx: LintContext) -> Iterator[Diagnostic]:
    """A predicate given by explicit facts should not also be derived:
    it blurs the extensional/intensional split (Section 6) that demand
    rewriting and incremental maintenance key on."""
    if ctx.facts is None:
        return
    fact_predicates = ctx.facts.predicates()
    reported: set = set()
    for index, tgd in _rules(ctx):
        for atom in tgd.head:
            predicate = atom.predicate
            if predicate not in fact_predicates or predicate in reported:
                continue
            reported.add(predicate)
            yield Diagnostic(
                code="W104",
                name="edb-predicate-in-head",
                severity="warning",
                message=(
                    f"predicate {predicate!r} has explicit facts and is "
                    "also derived by this rule head — keep extensional "
                    "and derived predicates separate (e.g. copy the "
                    "facts through a base rule)"
                ),
                span=_whole(atom) or tgd.span,
                rule_index=index,
                predicate=predicate,
            )


@lint_pass("W105", "type-conflict", "correctness")
def check_type_conflicts(ctx: LintContext) -> Iterator[Diagnostic]:
    """One position should not hold both integer and symbol constants —
    the join semantics are well-defined but almost always a typo."""
    kinds: Dict = {}
    if ctx.facts is not None:
        for (position, kind), span in ctx.facts.position_kinds.items():
            kinds.setdefault(position, {}).setdefault(kind, span)
    for tgd in ctx.program:
        for atom in tgd.body + tgd.head + tgd.negated:
            for index, (position, term) in enumerate(atom.positions()):
                if not isinstance(term, Constant):
                    continue
                span = atom.span.arg(index) if atom.span is not None else None
                kinds.setdefault(position, {}).setdefault(_constant_kind(term), span)
    for position in sorted(kinds, key=lambda p: (p.predicate, p.index)):
        seen = kinds[position]
        if len(seen) < 2:
            continue
        span = seen.get("int") or seen.get("sym")
        yield Diagnostic(
            code="W105",
            name="type-conflict",
            severity="warning",
            message=(
                f"position {position} holds both integer and symbol "
                "constants across the program/facts — values of "
                "different kinds never join"
            ),
            span=span,
            predicate=position.predicate,
        )


@lint_pass("I106", "singleton-variable", "correctness")
def check_singleton_variables(ctx: LintContext) -> Iterator[Diagnostic]:
    """A named variable occurring exactly once in a rule is often a
    typo; write ``_`` for intentional don't-cares."""
    for index, tgd in _rules(ctx):
        occurrences: Dict[Variable, int] = {}
        for atom in tgd.body + tgd.head + tgd.negated:
            for term in atom.args:
                if isinstance(term, Variable):
                    occurrences[term] = occurrences.get(term, 0) + 1
        for variable in sorted(occurrences, key=lambda v: v.name):
            if occurrences[variable] != 1:
                continue
            if variable.name.startswith("_"):
                continue  # parser-generated don't-cares
            if variable in tgd.existential_variables():
                continue  # head-only variables are I107's finding
            yield Diagnostic(
                code="I106",
                name="singleton-variable",
                severity="info",
                message=(
                    f"variable {variable.name} occurs only once in this "
                    "rule — a projection is fine, but use '_' if the "
                    "value is intentionally unused"
                ),
                span=_variable_span(tgd, variable),
                rule_index=index,
            )


@lint_pass("I107", "existential-head", "correctness")
def check_existential_heads(ctx: LintContext) -> Iterator[Diagnostic]:
    """Head variables unbound in the body are read as existentially
    quantified (Datalog∃) — intended in ontological rules, a silent
    typo in plain Datalog."""
    for index, tgd in _rules(ctx):
        if tgd.negated:
            continue  # under negation this is E101, not an existential
        existentials = tgd.existential_variables()
        if not existentials:
            continue
        first = min(existentials, key=lambda v: v.name)
        yield Diagnostic(
            code="I107",
            name="existential-head",
            severity="info",
            message=(
                f"head variable(s) {_names(existentials)} are not bound "
                "in the body and are read as existentially quantified — "
                "bind them in the body if a typo"
            ),
            span=_variable_span(tgd, first),
            rule_index=index,
            predicate=tgd.head[0].predicate,
        )


@lint_pass("I108", "duplicate-rule", "correctness")
def check_duplicate_rules(ctx: LintContext) -> Iterator[Diagnostic]:
    """Byte-identical rules add evaluation work but no derivations."""
    seen: Dict[TGD, int] = {}
    for index, tgd in _rules(ctx):
        first = seen.setdefault(tgd, index)
        if first == index:
            continue
        yield Diagnostic(
            code="I108",
            name="duplicate-rule",
            severity="info",
            message=f"rule #{index + 1} duplicates rule #{first + 1} ({tgd}) — remove one",
            span=_rule_span(tgd),
            rule_index=index,
        )


# -- performance / fragment tier ------------------------------------------


@lint_pass("W201", "non-warded-rule", "fragment")
def check_wardedness(ctx: LintContext) -> Iterator[Diagnostic]:
    """Rules violating Definition 3.1, with the dangerous variables
    named: outside WARD only the chase remains, with no termination
    guarantee (Theorem 5.1)."""
    report = ctx.ward_report
    if report is None:
        return
    for info in report.violations():
        try:
            index = ctx.program.tgds.index(info.tgd)
        except ValueError:
            index = None
        dangerous = _names(info.roles.dangerous)
        yield Diagnostic(
            code="W201",
            name="non-warded-rule",
            severity="warning",
            message=(
                "rule is not warded: dangerous variable(s) "
                f"{{{dangerous}}} have no ward — {info.failure}; outside "
                "WARD the planner falls back to the chase, which may "
                "not terminate"
            ),
            span=_rule_span(info.tgd),
            rule_index=index,
            predicate=info.tgd.head[0].predicate,
        )


@lint_pass("W202", "non-pwl-rule", "fragment")
def check_piecewise_linearity(ctx: LintContext) -> Iterator[Diagnostic]:
    """Rules with two or more mutually recursive body atoms break
    piece-wise linearity (Definition 4.1) and forfeit the
    space-efficient PWL engine."""
    report = ctx.pwl_report
    if report is None:
        return
    for index, (tgd, recursive) in enumerate(report.per_tgd):
        if len(recursive) <= 1:
            continue
        atoms = ", ".join(str(atom) for atom in recursive)
        yield Diagnostic(
            code="W202",
            name="non-pwl-rule",
            severity="warning",
            message=(
                f"{len(recursive)} mutually recursive body atoms "
                f"({atoms}) — piece-wise linearity admits at most one; "
                "consider a linear reformulation (seed + step rules)"
            ),
            span=_whole(recursive[0]) or _rule_span(tgd),
            rule_index=index,
            predicate=tgd.head[0].predicate,
        )


@lint_pass("W203", "cartesian-product", "fragment")
def check_cartesian_products(ctx: LintContext) -> Iterator[Diagnostic]:
    """A body whose atoms split into variable-disjoint groups joins as
    a cross product — every pair of group matches is enumerated."""
    for index, tgd in _rules(ctx):
        groups: List[Tuple[set, List[Atom]]] = []
        for atom in tgd.body:
            variables = atom.variables()
            if not variables:
                continue  # ground atoms are filters, not join inputs
            merged = [g for g in groups if g[0] & variables]
            for g in merged:
                groups.remove(g)
            union = set(variables)
            members = [atom]
            for g in merged:
                union |= g[0]
                members = g[1] + members
            groups.append((union, members))
        if len(groups) < 2:
            continue
        rendered = " × ".join(
            "{" + ", ".join(str(a) for a in members) + "}" for _, members in groups
        )
        yield Diagnostic(
            code="W203",
            name="cartesian-product",
            severity="warning",
            message=(
                f"body joins {len(groups)} variable-disjoint atom "
                f"groups ({rendered}) — a cartesian product; connect "
                "them through shared variables or split the rule"
            ),
            span=_rule_span(tgd),
            rule_index=index,
        )


@lint_pass("W204", "demand-opaque-rule", "fragment")
def check_demand_opacity(ctx: LintContext) -> Iterator[Diagnostic]:
    """An intensional body atom sharing no variable with the head
    cannot receive query bindings: magic-set rewriting will demand its
    entire fixpoint regardless of the binding pattern."""
    idb = ctx.idb_predicates
    for index, tgd in _rules(ctx):
        head_variables = tgd.head_variables()
        for atom in tgd.body:
            if atom.predicate not in idb:
                continue
            variables = atom.variables()
            if not variables or variables & head_variables:
                continue
            yield Diagnostic(
                code="W204",
                name="demand-opaque-rule",
                severity="warning",
                message=(
                    f"intensional body atom {atom} shares no variable "
                    "with the head — bound query arguments cannot "
                    "propagate into it, so demand (magic-set) rewriting "
                    "re-derives its whole fixpoint"
                ),
                span=_whole(atom) or _rule_span(tgd),
                rule_index=index,
                predicate=atom.predicate,
            )


@lint_pass("W205", "unreachable-predicate", "fragment", needs_query=True)
def check_unreachable_from_query(ctx: LintContext) -> Iterator[Diagnostic]:
    """Rules whose head cannot feed the query are never exercised by
    it — dead weight for this workload (query-scoped pass)."""
    query = ctx.query
    assert query is not None
    graph: Dict[str, set] = {}
    for tgd in ctx.program:
        for head in tgd.head_predicates():
            graph.setdefault(head, set()).update(tgd.body_predicates())
            graph.setdefault(head, set()).update(tgd.negated_predicates())
    needed: set = set()
    frontier = [atom.predicate for atom in query.atoms]
    while frontier:
        predicate = frontier.pop()
        if predicate in needed:
            continue
        needed.add(predicate)
        frontier.extend(graph.get(predicate, ()))
    reported: set = set()
    for index, tgd in _rules(ctx):
        for atom in tgd.head:
            predicate = atom.predicate
            if predicate in needed or predicate in reported:
                continue
            reported.add(predicate)
            yield Diagnostic(
                code="W205",
                name="unreachable-predicate",
                severity="warning",
                message=(
                    f"predicate {predicate!r} cannot feed the query "
                    f"{query} — its rules run (and materialize facts) "
                    "without contributing an answer"
                ),
                span=_whole(atom) or tgd.span,
                rule_index=index,
                predicate=predicate,
            )


@lint_pass("I206", "dead-predicate", "fragment")
def check_dead_predicates(ctx: LintContext) -> Iterator[Diagnostic]:
    """Derived predicates never read by any rule body (or the query,
    when given) are outputs at best — worth a look when unexpected."""
    read: set = set()
    for tgd in ctx.program:
        read.update(tgd.body_predicates())
        read.update(tgd.negated_predicates())
    if ctx.query is not None:
        read.update(atom.predicate for atom in ctx.query.atoms)
        reading = "any rule body or the query"
    else:
        reading = "any rule body"
    reported: set = set()
    for index, tgd in _rules(ctx):
        for atom in tgd.head:
            predicate = atom.predicate
            if predicate in read or predicate in reported:
                continue
            reported.add(predicate)
            yield Diagnostic(
                code="I206",
                name="dead-predicate",
                severity="info",
                message=(
                    f"derived predicate {predicate!r} is never read by "
                    f"{reading} — fine as an output, dead weight "
                    "otherwise"
                ),
                span=_whole(atom) or tgd.span,
                rule_index=index,
                predicate=predicate,
            )


@lint_pass("I207", "unmaintainable-program", "fragment")
def check_maintainability(ctx: LintContext) -> Iterator[Diagnostic]:
    """Existential rules put the program outside the maintainable
    fragment: Session.apply recomputes cached fixpoints on EDB change
    instead of upgrading them incrementally."""
    for index, tgd in _rules(ctx):
        if tgd.is_full():
            continue
        yield Diagnostic(
            code="I207",
            name="unmaintainable-program",
            severity="info",
            message=(
                "existential rule invents labeled nulls whose "
                "derivations the store does not record — cached "
                "fixpoints of this program are recomputed (not "
                "incrementally maintained) on EDB change"
            ),
            span=_rule_span(tgd),
            rule_index=index,
            predicate=tgd.head[0].predicate,
        )
        return  # one finding describes the whole program
