"""Lowering stratified Datalog rules to batch join plans.

One rule is compiled into one :class:`RuleKernel`: a fixed slot layout
for its variables, a head template, a template per negated literal,
and — per body position — a :class:`PinPlan` that drives the
semi-naive round with that position pinned to the delta.  The lowering happens **once per evaluation**;
the runtime (:mod:`repro.kernels.runtime`) then executes each plan as
a handful of batch operations over interned id rows instead of
per-tuple :class:`~repro.core.substitution.Substitution` churn.

Exact-once delta semantics
--------------------------

The interpreter (:func:`repro.core.match.walk`, the tuple compiler)
reports a body match at pin *i* iff position *i* is the **first** body
position whose image lies in the delta.  The compiled plans reproduce
that count exactly without materializing images: with position *i*
pinned, every body atom at a position ``j < i`` joins against **old**
rows only (rows not in the current delta) and every ``j > i`` joins
against the full relation.  A match whose first delta position is *i*
then surfaces under exactly one pin — pin *i* — so ``considered`` and
the staged facts agree with the interpreter row for row.

Join order inside one pin plan is the tuple compiler's
(:func:`~repro.core.match.selective_order`: the pinned atom, then the
most bound positions first), so the two compilers always join in one
order; the old/full discipline is attached per *body position*, so
reordering never changes the counted set.

A pin with no join step and no negated literal to test needs no binding
at all: its plan carries ``project``, the head laid out over the pinned
row's positions, and the runtime maps each stored row that passes the
pin's constant and repeat checks straight to its head row — the row
itself when the head lists the body's variables in order (``t(X,Y) :-
e(X,Y)``: the head relation shares ``e``'s row tuples).  A pin with one
keyed step and no negated literal needs none either: the runtime lays
its head out over the pinned and matched rows from these same plans
(:meth:`~repro.kernels.runtime.KernelEvaluator._join`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.match import selective_order
from ..core.program import Program
from ..core.terms import Term, Variable
from ..core.tgd import TGD

__all__ = [
    "JoinStep",
    "PinPlan",
    "RuleKernel",
    "KernelProgram",
    "compile_rule",
    "compile_kernels",
]

#: A key source: a binding slot index, or a constant term (resolved to
#: its interned id at run time).
SLOT = "s"
CONST = "c"
#: A projection source: a 0-based position of the pinned row.
ROW = "r"


@dataclass(frozen=True)
class JoinStep:
    """One hash probe, membership test or scan of a body atom against
    the store's relation parts.

    ``key`` pairs each keyed 0-based position with its value source —
    ``(SLOT, slot)`` for an already-bound variable, ``(CONST, term)``
    for a rule constant.  ``repeats`` are within-atom equalities whose
    first occurrence is free at this step; ``binds`` assign free
    positions to slots.  ``old_only`` excludes current-delta rows —
    the first-pin discipline described in the module docstring.
    """

    predicate: str
    arity: int
    old_only: bool
    key: Tuple[Tuple[int, Tuple[str, object]], ...]
    repeats: Tuple[Tuple[int, int], ...]
    binds: Tuple[Tuple[int, int], ...]

    @property
    def member(self) -> bool:
        """True iff the key covers every position: the step binds
        nothing and runs as a membership test on the part's dedup map
        (``row_pos``), building no hash index."""
        return len(self.key) == self.arity


@dataclass(frozen=True)
class PinPlan:
    """The batch plan for one rule with one body position pinned.

    The pinned atom is filtered/projected straight off the delta rows
    (``consts``/``repeats`` checks, ``binds`` projections), then
    ``steps`` extend the binding frontier one batch at a time.  A pin
    with no step in a rule with no negated literal has ``project`` —
    per head position ``(ROW, position)`` or ``(CONST, term)`` — and
    its filtered rows map straight to head rows, bound to no slot.
    """

    pin_index: int
    predicate: str
    arity: int
    consts: Tuple[Tuple[int, Term], ...]
    repeats: Tuple[Tuple[int, int], ...]
    binds: Tuple[Tuple[int, int], ...]
    steps: Tuple[JoinStep, ...]
    project: Optional[Tuple[Tuple[str, object], ...]] = None

    @property
    def keeps_rows(self) -> bool:
        """True iff ``project`` is the pinned row itself, in order."""
        return self.project == tuple(
            (ROW, position) for position in range(self.arity)
        )


@dataclass(frozen=True)
class RuleKernel:
    """One rule lowered: slot layout, head template, per-pin plans."""

    rule: TGD
    num_slots: int
    head_predicate: str
    head_arity: int
    #: Per head position: ``(SLOT, slot)`` or ``(CONST, term)``.
    head: Tuple[Tuple[str, object], ...]
    pins: Tuple[PinPlan, ...]
    #: Per negated literal: ``(predicate, arity, template)``, the
    #: template laid out like ``head`` — a membership test on the
    #: projected id row (stratified negation: the relation is complete).
    negated: Tuple[Tuple[str, int, Tuple[Tuple[str, object], ...]], ...] = ()


@dataclass(frozen=True)
class KernelProgram:
    """Every rule of one program, lowered in program order."""

    program: Program
    kernels: Tuple[RuleKernel, ...]

    @property
    def rules(self) -> int:
        return len(self.kernels)

    def describe(self) -> str:
        """A compact, stable rendering (observability for tests)."""
        lines = [f"kernel program: {self.rules} rule(s)"]
        for kernel in self.kernels:
            lines.append(
                f"  {kernel.rule}: {kernel.num_slots} slot(s), "
                f"{len(kernel.pins)} pin(s)"
            )
            for pin in kernel.pins:
                ops = " -> ".join(
                    f"{_op_name(step)}[{step.predicate}/{step.arity}"
                    f"{'|old' if step.old_only else ''}]"
                    for step in pin.steps
                ) or "project"
                lines.append(
                    f"    pin {pin.pin_index} ({pin.predicate}/"
                    f"{pin.arity}): {ops}"
                )
        return "\n".join(lines)


def _op_name(step: JoinStep) -> str:
    if step.member:
        return "member"
    return "probe" if step.key else "scan"


def _atom_layout(
    atom, slots: dict, bound: set
) -> Tuple[
    Tuple[Tuple[int, Term], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, Tuple[str, object]], ...],
]:
    """Split one atom's positions into consts / repeats / binds / key.

    *bound* is the set of slots bound before this atom runs; *slots*
    maps variables to slot indices (extended here on first occurrence).
    Key entries cover every position whose value is known up front —
    constants and already-bound variables; ``repeats`` cover second
    occurrences of variables first bound within this very atom.
    """
    consts: List[Tuple[int, Term]] = []
    repeats: List[Tuple[int, int]] = []
    binds: List[Tuple[int, int]] = []
    key: List[Tuple[int, Tuple[str, object]]] = []
    first_here: dict = {}
    for position, term in enumerate(atom.args):
        if not isinstance(term, Variable):
            consts.append((position, term))
            key.append((position, (CONST, term)))
            continue
        slot = slots.get(term)
        if slot is not None and slot in bound:
            key.append((position, (SLOT, slot)))
            continue
        earlier = first_here.get(term)
        if earlier is not None:
            repeats.append((position, earlier))
            continue
        if slot is None:
            slot = slots[term] = len(slots)
        first_here[term] = position
        binds.append((position, slot))
    return tuple(consts), tuple(repeats), tuple(binds), tuple(key)


def _compile_pin(rule: TGD, pin_index: int, slots: dict) -> PinPlan:
    body = rule.body
    pinned = body[pin_index]
    bound: set = set()
    consts, repeats, binds, _ = _atom_layout(pinned, slots, bound)
    bound.update(slot for _, slot in binds)
    steps: List[JoinStep] = []
    for at in selective_order(body, pin_index)[1:]:
        atom = body[at]
        _, a_repeats, a_binds, a_key = _atom_layout(atom, slots, bound)
        steps.append(
            JoinStep(
                predicate=atom.predicate,
                arity=atom.arity,
                old_only=at < pin_index,
                key=a_key,  # constants are folded into the key
                repeats=a_repeats,
                binds=a_binds,
            )
        )
        bound.update(slot for _, slot in a_binds)
    project = None
    if not steps and not rule.negated:
        project = tuple(
            (ROW, pinned.args.index(term)) if isinstance(term, Variable)
            else (CONST, term)
            for term in rule.head[0].args
        )
    return PinPlan(
        pin_index=pin_index,
        predicate=pinned.predicate,
        arity=pinned.arity,
        consts=consts,
        repeats=repeats,
        binds=binds,
        steps=tuple(steps),
        project=project,
    )


def _template(atom, slots: dict, rule: TGD) -> Tuple[Tuple[str, object], ...]:
    """Per position of *atom*: ``(SLOT, slot)`` or ``(CONST, term)``."""
    cells: List[Tuple[str, object]] = []
    for term in atom.args:
        if not isinstance(term, Variable):
            cells.append((CONST, term))
        elif term in slots:
            cells.append((SLOT, slots[term]))
        else:  # pragma: no cover — is_full() and lint's E101 exclude it
            raise ValueError(
                f"variable {term} of {atom} in {rule} is not bound by "
                "the body"
            )
    return tuple(cells)


def compile_rule(rule: TGD) -> RuleKernel:
    """Lower one full single-head rule to its batch plans."""
    if not rule.is_full() or not rule.is_single_head():
        raise ValueError(
            f"kernel compilation needs full single-head rules, got {rule}"
        )
    pins: List[PinPlan] = []
    slots: dict = {}
    for pin_index in range(len(rule.body)):
        # Each pin re-derives its own slot layout extension order, but
        # slots are shared across pins so the head template is stable.
        pins.append(_compile_pin(rule, pin_index, slots))
    head_atom = rule.head[0]
    return RuleKernel(
        rule=rule,
        num_slots=len(slots),
        head_predicate=head_atom.predicate,
        head_arity=head_atom.arity,
        head=_template(head_atom, slots, rule),
        pins=tuple(pins),
        negated=tuple(
            (atom.predicate, atom.arity, _template(atom, slots, rule))
            for atom in rule.negated
        ),
    )


def compile_kernels(program: Program) -> KernelProgram:
    """Lower every rule of *program*, preserving program order.

    Rule order only affects the order staged facts are discovered in —
    never the staged set or the ``considered`` count, which the
    round-boundary merge makes order-independent (the same guarantee
    the interpreter documents in ``delta_rounds``).
    """
    return KernelProgram(
        program=program,
        kernels=tuple(compile_rule(rule) for rule in program),
    )
