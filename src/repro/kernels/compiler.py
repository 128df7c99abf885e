"""Lowering stratified Datalog rules to batch join plans.

One rule is compiled into one :class:`RuleKernel`: a fixed slot layout
for its variables, a head template, and — per body position — a
:class:`PinPlan` that drives the semi-naive round with that position
pinned to the delta.  The lowering happens **once per evaluation**;
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

Join order inside one pin plan is chosen greedily (most bound
positions first, ties by body order); the old/full discipline is
attached per *body position*, so reordering never changes the counted
set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

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


@dataclass(frozen=True)
class JoinStep:
    """One hash-probe (or scan) of a body atom against the store's
    relation parts.

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


@dataclass(frozen=True)
class PinPlan:
    """The batch plan for one rule with one body position pinned.

    The pinned atom is filtered/projected straight off the delta rows
    (``consts``/``repeats`` checks, ``binds`` projections), then
    ``steps`` extend the binding frontier one batch at a time.
    """

    pin_index: int
    predicate: str
    arity: int
    consts: Tuple[Tuple[int, Term], ...]
    repeats: Tuple[Tuple[int, int], ...]
    binds: Tuple[Tuple[int, int], ...]
    steps: Tuple[JoinStep, ...]


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
                    f"{'probe' if step.key else 'scan'}"
                    f"[{step.predicate}/{step.arity}"
                    f"{'|old' if step.old_only else ''}]"
                    for step in pin.steps
                ) or "project"
                lines.append(
                    f"    pin {pin.pin_index} ({pin.predicate}/"
                    f"{pin.arity}): {ops}"
                )
        return "\n".join(lines)


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
    body = list(rule.body)
    pinned = body[pin_index]
    bound: set = set()
    consts, repeats, binds, _ = _atom_layout(pinned, slots, bound)
    bound.update(slot for _, slot in binds)
    remaining = [j for j in range(len(body)) if j != pin_index]
    steps: List[JoinStep] = []
    while remaining:
        # Greedy: the atom with the most determined positions next
        # (constants + bound variables), ties by body order.
        def score(j: int) -> int:
            atom = body[j]
            n = 0
            for term in atom.args:
                if not isinstance(term, Variable):
                    n += 1
                elif slots.get(term) in bound:
                    n += 1
            return n

        best = max(remaining, key=lambda j: (score(j), -j))
        remaining.remove(best)
        atom = body[best]
        a_consts, a_repeats, a_binds, a_key = _atom_layout(
            atom, slots, bound
        )
        del a_consts  # folded into the key
        steps.append(
            JoinStep(
                predicate=atom.predicate,
                arity=atom.arity,
                old_only=best < pin_index,
                key=a_key,
                repeats=a_repeats,
                binds=a_binds,
            )
        )
        bound.update(slot for _, slot in a_binds)
    return PinPlan(
        pin_index=pin_index,
        predicate=pinned.predicate,
        arity=pinned.arity,
        consts=consts,
        repeats=repeats,
        binds=binds,
        steps=tuple(steps),
    )


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
    head: List[Tuple[str, object]] = []
    for term in head_atom.args:
        if isinstance(term, Variable):
            slot = slots.get(term)
            if slot is None:  # pragma: no cover — is_full() excludes it
                raise ValueError(
                    f"head variable {term} of {rule} is not bound by "
                    "the body"
                )
            head.append((SLOT, slot))
        else:
            head.append((CONST, term))
    return RuleKernel(
        rule=rule,
        num_slots=len(slots),
        head_predicate=head_atom.predicate,
        head_arity=head_atom.arity,
        head=tuple(head),
        pins=tuple(pins),
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
