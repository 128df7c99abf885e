"""Lowering stratified Datalog rules to batch join plans over rows.

One rule is compiled into one :class:`RuleKernel`: per body position, a
:class:`PinPlan` that drives the semi-naive round with that position
pinned to the delta.  The lowering happens **once per evaluation**; the
runtime (:mod:`repro.kernels.runtime`) then executes each plan as a
handful of batch operations over interned id rows instead of per-tuple
:class:`~repro.core.substitution.Substitution` churn.

A match is a row
----------------

A pin's match is the pinned atom's stored row with each join step's
matched row appended to it, in step order — no binding list.  Every
template of a plan is laid out once, over positions of that *match
row*: a variable is read at its first occurrence there, a constant is
carried as its term (resolved to an interned id at run time).  So a
step's key, a negated literal and the head are all a tuple of cells,
``(ROW, position)`` or ``(CONST, term)``, and a step's ``repeats`` are
within-atom equalities checked on the matched row itself.  A head that
*is* the pinned row (with at most one step) or the last matched row, as
stored, is marked so (:attr:`PinPlan.shares`): the runtime hands that
stored tuple on, and the head relation shares the body relation's
tuples.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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

#: A cell's source: a 0-based position of the match row, or a constant
#: term (resolved to its interned id at run time).
ROW = "r"
CONST = "c"
Cell = Tuple[str, object]

#: :attr:`PinPlan.shares`: the head is the pinned row / the last
#: matched row, as stored.
PINNED = "pinned row"
MATCHED = "matched row"


@dataclass(frozen=True)
class JoinStep:
    """One hash probe, membership test or scan of a body atom against
    the store's relation parts.

    ``key`` pairs each keyed 0-based position of the atom with its cell
    over the match row so far — a constant, or a variable an earlier
    atom read.  ``repeats`` are within-atom equalities
    ``(position, earlier position)`` whose first occurrence is read
    here.  ``old_only`` excludes current-delta rows — the first-pin
    discipline described in the module docstring.
    """

    predicate: str
    arity: int
    old_only: bool
    key: Tuple[Tuple[int, Cell], ...]
    repeats: Tuple[Tuple[int, int], ...]

    @property
    def member(self) -> bool:
        """True iff the key covers every position: the matched row is
        the key itself, looked up in the part's dedup map
        (``members``), which hands back the stored tuple and builds no
        hash index."""
        return len(self.key) == self.arity


@dataclass(frozen=True)
class PinPlan:
    """The batch plan for one rule with one body position pinned.

    The pinned atom's delta rows are filtered on ``consts`` and
    ``repeats``, then ``steps`` extend each match row one batch at a
    time, ``negated`` drops the matches a negated literal blocks, and
    ``head`` lays each match row out as a head row.
    """

    pin_index: int
    predicate: str
    arity: int
    consts: Tuple[Tuple[int, Term], ...]
    repeats: Tuple[Tuple[int, int], ...]
    steps: Tuple[JoinStep, ...]
    #: Per head position, its cell over the match row.
    head: Tuple[Cell, ...]
    #: Per negated literal: ``(predicate, arity, cells)`` — a
    #: membership test on the id row the cells lay out (stratified
    #: negation: the relation is complete).
    negated: Tuple[Tuple[str, int, Tuple[Cell, ...]], ...] = ()
    #: :data:`PINNED` / :data:`MATCHED` when the head is that stored
    #: row itself, else None.
    shares: Optional[str] = None

    @property
    def keeps_rows(self) -> bool:
        """True iff the pin's head rows are its filtered pinned rows
        themselves: nothing to join or test, and the head is the
        pinned row."""
        return not self.steps and not self.negated and self.shares == PINNED


@dataclass(frozen=True)
class RuleKernel:
    """One rule lowered: its head relation and per-pin plans."""

    rule: TGD
    head_predicate: str
    head_arity: int
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
            lines.append(f"  {kernel.rule}: {len(kernel.pins)} pin(s)")
            for pin in kernel.pins:
                ops = " -> ".join(
                    f"{_op_name(step)}[{step.predicate}/{step.arity}"
                    f"{'|old' if step.old_only else ''}]"
                    for step in pin.steps
                ) or "project"
                head = pin.shares or "(" + ", ".join(
                    f"#{payload}" if kind == ROW else str(payload)
                    for kind, payload in pin.head
                ) + ")"
                lines.append(
                    f"    pin {pin.pin_index} ({pin.predicate}/"
                    f"{pin.arity}): {ops}; head = {head}"
                )
        return "\n".join(lines)


def _op_name(step: JoinStep) -> str:
    if step.member:
        return "member"
    return "probe" if step.key else "scan"


def _atom_cells(
    atom, read: Dict[Variable, int], rule: TGD
) -> Tuple[Cell, ...]:
    """Per position of *atom*: its cell, given where each variable is
    *read* in the match row."""
    cells: List[Cell] = []
    for term in atom.args:
        if not isinstance(term, Variable):
            cells.append((CONST, term))
        elif term in read:
            cells.append((ROW, read[term]))
        else:  # pragma: no cover — is_full() and lint's E101 exclude it
            raise ValueError(
                f"variable {term} of {atom} in {rule} is not bound by "
                "the body"
            )
    return tuple(cells)


def _compile_pin(rule: TGD, pin_index: int) -> PinPlan:
    body = rule.body
    pinned = body[pin_index]
    # variable → its first position in the match row
    read: Dict[Variable, int] = {}
    consts: List[Tuple[int, Term]] = []
    repeats: List[Tuple[int, int]] = []
    for position, term in enumerate(pinned.args):
        if not isinstance(term, Variable):
            consts.append((position, term))
        elif term in read:
            repeats.append((position, read[term]))
        else:
            read[term] = position
    steps: List[JoinStep] = []
    width = pinned.arity
    order = selective_order(body, pin_index)
    for at in order[1:]:
        atom = body[at]
        key: List[Tuple[int, Cell]] = []
        a_repeats: List[Tuple[int, int]] = []
        for position, term in enumerate(atom.args):
            if not isinstance(term, Variable):
                key.append((position, (CONST, term)))
            elif term not in read:
                read[term] = width + position
            elif read[term] < width:
                key.append((position, (ROW, read[term])))
            else:
                a_repeats.append((position, read[term] - width))
        steps.append(JoinStep(
            predicate=atom.predicate,
            arity=atom.arity,
            old_only=at < pin_index,
            key=tuple(key),
            repeats=tuple(a_repeats),
        ))
        width += atom.arity
    head = _atom_cells(rule.head[0], read, rule)
    shares = None
    if len(steps) <= 1 and head == _atom_cells(pinned, read, rule):
        shares = PINNED
    elif steps and head == _atom_cells(body[order[-1]], read, rule):
        shares = MATCHED
    return PinPlan(
        pin_index=pin_index,
        predicate=pinned.predicate,
        arity=pinned.arity,
        consts=tuple(consts),
        repeats=tuple(repeats),
        steps=tuple(steps),
        head=head,
        negated=tuple(
            (atom.predicate, atom.arity, _atom_cells(atom, read, rule))
            for atom in rule.negated
        ),
        shares=shares,
    )


def compile_rule(rule: TGD) -> RuleKernel:
    """Lower one full single-head rule to its batch plans."""
    if not rule.is_full() or not rule.is_single_head():
        raise ValueError(
            f"kernel compilation needs full single-head rules, got {rule}"
        )
    head_atom = rule.head[0]
    return RuleKernel(
        rule=rule,
        head_predicate=head_atom.predicate,
        head_arity=head_atom.arity,
        pins=tuple(
            _compile_pin(rule, pin_index)
            for pin_index in range(len(rule.body))
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
