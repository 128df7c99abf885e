"""Chase triggers.

A TGD σ is *applicable* w.r.t. an instance I if there is a homomorphism h
with ``h(body(σ)) ⊆ I``; the pair (σ, h) is a *trigger*.  Firing the
trigger extends I with ``h'(head(σ))`` where h' agrees with h on the
frontier and maps each existential variable to a fresh null
(Section 2, "chase step").

Trigger discovery is semi-naive: when an atom is added to the instance,
only homomorphisms whose body image uses that atom need to be considered
(pinning each body atom of each TGD to the new atom in turn).  This is
the standard delta-driven strategy used by chase engines.  Both it and
the initial discovery walk the TGD's compiled forms
(:mod:`repro.core.match`).  A :class:`RuleIndex` files every pinned
form under the predicate of its pinned first step, so a new atom walks
only the forms that can start from it — in TGD order, then form order,
the order a walk of every form would report them in.  An
existential-free trigger carries its ground head, projected from the
walk's row as the trigger is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.match import AtomSet, RuleForm, walk
from ..core.terms import Null, NullFactory
from ..core.tgd import TGD

__all__ = ["RuleIndex", "Trigger", "triggers_for_new_atom", "all_triggers", "fire"]


@dataclass(frozen=True)
class Trigger:
    """An applicable pair (σ, h), held as σ and the body image
    ``h(body(σ))`` — the atoms of I the body matched, from which the
    compiled rule projects the head (h itself is never built) — and,
    for an existential-free σ, the ground head ``h(head(σ))`` the
    restricted check and the firing share (empty otherwise)."""

    tgd_index: int
    tgd: TGD
    image: tuple[Atom, ...]
    ground_head: tuple[Atom, ...] = ()

    def key(self) -> tuple[int, tuple[Atom, ...]]:
        """Deduplication key: same rule, same body image ⇒ same trigger."""
        return (self.tgd_index, self.image)


class RuleIndex(tuple):
    """The TGDs of one chase run, in order, with ``starts``: predicate →
    ``(tgd index, tgd, pinned form)`` for every pinned form whose first
    step is over that predicate, in TGD order and then form order."""

    def __new__(cls, tgds: Sequence[TGD]) -> "RuleIndex":
        rules = super().__new__(cls, tgds)
        starts: Dict[str, List[tuple]] = {}
        for tgd_index, tgd in enumerate(rules):
            for form in tgd.matcher.pinned:
                starts.setdefault(form.steps[0].predicate, []).append(
                    (tgd_index, tgd, form)
                )
        rules.starts = starts
        return rules


def _trigger(tgd_index: int, tgd: TGD, form: RuleForm, row, matched) -> Trigger:
    """The trigger of one walk match (read before the walk's next pull)."""
    image = tuple([matched[d] for d in form.depth_of])
    if tgd.matcher.existential:
        return Trigger(tgd_index, tgd, image)
    return Trigger(tgd_index, tgd, image, tuple([
        Atom(predicate, tuple([row[cell] for cell in cells]))
        for predicate, cells in form.heads
    ]))


def triggers_for_new_atom(
    tgds: Sequence[TGD], new_atom: Atom, instance: Instance
) -> Iterator[Trigger]:
    """All triggers that use *new_atom* somewhere in their body image,
    each reported once: for the *first* body position that maps to it
    (the compiled delta join of :func:`repro.core.match.walk`).  *tgds*
    is best a :class:`RuleIndex` built once per run; any other sequence
    is indexed for this one call."""
    rules = tgds if isinstance(tgds, RuleIndex) else RuleIndex(tgds)
    delta = AtomSet((new_atom,))
    for tgd_index, tgd, form in rules.starts.get(new_atom.predicate, ()):
        for row, matched in walk(form, instance, delta):
            yield _trigger(tgd_index, tgd, form, row, matched)


def all_triggers(
    tgds: Sequence[TGD], instance: Instance
) -> Iterator[Trigger]:
    """Every applicable trigger over the full instance (the walk of each
    TGD's unpinned form)."""
    for tgd_index, tgd in enumerate(tgds):
        form = tgd.matcher.full
        for row, matched in walk(form, instance):
            yield _trigger(tgd_index, tgd, form, row, matched)


def fire(trigger: Trigger, null_factory: NullFactory) -> tuple[Atom, ...]:
    """The head atoms the trigger produces (not yet inserted): the head
    under h' — h on the frontier, a fresh null per existential variable.
    The depth of each fresh null is one more than the deepest null among
    the terms the trigger consumes (constants count as depth 0), which
    gives the chase's "null depth" used by depth-bounded termination
    control.
    """
    compiled = trigger.tgd.matcher
    if not compiled.existential:
        return trigger.ground_head
    depth = 1 + max(
        (t.depth for a in trigger.image for t in a.args if isinstance(t, Null)),
        default=0,
    )
    nulls = tuple(null_factory.fresh(depth) for _ in compiled.existential)
    return compiled.head_atoms(trigger.image, nulls)
