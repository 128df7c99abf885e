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
(:mod:`repro.core.match`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.match import AtomSet, walk
from ..core.terms import Null, NullFactory
from ..core.tgd import TGD

__all__ = ["Trigger", "triggers_for_new_atom", "all_triggers", "fire"]


@dataclass(frozen=True)
class Trigger:
    """An applicable pair (σ, h), held as σ and the body image
    ``h(body(σ))`` — the atoms of I the body matched, from which the
    compiled rule projects the head (h itself is never built)."""

    tgd_index: int
    tgd: TGD
    image: tuple[Atom, ...]

    @cached_property
    def ground_head(self) -> tuple[Atom, ...]:
        """``h(head(σ))`` of an existential-free σ, instantiated once for
        the restricted check and the firing."""
        return self.tgd.matcher.head_atoms(self.image)

    def key(self) -> tuple[int, tuple[Atom, ...]]:
        """Deduplication key: same rule, same body image ⇒ same trigger."""
        return (self.tgd_index, self.image)


def triggers_for_new_atom(
    tgds: Sequence[TGD], new_atom: Atom, instance: Instance
) -> Iterator[Trigger]:
    """All triggers that use *new_atom* somewhere in their body image,
    each reported once: for the *first* body position that maps to it
    (the compiled delta join of :func:`repro.core.match.walk`)."""
    delta = AtomSet((new_atom,))
    for tgd_index, tgd in enumerate(tgds):
        for form in tgd.matcher.pinned:
            for _, matched in walk(form, instance, delta):
                yield Trigger(
                    tgd_index, tgd, tuple([matched[d] for d in form.depth_of])
                )


def all_triggers(
    tgds: Sequence[TGD], instance: Instance
) -> Iterator[Trigger]:
    """Every applicable trigger over the full instance (the walk of each
    TGD's unpinned form)."""
    for tgd_index, tgd in enumerate(tgds):
        form = tgd.matcher.full
        for _, matched in walk(form, instance):
            yield Trigger(
                tgd_index, tgd, tuple([matched[d] for d in form.depth_of])
            )


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
