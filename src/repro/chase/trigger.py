"""Chase triggers.

A TGD σ is *applicable* w.r.t. an instance I if there is a homomorphism h
with ``h(body(σ)) ⊆ I``; the pair (σ, h) is a *trigger*.  Firing the
trigger extends I with ``h'(head(σ))`` where h' agrees with h on the
frontier and maps each existential variable to a fresh null
(Section 2, "chase step").

Trigger discovery is semi-naive: when an atom is added to the instance,
only homomorphisms whose body image uses that atom need to be considered
(pinning each body atom of each TGD to the new atom in turn).  This is
the standard delta-driven strategy used by chase engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from ..core.atoms import Atom, match_atom
from ..core.homomorphism import homomorphisms
from ..core.instance import Instance
from ..core.match import AtomSet, walk
from ..core.substitution import Substitution
from ..core.terms import Null, NullFactory
from ..core.tgd import TGD

__all__ = ["Trigger", "triggers_for_new_atom", "all_triggers", "fire"]


@dataclass(frozen=True)
class Trigger:
    """An applicable pair (σ, h), held as σ and the body image
    ``h(body(σ))`` — the atoms of I the body matched — from which h
    (restricted to the body variables) is rebuilt on demand."""

    tgd_index: int
    tgd: TGD
    image: tuple[Atom, ...]

    @cached_property
    def substitution(self) -> Substitution:
        h: dict = {}
        for pattern, stored in zip(self.tgd.body, self.image):
            h.update(match_atom(pattern, stored))
        return Substitution(h)

    @cached_property
    def ground_head(self) -> tuple[Atom, ...]:
        """``h(head(σ))`` of an existential-free σ, instantiated once for
        the restricted check and the firing."""
        return self.tgd.matcher.head_atoms(self.image)

    def extended(self, nulls: Sequence[Null]) -> Substitution:
        """h': h plus the existential variables, by name, sent to *nulls*
        (what :func:`fire` returned)."""
        invented = zip(sorted(self.tgd.existential_variables(), key=str), nulls)
        return Substitution({**self.substitution, **dict(invented)})

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
    """Every applicable trigger over the full instance (naive discovery)."""
    for tgd_index, tgd in enumerate(tgds):
        for hom in homomorphisms(tgd.body, instance):
            yield Trigger(tgd_index, tgd, hom.apply_atoms(tgd.body))


def fire(
    trigger: Trigger, null_factory: NullFactory
) -> tuple[tuple[Atom, ...], tuple[Null, ...]]:
    """Compute the head atoms the trigger produces (not yet inserted).

    Returns ``(atoms, nulls)``: the head under h' — h on the frontier,
    a fresh null per existential variable — and those nulls in variable
    name order.  The depth of each fresh null is one more than the
    deepest null among the terms the trigger consumes (constants count
    as depth 0), which gives the chase's "null depth" used by
    depth-bounded termination control.
    """
    compiled = trigger.tgd.matcher
    if not compiled.existential:
        return trigger.ground_head, ()
    depth = 1 + max(
        (t.depth for a in trigger.image for t in a.args if isinstance(t, Null)),
        default=0,
    )
    nulls = tuple(null_factory.fresh(depth) for _ in compiled.existential)
    return compiled.head_atoms(trigger.image, nulls), nulls
