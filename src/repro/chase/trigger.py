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
from typing import Dict, Iterator, Sequence

from ..core.atoms import Atom, match_atom
from ..core.homomorphism import homomorphisms
from ..core.instance import Instance
from ..core.substitution import Substitution
from ..core.terms import Null, NullFactory, Term
from ..core.tgd import TGD

__all__ = ["Trigger", "triggers_for_new_atom", "all_triggers", "fire"]


@dataclass(frozen=True)
class Trigger:
    """An applicable pair (σ, h), h restricted to the body variables."""

    tgd_index: int
    tgd: TGD
    substitution: Substitution

    @cached_property
    def _image(self) -> tuple[Atom, ...]:
        return self.substitution.apply_atoms(self.tgd.body)

    def body_image(self) -> tuple[Atom, ...]:
        """``h(body(σ))`` — the atoms of I that matched the body."""
        return self._image

    def key(self) -> tuple[int, tuple[Atom, ...]]:
        """Deduplication key: same rule, same body image ⇒ same trigger."""
        return (self.tgd_index, self.body_image())


def _match_with_pin(
    tgd: TGD,
    tgd_index: int,
    pin_position: int,
    new_atom: Atom,
    instance: Instance,
) -> Iterator[Trigger]:
    """Triggers of *tgd* whose body atom at *pin_position* maps to *new_atom*."""
    seed = match_atom(tgd.body[pin_position], new_atom)
    if seed is None:
        return
    rest = [a for i, a in enumerate(tgd.body) if i != pin_position]
    for hom in homomorphisms(rest, instance, seed):
        yield Trigger(tgd_index, tgd, hom)


def triggers_for_new_atom(
    tgds: Sequence[TGD], new_atom: Atom, instance: Instance
) -> Iterator[Trigger]:
    """All triggers that use *new_atom* somewhere in their body image.

    To avoid yielding the same trigger once per pinned position, each
    trigger is reported for the *first* body position that maps to the
    new atom.
    """
    for tgd_index, tgd in enumerate(tgds):
        for position in range(len(tgd.body)):
            for trigger in _match_with_pin(
                tgd, tgd_index, position, new_atom, instance
            ):
                image = trigger.body_image()
                first_use = None
                for i, atom in enumerate(image):
                    if atom == new_atom:
                        first_use = i
                        break
                if first_use == position:
                    yield trigger


def all_triggers(
    tgds: Sequence[TGD], instance: Instance
) -> Iterator[Trigger]:
    """Every applicable trigger over the full instance (naive discovery)."""
    for tgd_index, tgd in enumerate(tgds):
        for hom in homomorphisms(tgd.body, instance):
            yield Trigger(tgd_index, tgd, hom)


def fire(
    trigger: Trigger, null_factory: NullFactory
) -> tuple[tuple[Atom, ...], Substitution]:
    """Compute the head atoms the trigger produces (not yet inserted).

    Returns ``(atoms, h')`` where h' extends the body match on the
    frontier with fresh nulls for the existential variables.  The depth
    of each fresh null is one more than the deepest null among the terms
    the trigger consumes (constants count as depth 0), which gives the
    chase's "null depth" used by depth-bounded termination control.
    """
    h = trigger.substitution
    input_depth = 0
    for atom in trigger.body_image():
        for term in atom.args:
            if isinstance(term, Null):
                input_depth = max(input_depth, term.depth)
    extension: Dict[Term, Term] = {}
    for var in sorted(trigger.tgd.existential_variables(), key=lambda v: v.name):
        extension[var] = null_factory.fresh(depth=input_depth + 1)
    h_prime = Substitution({**{k: h[k] for k in h}, **extension})
    return h_prime.apply_atoms(trigger.tgd.head), h_prime
