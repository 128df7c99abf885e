"""The chase loop as it ran before trigger discovery was indexed, kept
as the reference.

Every new atom walks every pinned form of every TGD, each trigger is
queued when first found, and the restricted chase asks whether a
trigger's head already holds only when the trigger is popped; an
existential-free trigger's ground head is rebuilt from its body image.
``test_prop_chase.py`` pins :func:`repro.chase.runner.chase_events`
against this loop — atoms, ``fired``, ``suppressed`` and the next null
label — with the policies, variants and limits varied.  ``saturated``
is not compared: a run stopped at a limit with nothing left to fire
counts as saturated there, and did not here.
"""

from collections import deque

from repro.chase.termination import AlwaysFire
from repro.chase.trigger import Trigger, fire
from repro.core.match import AtomSet, walk
from repro.core.terms import NullFactory
from repro.storage import make_store


def _trigger(tgd_index, tgd, form, matched):
    image = tuple([matched[d] for d in form.depth_of])
    compiled = tgd.matcher
    ground = () if compiled.existential else compiled.head_atoms(image)
    return Trigger(tgd_index, tgd, image, ground)


def _head_holds(trigger, instance):
    compiled = trigger.tgd.matcher
    if not compiled.existential:
        return all(atom in instance for atom in trigger.ground_head)
    return compiled.head_holds(trigger.image, instance)


def reference_chase(
    database, program, *, variant="restricted", policy=None,
    max_steps=None, max_atoms=None,
):
    """``(instance, fired, suppressed, null factory)`` of the chase of
    *database* under *program*, the arguments those of
    :func:`repro.chase.runner.chase`."""
    policy = policy or AlwaysFire()
    factory = NullFactory()
    instance = make_store("instance", database)
    tgds = list(program)
    seen, queue = set(), deque()
    fired = suppressed = 0

    def enqueue(trigger):
        if trigger.key() not in seen:
            seen.add(trigger.key())
            queue.append(trigger)

    for tgd_index, tgd in enumerate(tgds):
        for _, matched in walk(tgd.matcher.full, instance):
            enqueue(_trigger(tgd_index, tgd, tgd.matcher.full, matched))
    while queue:
        if max_steps is not None and fired >= max_steps:
            break
        if max_atoms is not None and len(instance) >= max_atoms:
            break
        trigger = queue.popleft()
        if variant == "restricted" and _head_holds(trigger, instance):
            continue
        produced = fire(trigger, factory)
        if not policy.should_fire(trigger, produced, instance):
            suppressed += 1
            continue
        fired += 1
        new_atoms = [a for a in produced if a not in instance]
        for atom in new_atoms:
            instance.add(atom)
        for atom in new_atoms:
            delta = AtomSet((atom,))
            for tgd_index, tgd in enumerate(tgds):
                for form in tgd.matcher.pinned:
                    for _, matched in walk(form, instance, delta):
                        enqueue(_trigger(tgd_index, tgd, form, matched))
    return instance, fired, suppressed, factory
