"""The rule joins as they ran before ``repro.core.match`` compiled them,
kept as the reference.

Everything here goes through the generic backtracking
:func:`~repro.core.homomorphism.homomorphisms`: a resolved pattern atom
and a ``most_selective`` call per node, a ``Substitution`` per match, and
the "report a match only at the first body position that uses a delta
atom" rule answered by re-applying the substitution to the whole body.
``test_prop_body_compile.py`` pins the compiled matcher against these
match for match; ``tests/unit/test_match_counters.py`` patches them back
into the engines and compares the counters no answer digest can see.
"""

from repro.chase.trigger import Trigger
from repro.core.atoms import match_atom
from repro.core.homomorphism import find_homomorphism, homomorphisms


def delta_matches(tgd, instance, delta):
    """``(pinned position, h)`` for every body match of *tgd* over
    *instance* that uses a *delta* atom, each exactly once: at the first
    body position whose image lies in the delta."""
    body = list(tgd.body)
    for pin_index, pinned in enumerate(body):
        others = body[:pin_index] + body[pin_index + 1:]
        for delta_atom in delta.by_predicate(pinned.predicate):
            seed = match_atom(pinned, delta_atom)
            if seed is None:
                continue
            for hom in homomorphisms(others, instance, seed):
                image = hom.apply_atoms(tgd.body)
                first_delta = None
                for i, atom in enumerate(image):
                    if atom in delta:
                        first_delta = i
                        break
                if first_delta == pin_index:
                    yield pin_index, hom


def rule_heads(rules, store, delta=None):
    """Drop-in for :func:`repro.core.match.rule_heads`."""
    for tgd in rules:
        head = tgd.head[0]
        if delta is None:
            for hom in homomorphisms(list(tgd.body), store):
                yield hom.apply_atom(head)
        else:
            for _, hom in delta_matches(tgd, store, delta):
                yield hom.apply_atom(head)


def derivable(maintainer, fact, layer):
    """Drop-in for ``FixpointMaintainer._derivable``."""
    for tgd in layer:
        seed = match_atom(tgd.head[0], fact)
        if seed is None:
            continue
        if find_homomorphism(list(tgd.body), maintainer.store, seed) is not None:
            return True
    return False


def triggers_for_new_atom(tgds, new_atom, instance):
    """Drop-in for :func:`repro.chase.trigger.triggers_for_new_atom`."""
    for tgd_index, tgd in enumerate(tgds):
        for position in range(len(tgd.body)):
            seed = match_atom(tgd.body[position], new_atom)
            if seed is None:
                continue
            rest = [a for i, a in enumerate(tgd.body) if i != position]
            for hom in homomorphisms(rest, instance, seed):
                image = hom.apply_atoms(tgd.body)
                if image.index(new_atom) == position:
                    yield Trigger(tgd_index, tgd, image)
