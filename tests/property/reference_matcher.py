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
:func:`stratified_fixpoint` is the naive evaluator stratified negation
ran on, with a textbook stratification of its own: the oracle of
``test_prop_negation_reference.py``.
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


def _trigger(tgd_index, tgd, hom):
    """The trigger of *hom*, an existential-free rule's ground head
    instantiated through it."""
    ground = () if tgd.existential_variables() else hom.apply_atoms(tgd.head)
    return Trigger(tgd_index, tgd, hom.apply_atoms(tgd.body), ground)


def triggers_for_new_atom(tgds, new_atom, instance):
    """Drop-in for :func:`repro.chase.trigger.triggers_for_new_atom`."""
    for tgd_index, tgd in enumerate(tgds):
        for position in range(len(tgd.body)):
            seed = match_atom(tgd.body[position], new_atom)
            if seed is None:
                continue
            rest = [a for i, a in enumerate(tgd.body) if i != position]
            for hom in homomorphisms(rest, instance, seed):
                trigger = _trigger(tgd_index, tgd, hom)
                if trigger.image.index(new_atom) == position:
                    yield trigger


def all_triggers(tgds, instance):
    """Drop-in for :func:`repro.chase.trigger.all_triggers`."""
    for tgd_index, tgd in enumerate(tgds):
        for hom in homomorphisms(tgd.body, instance):
            yield _trigger(tgd_index, tgd, hom)


def head_already_satisfied(trigger, instance):
    """Drop-in for ``repro.chase.runner._head_already_satisfied``: the
    restricted-chase check in its general form, a homomorphism search
    from h|frontier for every rule (h rebuilt from the body image)."""
    h = {}
    for pattern, stored in zip(trigger.tgd.body, trigger.image):
        h.update(match_atom(pattern, stored))
    seed = {v: h[v] for v in trigger.tgd.frontier()}
    return find_homomorphism(list(trigger.tgd.head), instance, seed) is not None


def _strata(program):
    """Rule groups in the textbook order: a head's stratum is at least
    each positive body predicate's and above each negated one's."""
    stratum = dict.fromkeys(
        (a.predicate for tgd in program for a in tgd.body + tgd.head + tgd.negated), 0
    )
    changed = True
    while changed:
        changed = False
        for tgd in program:
            need = max(
                [stratum[a.predicate] for a in tgd.body]
                + [stratum[a.predicate] + 1 for a in tgd.negated]
            )
            if stratum[tgd.head[0].predicate] < need:
                stratum[tgd.head[0].predicate] = need
                changed = True
    groups = {}
    for tgd in program:
        groups.setdefault(stratum[tgd.head[0].predicate], []).append(tgd)
    return [groups[key] for key in sorted(groups)]


def stratified_fixpoint(database, program):
    """The perfect model of a stratifiable program (negation gated by
    the caller): per stratum, every rule's matches whose negated
    literals are absent, naively to fixpoint."""
    instance = database.to_instance()
    for layer in _strata(program):
        changed = True
        while changed:
            changed = False
            fresh = []
            for rule in layer:
                for hom in homomorphisms(list(rule.body), instance):
                    if any(
                        next(iter(instance.matching(hom.apply_atom(negated))), None)
                        is not None
                        for negated in rule.negated
                    ):
                        continue
                    fact = hom.apply_atom(rule.head[0])
                    if fact not in instance:
                        fresh.append(fact)
            for fact in fresh:
                if fact not in instance:
                    instance.add(fact)
                    changed = True
    return instance
