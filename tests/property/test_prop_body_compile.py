"""Property tests: the compiled rule-body matcher is the homomorphism
search it replaced.

``repro.core.match`` compiles a rule body once per pinned position into
slot-addressed probe steps; the semi-naive rounds, the maintenance waves
and the chase's trigger discovery all pull their delta joins out of its
``walk``.  The joins they ran before — ``homomorphisms`` seeded by
``match_atom`` — live on in ``reference_matcher.py``.  Over random
programs, stores (with nulls) and deltas both must yield the same
*multiset* of (rule, pinned position, body image, head), each match
exactly once — on every store a join can be handed (``Instance``,
columnar, sharded and the deletion phase's ``UnionView``), because a
step that binds nothing asks the store's ``__contains__`` instead of
probing.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.trigger import all_triggers, triggers_for_new_atom
from repro.core.atoms import Atom, atoms_variables, match_atom
from repro.core.homomorphism import homomorphisms
from repro.core.instance import Instance
from repro.core.match import AtomSet, rule_heads, walk
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Null, Variable
from repro.core.tgd import TGD
from repro.core.views import UnionView
from repro.storage import ShardedStore, make_store

from . import reference_matcher as reference
from .strategies import databases, programs

X, Y, Z, W = (Variable(name) for name in "XYZW")
a, b, c = (Constant(value) for value in "abc")
FRESH = tuple(Null(100 + i) for i in range(4))  # one per head-only variable


def compiled_matches(tgd, store, delta):
    """(pinned position, body image, head) per match of the compiled
    pinned forms, the head's existential variables sent to ``FRESH``."""
    compiled = tgd.matcher
    for pin, form in enumerate(compiled.pinned):
        for _, matched in walk(form, store, delta):
            image = tuple(matched[depth] for depth in form.depth_of)
            yield pin, image, compiled.head_atoms(image, FRESH)


def reference_head(tgd, hom):
    invented = zip(sorted(tgd.existential_variables(), key=str), FRESH)
    return Substitution({**hom, **dict(invented)}).apply_atoms(tgd.head)


def reference_matches(tgd, store, delta):
    for pin, hom in reference.delta_matches(tgd, store, delta):
        yield pin, hom.apply_atoms(tgd.body), reference_head(tgd, hom)


def assert_same_matches(tgd, store, delta):
    got = Counter(compiled_matches(tgd, store, delta))
    assert got == Counter(reference_matches(tgd, store, delta))
    assert set(got.values()) <= {1}, "a match was reported twice"
    assert len({image for _, image, _ in got}) == len(got)
    full = tgd.matcher.full
    assert Counter(
        tuple(matched[depth] for depth in full.depth_of)
        for _, matched in walk(full, store)
    ) == Counter(
        hom.apply_atoms(tgd.body) for hom in homomorphisms(tgd.body, store)
    )
    # The head-first form ``_derivable`` asks, per stored head fact.
    head, form = tgd.head[0], tgd.matcher.from_head
    for fact in list(store.by_predicate(head.predicate)):
        seed = match_atom(head, fact)
        assert Counter(
            tuple(matched[depth] for depth in form.depth_of[1:])
            for _, matched in walk(form, store, AtomSet([fact]))
        ) == Counter(
            () if seed is None else
            (hom.apply_atoms(tgd.body) for hom in homomorphisms(tgd.body, store, seed))
        )


# -- random inputs -----------------------------------------------------------

# Two predicate names, each at arities 1–3: an arity mismatch under one
# name is the common case, and so are repeated variables and constants.
VOCABULARY = st.sampled_from(["e", "t"])


def _atoms(terms, max_arity=3):
    return st.builds(
        lambda predicate, args: Atom(predicate, tuple(args)),
        VOCABULARY, st.lists(st.sampled_from(terms), min_size=1, max_size=max_arity),
    )


@st.composite
def rules(draw):
    body = draw(st.lists(_atoms([X, Y, Z, a, b]), min_size=1, max_size=3))
    # Often a last atom over variables the others bind: a step that binds
    # nothing — a repeated-variable pair such as t(X,Y), t(Y,X), under
    # either name and at any arity, so it may clash with an earlier one.
    bound = sorted(atoms_variables(body), key=str)
    if bound and draw(st.booleans()):
        body.append(draw(_atoms(bound + [a])))
    head = draw(st.lists(_atoms([X, Y, Z, W, a]), min_size=1, max_size=2))
    return TGD(tuple(body), tuple(head))


stores = st.lists(_atoms([a, b, c, Null(0), Null(1)]), min_size=1, max_size=14)


def every_store(atoms):
    """*atoms* in each store the tuple compiler can be handed."""
    half = len(atoms) // 2
    return (
        Instance(atoms),
        make_store("columnar", atoms),
        ShardedStore(atoms, num_shards=3),
        UnionView(Instance(atoms[:half]), Instance(atoms[half - 1:])),
    )


def _delta(draw, atoms):
    """A delta drawn from *atoms*."""
    return AtomSet(draw(st.lists(st.sampled_from(atoms), unique=True, max_size=6)))


@given(rules(), stores, st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_delta_join_equals_the_reference(tgd, atoms, data):
    delta = _delta(data.draw, atoms)
    for store in every_store(atoms):
        assert_same_matches(tgd, store, delta)


@given(programs(), databases(), st.data())
@settings(max_examples=150, deadline=None)
def test_on_random_programs_and_databases(program, database, data):
    """``strategies.programs()`` × ``databases()``, every rule, on every
    store, and — for the full single-head rules — through ``rule_heads``
    as the engines call it."""
    atoms = sorted(database, key=str)
    store, delta = Instance(atoms), _delta(data.draw, atoms)
    for tgd in program:
        for each in every_store(atoms):
            assert_same_matches(tgd, each, delta)
    datalog = [t for t in program if t.is_full() and t.is_single_head()]
    for wave in (delta, None):
        assert Counter(rule_heads(datalog, store, wave)) == Counter(
            reference.rule_heads(datalog, store, wave)
        )


@given(programs(), databases())
@settings(max_examples=100, deadline=None)
def test_trigger_discovery_equals_the_reference(program, database):
    store = Instance(database)
    tgds = list(program)
    for atom in sorted(database, key=str):
        got = [t.key() for t in triggers_for_new_atom(tgds, atom, store)]
        want = [
            t.key() for t in reference.triggers_for_new_atom(tgds, atom, store)
        ]
        assert got == want  # same triggers, same order: null numbering


@given(programs(), databases())
@settings(max_examples=150, deadline=None)
def test_initial_trigger_discovery_equals_the_reference(program, database):
    """The chase's first triggers, from the walk of each unpinned form,
    are the homomorphism search's, match for match and in its order."""
    store = Instance(database)
    tgds = list(program)
    got = [t.key() for t in all_triggers(tgds, store)]
    assert got == [t.key() for t in reference.all_triggers(tgds, store)]


# -- explicit cases ----------------------------------------------------------


def fact(predicate, *terms):
    return Atom(predicate, tuple(terms))


def rule(body, head):
    return TGD(tuple(body), tuple(head))


CASES = {
    "repeated variable inside one atom": (
        rule([fact("e", X, X), fact("t", X, Y)], [fact("r", X, Y)]),
        [fact("e", a, a), fact("e", a, b), fact("t", a, c), fact("t", b, c)],
        [fact("e", a, a), fact("e", a, b)],
    ),
    "constants in a body atom": (
        rule([fact("e", a, X), fact("t", X, b)], [fact("r", X, a)]),
        [fact("e", a, c), fact("e", b, c), fact("t", c, b), fact("t", c, a)],
        [fact("e", a, c), fact("e", b, c), fact("t", c, b)],
    ),
    "one predicate at two positions, a delta atom matching both": (
        rule([fact("t", X, Y), fact("t", Y, Z)], [fact("t", X, Z)]),
        [fact("t", a, a), fact("t", a, b), fact("t", b, a)],
        [fact("t", a, a), fact("t", a, b)],
    ),
    "an arity mismatch under one predicate name": (
        rule([fact("e", X, Y), fact("e", Y)], [fact("r", X)]),
        [fact("e", a, b), fact("e", b), fact("e", b, a, c), fact("e", a)],
        [fact("e", b), fact("e", a, b), fact("e", b, a, c)],
    ),
    "nulls in the store": (
        rule([fact("e", X, Y), fact("t", Y, Z)], [fact("r", X, Z, W)]),
        [fact("e", a, Null(0)), fact("t", Null(0), Null(1)), fact("t", Null(0), a)],
        [fact("t", Null(0), Null(1)), fact("e", a, Null(0))],
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_explicit_case(case):
    tgd, atoms, delta = CASES[case]
    assert_same_matches(tgd, Instance(atoms), AtomSet(delta))
    assert sum(1 for _ in compiled_matches(tgd, Instance(atoms), AtomSet(delta)))


def test_a_consumer_that_adds_between_pulls_is_seen_by_later_probes():
    """DRed's rederive stage adds each survivor as it is pulled; the walk
    is lazy, so the compiled join and the reference see the same growing
    store and yield the same sequence."""
    doubling = rule([fact("t", X, Y), fact("t", Y, Z)], [fact("t", X, Z)])
    atoms = [fact("t", Constant(i), Constant(i + 1)) for i in range(6)]

    def drain(heads, store):
        pulled = []
        for head in heads:
            pulled.append(head)
            store.add(head)
        return pulled

    compiled_store, reference_store = Instance(atoms), Instance(atoms)
    got = drain(rule_heads([doubling], compiled_store, AtomSet(atoms)), compiled_store)
    want = drain(
        reference.rule_heads([doubling], reference_store, AtomSet(atoms)),
        reference_store,
    )
    assert got == want
    # More than the four two-step paths of the unedited store: atoms
    # added mid-walk were joined against.
    assert len(got) > 4 and compiled_store.atoms() == reference_store.atoms()


def test_union_view_reports_a_fact_in_both_layers_once():
    """The old-state view under the deletion phase: an atom the removed
    layer still lists but the store has (again) is yielded once, under
    bound and unbound probes, pattern form included."""
    store = Instance([fact("t", a, b), fact("t", a, c)])
    removed = Instance([fact("t", a, b), fact("t", b, c)])
    view = UnionView(store, removed)
    everything = [fact("t", a, b), fact("t", a, c), fact("t", b, c)]
    assert sorted(view.matching_bound("t", {}), key=str) == everything
    assert sorted(view.by_predicate("t"), key=str) == everything
    assert list(view.matching_bound("t", {1: a, 2: b}, 2)) == [fact("t", a, b)]
    assert sorted(view.matching_bound("t", {2: c}), key=str) == everything[1:]
    assert sorted(view.matching(fact("t", a, X)), key=str) == everything[:2]
    assert list(view.matching(fact("t", X, X))) == []
    delta = AtomSet(everything)
    assert (delta.count("t"), delta.count("e")) == (3, 0)


def test_a_non_ground_head_is_refused_before_any_derivation():
    """Compile-time, not per match: the good rule listed first has
    matches, and none is pulled before the error names the bad one."""
    good = rule([fact("e", X, Y)], [fact("t", X, Y)])
    bad = rule([fact("e", X, Y)], [fact("t", X, W)])
    store = Instance([fact("e", a, b)])
    for delta in (AtomSet(store), None):
        with pytest.raises(ValueError, match=r"e\(X,Y\) → ∃W t\(X,W\)"):
            next(iter(rule_heads([good, bad], store, delta)))
