"""Property tests: storage backends are observationally equivalent.

The acceptance bar of the storage subsystem is that it is invisible to
the logic: over random warded programs (recursive Datalog, optionally
with an existential rule), the chase and semi-naive evaluation must
produce the same instances, statistics, and certain answers whichever
:data:`repro.storage.BACKENDS` backend they materialize into, and the
raw ``matching`` primitive must agree with the reference ``Instance``
on arbitrary patterns.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.runner import chase
from repro.core.atoms import Atom
from repro.core.homomorphism import find_homomorphism
from repro.core.instance import Database, Instance
from repro.core.terms import Constant, Null, Variable
from repro.core.tgd import TGD
from repro.datalog.seminaive import seminaive
from repro.lang.parser import parse_query
from repro.server.snapshot import SnapshotManager
from repro.storage import (
    BACKENDS,
    ColumnarStore,
    DeltaOverlay,
    FactStore,
    FrozenStoreError,
    Relation,
    make_store,
)

from .strategies import atoms

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def _null_free(store: FactStore) -> set[Atom]:
    return {atom for atom in store if not atom.nulls()}


def _as_patterns(store: FactStore) -> list[Atom]:
    """The store's atoms with each labeled null turned into a variable."""
    mapping: dict[Null, Variable] = {}
    patterns = []
    for atom in store:
        args = tuple(
            mapping.setdefault(term, Variable(f"n@{term.label}"))
            if isinstance(term, Null)
            else term
            for term in atom.args
        )
        patterns.append(Atom(atom.predicate, args))
    return patterns


def _hom_equivalent(first: FactStore, second: FactStore) -> bool:
    """Mutual homomorphic embedding — chase-result equivalence."""
    return (
        find_homomorphism(_as_patterns(first), second) is not None
        and find_homomorphism(_as_patterns(second), first) is not None
    )


@st.composite
def warded_instances(draw):
    """A random warded program plus database over a small graph.

    Always includes linear transitive closure (WARD ∩ PWL); optionally a
    doubling rule (warded, not PWL) and an existential rule (invents
    nulls), so all term kinds and recursion shapes are exercised.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    edge_count = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(0, 10**6)))
    facts = {
        Atom("e", (Constant(f"n{rng.randrange(n)}"),
                   Constant(f"n{rng.randrange(n)}")))
        for _ in range(edge_count)
    }
    rules = [TGD((Atom("e", (X, Y)),), (Atom("t", (X, Y)),))]
    if draw(st.booleans()):
        rules.append(
            TGD((Atom("e", (X, Y)), Atom("t", (Y, Z))), (Atom("t", (X, Z)),))
        )
    else:
        rules.append(
            TGD((Atom("t", (X, Y)), Atom("t", (Y, Z))), (Atom("t", (X, Z)),))
        )
    if draw(st.booleans()):
        # Existential witness rule: t(X,Y) → ∃K w(Y,K).  Warded (Y is
        # harmless) and null-inventing, but not recursive through w.
        rules.append(TGD((Atom("t", (X, Y)),), (Atom("w", (Y, Z)),)))
    return Database(facts), rules


@settings(max_examples=40, deadline=None)
@given(warded_instances())
def test_chase_equivalent_across_backends(data):
    database, rules = data
    reference = chase(database, rules, store="instance", max_atoms=400)
    query = parse_query("q(X,Y) :- t(X,Y).")
    reference_answers = reference.evaluate(query)
    has_existentials = any(not tgd.is_full() for tgd in rules)
    for backend in BACKENDS:
        if backend == "instance":
            continue
        result = chase(database, rules, store=backend, max_atoms=400)
        assert result.saturated == reference.saturated, backend
        # Null-free facts are the unique least fixpoint: exactly equal.
        assert _null_free(result.instance) == _null_free(reference.instance), \
            backend
        assert result.evaluate(query) == reference_answers, backend
        if has_existentials:
            # Trigger enumeration order may differ between backends, so
            # restricted-chase results with invented nulls agree only up
            # to homomorphic equivalence (Proposition 2.1) — which is
            # the guarantee query answering needs.
            assert _hom_equivalent(result.instance, reference.instance), \
                backend
        else:
            assert result.fired == reference.fired, backend
            assert set(result.instance) == set(reference.instance), backend


@settings(max_examples=40, deadline=None)
@given(warded_instances())
def test_seminaive_equivalent_across_backends(data):
    database, rules = data
    full_rules = [tgd for tgd in rules if tgd.is_full()]
    query = parse_query("q(X,Y) :- t(X,Y).")
    reference = seminaive(database, full_rules)
    for backend in BACKENDS:
        if backend == "instance":
            continue
        result = seminaive(database, full_rules, store=backend)
        assert result.rounds == reference.rounds, backend
        assert result.derived == reference.derived, backend
        assert result.considered == reference.considered, backend
        assert set(result.instance) == set(reference.instance), backend
        assert result.evaluate(query) == reference.evaluate(query), backend


@settings(max_examples=60, deadline=None)
@given(
    st.lists(atoms(), min_size=0, max_size=12),
    atoms(),
)
def test_matching_agrees_with_instance(stored, pattern):
    """ColumnarStore.matching ≡ Instance.matching on random patterns."""
    ground = [atom for atom in stored if atom.is_ground()]
    instance = Instance(ground)
    columnar = ColumnarStore(ground)
    overlay = DeltaOverlay(ColumnarStore(ground[: len(ground) // 2]))
    overlay.add_all(ground[len(ground) // 2:])
    expected = sorted(map(str, instance.matching(pattern)))
    assert sorted(map(str, columnar.matching(pattern))) == expected
    assert sorted(map(str, overlay.matching(pattern))) == expected
    # The bound-position probe agrees too (no repeated-variable pattern).
    bound = {
        i: term
        for i, term in enumerate(pattern.args, start=1)
        if not isinstance(term, Variable)
    }
    expected_bound = sorted(
        map(str, instance.matching_bound(pattern.predicate, bound,
                                         arity=pattern.arity))
    )
    got_bound = sorted(
        map(str, columnar.matching_bound(pattern.predicate, bound,
                                         arity=pattern.arity))
    )
    assert got_bound == expected_bound


_ids = st.integers(0, 3)
_rows = st.tuples(_ids, _ids, _ids)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(("add", "discard", "probe")), _rows),
        max_size=60,
    )
)
def test_relation_agrees_with_set_model(operations):
    """Random add/discard/probe interleavings on a relation whose
    single-column *and* composite indexes are already built: membership,
    density and every index probe agree with a plain ``set``."""
    relation = Relation()
    relation.index_for((0,))
    relation.index_for((1, 2))
    model: set = set()
    for operation, row in operations:
        if operation == "add":
            assert relation.append(row) == (row not in model)
            model.add(row)
        elif operation == "discard":
            assert relation.discard(row) == (row in model)
            model.discard(row)
        else:
            rows = relation.rows
            by_first = relation.index_for((0,)).get(row[0], ())
            assert {rows[n] for n in by_first} == {
                r for r in model if r[0] == row[0]
            }
            by_rest = relation.index_for((1, 2)).get(row[1:], ())
            assert {rows[n] for n in by_rest} == {
                r for r in model if r[1:] == row[1:]
            }
            assert set(relation.matching({0: row[0], 2: row[2]})) == {
                r for r in model if (r[0], r[2]) == (row[0], row[2])
            }
        assert set(relation.rows) == model == set(relation.row_pos)
        assert len(relation.rows) == len(model)


# -- DeltaOverlay: a version layer over a sealed base ----------------------

_K = [Constant(name) for name in "abc"]
#: A universe small enough that re-adds, retractions of base atoms and
#: resurrections all happen in a 40-step sequence.
_POOL = [Atom("r", (x, y)) for x in _K for y in _K] + [
    Atom("s", (x,)) for x in _K
]
_pool_atoms = st.sampled_from(_POOL)
_edits = st.lists(
    st.tuples(st.sampled_from(("add", "discard")), _pool_atoms), max_size=40
)
_base_atoms = st.lists(_pool_atoms, unique=True, max_size=8)
_base_backends = st.sampled_from(BACKENDS)


def _observe(store: FactStore) -> dict:
    listed = list(store)
    return {
        "atoms": set(listed),
        "no_duplicates": len(listed) == len(set(listed)),
        "len": len(store),
        "contains": [atom in store for atom in _POOL],
        "counts": {p: store.count(p) for p in ("r", "s", "missing")},
        "count_all": store.count(),
        "predicates": store.predicates(),
        "by_predicate": sorted(map(str, store.by_predicate("r"))),
        "probe": sorted(
            map(str, store.matching_bound("r", {1: _K[0]}, arity=2))
        ),
        "pattern": sorted(map(str, store.matching(Atom("r", (X, X))))),
    }


@settings(max_examples=120, deadline=None)
@given(_base_backends, _base_atoms, _edits)
def test_overlay_agrees_with_set_model(backend, base_atoms, edits):
    """Random add/discard/re-add sequences over a sealed base: every
    read of the overlay agrees with a plain ``set``, with no recount —
    ``len`` is arithmetic over the three layers."""
    base = make_store(backend, base_atoms)
    overlay = DeltaOverlay(base)
    assert base.frozen and not overlay.frozen
    with pytest.raises(FrozenStoreError):
        base.add(_POOL[0])
    with pytest.raises(FrozenStoreError):
        base.discard(_POOL[0])
    model = set(base_atoms)
    for action, atom in edits:
        if action == "add":
            assert overlay.add(atom) == (atom not in model)
            model.add(atom)
        else:
            assert overlay.discard(atom) == (atom in model)
            model.discard(atom)
        assert _observe(overlay) == _observe(Instance(model))
    assert set(base) == set(base_atoms)  # the base never moved

    clone = overlay.copy()
    assert clone.base is base and not clone.frozen
    assert _observe(clone) == _observe(Instance(model))
    clone.add_all(_POOL)
    clone.discard(_POOL[-1])
    assert _observe(overlay) == _observe(Instance(model))  # independent


@settings(max_examples=60, deadline=None)
@given(
    _base_backends,
    _base_atoms,
    st.lists(_edits, min_size=1, max_size=9),
    st.integers(1, 4),
)
def test_overlay_chain_agrees_with_flattened_store(
    backend, base_atoms, batches, flatten_depth
):
    """The MVCC chain: every version — an overlay ``depth`` layers
    above the last flat store, or the flat store a flatten produced —
    reads exactly as the model says, and stays sealed."""
    manager = SnapshotManager(
        base_atoms, store=backend, flatten_depth=flatten_depth
    )
    model = set(base_atoms)
    for batch in batches:
        after = set(model)
        for action, atom in batch:
            (after.add if action == "add" else after.discard)(atom)
        manager.install(tuple(after - model), tuple(model - after))
        model = after
        with manager.current() as lease:
            assert lease.snapshot.depth < flatten_depth
            assert lease.store.frozen
            assert _observe(lease.store) == _observe(Instance(model))
    assert manager.flattened == len(batches) // flatten_depth
