"""Property tests for the out-of-core sharded store.

Three guarantees, over random inputs:

* **Spill transparency** — a ShardedStore squeezed under a tiny memory
  budget (so shards constantly evict to SQLite pages and reload) is
  observationally identical to the reference ``Instance`` on every read
  primitive, including after random discards.
* **Snapshot probes** — a probe started before a discard storm still
  yields exactly its snapshot (the PR-5 interleaving contract, extended
  to paged shards).
* **Spilled-fixpoint evaluation** — ``Query.evaluate`` over a budgeted
  store whose shards have spilled computes the same answers as over the
  resident ``Instance`` of the same random warded fixpoint — the read
  path every cached ``sharded`` fixpoint is served through.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.runner import chase
from repro.core.instance import Instance
from repro.core.terms import Variable
from repro.lang.parser import parse_query
from repro.storage import ShardedStore, sharded_store_factory

from .strategies import atoms
from .test_prop_storage import warded_instances

#: Small enough that a handful of atoms already exceeds it — every
#: example exercises evict/spill/reload, not just the resident path.
TINY_BUDGET = 256


def _ground(stored):
    return [atom for atom in stored if atom.is_ground()]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(atoms(), min_size=0, max_size=16),
    atoms(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_budgeted_matching_agrees_with_instance(
    stored, pattern, num_shards, key_position
):
    """Spill → evict → reload round-trips are invisible to reads."""
    ground = _ground(stored)
    instance = Instance(ground)
    sharded = ShardedStore(
        ground,
        memory_budget=TINY_BUDGET,
        num_shards=num_shards,
        key_position=key_position,
    )
    assert len(sharded) == len(instance)
    assert set(sharded) == set(instance)
    expected = sorted(map(str, instance.matching(pattern)))
    assert sorted(map(str, sharded.matching(pattern))) == expected
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
        map(str, sharded.matching_bound(pattern.predicate, bound,
                                        arity=pattern.arity))
    )
    assert got_bound == expected_bound
    for atom in ground:
        assert atom in sharded


@settings(max_examples=40, deadline=None)
@given(
    st.lists(atoms(), min_size=1, max_size=16),
    st.data(),
)
def test_discards_across_spill_agree_with_instance(stored, data):
    """Membership and probes stay exact when discards hit paged shards."""
    ground = _ground(stored)
    instance = Instance(ground)
    sharded = ShardedStore(ground, memory_budget=TINY_BUDGET, num_shards=3)
    if ground:
        victims = data.draw(
            st.lists(st.sampled_from(ground), max_size=len(ground))
        )
    else:
        victims = []
    for atom in victims:
        assert sharded.discard(atom) == instance.discard(atom)
    assert len(sharded) == len(instance)
    assert set(sharded) == set(instance)
    for atom in ground:
        assert (atom in sharded) == (atom in instance)
    seen_preds = {atom.predicate for atom in ground}
    for predicate in seen_preds:
        assert sorted(map(str, sharded.by_predicate(predicate))) == sorted(
            map(str, instance.by_predicate(predicate))
        )


@settings(max_examples=30, deadline=None)
@given(st.lists(atoms(), min_size=2, max_size=16))
def test_probe_snapshot_survives_discard_storm(stored):
    """A probe opened before discards yields exactly its snapshot."""
    ground = _ground(stored)
    if not ground:
        return
    sharded = ShardedStore(ground, memory_budget=TINY_BUDGET, num_shards=2)
    predicate = ground[0].predicate
    arity = ground[0].arity
    expected = {
        atom for atom in ground
        if atom.predicate == predicate and atom.arity == arity
    }
    probe = sharded.matching_bound(predicate, {}, arity=arity)
    first = next(probe)
    sharded.discard_all(list(sharded))
    assert {first, *probe} == expected
    assert len(sharded) == 0


@settings(max_examples=25, deadline=None)
@given(warded_instances())
def test_spilled_fixpoint_evaluates_like_resident(data):
    """Query.evaluate over spilled shards ≡ over the resident Instance."""
    database, rules = data
    result = chase(
        database, rules,
        store=sharded_store_factory(TINY_BUDGET, None, num_shards=4),
        max_atoms=400,
    )
    store = result.instance
    resident = Instance(store)
    assert store.stats["spilled_shards"] > 0
    for text in (
        "q(X,Y) :- t(X,Y).",
        "q(X) :- t(X,X).",
        "q(X) :- e(X,Y), t(Y,X).",
        "q(X,Z) :- t(X,Y), t(Y,Z).",
    ):
        query = parse_query(text)
        assert query.evaluate(store) == query.evaluate(resident), text
