"""Unit tests for the relation primitive every id-array backend stores
and the compiled kernels join in place (``repro.storage.relation``)."""

import pytest

from repro.core.atoms import Atom
from repro.core.terms import Constant, Variable
from repro.storage import ColumnarStore, Relation, ShardedStore

X, Y = Variable("X"), Variable("Y")
a, b = Constant("a"), Constant("b")


def _coherent(relation):
    """Every structure agrees with ``rows`` (the source of truth)."""
    assert relation.row_pos == {
        row: number for number, row in enumerate(relation.rows)
    }
    for positions, index in relation.indexes.items():
        rebuilt = {}
        for number, row in enumerate(relation.rows):
            key = (
                row[positions[0]] if len(positions) == 1
                else tuple(row[p] for p in positions)
            )
            rebuilt.setdefault(key, []).append(number)
        assert {k: sorted(v) for k, v in index.items()} == rebuilt


class TestRelation:
    def test_append_dedups_and_bumps_version(self):
        relation = Relation()
        assert relation.append((1, 2))
        assert not relation.append((1, 2))
        assert relation.rows == [(1, 2)]
        assert relation.version == 1
        assert (1, 2) in relation and (2, 1) not in relation

    def test_extend_returns_exactly_the_new_rows_in_append_order(self):
        relation = Relation([(1, 2), (3, 4)])
        new = relation.extend([(5, 6), (1, 2), (7, 8), (5, 6), (3, 4)])
        assert new == [(5, 6), (7, 8)]
        assert relation.rows == [(1, 2), (3, 4), (5, 6), (7, 8)]
        # New rows sit at consecutive numbers from the old length.
        assert [relation.row_pos[row] for row in new] == [2, 3]
        assert relation.version == 1  # one bump per effective batch
        assert relation.extend([(1, 2)]) == []
        assert relation.version == 1

    def test_single_column_index_keys_on_the_bare_id(self):
        relation = Relation([(1, 2), (1, 3), (4, 2)])
        assert relation.index_for((0,)) == {1: [0, 1], 4: [2]}
        assert relation.index_for((0, 1)) == {
            (1, 2): [0], (1, 3): [1], (4, 2): [2]
        }

    def test_mutations_keep_built_indexes_coherent(self):
        relation = Relation([(1, 2), (1, 3), (4, 2), (4, 3), (5, 5)])
        relation.index_for((0,))
        relation.index_for((0, 1))
        relation.index_for((1, 0))
        relation.append((6, 2))
        relation.extend([(1, 9), (6, 2), (7, 7)])
        _coherent(relation)
        # Swap-remove from the middle, the end, and down to empty.
        for row in [(1, 3), (7, 7), (1, 2), (4, 2), (6, 2), (4, 3),
                    (1, 9), (5, 5)]:
            assert relation.discard(row)
            assert row not in relation
            _coherent(relation)
        assert not relation.discard((5, 5))
        assert relation.rows == [] and relation.indexes[(0,)] == {}

    def test_matching_filters_every_bound_position(self):
        relation = Relation([(1, 2), (1, 3), (4, 2)])
        assert relation.matching({0: 1}) == [(1, 2), (1, 3)]
        assert relation.matching({0: 1, 1: 3}) == [(1, 3)]
        assert relation.matching({1: 9}) == []
        # The result is a snapshot: later mutation leaves it alone.
        snapshot = relation.matching({1: 2})
        relation.discard((1, 2))
        assert snapshot == [(1, 2), (4, 2)]

    def test_rebuild_from_rows_preserves_numbering(self):
        relation = Relation([(3, 1), (1, 1), (2, 1)])
        rebuilt = Relation(relation.rows)
        assert rebuilt.rows == relation.rows
        assert rebuilt.row_pos == relation.row_pos


class TestStoresHoldThePrimitive:
    def test_columnar_relations_are_relations(self):
        store = ColumnarStore([Atom("e", (a, b))])
        [(part_id, part)] = list(store.parts("e", 2))
        assert part_id == 0 and type(part) is Relation
        assert list(store.parts("e", 3)) == []
        assert list(store.parts("missing", 2)) == []

    def test_resident_shards_are_relations(self):
        store = ShardedStore([Atom("e", (a, b))], num_shards=4)
        [(part_id, part)] = list(store.parts("e", 2))
        assert type(part) is Relation and 0 <= part_id < 4
        assert list(store.parts("e", 2, ids=[part_id])) == [(part_id, part)]
        others = [i for i in range(4) if i != part_id]
        assert list(store.parts("e", 2, ids=others)) == []

    @pytest.mark.parametrize("factory", [ColumnarStore, ShardedStore])
    def test_extend_rows_reports_new_rows_and_where_they_start(self, factory):
        store = factory()
        ids = store.table.intern_many(
            [Constant(f"n{i}") for i in range(6)]
        )
        first = [(ids[0], ids[1]), (ids[2], ids[3])]
        grew = store.extend_rows("e", 2, first + first[:1])
        assert sorted(row for _, _, new in grew for row in new) == sorted(first)
        assert len(store) == 2
        assert store.extend_rows("e", 2, first) == []
        more = store.extend_rows("e", 2, [(ids[4], ids[5]), first[0]])
        assert [new for _, _, new in more] == [[(ids[4], ids[5])]]
        # Each report names the part and the row number its rows start at.
        parts = dict(store.parts("e", 2))
        for part_id, start, new in grew + more:
            assert parts[part_id].rows[start:start + len(new)] == new

    @pytest.mark.parametrize("factory", [ColumnarStore, ShardedStore])
    def test_extended_rows_visible_to_matching(self, factory):
        store = factory()
        store.extend_rows("e", 2, [tuple(store.table.intern_many((a, b)))])
        assert set(store.matching(Atom("e", (X, Y)))) == {Atom("e", (a, b))}
        assert set(store.matching(Atom("e", (a, Y)))) == {Atom("e", (a, b))}

    def test_reloaded_shard_preserves_row_order(self):
        """A watermark (a row number) taken before a spill still splits
        old from new rows after the shard is paged back in."""
        atoms = [
            Atom("e", (Constant(f"n{i}"), Constant(f"m{i}")))
            for i in range(200)
        ]
        store = ShardedStore(atoms, memory_budget=2048, num_shards=4)
        assert store.stats["evictions"] > 0
        before = {
            part_id: list(part.rows) for part_id, part in store.parts("e", 2)
        }
        more = [
            Atom("e", (Constant(f"n{i}"), Constant("late")))
            for i in range(200)
        ]
        store.add_all(more)  # every shard grows, spills and reloads
        assert store.stats["reloads"] > 0
        for part_id, part in store.parts("e", 2):
            old = before[part_id]
            assert part.rows[:len(old)] == old
            assert len(part.rows) > len(old)
