"""Unit tests for the term model (constants, variables, nulls)."""

import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import repro
from repro.core.terms import Constant, Null, NullFactory, Variable


class TestConstant:
    def test_equality_is_structural(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")

    def test_int_and_string_payloads_differ(self):
        assert Constant(1) != Constant("1")

    def test_hashable_and_usable_in_sets(self):
        assert len({Constant("a"), Constant("a"), Constant("b")}) == 2

    def test_str(self):
        assert str(Constant("abc")) == "abc"
        assert str(Constant(7)) == "7"


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_variable_never_equals_constant(self):
        assert Variable("a") != Constant("a")

    def test_str(self):
        assert str(Variable("X")) == "X"


class TestNull:
    def test_equality_ignores_depth(self):
        assert Null(3, depth=0) == Null(3, depth=5)
        assert hash(Null(3, depth=0)) == hash(Null(3, depth=5))

    def test_distinct_labels_differ(self):
        assert Null(1) != Null(2)

    def test_null_never_equals_constant_or_variable(self):
        assert Null(1) != Constant(1)
        assert Null(1) != Variable("1")


class TestNullFactory:
    def test_fresh_nulls_are_distinct(self):
        factory = NullFactory()
        nulls = [factory.fresh() for _ in range(100)]
        assert len(set(nulls)) == 100

    def test_depth_is_recorded(self):
        factory = NullFactory()
        assert factory.fresh(depth=4).depth == 4

    def test_start_offset(self):
        factory = NullFactory(start=10)
        assert factory.fresh().label == 10


class TestInterning:
    def test_construction_returns_the_canonical_instance(self):
        assert Constant("a") is Constant("a")
        assert Variable("X") is Variable("X")
        assert Constant("a") is not Variable("a")

    def test_hash_and_equality_are_objects(self):
        assert Constant.__hash__ is object.__hash__
        assert Variable.__hash__ is object.__hash__
        assert Constant.__eq__ is object.__eq__
        assert Variable.__eq__ is object.__eq__

    def test_equality_classes_of_the_parent_commit(self):
        # Keyed on the value alone: values equal under == share a term.
        assert Constant(1) == Constant(True)
        assert Constant(1) != Constant("1")
        assert Null(3, 1) == Null(3, 2)
        assert hash(Null(3, 1)) == hash(Null(3, 2))

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            Constant("a").value = "b"
        with pytest.raises(FrozenInstanceError):
            del Variable("X").name

    def test_copy_and_pickle_keep_identity(self):
        term = Constant("copied")
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert pickle.loads(pickle.dumps(term)) is term
        assert pickle.loads(pickle.dumps(Variable("V"))) is Variable("V")

    def test_racing_threads_get_one_object(self):
        values = [f"race-{i}" for i in range(1000)]
        barrier = threading.Barrier(8)
        results = [None] * 8

        def build(slot):
            barrier.wait()
            results[slot] = [Constant(value) for value in values]

        threads = [
            threading.Thread(target=build, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for built in results[1:]:
            assert all(x is y for x, y in zip(built, results[0]))

    def test_table_drops_terms_a_dropped_session_held(self):
        from repro.api import Session
        from repro.benchsuite import generate_churn

        def serve_churn():
            churn = generate_churn(vertices=32, edges=64, clusters=4,
                                   steps=4, seed=5)
            session = Session()
            session.add_facts(churn.scenario.database)
            compiled = session.compile(churn.scenario.program)
            for query in churn.scenario.queries:
                session.query(query, program=compiled)
            for step in churn.steps:
                session.apply(step)
            assert len(Constant._table) > baseline

        gc.collect()
        baseline = len(Constant._table)
        serve_churn()
        gc.collect()
        assert len(Constant._table) == baseline


_PICKLE_IN_CHILD = """
import pickle, sys
from repro.core.atoms import Atom
from repro.core.spans import AtomSpan, Span
from repro.core.terms import Constant, Null, Variable

atoms = [
    Atom("e", (Constant("a"), Constant(7))),
    Atom("r", (Variable("X"), Null(4, 2), Constant("a"))),
    Atom("e", (Constant("a"), Constant(7)), AtomSpan(Span.point(1, 1))),
]
terms = [Constant("a"), Constant(7), Variable("X"), Null(4)]
sys.stdout.buffer.write(pickle.dumps((atoms, terms)))
"""


class TestPicklingAcrossProcesses:
    """Interned hashes are per-process: what another process pickled
    must rebuild its hash and re-intern its terms on load."""

    def _load_from_child(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        payload = subprocess.run(
            [sys.executable, "-c", _PICKLE_IN_CHILD],
            env=env, capture_output=True, check=True,
        ).stdout
        return pickle.loads(payload)

    def test_atoms_and_terms_survive_the_process_boundary(self):
        from repro.core.atoms import Atom

        atoms, terms = self._load_from_child()
        local = [
            Atom("e", (Constant("a"), Constant(7))),
            Atom("r", (Variable("X"), Null(4), Constant("a"))),
            Atom("e", (Constant("a"), Constant(7))),
        ]
        for loaded, here in zip(atoms, local):
            assert loaded == here
            assert hash(loaded) == hash(here)
            assert loaded in {here}
            assert here in set(atoms)
        assert atoms[0].args[0] is Constant("a")
        assert atoms[1].args[0] is Variable("X")
        assert atoms[2].span is not None
        assert terms[:3] == [Constant("a"), Constant(7), Variable("X")]
        assert terms[0] is Constant("a")
        assert terms[2] is Variable("X")
        assert terms[3] == Null(4) and hash(terms[3]) == hash(Null(4))

    def test_checkpoint_written_by_another_process(self, tmp_path):
        # The sharded store's warm-restart checkpoint is the one place
        # atoms are pickled to disk (spilled pages hold term ids only,
        # and the parallel runner uses threads).
        from repro.core.atoms import Atom
        from repro.storage import StateDirectory

        script = _PICKLE_IN_CHILD.split("terms =")[0] + (
            "from repro.storage.sharded.state import SavedState, StateDirectory\n"
            f"StateDirectory({str(tmp_path)!r}).save(SavedState("
            "program_key='k', store_name='sharded', version=1, "
            "edb=tuple(atoms)))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        state = StateDirectory(tmp_path).load("k")
        edb = set(state.edb)
        assert Atom("e", (Constant("a"), Constant(7))) in edb
        assert Atom("r", (Variable("X"), Null(4), Constant("a"))) in edb
        assert state.edb[0].args[0] is Constant("a")
