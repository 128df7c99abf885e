"""Unit tests for TGDs and the single-head normal form."""

import pickle

import pytest

from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD, single_head_program_atoms

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")


def tgd(body, head, label=""):
    return TGD(tuple(body), tuple(head), label=label)


class TestTGDStructure:
    def test_frontier_and_existentials(self):
        t = tgd([Atom("p", (X, Y))], [Atom("r", (X, Z))])
        assert t.frontier() == {X}
        assert t.existential_variables() == {Z}
        assert t.body_variables() == {X, Y}

    def test_is_full(self):
        assert tgd([Atom("p", (X,))], [Atom("r", (X,))]).is_full()
        assert not tgd([Atom("p", (X,))], [Atom("r", (X, Z))]).is_full()

    def test_empty_body_or_head_rejected(self):
        with pytest.raises(ValueError):
            TGD((), (Atom("r", (X,)),))
        with pytest.raises(ValueError):
            TGD((Atom("r", (X,)),), ())

    def test_rename_is_uniform(self):
        t = tgd([Atom("p", (X, Y))], [Atom("r", (X, Z))])
        renamed = t.rename("7")
        assert renamed.body[0].args[0] == Variable("X@7")
        # frontier structure preserved
        assert len(renamed.frontier()) == 1
        assert len(renamed.existential_variables()) == 1

    def test_validate_rejects_constants_by_default(self):
        t = tgd([Atom("p", (Constant("a"),))], [Atom("r", (X,))])
        with pytest.raises(ValueError, match="constant"):
            t.validate()
        t.validate(allow_constants=True)  # no raise

    def test_label_not_part_of_identity(self):
        t1 = tgd([Atom("p", (X,))], [Atom("r", (X,))], label="one")
        t2 = tgd([Atom("p", (X,))], [Atom("r", (X,))], label="two")
        assert t1 == t2


class TestMemoisedVariableSets:
    """The four variable sets are computed once per (frozen) TGD and
    handed to every caller, so they must be immutable and per-object."""

    ACCESSORS = (
        "body_variables", "head_variables", "frontier",
        "existential_variables",
    )

    def recomputed(self, t):
        body = {v for a in t.body for v in a.variables()}
        head = {v for a in t.head for v in a.variables()}
        return body, head, body & head, head - body

    def test_immutable_and_equal_to_recomputed(self):
        t = tgd([Atom("p", (X, Y)), Atom("s", (Y, W))],
                [Atom("r", (X, Z)), Atom("u", (Z, Z, Y))])
        for name, expected in zip(self.ACCESSORS, self.recomputed(t)):
            result = getattr(t, name)()
            assert result == expected, name
            assert getattr(t, name)() is result, name  # once
            with pytest.raises(AttributeError):
                result.add(W)
        assert t.variables() == {X, Y, Z, W}

    def test_memo_is_outside_identity(self):
        t = tgd([Atom("p", (X, Y))], [Atom("r", (X, Z))])
        fresh = tgd([Atom("p", (X, Y))], [Atom("r", (X, Z))])
        t.frontier()
        assert t == fresh and hash(t) == hash(fresh)

    def test_rename_and_single_head_copies_do_not_share_a_stale_memo(self):
        t = tgd([Atom("p", (X, Y))], [Atom("r", (X, Z)), Atom("u", (Y, Z))])
        for name in self.ACCESSORS:
            getattr(t, name)()  # warm the memo before deriving copies
        derived = [t.rename("7"), *single_head_program_atoms([t])]
        assert len(derived) == 4
        for copy in derived:
            for name, expected in zip(self.ACCESSORS, self.recomputed(copy)):
                assert getattr(copy, name)() == expected, (str(copy), name)
        assert derived[0].frontier() == {Variable("X@7"), Variable("Y@7")}
        assert derived[2].existential_variables() == frozenset()


class TestCompiledFormsStayOutsideIdentity:
    """``TGD.matcher`` (the body compiled once per pinned position) is a
    cache: it never shows in equality, hashing, ``repr`` or a pickle."""

    def make(self):
        return tgd([Atom("p", (X, Y)), Atom("s", (Y, W))], [Atom("r", (X, W))])

    def test_compiled_once_one_form_per_body_position(self):
        t = self.make()
        assert t.matcher is t.matcher
        assert len(t.matcher.pinned) == 2 and t.matcher.existential == ()
        assert tgd([Atom("p", (X,))], [Atom("r", (X, Z))]).matcher.existential

    def test_equality_hash_and_repr_ignore_them(self):
        cold, warm = self.make(), self.make()
        before = repr(warm)
        warm.matcher
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == before and "matcher" not in before

    def test_pickle_carries_the_fields_only(self):
        warm = self.make()
        warm.matcher, warm.frontier()
        cold_bytes = pickle.dumps(self.make())
        assert pickle.dumps(warm) == cold_bytes
        copy = pickle.loads(pickle.dumps(warm))
        assert copy == warm and "matcher" not in vars(copy)
        assert copy.label == warm.label and copy.matcher == warm.matcher


class TestSingleHead:
    def test_single_head_passthrough(self):
        t = tgd([Atom("p", (X,))], [Atom("r", (X,))])
        assert single_head_program_atoms([t]) == [t]

    def test_multi_head_split(self):
        t = tgd([Atom("p", (X, Y))], [Atom("r", (X, Z)), Atom("s", (Z, Y))])
        result = single_head_program_atoms([t])
        assert len(result) == 3
        aux_rule = result[0]
        assert aux_rule.head[0].predicate.startswith("Aux")
        # the auxiliary atom carries frontier + existential variables
        assert set(aux_rule.head[0].args) == {X, Y, Z}
        # each projection reproduces one original head atom
        projected = {r.head[0].predicate for r in result[1:]}
        assert projected == {"r", "s"}

    def test_single_head_preserves_certain_answers(self):
        from repro.chase.runner import chase
        from repro.core.instance import Database
        from repro.lang.parser import parse_query

        a = Constant("a")
        t = tgd([Atom("p", (X,))], [Atom("r", (X, Z)), Atom("s", (Z,))])
        program = Program([t])
        database = Database([Atom("p", (a,))])
        query = parse_query("q(X) :- r(X, W), s(W).")
        direct = chase(database, program).evaluate(query)
        normalized = chase(database, program.single_head()).evaluate(query)
        assert direct == normalized == {(a,)}

    def test_program_single_head_idempotent(self):
        t = tgd([Atom("p", (X,))], [Atom("r", (X,))])
        program = Program([t])
        assert program.single_head() is program


class TestProgram:
    def test_schema(self):
        program = Program([tgd([Atom("p", (X,))], [Atom("r", (X, Z))])])
        assert program.schema() == {"p": 1, "r": 2}

    def test_edb_idb_split(self):
        program = Program(
            [
                tgd([Atom("e", (X, Y))], [Atom("t", (X, Y))]),
                tgd([Atom("t", (X, Y))], [Atom("u", (X,))]),
            ]
        )
        assert program.extensional_predicates() == {"e"}
        assert program.intensional_predicates() == {"t", "u"}

    def test_max_body_size(self):
        program = Program(
            [
                tgd([Atom("e", (X, Y))], [Atom("t", (X, Y))]),
                tgd([Atom("e", (X, Y)), Atom("t", (Y, Z))], [Atom("t", (X, Z))]),
            ]
        )
        assert program.max_body_size() == 2

    def test_arity_conflict_rejected(self):
        program = Program(
            [
                tgd([Atom("e", (X,))], [Atom("t", (X,))]),
                tgd([Atom("e", (X, Y))], [Atom("t", (X,))]),
            ]
        )
        with pytest.raises(ValueError, match="arities"):
            program.schema()
