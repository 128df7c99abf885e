"""Unit tests for chunk-based resolution and IDO resolvents."""


from repro.core.atoms import Atom
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.lang.parser import parse_query
from repro.prooftree.canonical import canonical_form
from repro.prooftree.resolution import ido_resolvents

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a = Constant("a")


def tc_step() -> TGD:
    # t(X,Z) :- e(X,Y), t(Y,Z) — with its own variable names.
    u, v, w = Variable("u"), Variable("v"), Variable("w")
    return TGD((Atom("e", (u, v)), Atom("t", (v, w))), (Atom("t", (u, w)),))


def tc_base() -> TGD:
    u, v = Variable("u"), Variable("v")
    return TGD((Atom("e", (u, v)),), (Atom("t", (u, v)),))


class TestResolvents:
    def test_base_resolution(self):
        q = parse_query("q(X,Y) :- t(X,Y).")
        results = list(ido_resolvents(q, tc_base()))
        assert len(results) == 1
        body = results[0].query.atoms
        assert len(body) == 1 and body[0].predicate == "e"
        # IDO: the outputs keep their names.
        assert body[0].args == (X, Y)

    def test_step_resolution_grows_body(self):
        q = parse_query("q(X,Y) :- t(X,Y).")
        results = list(ido_resolvents(q, tc_step()))
        assert len(results) == 1
        body = results[0].query.atoms
        assert sorted(a.predicate for a in body) == ["e", "t"]

    def test_unsound_step_blocked(self):
        # The paper's example: q(X) ← r(X,Y), s(Y) with P(x') → ∃y' R(x',y').
        q = parse_query("q(X) :- r(X,Y), s(Y).")
        xp, yp = Variable("xp"), Variable("yp")
        tgd = TGD((Atom("p", (xp,)),), (Atom("r", (xp, yp)),))
        assert list(ido_resolvents(q, tgd)) == []

    def test_ido_rejects_output_merging(self):
        # Unifying two output variables is not identity-on-outputs.
        q = parse_query("q(X,Y) :- t(X,X), t(X,Y).")
        u, v = Variable("u"), Variable("v")
        tgd = TGD((Atom("e", (u, v)),), (Atom("t", (u, u)),))
        # Resolving t(X,Y) with head t(u,u) forces X = Y: not IDO, so the
        # only resolvent is the one through the chunk {t(X,X)}.
        (resolvent,) = ido_resolvents(q, tgd)
        assert resolvent.unifier.s1 == (Atom("t", (X, X)),)
        assert resolvent.query.output == q.output
        assert Atom("t", (X, Y)) in resolvent.query.atoms

    def test_resolvent_body_is_set(self):
        # Duplicate atoms collapse (CQ bodies are sets).
        q = parse_query("q(X) :- t(X,X).")
        u = Variable("u")
        tgd = TGD((Atom("e", (u, u)),), (Atom("t", (u, u)),))
        results = list(ido_resolvents(q, tgd))
        assert len(results) == 1
        assert results[0].query.atoms == (Atom("e", (X, X)),)

    def test_constants_survive_resolution(self):
        q = parse_query("q(Y) :- t(a, Y).")
        results = list(ido_resolvents(q, tc_base()))
        assert results[0].query.atoms[0].args[0] == a

    def test_unfolding_chain_simulates_paths(self):
        # Repeated resolution unfolds t into e-chains: after two steps a
        # query over t becomes e(X,u), e(u,v), t(v,Y) — up to renaming.
        q = parse_query("q(X,Y) :- t(X,Y).")
        (step1,) = list(ido_resolvents(q, tc_step()))
        two_step = [
            r.query
            for r in ido_resolvents(step1.query, tc_step())
            if sum(1 for at in r.query.atoms if at.predicate == "e") == 2
        ]
        assert two_step
        expected = parse_query("q(X,Y) :- e(X,U), e(U,V), t(V,Y).")
        assert any(
            canonical_form(got.atoms, {X, Y})
            == canonical_form(expected.atoms, {X, Y})
            for got in two_step
        )


class TestMultipleUnifiers:
    def test_multiple_chunks_multiple_resolvents(self):
        q = parse_query("q() :- t(X,Y), t(Y,Z).")
        results = list(ido_resolvents(q, tc_base()))
        # each t-atom alone, plus the two-atom chunk (t(X,Y),t(Y,Z) both
        # unify with head t(u,v) forcing X=Y=Z chain collapse)
        assert len(results) >= 2
