"""Unit tests for the reasoning ⇝ reachability bridge."""

import pytest

from repro.core.terms import Constant
from repro.lang.parser import parse_program, parse_query
from repro.reachability import DFSReachability, TwoHopIndex, configuration_graph
from repro.reachability.bridge import ACCEPT
from repro.reasoning import decide_pwl_ward

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


def tc_setup():
    program, database = parse_program("""
        e(a,b). e(b,c). e(c,d).
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
    """)
    query = parse_query("q(X,Y) :- t(X,Y).")
    return program, database, query


class TestConfigurationGraph:
    def test_contains_accept_node(self):
        program, database, query = tc_setup()
        cfg = configuration_graph(query, database, program, width_bound=3)
        assert ACCEPT in cfg.graph
        assert cfg.accept is ACCEPT

    def test_every_candidate_has_a_source(self):
        program, database, query = tc_setup()
        cfg = configuration_graph(query, database, program, width_bound=3)
        assert len(cfg.source_of) == 16  # 4 constants, arity 2

    def test_certainty_matches_engine(self):
        program, database, query = tc_setup()
        cfg = configuration_graph(query, database, program, width_bound=3)
        index = TwoHopIndex(cfg.graph)
        for x in (a, b, c, d):
            for y in (a, b, c, d):
                expected = decide_pwl_ward(
                    query, (x, y), database, program
                ).accepted
                assert cfg.certain((x, y), index) == expected, (x, y)

    def test_certainty_with_dfs_baseline(self):
        program, database, query = tc_setup()
        cfg = configuration_graph(query, database, program, width_bound=3)
        index = DFSReachability(cfg.graph)
        assert cfg.certain((a, d), index)
        assert not cfg.certain((d, a), index)

    def test_unknown_tuple_is_not_certain(self):
        program, database, query = tc_setup()
        cfg = configuration_graph(
            query, database, program, width_bound=3, answers=[(a, d)]
        )
        index = DFSReachability(cfg.graph)
        assert cfg.certain((a, d), index)
        assert not cfg.certain((d, a), index)  # not a materialized source

    def test_explicit_answers_restrict_sources(self):
        program, database, query = tc_setup()
        cfg = configuration_graph(
            query, database, program, width_bound=3,
            answers=[(a, b), (a, d)],
        )
        assert set(cfg.source_of) == {(a, b), (a, d)}

    def test_max_states_truncates(self):
        program, database, query = tc_setup()
        cfg = configuration_graph(
            query, database, program, width_bound=3, max_states=2
        )
        assert cfg.truncated

    def test_membership_enforced(self):
        program, database = parse_program("""
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        with pytest.raises(ValueError, match="piece-wise linear"):
            configuration_graph(query, database, program)

    def test_cyclic_data(self):
        program, database = parse_program("""
            e(a,b). e(b,a).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        cfg = configuration_graph(query, database, program, width_bound=3)
        index = TwoHopIndex(cfg.graph)
        assert cfg.certain((a, a), index)
        assert cfg.certain((b, b), index)
        assert cfg.certain((a, b), index)


class TestExistentials:
    def test_bridge_handles_value_invention(self):
        program, database = parse_program("""
            p(c). p(d).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        query = parse_query("q(X) :- r(X,Y).")
        cfg = configuration_graph(query, database, program, width_bound=4)
        index = TwoHopIndex(cfg.graph)
        for constant in (c, d):
            expected = decide_pwl_ward(
                query, (constant,), database, program
            ).accepted
            assert cfg.certain((constant,), index) == expected
