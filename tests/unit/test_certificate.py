"""Unit tests for accepting runs as certificates (Theorem 4.8).

``decide_pwl_ward(..., trace=True)`` returns the accepting run; the
test-side verifier ``reference_prooftree.verify_trace`` re-checks it
from (q, c̄, D) alone and must reject a forged one.
"""

import pytest

from repro.core.atoms import Atom
from repro.core.terms import Constant
from repro.lang.parser import parse_program, parse_query
from repro.reasoning.pwl_ward import decide_pwl_ward
from repro.reasoning.state import State

from ..property.reference_prooftree import InvalidTrace, verify_trace

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


def tc_setup():
    program, database = parse_program("""
        e(a,b). e(b,c). e(c,d).
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
    """)
    query = parse_query("q(X,Y) :- t(X,Y).")
    return program, database, query


def run(query, answer, database, program):
    return decide_pwl_ward(query, answer, database, program, trace=True)


def verify(trace, query, answer, database, program, width_bound):
    return verify_trace(
        trace, query, answer, database, program,
        width_bound=width_bound, specialization="guided",
    )


class TestExtraction:
    def test_positive_yields_certificate(self):
        program, database, query = tc_setup()
        decision = run(query, (a, d), database, program)
        assert decision.accepted
        assert decision.trace[-1].is_accepting()

    def test_negative_yields_none(self):
        program, database, query = tc_setup()
        decision = run(query, (d, a), database, program)
        assert not decision.accepted and decision.trace is None

    def test_widths_respect_bound(self):
        program, database, query = tc_setup()
        decision = run(query, (a, d), database, program)
        assert max(state.width() for state in decision.trace) <= decision.width_bound

    def test_direct_database_match_gives_single_state(self):
        program, database, query = tc_setup()
        # t(a, b) resolves to e(a, b) ∈ D; the shortest run still needs
        # the base resolution step.
        decision = run(query, (a, b), database, program)
        assert decision.accepted
        assert len(decision.trace) >= 2


class TestVerification:
    def test_extracted_certificates_verify(self):
        program, database, query = tc_setup()
        for answer in [(a, b), (a, c), (a, d), (b, d)]:
            decision = run(query, answer, database, program)
            assert verify(decision.trace, query, answer, database, program,
                          decision.width_bound)

    def test_tampered_initial_state_rejected(self):
        program, database, query = tc_setup()
        decision = run(query, (a, d), database, program)
        # The run for (a, d) claimed for another tuple.
        with pytest.raises(InvalidTrace, match="initial configuration"):
            verify(decision.trace, query, (a, c), database, program,
                   decision.width_bound)

    def test_tampered_transition_rejected(self):
        program, database, query = tc_setup()
        decision = run(query, (a, d), database, program)
        # Splice in an unreachable configuration.
        trace = list(decision.trace)
        trace[1] = State.make((Atom("t", (d, d)),), database)
        with pytest.raises(InvalidTrace, match="not a successor"):
            verify(trace, query, (a, d), database, program, decision.width_bound)

    def test_truncated_certificate_rejected(self):
        program, database, query = tc_setup()
        decision = run(query, (a, d), database, program)
        with pytest.raises(InvalidTrace, match="not the empty CQ"):
            verify(decision.trace[:-1], query, (a, d), database, program,
                   decision.width_bound)

    def test_width_bound_violation_rejected(self):
        program, database, query = tc_setup()
        decision = run(query, (a, d), database, program)
        with pytest.raises(InvalidTrace, match="width bound"):
            verify(decision.trace, query, (a, d), database, program, 0)


class TestCertifiedDecision:
    def test_positive_verified_end_to_end(self):
        program, database, query = tc_setup()
        decision = run(query, (a, d), database, program)
        assert decision.accepted
        assert verify(decision.trace, query, (a, d), database, program,
                      decision.width_bound)

    def test_negative_has_no_witness(self):
        program, database, query = tc_setup()
        decision = run(query, (d, a), database, program)
        assert not decision.accepted and decision.trace is None

    def test_existential_program_certifiable(self):
        program, database = parse_program("""
            p(c).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        query = parse_query("q(X) :- r(X,Y).")
        decision = run(query, (c,), database, program)
        assert decision.accepted
        assert verify(decision.trace, query, (c,), database, program,
                      decision.width_bound)

    def test_all_chain_pairs(self):
        program, database, query = tc_setup()
        reachable = {(a, b), (b, c), (c, d), (a, c), (b, d), (a, d)}
        for x in (a, b, c, d):
            for y in (a, b, c, d):
                decision = run(query, (x, y), database, program)
                assert decision.accepted == ((x, y) in reachable)
                if decision.accepted:
                    assert verify(decision.trace, query, (x, y), database,
                                  program, decision.width_bound)


class TestSpecializationModes:
    def test_exhaustive_search_still_certifiable(self):
        # The verifier replays the mode the search ran with: the
        # paper-literal steps bind one variable at a time, which is no
        # guided step when the atom has two.
        program, database = parse_program("e(a,b). t(X,Y) :- e(X,Y).")
        query = parse_query("q() :- e(X,Y).")
        decision = decide_pwl_ward(
            query, (), database, program, specialization="exhaustive", trace=True
        )
        assert decision.accepted and len(decision.trace) == 3
        assert verify_trace(
            decision.trace, query, (), database, program,
            width_bound=decision.width_bound, specialization="exhaustive",
        )
        with pytest.raises(InvalidTrace, match="not a successor"):
            verify(decision.trace, query, (), database, program, decision.width_bound)
