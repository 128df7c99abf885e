"""Property tests: accepting runs are certificates, on random
reachability instances.

Every positive decision's trace must verify from scratch
(``reference_prooftree.verify_trace``: rebuilt from q, c̄ and D, each
step a successor under a fresh oracle-free generator of the same
specialization mode, within the width bound, ending in the empty CQ);
every negative decision must produce none — and the accept/reject split
must match the semi-naive ground truth, in both modes.
"""

from hypothesis import given, settings, strategies as st

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.datalog.seminaive import datalog_answers
from repro.lang.parser import parse_program, parse_query
from repro.reasoning.pwl_ward import decide_pwl_ward

from .reference_prooftree import verify_trace

NODES = 5

edge_lists = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)).filter(
        lambda p: p[0] != p[1]
    ),
    min_size=1,
    max_size=9,
    unique=True,
)


def tc_program():
    program, _ = parse_program("""
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
    """)
    return program


def build_database(pairs) -> Database:
    database = Database()
    for x, y in pairs:
        database.add(Atom("e", (Constant(f"n{x}"), Constant(f"n{y}"))))
    return database


QUERY = parse_query("q(X,Y) :- t(X,Y).")
PROGRAM = tc_program()


@given(edge_lists, st.integers(0, NODES - 1), st.integers(0, NODES - 1))
@settings(max_examples=50, deadline=None)
def test_certificates_track_ground_truth(pairs, a, b):
    database = build_database(pairs)
    answer = (Constant(f"n{a}"), Constant(f"n{b}"))
    expected = answer in datalog_answers(QUERY, database, PROGRAM)

    for mode in ("guided", "exhaustive"):
        decision = decide_pwl_ward(
            QUERY, answer, database, PROGRAM, specialization=mode, trace=True
        )
        assert decision.accepted == expected
        if decision.accepted:
            assert verify_trace(
                decision.trace, QUERY, answer, database, PROGRAM,
                width_bound=decision.width_bound, specialization=mode,
            )
        else:
            assert decision.trace is None
