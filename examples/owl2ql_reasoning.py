#!/usr/bin/env python3
"""Ontological reasoning with the paper's Example 3.3 (OWL 2 QL core).

The six TGDs implement the heart of the OWL 2 direct semantics
entailment regime: subclass closure, type propagation, property
restrictions (with value invention!), and inverse properties.  The
program is warded and piece-wise linear, so the space-efficient engine
applies.

Run:  python examples/owl2ql_reasoning.py
"""

from repro import parse_program, parse_query, certain_answers
from repro.analysis import is_piecewise_linear, wardedness_report


ONTOLOGY = """
    % ---- terminology -------------------------------------------------
    subClass(phd_student, student).
    subClass(student, person).
    subClass(professor, staff).
    subClass(staff, person).

    % every student is enrolled in something; what one is enrolled in
    % is course-like (via the inverse property)
    restriction(student, enrolledIn).
    inverse(enrolledIn, hasEnrolled).
    restriction(course_like, hasEnrolled).

    % ---- assertions ---------------------------------------------------
    type(alice, phd_student).
    type(bob, professor).
    type(carol, student).

    % ---- Example 3.3 rules ---------------------------------------------
    subClassStar(X, Y) :- subClass(X, Y).
    subClassStar(X, Z) :- subClassStar(X, Y), subClass(Y, Z).
    type(X, Z)         :- type(X, Y), subClassStar(Y, Z).
    triple(X, Z, W)    :- type(X, Y), restriction(Y, Z).
    triple(Z, W, X)    :- triple(X, Y, Z), inverse(Y, W).
    type(X, W)         :- triple(X, Y, Z), restriction(W, Y).
"""


def main() -> None:
    program, database = parse_program(ONTOLOGY)

    print("== wardedness report (the paper's underlined wards) ==")
    report = wardedness_report(program)
    for info in report.per_tgd:
        if info.needs_ward:
            print(f"  ward {info.ward}  in  {info.tgd}")
    print(f"warded: {report.warded}, "
          f"piece-wise linear: {is_piecewise_linear(program)}")

    print("\n== inferred types ==")
    query = parse_query("q(X, C) :- type(X, C).")
    for entity, cls in sorted(certain_answers(query, database, program),
                              key=str):
        print(f"  type({entity}, {cls})")

    print("\n== existential reasoning ==")
    # alice must be enrolled in *something* (an invented witness), and
    # that something is course-like.
    enrolled = parse_query("q() :- triple(alice, enrolledIn, W).")
    print("  alice enrolledIn some W:        "
          f"{certain_answers(enrolled, database, program) == {()}}")
    course = parse_query("q() :- triple(alice, enrolledIn, W), type(W, course_like).")
    print("  ... and W is course-like:       "
          f"{certain_answers(course, database, program) == {()}}")
    named = parse_query("q(W) :- triple(alice, enrolledIn, W).")
    print("  named witnesses (none certain): "
          f"{certain_answers(named, database, program)}")


if __name__ == "__main__":
    main()
