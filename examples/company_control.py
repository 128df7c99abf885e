#!/usr/bin/env python3
"""Company control: the Vadalog industrial motivating scenario.

A financial knowledge graph of company ownerships; an entity controls a
company directly or through a chain of controlled intermediaries, and
every controlled company must file a "person of significant control"
record with an invented case identifier (value invention).  The program
is warded and piece-wise linear — exactly the fragment the paper argues
covers most industrial workloads.

Run:  python examples/company_control.py
"""

from repro import parse_program, parse_query, certain_answers
from repro.analysis import is_piecewise_linear, is_warded
from repro.engine import JoinOptimizer, LinearForestGuide, OperatorNetwork


SCENARIO = """
    % ownership edges: owner, owned
    own(meridian_holdings, atlas_bank).
    own(atlas_bank, coastal_insurance).
    own(coastal_insurance, harbor_credit).
    own(meridian_holdings, polar_securities).
    own(polar_securities, harbor_credit).
    own(quartz_capital, meridian_holdings).

    % control: direct ownership, extended through controlled companies
    control(X, Y) :- own(X, Y).
    control(X, Z) :- control(X, Y), own(Y, Z).

    % every control relationship requires a PSC filing (invented id)
    psc(X, Y, K) :- control(X, Y).
"""


def main() -> None:
    program, database = parse_program(SCENARIO)
    print(f"warded: {is_warded(program)}, "
          f"piece-wise linear: {is_piecewise_linear(program)}")

    print("\n== who controls harbor_credit? ==")
    query = parse_query("q(X) :- control(X, harbor_credit).")
    for (controller,) in sorted(certain_answers(query, database, program),
                                key=str):
        print(f"  {controller}")

    print("\n== quartz_capital's full portfolio ==")
    query = parse_query("q(Y) :- control(quartz_capital, Y).")
    for (company,) in sorted(certain_answers(query, database, program),
                             key=str):
        print(f"  {company}")

    print("\n== every controlled company has a PSC filing ==")
    filing = parse_query("q() :- psc(quartz_capital, harbor_credit, K).")
    print(f"  filing exists: {certain_answers(filing, database, program) == {()}}")

    print("\n== streaming through the Section 7 operator network ==")
    network = OperatorNetwork(
        program,
        optimizer=JoinOptimizer(program, pwl_bias=True),
        guide=LinearForestGuide(),
    )
    result = network.run(database, max_atoms=5000)
    print(f"  events routed:          {result.events}")
    print(f"  atoms derived:          {result.derived}")
    print(f"  intermediate bindings:  {result.intermediate_bindings}")
    print(f"  guide cuts:             {result.guide_cuts}")
    control_facts = result.instance.with_predicate("control")
    print(f"  control facts in fixpoint: {len(control_facts)}")


if __name__ == "__main__":
    main()
