#!/usr/bin/env python3
"""SPARQL-style negation over the OWL 2 QL entailment core.

The paper's key property (2): "After adding a very mild and easy to
handle negation, the language is able to express SPARQL reasoning
under the OWL 2 QL entailment regime."  The mild negation is
*stratified* negation — it never wraps around recursion.

This example runs the Example 3.3 subclass/type machinery and then
asks two SPARQL-flavoured questions that need NOT EXISTS:

* which declared classes are uninhabited under entailment (no
  instance, even through subclass reasoning)?
* which pairs of entities are "class-separated" (no common inferred
  class)?

Run:  python examples/sparql_negation.py
"""

from repro.datalog.negation import (
    negation_stratification,
    stratified_answers,
)
from repro.lang.parser import parse_program, parse_query

ONTOLOGY = """
    % class declarations
    class(person). class(employee). class(manager).
    class(device). class(robot).

    % the taxonomy
    subClass(employee, person).
    subClass(manager, employee).
    subClass(robot, device).

    % instance data
    type(alice, manager).
    type(bob, employee).
    type(printer, device).
    entity(alice). entity(bob). entity(printer).

    % Example 3.3 core: subclass closure + type transfer
    subClassStar(X, Y) :- subClass(X, Y).
    subClassStar(X, Z) :- subClassStar(X, Y), subClass(Y, Z).
    type(X, Z)         :- type(X, Y), subClassStar(Y, Z).

    % SPARQL NOT EXISTS, stratified on top of the recursion:
    inhabited(C)  :- type(X, C).
    empty(C)      :- class(C), not inhabited(C).

    shared(X, Y)    :- type(X, C), type(Y, C).
    separated(X, Y) :- entity(X), entity(Y), not shared(X, Y).
"""


def main() -> None:
    program, database = parse_program(ONTOLOGY)
    strata = negation_stratification(program)
    print(f"{len(program)} rules stratify into {len(strata)} strata:")
    for index, layer in enumerate(strata):
        heads = sorted({rule.head[0].predicate for rule in layer})
        negated = sorted(
            {atom.predicate for rule in layer for atom in rule.negated}
        )
        suffix = f" (negates: {', '.join(negated)})" if negated else ""
        print(f"  stratum {index}: {', '.join(heads)}{suffix}")

    print("\nuninhabited classes under entailment:")
    for (cls,) in sorted(
        stratified_answers(parse_query("q(C) :- empty(C)."),
                           database, program),
        key=str,
    ):
        print(f"  {cls}")

    print("\nclass-separated entity pairs:")
    for x, y in sorted(
        stratified_answers(parse_query("q(X, Y) :- separated(X, Y)."),
                           database, program),
        key=str,
    ):
        print(f"  {x} ⟂ {y}")

    print(
        "\n(alice and bob share `person` through the subclass closure, "
        "so only the printer is separated from them.)"
    )


if __name__ == "__main__":
    main()
