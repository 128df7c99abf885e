#!/usr/bin/env python3
"""Parallel decisions and reachability indexes: the §7 future-work demo.

Two of the paper's research directions on one workload:

1. *NC² parallelizability* — the per-tuple certainty decisions of an
   all-pairs query workload are independent; the per-tuple driver
   (probe off, so every candidate is decided) computes the same answer
   set, and the measured per-decision costs show near-linear multi-core
   scaling headroom.
2. *Reachability indexes* — the linear proof search explores a finite
   configuration graph; materializing it once turns every certainty
   check into a 2-hop label intersection (zero graph traversal).

Run:  python examples/parallel_and_indexes.py
"""

import random
from itertools import chain

from repro import parse_program, parse_query
from repro.api import certain_answers
from repro.core.terms import Constant
from repro.parallel import speedup_curve
from repro.reachability import TwoHopIndex, configuration_graph
from repro.reasoning import decide_pwl_ward, stream_proof_tree_answers
from repro.reasoning.abstraction import star_abstraction
from repro.reasoning.answers import candidate_tuples


def build_scenario(vertices: int = 14, edges: int = 26, seed: int = 7):
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < edges:
        a, b = rng.randrange(vertices), rng.randrange(vertices)
        if a != b:
            pairs.add((a, b))
    facts = " ".join(f"road(n{a},n{b})." for a, b in sorted(pairs))
    return parse_program(facts + """
        trip(X, Y) :- road(X, Y).
        trip(X, Z) :- road(X, Y), trip(Y, Z).
    """)


def main() -> None:
    program, database = build_scenario()
    query = parse_query("q(X, Y) :- trip(X, Y).")

    print("== 1. parallel per-tuple decisions ==")
    sequential = certain_answers(query, database, program, method="pwl")
    per_tuple = set(chain.from_iterable(stream_proof_tree_answers(
        query, database, program, method="pwl", probe_atoms=0
    )))
    print(f"sequential answers: {len(sequential)}")
    print(f"per-tuple answers:  {len(per_tuple)} "
          f"(equal: {per_tuple == sequential})")

    oracle = star_abstraction(database, program.single_head())
    costs = [
        decide_pwl_ward(
            query, candidate, database, program, oracle=oracle
        ).stats.visited
        for candidate in sorted(candidate_tuples(query, oracle), key=str)
    ]
    print(f"independent decisions: {len(costs)}, "
          f"work {sum(costs)} visits, span {max(costs)}")

    print("\nscaling curve (LPT makespan over measured costs):")
    for point in speedup_curve(costs, (1, 2, 4, 8)):
        print(f"  {point.workers:2d} workers: speedup {point.speedup:5.2f}x "
              f"(efficiency {point.efficiency:.0%})")

    print("\n== 2. certainty as indexed reachability ==")
    cfg = configuration_graph(query, database, program, width_bound=3)
    print(f"configuration graph: {len(cfg.graph)} states, "
          f"{cfg.graph.edge_count} transitions")
    index = TwoHopIndex(cfg.graph)
    print(f"2-hop index: {index.stats.label_entries} label entries")

    domain = [Constant(f"n{i}") for i in range(14)]
    agreements = 0
    certain = 0
    for a in domain:
        for b in domain:
            via_index = cfg.certain((a, b), index)
            certain += via_index
            agreements += via_index == ((a, b) in sequential)
    total = len(domain) ** 2
    print(f"checked {total} tuples against the engine: "
          f"{agreements}/{total} agree, {certain} certain")
    print(f"index query traversal: {index.stats.query_visits} node visits "
          "(all answers came from label intersections)")


if __name__ == "__main__":
    main()
