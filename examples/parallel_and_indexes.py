#!/usr/bin/env python3
"""Parallel decisions and reachability indexes: the §7 future-work demo.

Two of the paper's research directions on one workload:

1. *NC² parallelizability* — the per-tuple certainty decisions of an
   all-pairs query workload are independent; a thread pool computes the
   same answer set, and the measured cost profile shows near-linear
   multi-core scaling headroom.
2. *Reachability indexes* — the linear proof search explores a finite
   configuration graph; materializing it once turns every certainty
   check into a 2-hop label intersection (zero graph traversal).

Run:  python examples/parallel_and_indexes.py
"""

import random

from repro import parse_program, parse_query
from repro.api import certain_answers
from repro.core.terms import Constant
from repro.parallel import parallel_certain_answers, speedup_curve
from repro.reachability import TwoHopIndex, configuration_graph


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
    profile = parallel_certain_answers(
        query, database, program, workers=4, probe_atoms=0, report=True
    )
    print(f"sequential answers: {len(sequential)}")
    print(f"parallel answers:   {len(profile.answers)} "
          f"(equal: {profile.answers == sequential})")
    print(f"independent decisions: {profile.decided_tuples}, "
          f"work {profile.total_work} visits, span {profile.span}")

    costs = list(profile.per_tuple_cost.values())
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
