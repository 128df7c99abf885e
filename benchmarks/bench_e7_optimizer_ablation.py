"""E7 — the Section 7(1)/(2) engine optimizations (ablation).

Paper claims:

* §7(2): the optimizer "detects and uses piece-wise linearity for the
  purpose of join ordering", biasing joins to put the one mutually
  recursive body atom first — the delta-driven operand of a streaming
  engine;
* §7(1): guide structures (linear/warded forests) give "aggressive
  termination control", terminating existential recursion "as early as
  possible" with "a significant effect on the memory footprint".

Measured here, on the operator-network engine:

* join-order ablation — the same PWL recursion with the bias on/off:
  identical fixpoints, but the biased order explores a fraction of the
  intermediate join bindings;
* guide ablation — existential recursion with the linear-forest guide
  saturates in a handful of atoms, while the unguided network runs away
  until the atom cap.
"""

from __future__ import annotations

from repro.engine import (
    JoinOptimizer,
    LinearForestGuide,
    NoGuide,
    OperatorNetwork,
)
from repro.lang.parser import parse_program, parse_query

from workloads import skewed_join_program


def _run(program, database, *, bias: bool):
    network = OperatorNetwork(
        program, optimizer=JoinOptimizer(program, pwl_bias=bias)
    )
    return network.run(database, max_atoms=500000)


def test_e7_join_order_ablation(benchmark, report):
    program, database = skewed_join_program()
    query = parse_query("q(X,W) :- t(X,W).")

    biased = benchmark.pedantic(
        _run, (program, database), {"bias": True}, rounds=2, iterations=1
    )
    unbiased = _run(program, database, bias=False)

    rows = [
        ("PWL-biased (recursive atom first)", biased.intermediate_bindings,
         biased.derived, biased.saturated),
        ("as written (large relation first)", unbiased.intermediate_bindings,
         unbiased.derived, unbiased.saturated),
    ]
    ratio = unbiased.intermediate_bindings / biased.intermediate_bindings
    report(
        "E7: join-order ablation on the operator network (Section 7(2))",
        ("plan", "intermediate bindings", "derived", "saturated"),
        rows,
        notes=(
            f"binding ratio unbiased/biased = {ratio:.2f}×; "
            "identical fixpoints either way.",
        ),
    )

    assert biased.saturated and unbiased.saturated
    assert query.evaluate(biased.instance) == query.evaluate(unbiased.instance)
    # The headline ablation: the bias must cut the explored bindings
    # substantially (the exact factor depends on the data skew).
    assert ratio > 1.5


def test_e7_guide_termination_ablation(benchmark, report):
    program, database = parse_program("""
        p(c1). p(c2). p(c3).
        r(X,Z) :- p(X).
        p(Y) :- r(X,Y).
    """)

    def run_guided():
        network = OperatorNetwork(program, guide=LinearForestGuide())
        return network.run(database, max_atoms=5000)

    guided = benchmark(run_guided)
    unguided = OperatorNetwork(program, guide=NoGuide()).run(
        database, max_atoms=5000
    )

    report(
        "E7b: guide-structure termination control (Section 7(1))",
        ("configuration", "atoms", "saturated", "guide cuts"),
        [
            ("linear-forest guide", len(guided.instance), guided.saturated,
             guided.guide_cuts),
            ("no guide (atom cap 5000)", len(unguided.instance),
             unguided.saturated, unguided.guide_cuts),
        ],
        notes=(
            "The guide recognizes that re-invention along the "
            "P → ∃z R(x,z) → P cycle is isomorphic to what exists and "
            "cuts it — the 'aggressive termination control' of §7(1).",
        ),
    )

    assert guided.saturated
    assert not unguided.saturated
    assert len(guided.instance) < 50
    assert guided.guide_cuts >= 1
    # The guided instance is a sound core: every constant-only fact of
    # the guided run also appears in the runaway instance.
    guided_ground = {a for a in guided.instance if a.is_fact()}
    unguided_ground = {a for a in unguided.instance if a.is_fact()}
    assert guided_ground <= unguided_ground


def test_e7_guide_preserves_certain_answers(benchmark):
    """Guided network answers equal the chase-probe certain answers."""
    from repro.api import certain_answers

    program, database = parse_program("""
        p(c1). p(c2).
        r(X,Z) :- p(X).
        p(Y) :- r(X,Y).
        q0(X) :- r(X,Y).
    """)
    query = parse_query("q(X) :- q0(X).")

    def run():
        network = OperatorNetwork(program, guide=LinearForestGuide())
        return network.run(database, max_atoms=5000)

    result = benchmark(run)
    network_answers = {
        t for t in query.evaluate(result.instance)
    }
    reference = certain_answers(query, database, program, method="pwl")
    assert network_answers == reference
