"""The counters no answer digest can see, pinned across the matcher swap.

The engines pull their rule joins from ``repro.core.match``.  Here each
engine runs twice — as shipped, and with the ``homomorphisms``-based
joins of ``tests/property/reference_matcher.py`` patched back in — and
the work counters must agree: per-round ``considered`` of the semi-naive
interpreter, ``MaintenanceReport.totals()`` of a churn stream (DRed's
rederive stage edits the store *while* it pulls matches, so ``matches``
is order-sensitive), and ``fired`` / ``suppressed`` / null numbering of
a restricted chase.
"""

from contextlib import ExitStack
from unittest import mock

import pytest

from repro.api import Session
from repro.benchsuite.churn import generate_churn
from repro.chase.runner import chase
from repro.chase.termination import DepthPolicy
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.match import AtomSet
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.datalog.seminaive import delta_rounds, seminaive
from repro.incremental import MaintenanceStats
from repro.incremental.maintain import FixpointMaintainer, _derived_heads
from repro.lang.parser import parse_program

from ..property import reference_matcher as reference


def reference_joins() -> ExitStack:
    """Every compiled rule join replaced by its reference."""
    stack = ExitStack()
    for target in (
        "repro.datalog.seminaive.rule_heads",
        "repro.incremental.maintain.rule_heads",
    ):
        stack.enter_context(mock.patch(target, reference.rule_heads))
    stack.enter_context(mock.patch.object(
        FixpointMaintainer, "_derivable", reference.derivable
    ))
    stack.enter_context(mock.patch(
        "repro.chase.runner.triggers_for_new_atom",
        reference.triggers_for_new_atom,
    ))
    return stack


def both(run):
    """``run()`` as shipped and on the reference joins."""
    shipped = run()
    with reference_joins():
        return shipped, run()


def chain(n, rules):
    facts = " ".join(f"e(n{i},n{i+1})." for i in range(n - 1))
    return parse_program(facts + rules)


def test_seminaive_considered_per_round_on_the_e2_chain():
    program, database = chain(32, """
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
    """)

    def run():
        result = seminaive(database, program)
        return result.per_round_considered, result.per_round_derived

    shipped, on_reference = both(run)
    assert shipped == on_reference
    # Round 1 copies the 31 edges; round k+1 extends the 32-k paths of
    # length k that do not start at n0; the last round finds nothing.
    assert shipped[0] == tuple(range(31, -1, -1))
    assert shipped[1] == tuple(range(31, 0, -1)) + (0,)


#: Linear TC with two non-recursive strata on top — and a
#: doubling variant whose rederive waves join survivors with survivors.
DOUBLING = """
    t(X,Y) :- e(X,Y).
    t(X,Z) :- t(X,Y), t(Y,Z).
    reach(X) :- t(X,Y).
"""


@pytest.mark.parametrize("rules", [None, DOUBLING], ids=["linear", "doubling"])
def test_maintenance_totals_on_a_fixed_churn_stream(rules):
    churn = generate_churn(
        vertices=32, edges=64, clusters=4, steps=6, churn=0.1, seed=2019
    )

    def run():
        session = Session()
        session.add_facts(churn.scenario.database)
        if rules is None:
            session.compile(churn.scenario.program)
        else:
            session.compile(parse_program(rules)[0])
        answers = [len(session.query("q(X,Y) :- t(X,Y).", rewrite="none").to_set())]
        totals = []
        for step in churn.steps:
            stats = session.apply(step).totals()
            totals.append((
                stats.matches, stats.overdeleted, stats.rederived,
                stats.removed, stats.derived_added,
            ))
            answers.append(
                len(session.query("q(X) :- reach(X).", rewrite="none").to_set())
            )
        return totals, answers

    shipped, on_reference = both(run)
    assert shipped == on_reference
    assert sum(matches for matches, *_ in shipped[0]) > 0
    assert sum(rederived for _, _, rederived, *_ in shipped[0]) > 0


def test_restricted_chase_counters_and_null_numbering():
    program, database = parse_program("""
        person(a). person(b). knows(a,b). knows(b,a).
        parent(X,P) :- person(X).
        person(P) :- parent(X,P).
        knows(P,Q) :- parent(X,P), parent(Y,Q), knows(X,Y).
        friend(X,Y) :- knows(X,Y), knows(Y,X).
    """)

    def run():
        result = chase(database, program, policy=DepthPolicy(3), max_steps=400)
        return (
            result.fired, result.suppressed, result.saturated,
            result.null_factory.fresh().label, result.instance.atoms(),
        )

    shipped, on_reference = both(run)
    assert shipped == on_reference
    assert shipped[0] > 10 and shipped[1] > 0 and shipped[3] > 3


def test_a_non_ground_head_is_refused_before_the_first_round():
    """Both Datalog paths, and nothing derived on either of them."""
    X, Y, W = Variable("X"), Variable("Y"), Variable("W")
    good = TGD((Atom("e", (X, Y)),), (Atom("t", (X, Y)),))
    bad = TGD((Atom("e", (X, Y)),), (Atom("t", (X, W)),))
    edge = Atom("e", (Constant("a"), Constant("b")))
    store = Instance([edge])
    stats = MaintenanceStats()
    for pull in (
        lambda: next(iter(delta_rounds(store, AtomSet([edge]), [good, bad]))),
        lambda: next(_derived_heads([good, bad], store, AtomSet([edge]), stats)),
    ):
        with pytest.raises(ValueError, match="no body atom binds"):
            pull()
    assert store.atoms() == {edge} and stats.matches == 0
