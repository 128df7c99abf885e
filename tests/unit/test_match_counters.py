"""The counters no answer digest can see, pinned across the matcher swap.

The engines pull their rule joins from ``repro.core.match``.  Here each
engine runs twice — as shipped, and with the ``homomorphisms``-based
joins of ``tests/property/reference_matcher.py`` patched back in — and
the work counters must agree: per-round ``considered`` of the semi-naive
interpreter, ``MaintenanceReport.totals()`` of a churn stream (DRed's
rederive stage edits the store *while* it pulls matches, so ``matches``
is order-sensitive), and ``fired`` / ``suppressed`` / null numbering of
a restricted chase.  A spy store pins what one compiled step costs: a
step that binds nothing is one ``__contains__`` and no probe.
"""

from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.api import Session
from repro.benchsuite.churn import generate_churn
from repro.chase.runner import chase
from repro.chase.termination import DepthPolicy
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.match import AtomSet, walk
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.datalog.seminaive import delta_rounds, seminaive
from repro.incremental import MaintenanceStats
from repro.incremental.maintain import FixpointMaintainer, _derived_heads
from repro.lang.parser import parse_program, parse_query

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


class Spy(Instance):
    """An instance that counts how the joins ask it."""

    def __init__(self, atoms=()):
        super().__init__(atoms)
        self.calls = Counter()

    def __contains__(self, atom):
        self.calls["contains"] += 1
        return super().__contains__(atom)

    def matching_bound(self, predicate, bound, arity=None):
        self.calls["matching_bound"] += 1
        return super().matching_bound(predicate, bound, arity)


a, b, c, d = (Constant(name) for name in "abcd")


def t(*terms):
    return Atom("t", terms)


def e(*terms):
    return Atom("e", terms)


def only_rule(text):
    (tgd,) = parse_program(text)[0]
    return tgd


def test_a_step_that_binds_nothing_is_one_membership_test():
    """The second ``t`` of ``mutual`` is fed both its variables: a
    pinned walk asks the store once per delta atom and never probes,
    and a full walk probes only for the first step."""
    mutual = only_rule("mutual(X,Y) :- t(X,Y), t(Y,X).")
    assert [step.binds == () for step in mutual.matcher.full.steps] == [False, True]
    store = Spy([t(a, b), t(b, a), t(b, c)])
    images = ((t(a, b), t(b, a)), (t(b, a), t(a, b)))
    for form, image in zip(mutual.matcher.pinned, images):
        store.calls.clear()
        got = [
            tuple(matched[depth] for depth in form.depth_of)
            for _, matched in walk(form, store, AtomSet([t(a, b)]))
        ]
        assert got == [image]
        assert store.calls == {"contains": 1}
    store.calls.clear()
    assert sum(1 for _ in walk(mutual.matcher.full, store)) == 2
    assert store.calls == {"matching_bound": 1, "contains": 3}


def test_the_head_first_form_ends_in_a_membership_test():
    """``_derivable``'s form of ``t(X,Z) :- e(X,Y), t(Y,Z)``: the head
    binds X and Z, ``t(Y,Z)`` binds Y, and ``e(X,Y)`` is asked once per
    ``t`` atom into Z."""
    rule = only_rule("t(X,Z) :- e(X,Y), t(Y,Z).")
    form = rule.matcher.from_head
    assert [step.predicate for step in form.steps] == ["t", "t", "e"]
    assert form.steps[-1].binds == ()
    store = Spy([e(a, b), e(b, c), t(b, d), t(c, d), t(c, a)])
    assert sum(1 for _ in walk(form, store, AtomSet([t(a, d)]))) == 1
    assert store.calls == {"matching_bound": 1, "contains": 2}


def test_query_reads_use_the_membership_step():
    query = parse_query("q(X,Y) :- t(X,Y), t(Y,X).")
    store = Spy([t(a, b), t(b, a), t(b, c)])
    assert query.evaluate(store) == {(a, b), (b, a)}
    assert store.calls == {"matching_bound": 1, "contains": 3}
    store.calls.clear()
    assert query.evaluate_delta(store, [t(a, b)]) == {(a, b), (b, a)}
    assert store.calls == {"contains": 2}


def test_counters_on_the_churn_program_are_unchanged():
    """``mutual`` and the head-first form of the recursive rule run as
    membership tests here; every count is the one the probing joins
    gave."""
    churn = generate_churn(
        vertices=32, edges=64, clusters=4, steps=6, churn=0.1, seed=2019
    )
    result = seminaive(churn.scenario.database, churn.scenario.program)
    assert result.per_round_considered == (64, 200, 309, 202, 83, 19, 6, 0)
    session = Session()
    session.add_facts(churn.scenario.database)
    session.compile(churn.scenario.program)
    session.query("q(X,Y) :- mutual(X,Y).", rewrite="none").to_set()
    matches = [session.apply(step).totals().matches for step in churn.steps]
    assert matches == [319, 237, 294, 227, 289, 245]


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
