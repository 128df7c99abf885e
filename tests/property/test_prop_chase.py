"""Property-based tests for the chase on random Datalog programs."""

import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chase import runner
from repro.chase.runner import chase
from repro.chase.termination import DepthPolicy, LinearForestPolicy
from repro.core.atoms import Atom
from repro.core.homomorphism import homomorphisms
from repro.core.instance import Database
from repro.core.program import Program
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.lang.parser import parse_program

from .reference_chase import reference_chase
from .reference_matcher import head_already_satisfied
from .strategies import databases, programs


@st.composite
def datalog_instances(draw):
    """A random terminating (full) program plus database over a small graph."""
    n = draw(st.integers(min_value=2, max_value=5))
    edge_count = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(0, 10**6)))
    facts = set()
    for _ in range(edge_count):
        facts.add(
            Atom("e", (Constant(f"n{rng.randrange(n)}"),
                       Constant(f"n{rng.randrange(n)}")))
        )
    database = Database(facts)
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    rules = [TGD((Atom("e", (x, y)),), (Atom("t", (x, y)),))]
    if draw(st.booleans()):
        rules.append(
            TGD((Atom("e", (x, y)), Atom("t", (y, z))), (Atom("t", (x, z)),))
        )
    else:
        rules.append(
            TGD((Atom("t", (x, y)), Atom("t", (y, z))), (Atom("t", (x, z)),))
        )
    if draw(st.booleans()):
        rules.append(TGD((Atom("t", (x, y)),), (Atom("u", (x,)),)))
    return Program(rules), database


@given(datalog_instances())
@settings(max_examples=60, deadline=None)
def test_chase_result_is_a_model(instance):
    """The chase result satisfies every TGD (Section 2: I ⊨ Σ)."""
    program, database = instance
    result = chase(database, program)
    assert result.saturated
    for tgd in program:
        for hom in homomorphisms(list(tgd.body), result.instance):
            satisfied = any(
                True
                for _ in homomorphisms(
                    list(tgd.head),
                    result.instance,
                    {v: hom[v] for v in tgd.frontier()},
                )
            )
            assert satisfied, f"{tgd} violated"


@given(datalog_instances())
@settings(max_examples=40, deadline=None)
def test_chase_contains_database(instance):
    program, database = instance
    result = chase(database, program)
    assert database.atoms() <= result.instance.atoms()


@given(datalog_instances())
@settings(max_examples=40, deadline=None)
def test_chase_monotone_under_database_growth(instance):
    """Adding facts never removes chase atoms (Datalog monotonicity)."""
    program, database = instance
    small = chase(database, program).instance.atoms()
    bigger = Database(database.atoms() | {Atom("e", (Constant("n0"),
                                                     Constant("n1")))})
    large = chase(bigger, program).instance.atoms()
    assert small <= large


@given(datalog_instances())
@settings(max_examples=40, deadline=None)
def test_restricted_chase_agrees_with_seminaive(instance):
    """For full programs the chase fixpoint equals semi-naive Datalog."""
    from repro.datalog.seminaive import seminaive

    program, database = instance
    via_chase = chase(database, program).instance.atoms()
    via_seminaive = seminaive(database, program).instance.atoms()
    assert via_chase == via_seminaive


@given(
    programs(), databases(),
    st.sampled_from([None, 1, 2]), st.sampled_from([None, 12, 40]),
)
@settings(max_examples=120, deadline=None)
def test_ground_head_check_equals_the_homomorphism_check(
    program, database, depth, max_atoms
):
    """Same atoms, same counters, same null numbering — over full,
    existential and multi-head rules, with and without a depth policy
    and an atom budget (``max_steps`` only keeps random rules finite)."""
    def run():
        return chase(
            database, program, max_steps=120, max_atoms=max_atoms,
            policy=None if depth is None else DepthPolicy(depth),
        )

    with mock.patch.object(
        runner, "_head_already_satisfied", head_already_satisfied
    ):
        reference = run()
    result = run()
    assert result.instance.atoms() == reference.instance.atoms()
    assert (result.fired, result.suppressed, result.saturated) == (
        reference.fired, reference.suppressed, reference.saturated
    )
    assert (
        result.null_factory.fresh().label
        == reference.null_factory.fresh().label
    )


#: A new ``t(a,a)`` starts both pinned forms of the self-join, each
#: with its own trigger: the form order decides the null numbering.
SELF_JOIN = parse_program("""
    e(a,b). e(c,a). e(a,a).
    t(X,Y) :- e(X,Y).
    r(X,Z,W) :- t(X,Y), t(Y,Z).
""")


@given(
    programs(), databases(),
    st.sampled_from(["restricted", "oblivious"]),
    st.sampled_from(["depth 1", "depth 2", "linear forest"]),
    st.sampled_from([None, 40]), st.sampled_from([None, 30]),
)
@example(*SELF_JOIN, "restricted", "depth 1", None, None)
@settings(max_examples=200, deadline=None)
def test_the_chase_equals_the_unindexed_loop(
    program, database, variant, policy, max_steps, max_atoms
):
    """Indexed discovery and the restricted check at discovery fire the
    same sequence as the loop that walks every pinned form and checks
    only at the pop: same atoms, counters and null numbering."""
    def make_policy():
        if policy == "linear forest":
            return LinearForestPolicy()
        return DepthPolicy(int(policy.split()[1]))

    limits = dict(variant=variant, max_steps=max_steps, max_atoms=max_atoms)
    result = chase(database, program, policy=make_policy(), **limits)
    instance, fired, suppressed, factory = reference_chase(
        database, program, policy=make_policy(), **limits
    )
    assert result.instance.atoms() == instance.atoms()
    assert (result.fired, result.suppressed) == (fired, suppressed)
    assert result.null_factory.fresh().label == factory.fresh().label
