"""The seeded chase probe against the plain bounded chase.

``probe_instance`` starts the restricted chase from D plus the star
abstraction's rows over the exact predicates (no existential rule in
their cone) and chases only the rules that head something else.  The
reference is the chase it replaces: ``chase(D, Σ, restricted,
DepthPolicy(depth), max_atoms=budget)`` on the whole of Σ.  Over random
programs, databases and budgets:

* every null-free probe atom is certain (a null-free atom of the
  saturated unbounded chase);
* on the exact predicates the probe equals the reference whenever the
  reference saturates within the budget;
* the proof-tree answers streamed on top of the probe equal the chase's;
* at the default budget, answers, ``probe_answers`` and
  ``decided_tuples`` equal those of a probe that copies every exact row
  into its ``Instance`` — q over D, the exact rows and the bounded
  chase of the rest — for queries over exact, extensional and other
  predicates alike: reading the exact rows in place changes nothing
  but what is held.
"""

from itertools import chain

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import is_warded
from repro.api import StreamStats
from repro.chase import chase
from repro.chase.termination import DepthPolicy
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.program import Program
from repro.core.terms import Null, Variable
from repro.core.tgd import TGD
from repro.reasoning.abstraction import exact_predicates, star_abstraction
from repro.reasoning.answers import (
    candidate_tuples,
    probe_instance,
    proof_tree_method,
    stream_proof_tree_answers,
)

from .strategies import HEAD_PREDICATES, SCHEMA, databases, programs, queries

DEPTHS = st.integers(min_value=0, max_value=3)
#: 0 (the probe settles nothing), cuts inside D or the seed, and room.
BUDGETS = st.sampled_from([0, 1, 4, 8, 16, 300])
#: The unbounded chase that stands for the truth, when it saturates.
TRUTH_ATOMS = 2000
X, Y, W = Variable("X"), Variable("Y"), Variable("W")


def null_free(atoms):
    return {
        atom for atom in atoms
        if not any(isinstance(term, Null) for term in atom.args)
    }


def truth(database, program):
    """The null-free atoms of the saturated restricted chase — the
    certain atoms — or None when it does not saturate in bounds."""
    result = chase(database, program, max_atoms=TRUTH_ATOMS)
    return null_free(result.instance) if result.saturated else None


@given(programs(), databases(), DEPTHS, BUDGETS)
@settings(max_examples=150, deadline=None)
def test_null_free_probe_atoms_are_certain(program, database, depth, budget):
    certain = truth(database, program)
    assume(certain is not None)
    probe = probe_instance(database, program, depth, budget)
    assert null_free(probe) <= certain
    # The seed stops at the budget; the chase's last firing may pass it
    # by its head's atoms less one, as the plain chase's may.
    widest = max(len(tgd.head) for tgd in program)
    assert len(probe) <= max(len(database), budget + widest - 1)


@given(programs(), databases(), DEPTHS, BUDGETS)
@settings(max_examples=150, deadline=None)
def test_exact_predicates_equal_the_plain_chase(
    program, database, depth, budget
):
    reference = chase(
        database, program, variant="restricted",
        policy=DepthPolicy(depth), max_atoms=budget,
    )
    assume(reference.saturated and len(reference.instance) <= budget)
    exact = exact_predicates(program) & program.head_predicates()
    probe = probe_instance(database, program, depth, budget)

    def on_exact(atoms):
        return {atom for atom in atoms if atom.predicate in exact}

    assert on_exact(probe) == on_exact(reference.instance)


@given(programs(), databases(), queries(), DEPTHS, BUDGETS)
@settings(max_examples=100, deadline=None)
def test_streamed_answers_equal_the_chase(
    program, database, query, depth, budget
):
    assume(is_warded(program))
    result = chase(database, program, max_atoms=TRUTH_ATOMS)
    assume(result.saturated)
    streamed = list(chain.from_iterable(stream_proof_tree_answers(
        query, database, program, method=proof_tree_method(program),
        probe_depth=depth, probe_atoms=budget,
    )))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == result.evaluate(query)


def copied_seed_settlement(query, database, program):
    """``(settled, decided)`` as a probe settles them that copies every
    exact row: q over D ∪ every exact row ∪ the restricted
    ``DepthPolicy(3)`` chase of the rules whose heads are not all exact,
    and the count of candidates left to a decision."""
    exact = exact_predicates(program) & program.head_predicates()
    abstraction = star_abstraction(database, program.single_head())
    seeded = Instance(database)
    for atom in abstraction:
        if atom.predicate in exact:
            seeded.add(atom)
    chase(
        database,
        Program(tgd for tgd in program if not tgd.head_predicates() <= exact),
        variant="restricted", policy=DepthPolicy(3), max_atoms=20000,
        store=seeded,
    )
    settled = query.evaluate(seeded)
    return settled, len(candidate_tuples(query, abstraction) - settled)


@st.composite
def split_programs(draw):
    """A random program plus a full and an existential rule over ``e``
    heading two different intensional predicates, so that exact and
    non-exact predicates (and probes that route some) come up often."""
    exact, chased = draw(st.permutations(HEAD_PREDICATES))[:2]
    edge = (Atom("e", (X, Y)),)
    rules = (
        TGD(edge, (Atom(exact, (X, Y)[: SCHEMA[exact]]),)),
        TGD(edge, (Atom(chased, (X, W)[-SCHEMA[chased]:]),)),
    )
    return Program(tuple(draw(programs())) + rules)


@given(split_programs(), databases(), st.data())
@settings(max_examples=200, deadline=None)
def test_settlement_equals_the_copied_seed(program, database, data):
    assume(is_warded(program))
    # Over the program's heads and the extensional e: exact-only,
    # mixed and non-exact queries.
    query = data.draw(queries(sorted(program.head_predicates() | {"e"})))
    result = chase(database, program, max_atoms=TRUTH_ATOMS)
    assume(result.saturated)
    stats = StreamStats()
    streamed = set(chain.from_iterable(stream_proof_tree_answers(
        query, database, program, method=proof_tree_method(program),
        stats=stats,
    )))
    settled, decided = copied_seed_settlement(query, database, program)
    assert (streamed, stats.probe_answers, stats.decided_tuples) == (
        result.evaluate(query), len(settled), decided
    )
    # The view itself answers q as the copied seed does.
    assert query.evaluate(probe_instance(database, program)) == settled
