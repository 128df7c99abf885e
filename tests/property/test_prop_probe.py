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
* the proof-tree answers streamed on top of the probe equal the chase's.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import is_warded
from repro.chase import chase
from repro.chase.termination import DepthPolicy
from repro.core.terms import Null
from repro.reasoning.abstraction import exact_predicates
from repro.reasoning.answers import (
    probe_instance,
    proof_tree_method,
    stream_proof_tree_answers,
)

from .strategies import databases, programs, queries

DEPTHS = st.integers(min_value=0, max_value=3)
#: 0 (the probe settles nothing), cuts inside D or the seed, and room.
BUDGETS = st.sampled_from([0, 1, 4, 8, 16, 300])
#: The unbounded chase that stands for the truth, when it saturates.
TRUTH_ATOMS = 2000


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
    streamed = list(stream_proof_tree_answers(
        query, database, program, method=proof_tree_method(program),
        probe_depth=depth, probe_atoms=budget,
    ))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == result.evaluate(query)
