"""Property tests for the OWL 2 QL layer on random ontologies.

Invariants: every encoded ontology lands in WARD ∩ PWL (the compilation
never leaves the fragment), and the linear proof search agrees with the
saturating-chase reference on class-membership queries.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import is_piecewise_linear, is_warded
from repro.api import certain_answers
from repro.chase import chase
from repro.lang.parser import parse_query
from repro.owl2ql import Ontology, encode

CLASSES = ["c0", "c1", "c2", "c3"]
PROPS = ["p0", "p1"]
INDIVIDUALS = ["a", "b"]

subclass_axioms = st.lists(
    st.tuples(st.sampled_from(CLASSES), st.sampled_from(CLASSES)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    max_size=4,
    unique=True,
)
domain_axioms = st.lists(
    st.tuples(st.sampled_from(PROPS), st.sampled_from(CLASSES)),
    max_size=2,
    unique=True,
)
memberships = st.lists(
    st.tuples(st.sampled_from(INDIVIDUALS), st.sampled_from(CLASSES)),
    min_size=1,
    max_size=3,
    unique=True,
)
relations = st.lists(
    st.tuples(
        st.sampled_from(INDIVIDUALS),
        st.sampled_from(PROPS),
        st.sampled_from(INDIVIDUALS),
    ),
    max_size=3,
    unique=True,
)


def build_ontology(subclasses, domains, members, related) -> Ontology:
    ontology = Ontology("random")
    for sub, sup in subclasses:
        ontology.subclass(sub, sup)
    for prop, cls in domains:
        ontology.domain(prop, cls)
    for individual, cls in members:
        ontology.member(individual, cls)
    for subject, prop, obj in related:
        ontology.related(subject, prop, obj)
    return ontology


@given(subclass_axioms, domain_axioms, memberships, relations)
@settings(max_examples=40, deadline=None)
def test_encoding_always_in_fragment(subclasses, domains, members, related):
    encoded = encode(build_ontology(subclasses, domains, members, related))
    assert is_warded(encoded.program)
    assert is_piecewise_linear(encoded.program)


@given(subclass_axioms, domain_axioms, memberships, relations)
@settings(max_examples=25, deadline=None)
def test_pwl_engine_agrees_with_chase(subclasses, domains, members, related):
    encoded = encode(build_ontology(subclasses, domains, members, related))
    query = parse_query("q(X, C) :- type(X, C).")
    # No value-inventing axioms in this strategy, so the restricted
    # chase saturates and is an exact reference.
    reference = chase(
        encoded.database, encoded.program, max_atoms=20000
    )
    assert reference.saturated
    via_pwl = certain_answers(
        query, encoded.database, encoded.program, method="pwl"
    )
    assert via_pwl == reference.evaluate(query)
