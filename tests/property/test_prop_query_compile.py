"""Property tests: the compiled conjunctive-query read is the
homomorphism search it replaced.

``ConjunctiveQuery.evaluate`` / ``evaluate_delta`` run slot-addressed
probe steps compiled once per query.  The implementation they replaced
— the backtracking ``homomorphisms`` search seeded by ``match_atom`` —
is kept below, verbatim, as the reference: over random queries (str and
int constants, variables repeated inside and across atoms, repeated
output variables, Boolean queries, duplicate atoms) and random
instances with nulls, both must return the same answer sets on every
store a fixpoint can live in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, match_atom
from repro.core.instance import Instance
from repro.core.query import ConjunctiveQuery
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Null, Variable
from repro.storage import ColumnarStore, DeltaOverlay, ShardedStore

# -- the parent's implementation, kept as the reference ----------------------


def _reference_homomorphisms(atoms, instance, seed=None):
    assignment = dict(seed or {})

    def bound_count(atom):
        return sum(
            1 for t in atom.args
            if not isinstance(t, Variable) or t in assignment
        )

    def backtrack(remaining):
        if not remaining:
            yield Substitution(dict(assignment))
            return
        best_index = max(
            range(len(remaining)),
            key=lambda i: (
                bound_count(remaining[i]),
                -len(remaining[i].args),
                str(remaining[i]),
            ),
        )
        chosen = remaining[best_index]
        rest = remaining[:best_index] + remaining[best_index + 1:]
        pattern = Atom(
            chosen.predicate,
            tuple(
                assignment.get(t, t) if isinstance(t, Variable) else t
                for t in chosen.args
            ),
        )
        for stored in instance.matching(pattern):
            added = []
            consistent = True
            for p_term, s_term in zip(pattern.args, stored.args):
                if isinstance(p_term, Variable):
                    seen = assignment.get(p_term)
                    if seen is None:
                        assignment[p_term] = s_term
                        added.append(p_term)
                    elif seen != s_term:
                        consistent = False
                        break
            if consistent:
                yield from backtrack(rest)
            for var in added:
                del assignment[var]

    return backtrack(list(atoms))


def _images(query, homs):
    answers = set()
    for hom in homs:
        image = tuple(hom.apply_term(v) for v in query.output)
        if all(isinstance(t, Constant) for t in image):
            answers.add(image)
    return answers


def reference_evaluate(query, instance):
    return _images(query, _reference_homomorphisms(query.atoms, instance))


def reference_evaluate_delta(query, instance, delta):
    answers = set()
    delta_atoms = list(delta)
    for pin_index, pinned in enumerate(query.atoms):
        others = query.atoms[:pin_index] + query.atoms[pin_index + 1:]
        for delta_atom in delta_atoms:
            seed = match_atom(pinned, delta_atom)
            if seed is None:
                continue
            answers |= _images(
                query, _reference_homomorphisms(list(others), instance, seed)
            )
    return answers


# -- inputs ------------------------------------------------------------------

VARIABLES = [Variable(name) for name in "XYZ"]
# ``1`` and ``"1"`` are different constants that print alike.
CONSTANTS = [Constant(value) for value in ("a", "b", 1, "1")]
NULLS = [Null(0), Null(1)]


def _atoms(terms):
    """Atoms over two predicate names, each at arities 1–3."""
    return st.builds(
        lambda predicate, args: Atom(predicate, tuple(args)),
        st.sampled_from(["p", "r"]),
        st.lists(st.sampled_from(terms), min_size=1, max_size=3),
    )


def instances():
    return st.lists(_atoms(CONSTANTS + NULLS), max_size=14)


@st.composite
def _generalised(draw, stored):
    """A query atom that matches *stored*: each argument kept (constants
    only) or replaced by a variable — the same one twice, sometimes."""
    return Atom(stored.predicate, tuple(
        term if isinstance(term, Constant) and draw(st.booleans())
        else draw(st.sampled_from(VARIABLES))
        for term in stored.args
    ))


@st.composite
def cases(draw):
    """(query, instance atoms): body atoms are drawn at random or
    generalised from a stored atom, so that most queries have matches
    and near-matches to tell apart."""
    atoms = draw(instances())
    body_atom = _atoms(VARIABLES + CONSTANTS)
    if atoms:
        body_atom |= st.sampled_from(atoms).flatmap(_generalised)
    body = draw(st.lists(body_atom, min_size=1, max_size=3))
    if draw(st.booleans()):
        body.append(draw(st.sampled_from(body)))  # a duplicate atom
    body_variables = sorted(
        {t for atom in body for t in atom.variables()}, key=str
    )
    output = (
        draw(st.lists(st.sampled_from(body_variables), max_size=3))
        if body_variables
        else []
    )
    return ConjunctiveQuery(tuple(output), tuple(body)), atoms


def stores(atoms, dead):
    """Every kind of store holding exactly *atoms* (*dead* are extra
    atoms the overlay's base holds and the overlay has retracted)."""
    atoms = list(dict.fromkeys(atoms))
    dead = [atom for atom in dict.fromkeys(dead) if atom not in atoms]
    half = len(atoms) // 2
    overlay = DeltaOverlay(ColumnarStore(atoms[:half] + dead))
    overlay.discard_all(dead)
    overlay.add_all(atoms[half:])
    return {
        "instance": Instance(atoms),
        "columnar": ColumnarStore(atoms),
        "sharded": ShardedStore(atoms, num_shards=3),
        "sharded-spilling": ShardedStore(
            atoms, memory_budget=256, num_shards=3
        ),
        "overlay": overlay,
    }


# -- the properties ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cases(), instances())
def test_evaluate_equals_the_homomorphism_search(case, dead):
    query, atoms = case
    expected = reference_evaluate(query, Instance(atoms))
    for name, store in stores(atoms, dead).items():
        assert set(store) == set(atoms), name
        assert query.evaluate(store) == expected, name


@settings(max_examples=200, deadline=None)
@given(cases(), instances(), st.data())
def test_evaluate_delta_equals_the_pinned_search(case, dead, data):
    query, atoms = case
    # The delta is a subset of the instance, plus an atom of a predicate
    # the query does not mention.
    delta = data.draw(st.lists(st.sampled_from(atoms))) if atoms else []
    atoms = atoms + [Atom("other", (Constant("a"),))]
    delta.append(atoms[-1])
    expected = reference_evaluate_delta(query, Instance(atoms), delta)
    assert expected <= reference_evaluate(query, Instance(atoms))
    for name, store in stores(atoms, dead).items():
        assert query.evaluate_delta(store, delta) == expected, name
    assert query.evaluate_delta(Instance(atoms), atoms) == reference_evaluate(
        query, Instance(atoms)
    )


def test_compiled_once_per_query():
    query = ConjunctiveQuery(
        (VARIABLES[0],),
        (Atom("p", (VARIABLES[0], VARIABLES[1])), Atom("r", (VARIABLES[1],))),
    )
    compiled = query._compiled
    query.evaluate(Instance())
    query.evaluate_delta(Instance(), [])
    assert query._compiled is compiled
    assert len(query._compiled_pinned) == len(query.atoms)
