"""Property-based tests for query decomposition (Definition 4.4)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import atoms_variables
from repro.core.query import ConjunctiveQuery
from repro.prooftree.decomposition import connected_components

from .reference_prooftree import finest_decomposition, is_decomposition
from .strategies import atom_sets


@st.composite
def queries(draw):
    atoms = draw(atom_sets(min_size=1, max_size=5))
    body_vars = sorted(atoms_variables(atoms), key=lambda v: v.name)
    if body_vars:
        k = draw(st.integers(0, len(body_vars)))
        output = tuple(body_vars[:k])
    else:
        output = ()
    return ConjunctiveQuery(output, tuple(atoms))


@given(queries())
@settings(max_examples=200)
def test_decompose_produces_valid_decomposition(query):
    children = finest_decomposition(query)
    assert is_decomposition(query, children)


@given(queries())
@settings(max_examples=200)
def test_components_cover_and_do_not_share_non_outputs(query):
    outputs = query.output_variables()
    components = connected_components(query.atoms, outputs)
    covered = {atom for component in components for atom in component}
    assert covered == set(query.atoms)
    for i, first in enumerate(components):
        for second in components[i + 1:]:
            shared = atoms_variables(first) & atoms_variables(second)
            assert shared <= outputs


@given(queries())
@settings(max_examples=200)
def test_components_are_connected(query):
    """Within a component, every atom reaches every other through
    shared non-output variables (finest decomposition)."""
    outputs = query.output_variables()
    for component in connected_components(query.atoms, outputs):
        if len(component) == 1:
            continue
        # BFS over the sharing relation inside the component
        remaining = list(component)
        frontier = [remaining.pop()]
        while frontier and remaining:
            current = frontier.pop()
            linked = [
                atom
                for atom in remaining
                if (current.variables() & atom.variables()) - outputs
            ]
            for atom in linked:
                remaining.remove(atom)
                frontier.append(atom)
        assert not remaining, "component is not connected"


@given(queries())
@settings(max_examples=100)
def test_decomposition_children_inherit_output_order(query):
    for child in finest_decomposition(query):
        positions = [query.output.index(v) for v in child.output]
        assert positions == sorted(positions)
