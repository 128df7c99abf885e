"""The proof-tree searches' oracle, read in id space, against its
reference.

``atom_satisfiable`` asks the columnar star abstraction one
``Relation.has_match`` over ids; ``reference_oracle.satisfiable`` scans
the decoded atoms with ``Instance.matching`` semantics.  Patterns come
from the schema and from stored atoms with positions turned into
variables, so repeated variables, ⋆ positions, constants the term table
has never seen and predicates or arities it does not hold all come up.
"""

from hypothesis import given, settings, strategies as st

from repro.core.atoms import Atom
from repro.core.terms import Constant, Variable
from repro.lang.parser import parse_program
from repro.reasoning.abstraction import STAR, atom_satisfiable, star_abstraction

from .reference_oracle import satisfiable
from .strategies import SCHEMA, databases, programs

VARIABLES = [Variable(name) for name in ("X", "Y", "Z")]
#: The database constants, ⋆, and two constants no store ever holds.
CONSTANTS = [Constant(v) for v in ("a", "b", "c", "never", "zz")] + [STAR]
#: The schema, an arity no relation has, and a predicate with no rows.
SHAPES = list(SCHEMA.items()) + [("t", 3), ("nothing", 1)]


def patterns(stored):
    """Schema patterns over variables and constants, and patterns cut
    from the *stored* atoms: each position kept or replaced by a
    (possibly repeated) variable."""
    terms = st.sampled_from(VARIABLES + CONSTANTS)
    free = st.sampled_from(SHAPES).flatmap(
        lambda shape: st.tuples(*[terms] * shape[1]).map(
            lambda args: Atom(shape[0], args)
        )
    )
    if not stored:
        return free
    cut = st.sampled_from(stored).flatmap(
        lambda atom: st.tuples(*[
            st.one_of(st.just(term), st.sampled_from(VARIABLES))
            for term in atom.args
        ]).map(lambda args: Atom(atom.predicate, args))
    )
    return st.one_of(free, cut)


@given(programs(), databases(), st.data())
@settings(max_examples=150, deadline=None)
def test_atom_satisfiable_equals_the_reference(program, database, data):
    abstraction = star_abstraction(database, program.single_head())
    stored = sorted(abstraction, key=str)
    for _ in range(12):
        pattern = data.draw(patterns(stored))
        assert atom_satisfiable(pattern, abstraction) == satisfiable(
            pattern, stored
        ), pattern


def test_star_repeated_variables_and_unseen_constants():
    program, database = parse_program("""
        p(a). e(a,b).
        r(X,W) :- p(X).
        s(W,W) :- p(X).
    """)
    abstraction = star_abstraction(database, program.single_head())
    a, b = Constant("a"), Constant("b")
    X, Y = Variable("X"), Variable("Y")
    cases = {
        Atom("r", (a, X)): True,        # a variable matches ⋆
        Atom("r", (X, X)): False,       # r(a, ⋆): X cannot be both
        Atom("s", (X, X)): True,        # s(⋆, ⋆)
        Atom("r", (a, b)): False,       # ⋆ is no constant but itself
        Atom("r", (a, STAR)): True,
        Atom("e", (X, Constant("zz"))): False,  # zz was never interned
        Atom("e", (X, Y)): True,
        Atom("e", (X, X)): False,
        Atom("e", (X, Y, Y)): False,    # no e of arity 3
    }
    stored = list(abstraction)
    for pattern, expected in cases.items():
        assert atom_satisfiable(pattern, abstraction) is expected, pattern
        assert satisfiable(pattern, stored) is expected, pattern
