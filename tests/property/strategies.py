"""Shared hypothesis strategies for the property-based tests."""

from hypothesis import strategies as st

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.program import Program
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD

PREDICATES = ["p", "q", "r", "s"]
VARIABLE_NAMES = ["X", "Y", "Z", "W", "V"]
CONSTANT_VALUES = ["a", "b", "c"]


def variables():
    return st.sampled_from(VARIABLE_NAMES).map(Variable)


def constants():
    return st.sampled_from(CONSTANT_VALUES).map(Constant)


def terms():
    return st.one_of(variables(), constants())


def atoms(max_arity: int = 3):
    """Random flat atoms over a small vocabulary."""
    return st.builds(
        lambda pred, args: Atom(f"{pred}{len(args)}", tuple(args)),
        st.sampled_from(PREDICATES),
        st.lists(terms(), min_size=1, max_size=max_arity),
    )


def atom_sets(min_size: int = 1, max_size: int = 5):
    return st.lists(atoms(), min_size=min_size, max_size=max_size).map(tuple)


def renamings():
    """A random injective renaming of the variable vocabulary."""
    return st.permutations(
        [f"R{i}" for i in range(len(VARIABLE_NAMES))]
    ).map(
        lambda names: {
            Variable(old): Variable(new)
            for old, new in zip(VARIABLE_NAMES, names)
        }
    )


# -- random programs, instances and queries over one small schema ----------
#
# A fixed schema keeps arities consistent and makes rules, facts and
# queries actually meet (a twelve-predicate vocabulary almost never
# does).  ``e``/``p`` are extensional; heads draw from the other three.

SCHEMA = {"e": 2, "p": 1, "t": 2, "u": 1, "r": 2}
HEAD_PREDICATES = ["t", "u", "r"]
BODY_VARIABLES = [Variable(name) for name in ("X", "Y", "Z")]
# ``W``/``V`` never occur in a body: in a head they are existential.
EXISTENTIALS = [Variable("W"), Variable("V")]


def schema_atoms(predicates, term_strategy):
    """Atoms over ``SCHEMA`` with arguments from *term_strategy*
    (repeated arguments are common: the pools are small)."""
    return st.sampled_from(predicates).flatmap(
        lambda predicate: st.tuples(
            *[term_strategy] * SCHEMA[predicate]
        ).map(lambda args: Atom(predicate, args))
    )


@st.composite
def tgds(draw):
    """A random TGD: single- or multi-head, its head arguments drawn
    three to one from the body's own variables against ``W``/``V``, so
    that full and existential rules (and mixed heads) all come up."""
    body = draw(st.lists(
        schema_atoms(list(SCHEMA), st.sampled_from(BODY_VARIABLES)),
        min_size=1, max_size=2,
    ))
    bound = sorted({v for a in body for v in a.variables()}, key=str)
    head = draw(st.lists(
        schema_atoms(HEAD_PREDICATES, st.sampled_from(bound * 3 + EXISTENTIALS)),
        min_size=1, max_size=2, unique=True,
    ))
    return TGD(tuple(body), tuple(head))


def programs():
    return st.lists(tgds(), min_size=2, max_size=4).map(Program)


def databases():
    """Ground facts over the whole schema (intensional ones included)."""
    return st.lists(
        schema_atoms(list(SCHEMA), constants()), min_size=3, max_size=10
    ).map(Database)


@st.composite
def queries(draw, predicates=tuple(HEAD_PREDICATES)):
    """A CQ over *predicates* (the intensional ones by default), mostly
    variables; outputs are drawn from its own variables."""
    variable = st.sampled_from(BODY_VARIABLES)
    body = draw(st.lists(
        schema_atoms(list(predicates), st.one_of(variable, variable, constants())),
        min_size=1, max_size=2,
    ))
    pool = sorted({v for a in body for v in a.variables()}, key=str)
    output = draw(st.lists(st.sampled_from(pool), max_size=2)) if pool else []
    return ConjunctiveQuery(tuple(output), tuple(body))


# -- stratified negation ----------------------------------------------------
#
# Three strata over ``SCHEMA``: ``t`` above the extensional ``e`` and
# ``p``, ``u`` above ``t``, ``r`` above ``u``.  Rules negate only lower
# strata — variables and constants, repeated variables (a negated
# self-join) — and ``g``, which has no rules (and no facts unless a
# test adds some).

#: (head, the predicates below it) per stratum, lowest first.
STRATA = (("t", ["e", "p"]), ("u", ["e", "p", "t"]), ("r", ["e", "p", "t", "u"]))


@st.composite
def stratum_rules(draw, head, lower):
    """A safe rule of *head*'s stratum: a positive body over *lower* and
    *head* itself (recursion), a head and up to two negated literals
    over the body's variables and the constants, negating *lower* or
    ``g``."""
    body = draw(st.lists(
        schema_atoms(lower + [head], st.sampled_from(BODY_VARIABLES)),
        min_size=1, max_size=2,
    ))
    bound = sorted({v for a in body for v in a.variables()}, key=str)
    terms = st.one_of(st.sampled_from(bound), constants())
    negated = draw(st.lists(
        st.one_of(
            schema_atoms(lower, terms),
            terms.map(lambda term: Atom("g", (term,))),
        ),
        max_size=2,
    ))
    head_atom = draw(schema_atoms([head], terms))
    return TGD(tuple(body), (head_atom,), negated=tuple(negated))


@st.composite
def stratified_programs(draw):
    rules = []
    for head, lower in STRATA:
        rules += draw(st.lists(stratum_rules(head, lower), min_size=1, max_size=2))
    return Program(rules)
