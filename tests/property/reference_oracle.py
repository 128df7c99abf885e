"""What the proof-tree searches ask of the star abstraction, kept as
the reference: ``Instance.matching`` semantics over plain atoms.

A pattern (constants and variables) is satisfiable iff some stored atom
has its predicate and arity, equals it at every constant, and gives a
repeated variable one value.  ⋆ is an ordinary constant here: a pattern
variable matches it and no other constant equals it.
``test_prop_oracle.py`` pins the id-space
:func:`repro.reasoning.abstraction.atom_satisfiable` against this.
"""

from repro.core.terms import Variable


def matches(pattern, stored) -> bool:
    """Does *stored* match *pattern*?"""
    if stored.predicate != pattern.predicate:
        return False
    if len(stored.args) != len(pattern.args):
        return False
    binding = {}
    for term, value in zip(pattern.args, stored.args):
        if isinstance(term, Variable):
            if binding.setdefault(term, value) != value:
                return False
        elif term != value:
            return False
    return True


def satisfiable(pattern, atoms) -> bool:
    """Does some atom of *atoms* match *pattern*?"""
    return any(matches(pattern, stored) for stored in atoms)
