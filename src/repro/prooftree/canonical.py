"""Canonical renaming of conjunctive-query bodies.

Two CQ bodies that differ only in the names of their non-frozen
variables are the same object for every purpose in this package: proof
trees treat CQs "up to variable renaming" (the canonical renaming
``[p]`` of Section 6.1), and the deterministic simulation of the
Section 4.3 algorithm needs a finite state space, which it gets by
renaming variables into a fixed pool.

:func:`canonical_form` computes an exact canonical representative: the
lexicographically least sequence of atom *signatures* over all atom
orders, assigning canonical indices to variables in first-occurrence
order.  Frozen terms (constants, output variables, nulls) keep their
identity.  Ties between equal-signature atoms are resolved by
branch-and-bound, so the form is a true canonical invariant — two
bodies receive the same form iff they are equal up to a renaming of the
non-frozen variables.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..core.atoms import Atom
from ..core.terms import Constant, Null, Term, Variable

__all__ = ["canonical_form", "canonical_variable"]

_CANON_PREFIX = "ᶜ"


def canonical_variable(index: int) -> Variable:
    """The *index*-th variable of the canonical pool."""
    return Variable(f"{_CANON_PREFIX}{index}")


def _term_sort_key(term: Term) -> tuple:
    """A total order on concrete terms for deterministic signatures."""
    if isinstance(term, Constant):
        return (0, type(term.value).__name__, str(term.value))
    if isinstance(term, Null):
        return (1, "", str(term.label))
    return (2, "", term.name)


def _signature(
    atom: Atom, mapping: Dict[Variable, int], frozen: Set[Variable]
) -> tuple:
    """The signature of *atom* under a partial canonical renaming.

    Constants, nulls, and frozen variables are concrete; already-renamed
    variables show their canonical index; unmapped variables show their
    first-occurrence pattern *within the atom* so that, e.g.,
    ``R(x, y, x)`` and ``R(x, y, z)`` get different signatures.
    """
    local: Dict[Variable, int] = {}
    codes: List[tuple] = []
    for term in atom.args:
        if isinstance(term, Variable) and term not in frozen:
            if term in mapping:
                codes.append((1, mapping[term]))
            else:
                index = local.setdefault(term, len(local))
                codes.append((2, index))
        else:
            codes.append((0, _term_sort_key(term)))
    return (atom.predicate, len(atom.args), tuple(codes))


def _final_key(atom: Atom) -> tuple:
    """A total order on fully renamed atoms."""
    return (
        atom.predicate,
        len(atom.args),
        tuple(_term_sort_key(t) for t in atom.args),
    )


def canonical_form(
    atoms: Iterable[Atom], frozen: Iterable[Variable] = ()
) -> tuple[Atom, ...]:
    """Canonically rename and order *atoms* (set semantics: duplicates merge).

    Non-frozen variables are renamed into the canonical pool in
    first-use order along the chosen atom order; the atom order chosen
    is the one producing the lexicographically least key sequence, so
    the result is a canonical invariant of the body modulo renaming of
    non-frozen variables.
    """
    frozen_set: Set[Variable] = set(frozen)
    unique_atoms = list(dict.fromkeys(atoms))

    best_atoms: Optional[List[Atom]] = None
    best_keys: Optional[List[tuple]] = None

    def rename(atom: Atom, mapping: Dict[Variable, int]) -> Atom:
        new_args: List[Term] = []
        for term in atom.args:
            if isinstance(term, Variable) and term not in frozen_set:
                if term not in mapping:
                    mapping[term] = len(mapping)
                new_args.append(canonical_variable(mapping[term]))
            else:
                new_args.append(term)
        return Atom(atom.predicate, tuple(new_args))

    def search(
        remaining: List[Atom],
        mapping: Dict[Variable, int],
        acc_atoms: List[Atom],
        acc_keys: List[tuple],
    ) -> None:
        nonlocal best_atoms, best_keys
        if best_keys is not None and acc_keys:
            prefix = best_keys[: len(acc_keys)]
            if acc_keys > prefix:
                return  # this order can no longer beat the best
        if not remaining:
            if best_keys is None or acc_keys < best_keys:
                best_atoms = list(acc_atoms)
                best_keys = list(acc_keys)
            return
        signatures = [
            (_signature(atom, mapping, frozen_set), i)
            for i, atom in enumerate(remaining)
        ]
        minimum = min(sig for sig, _ in signatures)
        for sig, index in signatures:
            if sig != minimum:
                continue
            atom = remaining[index]
            new_mapping = dict(mapping)
            renamed = rename(atom, new_mapping)
            search(
                remaining[:index] + remaining[index + 1:],
                new_mapping,
                acc_atoms + [renamed],
                acc_keys + [_final_key(renamed)],
            )

    search(unique_atoms, {}, [], [])
    assert best_atoms is not None
    return tuple(best_atoms)
