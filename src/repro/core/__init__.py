"""Core model: terms, atoms, substitutions, instances, TGDs, CQs, programs
— and the :class:`~repro.core.store.FactStore` interface ``Instance``
implements.  Imports nothing else of the package."""

from .atoms import Atom, Position
from .homomorphism import find_homomorphism, homomorphisms
from .instance import Database, Instance
from .program import Program
from .query import ConjunctiveQuery
from .substitution import Substitution
from .terms import Constant, Null, NullFactory, Term, Variable
from .tgd import TGD

__all__ = [
    "Atom",
    "Position",
    "Constant",
    "Variable",
    "Null",
    "NullFactory",
    "Term",
    "Substitution",
    "Instance",
    "Database",
    "TGD",
    "Program",
    "ConjunctiveQuery",
    "homomorphisms",
    "find_homomorphism",
]
