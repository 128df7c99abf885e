"""Proof-tree steps on bounded CQs (Section 4.1): chunk unifiers, IDO
resolution, decomposition into connected components, specialization
and canonical renaming.  The searches of :mod:`repro.reasoning` and the
Datalog rewriting of :mod:`repro.expressiveness` build their proof trees
out of these steps; an accepting run of the search is itself the
linear proof tree (``PWLDecision.trace``)."""

from .canonical import canonical_form, canonical_variable
from .chunk import ChunkUnifier, chunk_unifiers, shared_variables
from .decomposition import connected_components, restrict_output
from .resolution import Resolvent, ido_resolvents, retarget_for_outputs
from .specialization import enumerate_specializations, specialize

__all__ = [
    "canonical_form",
    "canonical_variable",
    "ChunkUnifier",
    "chunk_unifiers",
    "shared_variables",
    "connected_components",
    "restrict_output",
    "Resolvent",
    "ido_resolvents",
    "retarget_for_outputs",
    "specialize",
    "enumerate_specializations",
]
