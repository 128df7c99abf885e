"""OWL 2 QL ontological reasoning — the paper's key application.

Section 3 singles out one distinctive capability of warded TGDs: they
"can express every SPARQL query under the OWL 2 QL direct semantics
entailment regime" — Example 3.3 shows the core six rules.  This
subpackage wraps that capability behind an ontology-level API:

* :class:`Ontology <repro.owl2ql.ontology.Ontology>` — OWL 2 QL TBox
  axioms (subclass, subproperty, domain, range, inverse, existential
  restrictions in both directions) plus ABox assertions;
* :func:`encode <repro.owl2ql.encoding.encode>` — compilation into a
  warded, piece-wise linear TGD set over the ``type``/``triple``
  vocabulary (the Example 3.3 encoding, completed with the remaining
  QL axiom shapes) and a database holding the axioms and assertions;
* :class:`BGPQuery <repro.owl2ql.queries.BGPQuery>` — SPARQL-style
  basic graph patterns answered under the entailment regime via
  :func:`repro.api.certain_answers`.
"""

from .encoding import EncodedOntology, encode, entailment_rules
from .ontology import Ontology
from .queries import BGPQuery, TriplePattern, Var, answer_bgp

__all__ = [
    "Ontology",
    "encode",
    "entailment_rules",
    "EncodedOntology",
    "BGPQuery",
    "TriplePattern",
    "Var",
    "answer_bgp",
]
