"""End-to-end integration: every layer of the package on one scenario.

One corporate-knowledge-graph workload flows through the ontology API,
the static analyzers, five answering engines, the accepting runs of
the proof-tree search (each verified as a certificate), the Datalog
rewriting, and the incremental maintainer — all of which must tell one
consistent story.
"""

from itertools import chain

from repro.analysis import (
    is_piecewise_linear,
    is_warded,
    node_width_bound_pwl,
)
from repro.api import certain_answers
from repro.chase import LinearForestPolicy, chase
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.datalog.seminaive import datalog_answers
from repro.dynfo import IncrementalReasoner
from repro.expressiveness import pwl_to_datalog
from repro.lang.parser import parse_program, parse_query
from repro.owl2ql import (
    BGPQuery,
    Ontology,
    TriplePattern,
    Var,
    answer_bgp,
    encode,
)
from repro.reasoning import decide_pwl_ward, stream_proof_tree_answers

from ..property.reference_prooftree import verify_trace

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


def certified(query, answer, database, program):
    """Decide with the accepting run kept, and verify that run."""
    decision = decide_pwl_ward(query, answer, database, program, trace=True)
    return decision.accepted and verify_trace(
        decision.trace, query, answer, database, program,
        width_bound=decision.width_bound, specialization="guided",
    )


class TestReachabilityStory:
    """Linear TC: every engine and transformation agrees."""

    def setup_method(self):
        self.program, self.database = parse_program("""
            e(a,b). e(b,c). e(c,d).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        self.query = parse_query("q(X,Y) :- t(X,Y).")
        self.expected = {
            (a, b), (b, c), (c, d), (a, c), (b, d), (a, d),
        }

    def test_class_membership(self):
        assert is_warded(self.program)
        assert is_piecewise_linear(self.program)
        assert node_width_bound_pwl(
            self.query, self.program.single_head()
        ) >= self.query.width()

    def test_all_engines_agree(self):
        results = {
            "datalog": datalog_answers(
                self.query, self.database, self.program
            ),
            "pwl": certain_answers(
                self.query, self.database, self.program, method="pwl"
            ),
            "ward": certain_answers(
                self.query, self.database, self.program, method="ward"
            ),
            "chase": certain_answers(
                self.query, self.database, self.program, method="chase"
            ),
            "per-tuple": set(chain.from_iterable(stream_proof_tree_answers(
                self.query, self.database, self.program, method="pwl",
                probe_atoms=0,
            ))),
        }
        for name, answers in results.items():
            assert answers == self.expected, name

    def test_network_engine_agrees(self):
        """The Section 7 network: the chase under the linear forest."""
        result = chase(
            self.database, self.program, policy=LinearForestPolicy()
        )
        assert result.saturated and result.suppressed == 0
        assert result.evaluate(self.query) == self.expected

    def test_every_positive_is_certifiable(self):
        for answer in self.expected:
            assert certified(self.query, answer, self.database, self.program)

    def test_datalog_rewriting_agrees(self):
        rewriting = pwl_to_datalog(self.query, self.program, width_bound=3)
        assert rewriting.complete
        assert datalog_answers(
            rewriting.query, self.database, rewriting.program
        ) == self.expected

    def test_incremental_maintainer_agrees(self):
        reasoner = IncrementalReasoner(self.program, self.database)
        assert reasoner.answers() == self.expected
        # A live update keeps the story consistent.
        reasoner.insert(Atom("e", (d, a)))
        database = Database(self.database)
        database.add(Atom("e", (d, a)))
        assert reasoner.answers() == datalog_answers(
            self.query, database, self.program
        )


class TestOntologyStory:
    """The OWL 2 QL layer agrees with the raw engines it compiles to."""

    def setup_method(self):
        ontology = (
            Ontology("it")
            .subclass("admin", "staff")
            .inverse("supports", "supportedBy")
            .domain("supports", "staff")
            .some_values("staff", "hasBadge")
            .member("dana", "admin")
            .related("dana", "supports", "erin")
        )
        self.encoded = encode(ontology)

    def test_encoding_is_in_the_fragment(self):
        assert is_warded(self.encoded.program)
        assert is_piecewise_linear(self.encoded.program)

    def test_bgp_vs_raw_cq(self):
        bgp = BGPQuery.make(
            [Var("x")], [TriplePattern(Var("x"), "type", "staff")]
        )
        raw = parse_query("q(X) :- type(X, staff).")
        assert answer_bgp(bgp, self.encoded) == certain_answers(
            raw, self.encoded.database, self.encoded.program
        )

    def test_invention_certifiable(self):
        # dana ⊑ staff ⊑ ∃hasBadge: the Boolean BGP is certain and the
        # underlying decision has a verifiable certificate.
        query = parse_query("q() :- triple(dana, hasBadge, B).")
        assert certified(query, (), self.encoded.database, self.encoded.program)
