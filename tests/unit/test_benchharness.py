"""Unit tests for the agreement corpus and the answer digest the
benchmarks and agreement tests compare answer sets with."""

import pytest

from repro.benchsuite import SUITES, answer_digest, suite_corpus
from repro.core.terms import Constant

a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestAnswerDigest:
    def test_order_independent(self):
        assert answer_digest([(a, b), (b, c)]) == answer_digest([(b, c), (a, b)])

    def test_content_sensitive(self):
        assert answer_digest([(a, b)]) != answer_digest([(a, c)])
        assert answer_digest([]) != answer_digest([(a,)])

    def test_injective_under_separator_characters(self):
        # Length-prefixed encoding: constants containing the join
        # separators must not collide distinct answer sets.
        assert answer_digest({(Constant("a,b"),)}) != answer_digest(
            {(Constant("a"), Constant("b"))}
        )
        assert answer_digest({(Constant("a\nx"),)}) != answer_digest(
            {(Constant("a"),), (Constant("x"),)}
        )


class TestSuiteCorpus:
    def test_covers_all_families(self):
        corpus = suite_corpus()
        assert {s.suite for s in corpus} == set(SUITES)

    def test_deterministic(self):
        first = suite_corpus(base_seed=7)
        second = suite_corpus(base_seed=7)
        assert [str(s.program) for s in first] == [
            str(s.program) for s in second
        ]
        assert [sorted(map(str, s.database)) for s in first] == [
            sorted(map(str, s.database)) for s in second
        ]

    def test_suite_filter(self):
        corpus = suite_corpus(suites=("dbpedia",))
        assert {s.suite for s in corpus} == {"dbpedia"}

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_corpus(suites=("tpch",))
