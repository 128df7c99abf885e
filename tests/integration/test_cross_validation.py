"""Cross-engine validation on generated scenarios.

Every engine in the package implements the same semantics (certain
answers); these tests run them against each other on seeded scenarios
from the benchmark suites — the strongest correctness signal the
reproduction has.
"""

import random

import pytest

from repro.analysis import is_piecewise_linear, is_warded
from repro.api import Session, certain_answers
from repro.api.program import compile_program
from repro.benchsuite import (
    answer_digest,
    generate_chasebench,
    generate_dbpedia,
    generate_ibench,
    generate_industrial,
    generate_iwarded,
    suite_corpus,
)
from repro.chase import LinearForestPolicy
from repro.chase.runner import chase
from repro.datalog.seminaive import seminaive
from repro.lang.parser import parse_program, parse_query
from repro.reasoning.answers import UnsupportedProgramError
from repro.reasoning.pwl_ward import decide_pwl_ward
from repro.reasoning.ward import decide_ward
from repro.storage import BACKENDS

#: The strict chase's budget on the agreement corpus.  A run that does
#: not saturate inside it (the iWarded existential cores never do) is
#: sound but incomplete, so it is left out of the comparison.
CHASE_BUDGET = dict(max_atoms=4000, max_steps=8000)


class TestDatalogEnginesAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seminaive_vs_chase_vs_network(self, seed):
        rng = random.Random(seed)
        n = 8
        facts = "\n".join(
            f"e(n{rng.randrange(n)}, n{rng.randrange(n)})." for _ in range(12)
        )
        program, database = parse_program(facts + """
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        via_seminaive = seminaive(database, program).evaluate(query)
        via_chase = chase(database, program).evaluate(query)
        # The Section 7 network is the chase under the linear forest.
        via_network = chase(
            database, program, policy=LinearForestPolicy()
        ).evaluate(query)
        assert via_seminaive == via_chase == via_network


class TestProofTreeVsChase:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_pwl_engine_matches_chase_on_datalog(self, seed):
        scenario = generate_iwarded(seed=seed, flavour="linear", vertices=7,
                                    edges=10)
        # Restrict to the full (Datalog) sub-program for a terminating
        # chase baseline: drop the existential core.
        from repro.core.program import Program

        full_rules = [t for t in scenario.program if t.is_full()]
        program = Program(full_rules)
        database = scenario.database
        query = parse_query("q(X,Y) :- iw_t(X,Y).")
        baseline = chase(database, program).evaluate(query)
        via_engine = certain_answers(query, database, program, method="pwl")
        assert via_engine == baseline

    def test_decisions_match_chase_with_existentials(self):
        program, database = parse_program("""
            p(a). p(b). e(a,b).
            r(X,K) :- p(X).
            s(Y) :- r(X,Y), e(X,Z).
        """)
        assert is_warded(program) and is_piecewise_linear(program)
        # Boolean probes answered by both the chase (terminating here)
        # and the proof-tree engines must agree.
        for text, expected in [
            ("q() :- r(a, W).", True),
            ("q() :- s(W).", True),
            ("q(X) :- r(X, W).", None),
        ]:
            query = parse_query(text)
            result = chase(database, program, max_atoms=5000)
            assert result.saturated
            chase_answers_set = result.evaluate(query)
            engine_answers = certain_answers(
                query, database, program, method="pwl"
            )
            assert engine_answers == chase_answers_set


class TestWardVsPwl:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_engines_agree_on_pwl_scenarios(self, seed):
        scenario = generate_industrial(
            seed=seed, flavour="control", companies=8, ownerships=12
        )
        query = scenario.queries[0]
        database = scenario.database
        domain = sorted(database.constants(), key=str)[:4]
        rng = random.Random(seed)
        for _ in range(4):
            answer = (rng.choice(domain), rng.choice(domain))
            via_pwl = decide_pwl_ward(
                query, answer, database, scenario.program
            ).accepted
            via_ward = decide_ward(
                query, answer, database, scenario.program
            ).accepted
            assert via_pwl == via_ward


class TestSuiteCorpusAgreement:
    @pytest.mark.parametrize(
        "scenario",
        suite_corpus(base_seed=2019),
        ids=lambda sc: f"{sc.suite}-{sc.name}",
    )
    def test_engines_and_stores_agree(self, scenario):
        """Every exact engine answers the scenario's first query alike:
        the proof-tree engines once (they hold no instance, so the
        store cannot change them), the materializing ones on every
        store."""
        analysis = compile_program(scenario.program).analysis
        runs = [("ward", "instance")]
        if analysis.piecewise_linear:
            runs.append(("pwl", "instance"))
        for store in BACKENDS:
            runs.append(("chase", store))
            if analysis.full and analysis.single_head:
                runs.append(("datalog", store))
        digests = {}
        for method, store in runs:
            session = Session(store=store)
            session.add_facts(scenario.database)
            compiled = session.compile(scenario.program)
            stream = session.query(
                scenario.queries[0], program=compiled, method=method,
                **(CHASE_BUDGET if method == "chase" else {}),
            )
            try:
                digests[method, store] = answer_digest(stream.to_set())
            except UnsupportedProgramError:
                assert method == "chase", (method, store)
        assert len(set(digests.values())) == 1, digests
        # Whether the chase saturates is the program's business, not
        # the store's: all three stores or none.
        saturated = {store for method, store in digests if method == "chase"}
        assert saturated in (set(), set(BACKENDS)), saturated


class TestSuiteScenariosAnswerable:
    def test_ibench_scenarios_evaluate(self):
        scenario = generate_ibench(seed=9, primitives=4)
        query = scenario.queries[0]
        answers = certain_answers(
            query, scenario.database, scenario.program, method="auto"
        )
        # data-exchange scenarios always propagate their sources
        assert isinstance(answers, set)

    def test_chasebench_scenario_evaluates(self):
        scenario = generate_chasebench(seed=10, recursion="linear", entities=6)
        query = scenario.queries[0]     # q(X) :- cb_org(X)
        answers = certain_answers(
            query, scenario.database, scenario.program, method="pwl"
        )
        assert answers  # every hospital becomes an org

    def test_dbpedia_scenario_evaluates(self):
        scenario = generate_dbpedia(seed=11, classes=6, entities=8)
        query = scenario.queries[1]     # subclass closure
        answers = certain_answers(
            query, scenario.database, scenario.program, method="pwl"
        )
        direct_facts = {
            (atom.args[0], atom.args[1])
            for atom in scenario.database.with_predicate("subClass")
        }
        assert direct_facts <= answers
