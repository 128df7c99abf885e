"""Prepared plans: a query text is parsed and planned once per option
set, on :class:`~repro.api.Session` and through the server."""

import sys
import threading

import pytest

import repro.api.session as session_module
from repro.api import Session
from repro.core.terms import NullFactory
from repro.incremental import ChangeSet
from repro.lang.parser import ParserError
from repro.lint import LintError
from repro.server import ReasoningService

SOURCE = """
    e(a,b). e(b,c). e(c,d).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""
OTHER_SOURCE = "e(a,b). t(X,Y) :- e(Y,X)."
EXISTENTIAL = "p(a). r(X,Z) :- p(X)."
TEXT = "q(X) :- t(a,X)."


@pytest.fixture()
def parses(monkeypatch):
    """The texts ``Session.plan`` handed to ``parse_query``."""
    seen = []
    parse_query = session_module.parse_query

    def counting(text, *args, **kwargs):
        seen.append(text)
        return parse_query(text, *args, **kwargs)

    monkeypatch.setattr(session_module, "parse_query", counting)
    return seen


def loaded(source=SOURCE):
    session = Session()
    session.load(source)
    return session


def test_session_parses_a_repeated_text_once(parses):
    session = loaded()
    answers = {tuple(session.query(TEXT).to_sorted()) for _ in range(50)}
    assert len(answers) == 1
    assert parses == [TEXT]
    assert session.plan(TEXT) is session.plan(TEXT)
    assert session.explain(TEXT) == session.plan(TEXT).explain()
    assert parses == [TEXT]
    assert session.prepared_stats() == {
        "entries": 1, "hits": 53, "misses": 1,
    }


def test_service_parses_a_repeated_text_once(parses):
    service = ReasoningService(SOURCE)
    answers = {service.query(TEXT).answers for _ in range(50)}
    assert answers == {(("b",), ("c",), ("d",))}
    assert parses == [TEXT]


def test_a_parsed_query_is_planned_every_time(parses):
    session = loaded()
    query = session.plan(TEXT).query
    assert session.plan(query) is not session.plan(query)
    assert session.prepared_stats()["entries"] == 1


def test_each_option_set_is_its_own_entry():
    option_sets = [
        {}, {"method": "chase"}, {"rewrite": "none"},
        {"method": "chase", "max_atoms": 50},
        {"method": "chase", "max_atoms": 51},
        {"method": "chase", "strict": False},
    ]
    session = loaded()
    plans = [session.plan(TEXT, **options) for options in option_sets]
    assert len({id(plan) for plan in plans}) == len(plans)
    for options, plan in zip(option_sets, plans):
        assert session.plan(TEXT, **options) is plan
    assert session.prepared_stats()["entries"] == len(option_sets)
    answers = {
        session.query(TEXT, **options).to_set() for options in option_sets
    }
    assert len(answers) == 1


@pytest.mark.parametrize(
    "method, collaborator",
    [("network", {"null_factory": NullFactory()}),
     ("network", {"guide": None}),
     ("pwl", {"oracle": None})],
    ids=lambda value: next(iter(value)) if isinstance(value, dict) else value,
)
def test_a_live_collaborator_is_never_prepared(parses, method, collaborator):
    session = loaded(EXISTENTIAL)
    text = "q(X) :- r(X,Y)."
    first = session.plan(text, method=method, **collaborator)
    assert session.plan(text, method=method, **collaborator) is not first
    assert first.engine_kwargs == collaborator
    assert parses == [text, text]
    assert session.prepared_stats() == {"entries": 0, "hits": 0, "misses": 0}


def test_a_second_program_gets_its_own_plan():
    session = Session()
    first = session.load(SOURCE)
    first_plan = session.plan(TEXT)
    second = session.load(OTHER_SOURCE)
    second_plan = session.plan(TEXT)
    assert second_plan.program is second and first_plan.program is first
    assert session.plan(TEXT, program=first) is first_plan
    assert session.plan(TEXT, program=second) is second_plan
    assert set(map(str, session.query("q(X) :- t(b,X).").to_set())) == {
        "(Constant('a'),)"
    }


def test_errors_are_raised_every_time_and_never_kept(parses):
    session = loaded()
    broken = "q(X) :- t(a X"
    for _ in range(3):
        with pytest.raises(ParserError):
            session.plan(broken)
    assert parses == [broken] * 3
    for bad in ({"method": "nope"}, {"rewrite": "nope"}, {"method": ["pwl"]},
                {"rewrite": {"none"}}, {"rewrite": "magic", "method": "chase"}):
        for _ in range(2):
            with pytest.raises(ValueError):
                session.plan(TEXT, **bad)
    unsafe = loaded("e(a,b). t(X,Y) :- e(X,Z).\nt(X) :- e(X,Y).")
    for _ in range(2):
        with pytest.raises(LintError):
            unsafe.plan("q(X) :- t(X).")
    for each in (session, unsafe):
        assert each.prepared_stats() == {"entries": 0, "hits": 0, "misses": 0}


def test_the_lru_is_bounded_and_keeps_the_recent(monkeypatch):
    monkeypatch.setattr(session_module, "PREPARED_PLAN_LIMIT", 8)
    session = loaded()
    hot = session.plan(TEXT)
    for index in range(24):
        session.plan(f"q(X) :- t(n{index},X).")
        assert session.plan(TEXT) is hot  # re-read, so never the oldest
        assert session.prepared_stats()["entries"] <= 8
    stats = session.prepared_stats()
    assert stats["entries"] == 8 and stats["misses"] == 25
    kept = session.plan("q(X) :- t(n23,X).")
    assert session.prepared_stats()["misses"] == 25
    assert session.plan("q(X) :- t(n0,X).") is not kept
    assert session.prepared_stats()["misses"] == 26


def test_prepared_plans_survive_apply():
    session = loaded()
    plan = session.plan(TEXT)
    before = session.query(TEXT).to_set()
    session.apply(ChangeSet.parse("+e(d,f)."))
    assert session.plan(TEXT) is plan
    after = session.query(TEXT).to_set()
    assert len(after) == len(before) + 1


def test_threads_share_the_prepared_plans():
    service = ReasoningService(SOURCE)
    texts = [f"q(X) :- t({name},X)." for name in "abcde"]
    expected = {text: service.query(text).answers for text in texts}
    errors = []

    def reader(index):
        try:
            for step in range(200):
                text = texts[(index + step) % len(texts)]
                assert service.query(text).answers == expected[text]
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=reader, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    stats = service.stats()["prepared"]
    assert stats["entries"] == len(texts) == stats["misses"]
    assert stats["hits"] == 8 * 200
