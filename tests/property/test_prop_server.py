"""Property test: snapshot isolation under concurrent queries + updates.

The serving layer's acceptance bar: for random change-batch streams
applied through :class:`~repro.server.ReasoningService` while reader
threads issue queries *concurrently*, every answer set must equal a
from-scratch ``certain_answers`` over the EDB **as it stood at the
query's admitted version** — across all three storage backends.  No
answer may blend versions (a torn read), no request may error, and no
version may leak (all leases released once readers drain).
"""

import random
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, certain_answers
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.incremental import ChangeSet
from repro.lang.parser import parse_program, parse_query
from repro.server import ReasoningService
from repro.storage import BACKENDS

RULES = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
r(X) :- t(X, Y).
"""

QUERIES = (
    "q(X, Y) :- t(X, Y).",
    "q(X) :- t(n0, X).",
    "q(X) :- r(X).",
)

PROGRAM, _ = parse_program(RULES, name="prop-server")


@st.composite
def scenarios(draw):
    """A seed edge set plus a stream of insert/retract batches."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(min_value=3, max_value=5))

    def edge():
        return Atom(
            "e",
            (
                Constant(f"n{rng.randrange(n)}"),
                Constant(f"n{rng.randrange(n)}"),
            ),
        )

    seed = {edge() for _ in range(draw(st.integers(1, 5)))}
    batches = []
    for _ in range(draw(st.integers(2, 6))):
        inserts = [edge() for _ in range(rng.randrange(0, 3))]
        retracts = [edge() for _ in range(rng.randrange(0, 2))]
        batches.append(ChangeSet.of(inserts=inserts, retracts=retracts))
    return sorted(seed, key=str), batches


def _source(seed):
    return RULES + "\n".join(f"{atom}." for atom in seed)


def _expected(query_text, atoms):
    answers = certain_answers(
        parse_query(query_text), Database(atoms), PROGRAM, method="datalog"
    )
    return {tuple(str(term) for term in row) for row in answers}


def _run_concurrently(store, seed, batches):
    """Readers query while the writer applies every batch; returns the
    observations plus the EDB state recorded per installed version."""
    service = ReasoningService(_source(seed), store=store)
    edb_states = {0: frozenset(service.snapshots.head.store)}
    observations = []
    errors = []
    start = threading.Barrier(4)
    writer_done = threading.Event()

    def writer():
        start.wait(timeout=10)
        try:
            for batch in batches:
                result = service.apply(batch)
                if result.effective:
                    # Only the writer installs versions: the head is
                    # still exactly the admitted state of result.version.
                    edb_states[result.version] = frozenset(
                        service.snapshots.head.store
                    )
        except Exception as error:  # pragma: no cover
            errors.append(error)
        finally:
            writer_done.set()

    def reader(index):
        rng = random.Random(index)
        start.wait(timeout=10)
        try:
            while True:
                done_before = writer_done.is_set()
                query_text = rng.choice(QUERIES)
                result = service.query(query_text)
                observations.append(
                    (query_text, result.version, result.answers)
                )
                if done_before:
                    return  # one full pass after the last batch landed
        except Exception as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(index,)) for index in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return service, edb_states, observations, errors


@settings(max_examples=8, deadline=None)
@given(scenarios())
def test_concurrent_answers_match_admitted_version(data):
    seed, batches = data
    for store in BACKENDS:
        service, edb_states, observations, errors = _run_concurrently(
            store, seed, batches
        )
        assert not errors, (store, errors)
        assert observations
        expectations = {}
        for query_text, version, answers in observations:
            assert version in edb_states, (store, version)
            key = (query_text, version)
            if key not in expectations:
                expectations[key] = _expected(
                    query_text, edb_states[version]
                )
            got = {tuple(row) for row in answers}
            assert got == expectations[key], (store, query_text, version)
        # No lease leaked: every version's refcount is back to zero.
        assert all(
            count == 0 for count in service.snapshots.refcounts().values()
        ), store


@settings(max_examples=25, deadline=None)
@given(scenarios(), st.sampled_from(("none", "auto")), st.data())
def test_prepared_plans_survive_updates_and_answers_follow_the_edb(
    data, rewrite, draws
):
    """One ``Session`` and one ``ReasoningService`` answer the same few
    texts between change batches: every text is parsed and planned once,
    and every answer equals a fresh session's over the EDB as it then
    stands — a prepared plan holds no store, the per-version fixpoint
    cache decides what is fresh."""
    seed, batches = data
    session = Session()
    session.load(_source(seed))
    service = ReasoningService(_source(seed))
    for batch in [None, *batches]:
        if batch is not None:
            session.apply(batch)
            service.apply(batch)
            assert set(service.snapshots.head.store) == set(session.edb)
        texts = draws.draw(
            st.lists(st.sampled_from(QUERIES), min_size=1, max_size=4)
        )
        for text in texts:
            fresh = Session()
            fresh.compile(PROGRAM)
            fresh.add_facts(session.edb)
            expected = {
                tuple(map(str, row))
                for row in fresh.query(text, rewrite=rewrite).to_set()
            }
            assert expected == _expected(text, session.edb)
            got = session.query(text, rewrite=rewrite).to_set()
            assert {tuple(map(str, row)) for row in got} == expected
            served = service.query(text, rewrite=rewrite)
            assert set(served.answers) == expected
            assert served.version == service.current_version
    for stats in (session.prepared_stats(), service.stats()["prepared"]):
        assert stats["misses"] == stats["entries"] <= len(QUERIES)

