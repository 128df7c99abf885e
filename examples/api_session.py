"""The session layer: compile once, query many, stream answers.

Run with::

    PYTHONPATH=src python examples/api_session.py

Demonstrates the `repro.api` front door (see docs/API.md): a `Session`
that owns the EDB and a storage backend, a `CompiledProgram` whose
classification runs exactly once, an inspectable `QueryPlan`, and the
pull-based `AnswerStream`.
"""

from repro.api import Session

PROGRAM = """
    edge(a, b).  edge(b, c).  edge(c, d).
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
"""


def main() -> None:
    session = Session(store="columnar")
    compiled = session.load(PROGRAM, name="tc")

    # The plan is inspectable before anything runs.
    print(session.explain("q(X, Y) :- tc(X, Y)."))
    print()

    # Lazy streaming: the engine runs only as far as pulled.
    stream = session.query("q(X, Y) :- tc(X, Y).")
    print("first answer:", stream.first(1)[0])
    print("exhausted yet?", stream.exhausted)
    print("full set:", sorted(stream.to_set(), key=str))
    print()

    # Query many: the second query reuses the cached materialization,
    # and classification still ran exactly once.
    reuse = session.query("q(X) :- tc(a, X).")
    print("reachable from a:", sorted(reuse.to_set(), key=str))
    print("served from cache?", reuse.stats.from_cache)
    print("analysis runs:", compiled.analysis_runs)

    # Fact updates maintain the cached fixpoint in place — the bound
    # read after one is still a cache hit, with the new answers.
    from repro import parse_program

    _, extra = parse_program("edge(d, e).")
    session.add_facts(extra)
    fresh = session.query("q(X) :- tc(a, X).")
    print("after adding edge(d, e):", sorted(fresh.to_set(), key=str))
    print("served from cache?", fresh.stats.from_cache)


if __name__ == "__main__":
    main()
