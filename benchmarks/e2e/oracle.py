"""The independent checker: pure Python, no import of :mod:`repro`.

Graph reachability by breadth-first search is all either program family
needs, so the expected answers are computed here from the edge lists
alone and compared with what the program under test returned — after
the timed window has closed.

* churn family: ``t`` = transitive closure of ``e``, ``mutual(X,Y)`` =
  ``t(X,Y) ∧ t(Y,X)``, ``reach(X)`` = ``∃Y t(X,Y)``, each at the EDB
  version a read was admitted under (the ordered update list replayed
  up to that version);
* iwarded PWL family: ``iw_t`` = pairs joined by an odd-length walk in
  ``iw_e`` (``t`` and ``s`` alternate one ``h = e`` step at a time), and
  the certain answers of ``iw_P`` are exactly its seed constants (the
  existential core only ever invents nulls).
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict, deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Pair = Tuple[str, str]

_QUERY = re.compile(r"q\((.*?)\)\s*:-\s*(\w+)\((.*?)\)\s*\.")


def facts(text: str, predicate: str) -> List[tuple]:
    """Argument tuples of every ``predicate(a,…).`` fact line of a program
    text (the oracle reads the same file the program under test loads)."""
    found = re.findall(rf"^{predicate}\(([\w,]+)\)\.$", text, re.MULTILINE)
    return [tuple(args.split(",")) for args in found]


def changes(text: str) -> Tuple[List[Pair], List[Pair]]:
    """(retracted, inserted) ``e`` pairs of an update op's change block."""
    found = re.findall(r"^([+-])e\((\w+),(\w+)\)\.$", text, re.MULTILINE)
    return (
        [(a, b) for sign, a, b in found if sign == "-"],
        [(a, b) for sign, a, b in found if sign == "+"],
    )


def closure(edges: Iterable[Pair]) -> Set[Pair]:
    """All (x, y) with a non-empty path x →…→ y."""
    out = defaultdict(list)
    for a, b in edges:
        out[a].append(b)
    pairs = set()
    for source in list(out):
        seen = set()
        queue = deque(out[source])
        while queue:
            node = queue.popleft()
            if node not in seen:
                seen.add(node)
                queue.extend(out.get(node, ()))
        pairs.update((source, node) for node in seen)
    return pairs


def odd_walk_pairs(edges: Iterable[Pair]) -> Set[Pair]:
    """All (x, y) joined by a walk of odd length (BFS over (node, parity))."""
    out = defaultdict(list)
    for a, b in edges:
        out[a].append(b)
    pairs = set()
    for source in list(out):
        seen = {(source, 0)}
        queue = deque(seen)
        while queue:
            node, parity = queue.popleft()
            for successor in out.get(node, ()):
                state = (successor, 1 - parity)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
        pairs.update((source, node) for node, parity in seen if parity == 1)
    return pairs


def churn_relations(edges: Iterable[Pair]) -> Dict[str, Set[tuple]]:
    t = closure(edges)
    return {
        "t": t,
        "mutual": {(x, y) for x, y in t if (y, x) in t},
        "reach": {(x,) for x, _ in t},
    }


def evaluate(query: str, relations: Dict[str, Set[tuple]]) -> Set[tuple]:
    """Answers of a single-atom query ``q(X̄) :- p(ā).`` over *relations*.

    Arguments starting with an upper-case letter are variables, anything
    else a constant; a Boolean query answers ``{()}`` or ``{}``.
    """
    match = _QUERY.fullmatch(query.strip())
    if match is None:
        raise ValueError(f"oracle cannot read query {query!r}")
    head, predicate, body = match.groups()
    output = [v.strip() for v in head.split(",") if v.strip()]
    args = [a.strip() for a in body.split(",")]
    answers = set()
    for row in relations[predicate]:
        binding: Dict[str, str] = {}
        if len(row) == len(args) and all(
            binding.setdefault(arg, value) == value if arg[0].isupper()
            else arg == value
            for arg, value in zip(args, row)
        ):
            answers.add(tuple(binding[v] for v in output))
    return answers


def digest(rows: Iterable[Sequence[str]]) -> str:
    """Order-insensitive fingerprint of an answer set (how the one-op
    children report 10^4–10^5 answers without shipping them)."""
    lines = sorted("\t".join(row) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class ChurnOracle:
    """Expected answers of a serve replicate, version by version."""

    def __init__(self, edges: Iterable[Pair], updates: Sequence[Tuple[tuple, tuple]]):
        self._edges = set(edges)
        self._updates = list(updates)
        self._versions: List[Dict[str, Set[tuple]]] = []
        self._expected: Dict[Tuple[int, str], Set[tuple]] = {}

    def relations(self, version: int) -> Dict[str, Set[tuple]]:
        """Relations after the first *version* updates (computed in order,
        once each, as reads ask for them)."""
        while len(self._versions) <= version:
            applied = len(self._versions)
            if applied:
                retracted, inserted = self._updates[applied - 1]
                self._edges.difference_update(retracted)
                self._edges.update(inserted)
            self._versions.append(churn_relations(self._edges))
        return self._versions[version]

    def expected(self, query: str, version: int) -> Set[tuple]:
        """Answers of *query* after *version* updates (hot reads repeat
        across ops and replicates, so each is evaluated once)."""
        key = (version, query)
        if key not in self._expected:
            self._expected[key] = evaluate(query, self.relations(version))
        return self._expected[key]

    def check(self, ops, responses: Sequence[dict], baseline: int) -> int:
        """How many of a replicate's ops failed: an error response, an
        update or read stamped with the wrong version, or answers that
        differ from the expected set."""
        failed = 0
        applied = 0
        for op, response in zip(ops, responses):
            if op.kind == "update":
                applied += 1
            good = (
                response.get("ok") is True
                and response.get("version") == baseline + applied
            )
            if good and op.kind == "read":
                rows = [tuple(row) for row in response.get("answers", ())]
                expected = self.expected(op.text, applied)
                good = len(rows) == len(expected) and set(rows) == expected
            failed += not good
        return failed + abs(len(ops) - len(responses))
