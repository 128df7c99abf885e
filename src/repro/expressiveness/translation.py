"""The proof-tree-to-Datalog rewriting (Lemma 6.4 / Theorem 6.3).

Every query Q = (Σ, q) with Σ ∈ WARD ∩ PWL can be rewritten into an
equivalent piece-wise linear Datalog query; every Q with Σ ∈ WARD into
an equivalent Datalog query.  The construction converts proof trees
into Datalog rules over predicates ``C[p]`` — one per CQ *p* occurring
as a node label, identified up to canonical variable renaming:

* a node labeled p0 with children p1, ..., pk becomes the full TGD
  ``C[p1](x̄1), ..., C[pk](x̄k) → C[p0](x̄0)``;
* a label that can be a *leaf* — its atoms evaluated directly over the
  database — becomes an evaluation rule ``atoms(p) → C[p](x̄p)``;
* the root labels (one per partition π of the output variables)
  feed a final ``Answer`` predicate that realizes eq_π.

Instead of enumerating proof trees one by one, the implementation
enumerates the finite space of canonical node labels of node-width at
most the Theorem 4.8/4.9 bound and emits a rule per valid edge; the
resulting program simulates *every* bounded-width proof tree at once.

**Database schema modes.**  The Section 6 expressiveness setting
evaluates queries over databases over ``edb(Σ)`` only; then a label can
be a leaf iff all its atoms are extensional (``database_schema="edb"``,
the default).  Practical knowledge-graph databases also seed
intensional predicates with facts; ``database_schema="full"`` supports
that by letting *every* label be a leaf, through auxiliary non-recursive
``L[p]`` predicates (defined only by evaluation rules, plus a bridge
``L[p] → C[p]``) so that linear-mode output remains piece-wise linear:
a decomposition rule uses the recursive ``C`` form for at most one
child and the non-recursive ``L`` form for the rest.

With ``linear=True`` decomposition edges follow the linear-proof-tree
shape (at most one non-leaf child), making the output piece-wise
linear; with ``linear=False`` arbitrary decompositions are allowed and
the output is plain Datalog (Theorem 6.3(2)).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..analysis.levels import node_width_bound_pwl, node_width_bound_ward
from ..analysis.piecewise import is_piecewise_linear
from ..analysis.wardedness import is_warded
from ..core.atoms import Atom
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.substitution import Substitution
from ..core.terms import Variable
from ..core.tgd import TGD
from ..prooftree.canonical import canonical_form
from ..prooftree.decomposition import connected_components, restrict_output
from ..prooftree.resolution import ido_resolvents
from ..prooftree.specialization import enumerate_specializations

__all__ = [
    "RewritingResult",
    "proof_tree_rewriting",
    "pwl_to_datalog",
    "ward_to_datalog",
    "set_partitions",
    "eq_partition_substitution",
]

_ANSWER = "Answer"
_OUT_PREFIX = "ᵒ"


@dataclass
class RewritingResult:
    """A Datalog rewriting of a (Σ, q) query."""

    program: Program                 # full single-head TGDs over edb(Σ) ∪ C[...]
    query: ConjunctiveQuery          # atomic query over the Answer predicate
    states: int                      # canonical node labels discovered
    rules: int
    complete: bool                   # False iff max_states stopped enumeration
    width_bound: int


def set_partitions(items: Sequence[Variable]) -> Iterator[List[List[Variable]]]:
    """All partitions of *items* (the π of Definition 4.6)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def eq_partition_substitution(
    partition: Sequence[Sequence[Variable]],
) -> Substitution:
    """``eq_π``: map the variables of each block to one representative.

    The representative of a block is its first element (the paper's
    "distinguished element of S_i").
    """
    mapping = {}
    for block in partition:
        if not block:
            raise ValueError("partition blocks must be non-empty")
        representative = block[0]
        for var in block:
            if var != representative:
                mapping[var] = representative
    return Substitution(mapping)


def _output_variable(index: int) -> Variable:
    return Variable(f"{_OUT_PREFIX}{index}")


@dataclass(frozen=True)
class _StateKey:
    """Canonical identity of a node label: frozen outputs + canonical body."""

    outputs: tuple[Variable, ...]
    atoms: tuple[Atom, ...]


class _Enumerator:
    """Worklist enumeration of canonical node labels and edge rules."""

    def __init__(
        self,
        program: Program,
        width_bound: int,
        linear: bool,
        full_database: bool,
        max_states: Optional[int],
    ):
        self.program = program
        self.edb = program.extensional_predicates()
        self.width_bound = width_bound
        self.linear = linear
        self.full_database = full_database
        self.max_states = max_states
        self.predicate_of: Dict[_StateKey, str] = {}
        self.rules: List[TGD] = []
        self._rule_keys: Set[tuple] = set()
        self.queue: Deque[_StateKey] = deque()
        self.complete = True

    # -- canonicalization ------------------------------------------------------

    def canonicalize(
        self, query: ConjunctiveQuery
    ) -> Tuple[_StateKey, tuple[Variable, ...]]:
        """Canonical key of a CQ plus its unique outputs in original names.

        Output variables are renamed positionally to the ᵒi pool and
        frozen; the body is then canonicalized around them.
        """
        unique_outputs = tuple(dict.fromkeys(query.output))
        renaming = Substitution(
            {v: _output_variable(i) for i, v in enumerate(unique_outputs)}
        )
        frozen = tuple(_output_variable(i) for i in range(len(unique_outputs)))
        body = canonical_form(renaming.apply_atoms(query.atoms), frozen)
        return _StateKey(frozen, body), unique_outputs

    def state_query(self, key: _StateKey) -> ConjunctiveQuery:
        """The canonical representative CQ of a state."""
        return ConjunctiveQuery(key.outputs, key.atoms, head_predicate="C")

    # -- registration ----------------------------------------------------------

    def is_terminal(self, key: _StateKey) -> bool:
        """All atoms extensional: nothing but evaluation applies."""
        return all(atom.predicate in self.edb for atom in key.atoms)

    def leaf_predicate(self, predicate: str) -> str:
        """The non-recursive leaf twin ``L[p]`` of ``C[p]`` (full mode)."""
        return "L" + predicate[1:]

    def register(self, query: ConjunctiveQuery) -> Tuple[str, tuple[Variable, ...]]:
        """Intern a CQ as a state; enqueue for expansion if new and live.

        Returns (predicate name, unique outputs in the caller's names).
        """
        key, original_outputs = self.canonicalize(query)
        predicate = self.predicate_of.get(key)
        if predicate is None:
            predicate = f"C{len(self.predicate_of)}"
            self.predicate_of[key] = predicate
            head = Atom(predicate, key.outputs)
            if self.is_terminal(key):
                self.add_rule(TGD(key.atoms, (head,), label="eval"))
            else:
                if self.full_database:
                    leaf = Atom(self.leaf_predicate(predicate), key.outputs)
                    self.add_rule(TGD(key.atoms, (leaf,), label="leaf"))
                    self.add_rule(TGD((leaf,), (head,), label="bridge"))
                self.queue.append(key)
        return predicate, original_outputs

    def add_rule(self, rule: TGD) -> None:
        marked = rule.body + (Atom("HEAD::" + rule.head[0].predicate,
                                   rule.head[0].args),)
        dedup_key = canonical_form(marked)
        if dedup_key in self._rule_keys:
            return
        self._rule_keys.add(dedup_key)
        self.rules.append(rule)

    # -- expansion -------------------------------------------------------------

    def _decomposition_rules(
        self, key: _StateKey, query: ConjunctiveQuery, head: Atom
    ) -> None:
        components = connected_components(query.atoms, query.output_variables())
        if len(components) <= 1:
            return
        children = [
            ConjunctiveQuery(
                restrict_output(query.output, component),
                tuple(component),
                head_predicate="C",
            )
            for component in components
        ]
        registered = []
        for child in children:
            child_pred, child_outputs = self.register(child)
            child_key = self.canonicalize(child)[0]
            registered.append(
                (child_pred, child_outputs, self.is_terminal(child_key))
            )

        if not self.linear:
            body = tuple(
                Atom(pred, outputs) for pred, outputs, _ in registered
            )
            self.add_rule(TGD(body, (head,), label="dec"))
            return

        non_terminal = [i for i, (_, _, term) in enumerate(registered) if not term]
        if not non_terminal:
            body = tuple(
                Atom(pred, outputs) for pred, outputs, _ in registered
            )
            self.add_rule(TGD(body, (head,), label="dec"))
            return
        if not self.full_database:
            # Leaves must be all-extensional: a linear tree allows at most
            # one non-leaf child, so >1 non-terminal component is useless.
            if len(non_terminal) > 1:
                return
            body = tuple(
                Atom(pred, outputs) for pred, outputs, _ in registered
            )
            self.add_rule(TGD(body, (head,), label="dec"))
            return
        # Full-database linear mode: any child may be a leaf via its L
        # twin; emit one rule per choice of the single active (C) child.
        for active in non_terminal:
            body = []
            for i, (pred, outputs, terminal) in enumerate(registered):
                if terminal or i == active:
                    body.append(Atom(pred, outputs))
                else:
                    body.append(Atom(self.leaf_predicate(pred), outputs))
            self.add_rule(TGD(tuple(body), (head,), label="dec"))

    def expand(self, key: _StateKey) -> None:
        query = self.state_query(key)
        head = Atom(self.predicate_of[key], key.outputs)

        # (r) IDO resolvents: a single-child edge per resolvent.
        for tgd in self.program:
            for resolvent in ido_resolvents(query, tgd):
                if resolvent.query.width() > self.width_bound:
                    continue
                child_pred, child_outputs = self.register(resolvent.query)
                self.add_rule(
                    TGD((Atom(child_pred, child_outputs),), (head,), label="res")
                )

        # (s) single-step specializations.
        for special in enumerate_specializations(query):
            child_pred, child_outputs = self.register(special)
            self.add_rule(
                TGD((Atom(child_pred, child_outputs),), (head,), label="spec")
            )

        # (d) decomposition into connected components.
        self._decomposition_rules(key, query, head)

    def run(self) -> None:
        while self.queue:
            if (
                self.max_states is not None
                and len(self.predicate_of) > self.max_states
            ):
                self.complete = False
                return
            self.expand(self.queue.popleft())


def proof_tree_rewriting(
    query: ConjunctiveQuery,
    program: Program,
    *,
    linear: bool = True,
    width_bound: Optional[int] = None,
    max_states: Optional[int] = 20000,
    database_schema: str = "edb",
) -> RewritingResult:
    """Rewrite (Σ, q) into an equivalent Datalog query.

    ``linear=True`` follows Lemma 6.4 (linear proof trees, PWL output);
    ``linear=False`` follows the Theorem 6.3(2) construction (arbitrary
    proof trees, Datalog output).  ``database_schema`` selects the
    Section 6 setting (``"edb"``: databases over extensional predicates
    only) or the practical one (``"full"``: databases may also seed
    intensional predicates).  The ``width_bound`` defaults to the
    corresponding theorem's node-width polynomial on the single-head
    normalization; smaller bounds produce smaller programs but may lose
    answers (the benchmarks verify equivalence empirically).
    """
    if database_schema not in ("edb", "full"):
        raise ValueError(f"unknown database_schema {database_schema!r}")
    normalized = program.single_head()
    if width_bound is None:
        width_bound = (
            node_width_bound_pwl(query, normalized)
            if linear
            else node_width_bound_ward(query, normalized)
        )
        width_bound = max(width_bound, query.width())

    enumerator = _Enumerator(
        normalized,
        width_bound,
        linear,
        database_schema == "full",
        max_states,
    )

    unique_outputs = list(dict.fromkeys(query.output))
    answer_rules: List[TGD] = []
    for partition in set_partitions(unique_outputs):
        eq = eq_partition_substitution(partition)
        root = ConjunctiveQuery(
            tuple(
                v for v in dict.fromkeys(
                    eq.apply_term(o) for o in query.output
                )
                if isinstance(v, Variable)
            ),
            eq.apply_atoms(query.atoms),
            head_predicate="C",
        )
        root_pred, root_outputs = enumerator.register(root)
        head_args = tuple(eq.apply_term(o) for o in query.output)
        answer_rules.append(
            TGD(
                (Atom(root_pred, root_outputs),),
                (Atom(_ANSWER, head_args),),
                label="answer",
            )
        )

    enumerator.run()
    for rule in answer_rules:
        enumerator.add_rule(rule)

    rewritten = Program(enumerator.rules, name=f"rewriting({program.name})")
    answer_vars = tuple(
        Variable(f"a{i}") for i in range(len(query.output))
    )
    final_query = ConjunctiveQuery(
        answer_vars,
        (Atom(_ANSWER, answer_vars),),
        head_predicate=query.head_predicate,
    )
    return RewritingResult(
        program=rewritten,
        query=final_query,
        states=len(enumerator.predicate_of),
        rules=len(enumerator.rules),
        complete=enumerator.complete,
        width_bound=width_bound,
    )


def pwl_to_datalog(
    query: ConjunctiveQuery,
    program: Program,
    *,
    width_bound: Optional[int] = None,
    max_states: Optional[int] = 20000,
    database_schema: str = "edb",
    check_membership: bool = True,
) -> RewritingResult:
    """Lemma 6.4: (WARD ∩ PWL, CQ) ⟶ piece-wise linear Datalog."""
    if check_membership:
        if not is_warded(program):
            raise ValueError("program is not warded")
        if not is_piecewise_linear(program):
            raise ValueError("program is not piece-wise linear")
    return proof_tree_rewriting(
        query,
        program,
        linear=True,
        width_bound=width_bound,
        max_states=max_states,
        database_schema=database_schema,
    )


def ward_to_datalog(
    query: ConjunctiveQuery,
    program: Program,
    *,
    width_bound: Optional[int] = None,
    max_states: Optional[int] = 20000,
    database_schema: str = "edb",
    check_membership: bool = True,
) -> RewritingResult:
    """Theorem 6.3(2): (WARD, CQ) ⟶ Datalog."""
    if check_membership and not is_warded(program):
        raise ValueError("program is not warded")
    return proof_tree_rewriting(
        query,
        program,
        linear=False,
        width_bound=width_bound,
        max_states=max_states,
        database_schema=database_schema,
    )
