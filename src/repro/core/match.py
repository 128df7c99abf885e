"""The tuple-at-a-time join compiler.

An atom sequence — a query body, a rule body — is compiled once into
slot-addressed probe :class:`Step` s in the static order of
:func:`~repro.core.homomorphism.most_selective`, and re-bound per stored
tuple: no :class:`~repro.core.substitution.Substitution`, no resolved
pattern atom, no per-node ordering, and a step that binds nothing is
one membership test (:func:`probe`).  A rule additionally gets its head
as a projection of the row and one form per *pinned* body position, so
the semi-naive rounds, the maintenance waves and the chase's trigger
discovery all run their delta joins through :func:`walk`.
:func:`~repro.core.homomorphism.homomorphisms` is the reference this is
pinned against (``tests/property/test_prop_body_compile.py``); the batch
counterpart is :mod:`repro.kernels.compiler`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from .atoms import Atom
from .homomorphism import most_selective
from .terms import Variable

__all__ = ["AtomSet", "compile_atoms", "compile_rule", "pinned_candidates",
           "probe", "walk", "rule_heads"]


class AtomSet:
    """A small predicate-indexed atom set: the delta side of a join
    (``by_predicate`` / ``count`` / membership, insertion-ordered)."""

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: set[Atom] = set()
        self._by_predicate: Dict[str, List[Atom]] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom) -> bool:
        size = len(self._atoms)
        self._atoms.add(atom)  # one hash: grew iff the atom is new
        if len(self._atoms) == size:
            return False
        self._by_predicate.setdefault(atom.predicate, []).append(atom)
        return True

    def __contains__(self, atom: object) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        return iter(tuple(self._by_predicate.get(predicate, ())))

    def count(self, predicate: str) -> int:
        return len(self._by_predicate.get(predicate, ()))


class Step(NamedTuple):
    """One atom of a compiled sequence.  Variables live in numbered
    slots of a row; a step says what to probe and where a match goes."""

    predicate: str
    arity: int
    constants: tuple  # (1-based position, term) per non-variable argument
    feeds: tuple      # (1-based position, slot) per variable bound earlier
    binds: tuple      # (0-based index, slot) per variable first bound here
    agree: tuple      # (index, earlier index) per variable repeated here


def compile_atoms(atoms: Sequence[Atom], pinned: Optional[int] = None):
    """``(steps, order, slots)`` of *atoms*: the atom at index *pinned*
    first (its candidates come from a delta, not from a probe), the rest
    in the static order of :func:`most_selective`.  ``order[depth]`` is
    the index in *atoms* of the step at that depth, ``slots`` the slot of
    each variable."""
    pending, where = list(atoms), list(range(len(atoms)))
    slots: dict[Variable, int] = {}
    steps, order = [], []
    while pending:
        at = most_selective(pending, slots) if pinned is None else pinned
        pinned = None
        atom = pending.pop(at)
        order.append(where.pop(at))
        constants, feeds, binds, agree = parts = [], [], [], []
        first: dict[Variable, int] = {}
        for index, term in enumerate(atom.args):
            if not isinstance(term, Variable):
                constants.append((index + 1, term))
            elif term in first:
                agree.append((index, first[term]))
            elif term in slots:
                feeds.append((index + 1, slots[term]))
            else:
                first[term] = index
                binds.append((index, len(slots)))
                slots[term] = len(slots)
        # Tuples: compiled forms stay resident with their query or rule.
        steps.append(Step(atom.predicate, len(atom.args), *map(tuple, parts)))
    return tuple(steps), tuple(order), slots


class RuleForm(NamedTuple):
    """A rule body compiled with one atom first (or none) and the head
    as a projection of the row."""

    steps: tuple
    depth_of: tuple   # body position → depth of its step
    earlier: tuple    # (depth, predicate) per body position before the pin
    template: tuple   # the initial row: a cell per variable, then the head's constants
    heads: tuple      # (predicate, row cells) per head atom


class CompiledRule(NamedTuple):
    """Every compiled form of one rule (see :func:`compile_rule`)."""

    pinned: tuple        # one RuleForm per body position, that atom first
    full: RuleForm       # no atom pinned: every match of the body
    from_head: RuleForm  # head[0] first, then the body: is a given fact derivable?
    existential: tuple   # row cells of the head-only variables, by name

    def head_atoms(self, image: Sequence[Atom], nulls: Sequence = ()) -> tuple:
        """The head under the match whose body image is *image*, the
        existential variables sent to *nulls* (in name order)."""
        form = self.full
        row = list(form.template)
        for stored, depth in zip(image, form.depth_of):
            for index, slot in form.steps[depth].binds:
                row[slot] = stored.args[index]
        for slot, null in zip(self.existential, nulls):
            row[slot] = null
        return tuple(
            Atom(predicate, tuple([row[cell] for cell in cells]))
            for predicate, cells in form.heads
        )


def _form(body, head, pinned: Optional[int] = None) -> RuleForm:
    steps, order, slots = compile_atoms(body, pinned)
    cells: dict = dict(slots)
    template: list = [None] * len(slots)
    # Head-only variables by name, then the head's constants: a cell
    # each, so the head is a plain projection of the row.
    unbound = {t for a in head for t in a.args if isinstance(t, Variable)}
    for term in sorted(unbound - set(slots), key=lambda v: v.name) + [
        t for a in head for t in a.args
    ]:
        if term not in cells:
            cells[term] = len(template)
            template.append(None if isinstance(term, Variable) else term)
    depth_of = tuple(sorted(range(len(order)), key=order.__getitem__))
    return RuleForm(
        steps, depth_of,
        tuple((depth_of[at], body[at].predicate) for at in range(pinned or 0)),
        tuple(template),
        tuple((a.predicate, tuple(cells[t] for t in a.args)) for a in head),
    )


def compile_rule(tgd) -> CompiledRule:
    """Compile *tgd* (anything with ``body``, ``head`` and
    ``existential_variables()``) once, for every way a rule is joined."""
    body, head = tgd.body, tgd.head
    bound = len(tgd.body_variables())
    return CompiledRule(
        tuple(_form(body, head, at) for at in range(len(body))),
        _form(body, head),
        _form(head[:1] + body, (), 0),
        tuple(range(bound, bound + len(tgd.existential_variables()))),
    )


def pinned_candidates(step: Step, atoms: Iterable[Atom]) -> list:
    """Those of *atoms* a pinned first *step* can start from (predicate,
    arity and constants; repeated variables are the walk's) — a fresh
    list, so the source may change while it is consumed."""
    return [
        atom for atom in atoms
        if atom.predicate == step.predicate
        and len(atom.args) == step.arity
        and all(atom.args[at - 1] == term for at, term in step.constants)
    ]


def probe(step: Step, store, row) -> Iterator[Atom]:
    """The stored atoms *step* may match under the slots of *row*.  A
    step that binds no slot has one possible atom, so it costs one
    ``atom in store``; any other is one ``matching_bound`` probe on its
    bound positions."""
    predicate, arity, constants, feeds, binds, _ = step
    bound = dict(constants)
    for position, slot in feeds:
        bound[position] = row[slot]
    if binds:
        return store.matching_bound(predicate, bound, arity)
    atom = Atom(predicate, tuple([bound[at] for at in range(1, arity + 1)]))
    return iter((atom,) if atom in store else ())


def walk(form: RuleForm, store, delta=None):
    """Yield ``(row, matched)`` for every match of *form*'s steps over
    *store*: ``row`` holds a term per cell, ``matched`` the stored atom
    per depth.  With *delta* the form is a pinned one: it starts from the
    delta atoms of its first step's predicate and reports a match only if
    no earlier body position matched a delta atom, so over all pinned forms
    of a rule each match that uses the delta appears exactly once.  Lazy — a consumer may edit
    *store* between pulls and later probes see it — and allocation-free:
    the pair and both lists are reused, so read them before the next pull.
    """
    steps = form.steps
    last = len(steps) - 1
    row = list(form.template)
    matched: list = [None] * len(steps)
    out = (row, matched)
    iters: list = [None] * len(steps)
    barred = [False] * len(steps)
    if delta is not None:
        iters[0] = iter(
            pinned_candidates(steps[0], delta.by_predicate(steps[0].predicate))
        )
        for depth, predicate in form.earlier:
            barred[depth] = delta.count(predicate) > 0
    depth = 0
    while depth >= 0:
        step = steps[depth]
        binds, agree = step.binds, step.agree
        candidates = iters[depth]
        if candidates is None:
            candidates = iters[depth] = probe(step, store, row)
        for stored in candidates:
            if barred[depth] and stored in delta:
                continue
            args = stored.args
            for index, earlier in agree:
                if args[index] != args[earlier]:
                    break
            else:
                for index, slot in binds:
                    row[slot] = args[index]
                matched[depth] = stored
                if depth == last:
                    yield out
                    continue
                depth += 1
                break
        else:
            iters[depth] = None
            depth -= 1


def rule_heads(rules, store, delta=None) -> Iterator[Atom]:
    """The head fact of every match of every rule of *rules* over
    *store* — one per match, so multiplicities are support counts; with
    *delta*, of the matches that use a delta atom.  Lazy like
    :func:`walk`.  Raises ``ValueError`` at the first pull, before any
    match, if a head names a variable no body atom binds."""
    for tgd in rules:
        if tgd.matcher.existential:
            raise ValueError(
                f"rule {tgd} would derive a non-ground fact: its head "
                "names a variable no body atom binds"
            )
    for tgd in rules:
        compiled = tgd.matcher
        for form in (compiled.full,) if delta is None else compiled.pinned:
            predicate, cells = form.heads[0]
            for row, _ in walk(form, store, delta):
                yield Atom(predicate, tuple([row[cell] for cell in cells]))
