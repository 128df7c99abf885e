"""The tuple-at-a-time join compiler.

An atom sequence — a query body, a rule body — is compiled once into
slot-addressed probe :class:`Step` s in the static order of
:func:`selective_order`, and re-bound per stored tuple: no
:class:`~repro.core.substitution.Substitution`, no resolved pattern
atom, no per-node ordering, and a step that binds nothing is one
membership test (:func:`probe`).  A rule additionally gets its head
as a projection of the row and one form per *pinned* body position, so
the semi-naive rounds (stratified negation's included), the maintenance
waves, the chase's trigger discovery and its restricted head check all
run through :func:`walk`.
:func:`~repro.core.homomorphism.homomorphisms` is the reference this is
pinned against (``tests/property/test_prop_body_compile.py``); the batch
counterpart is :mod:`repro.kernels.compiler`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from .atoms import Atom
from .homomorphism import most_selective
from .terms import Variable

__all__ = ["AtomSet", "compile_atoms", "compile_rule", "holds",
           "pinned_candidates", "probe", "rule_form", "rule_heads",
           "selective_order", "unblocked_walk", "walk"]


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


def selective_order(
    atoms: Sequence[Atom], first: Optional[int] = None, bound: Iterable = ()
) -> tuple:
    """The join order of *atoms*, as indices into it: the atom at *first*
    first (a pinned atom: its candidates come from a delta, not from a
    probe — the delta-driven operand of a piece-wise linear rule), then
    each next atom the :func:`most_selective` given what is bound so far
    (the variables of *bound* from the start).
    Every compiled join takes its order from here — the tuple steps of
    this module and the batch steps of :mod:`repro.kernels.compiler` —
    so the two compilers always join in one order."""
    pending = list(range(len(atoms)))
    bound = set(bound)
    order = []
    while pending:
        at = (
            most_selective([atoms[i] for i in pending], bound)
            if first is None else pending.index(first)
        )
        first = None
        index = pending.pop(at)
        order.append(index)
        bound.update(t for t in atoms[index].args if isinstance(t, Variable))
    return tuple(order)


def compile_atoms(atoms: Sequence[Atom], order: Sequence[int], slots=None):
    """``(steps, slots)`` of *atoms* joined in *order* (indices into
    *atoms*, as :func:`selective_order` gives them): ``steps[depth]`` is
    the atom ``atoms[order[depth]]``, ``slots`` the slot of each
    variable — those of the given *slots* fed, not bound."""
    slots = dict(slots or {})
    steps = []
    for at in order:
        atom = atoms[at]
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
    return tuple(steps), slots


class RuleForm(NamedTuple):
    """A rule body compiled with one atom first (or none), the head and
    the negated literals as projections of the row."""

    steps: tuple
    depth_of: tuple   # body position → depth of its step
    earlier: tuple    # (depth, predicate) per body position before the pin
    template: tuple   # the initial row: a cell per variable, then the head's constants
    heads: tuple      # (predicate, row cells) per head atom
    negated: tuple = ()  # (predicate, row cells) per negated body literal


class CompiledRule(NamedTuple):
    """Every compiled form of one rule (see :func:`compile_rule`)."""

    pinned: tuple        # one RuleForm per body position, that atom first
    full: RuleForm       # no atom pinned: every match of the body
    from_head: RuleForm  # head[0] first, then the body: is a given fact derivable?
    existential: tuple   # row cells of the head-only variables, by name
    head_check: Optional[tuple]  # the head's steps fed the full row (existential rules)

    def _row(self, image: Sequence[Atom]) -> list:
        """The full form's row of the match whose body image is *image*."""
        form = self.full
        row = list(form.template)
        for stored, depth in zip(image, form.depth_of):
            for index, slot in form.steps[depth].binds:
                row[slot] = stored.args[index]
        return row

    def head_atoms(self, image: Sequence[Atom], nulls: Sequence = ()) -> tuple:
        """The head under the match whose body image is *image*, the
        existential variables sent to *nulls* (in name order)."""
        row = self._row(image)
        for slot, null in zip(self.existential, nulls):
            row[slot] = null
        return tuple(
            Atom(predicate, tuple([row[cell] for cell in cells]))
            for predicate, cells in self.full.heads
        )

    def head_holds(self, image: Sequence[Atom], store) -> bool:
        """The restricted chase's check for an existential rule: does
        the match whose body image is *image* extend to a match of the
        head in *store* (the frontier fixed, the existentials free)?"""
        return holds(self.head_check, store, self._row(image))


def rule_form(body, head, order: Sequence[int], negated=()) -> RuleForm:
    """*body* joined in *order* (see :func:`compile_atoms`), *head* and
    the *negated* literals projections of the row.  Walked with a delta,
    the form is pinned at its first step: ``earlier`` lists the body
    positions before it."""
    steps, slots = compile_atoms(body, order)
    cells: dict = dict(slots)
    template: list = [None] * len(slots)
    # Head-only variables by name, then the constants of the head and
    # the negated literals: a cell each, so each is a plain projection.
    unbound = {t for a in head for t in a.args if isinstance(t, Variable)}
    for term in sorted(unbound - set(slots), key=lambda v: v.name) + [
        t for a in head + negated for t in a.args
    ]:
        if term not in cells:
            cells[term] = len(template)
            template.append(None if isinstance(term, Variable) else term)
    depth_of = tuple(sorted(range(len(order)), key=order.__getitem__))
    return RuleForm(
        steps, depth_of,
        tuple((depth_of[at], body[at].predicate) for at in range(order[0])),
        tuple(template),
        *(
            tuple((a.predicate, tuple(cells[t] for t in a.args)) for a in atoms)
            for atoms in (head, negated)
        ),
    )


def compile_rule(tgd) -> CompiledRule:
    """Compile *tgd* (anything with ``body``, ``head``, ``negated`` and
    the variable sets of a :class:`~repro.core.tgd.TGD`) once, for every
    way a rule is joined."""
    body, head, negated = tgd.body, tgd.head, tgd.negated
    bound = len(tgd.body_variables())
    from_head = head[:1] + body
    order = selective_order(body)
    head_check = None
    if tgd.existential_variables():
        _, slots = compile_atoms(body, order)
        head_check, _ = compile_atoms(
            head, selective_order(head, bound=slots), slots
        )
    return CompiledRule(
        tuple(
            rule_form(body, head, selective_order(body, at), negated)
            for at in range(len(body))
        ),
        rule_form(body, head, order, negated),
        rule_form(from_head, (), selective_order(from_head, 0), negated),
        tuple(range(bound, bound + len(tgd.existential_variables()))),
        head_check,
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


def walk(form: RuleForm, store, delta=None, row=None):
    """Yield ``(row, matched)`` for every match of *form*'s steps over
    *store*: ``row`` holds a term per cell (a given *row* has its fed
    slots filled and is written in place), ``matched`` the stored atom
    per depth.  With *delta* the form is a pinned one: it starts from the
    delta atoms of its first step's predicate and reports a match only if
    no earlier body position matched a delta atom, so over all pinned forms
    of a rule each match that uses the delta appears exactly once.  Lazy — a consumer may edit
    *store* between pulls and later probes see it — and allocation-free:
    the pair and both lists are reused, so read them before the next pull.
    """
    steps = form.steps
    last = len(steps) - 1
    row = list(form.template) if row is None else row
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


def holds(steps: tuple, store, row: list) -> bool:
    """Does some match of *steps* over *store* extend the slots *row*
    already binds?  Walked to the first match only; *row* is written."""
    return next(walk(RuleForm(steps, (), (), (), ()), store, row=row), None) is not None


def _unblocked(negated: tuple, matches, store):
    """The *matches* no negated literal blocks: each literal, projected
    from the row like a head atom, is absent from *store*."""
    for match in matches:
        row = match[0]
        for predicate, cells in negated:
            if Atom(predicate, tuple([row[cell] for cell in cells])) in store:
                break
        else:
            yield match


def unblocked_walk(form: RuleForm, store, delta=None):
    """:func:`walk`, keeping the matches none of *form*'s negated
    literals blocks (sound when the negated predicates are complete in
    *store*: a lower stratum's); a positive form's walk as it is."""
    matches = walk(form, store, delta)
    return _unblocked(form.negated, matches, store) if form.negated else matches


def rule_heads(rules, store, delta=None) -> Iterator[Atom]:
    """The head fact of every match of every rule of *rules* over
    *store* — one per match, so multiplicities are support counts; with
    *delta*, of the matches that use a delta atom.  A rule with negated
    literals keeps only the matches none of them blocks
    (:func:`unblocked_walk`).
    Lazy like :func:`walk`.  Raises ``ValueError`` at the first pull,
    before any match, if a head names a variable no body atom binds."""
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
            for row, _ in unblocked_walk(form, store, delta):
                yield Atom(predicate, tuple([row[cell] for cell in cells]))
