"""Unit tests for the predicate graph and mutual recursion (Section 4)."""


from repro.analysis.predicate_graph import PredicateGraph
from repro.lang.parser import parse_program


def graph_of(text: str) -> PredicateGraph:
    program, _ = parse_program(text)
    return PredicateGraph(program)


class TestEdges:
    def test_edges_from_body_to_head(self):
        g = graph_of("t(X,Y) :- e(X,Y).")
        assert ("e", "t") in g.edges()
        assert ("t", "e") not in g.edges()

    def test_multi_head_edges(self):
        g = graph_of("r(X,K), s(K) :- p(X).")
        assert {("p", "r"), ("p", "s")} <= g.edges()


class TestMutualRecursion:
    def test_self_loop(self):
        g = graph_of("t(X,Z) :- t(X,Y), e(Y,Z).")
        assert g.mutually_recursive("t", "t")
        assert not g.mutually_recursive("e", "t")
        assert not g.mutually_recursive("e", "e")

    def test_no_cycle_no_recursion(self):
        g = graph_of("t(X,Y) :- e(X,Y). u(X) :- t(X,Y).")
        assert not g.mutually_recursive("t", "t")
        assert not g.mutually_recursive("t", "u")
        assert g.rec("t") == frozenset()

    def test_two_predicate_cycle(self):
        g = graph_of("""
            p(Y) :- r(X, Y).
            r(X, Z) :- p(X).
        """)
        assert g.mutually_recursive("p", "r")
        assert g.mutually_recursive("p", "p")
        assert g.rec("p") == frozenset({"p", "r"})

    def test_separate_sccs_not_mutually_recursive(self):
        # Two independent cycles: p/q and s/t.
        g = graph_of("""
            p(X) :- q(X).
            q(X) :- p(X).
            s(X) :- t(X).
            t(X) :- s(X).
        """)
        assert g.mutually_recursive("p", "q")
        assert g.mutually_recursive("s", "t")
        assert not g.mutually_recursive("p", "s")

    def test_example_33_sccs(self):
        # In Example 3.3, Type and Triple are mutually recursive;
        # SubClassStar cycles alone; SubClass is extensional.
        from repro.benchsuite.dbpedia import example_33_program

        g = PredicateGraph(example_33_program())
        assert g.mutually_recursive("type", "triple")
        assert g.mutually_recursive("subClassStar", "subClassStar")
        assert not g.mutually_recursive("subClassStar", "type")
        assert not g.mutually_recursive("subClass", "subClassStar")


class TestStructure:
    def test_has_cycle(self):
        assert graph_of("t(X,Z) :- t(X,Y), e(Y,Z).").has_cycle()
        assert not graph_of("t(X,Y) :- e(X,Y).").has_cycle()

    def test_condensation_order_is_topological(self):
        g = graph_of("""
            t(X,Y) :- e(X,Y).
            u(X)   :- t(X,Y).
            v(X)   :- u(X).
        """)
        order = g.condensation_order()
        position = {next(iter(c)): i for i, c in enumerate(order)}
        assert position["e"] < position["t"] < position["u"] < position["v"]

    def test_successors(self):
        g = graph_of("t(X,Y) :- e(X,Y). u(X) :- e(X,X).")
        assert g.successors("e") == frozenset({"t", "u"})


def _reference_sccs(program):
    """The iterative Tarjan ``PredicateGraph`` carried before it built a
    ``DiGraph`` — kept here as the reference for the *order* components
    are emitted in (roots and successors visited in sorted order)."""
    vertices = set(program.schema())
    edges = {v: set() for v in vertices}
    for tgd in program:
        for body_pred in tgd.body_predicates():
            edges[body_pred].update(tgd.head_predicates())
    counter = 0
    index, lowlink, on_stack, stack, sccs = {}, {}, set(), [], []
    for root in sorted(vertices):
        if root in index:
            continue
        work = [(root, iter(sorted(edges[root])))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            vertex, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[vertex] = min(lowlink[vertex], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[vertex])
            if lowlink[vertex] == index[vertex]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == vertex:
                        break
                sccs.append(frozenset(component))
    return sccs


def _reference_layers(program):
    order = list(reversed(_reference_sccs(program)))
    layer_of = {p: i for i, component in enumerate(order) for p in component}
    grouped = {}
    for tgd in program:
        layer = max(layer_of[p] for p in tgd.head_predicates())
        grouped.setdefault(layer, []).append(tgd)
    return tuple(tuple(grouped[i]) for i in sorted(grouped)), layer_of


def _order_corpus():
    from repro.benchsuite import (
        default_corpus, generate_churn, generate_iwarded,
    )
    from repro.lang.parser import parse_query
    from repro.rewriting.magic import magic_rewrite

    programs = {s.name: s.program for s in default_corpus()}
    churn = generate_churn(steps=1).scenario.program
    programs["churn"] = churn
    for text in ("q(X) :- t(n1, X).", "q(X) :- mutual(X, n2)."):
        programs[f"magic {text}"] = magic_rewrite(
            churn, parse_query(text)
        ).program
    for flavour in ("linear", "pwl", "linearizable", "nonpwl"):
        programs[f"iwarded-{flavour}"] = generate_iwarded(
            seed=7, flavour=flavour
        ).program
    # A primed name sorts after ``m`` as a string but before it by
    # ``repr`` (which switches to double quotes).
    programs["primed"], _ = parse_program("m(X) :- a(X).  z'(X) :- a(X).")
    return programs


class TestComponentOrderMatchesReference:
    """Strata order feeds ``datalog.rounds``, ``kernels.batches`` and
    ``incremental.matches``: building the SCCs through ``DiGraph`` must
    emit them in exactly the order the dedicated Tarjan did."""

    def test_condensation_order_and_strata(self):
        from repro.datalog.strata import compute_strata

        programs = _order_corpus()
        assert len(programs) > 40
        for name, program in programs.items():
            graph = PredicateGraph(program)
            reference = _reference_sccs(program)
            assert graph.strongly_connected_components() == reference, name
            assert graph.condensation_order() == reference[::-1], name
            normalized = program.single_head()
            strata = compute_strata(normalized)
            layers, layer_of = _reference_layers(normalized)
            assert strata.layers == layers, name
            assert strata.predicate_layer == layer_of, name
