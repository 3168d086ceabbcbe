from __future__ import annotations

import json
import re
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedec import (
    InvalidDivisionError,
    LabeledDigraph,
    compliant_closure,
    deglex_key,
    enumerate_divisions,
    enumerate_terms,
    format_term,
    generalized_graph,
    graph_from_edge_list,
    parse_term,
    pommaret_on_slice,
    reachable_backward,
    reachable_forward,
    redundant_graph,
    revenant_closure,
    term_lcm,
    ufnarovsky_graph,
    var_names,
)

from conftest import (
    FOUR_VARS_GRAPH_EDGES, POMMARET32_EDGES, STRANGE32_EDGES, forward_reach, term)


def labeled(edges, n=3):
    name_to_idx = {name: i + 1 for i, name in enumerate("xyzt"[:n])}
    return {
        (parse_term(a, n), parse_term(b, n), name_to_idx[v]) for a, b, v in edges
    }


def test_ufnarovsky_pommaret32(pommaret32):
    g = ufnarovsky_graph(pommaret32)
    assert set(g.nodes) == set(pommaret32.support)
    assert set(g.edges) == labeled(POMMARET32_EDGES)


def test_ufnarovsky_strange32(strange32):
    g = ufnarovsky_graph(strange32)
    assert set(g.edges) == labeled(STRANGE32_EDGES)


def test_ufnarovsky_edge_count_is_nonmultiplicative_count(facile, four_vars):
    for div in (facile, four_vars):
        g = ufnarovsky_graph(div)
        assert len(g.edges) == sum(
            len(div.nonmultiplicative_set(s)) for s in div.support)


def test_ufnarovsky_requires_validity(uncovering31):
    with pytest.raises(InvalidDivisionError):
        ufnarovsky_graph(uncovering31)


def test_redundant_graph_facile(facile):
    got = {(a, b) for a, b, _ in redundant_graph(facile).edges}
    want = {
        ("x*y", "x^2"), ("x*y", "y^2"), ("x*y", "x*z"), ("x*y", "y*z"),
        ("x*y", "z^2"), ("y^2", "y*z"), ("y^2", "z^2"), ("x*z", "x^2"),
        ("x*z", "z^2"), ("y*z", "z^2"),
    }
    assert got == {(term(a), term(b)) for a, b in want}


def test_redundant_edge_heads_cover_lcm(idealpom):
    g = redundant_graph(idealpom)
    assert (term("x^2"), term("x*y"), None) in g.edges
    for tail, head, _ in g.edges:
        assert idealpom.x_of(head, tail) == tail


def test_generalized_subset_of_redundant(facile, idealpom, strange32, four_vars):
    for div in (facile, idealpom, strange32, four_vars):
        gen = generalized_graph(div)
        red = redundant_graph(div)
        assert {(a, b) for a, b, _ in gen.edges} <= {(a, b) for a, b, _ in red.edges}
        assert forward_reach(gen) == forward_reach(red)


def test_generalized_single_node():
    div = next(enumerate_divisions(1, 3))
    g = generalized_graph(div)
    assert g.nodes == ((3,),)
    assert not g.edges


def test_generalized_reaches_reference_graph(four_vars):
    T = lambda s: parse_term(s, 4)
    reference = graph_from_edge_list(
        4, four_vars.support,
        [(T(a), T(b)) for a, b in FOUR_VARS_GRAPH_EDGES])
    assert forward_reach(generalized_graph(four_vars)) == forward_reach(reference)


def test_reachability_both_directions(pommaret32):
    g = ufnarovsky_graph(pommaret32)
    back = reachable_backward(g, [term("x*y")])
    assert back == {term(s) for s in ("x*y", "y^2", "y*z", "z^2")}
    fwd = reachable_forward(g, [term("z^2")])
    assert fwd == {term(s) for s in ("z^2", "x*z", "y*z", "x*y", "y^2", "x^2")}
    assert reachable_forward(g, []) == frozenset()
    for reach in (reachable_forward, reachable_backward):
        with pytest.raises(LookupError, match=r"^term x\^3 not in the support$"):
            reach(g, [term("x^3")])
        with pytest.raises(LookupError, match=r"^term t\^2 not in the support$"):
            reach(g, [(0, 0, 0, 2)])  # a term in more variables than the graph


def test_one_step_graph_can_under_reach(four_vars):
    # one-step propagation misses a forcing pair that the closure finds
    g = ufnarovsky_graph(four_vars)
    seed = [parse_term("x^2*y", 4)]
    back = reachable_backward(g, seed)
    closed = set(compliant_closure(four_vars, seed).closure)
    assert back < closed
    assert parse_term("y*z*t", 4) in closed - back


def test_ufnarovsky_matches_closures_on_triangular(pommaret32):
    g = ufnarovsky_graph(pommaret32)
    for t in pommaret32.support:
        assert reachable_backward(g, [t]) == set(
            compliant_closure(pommaret32, [t]).closure)
        assert reachable_forward(g, [t]) == set(
            revenant_closure(pommaret32, [t]).closure)


def test_graph_construction_guards():
    with pytest.raises(ValueError):
        graph_from_edge_list(2, ((1, 0),), frozenset({((1, 0), (1, 0), None)}))
    with pytest.raises(ValueError):
        graph_from_edge_list(2, ((1, 0),), frozenset({((1, 0), (0, 1), None)}))
    with pytest.raises(ValueError):
        graph_from_edge_list(2, ((1, 0), (0, 1)), frozenset({((1, 0), (0, 1), 5)}))
    with pytest.raises(ValueError, match="duplicate nodes"):
        graph_from_edge_list(2, ((1, 0), (0, 1), [1, 0]), ())


@pytest.mark.parametrize("tail", [(0, 2, 0), ([1], 1, 0), [1, 1]], ids=["absent", "list-item", "short"])
def test_an_edge_endpoint_outside_the_nodes_is_named(tail):
    # an unhashable item fails the membership test like any other stranger
    with pytest.raises(ValueError, match="^edge endpoint outside the node set$"):
        graph_from_edge_list(3, [(1, 1, 0), (2, 0, 0)], [(tail, (2, 0, 0), 1)])


@pytest.mark.parametrize("label", [0, False, True, 3, 1.0, "x"])
def test_edge_label_is_a_variable_index(label):
    # True equals 1 and 1.0 compares like it, but neither is a variable index
    want = re.escape(f"bad variable set ({label!r},) for n=2")
    with pytest.raises(ValueError, match=f"^{want}$"):
        graph_from_edge_list(2, ((1, 0), (0, 1)), [((1, 0), (0, 1), label)])


def test_dot_output(pommaret32):
    g = ufnarovsky_graph(pommaret32)
    dot = g.to_dot()
    assert dot.startswith("digraph division {\n")
    assert dot.endswith("}\n")
    assert dot.count("->") == 8
    assert '"x*y" -> "x^2" [label="y"];' in dot
    assert [line for line in dot.splitlines() if "->" not in line][1:-1] == [
        f'  "{s}";' for s in ("x^2", "x*y", "y^2", "x*z", "y*z", "z^2")]


def test_dot_empty_graph():
    g = LabeledDigraph(2, (), frozenset())
    assert g.to_dot() == "digraph division {\n}\n"


def test_json_edge_list(pommaret32):
    g = ufnarovsky_graph(pommaret32)
    data = g.to_json_dict()
    assert json.dumps(data)  # serializable
    assert data == {"edges": [
        ["x*y", "x^2", "y"],
        ["y^2", "x*y", "y"],
        ["x*z", "x^2", "z"],
        ["y*z", "x*y", "z"],
        ["y*z", "y^2", "z"],
        ["y*z", "x*z", "y"],
        ["z^2", "x*z", "z"],
        ["z^2", "y*z", "z"],
    ]}


def test_json_edge_list_unlabeled(facile):
    data = generalized_graph(facile).to_json_dict()
    assert all(e[2] is None for e in data["edges"])


def deglex_keyed_output(g: LabeledDigraph) -> tuple[str, str]:
    """DOT text and indented JSON of g as written by sorting the edges on the
    deg-lex keys of their ends, then the label, and formatting every end."""
    names = var_names(g.n)
    edges = sorted(g.edges, key=lambda e: (deglex_key(e[0]), deglex_key(e[1]), e[2] or 0))
    dot = ["digraph division {", *(f'  "{format_term(t)}";' for t in g.nodes)]
    rows = []
    for tail, head, label in edges:
        rows.append([format_term(tail), format_term(head),
                     names[label - 1] if label is not None else None])
        attr = f' [label="{rows[-1][2]}"]' if label is not None else ""
        dot.append(f'  "{rows[-1][0]}" -> "{rows[-1][1]}"{attr};')
    dot.append("}")
    return "\n".join(dot) + "\n", json.dumps({"edges": rows}, indent=2)


def test_graph_output_is_ordered_as_by_deglex_keys():
    divisions = [*enumerate_divisions(3, 2), *enumerate_divisions(3, 3),
                 pommaret_on_slice(5, 4).permuted((3, 5, 1, 2, 4)),
                 pommaret_on_slice(6, 4).permuted((6, 1, 4, 2, 5, 3))]
    graphs = [build(div) for div in divisions
              for build in (ufnarovsky_graph, redundant_graph, generalized_graph)]
    # nodes given out of order, and one pair of ends under two labels and none
    x2, xy, y2, xz, z2 = (parse_term(s, 3) for s in ("x^2", "x*y", "y^2", "x*z", "z^2"))
    graphs.append(graph_from_edge_list(3, [z2, xy, x2, xz, y2], [
        (z2, x2, 3), (xy, x2, 2), (z2, x2, 1), (z2, x2), (x2, z2, 2), (y2, xy, 2),
        (xz, xy, 1), (xz, x2)]))
    for g in graphs:
        assert (g.to_dot(), json.dumps(g.to_json_dict(), indent=2)) == deglex_keyed_output(g)


# -- the graphs and closures as they were written on term triples ------------

TermGraph = namedtuple("TermGraph", "n nodes edges")  # edges: frozenset of term triples


def lands(div, t, s) -> bool:
    """t lands on s: the literal rule, lcm(s, t) in the cone of t."""
    return s != t and div.cone_contains(t, term_lcm(s, t))


def term_triple_graph(div, kind: str) -> TermGraph:
    """Each graph kind as a frozenset of (tail, head, label) term triples."""
    terms = div.support
    edges, reach = set(), [0] * len(terms)
    for t, u in enumerate(terms):
        for s, v in enumerate(terms):
            if not lands(div, u, v):
                continue
            if kind == "ufnarovsky":
                up = [i for i in range(div.n) if u[i] > v[i]]  # where u exceeds v
                if len(up) == 1 and u[up[0]] == v[up[0]] + 1:
                    edges.add((u, v, up[0] + 1))
            elif kind == "redundant":
                edges.add((u, v, None))
            elif not reach[t] >> s & 1:
                edges.add((u, v, None))
                gained = 1 << s | reach[s]
                for a, r in enumerate(reach):
                    if a == t or r >> t & 1:
                        reach[a] = r | gained
    return TermGraph(div.n, tuple(sorted(terms, key=deglex_key)), frozenset(edges))


def queue_closure(div, seed, forward: bool):
    """Closure members and witnesses by the breadth-first loop over landing
    pairs: members expanded in the order they joined, neighbours in support
    order."""
    terms = div.support
    order = [terms.index(t) for t in sorted(set(seed), key=deglex_key)]
    members, witnesses = set(order), []
    for a in order:
        for b in range(len(terms)):
            t, s = (terms[a], terms[b]) if forward else (terms[b], terms[a])
            if b not in members and lands(div, t, s):
                members.add(b)
                order.append(b)
                witnesses.append((terms[b], s, t, term_lcm(s, t), t))
    return tuple(terms[i] for i in sorted(members)), tuple(witnesses)


KINDS = {"ufnarovsky": ufnarovsky_graph, "redundant": redundant_graph,
         "generalized": generalized_graph}


def test_graphs_and_closures_match_the_term_triple_code():
    divisions = [*enumerate_divisions(3, 2), *enumerate_divisions(3, 3),
                 pommaret_on_slice(5, 4).permuted((3, 5, 1, 2, 4)),
                 pommaret_on_slice(6, 4).permuted((6, 1, 4, 2, 5, 3))]
    for div in divisions:
        for kind, build in KINDS.items():
            g, want = build(div), term_triple_graph(div, kind)
            assert g.nodes == want.nodes and g.edges == want.edges
            assert (g.to_dot(), json.dumps(g.to_json_dict(), indent=2)) == deglex_keyed_output(want)
            assert graph_from_edge_list(g.n, g.nodes, g.edges) == g
        seeds = [[t] for t in div.support[:12]] + [list(div.support[1:4:2])]
        for seed in seeds:
            for close, forward in ((compliant_closure, False), (revenant_closure, True)):
                rep = close(div, seed)
                assert (rep.closure, rep.witnesses) == queue_closure(div, seed, forward)


SLICE33 = list(enumerate_terms(3, 3))


def fixpoint(edges, seed, forward: bool) -> set:
    """Nodes reached from the seed: add the far ends of all edges leaving the
    set until nothing new is added."""
    reached = set(seed)
    while True:
        more = {e[1] if forward else e[0] for e in edges
                if (e[0] if forward else e[1]) in reached}
        if more <= reached:
            return reached
        reached |= more


@st.composite
def term_graphs(draw, nodes=None):
    """(nodes, edges) on a node subset of the (3,3) slice; edges labelled or not."""
    if nodes is None:
        nodes = draw(st.lists(st.sampled_from(SLICE33), min_size=1, unique=True))
    ends = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(ends, ends, st.none() | st.integers(1, 3)),
                          max_size=3 * len(nodes)))
    return nodes, [e for e in edges if e[0] != e[1]]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reachability_matches_a_plain_fixpoint(data):
    nodes, edges = data.draw(term_graphs())
    g = graph_from_edge_list(3, nodes, edges)
    seed = data.draw(st.lists(st.sampled_from(nodes), max_size=3))
    assert reachable_forward(g, seed) == fixpoint(edges, seed, forward=True)
    assert reachable_backward(g, iter(seed)) == fixpoint(edges, seed, forward=False)
    # a second graph on the same nodes: random, or the transitive closure of g
    shuffled = data.draw(st.permutations(nodes))
    if data.draw(st.booleans()):
        _, other = data.draw(term_graphs(shuffled))
    else:
        other = [(t, u) for t in shuffled for u in fixpoint(edges, [t], True) if u != t]
    h = graph_from_edge_list(3, shuffled, other)
    assert (forward_reach(g) == forward_reach(h)) == all(
        fixpoint(edges, [t], True) == fixpoint(other, [t], True) for t in nodes)
