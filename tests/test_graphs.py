from __future__ import annotations

import json

import pytest

from conedec import (
    InvalidDivisionError,
    LabeledDigraph,
    compliant_closure,
    deglex_key,
    enumerate_divisions,
    format_term,
    generalized_graph,
    graph_from_edge_list,
    parse_term,
    pommaret_on_slice,
    reachability_equivalent,
    reachable_backward,
    reachable_forward,
    redundant_graph,
    revenant_closure,
    ufnarovsky_graph,
    var_names,
)

from conftest import FOUR_VARS_GRAPH_EDGES, POMMARET32_EDGES, STRANGE32_EDGES, term


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
        assert gen.edge_pairs() <= red.edge_pairs()
        assert reachability_equivalent(gen, red)


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
    assert reachability_equivalent(generalized_graph(four_vars), reference)


def test_reachability_both_directions(pommaret32):
    g = ufnarovsky_graph(pommaret32)
    back = reachable_backward(g, [term("x*y")])
    assert back == {term(s) for s in ("x*y", "y^2", "y*z", "z^2")}
    fwd = reachable_forward(g, [term("z^2")])
    assert fwd == {term(s) for s in ("z^2", "x*z", "y*z", "x*y", "y^2", "x^2")}
    assert reachable_forward(g, []) == frozenset()
    with pytest.raises(LookupError):
        reachable_forward(g, [term("x^3")])


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


def test_reachability_equivalent_rejects_node_mismatch(pommaret32):
    g = ufnarovsky_graph(pommaret32)
    other = LabeledDigraph(3, ((2, 0, 0),), frozenset())
    with pytest.raises(ValueError):
        reachability_equivalent(g, other)


def test_graph_construction_guards():
    with pytest.raises(ValueError):
        LabeledDigraph(2, ((1, 0),), frozenset({((1, 0), (1, 0), None)}))
    with pytest.raises(ValueError):
        LabeledDigraph(2, ((1, 0),), frozenset({((1, 0), (0, 1), None)}))
    with pytest.raises(ValueError):
        LabeledDigraph(2, ((1, 0), (0, 1)), frozenset({((1, 0), (0, 1), 5)}))


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
    dot = ["digraph division {", *(f'  "{format_term(t, g.n)}";' for t in g.nodes)]
    rows = []
    for tail, head, label in edges:
        rows.append([format_term(tail, g.n), format_term(head, g.n),
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
