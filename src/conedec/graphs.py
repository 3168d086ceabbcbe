"""Membership-propagation graphs over the support of a valid assignment.

All three constructions put an edge t -> s when membership of t (in an ideal
generated inside the support) forces membership of s, or dually.  They differ
in which forcing pairs become edges; only reachability is contractual for the
generalized construction.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
import io

from .division import RelDivision
from .terms import (
    Term, check_count, check_term, check_varset, deglex_key, format_term, support_key, var_names)

@dataclass(frozen=True)
class LabeledDigraph:
    """Nodes in deg-lex order; arcs sorted, without repeats, as (tail row,
    head row, label or 0).  graph_from_edge_list builds one from terms."""

    n: int
    nodes: tuple[Term, ...]
    arcs: tuple[tuple[int, int, int], ...]

    @property
    def edges(self) -> frozenset[tuple[Term, Term, int | None]]:
        """The arcs as (tail, head, label or None) term triples."""
        return frozenset((self.nodes[t], self.nodes[h], j or None) for t, h, j in self.arcs)

    def _named_edges(self) -> Iterator[tuple[str, str, str | None]]:
        """Arcs as (tail, head, label) names, in arc order."""
        names = var_names(self.n)
        node = [format_term(t) for t in self.nodes]
        return ((node[t], node[h], names[j - 1] if j else None) for t, h, j in self.arcs)

    def to_dot(self) -> str:
        out = io.StringIO()  # no list of lines next to the text
        out.write("digraph division {\n")
        for t in self.nodes:
            out.write(f'  "{format_term(t)}";\n')
        for tail, head, label in self._named_edges():
            attr = f' [label="{label}"]' if label is not None else ""
            out.write(f'  "{tail}" -> "{head}"{attr};\n')
        out.write("}\n")
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {"edges": [list(e) for e in self._named_edges()]}


def walk(step: Callable[[int], Iterable[int]], start) -> Iterator[tuple[int, int]]:
    """Breadth-first from the start rows: each row reached that is not a start
    row, with the row it was reached from, in the order reached.  Rows are
    expanded in that order, the rows of step(a) in the order step gives."""
    order = list(start)
    seen = set(order)
    for a in order:  # grows while it is walked
        for b in step(a):
            if b not in seen:
                seen.add(b)
                order.append(b)
                yield b, a


def _reachable(g: LabeledDigraph, seed, forward: bool) -> frozenset[Term]:
    nodes, row = g.nodes, {t: i for i, t in enumerate(g.nodes)}
    start = [row[support_key(t, row)] for t in seed]
    step: list[list[int]] = [[] for _ in nodes]  # the rows one arc away
    for t, h, _ in g.arcs:
        step[t if forward else h].append(h if forward else t)
    reached = start + [b for b, _ in walk(step.__getitem__, start)]
    return frozenset([nodes[i] for i in reached])


def reachable_forward(g: LabeledDigraph, seed) -> frozenset[Term]:
    """Nodes reachable from the seed along edge direction, seed included."""
    return _reachable(g, seed, forward=True)


def reachable_backward(g: LabeledDigraph, seed) -> frozenset[Term]:
    """Nodes from which the seed can be reached, seed included."""
    return _reachable(g, seed, forward=False)


def ufnarovsky_graph(div: RelDivision) -> LabeledDigraph:
    """Edge t ->x_j s when multiplying s by its non-multiplicative x_j lands
    in the cone of t.

    Then t = s*x_j/x_k, and s*x_j = lcm(s, t) exceeds t only at x_k, so x_k
    is in M(t): the heads of t are the t*x_k/x_j for x_j | t and x_k in M(t),
    k != j.  On a valid assignment x_j is then non-multiplicative for s."""
    div.require_valid("this construction")
    terms, row = div.support, div.pair_table.row
    arcs = []
    for t, u in enumerate(terms):
        for j in (j for j in range(1, div.n + 1) if u[j - 1]):
            for k in div.mult[u] - {j}:  # s = t*x_k/x_j
                s = list(u)
                s[j - 1], s[k - 1] = s[j - 1] - 1, s[k - 1] + 1
                arcs.append((t, row[tuple(s)], j))
    return LabeledDigraph(div.n, terms, tuple(sorted(arcs)))


def redundant_graph(div: RelDivision) -> LabeledDigraph:
    """Unlabeled edge t -> s for every ordered pair whose lcm falls in the
    cone of t."""
    div.require_valid("this construction", full_slice=False)
    terms, table = div.support, div.pair_table
    arcs = tuple((t, s, 0) for t in range(len(terms)) for s in table.heads(t))
    return LabeledDigraph(div.n, terms, arcs)


def generalized_graph(div: RelDivision) -> LabeledDigraph:
    """Subgraph of the redundant graph with the same reachability.

    Candidate pairs are scanned in deg-lex order on (t, s); an edge is kept
    only when its head is not already reachable from its tail.  Minimality is
    not promised, only reachability equivalence.
    """
    div.require_valid("this construction")
    terms, table = div.support, div.pair_table
    # reach[a]: bitmask of the rows reachable from row a along kept edges
    reach = [0] * len(terms)
    arcs = []
    for t in range(len(terms)):
        for s in table.heads(t):
            if not reach[t] >> s & 1:
                arcs.append((t, s, 0))
                reach[t] |= 1 << s | reach[s]
        # one fold after the scan is exact: rows after t have no kept arcs yet
        # (reach 0), and a gain made during the scan is read only via reach[t]
        for a in range(t):
            if reach[a] >> t & 1:
                reach[a] |= reach[t]
    return LabeledDigraph(div.n, terms, tuple(arcs))


def graph_from_edge_list(n: int, nodes, edges) -> LabeledDigraph:
    """Build a graph from terms: the nodes in any order, the edges as
    (tail, head[, label]) triples, label None or a variable index 1..n."""
    check_count(n)
    nodes = tuple(sorted((check_term(tuple(t), n) for t in nodes), key=deglex_key))
    row = {t: i for i, t in enumerate(nodes)}
    if len(row) != len(nodes):
        raise ValueError("duplicate nodes")
    arcs = set()
    for e in edges:
        tail, head, label = tuple(e[0]), tuple(e[1]), e[2] if len(e) > 2 else None
        if tail == head:
            raise ValueError(f"self loop at {format_term(tail)}")
        try:
            tail, head = support_key(tail, row), support_key(head, row)
        except LookupError:
            raise ValueError("edge endpoint outside the node set") from None
        if label is not None:
            check_varset((label,), n)
        arcs.add((row[tail], row[head], label or 0))
    return LabeledDigraph(n, nodes, tuple(sorted(arcs)))
