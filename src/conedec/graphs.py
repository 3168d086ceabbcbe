"""Membership-propagation graphs over the support of a valid assignment.

All three constructions put an edge t -> s when membership of t (in an ideal
generated inside the support) forces membership of s, or dually.  They differ
in which forcing pairs become edges; only reachability is contractual for the
generalized construction.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
import io

from .division import InvalidDivisionError, RelDivision
from .terms import Term, deglex_key, format_term, var_names

Edge = tuple[Term, Term, int | None]


@dataclass(frozen=True)
class LabeledDigraph:
    n: int
    nodes: tuple[Term, ...]
    edges: frozenset[Edge]

    def __post_init__(self):
        nodeset = set(self.nodes)
        if len(nodeset) != len(self.nodes):
            raise ValueError("duplicate nodes")
        for tail, head, label in self.edges:
            if tail == head:
                raise ValueError(f"self loop at {format_term(tail, self.n)}")
            if tail not in nodeset or head not in nodeset:
                raise ValueError("edge endpoint outside the node set")
            if label is not None and not 1 <= label <= self.n:
                raise ValueError(f"bad edge label {label}")
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=deglex_key)))

    def successors(self) -> dict[Term, set[Term]]:
        out: dict[Term, set[Term]] = {t: set() for t in self.nodes}
        for tail, head, _ in self.edges:
            out[tail].add(head)
        return out

    def predecessors(self) -> dict[Term, set[Term]]:
        out: dict[Term, set[Term]] = {t: set() for t in self.nodes}
        for tail, head, _ in self.edges:
            out[head].add(tail)
        return out

    def edge_pairs(self) -> frozenset[tuple[Term, Term]]:
        return frozenset((tail, head) for tail, head, _ in self.edges)

    def _named_edges(self) -> Iterator[tuple[str, str, str | None]]:
        """Edges as (tail, head, label) names, ordered by the rows of their
        ends in the deg-lex ordered nodes, then by label (none first)."""
        names = var_names(self.n)
        row = {t: i for i, t in enumerate(self.nodes)}
        node = [format_term(t, self.n) for t in self.nodes]
        rows = sorted((row[tail], row[head], label or 0) for tail, head, label in self.edges)
        return ((node[t], node[h], names[j - 1] if j else None) for t, h, j in rows)

    def to_dot(self, name: str = "division") -> str:
        out = io.StringIO()  # no list of lines next to the text
        out.write(f"digraph {name} {{\n")
        for t in self.nodes:
            out.write(f'  "{format_term(t, self.n)}";\n')
        for tail, head, label in self._named_edges():
            attr = f' [label="{label}"]' if label is not None else ""
            out.write(f'  "{tail}" -> "{head}"{attr};\n')
        out.write("}\n")
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {"edges": [list(e) for e in self._named_edges()]}


def _walk(adjacency: dict[Term, set[Term]], seed) -> frozenset[Term]:
    todo = list(seed)
    for t in todo:
        if t not in adjacency:
            raise LookupError(f"seed term {t} is not a node")
    seen = set(todo)
    while todo:
        for nxt in adjacency[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


def reachable_forward(g: LabeledDigraph, seed) -> frozenset[Term]:
    """Nodes reachable from the seed along edge direction, seed included."""
    return _walk(g.successors(), seed)


def reachable_backward(g: LabeledDigraph, seed) -> frozenset[Term]:
    """Nodes from which the seed can be reached, seed included."""
    return _walk(g.predecessors(), seed)


def reachability_equivalent(g1: LabeledDigraph, g2: LabeledDigraph) -> bool:
    """Same node set and same forward-reachable set from every node."""
    if set(g1.nodes) != set(g2.nodes):
        raise ValueError("graphs live on different node sets")
    return all(
        reachable_forward(g1, [t]) == reachable_forward(g2, [t]) for t in g1.nodes)


def _require_valid(div: RelDivision, full_slice: bool) -> None:
    if full_slice and not div.is_full_slice:
        raise InvalidDivisionError("this construction needs a full-slice assignment")
    if not div.is_valid:
        raise InvalidDivisionError("this construction needs a valid assignment")


def ufnarovsky_graph(div: RelDivision) -> LabeledDigraph:
    """Edge t ->x_j s when multiplying s by its non-multiplicative x_j lands
    in the cone of t.

    These are the edges t -> s of the redundant graph between neighbours
    t = s*x_j/x_k: there lcm(s, t) = s*x_j lies in the cone of t, and on a
    valid assignment x_j is then non-multiplicative for s."""
    _require_valid(div, full_slice=True)
    terms, table = div.support, div.pair_table
    edges = set()
    for t, u in enumerate(terms):
        for s in table.heads(t):
            q = table.quot[t][s]  # the variables where u exceeds terms[s]
            j = q.bit_length()
            if q == 1 << j - 1 and u[j - 1] == terms[s][j - 1] + 1:
                edges.add((u, terms[s], j))
    return LabeledDigraph(div.n, terms, frozenset(edges))


def redundant_graph(div: RelDivision) -> LabeledDigraph:
    """Unlabeled edge t -> s for every ordered pair whose lcm falls in the
    cone of t."""
    _require_valid(div, full_slice=False)
    terms, table = div.support, div.pair_table
    edges = frozenset((terms[t], terms[s], None)
                      for t in range(len(terms)) for s in table.heads(t))
    return LabeledDigraph(div.n, terms, edges)


def generalized_graph(div: RelDivision) -> LabeledDigraph:
    """Subgraph of the redundant graph with the same reachability.

    Candidate pairs are scanned in deg-lex order on (t, s); an edge is kept
    only when its head is not already reachable from its tail.  Minimality is
    not promised, only reachability equivalence.
    """
    _require_valid(div, full_slice=True)
    terms, table = div.support, div.pair_table
    # reach[a]: bitmask of the rows reachable from row a along kept edges
    reach = [0] * len(terms)
    edges = set()
    for t in range(len(terms)):
        for s in table.heads(t):
            if reach[t] >> s & 1:
                continue
            edges.add((terms[t], terms[s], None))
            gained = 1 << s | reach[s]
            for a, r in enumerate(reach):
                if a == t or r >> t & 1:
                    reach[a] = r | gained
    return LabeledDigraph(div.n, terms, frozenset(edges))


def graph_from_edge_list(n: int, nodes, edges) -> LabeledDigraph:
    """Build a graph from (tail, head[, label]) triples of terms."""
    es = set()
    for e in edges:
        tail, head = e[0], e[1]
        label = e[2] if len(e) > 2 else None
        es.add((tuple(tail), tuple(head), label))
    return LabeledDigraph(n, tuple(tuple(t) for t in nodes), frozenset(es))
