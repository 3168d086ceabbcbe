"""Bounded brute-force checks, independent of the incremental machinery.

Everything here walks terms degree by degree up to an explicit margin and
builds each cone there from its definition, vertex times products of its
multiplicative variables, to certify (up to the bound) or refute claims.
"""

from __future__ import annotations

from .division import RelDivision, ValidationReport
from .terms import (
    Term, VarSet, check_degree, degree, deglex_key, enumerate_terms, format_term, support_key,
    term_divides)


def walk_degrees(div: RelDivision, margin: int) -> range:
    """The degrees of every oracle walk: above the lowest support degree (there a
    term is in a cone only as its vertex) up to the highest + margin; none on an
    empty support.  The margin is checked as a degree is: an int >= 0."""
    check_degree(margin)
    terms = div.support  # in deg-lex order
    return range(degree(terms[0]) + 1, degree(terms[-1]) + margin + 1) if terms else range(0)


def _cone_terms(vertex: Term, variables: VarSet, d: int, table: dict) -> list[Term]:
    """The degree-d terms of the cone of vertex over the given variables, in
    deg-lex order: vertex times every product of degree d - deg(vertex) in them.

    table belongs to one oracle call, whose walk asks for each cone degree by
    degree.  It holds each cone at the last degree asked, split by the highest
    variable raised above the vertex (the vertex itself in the first part).  One
    degree up, each part takes every term of the parts up to and including
    its own, raised at its variable: each term is made once, from the one below."""
    k = d - degree(vertex)
    if k < 0:
        return []
    key = vertex, variables
    held = table.get(key)
    if held is None or held[0] > k:
        held = 0, [[vertex]]
    j, parts = held
    if j < k:
        at = [i - 1 for i in sorted(variables)]
        for _ in range(k - j):
            parts = [[w[:i] + (w[i] + 1,) + w[i + 1:] for part in parts[:h + 1] for w in part]
                     for h, i in enumerate(at)]
        table[key] = k, parts
    return [w for part in parts for w in part]


def _covered(div: RelDivision, members, d: int, table: dict) -> set[Term]:
    """The degree-d terms of the union of the members' cones."""
    return {w for m in members for w in _cone_terms(m, div.mult[m], d, table)}


def verify_division_covering(div: RelDivision, margin: int = 3) -> ValidationReport:
    """Check unique cone coverage of every multiple of the support, degree by
    degree over walk_degrees; margin 0 on a slice walks nothing."""
    violations: list[dict] = []
    table: dict = {}
    for d in walk_degrees(div, margin):
        owners_of: dict[Term, list[Term]] = {}  # in support order
        for u in div.support:
            for w in _cone_terms(u, div.mult[u], d, table):
                owners_of.setdefault(w, []).append(u)
        for w in enumerate_terms(div.n, d):
            owners = owners_of.get(w, ())
            if len(owners) > 1:
                violations.append({"kind": "double-covered", "term": format_term(w),
                                   "u": format_term(owners[0]), "v": format_term(owners[1])})
            elif not owners and any(term_divides(u, w) for u in div.support):
                violations.append({"kind": "uncovered", "term": format_term(w)})
    return ValidationReport(violations)


def verify_ideal_equality(div: RelDivision, members, margin: int = 3):
    """Do the cones of the member terms cut out, slice by slice, the same set
    as ordinary divisibility by the members?  Checked over walk_degrees, up to
    the highest support degree + margin; returns (ok, counterexample)."""
    members = {support_key(t, div.mult) for t in members}
    every, table = frozenset(range(1, div.n + 1)), {}
    for d in walk_degrees(div, margin):
        plain = {w for m in members for w in _cone_terms(m, every, d, table)}
        missing = plain - _covered(div, members, d, table)  # the cones lie inside plain
        if missing:
            return False, next(w for w in enumerate_terms(div.n, d) if w in missing)
    return True, None


def verify_order_ideal(div: RelDivision, members, margin: int = 3):
    """Is the union of the member cones closed under passing to divisors of
    degree >= the lowest support degree?  Checked over walk_degrees; returns
    (ok, counterexample) where a counterexample is (term, divisor).

    Only the divisors w / x_i of covered walked terms w are tested: a divisor of
    w down to the lowest support degree is reached by walked one-variable steps."""
    members = {support_key(t, div.mult) for t in members}
    walk, table = walk_degrees(div, margin), {}
    below = _covered(div, members, walk.start - 1, table) if walk else set()
    for d in walk:
        here = _covered(div, members, d, table)
        for w in filter(here.__contains__, enumerate_terms(div.n, d)):
            for i, e in enumerate(w):
                if e:
                    s = w[:i] + (e - 1,) + w[i + 1:]
                    if s not in below:
                        return False, (w, s)
        below = here
    return True, None


def brute_compliant(div: RelDivision, seed) -> frozenset[Term]:
    """Fixpoint of the defining rule taken literally: for every member t and
    every support term s, the cone vertex of lcm(s, t) joins the set."""
    members = {support_key(t, div.mult) for t in seed}
    todo = sorted(members, key=deglex_key)
    for t in todo:  # grows while it is walked
        for s in div.support:
            v = div.x_of(s, t)
            if v not in members:
                members.add(v)
                todo.append(v)
    return frozenset(members)
