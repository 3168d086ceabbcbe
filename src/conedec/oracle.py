"""Bounded brute-force checks, independent of the incremental machinery.

Everything here walks terms degree by degree up to an explicit margin and
builds each cone there from its definition, vertex times products of its
multiplicative variables, to certify (up to the bound) or refute claims.
"""

from __future__ import annotations

from .division import RelDivision, ValidationReport
from .terms import (
    Term, check_degree, degree, deglex_key, enumerate_terms, format_term, support_key,
    term_divides)


def walk_degrees(div: RelDivision, margin: int) -> range:
    """The degrees of every oracle walk: above the lowest support degree (there a
    term is in a cone only as its vertex) up to the highest + margin; none on an
    empty support.  The margin is checked as a degree is: an int >= 0."""
    check_degree(margin)
    terms = div.support  # in deg-lex order
    return range(degree(terms[0]) + 1, degree(terms[-1]) + margin + 1) if terms else range(0)


def _cone_terms(vertex: Term, variables, d: int) -> list[Term]:
    """The degree-d terms of the cone of vertex over the given variables: vertex
    times every product of degree d - deg(vertex) in them."""
    k, variables = d - degree(vertex), sorted(variables)
    if k < 0 or not variables:  # enumerate_terms refuses 0 variables
        return [vertex] if k == 0 else []
    cone = []
    for p in enumerate_terms(len(variables), k):
        w = list(vertex)
        for i, e in zip(variables, p):
            w[i - 1] += e
        cone.append(tuple(w))
    return cone


def _covered(div: RelDivision, members, d: int) -> set[Term]:
    """The degree-d terms of the union of the members' cones."""
    return {w for m in members for w in _cone_terms(m, div.mult[m], d)}


def verify_division_covering(div: RelDivision, margin: int = 3) -> ValidationReport:
    """Check unique cone coverage of every multiple of the support, degree by
    degree over walk_degrees; margin 0 on a slice walks nothing."""
    violations: list[dict] = []
    for d in walk_degrees(div, margin):
        owners_of: dict[Term, list[Term]] = {}  # in support order
        for u in div.support:
            for w in _cone_terms(u, div.mult[u], d):
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
    for d in walk_degrees(div, margin):
        plain = {w for m in members for w in _cone_terms(m, range(1, div.n + 1), d)}
        missing = plain - _covered(div, members, d)  # the cones lie inside plain
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
    walk = walk_degrees(div, margin)
    below = _covered(div, members, walk.start - 1) if walk else set()
    for d in walk:
        here = _covered(div, members, d)
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
