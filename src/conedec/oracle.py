"""Bounded brute-force checks, independent of the incremental machinery.

Everything here walks terms degree by degree up to an explicit margin and
tests membership directly, so it can certify (up to the bound) or refute
claims produced elsewhere.
"""

from __future__ import annotations

from functools import cache

from .division import RelDivision, ValidationReport
from .terms import Term, degree, deglex_key, enumerate_terms, term_divides


def verify_division_covering(div: RelDivision, margin: int = 3) -> ValidationReport:
    """Check unique cone coverage of every multiple of the support, degree by
    degree, up to max support degree + margin."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    if not div.support:  # nothing to cover
        return ValidationReport(div.n)
    violations: list[dict] = []
    degrees = [degree(t) for t in div.support]
    lo, hi = min(degrees), max(degrees) + margin
    for d in range(lo, hi + 1):
        for w in enumerate_terms(div.n, d):
            owners = [u for u in div.support if div.cone_contains(u, w)]
            if len(owners) > 1:
                violations.append(
                    {"kind": "double-covered", "term": w, "u": owners[0], "v": owners[1]})
            elif not owners and any(term_divides(u, w) for u in div.support):
                violations.append({"kind": "uncovered", "term": w})
    return ValidationReport(div.n, violations)


def _walk_plan(div: RelDivision, members, margin: int) -> tuple[list[Term], range]:
    """The members, checked to be in the support, and the degrees a certificate
    walks: above the slice (or lowest support) degree d0, where both sides
    hold exactly the members, up to d0 + margin; none on an empty support."""
    members = [tuple(t) for t in members]
    for t in members:
        if t not in div.mult:
            raise LookupError(f"member {t} not in the support")
    d0 = div.degree if div.is_full_slice else min(map(degree, div.support), default=0)
    return members, range(d0 + 1, d0 + margin + 1) if div.support else range(0)


def verify_ideal_equality(div: RelDivision, members, margin: int = 3):
    """Do the cones of the member terms cut out, slice by slice, the same set
    as ordinary divisibility by the members?  Checked for degrees up to the
    slice degree + margin; returns (ok, counterexample)."""
    members, degrees = _walk_plan(div, members, margin)
    for d in degrees:
        for w in enumerate_terms(div.n, d):
            plain = any(term_divides(m, w) for m in members)
            coned = any(div.cone_contains(m, w) for m in members)
            if plain != coned:
                return False, w
    return True, None


def verify_order_ideal(div: RelDivision, members, margin: int = 3):
    """Is the union of the member cones closed under passing to divisors of
    degree >= the slice degree?  Bounded as above; returns (ok, counterexample)
    where a counterexample is (term, divisor).

    Only the divisors w / x_i of covered terms w above the slice degree are
    tested: any divisor of w of degree >= the slice degree is reached from w
    by dropping one variable at a time through terms of the tested range."""
    members, degrees = _walk_plan(div, members, margin)

    @cache
    def covered(w: Term) -> bool:
        return any(div.cone_contains(m, w) for m in members)

    for d in degrees:
        for w in enumerate_terms(div.n, d):
            if not covered(w):
                continue
            for i, e in enumerate(w):
                if e:
                    s = w[:i] + (e - 1,) + w[i + 1:]
                    if not covered(s):
                        return False, (w, s)
    return True, None


def brute_compliant(div: RelDivision, seed) -> frozenset[Term]:
    """Fixpoint of the defining rule taken literally: for every member t and
    every support term s, the cone vertex of lcm(s, t) joins the set."""
    members = set(_walk_plan(div, seed, 0)[0])
    todo = sorted(members, key=deglex_key)
    for t in todo:  # grows while it is walked
        for s in div.support:
            v = div.x_of(s, t)
            if v not in members:
                members.add(v)
                todo.append(v)
    return frozenset(members)
