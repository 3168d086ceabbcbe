"""Differential tests: the pair-table fast paths against the rules they replace.

Each reference below is the literal pairwise or fixpoint rule, written with
the term kernels and RelDivision.x_of, and is compared with the library on
random relabellings of valid divisions and on single-row mutations of them.
Validity itself is compared with the brute-force covering oracle.
"""

from __future__ import annotations

from itertools import islice, permutations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conedec import (
    RelDivision,
    brute_compliant,
    canonical_form,
    compliant_closure,
    deglex_key,
    enumerate_divisions,
    enumerate_terms,
    format_term,
    janet_general,
    orbit_size,
    pommaret_on_slice,
    redundant_graph,
    revenant_closure,
    support,
    term_div,
    term_divides,
    term_gcd,
    term_lcm,
    ufnarovsky_graph,
    verify_division_covering,
    verify_order_ideal,
)

from conftest import mutated, serialize

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def bases():
    return [*enumerate_divisions(3, 2), *enumerate_divisions(3, 3),
            pommaret_on_slice(4, 2), pommaret_on_slice(4, 3)]


def relabelled(data, bases) -> RelDivision:
    div = data.draw(st.sampled_from(bases))
    pi = data.draw(st.permutations(range(1, div.n + 1)))
    return div.permuted(tuple(pi))


# -- the old rules ----------------------------------------------------------

def overlaps_by_gcd(div):
    out = []
    for i, u in enumerate(div.support):
        for v in div.support[i + 1:]:
            w = term_gcd(u, v)
            if (support(term_div(v, w)) <= div.mult[u]
                    and support(term_div(u, w)) <= div.mult[v]):
                out.append({"kind": "overlap", "u": format_term(u), "v": format_term(v),
                            "witness": format_term(term_lcm(u, v))})
    return out


def cone_by_quotient(div, v, w):
    return term_divides(v, w) and support(term_div(w, v)) <= div.mult[v]


def ufnarovsky_by_owner_scan(div):
    def owner(w):
        return next(u for u in div.support if cone_by_quotient(div, u, w))

    edges = set()
    for s in div.support:
        for j in set(range(1, div.n + 1)) - div.mult[s]:
            w = tuple(e + 1 if i == j - 1 else e for i, e in enumerate(s))
            edges.add((owner(w), s, j))
    return edges


def compliant_by_sweep(div, seed):
    members = set(seed)
    changed = True
    while changed:
        changed = False
        for t in sorted(members, key=deglex_key):
            for s in div.support:
                v = div.x_of(s, t)
                if v not in members:
                    members.add(v)
                    changed = True
    return members


def revenant_by_x_of(div, seed):
    members = set(seed)
    changed = True
    while changed:
        changed = False
        for s in div.support:
            if s not in members and any(div.x_of(t, s) == t for t in members):
                members.add(s)
                changed = True
    return members


def order_ideal_by_all_divisors(div, members, margin):
    def covered(w):
        return any(div.cone_contains(m, w) for m in members)

    d0 = div.degree
    for d in range(d0, d0 + margin + 1):
        for w in enumerate_terms(div.n, d):
            if covered(w):
                for s in product(*(range(e + 1) for e in w)):
                    if sum(s) >= d0 and not covered(s):
                        return False
    return True


# -- properties -------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_validate_matches_gcd_rule(bases, data):
    div = relabelled(data, bases)
    if data.draw(st.booleans()):
        div = mutated(data, div)
    fresh = RelDivision(div.n, div.degree, div.support, dict(div.mult))
    fresh_is_valid = fresh.is_valid  # read before any validate() on this instance
    report = div.validate()
    assert [v for v in report.violations if v["kind"] == "overlap"] == overlaps_by_gcd(div)
    assert div.is_valid == fresh_is_valid == report.valid


@pytest.fixture(scope="module")
def covering_bases():
    return [*enumerate_divisions(3, 2), *islice(enumerate_divisions(3, 3), 0, None, 7),
            *enumerate_divisions(4, 1), pommaret_on_slice(2, 4)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_validity_matches_the_covering_oracle(covering_bases, data):
    """is_valid against unique coverage walked up to degree D + max(D, n), on
    one or two rows of a valid slice replaced by drawn sets.  That margin
    decides validity.  An overlap shows at the lcm of its two vertices, of
    degree <= 2D.  With disjoint cones, the covered and the total counts at
    degree D+e (e >= 1) are polynomials in e of degree <= n-1, so if they
    differ anywhere, they differ at some e in 1..n.  And a missing pure-power
    variable leaves x_i^(D+1) uncovered."""
    div = data.draw(st.sampled_from(covering_bases) | st.permutations(range(1, 5)).map(
        lambda pi: pommaret_on_slice(4, 2, tuple(pi))))
    for _ in range(data.draw(st.integers(1, 2))):
        div = mutated(data, div)
    assert div.is_valid == verify_division_covering(div, max(div.degree, div.n)).valid


def general(data) -> RelDivision:
    """Janet's rule on a random set of terms of degrees 1..3 in 3 variables,
    one time in two with one row mutated."""
    terms = data.draw(st.sets(st.sampled_from(
        [t for d in (1, 2, 3) for t in enumerate_terms(3, d)]), min_size=1, max_size=8))
    div = janet_general(terms, 3)
    return mutated(data, div) if data.draw(st.booleans()) else div


@SETTINGS
@given(st.data())
def test_validate_matches_gcd_rule_on_general_supports(data):
    div = general(data)
    report = div.validate()
    assert [v for v in report.violations if v["kind"] == "overlap"] == overlaps_by_gcd(div)


@SETTINGS
@given(st.data())
def test_heads_and_tails_match_the_landing_rule(bases, data):
    """t lands on s when lcm(s, t) lies in the cone of t, taken literally."""
    kind = data.draw(st.sampled_from(["relabelled", "mutated", "general"]))
    if kind == "general":
        div = general(data)
    else:
        div = relabelled(data, bases)
        div = mutated(data, div) if kind == "mutated" else div
    terms, table = div.support, div.pair_table

    def lands(t, s):
        return s != t and div.cone_contains(t, term_lcm(s, t))

    for r, u in enumerate(terms):
        assert table.heads(r) == [s for s, v in enumerate(terms) if lands(u, v)]
        assert table.tails(r) == [t for t, v in enumerate(terms) if lands(v, u)]


@SETTINGS
@given(st.data())
def test_redundant_graph_matches_x_of(bases, data):
    div = relabelled(data, bases)
    want = {(t, s) for t in div.support for s in div.support
            if s != t and div.x_of(s, t) == t}
    assert {(a, b) for a, b, _ in redundant_graph(div).edges} == want


@SETTINGS
@given(st.data())
def test_ufnarovsky_graph_matches_owner_scan(bases, data):
    div = relabelled(data, bases)
    assert ufnarovsky_graph(div).edges == ufnarovsky_by_owner_scan(div)


@SETTINGS
@given(st.data())
def test_cone_contains_matches_quotient_rule(bases, data):
    div = relabelled(data, bases)
    if data.draw(st.booleans()):
        div = mutated(data, div)
    for d in range(div.degree, div.degree + 3):
        for w in enumerate_terms(div.n, d):
            for v in div.support:
                assert div.cone_contains(v, w) == cone_by_quotient(div, v, w)


@SETTINGS
@given(st.data())
def test_closures_match_fixpoints(bases, data):
    div = relabelled(data, bases)
    seed = data.draw(st.sets(st.sampled_from(div.support), max_size=3))
    brute = brute_compliant(div, seed)
    assert set(compliant_closure(div, seed).closure) == brute == compliant_by_sweep(div, seed)
    assert set(revenant_closure(div, seed).closure) == revenant_by_x_of(div, seed)


@SETTINGS
@given(st.data())
def test_order_ideal_matches_all_divisor_walk(bases, data):
    div = relabelled(data, bases)
    members = data.draw(st.sets(st.sampled_from(div.support), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        members = revenant_closure(div, members).closure
    margin = data.draw(st.integers(0, 2))
    ok, bad = verify_order_ideal(div, members, margin)
    assert ok == order_ideal_by_all_divisors(div, members, margin)
    if not ok:
        w, s = bad
        assert term_divides(s, w)
        assert any(div.cone_contains(m, w) for m in members)
        assert not any(div.cone_contains(m, s) for m in members)


@SETTINGS
@given(st.data())
def test_canonical_form_matches_renamed_divisions(bases, data):
    div = relabelled(data, bases)
    if data.draw(st.booleans()):
        div = mutated(data, div)
    forms = [serialize(div.permuted(pi)) for pi in permutations(range(1, div.n + 1))]
    assert canonical_form(div) == min(forms)
    assert orbit_size(div) == len(set(forms))
