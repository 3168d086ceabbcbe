from __future__ import annotations

import ast
import inspect
import re
from collections import Counter
from contextlib import contextmanager
from functools import cache
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import conedec.cli
import conedec.oracle

from conedec import (
    RelDivision,
    brute_compliant,
    compliant_closure,
    degree,
    enumerate_divisions,
    enumerate_terms,
    escalier_from_seed,
    format_term,
    ideal_from_seed,
    janet_general,
    parse_term,
    pommaret_general,
    pommaret_on_slice,
    revenant_closure,
    term_divides,
    verify_division_covering,
    verify_ideal_equality,
    verify_order_ideal,
)

from conedec.oracle import walk_degrees
from conedec.terms import support_key
from conftest import mutated, term


def test_covering_passes_on_valid_slices(facile, four_vars):
    for n in range(1, 5):
        for d in range(1, 4):
            assert verify_division_covering(pommaret_on_slice(n, d), 2).valid
    assert verify_division_covering(facile, 3).valid
    assert verify_division_covering(four_vars, 2).valid


def test_covering_finds_uncovered_term(uncovering31):
    rep = verify_division_covering(uncovering31, 2)
    assert not rep.valid
    uncovered = {v["term"] for v in rep.violations if v["kind"] == "uncovered"}
    assert "x*y*z" in uncovered
    assert all(v["kind"] == "uncovered" for v in rep.violations)


def test_covering_finds_gap_off_slice():
    # triangular rule on a proper subset misses a mixed product
    u = [parse_term("x1", 3), parse_term("x2", 3)]
    div = pommaret_general(u, 3)
    assert div.validate().valid  # cones are disjoint...
    rep = verify_division_covering(div, 1)
    assert not rep.valid  # ...but they do not cover
    uncovered = {v["term"] for v in rep.violations if v["kind"] == "uncovered"}
    assert "x*z" in uncovered


def test_covering_finds_double_cover():
    div = pommaret_general([(1, 0), (2, 0)], 2)  # x and x^2
    rep = verify_division_covering(div, 1)
    kinds = {v["kind"] for v in rep.violations}
    assert "double-covered" in kinds
    doubled = [v for v in rep.violations if v["kind"] == "double-covered"]
    assert {"term": "x^2", "u": "x", "v": "x^2"} == {
        k: doubled[0][k] for k in ("term", "u", "v")}


def test_covering_margin_zero(uncovering31):
    # the gap appears two degrees up, so margin 0 and 1 cannot see it
    assert verify_division_covering(uncovering31, 0).valid
    assert verify_division_covering(uncovering31, 1).valid
    assert not verify_division_covering(uncovering31, 2).valid


@pytest.mark.parametrize("check", [
    verify_division_covering, verify_ideal_equality, verify_order_ideal,
    ideal_from_seed, escalier_from_seed,
], ids=lambda f: f.__name__)
def test_oracle_rejects_negative_margin(check):
    # a negative margin must not certify a seed that margin 1 refutes; the
    # margin is checked as a degree is, so True and 1.0 are refused too
    div = pommaret_on_slice(3, 2)
    assert verify_ideal_equality(div, [(1, 1, 0)], 1) == (False, (1, 2, 0))
    for margin in (-1, True, 1.0):
        with pytest.raises(ValueError, match=rf"^bad degree {margin} \(must be an int >= 0\)$"):
            (check(div, margin) if check is verify_division_covering
             else check(div, [(1, 1, 0)], margin))


@pytest.fixture
def naive_calls(monkeypatch):
    """Counts of the oracle's cone generator and of the two membership tests, by name."""
    calls = Counter()

    def count(owner, name):
        f = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(owner, name, counted)
    count(conedec.oracle, "_cone_terms")
    count(conedec.oracle, "term_divides")
    count(RelDivision, "cone_contains")
    return calls


def test_ideal_equality_skips_the_slice_degree(naive_calls, pommaret32):
    # at the slice degree both sides hold exactly the members
    members = [term("x*y")]
    assert verify_ideal_equality(pommaret32, members, 0) == (True, None)
    assert naive_calls == {}
    ok, _ = verify_ideal_equality(pommaret32, members, 1)
    assert not ok  # x*y alone is not closed, and one degree up shows it


def test_covering_tests_divisibility_only_where_no_cone_covers(naive_calls):
    assert verify_division_covering(pommaret_on_slice(3, 2), 2).valid
    assert naive_calls["term_divides"] == naive_calls["cone_contains"] == 0
    assert naive_calls["_cone_terms"] > 0


def test_covering_at_margin_zero_on_a_slice_walks_nothing(naive_calls):
    # at the slice degree every term is the vertex of its own cone and no other
    assert verify_division_covering(pommaret_on_slice(3, 2), 0).valid
    assert naive_calls == {}


def test_certificates_walk_up_to_the_highest_support_degree():
    div = RelDivision.general(2, {(1, 0): {1}, (0, 5): {2}})  # x: [x], y^5: [y]
    assert verify_ideal_equality(div, [(0, 5)], 1) == (False, (1, 5))
    assert verify_order_ideal(div, [(0, 5)], 1) == (False, ((0, 5), (0, 4)))


def covering_from_the_lowest_degree(div, margin):
    """Unique coverage checked on every degree from the lowest support degree
    itself to the highest + margin."""
    violations = []
    degrees = [degree(t) for t in div.support] or [0]
    for d in range(min(degrees), max(degrees) + margin + 1):
        for w in enumerate_terms(div.n, d):
            owners = [u for u in div.support if div.cone_contains(u, w)]
            if len(owners) > 1:
                violations.append({"kind": "double-covered", "term": format_term(w),
                                   "u": format_term(owners[0]), "v": format_term(owners[1])})
            elif not owners and any(term_divides(u, w) for u in div.support):
                violations.append({"kind": "uncovered", "term": format_term(w)})
    return violations


@pytest.fixture(scope="module")
def slices():
    return [*enumerate_divisions(3, 2), *enumerate_divisions(3, 3)]


def ideal_equality_pair_by_pair(div, members, margin):
    """verify_ideal_equality testing every (walked term, member) pair for
    divisibility and for cone membership."""
    members = [support_key(t, div.mult) for t in members]
    for d in walk_degrees(div, margin):
        for w in enumerate_terms(div.n, d):
            plain = any(term_divides(m, w) for m in members)
            coned = any(div.cone_contains(m, w) for m in members)
            if plain != coned:
                return False, w
    return True, None


def order_ideal_pair_by_pair(div, members, margin):
    """verify_order_ideal testing cone membership of every (term, member) pair
    for the covered walked terms and their one-variable divisors."""
    members = [support_key(t, div.mult) for t in members]

    @cache
    def covered(w):
        return any(div.cone_contains(m, w) for m in members)

    for d in walk_degrees(div, margin):
        for w in enumerate_terms(div.n, d):
            if not covered(w):
                continue
            for i, e in enumerate(w):
                if e:
                    s = w[:i] + (e - 1,) + w[i + 1:]
                    if not covered(s):
                        return False, (w, s)
    return True, None


_MIXED = [t for d in (1, 2, 3) for t in enumerate_terms(3, d)]


@contextmanager
def oracle_work():
    """Counts the cone terms the oracle builds and the divisibility tests it makes."""
    work = Counter()
    cone_terms, divides = conedec.oracle._cone_terms, conedec.oracle.term_divides

    def built(*args):
        cone = cone_terms(*args)
        work["cone terms"] += len(cone)
        return cone

    def tested(*args):
        work["divisibility tests"] += 1
        return divides(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conedec.oracle, "_cone_terms", built)
        mp.setattr(conedec.oracle, "term_divides", tested)
        yield work


def walked_terms(div, margin):
    return sum(len(enumerate_terms(div.n, d)) for d in walk_degrees(div, margin))


def draw_division(data, slices):
    """A (3,2) or (3,3) slice division, one with a row mutated, or a Pommaret
    or Janet division of up to 8 terms of degrees 1 to 3."""
    kind = data.draw(st.sampled_from(["slice", "mutated", "general"]))
    if kind == "general":
        rule = data.draw(st.sampled_from([pommaret_general, janet_general]))
        return rule(sorted(data.draw(st.sets(st.sampled_from(_MIXED), min_size=1, max_size=8))), 3)
    div = data.draw(st.sampled_from(slices))
    return mutated(data, div) if kind == "mutated" else div


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(0, 3))
def test_one_walk_plan_for_covering_and_the_cli_bound(slices, data, margin):
    """The covering walk finds what a walk from the lowest support degree finds;
    the CLI's work bound is exactly the walked terms times the support terms,
    and the cone terms the walk builds plus its divisibility tests stay within it."""
    div = draw_division(data, slices)
    with oracle_work() as work:
        report = verify_division_covering(div, margin)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conedec.cli, "MAX_ORACLE_WORK", -1)
        with pytest.raises(conedec.cli.UsageError) as refusal:
            conedec.cli._check_oracle_work("--oracle", margin, div)
    assert report.violations == covering_from_the_lowest_degree(div, margin)
    pairs = re.search(r"would test ([\d,]+) \(term, support term\) pairs", str(refusal.value))
    bound = int(pairs[1].replace(",", ""))
    assert bound == walked_terms(div, margin) * len(div.support)
    assert work.total() <= bound


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(0, 3))
def test_certificates_match_their_pair_by_pair_references(slices, data, margin):
    """Both certificate walks give exactly the (ok, counterexample) of the
    pair-by-pair walks, on member lists (repeats allowed) and, on valid slices,
    on the closures that ideal_from_seed and escalier_from_seed certify.  Each
    builds at most twice the CLI's work bound in cone terms."""
    div = draw_division(data, slices)
    ideal = order = data.draw(st.lists(st.sampled_from(div.support), max_size=12))
    if data.draw(st.booleans()) and div.is_full_slice and div.is_valid:
        ideal = compliant_closure(div, ideal).closure
        order = revenant_closure(div, order).closure
    bound = walked_terms(div, margin) * len(div.support)
    with oracle_work() as work:
        assert (verify_ideal_equality(div, ideal, margin)
                == ideal_equality_pair_by_pair(div, ideal, margin))
    assert work.total() <= 2 * bound
    with oracle_work() as work:
        assert (verify_order_ideal(div, order, margin)
                == order_ideal_pair_by_pair(div, order, margin))
    assert work.total() <= 2 * bound


_EDGES = {
    "vertex-with-no-multiplicative-variable":
        RelDivision.general(2, {(1, 0): {1, 2}, (1, 1): set(), (0, 2): {2}}),
    "one-variable": RelDivision.general(1, {(1,): set(), (3,): {1}}),
    "one-variable-slice": pommaret_on_slice(1, 2),
    "vertex-above-the-walked-degree":
        RelDivision.general(3, {(1, 0, 0): {1}, (0, 2, 1): {2, 3}, (0, 0, 4): {3}}),
    "slice": pommaret_on_slice(3, 2),  # margin 0 walks nothing
    "empty-support": RelDivision.general(2, {}),
}


@pytest.mark.parametrize("name", sorted(_EDGES))
def test_cone_generator_edge_cases_match_the_references(name):
    div = _EDGES[name]
    subsets = [c for r in range(len(div.support) + 1) for c in combinations(div.support, r)]
    for margin in range(4):
        report = verify_division_covering(div, margin)
        assert report.violations == covering_from_the_lowest_degree(div, margin)
        for members in subsets:
            assert (verify_ideal_equality(div, members, margin)
                    == ideal_equality_pair_by_pair(div, members, margin))
            assert (verify_order_ideal(div, members, margin)
                    == order_ideal_pair_by_pair(div, members, margin))


def test_cone_generator_builds_the_degree_d_part_of_a_cone():
    # a cone with no multiplicative variable is its vertex, at the vertex's degree only
    cone, table = conedec.oracle._cone_terms, {}  # one table per variable count, as per call
    assert cone((1, 1), frozenset(), 2, table) == [(1, 1)]
    assert cone((1, 1), frozenset(), 1, table) == cone((1, 1), frozenset(), 3, table) == []
    assert cone((2,), frozenset({1}), 4, {}) == [(4,)]
    table = {}
    assert cone((1, 0, 2), frozenset({1, 3}), 4, table) == [(2, 0, 2), (1, 0, 3)]
    # one table serves the next degree, another vertex, and a lower degree asked again
    assert cone((1, 0, 2), frozenset({1, 3}), 5, table) == [(3, 0, 2), (2, 0, 3), (1, 0, 4)]
    assert cone((0, 1, 0), frozenset({1, 3}), 3, table) == [(2, 1, 0), (1, 1, 1), (0, 1, 2)]
    assert cone((1, 0, 2), frozenset({1, 3}), 4, table) == [(2, 0, 2), (1, 0, 3)]


def test_no_cone_table_outlives_an_oracle_call():
    """Two divisions on one support that differ in one multiplicative set,
    certified A, B, A: each answer is its own reference's, and the repeated
    call builds as many cone terms as the first did."""
    a = pommaret_on_slice(3, 2)
    xy = term("x*y")
    b = RelDivision.on_slice(3, 2, {**a.mult, xy: a.mult[xy] - {1}})
    work_of = {}
    for name, div in (("A", a), ("B", b), ("A", a)):
        with oracle_work() as work:
            got = verify_ideal_equality(div, [xy], 2), verify_order_ideal(div, [xy], 2)
            report = verify_division_covering(div, 2)
        assert got == (ideal_equality_pair_by_pair(div, [xy], 2),
                       order_ideal_pair_by_pair(div, [xy], 2))
        assert report.violations == covering_from_the_lowest_degree(div, 2)
        assert work_of.setdefault(name, work) == work
    assert (verify_ideal_equality(a, [xy], 2), verify_order_ideal(a, [xy], 2)) != (
        verify_ideal_equality(b, [xy], 2), verify_order_ideal(b, [xy], 2))
    kept = [name for name, value in vars(conedec.oracle).items() if not name.startswith("__")
            and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))]
    assert kept == []  # no table is held between calls


def test_ideal_equality(facile):
    ok, bad = verify_ideal_equality(facile, [term("x*z"), term("x*y")], 3)
    assert ok and bad is None
    ok, bad = verify_ideal_equality(facile, [term("x*z")], 3)
    assert not ok
    assert bad == parse_term("x*y*z", 3)  # xz | xyz but xyz escapes the cone


def test_order_ideal(idealpom, facile):
    ok, bad = verify_order_ideal(idealpom, [term("x*z"), term("z^2")], 3)
    assert ok and bad is None
    ok, bad = verify_order_ideal(idealpom, [term("x*z")], 1)
    assert not ok
    assert bad == (parse_term("x*z^2", 3), (0, 0, 2))
    ok, bad = verify_order_ideal(
        facile, [term(s) for s in ("x*z", "x^2", "z^2")], 3)
    assert ok


def test_empty_support_has_nothing_to_check():
    div = RelDivision.general(2, {})
    for margin in (0, 3):
        rep = verify_division_covering(div, margin)
        assert rep.valid and rep.violations == [] and rep.notes == []
        assert verify_ideal_equality(div, [], margin) == (True, None)
        assert verify_order_ideal(div, [], margin) == (True, None)


def test_oracle_rejects_foreign_members(facile):
    with pytest.raises(LookupError):
        verify_ideal_equality(facile, [term("x^3")], 1)
    with pytest.raises(LookupError):
        verify_order_ideal(facile, [term("x^3")], 1)


def test_brute_compliant_agrees_with_closure(facile, idealpom, four_vars):
    for div in (facile, idealpom, four_vars):
        for t in div.support:
            assert brute_compliant(div, [t]) == set(
                compliant_closure(div, [t]).closure)


def test_brute_compliant_across_enumeration():
    for div in enumerate_divisions(2, 3):
        for t in div.support:
            assert brute_compliant(div, [t]) == set(
                compliant_closure(div, [t]).closure)


def test_oracle_reads_only_the_naive_surface_of_a_division():
    # the oracle judges the pair-table fast paths, so it must not use them
    tree = ast.parse(inspect.getsource(conedec.oracle))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert {"mult", "support"} <= used
    assert not used & {"pair_table", "PairTable", "quotient_masks", "at_most_masks",
                       "landing_masks", "lands", "heads", "tails",
                       "is_valid", "validate", "_violations"}
