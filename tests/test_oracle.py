from __future__ import annotations

import ast
import inspect
import re
from collections import Counter

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
    term_divides,
    verify_division_covering,
    verify_ideal_equality,
    verify_order_ideal,
)

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
    """Counts of the oracle's two membership tests, by name."""
    calls = Counter()

    def count(owner, name):
        f = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(owner, name, counted)
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
    assert naive_calls["term_divides"] == 0 and naive_calls["cone_contains"] > 0


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
    degrees = [degree(t) for t in div.support]
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


_MIXED = [t for d in (1, 2, 3) for t in enumerate_terms(3, d)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(0, 3))
def test_one_walk_plan_for_covering_and_the_cli_bound(slices, data, margin):
    """The covering walk finds what a walk from the lowest support degree finds,
    and the CLI's work bound counts exactly the cone tests the walk makes."""
    kind = data.draw(st.sampled_from(["slice", "mutated", "general"]))
    if kind == "general":
        rule = data.draw(st.sampled_from([pommaret_general, janet_general]))
        div = rule(sorted(data.draw(st.sets(st.sampled_from(_MIXED), min_size=1, max_size=8))), 3)
    else:
        div = data.draw(st.sampled_from(slices))
        div = mutated(data, div) if kind == "mutated" else div
    calls = Counter()
    contains = RelDivision.cone_contains

    def counted(*args):
        calls["cone_contains"] += 1
        return contains(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RelDivision, "cone_contains", counted)
        report = verify_division_covering(div, margin)
        mp.setattr(conedec.cli, "MAX_ORACLE_WORK", -1)
        with pytest.raises(conedec.cli.UsageError) as refusal:
            conedec.cli._check_oracle_work("--oracle", margin, div)
    assert report.violations == covering_from_the_lowest_degree(div, margin)
    pairs = re.search(r"would test ([\d,]+) \(term, support term\) pairs", str(refusal.value))
    assert int(pairs[1].replace(",", "")) == calls["cone_contains"]


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
    assert "cone_contains" in used
    assert not used & {"pair_table", "PairTable", "quotient_masks", "at_most_masks",
                       "landing_masks", "lands", "heads", "tails",
                       "is_valid", "validate", "_violations"}
