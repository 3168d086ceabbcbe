from __future__ import annotations

import ast
import inspect
from collections import Counter

import pytest

import conedec.oracle

from conedec import (
    RelDivision,
    brute_compliant,
    compliant_closure,
    enumerate_divisions,
    parse_term,
    pommaret_general,
    pommaret_on_slice,
    verify_division_covering,
    verify_ideal_equality,
    verify_order_ideal,
)

from conftest import term


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
    assert (1, 1, 1) in uncovered
    assert all(v["kind"] == "uncovered" for v in rep.violations)


def test_covering_finds_gap_off_slice():
    # triangular rule on a proper subset misses a mixed product
    u = [parse_term("x1", 3), parse_term("x2", 3)]
    div = pommaret_general(u, 3)
    assert div.validate().valid  # cones are disjoint...
    rep = verify_division_covering(div, 1)
    assert not rep.valid  # ...but they do not cover
    uncovered = {v["term"] for v in rep.violations if v["kind"] == "uncovered"}
    assert parse_term("x1*x3", 3) in uncovered


def test_covering_finds_double_cover():
    div = pommaret_general([(1, 0), (2, 0)], 2)  # x and x^2
    rep = verify_division_covering(div, 1)
    kinds = {v["kind"] for v in rep.violations}
    assert "double-covered" in kinds
    doubled = [v for v in rep.violations if v["kind"] == "double-covered"]
    assert {"term": (2, 0), "u": (1, 0), "v": (2, 0)} == {
        k: doubled[0][k] for k in ("term", "u", "v")}


def test_covering_margin_zero(uncovering31):
    # the gap appears two degrees up, so margin 0 and 1 cannot see it
    assert verify_division_covering(uncovering31, 0).valid
    assert verify_division_covering(uncovering31, 1).valid
    assert not verify_division_covering(uncovering31, 2).valid


def test_covering_rejects_negative_margin(facile):
    with pytest.raises(ValueError):
        verify_division_covering(facile, -1)


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
