from __future__ import annotations

import json
import random

import pytest

from conedec import (
    InvalidDivisionError,
    compliant_closure,
    enumerate_terms,
    escalier_from_seed,
    ideal_from_seed,
    is_borel_fixed_slice,
    parse_term,
    revenant_closure,
)

from conftest import term


def closure_set(report):
    return set(report.closure)


def test_compliant_small(idealpom):
    rep = compliant_closure(idealpom, [term("x*y")])
    assert closure_set(rep) == {term("x*y"), term("x^2")}
    assert rep.seed == (term("x*y"),)
    (added, s, t, lcm, vertex), = rep.witnesses
    assert added == vertex == term("x^2")
    assert s == term("x*y") and t == term("x^2")
    assert lcm == parse_term("x^2*y", 3)


def test_compliant_whole_slice(ideal33):
    rep = compliant_closure(ideal33, [parse_term("x*y^2", 3)])
    assert closure_set(rep) == set(enumerate_terms(3, 3))
    assert len(rep.witnesses) == 9


def test_revenant_small(idealpom):
    rep = revenant_closure(idealpom, [term("x*z")])
    assert closure_set(rep) == {term("x*z"), term("z^2")}
    (added, s, t, lcm, vertex), = rep.witnesses
    assert added == s == term("z^2")
    assert t == vertex == term("x*z")
    assert lcm == parse_term("x*z^2", 3)


def test_facile_closures(facile):
    assert closure_set(compliant_closure(facile, [term("x*z")])) == {
        term("x*z"), term("x*y")}
    assert closure_set(revenant_closure(facile, [term("x*z")])) == {
        term("x*z"), term("x^2"), term("z^2")}


def test_triangular_closures(pommaret32):
    assert closure_set(compliant_closure(pommaret32, [term("x*y")])) == {
        term(s) for s in ("x*y", "y^2", "y*z", "z^2")}
    # the peak's cone meets every lcm, so its revenant closure is everything
    assert closure_set(revenant_closure(pommaret32, [term("z^2")])) == set(
        pommaret32.support)


def test_four_vars_closure(four_vars):
    rep = compliant_closure(four_vars, [parse_term("x^2*y", 4)])
    assert closure_set(rep) == {
        parse_term(s, 4) for s in ("x^2*y", "x^2*z", "x^2*t", "y*z*t")}


def test_closures_monotone_and_idempotent(facile, idealpom, pommaret32):
    rng = random.Random(7)
    for div in (facile, idealpom, pommaret32):
        for _ in range(10):
            seed = rng.sample(div.support, rng.randint(1, 3))
            for close in (compliant_closure, revenant_closure):
                rep = close(div, seed)
                assert set(seed) <= closure_set(rep)
                again = close(div, rep.closure)
                assert closure_set(again) == closure_set(rep)
                assert not again.witnesses


def test_closure_of_everything_is_everything(facile):
    rep = compliant_closure(facile, facile.support)
    assert rep.closure == facile.support
    assert not rep.witnesses


def test_closure_rejects_foreign_seed(facile):
    with pytest.raises(LookupError):
        compliant_closure(facile, [term("x^3")])
    # a term in four variables is named, not an IndexError
    for close in (compliant_closure, revenant_closure):
        with pytest.raises(LookupError, match="^term t not in the support$"):
            close(facile, [(0, 0, 0, 1)])


def test_closure_requires_valid_slice(uncovering31):
    with pytest.raises(InvalidDivisionError):
        compliant_closure(uncovering31, [(1, 0, 0)])


def test_witnesses_justify_membership(facile, idealpom, four_vars):
    for div in (facile, idealpom, four_vars):
        for seed_term in div.support:
            for rep, direction in (
                (compliant_closure(div, [seed_term]), "in"),
                (revenant_closure(div, [seed_term]), "rev"),
            ):
                seen = set(rep.seed)
                for added, s, t, lcm, vertex in rep.witnesses:
                    assert added not in seen
                    if direction == "in":
                        assert added == t == vertex and s in seen
                    else:
                        assert added == s and t == vertex and t in seen
                    assert div.x_of(s, t) == vertex
                    assert div.cone_contains(vertex, lcm)
                    seen.add(added)
                assert seen == closure_set(rep)


def test_certified_results(facile, idealpom, four_vars):
    res = ideal_from_seed(facile, [term("x*z")])
    assert res.certified and res.counterexample is None
    res = escalier_from_seed(facile, [term("x*z")])
    assert res.certified
    res = ideal_from_seed(four_vars, [parse_term("x^2*y", 4)])
    assert res.certified
    res = escalier_from_seed(idealpom, [term("x*z")])
    assert res.certified


def test_truncated_ideal_fails_certification(four_vars):
    from conedec.oracle import verify_ideal_equality

    ok, bad = verify_ideal_equality(
        four_vars, [parse_term(s, 4) for s in ("x^2*y", "x^2*z", "x^2*t")], 2)
    assert not ok
    assert bad == parse_term("x^2*y*z*t", 4)


def test_closure_report_json(idealpom):
    rep = compliant_closure(idealpom, [term("x*y")])
    data = json.loads(rep.to_json())
    assert data == {
        "seed": ["x*y"],
        "closure": ["x^2", "x*y"],
        "witnesses": [
            {"added": "x^2", "s": "x*y", "t": "x^2", "lcm": "x^2*y", "vertex": "x^2"},
        ],
    }


def test_borel_fixed():
    n = 3
    terms = lambda *ss: [parse_term(s, n) for s in ss]
    assert not is_borel_fixed_slice(terms("x*y", "y^2", "y*z", "z^2"), n)
    assert is_borel_fixed_slice(terms("z^2",), n)
    assert is_borel_fixed_slice(terms("x^2", "x*y", "y^2", "x*z", "y*z", "z^2"), n)
    assert is_borel_fixed_slice([], n)
    assert not is_borel_fixed_slice(terms("x^2",), n)
    with pytest.raises(ValueError):
        is_borel_fixed_slice(terms("x^2", "x^3"), n)


def test_borel_convention_points_up():
    # exchanging y for the larger z must stay inside
    n = 3
    ok = [parse_term(s, n) for s in ("y*z", "z^2")]
    assert is_borel_fixed_slice(ok, n)
    assert not is_borel_fixed_slice([parse_term("y*z", n)], n)
