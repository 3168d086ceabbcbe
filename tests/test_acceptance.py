"""End-to-end acceptance checks, one test per criterion.

Every check is exact (tolerance zero).  Each test prints a single PASS line
on success; a failure shows up as a normal pytest failure for that criterion.
"""

from __future__ import annotations

import random
from itertools import combinations

from conedec import (
    brute_compliant,
    canonical_form,
    compliant_closure,
    detect_pommaret,
    enumerate_divisions,
    enumerate_terms,
    escalier_from_seed,
    generalized_graph,
    ideal_from_seed,
    is_borel_fixed_slice,
    janet_general,
    parse_term,
    pommaret_general,
    pommaret_on_slice,
    reachable_backward,
    reachable_forward,
    revenant_closure,
    sigma_expected,
    ufnarovsky_graph,
    vandermonde_identity_check,
    verify_division_covering,
    verify_ideal_equality,
    verify_order_ideal,
)
from conedec.cli import main
from conedec.graphs import graph_from_edge_list

from conftest import (
    FOUR_VARS_GRAPH_EDGES,
    POMMARET32_EDGES,
    STRANGE32_EDGES,
    TR_ROWS,
    forward_reach,
    make_division,
    orbit_divisions_32,
    term,
)


def ok(num: int, what: str) -> None:
    print(f"PASS criterion {num:2d}: {what}")


def T4(s: str):
    return parse_term(s, 4)


def test_criterion_01_binomial_identity():
    for n in range(1, 7):
        for d in range(1, 7):
            assert vandermonde_identity_check(n, d, 12)
    ok(1, "profile splitting identity on n <= 6, D <= 6, d_max = 12")


def test_criterion_02_sigma_profile():
    assert pommaret_on_slice(3, 2).sigma_profile() == (3, 2, 1)
    assert sigma_expected(3, 2) == (3, 2, 1)
    assert pommaret_on_slice(4, 3).sigma_profile() == (10, 6, 3, 1)
    assert sigma_expected(4, 3) == (10, 6, 3, 1)
    assert sum(sigma_expected(4, 3)) == 20
    ok(2, "size profiles (3,2) -> (3,2,1) and (4,3) -> (10,6,3,1), sum 20")


def test_criterion_03_janet_equals_pommaret_on_slices():
    for n in range(1, 5):
        for d in range(1, 5):
            janet = janet_general(enumerate_terms(n, d), n)
            assert janet.mult == pommaret_on_slice(n, d).mult
    ok(3, "Janet and triangular rules agree on every slice n <= 4, D <= 4")


def test_criterion_04_rejections():
    noncont = make_division(3, 1, {"x": "x,y", "y": "y,z", "z": "x,z"})
    rep = noncont.validate()
    assert not rep.valid
    assert "profile-mismatch" in {v["kind"] for v in rep.violations}
    cov = verify_division_covering(noncont, 2)
    assert not cov.valid
    assert "x*y*z" in {v["term"] for v in cov.violations if v["kind"] == "uncovered"}

    two_of_three = pommaret_general([parse_term("x1", 3), parse_term("x2", 3)], 3)
    assert two_of_three.validate().valid  # disjoint, but
    gaps = verify_division_covering(two_of_three, 1)
    assert not gaps.valid
    assert "x*z" in {v["term"] for v in gaps.violations if v["kind"] == "uncovered"}

    nested = pommaret_general([(1, 0), (2, 0)], 2)
    rep = nested.validate()
    assert not rep.valid
    overlaps = [v for v in rep.violations if v["kind"] == "overlap"]
    assert overlaps and overlaps[0]["witness"] == "x^2"
    ok(4, "invalid inputs rejected: profile gap, uncovered product, cone overlap")


def test_criterion_05_orbit_reproduction():
    reps = list(enumerate_divisions(3, 2, up_to_symmetry=True))
    assert len(reps) == 8
    assert {canonical_form(d) for d in reps} == {
        canonical_form(d) for d in orbit_divisions_32()}
    ok(5, "enumeration at (3,2) reproduces the eight reference classes")


def test_criterion_06_worked_closures():
    idealpom = make_division(3, 2, {
        "x^2": "x,y,z", "x*y": "y,z", "y^2": "y",
        "x*z": "z", "y*z": "y,z", "z^2": "z"})
    res = ideal_from_seed(idealpom, [term("x*y")])
    assert set(res.report.closure) == {term("x*y"), term("x^2")}
    assert res.certified

    ideal33 = make_division(3, 3, {
        "x^3": "x,z", "x^2*y": "x", "x*y^2": "x", "y^3": "x,y",
        "x^2*z": "z", "x*y*z": "x,y,z", "y^2*z": "y",
        "x*z^2": "z", "y*z^2": "y", "z^3": "y,z"})
    res = ideal_from_seed(ideal33, [parse_term("x*y^2", 3)])
    assert set(res.report.closure) == set(enumerate_terms(3, 3))
    assert res.certified

    res = escalier_from_seed(idealpom, [term("x*z")])
    assert set(res.report.closure) == {term("x*z"), term("z^2")}
    assert res.certified

    facile = make_division(3, 2, {
        "x^2": "x", "x*y": "x,y,z", "y^2": "y,z",
        "x*z": "x,z", "y*z": "z", "z^2": "z"})
    res = ideal_from_seed(facile, [term("x*z")])
    assert set(res.report.closure) == {term("x*z"), term("x*y")}
    assert res.certified
    res = escalier_from_seed(facile, [term("x*z")])
    assert set(res.report.closure) == {term("x*z"), term("x^2"), term("z^2")}
    assert res.certified

    res = ideal_from_seed(pommaret_on_slice(3, 2), [term("x*y")])
    assert set(res.report.closure) == {
        term(s) for s in ("x*y", "y^2", "y*z", "z^2")}
    assert res.certified

    four_vars = make_division(4, 3, TR_ROWS)
    res = ideal_from_seed(four_vars, [T4("x^2*y")])
    assert set(res.report.closure) == {
        T4(s) for s in ("x^2*y", "x^2*z", "x^2*t", "y*z*t")}
    assert res.certified
    ok(6, "all seven worked closures, each certified at margin 3")


def test_criterion_07_graph_goldens():
    def labeled(edges, n=3):
        idx = {name: i + 1 for i, name in enumerate("xyzt"[:n])}
        return {(parse_term(a, n), parse_term(b, n), idx[v]) for a, b, v in edges}

    g = ufnarovsky_graph(pommaret_on_slice(3, 2))
    assert set(g.edges) == labeled(POMMARET32_EDGES)

    strange = make_division(3, 2, {
        "x^2": "x", "x*y": "x,y,z", "y^2": "y",
        "x*z": "x,z", "y*z": "y", "z^2": "y,z"})
    assert set(ufnarovsky_graph(strange).edges) == labeled(STRANGE32_EDGES)

    four_vars = make_division(4, 3, TR_ROWS)
    reference = graph_from_edge_list(
        4, four_vars.support,
        [(T4(a), T4(b)) for a, b in FOUR_VARS_GRAPH_EDGES])
    assert forward_reach(generalized_graph(four_vars)) == forward_reach(reference)
    ok(7, "one-step graphs match both figures; generalized graph reaches like the reference")


def test_criterion_08_one_step_insufficiency():
    four_vars = make_division(4, 3, TR_ROWS)
    seed = [T4("x^2*y")]
    back = reachable_backward(ufnarovsky_graph(four_vars), seed)
    assert back == {T4(s) for s in ("x^2*y", "x^2*z", "x^2*t")}
    ok_flag, bad = verify_ideal_equality(four_vars, back, 2)
    assert not ok_flag and bad == T4("x^2*y*z*t")
    closed = reachable_backward(generalized_graph(four_vars), seed)
    ok_flag, bad = verify_ideal_equality(four_vars, closed, 3)
    assert ok_flag and bad is None
    assert closed == back | {T4("y*z*t")}
    ok(8, "one-step reach misses a generator; generalized reach certifies")


def test_criterion_09_oracle_equivalence_suite():
    checked = truncated = 0
    for div in enumerate_divisions(3, 2):
        g = generalized_graph(div)
        terms = div.support
        for r in range(len(terms) + 1):
            for seed in combinations(terms, r):
                comp = set(compliant_closure(div, seed).closure)
                assert comp == brute_compliant(div, seed)
                assert comp == reachable_backward(g, seed)
                rev = set(revenant_closure(div, seed).closure)
                assert rev == reachable_forward(g, seed)

                res = ideal_from_seed(div, seed)
                assert res.certified, (div.mult, seed)
                esc = escalier_from_seed(div, seed)
                assert esc.certified, (div.mult, seed)
                checked += 1

                added = comp - set(seed)
                if added:
                    cut = comp - {sorted(added)[-1]}
                    assert not verify_ideal_equality(div, cut, 3)[0]
                    truncated += 1
                added = rev - set(seed)
                if added:
                    cut = rev - {sorted(added)[-1]}
                    assert not verify_order_ideal(div, cut, 3)[0]
                    truncated += 1
    assert checked == 42 * 64
    assert truncated > 0
    ok(9, f"closures = brute force = graph reach on {checked} division/seed pairs; "
          f"{truncated} truncations all refused")


def test_criterion_10_detection():
    rng = random.Random(1105)
    cases = [(n, d) for n in range(2, 5) for d in range(1, 4)]
    for _ in range(20):
        n, d = rng.choice(cases)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        div = pommaret_on_slice(n, d, tuple(order))
        got = detect_pommaret(div)
        assert got is not None
        assert pommaret_on_slice(n, d, got).mult == div.mult

    strange = make_division(3, 2, {
        "x^2": "x", "x*y": "x,y,z", "y^2": "y",
        "x*z": "x,z", "y*z": "y", "z^2": "y,z"})
    assert detect_pommaret(strange) is None

    for div in enumerate_divisions(3, 2):
        sets = sorted(div.mult.values(), key=lambda m: (len(m), sorted(m)))
        chain = all(a <= b for a, b in zip(sets, sets[1:]))
        assert (detect_pommaret(div) is not None) == chain
    ok(10, "triangular detection: 20 relabelled round-trips, none elsewhere")


def test_criterion_11_borel():
    closure = [term(s) for s in ("x*y", "y^2", "y*z", "z^2")]
    assert not is_borel_fixed_slice(closure, 3)
    for n, d in ((2, 2), (3, 2), (4, 3)):
        assert is_borel_fixed_slice(enumerate_terms(n, d), n)
    ok(11, "exchange-stability: closure counterexample refused, full slices pass")


def test_criterion_12_scripted_replay(tmp_path, capsys):
    script = tmp_path / "choices.txt"
    script.write_text(
        "x*y = x,y,z\nx*z = x,z\nz^2 = y,z\ny^2 = y\ny*z = y\n")
    assert main(["build", "3", "2", "--script", str(script)]) == 0
    out = capsys.readouterr().out
    final = make_division(3, 2, {
        "x^2": "x", "x*y": "x,y,z", "y^2": "y",
        "x*z": "x,z", "y*z": "y", "z^2": "y,z"})
    assert out == final.to_json() + "\n"

    twice = tmp_path / "twice.txt"
    twice.write_text("x*y = x,y,z\nz^2 = x,y,z\n")
    assert main(["build", "3", "2", "--script", str(twice)]) == 1
    assert "conflict" in capsys.readouterr().err
    ok(12, "scripted replay reproduces the six-row table byte-exactly")