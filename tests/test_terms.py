from __future__ import annotations

import re
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conedec import (
    BuildSession,
    RelDivision,
    brute_compliant,
    compliant_closure,
    enumerate_divisions,
    graph_from_edge_list,
    is_borel_fixed_slice,
    janet_general,
    janet_on_slice,
    pommaret_general,
    pommaret_on_slice,
    reachable_backward,
    reachable_forward,
    revenant_closure,
    seed_constraints,
    ufnarovsky_graph,
    verify_ideal_equality,
    verify_order_ideal,
)
from conedec import terms as T
from conedec.oracle import walk_degrees


def test_deglex_order_32():
    got = [T.format_term(t) for t in T.enumerate_terms(3, 2)]
    assert got == ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]


def test_deglex_order_33():
    got = [T.format_term(t) for t in T.enumerate_terms(3, 3)]
    assert got == ["x^3", "x^2*y", "x*y^2", "y^3", "x^2*z",
                   "x*y*z", "y^2*z", "x*z^2", "y*z^2", "z^3"]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(0, 6))
def test_slice_size(n, d):
    ts = T.enumerate_terms(n, d)
    assert len(ts) == comb(n + d - 1, n - 1)
    assert len(set(ts)) == len(ts)
    assert all(sum(t) == d for t in ts)
    assert ts == sorted(ts, key=T.deglex_key)


def _slice_by_sorting(n, d):
    """The degree-d slice built independently: each multiset of d variables
    counted into an exponent vector, then sorted by deglex_key."""
    out = []
    for picks in combinations_with_replacement(range(n), d):
        t = [0] * n
        for i in picks:
            t[i] += 1
        out.append(tuple(t))
    return sorted(out, key=T.deglex_key)


@pytest.mark.parametrize("n,d", [(1, 0), (1, 5), (3, 0), (3, 2), (6, 4), (62, 2), (64, 2),
                                 (2, 1999), (3, 61)])
def test_slice_built_in_deglex_order(n, d):
    assert T.enumerate_terms(n, d) == _slice_by_sorting(n, d)


@given(st.integers(1, 4), st.integers(0, 5))
def test_slice_is_the_filtered_product(n, d):
    want = [t for t in product(range(d + 1), repeat=n) if sum(t) == d]
    assert T.enumerate_terms(n, d) == sorted(want, key=T.deglex_key)


terms2 = st.tuples(*([st.integers(min_value=0, max_value=6)] * 4))


@given(terms2, terms2)
def test_lcm_gcd_factorization(a, b):
    lcm, gcd = T.term_lcm(a, b), T.term_gcd(a, b)
    assert tuple(x + y for x, y in zip(lcm, gcd)) == tuple(x + y for x, y in zip(a, b))
    assert T.term_divides(gcd, a)
    assert T.term_divides(a, lcm)


@given(terms2, terms2)
def test_divides_div_roundtrip(a, b):
    m = tuple(x + y for x, y in zip(a, b))
    assert T.term_divides(a, m)
    assert T.term_div(m, a) == b


def test_div_requires_divisibility():
    with pytest.raises(ValueError, match="does not divide"):
        T.term_div((1, 0), (0, 1))


@given(st.lists(st.integers(0, 6), max_size=4).map(tuple),
       st.lists(st.integers(0, 6), max_size=4).map(tuple))
def test_lcm_is_the_componentwise_max(a, b):
    if len(a) == len(b):
        assert T.term_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
    else:
        with pytest.raises(ValueError, match=r"^terms \(.*\) and \(.*\) differ in length$"):
            T.term_lcm(a, b)


def test_mixed_lengths_rejected():
    with pytest.raises(ValueError):
        T.term_lcm((1, 0), (1, 0, 0))


@pytest.mark.parametrize("kernel", [T.term_divides, T.term_div, T.term_lcm, T.term_gcd],
                         ids=["divides", "div", "lcm", "gcd"])
@pytest.mark.parametrize("a,b", [((5, 0), (1, 0, 0)), ((1, 0, 0), (5, 0)),
                                 ((1, 0), (1, 0, 0)), ((1, 0, 0), (1, 0))],
                         ids=["settled-early", "settled-early-swapped", "prefix",
                              "prefix-swapped"])
def test_every_kernel_rejects_mixed_lengths(kernel, a, b):
    # (5, 0) against (1, 0, 0) settles divisibility at the first exponent;
    # the length mismatch must still raise
    with pytest.raises(ValueError):
        kernel(a, b)


def test_support_min_max():
    t = T.parse_term("y^2*z", 3)
    assert T.support(t) == frozenset({2, 3})


def test_gcd_example():
    a = T.parse_term("x^2*z", 4)
    b = T.parse_term("y*z*t", 4)
    assert T.format_term(T.term_gcd(a, b)) == "z"


def test_sigma_expected_values():
    assert T.sigma_expected(3, 2) == (3, 2, 1)
    assert T.sigma_expected(4, 3) == (10, 6, 3, 1)
    assert sum(T.sigma_expected(4, 3)) == 20
    assert T.sigma_expected(3, 1) == (1, 1, 1)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("d", range(1, 7))
def test_sigma_sums_to_slice_size(n, d):
    assert sum(T.sigma_expected(n, d)) == comb(n + d - 1, n - 1)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("d", range(1, 7))
def test_vandermonde_grid(n, d):
    assert T.vandermonde_identity_check(n, d, 12)


def test_vandermonde_refuses_nothing_silently():
    # a perturbed profile breaks the identity; the checker notices
    profile = list(T.sigma_expected(3, 2))
    profile[0] += 1
    total = sum(a * comb(1 + k - 1, k - 1) for k, a in enumerate(profile, 1))
    assert total != comb(2 + 1 + 3 - 1, 3 - 1)


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, 12), min_size=n, max_size=n))))
def test_format_parse_roundtrip(nt):
    n, exps = nt
    t = tuple(exps)
    assert T.parse_term(T.format_term(t), n) == t


@given(st.integers(1, 12), st.text("xyzt0123456789^*[], -", max_size=16))
def test_parse_fuzzed_text_rejects_or_roundtrips(n, text):
    try:
        t = T.parse_term(text, n)
    except ValueError:
        return
    assert len(t) == n and all(e >= 0 for e in t)
    assert T.parse_term(T.format_term(t), n) == t


def test_parse_variants():
    assert T.parse_term("x^2*y", 3) == (2, 1, 0)
    assert T.parse_term("x^2y", 3) == (2, 1, 0)
    assert T.parse_term("yzt", 4) == (0, 1, 1, 1)
    assert T.parse_term("x2^3", 5) == (0, 3, 0, 0, 0)
    assert T.parse_term("[2,1,0]", 3) == (2, 1, 0)
    assert T.parse_term("1", 3) == (0, 0, 0)
    assert T.parse_term("x*x", 2) == (2, 0)


def test_parse_rejects_garbage():
    for bad in ("", "q", "x^", "[1,2]", "x5"):
        with pytest.raises(ValueError):
            T.parse_term(bad, 3)


def test_var_names():
    assert T.var_names(4) == ["x", "y", "z", "t"]
    assert T.var_names(5) == ["x1", "x2", "x3", "x4", "x5"]
    assert T.format_term((0, 0, 0, 0, 2)) == "x5^2"
    assert T.parse_term("x5^2", 5) == (0, 0, 0, 0, 2)


def test_degree_zero_term():
    assert T.format_term((0, 0, 0)) == "1"
    assert T.format_term(()) == "1"
    assert T.enumerate_terms(3, 0) == [(0, 0, 0)]


@pytest.mark.parametrize("n, d", [(3, 2), (5, 2), (6, 1)])
def test_format_term_reads_the_count_off_the_term(n, d):
    names = T.var_names(n)  # format_term must read n off len(t)
    for t in T.enumerate_terms(n, d):
        want = "*".join(names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(t) if e)
        assert T.format_term(t) == want


def _assigned(session, t):
    session.assign(t, {1})
    return session.state, session.log


# lookups on the Pommaret (3,2) division, its slice and its graph, each given t
# where a support term of the slice is looked up
LOOKUPS = {
    "cone_contains": lambda div, t: div.cone_contains(t, (1, 1, 0)),
    "multiplicative_set": lambda div, t: div.multiplicative_set(t),
    "nonmultiplicative_set": lambda div, t: div.nonmultiplicative_set(t),
    "x_of": lambda div, t: div.x_of(t, (1, 1, 0)),
    "PartialAssignment.assign": lambda div, t: seed_constraints(3, 2).assign(t, {1}),
    "PartialAssignment.candidates": lambda div, t: seed_constraints(3, 2).candidates(t),
    "BuildSession.assign": lambda div, t: _assigned(BuildSession(3, 2), t),
    "BuildSession.cell_state": lambda div, t: BuildSession(3, 2).cell_state(t, 1),
    "brute_compliant": lambda div, t: brute_compliant(div, [t]),
    "verify_ideal_equality": lambda div, t: verify_ideal_equality(div, [t], 1),
    "verify_order_ideal": lambda div, t: verify_order_ideal(div, [t], 1),
    "compliant_closure": lambda div, t: compliant_closure(div, [t]),
    "revenant_closure": lambda div, t: revenant_closure(div, [t]),
    "reachable_forward": lambda div, t: reachable_forward(ufnarovsky_graph(div), [t]),
    "reachable_backward": lambda div, t: reachable_backward(ufnarovsky_graph(div), [t]),
}
WRONG_LENGTH = [(0, 0, 1, 1), ()]


@pytest.mark.parametrize("t", WRONG_LENGTH, ids=["four-vars", "empty"])
@pytest.mark.parametrize("lookup", LOOKUPS.values(), ids=LOOKUPS.keys())
def test_a_wrong_length_term_is_named_in_a_lookup_error(lookup, t):
    with pytest.raises(LookupError, match=rf"^term {re.escape(T.format_term(t))} not in "):
        lookup(pommaret_on_slice(3, 2), t)


@pytest.mark.parametrize("lookup", LOOKUPS.values(), ids=LOOKUPS.keys())
def test_an_absent_term_is_named_in_a_lookup_error(lookup):
    with pytest.raises(LookupError, match=r"^term z\^3 not in the support$"):
        lookup(pommaret_on_slice(3, 2), (0, 0, 3))


@pytest.mark.parametrize("lookup", LOOKUPS.values(), ids=LOOKUPS.keys())
def test_a_list_term_is_looked_up_as_its_tuple(lookup):
    # equal answers; BuildSession's log compares equal only if it holds the tuple
    div = pommaret_on_slice(3, 2)
    assert lookup(div, [1, 1, 0]) == lookup(div, (1, 1, 0))


@pytest.mark.parametrize("t", [(1.0, 1, 0), [True, 1, 0]], ids=["float", "bool"])
def test_a_session_refuses_a_term_that_only_compares_equal(t):
    # the other lookups find x*y for these, but a session stores its term
    # in its log and state, and a search state in its assigned sets, where
    # no later division could read it
    for name in ("BuildSession.assign", "PartialAssignment.assign"):
        with pytest.raises(LookupError, match=rf"^term {re.escape(repr(t))} not in the support$"):
            LOOKUPS[name](pommaret_on_slice(3, 2), t)


@pytest.mark.parametrize("t", [[1.5, 1, 0], (-1, 2, 1), "xy", 5, None, [[1], 1, 0]])
def test_what_is_not_a_term_is_named_as_given(t):
    with pytest.raises(LookupError, match=rf"^term {re.escape(repr(t))} not in the support$"):
        T.support_key(t, {(1, 1, 0): 0, (0, 2, 1): 1})


@pytest.mark.parametrize("call", [
    lambda: RelDivision.general(2, {(1.5, 0): {1, 2}}),
    lambda: RelDivision.general(2, {(True, 0): {1, 2}}),
    lambda: graph_from_edge_list(3, [(1, 1)], []),
    lambda: is_borel_fixed_slice([(1, 1)], 3),
    lambda: is_borel_fixed_slice([(1, 1, 0, 0)], 3),
    lambda: janet_general([(1, 1)], 3),
    lambda: pommaret_general([(0, 0, 1)], 2),
    lambda: T.parse_term("[1, 2]", 3),
    lambda: T.parse_term("[true, 1, 0]", 3),
], ids=["float", "bool", "short-node", "short-borel", "long-borel", "short-janet",
        "long-pommaret", "short-array", "bool-array"])
def test_every_term_input_has_one_shape_check(call):
    with pytest.raises(ValueError, match=r"^bad exponent vector \("):
        call()


@pytest.mark.parametrize("t", WRONG_LENGTH, ids=["four-vars", "empty"])
def test_a_wrong_length_self_loop_is_named(t):
    with pytest.raises(ValueError, match=rf"^self loop at {re.escape(T.format_term(t))}$"):
        graph_from_edge_list(3, [(1, 1, 0)], [(t, t)])


# Every public entry point that takes a variable count, a degree, a variable,
# a variable set or a variable order, each called with one value of that kind
# where a valid one goes.  Each kind has one check in terms.py, and a bad value
# of it raises that check's ValueError wherever it enters.
SLICE21 = {(1, 0): {1}, (0, 1): {1, 2}}  # a full (2,1) slice, valid

COUNT_TAKERS = {
    "RelDivision": lambda n: RelDivision(n, None, ((1,),), {(1,): {1}}),
    "RelDivision.on_slice": lambda n: RelDivision.on_slice(n, 1, {(1,): {1}}),
    "RelDivision.general": lambda n: RelDivision.general(n, {(1,): {1}}),
    "from_json_dict": lambda n: RelDivision.from_json_dict({"n": n, "multiplicative": {}}),
    "enumerate_terms": lambda n: T.enumerate_terms(n, 1),
    "sigma_expected": lambda n: T.sigma_expected(n, 1),
    "var_names": T.var_names,
    "seed_constraints": lambda n: seed_constraints(n, 1),
    "BuildSession": lambda n: BuildSession(n, 1),
    "enumerate_divisions": lambda n: next(enumerate_divisions(n, 1)),
    "pommaret_on_slice": lambda n: pommaret_on_slice(n, 1),
    "janet_on_slice": lambda n: janet_on_slice(n, 1),
    "pommaret_general": lambda n: pommaret_general([(1,)], n),
    "janet_general": lambda n: janet_general([(1,)], n),
    "graph_from_edge_list": lambda n: graph_from_edge_list(n, [(1,)], []),
    "is_borel_fixed_slice": lambda n: is_borel_fixed_slice([(1,)], n),
    "vandermonde_identity_check": lambda n: T.vandermonde_identity_check(n, 1, 2),
    "parse_term": lambda n: T.parse_term("1", n),
}
DEGREE_TAKERS = {
    "RelDivision": lambda d: RelDivision(2, d, tuple(SLICE21), SLICE21),
    "RelDivision.on_slice": lambda d: RelDivision.on_slice(2, d, SLICE21),
    "from_json_dict": lambda d: RelDivision.from_json_dict(
        {"n": 2, "degree": d, "multiplicative": {"x": ["x"], "y": ["x", "y"]}}),
    "enumerate_terms": lambda d: T.enumerate_terms(2, d),
    "sigma_expected": lambda d: T.sigma_expected(2, d),
    "seed_constraints": lambda d: seed_constraints(2, d),
    "BuildSession": lambda d: BuildSession(2, d),
    "enumerate_divisions": lambda d: next(enumerate_divisions(2, d)),
    "pommaret_on_slice": lambda d: pommaret_on_slice(2, d),
    "janet_on_slice": lambda d: janet_on_slice(2, d),
    "vandermonde_identity_check": lambda d: T.vandermonde_identity_check(2, d, 2),
    "vandermonde_identity_check-d_max": lambda d: T.vandermonde_identity_check(3, 2, d),
    "walk_degrees-margin": lambda d: walk_degrees(pommaret_on_slice(2, 1), d),
}
VARSET_TAKERS = {  # in 2 variables
    "RelDivision": lambda m: RelDivision(2, 1, tuple(SLICE21), {**SLICE21, (1, 0): m}),
    "RelDivision.on_slice": lambda m: RelDivision.on_slice(2, 1, {**SLICE21, (1, 0): m}),
    "RelDivision.general": lambda m: RelDivision.general(2, {(1, 0): m}),
    "PartialAssignment.assign": lambda m: seed_constraints(2, 1).assign((1, 0), m),
    "BuildSession.assign": lambda m: BuildSession(2, 1).assign((1, 0), m),
}
VARIABLE_TAKERS = {  # in 2 variables
    "BuildSession.cell_state": lambda v: BuildSession(2, 1).cell_state((1, 0), v),
}
ORDER_TAKERS = {  # in 2 variables
    "pommaret_on_slice": lambda pi: pommaret_on_slice(2, 1, pi),
    "permuted": lambda pi: pommaret_on_slice(2, 1).permuted(pi),
}
KINDS = {  # kind: (takers, a valid value, bad values by name, the check's message)
    "count": (COUNT_TAKERS, 1, {"bool": True, "float": 1.0, "zero": 0, "negative": -1},
              r"^bad variable count "),
    "degree": (DEGREE_TAKERS, 1, {"bool": True, "float": 1.0, "negative": -1},
               r"^bad degree "),
    "varset": (VARSET_TAKERS, {1}, {"bool": {True}, "float": {1.0}, "zero": {0},
                                    "above-n": {3}, "name": {"x"}, "not-a-set": 1,
                                    "unhashable": [[1]]},
               r"^bad variable set .* for n=2$"),
    "variable": (VARIABLE_TAKERS, 1, {"bool": True, "float": 1.0, "above-n": 7},
                 r"^bad variable set \(.*,\) for n=2$"),
    "order": (ORDER_TAKERS, (2, 1), {"bool": (True, 2), "float": (1.0, 2), "zero": (0, 1),
                                      "above-n": (1, 3), "repeat": (1, 1), "short": (1,)},
              r"^not a permutation of 1\.\.2: "),
}


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{kind}-{name}-{what}")
    for kind, (takers, _, bad, message) in KINDS.items()
    for name, call in takers.items() for what, value in bad.items()])
def test_every_number_input_has_one_check(call, value, message):
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("call, value", [
    pytest.param(call, good, id=f"{kind}-{name}")
    for kind, (takers, good, _, _) in KINDS.items() for name, call in takers.items()])
def test_the_number_table_is_valid_but_for_its_value(call, value):
    call(value)  # each refusal above is the bad value's doing


def test_the_variable_set_of_a_json_file_has_the_same_check():
    for item in (True, 1.0, 0, 3, None, [1]):
        with pytest.raises(ValueError, match=r"^bad variable set \[.*\] for n=2$"):
            RelDivision.from_json_dict({"n": 2, "multiplicative": {"x": [item], "y": []}})


@pytest.mark.parametrize("call, message", [
    (lambda: RelDivision.on_slice(2, True, SLICE21).to_json(), "bad degree True"),
    (lambda: BuildSession(True, 1).division().to_json(), "bad variable count True"),
    (lambda: RelDivision.on_slice(2, -1, {}), "bad degree -1"),
    (lambda: RelDivision.general(2, {(1, 0): {1.0}}).to_json(), "bad variable set {1.0}"),
    (lambda: seed_constraints(2, 1).assign((1, 0), {1.0}), "bad variable set {1.0}"),
    (lambda: pommaret_on_slice(2, 1, (True, 2)), "not a permutation of 1..2: (True, 2)"),
    (lambda: T.vandermonde_identity_check(3, 2, -1), "bad degree -1"),
], ids=["degree-true", "count-true", "degree-negative", "float-division", "float-assign",
        "bool-order", "vandermonde-negative"])
def test_a_value_that_could_not_be_written_back_is_refused_when_it_enters(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
