from __future__ import annotations

import random
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedec import (
    InvalidDivisionError,
    detect_pommaret,
    enumerate_divisions,
    enumerate_terms,
    janet_general,
    janet_on_slice,
    orbit_size,
    parse_term,
    pommaret_general,
    pommaret_on_slice,
)

from conftest import serialize, term


def test_pommaret_32_table(pommaret32):
    rows = {
        "x^2": {1}, "x*y": {1}, "y^2": {1, 2},
        "x*z": {1}, "y*z": {1, 2}, "z^2": {1, 2, 3},
    }
    for key, want in rows.items():
        assert pommaret32.multiplicative_set(term(key)) == frozenset(want)


def test_pommaret_reordered():
    div = pommaret_on_slice(3, 2, (3, 2, 1))
    assert div.multiplicative_set(term("z^2")) == frozenset({3})
    assert div.multiplicative_set(term("x^2")) == frozenset({1, 2, 3})
    assert div.validate().valid
    assert div == pommaret_on_slice(3, 2).permuted((3, 2, 1))


def test_pommaret_rejects_bad_order():
    with pytest.raises(ValueError):
        pommaret_on_slice(3, 2, (1, 1, 2))


def test_pommaret_general_rule():
    # for a pure power of the last variable everything is multiplicative
    u = [parse_term(s, 3) for s in ("x^2", "x*y", "z^3")]
    div = pommaret_general(u, 3)
    assert div.multiplicative_set(parse_term("z^3", 3)) == frozenset({1, 2, 3})
    assert div.multiplicative_set(parse_term("x*y", 3)) == frozenset({1})
    assert div.degree is None


def test_pommaret_general_constant_term():
    div = pommaret_general([(0, 0)], 2)
    assert div.multiplicative_set((0, 0)) == frozenset({1, 2})
    assert div.validate().valid


def test_janet_vs_pommaret_on_general_set():
    u = [parse_term(s, 3) for s in ("x^2", "x*y", "z^3")]
    janet = janet_general(u, 3)
    pom = pommaret_general(u, 3)
    assert janet.multiplicative_set(term("x*y")) == frozenset({1, 2})
    assert pom.multiplicative_set(term("x*y")) == frozenset({1})
    assert janet.multiplicative_set(term("x^2")) == frozenset({1})
    assert janet.multiplicative_set(parse_term("z^3", 3)) == frozenset({1, 2, 3})


def _janet_by_pairs(ts, n):
    """Janet's rule as stated, one comparison per pair of terms."""
    return {t: frozenset(j for j in range(1, n + 1) if not any(
        s[j:] == t[j:] and s[j - 1] > t[j - 1] for s in ts if s != t)) for t in ts}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[st.integers(0, 3)] * n), max_size=12))))
def test_janet_matches_the_pairwise_rule(case):
    n, ts = case
    assert janet_general(ts, n).mult == _janet_by_pairs(ts, n)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("d", range(1, 5))
def test_janet_equals_pommaret_on_slices(n, d):
    assert janet_general(enumerate_terms(n, d), n).mult == pommaret_on_slice(n, d).mult
    assert janet_on_slice(n, d) == pommaret_on_slice(n, d)


def test_detect_identity(pommaret32):
    assert detect_pommaret(pommaret32) == (1, 2, 3)


def test_detect_relabelled_random_orders():
    rng = random.Random(20240817)
    cases = [(n, d) for n in range(2, 5) for d in range(1, 4)]
    for _ in range(20):
        n, d = rng.choice(cases)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        div = pommaret_on_slice(n, d, tuple(order))
        got = detect_pommaret(div)
        assert got is not None
        assert pommaret_on_slice(n, d, got).mult == div.mult


def test_detect_rejects_non_chain(strange32):
    assert detect_pommaret(strange32) is None


def test_detect_across_enumeration():
    # chain-shaped multiplicative sets are exactly the relabelled triangular ones
    for n, d in ((2, 3), (3, 2), (3, 3)):
        for div in enumerate_divisions(n, d):
            sets = sorted(div.mult.values(), key=lambda m: (len(m), sorted(m)))
            chain = all(a <= b for a, b in zip(sets, sets[1:]))
            got = detect_pommaret(div)
            assert (got is not None) == chain
            if got is not None:
                assert pommaret_on_slice(n, d, got).mult == div.mult


@pytest.mark.parametrize("n", range(2, 6))
def test_degree_one_divisions_are_pommaret_under_an_order(n):
    # the n! orders give n! distinct divisions, and those are all there are
    listed = {serialize(div) for div in enumerate_divisions(n, 1)}
    orders = {serialize(pommaret_on_slice(n, 1, pi)) for pi in permutations(range(1, n + 1))}
    assert listed == orders and len(orders) == factorial(n)
    (orbit,) = enumerate_divisions(n, 1, up_to_symmetry=True)
    assert orbit_size(orbit) == factorial(n)


def test_detect_requires_validity(uncovering31):
    with pytest.raises(InvalidDivisionError):
        detect_pommaret(uncovering31)
