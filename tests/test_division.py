from __future__ import annotations

import copy
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conedec.division
from conedec import (
    NoInvolutiveDivisorError,
    InvalidDivisionError,
    RelDivision,
    ValidationReport,
    detect_pommaret,
    enumerate_terms,
    parse_term,
    pommaret_on_slice,
    pommaret_general,
    sigma_expected,
    term_lcm,
)
from conedec.division import MAX_VARS

from conftest import make_division, term


def test_constructor_rejects_partial_slice():
    with pytest.raises(ValueError):
        make_division(3, 2, {"x^2": "x", "x*y": "x,y"})


def test_constructor_rejects_duplicate_and_bad_vars():
    with pytest.raises(ValueError):
        RelDivision.general(2, {(1, 0): frozenset({3})})


def test_multiplicative_set_lookup(pommaret32):
    assert pommaret32.multiplicative_set(term("y*z")) == frozenset({1, 2})
    assert pommaret32.nonmultiplicative_set(term("y*z")) == frozenset({3})
    with pytest.raises(LookupError):
        pommaret32.multiplicative_set(term("x^3"))


def test_cone_contains(pommaret32):
    assert pommaret32.cone_contains(term("x*y"), term("x^2*y"))
    assert not pommaret32.cone_contains(term("x*y"), term("x*y*z"))
    with pytest.raises(LookupError):
        pommaret32.cone_contains(term("x^3"), term("x^3"))
    with pytest.raises(ValueError):
        pommaret32.cone_contains(term("x*y"), (1, 1))


def test_vertex_in_own_cone(pommaret32):
    for u in pommaret32.support:
        assert pommaret32.cone_contains(u, u)


def test_involutive_divisor_unique_scan(pommaret32):
    w = parse_term("x^3*y^2*z", 3)
    owners = [u for u in pommaret32.support if pommaret32.cone_contains(u, w)]
    assert owners == [term("y*z")]
    assert pommaret32.involutive_divisor(w) == term("y*z")
    assert pommaret32.involutive_divisor(term("x")) is None  # degree below the slice


@pytest.mark.parametrize("w", ["abc", (1, 1), [1, 1, 0], (1, 1.0, 0)])
def test_involutive_divisor_checks_the_term_before_the_scan(pommaret32, w):
    # an empty support has no cone to test w against, and still refuses it
    refusal = rf"^bad exponent vector {re.escape(repr(w))} for n=3$"
    for div in (pommaret32, RelDivision.general(3, {})):
        with pytest.raises(ValueError, match=refusal):
            div.involutive_divisor(w)
    with pytest.raises(ValueError, match=refusal):  # the same check as cone membership
        pommaret32.cone_contains(term("x*y"), w)
    assert RelDivision.general(3, {}).involutive_divisor((1, 1, 0)) is None


def test_x_of(pommaret32, ideal33):
    assert pommaret32.x_of(term("x*y"), term("z^2")) == term("z^2")
    a, b = parse_term("y*z^2", 3), parse_term("z^3", 3)
    assert ideal33.x_of(a, b) == b
    assert term_lcm(a, b) == parse_term("y*z^3", 3)


def test_x_of_peak_absorbs(pommaret32):
    peak = pommaret32.peak()
    for u in pommaret32.support:
        assert pommaret32.x_of(u, peak) == peak


def test_x_of_errors():
    # x*y escapes both cones, so the lcm has no involutive divisor
    div = make_division(2, None, {"x": "x", "y": "y"})
    with pytest.raises(NoInvolutiveDivisorError):
        div.x_of((1, 0), (0, 1))


def test_x_of_requires_support(pommaret32):
    with pytest.raises(LookupError):
        pommaret32.x_of(term("x^2"), term("x^3"))


def test_validate_pommaret_slices():
    for n in range(1, 5):
        for d in range(1, 4):
            rep = pommaret_on_slice(n, d).validate()
            assert rep.valid and not rep.violations


def test_validate_uncovering(uncovering31):
    rep = uncovering31.validate()
    assert not rep.valid
    assert {v["kind"] for v in rep.violations} == {"profile-mismatch", "no-peak"}
    mism = [v for v in rep.violations if v["kind"] == "profile-mismatch"][0]
    assert mism["observed"] == [0, 3, 0]
    assert mism["expected"] == [1, 1, 1]


def test_validate_overlap_general():
    div = pommaret_general([(1,), (2,)], 1)  # x and x^2 in one variable
    rep = div.validate()
    assert not rep.valid
    assert [v["kind"] for v in rep.violations] == ["overlap"]
    v = rep.violations[0]
    assert v["witness"] == "x^2"
    assert "coverage unverified here" in rep.notes


def test_validate_general_disjoint_has_note():
    div = pommaret_general([parse_term("x1", 3), parse_term("x2", 3)], 3)
    rep = div.validate()
    assert rep.valid
    assert rep.notes == ["coverage unverified here"]


def test_is_valid_stops_at_the_first_violation(monkeypatch):
    # every term of the (3,6) slice keeps all variables: all 378 pairs overlap
    full = frozenset({1, 2, 3})
    div = RelDivision.on_slice(3, 6, {t: full for t in enumerate_terms(3, 6)})
    calls = []
    monkeypatch.setattr(conedec.division, "term_lcm",
                        lambda u, v: calls.append((u, v)) or term_lcm(u, v))
    assert not div.is_valid
    assert len(calls) <= 1
    report = div.validate()
    assert sum(v["kind"] == "overlap" for v in report.violations) == 378


def test_report_validity_follows_its_violations(pommaret32):
    ok = ValidationReport([], ["coverage unverified here"])
    bad = ValidationReport([{"kind": "no-peak"}])
    assert ok.valid and not bad.valid
    assert ok.merged(ok).valid and not ok.merged(bad).valid and not bad.merged(ok).valid
    assert ok.merged(bad).to_json_dict() == {
        "valid": False, "violations": [{"kind": "no-peak"}], "notes": ["coverage unverified here"]}
    assert not hasattr(pommaret32, "_valid")


def test_peak(pommaret32, uncovering31):
    assert pommaret32.peak() == term("z^2")
    with pytest.raises(InvalidDivisionError, match="no peak"):
        uncovering31.peak()
    two_peaks = make_division(2, 1, {"x": "x,y", "y": "x,y"})
    with pytest.raises(InvalidDivisionError, match="multiple peaks"):
        two_peaks.peak()


def test_sigma_profile(pommaret32, four_vars):
    assert pommaret32.sigma_profile() == sigma_expected(3, 2) == (3, 2, 1)
    assert four_vars.sigma_profile() == sigma_expected(4, 3) == (10, 6, 3, 1)


def test_unique_cover_on_valid_slices(pommaret32, facile, strange32, four_vars):
    # every term up to three degrees above the slice lies in exactly one cone
    for div in (pommaret32, facile, strange32):
        for d in range(2, 6):
            for w in enumerate_terms(3, d):
                assert sum(div.cone_contains(u, w) for u in div.support) == 1
    for d in range(3, 5):
        for w in enumerate_terms(4, d):
            assert sum(four_vars.cone_contains(u, w) for u in four_vars.support) == 1


def test_json_roundtrip_bytes(pommaret32, four_vars, facile):
    for div in (pommaret32, four_vars, facile):
        text = div.to_json()
        again = RelDivision.from_json(text)
        assert again == div
        assert again.to_json() == text


@st.composite
def divisions(draw):
    """A full slice or a general term set, with arbitrary multiplicative sets."""
    n = draw(st.integers(1, 6))
    subsets = st.frozensets(st.integers(1, n))
    if draw(st.booleans()):
        d = draw(st.integers(0, 3))
        return RelDivision.on_slice(n, d, {t: draw(subsets) for t in enumerate_terms(n, d)})
    terms = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), unique=True, max_size=8))
    return RelDivision.general(n, {t: draw(subsets) for t in terms})


@settings(max_examples=200, deadline=None)
@given(divisions())
def test_json_roundtrip_fuzzed(div):
    text = div.to_json()
    again = RelDivision.from_json(text)
    assert again == div
    assert again.to_json() == text


@st.composite
def constructor_inputs(draw):
    """Arguments of RelDivision where the count, the degree and the variable
    indices may be bools, floats or out of range: a full slice for the int
    part of the degree, or a set of terms of the count's int part."""
    def number(lo, hi):
        return st.integers(lo, hi) | st.booleans() | st.sampled_from([1.0, 2.0])

    n, d = draw(number(-1, 4)), draw(st.none() | number(-1, 3))
    k = max(int(n), 1)
    terms = (enumerate_terms(k, max(int(d), 0)) if d is not None else
             draw(st.lists(st.tuples(*[st.integers(0, 3)] * k), unique=True, max_size=6)))
    index = st.integers(1, k) | number(0, k + 1)  # mostly valid
    mult = {t: draw(st.frozensets(index, max_size=k)) for t in terms}
    return n, d, tuple(mult), mult


@settings(max_examples=300, deadline=None)
@given(constructor_inputs())
def test_every_accepted_division_reads_back_from_its_json(args):
    try:
        div = RelDivision(*args)
    except ValueError:
        return
    assert RelDivision.from_json(div.to_json()) == div


def test_json_accepts_exponent_array_keys(pommaret32):
    data = pommaret32.to_json_dict()
    data["multiplicative"] = {
        str(list(parse_term(k, 3))): v for k, v in data["multiplicative"].items()
    }
    assert RelDivision.from_json_dict(data) == pommaret32


def test_json_degree_null_for_general():
    div = pommaret_general([(1, 0)], 2)
    data = div.to_json_dict()
    assert data["degree"] is None
    assert RelDivision.from_json_dict(data) == div


def test_json_bad_input_rejected():
    with pytest.raises(ValueError):
        RelDivision.from_json('{"n": 2}')
    with pytest.raises(ValueError):
        RelDivision.from_json(
            '{"n": 2, "degree": 1, "variables": ["u", "v"], "multiplicative": {"x": ["x"]}}')


def test_json_variable_count_is_capped():
    at_cap = pommaret_general([(1,) + (0,) * (MAX_VARS - 1)], MAX_VARS)
    assert RelDivision.from_json(at_cap.to_json()) == at_cap
    with pytest.raises(ValueError, match="variable count"):
        RelDivision.from_json_dict(
            {"n": MAX_VARS + 1, "degree": None, "multiplicative": {"x1": ["x1"]}})


def test_permuted_swap(pommaret32):
    swapped = pommaret32.permuted((3, 2, 1))
    assert swapped.multiplicative_set(term("z^2")) == frozenset({3})
    assert swapped.multiplicative_set(term("x^2")) == frozenset({1, 2, 3})
    assert swapped.permuted((3, 2, 1)) == pommaret32


@pytest.mark.parametrize("pi", [(1, 1, 2), (1, 2), (1, 2, 3, 4), (0, 1, 2)])
def test_permuted_rejects_a_non_permutation(pommaret32, pi):
    with pytest.raises(ValueError, match="not a permutation"):
        pommaret32.permuted(pi)


def test_make_division_rejects_a_repeated_row():
    with pytest.raises(ValueError, match="duplicate term 'y\\*x'"):
        make_division(2, 2, {"x^2": "x", "x*y": "x", "y*x": "x,y", "y^2": "x,y"})


def test_mult_is_read_only(pommaret32):
    t = term("x^2")
    assert pommaret32.is_valid and pommaret32.involutive_divisor(t) == t
    with pytest.raises(TypeError):
        pommaret32.mult[t] = frozenset({1, 2, 3})
    with pytest.raises(TypeError):
        del pommaret32.mult[t]
    with pytest.raises(AttributeError):
        pommaret32.mult = {}
    rows = dict(pommaret32.mult)
    assert rows[t] == frozenset({1})
    assert pommaret32 == pommaret_on_slice(3, 2) == RelDivision.on_slice(3, 2, rows)
    assert RelDivision.from_json(pommaret32.to_json()) == pommaret32
    assert pommaret32.permuted((3, 2, 1)).permuted((3, 2, 1)) == pommaret32
    assert detect_pommaret(pommaret32) == (1, 2, 3)
    assert pickle.loads(pickle.dumps(pommaret32)) == copy.deepcopy(pommaret32) == pommaret32


def test_constructor_takes_no_cache_argument(pommaret32):
    with pytest.raises(TypeError):
        RelDivision(3, 2, pommaret32.support, dict(pommaret32.mult), {})


def test_involutive_divisor_leaves_the_instance_unchanged(pommaret32):
    before = repr(vars(pommaret32))
    for d in (2, 3):
        for w in enumerate_terms(3, d):
            pommaret32.involutive_divisor(w)
    assert repr(vars(pommaret32)) == before


def test_division_copies_the_callers_mapping():
    rows = {(1, 0): frozenset({1}), (0, 1): frozenset({1, 2})}
    div = RelDivision.on_slice(2, 1, rows)
    rows[(1, 0)] = frozenset({1, 2})
    assert div.mult[(1, 0)] == frozenset({1})
    assert div.is_valid
