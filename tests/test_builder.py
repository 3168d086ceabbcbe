from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conedec import (
    BuildSession,
    ConflictError,
    RelDivision,
    ScriptError,
    parse_script,
    run_script,
    verify_division_covering,
)
from conedec.builder import CELL_FREE, CELL_GROUP, CELL_IN, CELL_OUT

from conftest import make_division, term

FIVE_CHOICES = """
# the sixth term settles itself
x*y = x,y,z
x*z = x,z
z^2 = y,z
y^2 = y
y*z = y
"""

FINAL_TABLE = {
    "x^2": "x", "x*y": "x,y,z", "y^2": "y",
    "x*z": "x,z", "y*z": "y", "z^2": "y,z",
}


def cells(session, key):
    return [session.cell_state(term(key), v) for v in (1, 2, 3)]


def test_seed_table_marks_pure_powers():
    s = BuildSession(3, 2)
    assert cells(s, "x^2") == [CELL_IN, CELL_FREE, CELL_FREE]
    assert cells(s, "y^2") == [CELL_FREE, CELL_IN, CELL_FREE]
    assert cells(s, "z^2") == [CELL_FREE, CELL_FREE, CELL_IN]
    assert cells(s, "x*y") == [CELL_FREE] * 3
    assert not s.complete


def test_first_choice_propagates_as_documented():
    s = BuildSession(3, 2)
    s.assign(term("x*y"), frozenset({1, 2, 3}))
    assert cells(s, "x^2") == [CELL_IN, CELL_OUT, CELL_FREE]
    assert cells(s, "y^2") == [CELL_OUT, CELL_IN, CELL_FREE]
    assert cells(s, "x*z") == [CELL_FREE, CELL_OUT, CELL_FREE]
    assert cells(s, "y*z") == [CELL_OUT, CELL_FREE, CELL_FREE]
    assert cells(s, "z^2") == [CELL_GROUP, CELL_GROUP, CELL_IN]


def test_five_choice_script_completes():
    s = run_script(3, 2, FIVE_CHOICES)
    assert s.complete
    assert len(s.log) == 5
    div = s.division()
    assert div.mult == make_division(3, 2, FINAL_TABLE).mult
    assert div.validate().valid


def test_autofill_only_when_everything_is_settled():
    s = run_script(3, 2, "x*y = x,y,z\nx*z = x,z\nz^2 = y,z\ny^2 = y\n")
    # y*z still has a free slot, so nothing is filled in yet
    assert not s.complete
    assert term("x^2") not in s.state.assigned
    s.assign(term("y*z"), frozenset({2}))
    assert s.complete


def test_conflicting_choice_is_rejected_and_state_kept():
    for n, d, first, bad, rest in [
        (3, 2, "x*y = x,y,z", "z^2 = x,y,z",  # a second peak
         "x*z = x,z\nz^2 = y,z\ny^2 = y\ny*z = y"),
        (2, 3, "x^2*y = x", "x*y^2 = y",  # settles x^3 and y^3 beyond the budget
         "x*y^2 = x,y"),
    ]:
        s = BuildSession(n, d)
        for t, m in parse_script(first, n):
            s.assign(t, m)
        before, table = s.state, s.table()
        [(t, m)] = parse_script(bad, n)
        with pytest.raises(ConflictError):
            s.assign(t, m)
        assert s.state is before
        assert len(s.log) == 1 and s.table() == table
        for t, m in parse_script(rest, n):
            s.assign(t, m)
        assert s.complete and s.division().validate().valid


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 3), (2, 4), (3, 3)]), st.randoms(use_true_random=False))
def test_a_rejected_choice_changes_nothing(slice_, rng):
    """Random choices, assigned terms and conflicting sets included: every
    ConflictError leaves the state, the log and the table as they were."""
    n, d = slice_
    subsets = [frozenset(c) for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]
    session = BuildSession(n, d)
    for _ in range(4 * len(session.state.support)):
        if session.complete:
            break
        before, log, table = session.state, list(session.log), session.table()
        try:
            session.assign(rng.choice(session.state.support), rng.choice(subsets))
        except ConflictError:
            assert session.state is before
            assert session.log == log and session.table() == table


def test_double_assignment_conflicts():
    s = BuildSession(3, 2)
    s.assign(term("x*y"), frozenset({1, 2, 3}))
    with pytest.raises(ConflictError):
        s.assign(term("x*y"), frozenset({1, 2, 3}))


def test_division_before_completion_fails():
    s = BuildSession(3, 2)
    with pytest.raises(ConflictError):
        s.division()


def test_render_plain_and_colored():
    s = BuildSession(3, 2)
    s.assign(term("x*y"), frozenset({1, 2, 3}))
    plain = s.render(color=False)
    lines = plain.splitlines()
    assert lines[0] == "x^2  x × ?  (open)"
    assert lines[1] == "x*y  x y z"
    assert lines[5] == "z^2  / / z  (open)"
    colored = s.render(color=True)
    assert "\x1b[32m" in colored and "\x1b[31m" in colored
    assert "\x1b" not in plain


def test_parse_script_errors():
    with pytest.raises(ScriptError, match="line 2"):
        parse_script("x*y = x\nbogus line\n", 3)
    with pytest.raises(ScriptError, match="line 1"):
        parse_script("q^2 = x\n", 3)
    assert parse_script("# nothing\n\n", 3) == []


def test_script_term_outside_the_slice_names_its_line():
    with pytest.raises(ScriptError, match="line 3: term x\\^3 not in the support"):
        run_script(3, 2, "x*y = x,y,z\n\nx^3 = x\n")


def test_script_replay_matches_interactive_steps():
    script_session = run_script(3, 2, FIVE_CHOICES)
    manual = BuildSession(3, 2)
    for t, m in parse_script(FIVE_CHOICES, 3):
        manual.assign(t, m)
    assert manual.state.assigned == script_session.state.assigned


def test_one_variable_session_autofills_immediately():
    s = BuildSession(1, 3)
    assert s.complete
    assert s.division().mult == {(3,): frozenset({1})}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (3, 3)]), st.randoms(use_true_random=False), st.data())
def test_completed_walks_are_valid_and_mutations_are_not(slice_, rng, data):
    """A random session that completes gives a division that validate() and
    the covering oracle both accept; changing one row makes both reject it."""
    n, d = slice_
    session = BuildSession(n, d)
    while not session.complete:
        t = rng.choice(session.state.unassigned())
        options = session.state.candidates(t)
        rng.shuffle(options)
        for m in options:
            try:
                session.assign(t, m)
                break
            except ConflictError:
                continue
        else:
            break
    assume(session.complete)
    div = session.division()
    assert div.validate().valid
    assert verify_division_covering(div, 2).valid
    t = data.draw(st.sampled_from(div.support))
    subsets = [frozenset(c) for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]
    m = data.draw(st.sampled_from([s for s in subsets if s != div.mult[t]]))
    mutant = RelDivision.on_slice(n, d, {**div.mult, t: m})
    assert not mutant.validate().valid
    assert not verify_division_covering(mutant, 2).valid
