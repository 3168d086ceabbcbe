from __future__ import annotations

import gc
import sys
from copy import deepcopy
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conedec import (
    BuildSession,
    ConflictError,
    PartialAssignment,
    RelDivision,
    canonical_form,
    enumerate_divisions,
    enumerate_terms,
    orbit_size,
    pommaret_on_slice,
    seed_constraints,
    sigma_expected,
)
from conedec import enumeration
from conedec.enumeration import _hall_fails, _least_form, _paths, _search, _state_key
from conedec.terms import format_term, pure_power, support, term_div, term_gcd, varmask

from conftest import orbit_divisions_32, serialize, term


def nonempty_subsets(n):
    vs = range(1, n + 1)
    return [frozenset(c) for r in range(1, n + 1) for c in combinations(vs, r)]


def brute_force_valid(n, d):
    """Raw search: every assignment of nonempty sets, kept iff validate says so."""
    terms = enumerate_terms(n, d)
    expected = sigma_expected(n, d)
    found = []
    for choice in product(nonempty_subsets(n), repeat=len(terms)):
        sizes = [0] * n
        for m in choice:
            sizes[len(m) - 1] += 1
        if tuple(sizes) != expected:  # validate would reject on the profile
            continue
        div = RelDivision.on_slice(n, d, dict(zip(terms, choice)))
        if div.validate().valid:
            found.append(div)
    return found


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_stream_matches_brute_force(n, d):
    got = {serialize(div) for div in enumerate_divisions(n, d)}
    want = {serialize(div) for div in brute_force_valid(n, d)}
    assert got == want


def single_phase_stream(n, d):
    """Reference: one depth-first search branching on the first open term
    with the most candidates, every option in candidate order."""

    def dfs(pa):
        todo = pa.unassigned()
        if not todo:
            yield RelDivision.on_slice(n, d, dict(pa.assigned))
            return
        best, options = max(((t, pa.candidates(t)) for t in todo),
                            key=lambda pair: len(pair[1]))
        for m in options:
            try:
                nxt = pa.assign(best, m)
            except ConflictError:
                continue
            yield from dfs(nxt)

    return list(dfs(seed_constraints(n, d)))


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 1), (5, 1)])
def test_stream_matches_single_phase_search(n, d):
    want = single_phase_stream(n, d)
    assert [div.to_json() for div in enumerate_divisions(n, d)] == [
        div.to_json() for div in want]
    assert [div.to_json() for div in enumerate_divisions(n, d, up_to_symmetry=True)] == [
        div.to_json() for div in want if canonical_form(div) == serialize(div)]


def test_no_conflict_after_the_first_division(monkeypatch):
    counts = {"assign": 0, "conflicts": 0}
    real_assign = PartialAssignment.assign

    def counting_assign(self, t, m):
        counts["assign"] += 1
        try:
            return real_assign(self, t, m)
        except ConflictError:
            counts["conflicts"] += 1
            raise

    monkeypatch.setattr(PartialAssignment, "assign", counting_assign)
    stream = enumerate_divisions(3, 3)
    next(stream)
    at_first = dict(counts)
    assert sum(1 for _ in stream) == 351
    assert at_first["conflicts"] > 0  # the wrapper sees the fail-first phase
    # each residual state searched once: 3,006 with one search per path to
    # it, 5,886 without Hall's test either
    assert at_first["assign"] <= 1_021
    assert counts["conflicts"] == at_first["conflicts"]
    # each live state of phase 2 searched once too: 3,254 with one search
    # per path to it
    assert counts["assign"] == 2_075


def test_stream_is_deterministic():
    a = [serialize(d) for d in enumerate_divisions(3, 2)]
    b = [serialize(d) for d in enumerate_divisions(3, 2)]
    assert a == b
    assert len(a) == len(set(a))


def test_all_enumerated_are_valid():
    for div in enumerate_divisions(3, 2):
        assert div.validate().valid


def test_profile_is_forced_at_31():
    divisions = list(enumerate_divisions(3, 1))
    assert divisions
    for div in divisions:
        assert div.sigma_profile() == (1, 1, 1)


def test_uncovering_assignment_never_enumerated(uncovering31):
    target = uncovering31.mult
    assert all(div.mult != target for div in enumerate_divisions(3, 1))


@pytest.mark.parametrize("d", range(1, 6))
def test_single_variable(d):
    divisions = list(enumerate_divisions(1, d))
    assert len(divisions) == 1
    assert divisions[0].mult == {(d,): frozenset({1})}


def test_22_counts():
    assert len(list(enumerate_divisions(2, 2))) == 3
    reps = list(enumerate_divisions(2, 2, up_to_symmetry=True))
    assert len(reps) == 2
    assert sorted(orbit_size(d) for d in reps) == [1, 2]


@pytest.mark.parametrize("d", range(41))
def test_two_variables_give_degree_plus_one_divisions(d):
    # an exact anchor, like degree 1's n!
    assert sum(1 for _ in enumerate_divisions(2, d)) == d + 1


def test_a_deep_slice_needs_no_recursion():
    """The search walks explicit stacks: a path of (2,200) assigns 201 terms,
    far more than a recursion limit of 150 would let a recursive walker nest."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        assert sum(1 for _ in enumerate_divisions(2, 200)) == 201
    finally:
        sys.setrecursionlimit(limit)


def test_32_orbits_match_reference_tables():
    reps = list(enumerate_divisions(3, 2, up_to_symmetry=True))
    assert len(reps) == 8
    assert {canonical_form(d) for d in reps} == {
        canonical_form(d) for d in orbit_divisions_32()}


def test_orbit_sizes_partition_the_stream():
    reps = list(enumerate_divisions(3, 2, up_to_symmetry=True))
    total = list(enumerate_divisions(3, 2))
    assert sum(orbit_size(d) for d in reps) == len(total) == 42


@pytest.mark.parametrize("n,d,orbits", [(3, 2, 8), (3, 3, 60)])
def test_burnside_count_of_orbits(n, d, orbits):
    assert sum(Fraction(1, orbit_size(div)) for div in enumerate_divisions(n, d)) == orbits


def test_orbit_size_counts_distinct_renamings():
    for div in enumerate_divisions(3, 2):
        assert orbit_size(div) == len(set(renamed_forms(div)))


def test_representatives_attain_their_canonical_form():
    for div in enumerate_divisions(3, 2, up_to_symmetry=True):
        assert serialize(div) == canonical_form(div)


@settings(max_examples=30, deadline=None)
@given(st.permutations([1, 2, 3]))
def test_canonical_form_is_orbit_invariant(pi):
    div = orbit_divisions_32()[4]
    assert canonical_form(div.permuted(tuple(pi))) == canonical_form(div)


def test_canonical_forms_separate_orbits():
    reps = list(enumerate_divisions(3, 2, up_to_symmetry=True))
    forms = {canonical_form(d) for d in reps}
    assert len(forms) == len(reps)


def test_pommaret_always_enumerated():
    for n, d in [(2, 2), (2, 3), (3, 1), (3, 2)]:
        target = pommaret_on_slice(n, d).mult
        assert any(div.mult == target for div in enumerate_divisions(n, d))


# -- pruning and candidate lists inside the search ---------------------------


@cache
def unpruned_leaves(n, d):
    """Every leaf of the search without Hall's test, as term -> set dicts."""
    return [div.mult for div in single_phase_stream(n, d)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(2, 3), (3, 2), (3, 3), (4, 1)]), st.data())
def test_hall_test_prunes_only_nodes_without_leaves(slice_, data):
    """Along a random path of accepted choices (any open term, any of its
    candidates), every state the Hall test rejects extends to no leaf."""
    pa = seed_constraints(*slice_)
    while pa.unassigned():
        lists = {t: pa.candidates(t) for t in pa.unassigned()}
        if _hall_fails(lists.values(), pa.budget):
            assert not any(pa.assigned.items() <= leaf.items()
                           for leaf in unpruned_leaves(*slice_))
        t = data.draw(st.sampled_from(list(lists)))
        if not lists[t]:
            break
        try:
            pa = pa.assign(t, data.draw(st.sampled_from(lists[t])))
        except ConflictError:
            break


# -- the phase-1 DAG of residual states ----------------------------------------

DAG_SLICES = [(2, 3), (3, 2), (3, 3), (4, 1)]


@cache
def recorded_dag(n, d):
    """The phase-1 DAG of the slice, its root key, and for every key the
    assigned sets (term -> set dicts) of each state it was computed for."""
    real_key, seen = enumeration._state_key, {}

    def recording_key(pa, codes):
        key = real_key(pa, codes)
        seen.setdefault(key, []).append(dict(pa.assigned))
        return key

    seed, dag = seed_constraints(n, d), {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_state_key", recording_key)
        for _ in _search(seed, {t: seed.candidates(t) for t in seed.support},
                         {t: k for k, t in enumerate(seed.support)}, dag, min):
            pass
    root = next(iter(seen))  # the first key taken is the seed's
    return dag, root, seen


# (4,2) is the smallest slice where an open term holds two groups, so the
# only one where the order they came in can differ
@pytest.mark.parametrize("n,d", DAG_SLICES + [(4, 2)])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_two_choice_orders_give_one_state_key(n, d, data):
    """A random path of accepted choices (any open term, any of its
    candidates), replayed backwards and in a random order: each replay is
    accepted and reaches the same key, so the key does not see the order in
    which groups came."""
    pa, choices = seed_constraints(n, d), []
    for _ in range(data.draw(st.integers(1, len(pa.support) - 1))):
        t = data.draw(st.sampled_from(pa.unassigned()))
        options = pa.candidates(t)
        if not options:
            break
        m = data.draw(st.sampled_from(options))
        try:
            pa = pa.assign(t, m)
        except ConflictError:
            break
        choices.append((t, m))
    codes = {}
    for order in (choices[::-1], data.draw(st.permutations(choices))):
        replay = seed_constraints(n, d)
        for t, m in order:
            replay = replay.assign(t, m)
        assert _state_key(replay, codes) == _state_key(pa, codes)


@pytest.mark.parametrize("n,d", DAG_SLICES)
def test_dag_marks_dead_exactly_the_states_without_leaves(n, d):
    """Every state the DAG searched, under every choice order that reached
    its key: recorded dead when it extends to no leaf of the unpruned search,
    live when it extends to one."""
    dag, _, seen = recorded_dag(n, d)
    assert seen.keys() == dag.keys()
    assert (None in dag.values()) == ((n, d) != (2, 3))  # dead states to check
    for key, states in seen.items():
        for assigned in states:
            assert (dag[key] is not None) == any(
                assigned.items() <= leaf.items() for leaf in unpruned_leaves(n, d))


@pytest.mark.parametrize("n,d", DAG_SLICES)
def test_dag_paths_are_the_unpruned_leaves(n, d):
    dag, root, _ = recorded_dag(n, d)
    terms = enumerate_terms(n, d)
    leaves = [tuple(masks) for masks in _paths(dag[root], [0] * len(terms))]
    assert len(leaves) == len(set(leaves))
    assert set(leaves) == {tuple(varmask(leaf[t]) for t in terms)
                           for leaf in unpruned_leaves(n, d)}


@pytest.mark.parametrize("n,d", DAG_SLICES)
def test_dag_path_count_is_the_stream_length(n, d):
    dag, root, _ = recorded_dag(n, d)
    counts = {}  # by id: the edges of a state are shared, not hashed

    def paths(edges):
        if id(edges) not in counts:
            counts[id(edges)] = sum(map(paths, edges[2::2])) if edges else 1
        return counts[id(edges)]

    assert dag[root] is not None
    assert paths(dag[root]) == sum(1 for _ in enumerate_divisions(n, d))


def test_phase_one_leaves_nothing_for_the_cyclic_collector():
    """The tables of phase 1 are freed when it ends, and those of phase 2
    when the stream ends or is closed, not whenever the cyclic collector
    next runs.  A recursive closure that kept phase 1's in a reference cycle
    read +10% peak RSS on the benchmark's enumerate workload, and recursive
    generators that referred to themselves +14% with phase 2's."""
    gc.collect()
    gc.disable()
    try:
        stream = enumerate_divisions(3, 3)
        next(stream)
        assert gc.collect() == 0
        assert sum(1 for _ in stream) == 351
        assert gc.collect() == 0
        stream = enumerate_divisions(3, 3)
        next(stream)
        stream.close()
        assert gc.collect() == 0
    finally:
        gc.enable()


def unmemoized_stream(n, d):
    """Reference: phase 2 without its table, the stream-order replay that
    propagates every node it enters, over the leaves of phase 1."""
    seed = seed_constraints(n, d)
    row = {t: k for k, t in enumerate(seed.support)}
    lists = {t: seed.candidates(t) for t in seed.support}
    leaves = [tuple(masks) for masks in _search(seed, lists, row, {}, min)]

    def dfs(pa, lists, leaves):
        if not lists:
            yield RelDivision.on_slice(n, d, dict(pa.assigned))
            return
        best, options = max(lists.items(), key=lambda pair: len(pair[1]))
        for m in options:
            live = [leaf for leaf in leaves if leaf[row[best]] == varmask(m)]
            if not live:
                continue
            try:
                nxt = pa.assign(best, m)
            except ConflictError:
                continue
            yield from dfs(nxt, enumeration._carried(lists, pa, nxt, best), live)

    return list(dfs(seed, lists, leaves))


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_memoized_replay_streams_what_the_unmemoized_one_did(n, d):
    """Phase 2 replays a state already searched from its recorded edges:
    the same divisions in the same order as searching it again."""
    assert [div.to_json() for div in enumerate_divisions(n, d)] == [
        div.to_json() for div in unmemoized_stream(n, d)]


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3), (2, 4), (4, 1)])
def test_carried_candidate_lists_equal_fresh_ones(monkeypatch, n, d):
    """The lists the search hands to each child, reused or rebuilt, equal the
    child's own candidates for every open term, in the same order."""
    real_carried, calls = enumeration._carried, [0]

    def checked_carried(lists, pa, nxt, t):
        got = real_carried(lists, pa, nxt, t)
        assert list(got) == nxt.unassigned()
        assert all(options == nxt.candidates(u) for u, options in got.items())
        calls[0] += 1
        return got

    monkeypatch.setattr(enumeration, "_carried", checked_carried)
    stream = enumerate_divisions(n, d)
    next(stream)
    at_first = calls[0]
    assert sum(1 for _ in stream) > 0
    assert calls[0] > at_first > 0  # lists are carried in both phases


# -- propagation mechanics --------------------------------------------------


def test_seed_constraints_pin_pure_powers():
    pa = seed_constraints(3, 2)
    assert pa.required(term("x^2")) == {1}
    assert pa.required(term("y^2")) == {2}
    assert pa.required(term("z^2")) == {3}
    assert pa.required(term("x*y")) == set()
    assert pa.budget == [0, 3, 2, 1]


def test_degree_zero_requires_every_variable():
    # the one slice where a required set holds more than one variable
    assert seed_constraints(3, 0).required((0, 0, 0)) == {1, 2, 3}
    assert BuildSession(3, 0).complete
    assert [div.mult for div in enumerate_divisions(3, 0)] == [{(0, 0, 0): {1, 2, 3}}]
    # the stream turns only the masks its leaves hold into sets, not all 2^n
    for n in (40, 64):
        assert [div.mult for div in enumerate_divisions(n, 0)] == [{(0,) * n: set(range(1, n + 1))}]


def test_propagation_after_peak_choice():
    pa = seed_constraints(3, 2)
    pa = pa.assign(term("x*y"), frozenset({1, 2, 3}))
    assert pa.forced_out[term("x^2")] == {2}
    assert pa.forced_out[term("y^2")] == {1}
    assert pa.forced_out[term("x*z")] == {2}
    assert pa.forced_out[term("y*z")] == {1}
    assert pa.groups[term("z^2")] == (frozenset({1, 2}),)
    assert pa.budget == [0, 3, 2, 0]


def test_propagation_worked_sequence_settles_last_term():
    pa = seed_constraints(3, 2)
    pa = pa.assign(term("x*y"), frozenset({1, 2, 3}))
    pa = pa.assign(term("x*z"), frozenset({1, 3}))
    assert pa.forced_out[term("x^2")] == {2, 3}
    assert pa.forced_out[term("z^2")] == {1}
    pa = pa.assign(term("z^2"), frozenset({2, 3}))
    assert pa.forced_out[term("y^2")] == {1, 3}
    pa = pa.assign(term("y^2"), frozenset({2}))
    pa = pa.assign(term("y*z"), frozenset({2}))
    assert pa.unassigned() == [term("x^2")]
    assert (pa.required(term("x^2")), pa.forced_out[term("x^2")]) == ({1}, {2, 3})
    session = BuildSession(3, 2)  # the same choices: the session fills x^2 in
    for key, m in [("x*y", {1, 2, 3}), ("x*z", {1, 3}), ("z^2", {2, 3}), ("y^2", {2}),
                   ("y*z", {2})]:
        session.assign(term(key), m)
    assert session.state.assigned == {**pa.assigned, term("x^2"): {1}}
    assert dict(session.table())[term("x^2")] == ["in", "out", "out"]


def test_propagate_conflicts():
    pa = seed_constraints(3, 2)
    with pytest.raises(ConflictError):
        pa.assign(term("x^2"), frozenset({2}))  # drops the forced variable
    with pytest.raises(ConflictError):
        pa.assign(term("x^2"), frozenset())
    pa2 = pa.assign(term("x*y"), frozenset({1, 2, 3}))
    with pytest.raises(ConflictError):
        pa2.assign(term("z^2"), frozenset({1, 2, 3}))  # second peak
    with pytest.raises(ConflictError):
        pa2.assign(term("x*y"), frozenset({1}))  # already assigned


def test_propagate_budget_underflow():
    pa = seed_constraints(2, 2)  # profile allows two singletons and one pair
    pa = pa.assign((1, 1), frozenset({1}))
    pa = pa.assign((2, 0), frozenset({1}))
    with pytest.raises(ConflictError):
        pa.assign((0, 2), frozenset({2}))  # both singleton slots already spent


def test_propagate_is_copy_on_branch():
    pa = seed_constraints(3, 2)
    pa.assign(term("x*y"), frozenset({1, 2, 3}))
    assert pa.assigned == {}
    assert pa.budget == [0, 3, 2, 1]


# -- differential check against the fixpoint propagation ---------------------
#
# The reference propagation visits every pair over the whole support (assigned
# terms included), normalises to a fixpoint that re-examines residues, and
# checks every conflict, the unreachable ones too.  It stores the required
# set of every term (forced_in) and deep-copies every row.  PartialAssignment,
# which keeps only the rules that can fire and derives the required sets, must
# agree with it step for step.


@dataclass
class ReferenceState:
    n: int
    d: int
    support: tuple
    forced_in: dict
    forced_out: dict
    groups: dict
    assigned: dict
    budget: list


def reference_seed(n, d):
    terms = tuple(enumerate_terms(n, d))
    forced_in = {t: set() for t in terms}
    for i in range(1, n + 1):
        forced_in[pure_power(n, d, i)].add(i)
    return ReferenceState(n, d, terms, forced_in, {t: set() for t in terms},
                          {t: [] for t in terms}, {}, [0, *sigma_expected(n, d)])


def reference_copy(pa):
    return ReferenceState(
        pa.n, pa.d, pa.support,
        {t: set(s) for t, s in pa.forced_in.items()},
        {t: set(s) for t, s in pa.forced_out.items()},
        {t: list(gs) for t, gs in pa.groups.items()},
        dict(pa.assigned), list(pa.budget))


def reference_candidates(pa, t):
    if t in pa.assigned:
        return [pa.assigned[t]]
    base = frozenset(pa.forced_in[t])
    free = sorted(set(range(1, pa.n + 1)) - base - pa.forced_out[t])
    out = []
    for extra in range(len(free) + 1):
        size = len(base) + extra
        if size < 1 or size > pa.n or pa.budget[size] <= 0:
            continue
        for combo in combinations(free, extra):
            m = base | frozenset(combo)
            if not any(g <= m for g in pa.groups[t]):
                out.append(m)
    out.sort(key=lambda m: (-len(m), sorted(m)))
    return out


def reference_assign(pa, t, m):
    def name(u):
        return format_term(u)

    def force_out(u, v):
        if v in nxt.forced_in[u]:
            raise ConflictError(f"variable {v} both required and forbidden for {name(u)}")
        nxt.forced_out[u].add(v)

    def not_superset(u, a):
        if u in nxt.assigned:
            if a <= nxt.assigned[u]:
                raise ConflictError(f"cones of assigned terms meet at {name(u)}")
            return
        if a & nxt.forced_out[u]:
            return
        residue = a - nxt.forced_in[u]
        if not residue:
            raise ConflictError(f"forced variables of {name(u)} already cover {sorted(a)}")
        if len(residue) == 1:
            force_out(u, next(iter(residue)))
        elif a not in nxt.groups[u]:
            nxt.groups[u].append(a)

    def normalize():
        changed = True
        while changed:
            changed = False
            for u in nxt.support:
                if u in nxt.assigned:
                    continue
                kept = []
                for g in nxt.groups[u]:
                    if g & nxt.forced_out[u]:
                        changed = True
                        continue
                    residue = g - nxt.forced_in[u]
                    if not residue:
                        raise ConflictError(
                            f"forced variables of {name(u)} already cover {sorted(g)}")
                    if len(residue) == 1:
                        force_out(u, next(iter(residue)))
                        changed = True
                        continue
                    kept.append(g)
                nxt.groups[u] = kept
                lo = max(1, len(nxt.forced_in[u]))
                hi = nxt.n - len(nxt.forced_out[u])
                if not any(nxt.budget[k] > 0 for k in range(lo, hi + 1)):
                    raise ConflictError(f"no admissible set size left for {name(u)}")

    if t not in pa.forced_in:
        raise LookupError(f"term {name(t)} not in the support")
    m = frozenset(m)
    if t in pa.assigned:
        raise ConflictError(f"{name(t)} is already assigned")
    if not m or not m <= set(range(1, pa.n + 1)):
        raise ConflictError(f"inadmissible multiplicative set {sorted(m)}")
    nxt = reference_copy(pa)
    if not nxt.forced_in[t] <= m:
        raise ConflictError(f"{name(t)} must keep {sorted(nxt.forced_in[t] - m)}")
    if m & nxt.forced_out[t]:
        raise ConflictError(f"{name(t)} must avoid {sorted(m & nxt.forced_out[t])}")
    for g in nxt.groups[t]:
        if g <= m:
            raise ConflictError(f"{name(t)} may not take all of {sorted(g)}")
    if nxt.budget[len(m)] <= 0:
        raise ConflictError(f"no size-{len(m)} set left in the profile budget")
    nxt.budget[len(m)] -= 1
    nxt.assigned[t] = m
    nxt.forced_in[t] = set(m)
    nxt.forced_out[t] = set(range(1, nxt.n + 1)) - m
    nxt.groups[t] = []
    for u in nxt.support:
        if u == t:
            continue
        w = term_gcd(t, u)
        if support(term_div(u, w)) <= m:
            not_superset(u, support(term_div(t, w)))
    normalize()
    return nxt


def assert_same_state(new, old):
    """Equal assigned sets, budget and required sets; equal rows of the open
    terms (the reference's rows of an assigned term t are fixed by M(t), and
    PartialAssignment never reads them)."""
    assert (new.assigned, new.budget) == (old.assigned, old.budget)
    for u in new.support:
        assert new.required(u) == old.forced_in[u]
    for u in new.unassigned():
        assert (new.forced_out[u], list(new.groups[u])) == (old.forced_out[u], old.groups[u])


def draw_choice(data, pa):
    """Mostly a candidate of an open term, sometimes an arbitrary set or an
    assigned term."""
    anywhere = data.draw(st.integers(0, 7)) == 0
    t = data.draw(st.sampled_from(pa.support if anywhere else pa.unassigned()))
    options = pa.candidates(t)
    if options and data.draw(st.integers(0, 3)):
        return t, data.draw(st.sampled_from(options))
    return t, data.draw(st.frozensets(st.integers(1, pa.n), max_size=pa.n))


def outcome(assign, *args):
    try:
        return assign(*args), None
    except ConflictError as exc:
        return None, str(exc)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(3, 2), (3, 3), (4, 2), (5, 4)]), st.data())
def test_propagation_matches_fixpoint_reference(slice_, data):
    """Random choice sequences, mostly candidates of open terms, sometimes an
    arbitrary set or an assigned term: both propagations keep equal states,
    raise the same conflicts at the same steps and list the same candidates."""
    new, old = seed_constraints(*slice_), reference_seed(*slice_)
    assert_same_state(new, old)
    for _ in range(len(new.support) + 8):
        for u in new.support:
            assert new.candidates(u) == reference_candidates(old, u)
        if not new.unassigned():
            break
        t, m = draw_choice(data, new)
        got, got_error = outcome(new.assign, t, m)
        want, want_error = outcome(reference_assign, old, t, m)
        assert got_error == want_error
        if got is not None:
            assert_same_state(got, want)
            new, old = got, want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(3, 2), (3, 3), (4, 2)]), st.data())
def test_assign_never_changes_the_parent_state(slice_, data):
    """A state shares its rows with every state assign() derives from it, so
    no accepted or rejected choice may change the state it was made on."""
    pa = seed_constraints(*slice_)
    for _ in range(len(pa.support) + 8):
        if not pa.unassigned():
            break
        t, m = draw_choice(data, pa)
        before = deepcopy(pa)
        nxt, _ = outcome(pa.assign, t, m)
        assert pa == before
        if nxt is not None:
            pa = nxt


# -- canonical forms against the n! reference ------------------------------

def renamed_forms(div):
    """The reference: every renaming of div built in full and serialized."""
    return [serialize(div.permuted(pi)) for pi in permutations(range(1, div.n + 1))]


def assert_matches_renamed_forms(div):
    forms = renamed_forms(div)
    assert canonical_form(div) == min(forms)
    assert orbit_size(div) == len(set(forms))
    assert (_least_form(div, below_own=True) is not None) == (serialize(div) == min(forms))


def all_assignments(n, d):
    """Every assignment of arbitrary (also empty) sets on the degree-d slice."""
    terms = enumerate_terms(n, d)
    sets = [frozenset(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
    for choice in product(sets, repeat=len(terms)):
        yield RelDivision.on_slice(n, d, dict(zip(terms, choice)))


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (2, 2)])
def test_canonical_forms_match_renamed_forms_on_every_assignment(n, d):
    # covers the rows that differ only in the last one, where one label is a
    # prefix of the other ("1" against "1,2", or the empty set against any)
    for div in all_assignments(n, d):
        assert_matches_renamed_forms(div)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_forms_match_renamed_forms_on_arbitrary_assignments(data):
    n, d = data.draw(st.sampled_from([(3, 2), (4, 1)]))  # smaller slices: every assignment
    terms = enumerate_terms(n, d)
    sets = st.frozensets(st.integers(1, n))
    div = RelDivision.on_slice(n, d, {t: data.draw(sets) for t in terms})
    assert_matches_renamed_forms(div)


def test_canonical_forms_match_renamed_forms_on_33_leaves():
    for div in enumerate_divisions(3, 3):
        assert_matches_renamed_forms(div)


@pytest.mark.parametrize("n,order", [(5, (3, 5, 1, 4, 2)), (5, (2, 1, 4, 5, 3)),
                                     (6, (4, 2, 6, 1, 5, 3)), (6, (6, 5, 4, 3, 2, 1))])
def test_canonical_forms_match_renamed_forms_on_relabelled_pommaret(n, order):
    assert_matches_renamed_forms(pommaret_on_slice(n, 4).permuted(order))


@pytest.mark.parametrize("support", [[(2, 0), (1, 1)], [(2, 0), (0, 2)]])
def test_canonical_forms_need_a_full_slice(support):
    # the second support is closed under renaming, so only the check can refuse it
    div = RelDivision.general(2, {t: {1} for t in support})
    for fn in (canonical_form, orbit_size, lambda div: _least_form(div, below_own=True)):
        with pytest.raises(ValueError, match="full-slice"):
            fn(div)
