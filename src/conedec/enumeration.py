"""Exhaustive search for valid assignments on a full degree slice.

The search assigns multiplicative sets term by term under three kinds of
constraints: variables required or forced out for a term, "not all of these
variables together" groups coming from the pairwise disjointness criterion,
and a global budget fixing how many terms may receive each set size (the
expected profile).  Together these make the leaves of the search tree exactly
the valid assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial

from .division import RelDivision
from .terms import (
    Term,
    VarSet,
    check_varset,
    enumerate_terms,
    format_term,
    sigma_expected,
    support,
    support_key,
    term_div,
    term_gcd,
    varmask,
)


class ConflictError(Exception):
    pass


@dataclass
class PartialAssignment:
    """Search state; assign() returns a new state (copy-on-branch).

    Rows are immutable and shared: a forced_out row is a frozenset and a
    groups row a tuple, replaced and never changed in place, so copy() copies
    no row.  Required sets are derived by required(), not stored.  Each pair
    of terms is constrained when the first of the two is assigned: the open
    one gets a forced-out variable or a group, which assign() checks before
    accepting its set, so the rows of assigned terms are never read."""

    n: int
    d: int
    support: tuple[Term, ...]
    forced_out: dict[Term, VarSet]
    groups: dict[Term, tuple[VarSet, ...]]
    assigned: dict[Term, VarSet]
    budget: list[int]  # budget[k] = terms still allowed to get a size-k set; [0] unused

    def copy(self) -> "PartialAssignment":
        return PartialAssignment(
            self.n,
            self.d,
            self.support,
            dict(self.forced_out),
            dict(self.groups),
            dict(self.assigned),
            list(self.budget),
        )

    def unassigned(self) -> list[Term]:
        return [t for t in self.support if t not in self.assigned]

    def required(self, t: Term) -> VarSet:
        """Variables M(t) must contain: its set once assigned, else those at
        the full degree (x_i for x_i^D, none for other terms, all at D = 0)."""
        if t in self.assigned:
            return self.assigned[t]
        return frozenset(i for i, e in enumerate(t, start=1) if e == self.d)

    def _sizes(self, t: Term, base: VarSet) -> list[int]:
        """Sizes with budget left that t, requiring base, may take; largest first."""
        return [k for k in range(self.n - len(self.forced_out[t]), max(1, len(base)) - 1, -1)
                if self.budget[k] > 0]

    def candidates(self, t: Term) -> list[VarSet]:
        """Possible multiplicative sets for t under the current constraints,
        largest first, lexicographic on ties (combinations of the sorted free
        variables added to a fixed base come out in that order)."""
        t = support_key(t, self.forced_out)
        if t in self.assigned:
            return [self.assigned[t]]
        base = self.required(t)
        free = sorted(set(range(1, self.n + 1)) - base - self.forced_out[t])
        out = []
        for size in self._sizes(t, base):
            for combo in combinations(free, size - len(base)):
                m = base | frozenset(combo)
                if not any(g <= m for g in self.groups[t]):
                    out.append(m)
        return out

    # -- constraint plumbing (replaces rows of fresh copies only) ----------

    def _feasible(self, t: Term) -> None:
        if not self._sizes(t, self.required(t)):
            raise ConflictError(
                f"no admissible set size left for {format_term(t)}")

    def _not_superset(self, t: Term, a: VarSet) -> None:
        """Record that M(t) must not contain all of a, for an open term t.
        The residue a - required(t) is never empty (the required set is empty,
        or {i} for t = x_i^D, and then a holds a variable other than i) and
        never shrinks, so every kept group has at least two free variables."""
        out = self.forced_out[t]
        if a & out:
            return
        residue = a - self.required(t)
        if len(residue) == 1:
            out = self.forced_out[t] = out | residue
            self.groups[t] = tuple(g for g in self.groups[t] if not g & out)
        elif a not in self.groups[t]:
            self.groups[t] += (a,)

    def assign(self, t: Term, m: VarSet) -> "PartialAssignment":
        """New state with M(t) = m; raises ConflictError when impossible."""
        t = support_key(t, self.forced_out, exact=True)
        m = check_varset(m, self.n)
        if t in self.assigned:
            raise ConflictError(f"{format_term(t)} is already assigned")
        if not m:
            raise ConflictError("inadmissible multiplicative set []")
        need = self.required(t)
        if not need <= m:
            raise ConflictError(f"{format_term(t)} must keep {sorted(need - m)}")
        if m & self.forced_out[t]:
            raise ConflictError(
                f"{format_term(t)} must avoid {sorted(m & self.forced_out[t])}")
        for g in self.groups[t]:
            if g <= m:
                raise ConflictError(
                    f"{format_term(t)} may not take all of {sorted(g)}")
        if self.budget[len(m)] <= 0:
            raise ConflictError(f"no size-{len(m)} set left in the profile budget")
        nxt = self.copy()
        nxt.budget[len(m)] -= 1
        nxt.assigned[t] = m
        # pairwise disjointness: once M(t) is final, any open u whose quotient
        # variables towards t are all multiplicative for t must miss one of
        # t's quotient variables towards u
        todo = nxt.unassigned()
        for u in todo:
            w = term_gcd(t, u)
            if support(term_div(u, w)) <= m:
                nxt._not_superset(u, support(term_div(t, w)))
        for u in todo:  # the budget shrank for every open term
            nxt._feasible(u)
        return nxt


def seed_constraints(n: int, d: int) -> PartialAssignment:
    """Fresh state: budget is the expected profile, and all terms share one
    empty forced_out row and one empty groups row (rows are never changed in
    place).  Pure powers keep their own variable through required()."""
    terms = tuple(enumerate_terms(n, d))
    return PartialAssignment(
        n,
        d,
        terms,
        dict.fromkeys(terms, frozenset()),
        dict.fromkeys(terms, ()),
        {},
        [0, *sigma_expected(n, d)],
    )


def _least_form(div: RelDivision, below_own: bool = False):
    """Rows of the least renamed form and how many renamings give it, which is
    the size of div's stabilizer (each form of the orbit is given by as many).
    Each renaming is read only up to its first row that differs from the least
    so far.  With below_own, None as soon as one falls below the own form."""
    if not div.is_full_slice:
        raise ValueError("canonical forms are defined on full-slice assignments")

    def rows(pi):  # of div.permuted(pi); ';' ends every row but the last, so
        labels: dict[VarSet, str] = {}  # lists compare like the joined bytes
        for u in div.support:  # row u takes the set of the source term u∘pi
            m = div.mult[tuple([u[p - 1] for p in pi])]
            if m not in labels:
                labels[m] = ",".join(str(v) for v in sorted(pi[i - 1] for i in m)) + ";"
            yield labels[m] if u is not div.support[-1] else labels[m][:-1]

    renamings = map(rows, permutations(range(1, div.n + 1)))
    least, ties = list(next(renamings)), 1  # the identity comes first
    for new in renamings:
        for k, (r, b) in enumerate(zip(new, least)):
            if r > b:
                break
            if r < b:  # a new least: read its rest, then zip ends on a tie
                if below_own:
                    return None
                least[k:], ties = [r, *new], 0
        else:
            ties += 1
    return least, ties


def canonical_form(div: RelDivision) -> bytes:
    """Minimum over all variable renamings of the serialized assignment;
    constant on a renaming orbit, distinct across orbits."""
    return "".join(_least_form(div)[0]).encode("ascii")


def orbit_size(div: RelDivision) -> int:
    """Number of distinct renamings of div: n! over the size of its
    stabilizer, the renamings that leave its serialization unchanged."""
    return factorial(div.n) // _least_form(div)[1]


def _hall_fails(lists, budget: list[int]) -> bool:
    """True when open terms with these candidate lists cannot all get a size:
    for some set K of sizes, more of them have every size in K than
    sum(budget[k] for k in K) (Hall's condition; Régin, AAAI 1996).  K runs
    over the sizes some term can take; any other size only adds capacity."""
    within: dict[int, int] = {}  # size mask (bit k: size k) -> open terms with it
    union = 0
    for options in lists:
        mask = 0
        for m in options:
            mask |= 1 << len(m)
        within[mask] = within.get(mask, 0) + 1
        union |= mask
    sizes = union
    while True:  # every subset of union, the empty set last
        if (sum(c for mask, c in within.items() if not mask & ~sizes)
                > sum(b for k, b in enumerate(budget) if sizes >> k & 1)):
            return True
        if not sizes:
            return False
        sizes = (sizes - 1) & union


def _carried(lists: dict, pa: PartialAssignment, nxt: PartialAssignment, t: Term) -> dict:
    """Candidate lists of the open terms of nxt = pa.assign(t, m), from pa's.
    A term whose rows nxt shares with pa keeps its list less the size whose
    budget ran out: rows are replaced, never changed in place, and an open
    term's required set is fixed."""
    size = len(nxt.assigned[t])
    spent = nxt.budget[size] == 0
    return {u: ([m for m in options if len(m) != size] if spent else options)
            if nxt.forced_out[u] is pa.forced_out[u] and nxt.groups[u] is pa.groups[u]
            else nxt.candidates(u)
            for u, options in lists.items() if u != t}


def _state_key(pa: PartialAssignment, codes: dict) -> tuple[int, ...]:
    """pa's residual state, all the rest of the search reads of it, as one
    flat tuple of small ints: the budget, then one code per open term in
    support order.  codes interns (term, forced_out row, set of groups); the
    groups are a set because _not_superset appends them in the order the
    choices came."""
    return (*pa.budget, *[codes.setdefault((t, pa.forced_out[t], frozenset(pa.groups[t])),
                                           len(codes))
                          for t in pa.support if t not in pa.assigned])


def _paths(edges: tuple | None, masks: list[int]):
    """Every path from a state to the sink, setting masks[row] to each edge's
    mask; yields masks once per path, filled in (the same list each time, so
    read it before the next).  A state's edges are one flat tuple (row, mask,
    child's edges, mask, child's edges, ...), row being that of the term it
    branches on; the sink's are (), and a dead state's None."""
    if edges == ():
        yield masks
    stack = [(edges[0], zip(edges[1::2], edges[2::2]))] if edges else []
    while stack:
        k, pairs = stack[-1]
        for mask, child in pairs:
            masks[k] = mask
            if child == ():
                yield masks
            else:  # edges lead to live states only
                stack.append((child[0], zip(child[1::2], child[2::2])))
                break
        else:
            stack.pop()


def _search(pa: PartialAssignment, lists: dict, row: dict, table: dict, pick,
            leaves: list | None = None):
    """The paths below pa, whose open terms have these candidate lists,
    yielded as _paths does.  Each distinct residual state is searched once
    and recorded in table by its key, as _paths reads it; one reached again
    is replayed from there.  pick (min or max by candidate count, the first
    on ties) chooses the term to branch on.  Without leaves, choices that
    conflict and states that fail Hall's test are dead ends; with leaves
    (row-mask tuples), only options some leaf agrees with are tried."""
    masks, codes, stack = [0] * len(row), {}, []
    key = _state_key(pa, codes)
    while True:  # enter pa, a state not in the table
        if not lists:
            table[key] = ()
            yield masks
        elif leaves is None and _hall_fails(lists.values(), pa.budget):
            table[key] = None
        else:
            best, options = pick(lists.items(), key=lambda pair: len(pair[1]))
            stack.append((pa, lists, key, leaves, row[best], best, iter(options), []))
        while stack:  # then find the next state to enter, deepest frame first
            pa, lists, key, leaves, k, best, options, taken = stack[-1]
            for m in options:
                mask = varmask(m)
                live = None if leaves is None else [leaf for leaf in leaves if leaf[k] == mask]
                if live == []:  # no leaf takes m
                    continue
                try:
                    nxt = pa.assign(best, m)
                except ConflictError:
                    if leaves is None:
                        continue
                    raise
                child = _state_key(nxt, codes)
                masks[k] = mask
                taken.append((mask, child))
                if child not in table:
                    break
                yield from _paths(table[child], masks)
            else:  # no state below has this key: each has fewer open terms
                stack.pop()
                edges = [x for mask, child in taken if table[child] is not None
                         for x in (mask, table[child])]
                table[key] = (k, *edges) if edges else None
                continue
            pa, lists, key, leaves = nxt, _carried(lists, pa, nxt, best), child, live
            break
        else:
            return


def enumerate_divisions(n: int, d: int, up_to_symmetry: bool = False):
    """All valid assignments on the degree-d slice, as a deterministic stream.

    One walker, _search, runs twice over the same propagation.  Each run
    searches a DAG of residual states, each distinct state once, on an
    explicit stack, so no slice meets Python's recursion limit.  The first
    run branches on the open term with the fewest candidates and prunes by
    Hall's condition; its paths are the leaves, and its table is freed before
    the stream starts.  The second branches on the term with the most, the
    rule that fixes the stream order, into options some leaf agrees with
    only; it streams, and its table lives until the stream ends or is closed.

    With up_to_symmetry, only the canonical representative of each variable-
    renaming orbit is produced (the one whose own serialization attains the
    orbit minimum).
    """
    seed = seed_constraints(n, d)
    lists = {t: seed.candidates(t) for t in seed.support}
    row = {t: k for k, t in enumerate(seed.support)}
    leaves = [tuple(masks) for masks in _search(seed, lists, row, {}, min)]
    # only the masks the leaves hold: all 2^n sets cannot be built at n = 64
    sets = {mask: frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
            for mask in set().union(*leaves)}
    for masks in _search(seed, lists, row, {}, max, leaves):
        div = RelDivision.on_slice(n, d, {t: sets[mask] for t, mask in zip(seed.support, masks)})
        if up_to_symmetry and _least_form(div, below_own=True) is None:
            continue
        yield div
