"""Compliant and revenant closures of a seed inside a valid assignment.

A subset M of the support is compliant when every cone vertex X(s, t) of an
lcm with s in M and vertex t forces t into M; the ideal generated by a
compliant set restricted to the support is then describable by cones alone.
Dually, a subset N is revenant when lcm(t, s) landing in the cone of a member
t forces s in; the complement slice of an order ideal behaves this way.
Closures add the forced terms until stable and record a witness per addition.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

from . import oracle
from .division import RelDivision
from .graphs import walk
from .terms import Term, check_count, check_term, degree, format_term, support_key, term_lcm

Witness = tuple[Term, Term, Term, Term, Term]  # added, s, t, lcm, vertex


@dataclass(frozen=True)
class ClosureReport:
    n: int
    seed: tuple[Term, ...]
    closure: tuple[Term, ...]
    witnesses: tuple[Witness, ...]

    def to_json_dict(self) -> dict:
        fmt = format_term
        return {
            "seed": [fmt(t) for t in self.seed],
            "closure": [fmt(t) for t in self.closure],
            "witnesses": [
                {"added": fmt(a), "s": fmt(s), "t": fmt(t), "lcm": fmt(w), "vertex": fmt(v)}
                for a, s, t, w, v in self.witnesses
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _reach(div: RelDivision, seed, forward: bool) -> ClosureReport:
    """Breadth-first reachability from the seed along the edges t -> s of the
    redundant graph (lcm(s, t) in the cone of t), forwards or backwards; one
    witness per member reached, in the order reached."""
    div.require_valid("a closure")
    terms, table = div.support, div.pair_table
    start = sorted({table.row[support_key(t, table.row)] for t in seed})  # rows in deg-lex order
    reached = list(walk(table.heads if forward else table.tails, start))
    witnesses: list[Witness] = []
    for b, a in reached:
        t, s = (terms[a], terms[b]) if forward else (terms[b], terms[a])
        witnesses.append((terms[b], s, t, term_lcm(s, t), t))
    members = sorted(start + [b for b, _ in reached])
    return ClosureReport(div.n, tuple(terms[i] for i in start),
                         tuple(terms[i] for i in members), tuple(witnesses))


def compliant_closure(div: RelDivision, seed) -> ClosureReport:
    """Smallest compliant superset of the seed: t joins when some member s
    puts lcm(s, t) into the cone of t itself."""
    return _reach(div, seed, forward=False)


def revenant_closure(div: RelDivision, seed) -> ClosureReport:
    """Smallest revenant superset of the seed: s joins when lcm(t, s) lies in
    the cone of a member t."""
    return _reach(div, seed, forward=True)


@dataclass(frozen=True)
class ClosureResult:
    """Closure plus the bounded certificate that it does what it should."""

    report: ClosureReport
    certified: bool
    counterexample: tuple | None


def ideal_from_seed(div: RelDivision, seed, margin: int = 3) -> ClosureResult:
    """Compliant closure of the seed, certified as generating the same ideal
    slice-by-slice up to degree + margin."""
    report = compliant_closure(div, seed)
    ok, bad = oracle.verify_ideal_equality(div, report.closure, margin)
    return ClosureResult(report, ok, bad)


def escalier_from_seed(div: RelDivision, seed, margin: int = 3) -> ClosureResult:
    """Revenant closure of the seed, certified as cutting out an order-ideal
    complement up to degree + margin."""
    report = revenant_closure(div, seed)
    ok, bad = oracle.verify_order_ideal(div, report.closure, margin)
    return ClosureResult(report, ok, bad)


def is_borel_fixed_slice(terms, n: int) -> bool:
    """Whether exchanging any variable for a larger one keeps every term in
    the set; terms must share one degree."""
    check_count(n)
    ts = {check_term(tuple(t), n) for t in terms}
    if not ts:
        return True
    degs = {degree(t) for t in ts}
    if len(degs) != 1:
        raise ValueError("terms of mixed degrees")
    for t in ts:
        for j in range(n - 1):
            if t[j] > 0:
                for k in range(j + 1, n):
                    moved = list(t)
                    moved[j] -= 1
                    moved[k] += 1
                    if tuple(moved) not in ts:
                        return False
    return True
