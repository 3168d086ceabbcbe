"""The two classical assignments and recognition of the triangular one."""

from __future__ import annotations

from .division import RelDivision
from .terms import (
    Term, VarSet, check_count, check_permutation, check_term, enumerate_terms, pure_power)


def _pommaret_mult(terms, order: tuple[int, ...]) -> dict[Term, VarSet]:
    # order lists the variables from smallest to largest; the constant term
    # has no smallest variable and gets them all
    rank = {v: i for i, v in enumerate(order)}
    lowest = {t: min((rank[i] for i, e in enumerate(t, 1) if e), default=len(order))
              for t in terms}
    return {t: frozenset(order[: lo + 1]) for t, lo in lowest.items()}


def pommaret_on_slice(n: int, d: int, order=None) -> RelDivision:
    """Triangular assignment on the full degree-d slice: the multiplicative
    variables of t are those at or below its smallest variable, smallness
    taken along the given variable order (ascending indices by default)."""
    terms = enumerate_terms(n, d)  # checks n and d before they are used
    order = tuple(range(1, n + 1)) if order is None else check_permutation(order, n)
    return RelDivision.on_slice(n, d, _pommaret_mult(terms, order))


def pommaret_general(terms, n: int) -> RelDivision:
    """Triangular rule applied verbatim to an arbitrary finite term set.
    Need not be valid there; pair with the covering oracle."""
    order = tuple(range(1, check_count(n) + 1))
    return RelDivision.general(n, _pommaret_mult([check_term(tuple(t), n) for t in terms], order))


def _janet_mult(terms, n: int) -> dict[Term, VarSet]:
    """Janet's rule: x_j is multiplicative for t exactly when no term that
    agrees with t on every exponent above j has a larger j-th exponent."""
    ts = [check_term(tuple(t), n) for t in terms]
    top: dict[tuple[int, Term], int] = {}  # (j, exponents above j) -> largest j-th
    for t in ts:
        for j in range(1, n + 1):
            top[j, t[j:]] = max(top.get((j, t[j:]), 0), t[j - 1])
    return {t: frozenset(j for j in range(1, n + 1) if t[j - 1] == top[j, t[j:]])
            for t in ts}


def janet_general(terms, n: int) -> RelDivision:
    """Janet's rule applied to an arbitrary finite term set."""
    return RelDivision.general(n, _janet_mult(terms, check_count(n)))


def janet_on_slice(n: int, d: int) -> RelDivision:
    """Janet's rule on the full degree-d slice, tagged with the slice degree.
    Coincides with the triangular assignment there."""
    return RelDivision.on_slice(n, d, _janet_mult(enumerate_terms(n, d), n))


def detect_pommaret(div: RelDivision) -> tuple[int, ...] | None:
    """Variable order making a valid full-slice assignment triangular, or None.

    The only candidate order ranks each variable by the size of the
    multiplicative set of its pure power; reconstruction confirms it.
    """
    div.require_valid("recognition")
    n, d = div.n, div.degree
    order = tuple(sorted(range(1, n + 1),
                         key=lambda i: (len(div.mult[pure_power(n, d, i)]), i)))
    rebuilt = pommaret_on_slice(n, d, order)
    if rebuilt.mult == div.mult:
        return order
    return None
