"""Exact arithmetic on monomial exponent vectors and degree-slice counting.

A term in n variables is a tuple of n non-negative integer exponents for
x1 < x2 < ... < xn.  When n <= 4 the variables are displayed as x, y, z, t.
Everything here is exact integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from math import comb

Term = tuple[int, ...]
VarSet = frozenset[int]

_LETTERS = ("x", "y", "z", "t")


def degree(t: Term) -> int:
    return sum(t)


def deglex_key(t: Term) -> tuple[int, Term]:
    """Sort key: total degree first, largest variable most significant on ties."""
    return (sum(t), t[::-1])


def term_divides(s: Term, t: Term) -> bool:
    """True when s | t componentwise."""
    # a list, not a generator: zip checks the lengths only once it is exhausted
    return all([a <= b for a, b in zip(s, t, strict=True)])


def term_div(t: Term, s: Term) -> Term:
    """Exact quotient t / s; raises ValueError when s does not divide t."""
    q = tuple(a - b for a, b in zip(t, s, strict=True))
    if min(q, default=0) < 0:
        raise ValueError(f"{s} does not divide {t}")
    return q


def term_lcm(t: Term, s: Term) -> Term:
    if len(t) != len(s):
        raise ValueError(f"terms {t} and {s} differ in length")
    return tuple(map(max, t, s))


def term_gcd(t: Term, s: Term) -> Term:
    return tuple(min(a, b) for a, b in zip(t, s, strict=True))


def support(t: Term) -> VarSet:
    """Indices (1-based) of the variables occurring in t."""
    return frozenset(i + 1 for i, e in enumerate(t) if e > 0)


def pure_power(n: int, d: int, i: int) -> Term:
    """x_i^d in n variables."""
    return tuple(d if j == i - 1 else 0 for j in range(n))


def varmask(m) -> int:
    """Bitmask of a variable set: bit i-1 stands for x_i."""
    return sum(1 << (i - 1) for i in m)


def check_count(n) -> int:
    """n itself when it is a variable count, an int (not a bool) >= 1; else ValueError."""
    if type(n) is not int or n < 1:
        raise ValueError(f"bad variable count {n!r} (must be an int >= 1)")
    return n


def check_degree(d) -> int:
    """d itself when it is a degree, an int (not a bool) >= 0; else ValueError."""
    if type(d) is not int or d < 0:
        raise ValueError(f"bad degree {d!r} (must be an int >= 0)")
    return d


def check_varset(m, n: int) -> VarSet:
    """frozenset(m) when every item of m is a variable index, an int (not a
    bool) in 1..n; else ValueError, also when m is no iterable of hashables."""
    try:
        s = frozenset(m)
    except TypeError:  # m is not iterable, or an item is unhashable
        s = (None,)  # fails the test below
    for i in s:
        if type(i) is not int or not 0 < i <= n:
            raise ValueError(f"bad variable set {m!r} for n={n}")
    return s


def check_permutation(pi, n: int) -> tuple[int, ...]:
    """pi as a tuple, checked to list the variables 1..n in some order."""
    pi = tuple(pi)
    try:
        if len(pi) == n == len(check_varset(pi, n)):
            return pi
    except ValueError:  # an item that is no variable index
        pass
    raise ValueError(f"not a permutation of 1..{n}: {pi}")


def check_term(t, n: int) -> Term:
    """t itself when it is a term in n variables: a tuple of n exponents, each
    an int >= 0; else ValueError."""
    if not (type(t) is tuple and len(t) == n and all(type(e) is int and e >= 0 for e in t)):
        raise ValueError(f"bad exponent vector {t!r} for n={n}")
    return t


def support_key(t, support, exact: bool = False) -> Term:
    """t, any sequence of ints, as the tuple under which support (a set or
    mapping keyed by terms) holds it; else LookupError naming t.  Items are
    matched as tuples compare, not checked one by one: this runs once per
    cone test.  With exact they are checked to be ints too, for a caller that
    stores t: (1.0, 0) finds (1, 0) but is no term."""
    key = t if type(t) is tuple else tuple(t) if isinstance(t, Sequence) else None
    try:
        if key in support and not (exact and any(type(e) is not int for e in key)):
            return key
    except TypeError:  # an unhashable item
        pass
    try:
        name = format_term(check_term(key, len(key)))
    except (TypeError, ValueError):  # not a sequence of ints >= 0
        name = repr(t)
    raise LookupError(f"term {name} not in the support")


def at_most_masks(terms) -> list[dict[int, int]]:
    """Entry i maps each exponent e that x_{i+1} takes among the terms to the
    bitmask (bit k for terms[k]) of the terms with exponent at most e there."""
    out = []
    for column in zip(*terms):  # one variable's exponents, in term order
        exact: dict[int, int] = {}
        for k, e in enumerate(column):
            exact[e] = exact.get(e, 0) | 1 << k
        below = 0
        out.append({e: (below := below | exact[e]) for e in sorted(exact)})
    return out


def enumerate_terms(n: int, d: int) -> list[Term]:
    """All degree-d terms in n variables, in deg-lex order: the last exponent
    ascending, and for each last exponent the slice in one variable fewer."""
    return _slice(check_count(n), check_degree(d))


def _slice(n: int, d: int) -> list[Term]:
    # enumerate_terms on arguments already checked
    if n == 1 or d == 0:  # a single term: (d,) or the constant term
        return [(0,) * (n - 1) + (d,)]
    return [t + (e,) for e in range(d + 1) for t in _slice(n - 1, d - e)]


def _comb0(m: int, r: int) -> int:
    # comb with the usual conventions outside math.comb's domain
    if r == 0:
        return 1
    if m < 0 or r < 0 or r > m:
        return 0
    return comb(m, r)


def sigma_expected(n: int, d: int) -> tuple[int, ...]:
    """Component k counts the degree-d terms that carry k multiplicative variables
    in any valid assignment on the full slice: C(d+n-1-k, n-k) for k = 1..n."""
    check_count(n)
    check_degree(d)
    return tuple(_comb0(d + n - 1 - k, n - k) for k in range(1, n + 1))


def vandermonde_identity_check(n: int, d: int, d_max: int) -> bool:
    """Exact check that the expected profile splits every higher slice:
    C(d+e+n-1, n-1) = sum_k C(d+n-1-k, n-k) * C(e+k-1, k-1) for 0 <= e <= d_max."""
    profile = sigma_expected(n, d)
    for e in range(check_degree(d_max) + 1):
        total = sum(a * _comb0(e + k - 1, k - 1) for k, a in enumerate(profile, start=1))
        if total != _comb0(d + e + n - 1, n - 1):
            return False
    return True


def var_names(n: int) -> list[str]:
    if check_count(n) <= 4:
        return list(_LETTERS[:n])
    return [f"x{i}" for i in range(1, n + 1)]


def var_index(name: str, n: int) -> int:
    """1-based index of a variable name, honoring the display convention for n."""
    names = var_names(n)
    if name in names:
        return names.index(name) + 1
    m = re.fullmatch(r"x([0-9]+)", name)
    if m:
        i = int(m.group(1))
        if 1 <= i <= n:
            return i
    raise ValueError(f"unknown variable {name!r} for n={n}")


def format_term(t: Term) -> str:
    """Named-product form in len(t) variables: x^2*y, y*z*t; 1 for the
    constant term, () included."""
    names = var_names(len(t)) if t else ()
    parts = [names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(t) if e > 0]
    return "*".join(parts) if parts else "1"


_TOKEN = re.compile(r"(x[0-9]+|[xyzt])(?:\^([0-9]+))?")


def parse_term(text: str, n: int) -> Term:
    """Parse named-product form ("x^2*y", "x2^3", "yzt") or a bare exponent
    array ("[2,1,0]"); '^' may be omitted for exponent 1, '*' between factors."""
    check_count(n)
    s = text.strip()
    if not s:
        raise ValueError("empty term")
    if s.startswith("["):  # json.loads gives a list here or raises
        return check_term(tuple(json.loads(s)), n)
    if s == "1":
        return (0,) * n
    exps = [0] * n
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ValueError(f"cannot parse term {text!r} at {s[pos:]!r}")
        idx = var_index(m.group(1), n)
        exps[idx - 1] += int(m.group(2)) if m.group(2) else 1
        pos = m.end()
        if pos < len(s) and s[pos] == "*":
            pos += 1
    return tuple(exps)


def parse_varset(items, n: int) -> VarSet:
    """Variable names (or 1-based indices) to a VarSet."""
    return check_varset([var_index(i, n) if isinstance(i, str) else i for i in items], n)

