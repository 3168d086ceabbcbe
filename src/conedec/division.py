"""Multiplicative-variable assignments on finite term sets and their validation.

An assignment splits the variables of every term u of a finite set U into
multiplicative and non-multiplicative ones; the cone of u is u times all
products of its multiplicative variables.  The assignment is valid when the
cones are pairwise disjoint and jointly cover every multiple of U.  On the
full degree-d slice both conditions are decided exactly by finite checks:
pairwise disjointness via the gcd criterion, coverage via the size profile.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from types import MappingProxyType
from typing import NamedTuple
import json

from .terms import (
    Term,
    VarSet,
    at_most_masks,
    check_count,
    check_degree,
    check_permutation,
    check_term,
    check_varset,
    deglex_key,
    degree,
    format_term,
    parse_term,
    parse_varset,
    pure_power,
    sigma_expected,
    support_key,
    term_lcm,
    var_names,
)

# Largest variable count a division file may declare: loading costs time and
# memory linear in n even for terms that use few variables.
MAX_VARS = 64


class DivisionError(Exception):
    pass


class InvalidDivisionError(DivisionError):
    pass


class NoInvolutiveDivisorError(DivisionError):
    pass


@dataclass
class ValidationReport:
    """Outcome of a validity check; valid iff no violations were recorded.
    Each violation is held as it is written: terms by format_term, a variable
    by its name, a profile as a list."""

    violations: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport(self.violations + other.violations, self.notes + other.notes)

    def to_json_dict(self) -> dict:
        return {"valid": self.valid, "violations": self.violations, "notes": self.notes}


class PairTable(NamedTuple):
    """Pair facts of a support, rows in support order.  Row t "lands" on row
    s when lcm(t_s, t_t) lies in the cone of t_t, that is, when s has no larger
    exponent than t at any non-multiplicative variable of t."""

    row: dict[Term, int]        # term -> its position in the support
    lands: tuple[int, ...]      # lands[t]: bitmask of the rows s != t that t lands on

    def heads(self, t: int) -> list[int]:
        """Rows s != t on which t lands, in row order."""
        return [s for s, b in enumerate(bin(self.lands[t])[:1:-1]) if b == "1"]

    def tails(self, s: int) -> list[int]:
        """Rows t != s that land on s."""
        return [t for t, m in enumerate(self.lands) if m >> s & 1]


@dataclass(frozen=True)
class RelDivision:
    """A multiplicative-variable assignment over a fixed finite support.

    degree is the slice degree when the support is the full degree slice,
    None for an arbitrary finite term set.  Instances are immutable: mult is
    a read-only mapping, so the caches below cannot go stale.
    """

    n: int
    degree: int | None
    support: tuple[Term, ...]
    mult: Mapping[Term, VarSet]

    def __post_init__(self):
        n = check_count(self.n)
        if self.degree is not None:
            check_degree(self.degree)
        seen = set()
        for t in self.support:
            if check_term(t, n) in seen:
                raise ValueError(f"duplicate term {format_term(t)}")
            seen.add(t)
        if set(self.mult) != seen:
            raise ValueError("assignment keys differ from the support")
        if self.degree is not None and (
                any(degree(t) != self.degree for t in seen)
                or len(seen) != comb(self.degree + self.n - 1, self.n - 1)):
            raise ValueError(
                f"support is not the full degree-{self.degree} slice in {self.n} variables")
        support_ = tuple(sorted(self.support, key=deglex_key))
        object.__setattr__(self, "support", support_)
        object.__setattr__(
            self, "mult", MappingProxyType({t: check_varset(self.mult[t], n) for t in support_}))

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild from a plain dict
        return (type(self), (self.n, self.degree, self.support, dict(self.mult)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def on_slice(cls, n: int, d: int, mult: dict[Term, VarSet]) -> "RelDivision":
        return cls(n, d, tuple(mult), mult)

    @classmethod
    def general(cls, n: int, mult: dict[Term, VarSet]) -> "RelDivision":
        return cls(n, None, tuple(mult), mult)

    @property
    def is_full_slice(self) -> bool:
        return self.degree is not None

    # -- basic queries -----------------------------------------------------

    def multiplicative_set(self, t: Term) -> VarSet:
        return self.mult[support_key(t, self.mult)]

    def nonmultiplicative_set(self, t: Term) -> VarSet:
        return frozenset(range(1, self.n + 1)) - self.mult[support_key(t, self.mult)]

    def cone_contains(self, vertex: Term, w: Term) -> bool:
        """w lies in the cone of vertex: at every variable the exponents of
        vertex and w agree, or w has the larger one at a multiplicative
        variable of vertex."""
        m = self.mult[support_key(vertex, self.mult)]
        if len(w) != self.n:
            raise ValueError(f"term {w} does not have {self.n} variables")
        for i, (a, b) in enumerate(zip(vertex, w), 1):
            if a != b and (a > b or i not in m):
                return False
        return True

    def involutive_divisor(self, w: Term) -> Term | None:
        """Deg-lex-first support term whose cone contains w; None when no cone does.
        Unique on a valid full-slice assignment whenever deg(w) >= degree."""
        return next((u for u in self.support if self.cone_contains(u, w)), None)

    def x_of(self, s: Term, t: Term) -> Term:
        """The support term whose cone contains lcm(s, t)."""
        w = term_lcm(support_key(s, self.mult), support_key(t, self.mult))
        v = self.involutive_divisor(w)
        if v is None:
            raise NoInvolutiveDivisorError(
                f"no involutive divisor for {format_term(w)}")
        return v

    def sigma_profile(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for m in self.mult.values():
            if m:
                counts[len(m) - 1] += 1
        return tuple(counts)

    def peak(self) -> Term:
        """The unique support term with every variable multiplicative."""
        if not self.is_full_slice:
            raise InvalidDivisionError("peak is defined on full-slice assignments only")
        peaks = self._peaks()
        if len(peaks) != 1:
            names = [format_term(u) for u in peaks]
            raise InvalidDivisionError(
                "no peak" if not peaks else f"multiple peaks: {', '.join(names)}")
        return peaks[0]

    def _peaks(self) -> list[Term]:
        full = frozenset(range(1, self.n + 1))
        return [u for u in self.support if self.mult[u] == full]

    # -- validation --------------------------------------------------------

    @cached_property
    def pair_table(self) -> PairTable:
        terms, at_most = self.support, at_most_masks(self.support)
        lands = [(1 << len(terms)) - 1 ^ 1 << r for r in range(len(terms))]
        for r, t in enumerate(terms):
            for i in self.nonmultiplicative_set(t):  # s lands where s_i <= t_i
                lands[r] &= at_most[i - 1][t[i - 1]]
        return PairTable({t: i for i, t in enumerate(terms)}, tuple(lands))

    def require_valid(self, what: str, full_slice: bool = True) -> None:
        """Raise InvalidDivisionError for what unless valid (and a full slice if full_slice)."""
        if full_slice and not self.is_full_slice:
            raise InvalidDivisionError(f"{what} needs a full-slice assignment")
        if not self.is_valid:
            raise InvalidDivisionError(f"{what} needs a valid assignment")

    @cached_property
    def is_valid(self) -> bool:
        """No violation at all: _violations() read up to its first item, once
        per division."""
        return next(self._violations(), None) is None

    def validate(self) -> ValidationReport:
        """Every violation of _violations(), and a note where coverage is left
        to the covering oracle."""
        notes = [] if self.is_full_slice else ["coverage unverified here"]
        return ValidationReport(list(self._violations()), notes)

    def _violations(self) -> Iterator[dict]:
        """The exact validity check, one violation at a time.

        Pairwise cone disjointness is decided by the gcd criterion: the cones
        of u and v meet iff the variables of u/gcd sit inside M(v) and those
        of v/gcd inside M(u), the lcm being the witness.  On a full slice,
        coverage of every higher degree is equivalent to the size profile
        matching the expected one, so validity is decided completely; on a
        general set coverage is not certified here (see the covering oracle).
        """
        terms, table = self.support, self.pair_table
        for i, u in enumerate(terms):
            for j in table.heads(i):
                if j > i and table.lands[j] >> i & 1:  # landing both ways
                    v = terms[j]
                    yield {"kind": "overlap", "u": format_term(u), "v": format_term(v),
                           "witness": format_term(term_lcm(u, v))}
        if not self.is_full_slice:
            return
        observed = self.sigma_profile()
        expected = sigma_expected(self.n, self.degree)
        if observed != expected:
            yield {"kind": "profile-mismatch", "observed": list(observed),
                   "expected": list(expected)}
        for i, name in enumerate(var_names(self.n), 1):
            if i not in self.mult[pure_power(self.n, self.degree, i)]:
                yield {"kind": "pure-power", "variable": name}
        peaks = self._peaks()
        if not peaks:
            yield {"kind": "no-peak"}
        elif len(peaks) > 1:
            yield {"kind": "multiple-peaks", "terms": [format_term(u) for u in peaks]}

    # -- permutation -------------------------------------------------------

    def permuted(self, pi: tuple[int, ...]) -> "RelDivision":
        """Rename variable i to pi[i-1] everywhere."""
        pi = check_permutation(pi, self.n)
        new_mult = {}
        for t, m in self.mult.items():
            t2 = [0] * self.n
            for i, e in enumerate(t):
                t2[pi[i] - 1] = e
            new_mult[tuple(t2)] = frozenset(pi[v - 1] for v in m)
        return RelDivision(self.n, self.degree, tuple(new_mult), new_mult)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        names = var_names(self.n)
        return {
            "n": self.n,
            "degree": self.degree,
            "variables": names,
            "multiplicative": {
                format_term(t): [names[i - 1] for i in sorted(self.mult[t])]
                for t in self.support
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "RelDivision":
        """Inverse of to_json_dict; raises ValueError on anything that does
        not follow its schema."""
        if not isinstance(data, dict):
            raise ValueError("a division must be a JSON object")
        try:
            n = data["n"]
            mult_raw = data["multiplicative"]
        except KeyError as exc:
            raise ValueError(f"division JSON misses key {exc}") from None
        if check_count(n) > MAX_VARS:
            raise ValueError(f"bad variable count {n} (a file may declare at most {MAX_VARS})")
        if "variables" in data and data["variables"] != var_names(n):
            raise ValueError(f"variables must be {var_names(n)} for n={n}")
        if not isinstance(mult_raw, dict):
            raise ValueError("multiplicative must map terms to variable lists")
        mult = {}
        for key, vals in mult_raw.items():
            t = parse_term(key, n)
            if t in mult:
                raise ValueError(f"duplicate term {key!r}")
            if not isinstance(vals, list):
                raise ValueError(f"multiplicative variables of {key!r} must be a list")
            mult[t] = parse_varset(vals, n)
        return cls(n, data.get("degree"), tuple(mult), mult)

    @classmethod
    def from_json(cls, text: str) -> "RelDivision":
        return cls.from_json_dict(json.loads(text))
