"""Command-line front end.

Exit codes: 0 success (valid / certified / complete), 1 semantic failure,
2 usage errors.  All JSON output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from bisect import bisect_right
from itertools import islice
from math import comb

from . import builder as builder_mod
from .classical import janet_on_slice, pommaret_on_slice
from .closures import escalier_from_seed, ideal_from_seed
from .division import MAX_VARS, DivisionError, InvalidDivisionError, RelDivision
from .enumeration import ConflictError, enumerate_divisions, orbit_size
from .graphs import generalized_graph, redundant_graph, ufnarovsky_graph
from .oracle import verify_division_covering, walk_degrees
from .terms import (
    format_term,
    parse_term,
    sigma_expected,
    var_names,
    vandermonde_identity_check,
)

USAGE_ERROR = 2

# Largest slice gen, build and enumerate accept, and largest division file, in
# terms: validate holds one N-bit landing mask per term, 24 MB at 1,953 terms.
MAX_SLICE_TERMS = 2_000
# Largest oracle walk (validate --oracle, closure --certify), in terms walked ×
# support terms: at most that many cone terms built plus divisors tested (twice
# for a certificate), the worst case of an all-variables file.  The slowest file
# tried, x1..x6 each with every variable at --oracle 15, takes 1.2-1.3 s on 2
# cores; the constant term with every variable of 3 at --oracle 142, 0.6-0.7 s.
MAX_ORACLE_WORK = 500_000
# Largest enumerate search, in terms × 2^(n-1): a term with one required
# variable has 2^(n-1) candidate sets, listed at the root and wherever its
# rows change.  The largest slices enumerated to completion, (4,2), (3,4),
# (5,1) and (3,5), are 60-84; (3,5) takes about 22 s on a 2-core host.
MAX_SEARCH_WIDTH = 4_096
# Largest sigma and vandermonde degree: the largest profile entry, C(d+n-2, n-1),
# then has at most 3,693 digits at n = 64, under the 4,300 Python prints by default.
MAX_PROFILE_DEGREE = 10**60
# Largest vandermonde d_max: one exact binomial sum per degree, about 3 s at
# n = 64 and degree 10^60 on a 2-core host.
MAX_IDENTITY_DEGREE = 10_000


class UsageError(Exception):
    """Bad input from the user; reported with exit code 2."""


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in lo..hi; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lo or (hi is not None and value > hi):
            span = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"{value} is not {span}")
        return value

    return parse


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


_VAR_COUNT = _int_in(1, MAX_VARS)
_NON_NEGATIVE = _int_in(0)


def _print_json(obj, compact: bool = False) -> None:
    """One JSON line with compact, else the text of json.dumps(obj, indent=2),
    written as it is encoded, in batches of encoder chunks (json.dump writes
    each small chunk on its own, about twice as slow)."""
    if compact:
        print(json.dumps(obj, separators=(",", ":")))
        return
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while text := "".join(islice(chunks, 1 << 16)):
        sys.stdout.write(text)
    sys.stdout.write("\n")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def _load_division(path: str) -> RelDivision:
    text = _read_text(path)
    try:
        div = RelDivision.from_json(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise UsageError(f"{path} is not a division file: {exc}") from None
    if len(div.support) > MAX_SLICE_TERMS:
        raise UsageError(
            f"{path} has {len(div.support)} terms; at most {MAX_SLICE_TERMS} are accepted")
    return div


def _check_slice(n: int, d: int, search: bool = False) -> None:
    """Reject a slice too large to list, or with search, to enumerate."""
    terms = comb(n + d - 1, d)
    if terms > MAX_SLICE_TERMS:
        raise UsageError(
            f"the ({n},{d}) slice has {terms} terms; at most {MAX_SLICE_TERMS} are accepted")
    if search and terms << (n - 1) > MAX_SEARCH_WIDTH:
        raise UsageError(
            f"the ({n},{d}) slice is too wide to enumerate: {terms} terms × 2^{n - 1}"
            f" candidate sets exceeds {MAX_SEARCH_WIDTH}")


def _check_oracle_work(option: str, margin: int, div: RelDivision) -> None:
    """Refuse an oracle walk whose terms (of oracle.walk_degrees) times the support
    terms exceed MAX_ORACLE_WORK; name the largest margin that fits."""

    def work(k: int) -> int:  # terms of degree start..stop - 1, times the support terms
        walk, n = walk_degrees(div, k), div.n
        return (comb(walk.stop - 1 + n, n) - comb(walk.start - 1 + n, n)) * len(div.support)
    if work(margin) > MAX_ORACLE_WORK:
        fits = bisect_right(range(margin), MAX_ORACLE_WORK, key=work) - 1
        advice = (f"use {option} {fits}, the largest margin that fits" if fits >= 0
                  else f"no {option} margin fits this file")
        raise UsageError(f"{option} {margin} would test {work(margin):,} (term, support"
                         f" term) pairs, more than {MAX_ORACLE_WORK:,}; {advice}")


def _color_allowed() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def cmd_gen(args) -> int:
    _check_slice(args.n, args.degree)
    if args.kind == "pommaret":
        try:
            div = pommaret_on_slice(args.n, args.degree, args.order)
        except ValueError as exc:  # the order is not a permutation of 1..n
            raise UsageError(f"--order: {exc}") from None
    else:
        if args.order:
            raise UsageError("--order applies to pommaret only")
        div = janet_on_slice(args.n, args.degree)
    print(div.to_json())
    return 0


def cmd_validate(args) -> int:
    div = _load_division(args.division)
    report = div.validate()
    if args.oracle is not None:
        _check_oracle_work("--oracle", args.oracle, div)
        report = report.merged(verify_division_covering(div, args.oracle))
    _print_json(report.to_json_dict())
    return 0 if report.valid else 1


def cmd_enumerate(args) -> int:
    _check_slice(args.n, args.degree, search=True)
    count = 0
    sizes = []
    for div in enumerate_divisions(args.n, args.degree, args.orbits):
        count += 1
        if args.orbits:
            sizes.append(orbit_size(div))
        _print_json(div.to_json_dict(), compact=True)
    summary: dict = {"count": count}
    if args.orbits:
        summary["orbit_sizes"] = sizes
    _print_json(summary, compact=True)
    return 0


def cmd_graph(args) -> int:
    div = _load_division(args.division)
    build = {
        "ufnarovsky": ufnarovsky_graph,
        "redundant": redundant_graph,
        "generalized": generalized_graph,
    }[args.kind]
    g = build(div)
    if args.format == "dot":
        print(g.to_dot(), end="")
    else:
        _print_json(g.to_json_dict())
    return 0


def cmd_closure(args) -> int:
    div = _load_division(args.division)
    try:
        seed = [parse_term(s, div.n) for s in args.seed]
    except ValueError as exc:
        raise UsageError(f"bad seed term: {exc}") from None
    for text, t in zip(args.seed, seed):
        if t not in div.mult:
            raise UsageError(f"seed term {text} is not in the support")
    if div.is_full_slice:  # elsewhere the closure fails before it certifies
        _check_oracle_work("--certify", args.certify, div)
    run = ideal_from_seed if args.mode == "ideal" else escalier_from_seed
    result = run(div, seed, args.certify)
    payload = result.report.to_json_dict()
    payload["certified"] = result.certified
    bad = result.counterexample
    if bad is not None:  # ideal: one term; escalier: [term, divisor]
        payload["counterexample"] = (format_term(bad) if args.mode == "ideal"
                                     else [format_term(t) for t in bad])
    _print_json(payload)
    return 0 if result.certified else 1


def cmd_sigma(args) -> int:
    if args.division is not None:
        div = _load_division(args.division)
        if not div.is_full_slice:
            raise InvalidDivisionError("profile comparison needs a full-slice division")
        observed = list(div.sigma_profile())
        expected = list(sigma_expected(div.n, div.degree))
        _print_json({"profile": observed, "expected": expected,
                     "match": observed == expected})
        return 0 if observed == expected else 1
    expected = list(sigma_expected(args.n, args.degree))
    _print_json({"expected": expected, "sum": sum(expected)})
    return 0


def cmd_vandermonde(args) -> int:
    ok = vandermonde_identity_check(args.n, args.degree, args.d_max)
    _print_json({"n": args.n, "degree": args.degree, "d_max": args.d_max, "holds": ok})
    return 0 if ok else 1


def _build_interactive(n: int, d: int) -> builder_mod.BuildSession:
    """Take choices until the session completes, or an empty line, end of
    input or Ctrl-C stops it."""
    session = builder_mod.BuildSession(n, d)
    print(f"assigning T_{d} in variables {', '.join(var_names(n))};"
          " enter 'term = vars', empty line to stop", file=sys.stderr)
    while not session.complete:
        print(session.render(_color_allowed()), file=sys.stderr)
        try:
            line = input("choice> ")
        except (EOFError, KeyboardInterrupt):
            print(file=sys.stderr)  # end the prompt line
            break
        if not line.strip():
            break
        try:
            for t, m in builder_mod.parse_script(line, n):
                session.assign(t, m)
        except (builder_mod.ScriptError, ConflictError, LookupError, ValueError) as exc:
            print(f"rejected: {exc}", file=sys.stderr)
    return session


def cmd_build(args) -> int:
    _check_slice(args.n, args.degree)
    if args.script:
        session = builder_mod.run_script(args.n, args.degree, _read_text(args.script))
    elif sys.stdin.isatty():
        session = _build_interactive(args.n, args.degree)
    else:
        raise UsageError("interactive build needs a terminal; use --script")
    print(session.render(_color_allowed()), file=sys.stderr)
    div = session.division()  # ConflictError while the assignment is incomplete
    print(div.to_json())
    return 0 if div.is_valid else 1


def _add_slice_args(p) -> None:
    p.add_argument("n", type=_VAR_COUNT, help="number of variables")
    p.add_argument("degree", type=_NON_NEGATIVE, help="slice degree")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conedec",
        description="cone decompositions of monomial degree slices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a classical assignment as JSON")
    p.add_argument("kind", choices=["pommaret", "janet"])
    _add_slice_args(p)
    p.add_argument("--order", type=_int_list,
                   help="comma-separated variable indices, smallest first")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("validate", help="check a division JSON file")
    p.add_argument("division")
    p.add_argument("--oracle", type=_NON_NEGATIVE, metavar="K",
                   help="also brute-force coverage up to degree+K")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("enumerate", help="stream all valid assignments")
    _add_slice_args(p)
    p.add_argument("--orbits", action="store_true",
                   help="one representative per renaming orbit")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("graph", help="emit a propagation graph")
    p.add_argument("division")
    p.add_argument("--kind", choices=["ufnarovsky", "redundant", "generalized"],
                   default="ufnarovsky")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("closure", help="compliant/revenant closure of a seed")
    p.add_argument("division")
    p.add_argument("seed", nargs="+", help="seed terms")
    p.add_argument("--mode", choices=["ideal", "escalier"], default="ideal")
    p.add_argument("--certify", type=_NON_NEGATIVE, default=3, metavar="K",
                   help="brute-force margin (default 3)")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("build", help="assemble an assignment choice by choice")
    _add_slice_args(p)
    p.add_argument("--script", help="file of 'term = vars' lines")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("sigma", help="expected size profile, optionally vs a division")
    p.add_argument("n", type=_VAR_COUNT, nargs="?")
    p.add_argument("degree", type=_NON_NEGATIVE, nargs="?")
    p.add_argument("--division", help="division JSON to compare")
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("vandermonde", help="check the profile splitting identity")
    _add_slice_args(p)
    p.add_argument("d_max", type=_int_in(0, MAX_IDENTITY_DEGREE), nargs="?", default=12)
    p.set_defaults(fn=cmd_vandermonde)

    return parser


def main(argv=None) -> int:
    """Run one command; commands raise, and only here do exceptions become
    exit codes (argparse exits 2 on a malformed command line by itself)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sigma" and (args.n is None, args.degree is None) != (
            (args.division is not None,) * 2):
        parser.error("sigma takes n and degree, or --division FILE alone")
    if args.command in ("sigma", "vandermonde") and (args.degree or 0) > MAX_PROFILE_DEGREE:
        parser.error(f"a degree of {len(str(args.degree)):,} digits exceeds 10^60")
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (builder_mod.ScriptError, ConflictError) as exc:
        print(f"conflict: {exc}", file=sys.stderr)
        return 1
    except (DivisionError, LookupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Process entry point; a closed stdout exits 1 without a traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # Python's SIGPIPE recipe: devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
