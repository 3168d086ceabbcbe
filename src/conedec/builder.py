"""Step-by-step construction of an assignment with live constraint feedback.

A session tracks one PartialAssignment.  Each choice is propagated; the
table shows, per term and variable, whether the variable is settled in,
settled out, tied up in a joint restriction, or still free.  Once every
remaining term has all its variables settled the session fills them in
by itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .division import RelDivision
from .enumeration import ConflictError, PartialAssignment, seed_constraints
from .terms import (
    Term,
    VarSet,
    check_varset,
    format_term,
    parse_term,
    parse_varset,
    support_key,
    var_names,
)


class ScriptError(Exception):
    pass


def _settle(state: PartialAssignment) -> PartialAssignment:
    """state completed with the required sets when every open term has all its
    variables required or forced out, else state.  Filling a term in leaves
    the others' rows as they are, so one pass completes it or raises."""
    todo = state.unassigned()
    if any(len(state.required(t)) + len(state.forced_out[t]) < state.n for t in todo):
        return state
    for t in todo:
        state = state.assign(t, state.required(t))
    return state


CELL_IN = "in"
CELL_OUT = "out"
CELL_GROUP = "group"
CELL_FREE = "free"


@dataclass
class BuildSession:
    n: int
    d: int
    state: PartialAssignment = field(init=False)
    log: list[tuple[Term, VarSet]] = field(init=False, default_factory=list)

    def __post_init__(self):
        self.state = _settle(seed_constraints(self.n, self.d))

    # -- choices -----------------------------------------------------------

    def assign(self, t: Term, m: VarSet) -> None:
        """Apply one choice and what it settles; ConflictError changes nothing."""
        self.state = _settle(self.state.assign(t, m))
        # state.assign has refused any t or m it cannot store; log what it stored
        t = support_key(t, self.state.forced_out)
        self.log.append((t, self.state.assigned[t]))

    @property
    def complete(self) -> bool:
        return len(self.state.assigned) == len(self.state.support)

    def division(self) -> RelDivision:
        if not self.complete:
            raise ConflictError("the assignment is incomplete")
        return RelDivision.on_slice(self.n, self.d, self.state.assigned)

    # -- rendering ---------------------------------------------------------

    def cell_state(self, t: Term, v: int) -> str:
        t = support_key(t, self.state.forced_out)
        check_varset((v,), self.n)
        if v in self.state.required(t):
            return CELL_IN
        if t in self.state.assigned or v in self.state.forced_out[t]:
            return CELL_OUT
        if any(v in g for g in self.state.groups[t]):
            return CELL_GROUP
        return CELL_FREE

    def table(self) -> list[tuple[Term, list[str]]]:
        return [
            (t, [self.cell_state(t, v) for v in range(1, self.n + 1)])
            for t in self.state.support
        ]

    def render(self, color: bool = False) -> str:
        names = var_names(self.n)
        marks = {CELL_OUT: "×", CELL_GROUP: "/", CELL_FREE: "?"}
        paint = {
            CELL_IN: "\x1b[32m{}\x1b[0m",
            CELL_OUT: "\x1b[31m{}\x1b[0m",
            CELL_GROUP: "\x1b[33m{}\x1b[0m",
            CELL_FREE: "{}",
        }
        width = max(len(format_term(t)) for t in self.state.support)
        lines = []
        for t, cells in self.table():
            shown = []
            for v, state in enumerate(cells, start=1):
                mark = names[v - 1] if state == CELL_IN else marks[state]
                shown.append(paint[state].format(mark) if color else mark)
            star = "" if t in self.state.assigned else "  (open)"
            lines.append(f"{format_term(t):<{width}}  {' '.join(shown)}{star}")
        return "\n".join(lines)


def parse_script(text: str, n: int) -> list[tuple[Term, VarSet]]:
    """One choice per line, 'term = vars'; blank lines and # comments skipped."""
    return [(t, m) for _, t, m in _numbered_choices(text, n)]


def _numbered_choices(text: str, n: int) -> list[tuple[int, Term, VarSet]]:
    choices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScriptError(f"line {lineno}: expected 'term = vars'")
        left, right = line.split("=", 1)
        try:
            t = parse_term(left.strip(), n)
            m = parse_varset([v for v in right.replace(",", " ").split() if v], n)
        except ValueError as exc:
            raise ScriptError(f"line {lineno}: {exc}") from None
        choices.append((lineno, t, m))
    return choices


def run_script(n: int, d: int, text: str) -> BuildSession:
    """Replay a script; raises ConflictError/ScriptError on the first bad line."""
    session = BuildSession(n, d)
    for lineno, t, m in _numbered_choices(text, n):
        try:
            session.assign(t, m)
        except LookupError as exc:  # a term outside the slice
            raise ScriptError(f"line {lineno}: {exc}") from None
        except ConflictError as exc:
            raise ConflictError(f"line {lineno}: {exc}") from None
    return session
