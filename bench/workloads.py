"""The four benchmark workloads and the checks on their outputs.

A workload builds its inputs from the seed in its constructor (the set-up
phase).  `run_pass` then runs one pass over those inputs as a closed loop,
one operation after another, timing each into an OpLog and checking its
output.  Every pass of a run does the same work on fresh division objects,
so no cache filled by one pass serves the next.

Outputs are checked against goldens.json (digests recorded by
record_goldens.py from the commit that introduced this benchmark) and by
independent checks that need no golden.  The checks call no conedec
function, so they add nothing to the per-layer counts of a traced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from time import perf_counter

import conedec
from conedec import cli
from conedec.enumeration import ConflictError

FAILED = object()


class SetupError(Exception):
    """A set-up output disagrees with its golden."""


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class OpLog:
    """Latency of every operation and a description of every failed one.
    `between`, when set, runs at each boundary between operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.between = None

    def mark(self) -> None:
        if self.between is not None:
            self.between()

    def call(self, fn, *args, expected=()):
        """Time one operation.  Returns its result, the expected exception it
        raised, or FAILED after an unexpected exception."""
        self.mark()
        t0 = perf_counter()
        try:
            out = fn(*args)
        except expected as exc:
            out = exc
        except Exception as exc:  # a wrong behaviour of the program: count it and go on
            out = FAILED
            self.failures.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
        self.latencies.append(perf_counter() - t0)
        return out

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def fresh(div: conedec.RelDivision) -> conedec.RelDivision:
    """An equal division with empty caches."""
    return conedec.RelDivision(div.n, div.degree, div.support, dict(div.mult))


def reach_map(nodes, edges) -> list:
    """Forward-reachable set of every node, by a plain search over edge pairs."""
    succ = {t: [] for t in nodes}
    for tail, head, _ in edges:
        succ[tail].append(head)
    out = []
    for start in sorted(nodes):
        seen, todo = {start}, [start]
        while todo:
            for nxt in succ[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        out.append((start, sorted(seen)))
    return out


# -- enumerate -------------------------------------------------------------

class _LineSink:
    """Stand-in for stdout.  Each completed line is one operation, timed from
    the end of the previous one, and checked against its golden digest."""

    def __init__(self, log: OpLog, golden_lines: list[str]):
        self.log = log
        self.golden = golden_lines
        self.count = 0
        self.stream = hashlib.sha256()
        self._pending = ""
        self._t0 = perf_counter()

    def write(self, text: str) -> int:
        self._pending += text
        if "\n" in text:
            now = perf_counter()
            *lines, self._pending = self._pending.split("\n")
            for line in lines:
                self.log.latencies.append(now - self._t0)
                self.stream.update(line.encode() + b"\n")
                ok = self.count < len(self.golden) and digest(line) == self.golden[self.count]
                self.log.check(ok, f"enumerate line {self.count + 1} differs")
                self.count += 1
            self.log.mark()
            self._t0 = perf_counter()
        return len(text)

    def flush(self) -> None:
        pass


class Enumerate:
    """`conedec enumerate 3 3` in-process; one operation is one emitted line.
    The seed does not change this input."""

    name = "enumerate"
    ARGV = ["enumerate", "3", "3"]

    def __init__(self, seed: int, goldens: dict):
        self.golden = goldens[self.name]

    @classmethod
    def stream(cls) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(cls.ARGV)
        return out.getvalue()

    def run_pass(self, log: OpLog) -> None:
        sink = _LineSink(log, self.golden["lines"])
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(self.ARGV)
        except Exception as exc:  # the stream broke off: one failed operation
            log.failures.append(f"enumerate raised {exc!r}")
            return
        log.check(code == 0, f"enumerate exited with {code}")
        log.check(sink.count == len(self.golden["lines"]),
                  f"enumerate emitted {sink.count} lines")
        log.check(sink.stream.hexdigest() == self.golden["stream"], "enumerate stdout differs")


# -- certify-sweep ---------------------------------------------------------

def certify_pair(div, graph, seed):
    """One operation of the criterion-9 sweep on one (division, seed set) pair."""
    return (
        conedec.compliant_closure(div, seed),
        conedec.revenant_closure(div, seed),
        conedec.brute_compliant(div, seed),
        conedec.reachable_backward(graph, seed),
        conedec.reachable_forward(graph, seed),
        conedec.ideal_from_seed(div, seed, 3),
        conedec.escalier_from_seed(div, seed, 3),
    )


def pair_digest(out) -> str:
    """Digest of the contractual part of a pair's outputs: closure members and
    certified flags (witnesses and counterexamples are not contractual)."""
    comp, rev, _, _, _, ideal, esc = out
    return digest((sorted(comp.closure), sorted(rev.closure), ideal.certified, esc.certified))


def pair_consistent(out) -> bool:
    """Closures equal brute force and graph reachability; both are certified."""
    comp, rev, brute, back, fwd, ideal, esc = out
    members = set(comp.closure)
    return (members == set(brute) == set(back) == set(ideal.report.closure)
            and set(rev.closure) == set(fwd) == set(esc.report.closure)
            and ideal.certified and esc.certified)


def seed_of(div, mask: int) -> list:
    return [t for k, t in enumerate(div.support) if mask >> k & 1]


class CertifySweep:
    """Seeded (division, seed set) pairs from the criterion-9 space: the 42
    valid (3,2) divisions times the 64 subsets of their support."""

    name = "certify-sweep"
    N, D, DIVISIONS, MASKS = 3, 2, 42, 64
    PER_DIVISION = 8  # seed sets drawn per division for one pass

    def __init__(self, seed: int, goldens: dict):
        self.golden = goldens[self.name]
        rng = random.Random(seed)
        self.divisions = list(conedec.enumerate_divisions(self.N, self.D))
        if len(self.divisions) != self.DIVISIONS:
            raise SetupError(f"{len(self.divisions)} divisions on (3,2)")
        self.graphs = [conedec.generalized_graph(div) for div in self.divisions]
        for i, g in enumerate(self.graphs):
            if digest(reach_map(g.nodes, g.edges)) != self.golden["reach"][i]:
                raise SetupError(f"generalized graph reachability of division {i} differs")
        self.pairs = [(i, mask) for i in range(self.DIVISIONS)
                      for mask in rng.sample(range(self.MASKS), self.PER_DIVISION)]
        rng.shuffle(self.pairs)

    def run_pass(self, log: OpLog) -> None:
        divs = [fresh(div) for div in self.divisions]
        for i, mask in self.pairs:
            out = log.call(certify_pair, divs[i], self.graphs[i], seed_of(divs[i], mask))
            if out is FAILED:
                continue
            log.check(pair_consistent(out) and
                      pair_digest(out) == self.golden["pairs"][i * self.MASKS + mask],
                      f"certify pair ({i}, {mask}) differs")


# -- large-slice -----------------------------------------------------------

def relabel(t, pi):
    """Term t with variable i renamed to pi[i-1], as RelDivision.permuted does."""
    out = [0] * len(t)
    for i, e in enumerate(t):
        out[pi[i] - 1] = e
    return tuple(out)


def inverse(pi):
    inv = [0] * len(pi)
    for i, v in enumerate(pi):
        inv[v - 1] = i + 1
    return tuple(inv)


def edge_digest(g, inv) -> str:
    return digest(sorted((relabel(a, inv), relabel(b, inv), inv[j - 1] if j else None)
                         for a, b, j in g.edges))


def generalized_digest(g, inv) -> str:
    nodes = [relabel(t, inv) for t in g.nodes]
    return digest(reach_map(nodes, [(relabel(a, inv), relabel(b, inv), j) for a, b, j in g.edges]))


def closure_digest(report, inv) -> str:
    return digest(sorted(relabel(t, inv) for t in report.closure))


def round_trip(text: str):
    div = conedec.RelDivision.from_json(text)
    return div, div.to_json()


class LargeSlice:
    """Single calls on the Pommaret divisions of (6,4) and (5,4) under seeded
    variable orders, which also relabel the recorded closure seeds.  Goldens
    are taken on the identity order; outputs on a relabelled division are
    mapped back through the inverse renaming."""

    name = "large-slice"
    # (n, d, closure seeds recorded in the goldens); a fixed set keeps the
    # operation mix, and so the latency percentiles, the same for every seed
    SLICES = ((6, 4, 4), (5, 4, 2))

    def __init__(self, seed: int, goldens: dict):
        rng = random.Random(seed)
        self.cases = []
        for n, d, _ in self.SLICES:
            golden = goldens[self.name][f"{n},{d}"]
            order = tuple(rng.sample(range(1, n + 1), n))
            text = conedec.pommaret_on_slice(n, d, order).to_json()
            seeds = [([relabel(tuple(t), order) for t in c["seed"]], c)
                     for c in golden["closures"]]
            self.cases.append((order, text, golden, seeds))

    def run_pass(self, log: OpLog) -> None:
        for order, text, golden, seeds in self.cases:
            inv = inverse(order)
            out = log.call(round_trip, text)
            if out is FAILED:
                continue
            div, text2 = out
            log.check(text2 == text, "JSON round trip differs")
            ops = [
                (conedec.RelDivision.validate, lambda r: r.valid),
                (conedec.detect_pommaret, lambda r: r == order),
                (conedec.canonical_form, lambda r: digest(r) == golden["canonical"]),
                (conedec.ufnarovsky_graph, lambda r: edge_digest(r, inv) == golden["ufnarovsky"]),
                (conedec.redundant_graph, lambda r: edge_digest(r, inv) == golden["redundant"]),
                (conedec.generalized_graph,
                 lambda r: generalized_digest(r, inv) == golden["generalized_reach"]),
            ]
            for fn, ok in ops:
                res = log.call(fn, div)
                if res is not FAILED:
                    log.check(ok(res), f"{fn.__name__} on order {order} differs")
            for seed, want in seeds:
                for fn, key in ((conedec.compliant_closure, "compliant"),
                                (conedec.revenant_closure, "revenant")):
                    res = log.call(fn, div, seed)
                    if res is not FAILED:
                        log.check(closure_digest(res, inv) == want[key],
                                  f"{fn.__name__} of {want['seed']} on order {order} differs")
            res = log.call(conedec.verify_division_covering, div, 2)
            if res is not FAILED:
                log.check(res.valid, f"covering check on order {order} failed")


# -- build-walk ------------------------------------------------------------

def walk_seed(n: int, d: int, w: int) -> int:
    return n * 10_000 + d * 1_000 + w


def build_walk(n: int, d: int, wseed: int, log: OpLog):
    """Random interactive session: pick an open term, try its candidates in a
    random order until one is accepted; stop when complete or when every
    candidate of the picked term is rejected.  Returns the log of
    (term, set, accepted), the final cell table and completeness, or FAILED."""
    rng = random.Random(wseed)
    session = conedec.BuildSession(n, d)
    steps = []
    while not session.complete:
        t = rng.choice(session.state.unassigned())
        cands = session.state.candidates(t)
        rng.shuffle(cands)
        for m in cands:
            out = log.call(session.assign, t, m, expected=(ConflictError,))
            if out is FAILED:
                return FAILED
            accepted = not isinstance(out, ConflictError)
            steps.append((t, sorted(m), accepted))
            if accepted:
                break
        else:
            break
    return steps, session.table(), session.complete


class BuildWalk:
    """Seeded interactive BuildSession walks on (5,4) and (6,3), drawn from a
    catalogue of 64 walks per slice, plus a replay of a relabelled (6,4)
    Pommaret division in seeded row order, which must complete."""

    name = "build-walk"
    SLICES = ((5, 4), (6, 3))
    CATALOGUE = 64
    PER_SLICE = 12  # walks per slice in one pass
    REPLAY = (6, 4)

    def __init__(self, seed: int, goldens: dict):
        self.golden = goldens[self.name]
        rng = random.Random(seed)
        self.walks = [(n, d, w) for n, d in self.SLICES
                      for w in rng.sample(range(self.CATALOGUE), self.PER_SLICE)]
        rng.shuffle(self.walks)
        n, d = self.REPLAY
        self.target = conedec.pommaret_on_slice(n, d, tuple(rng.sample(range(1, n + 1), n)))
        self.rows = list(self.target.support)
        rng.shuffle(self.rows)

    def run_pass(self, log: OpLog) -> None:
        for n, d, w in self.walks:
            out = build_walk(n, d, walk_seed(n, d, w), log)
            if out is not FAILED:
                log.check(digest(out) == self.golden[f"{n},{d}"][w],
                          f"walk {w} on ({n},{d}) differs")
        session = conedec.BuildSession(*self.REPLAY)
        for t in self.rows:
            if t in session.state.assigned:
                continue
            if log.call(session.assign, t, self.target.mult[t]) is FAILED:
                return
        log.check(session.state.assigned == self.target.mult, "replay did not rebuild its target")


WORKLOADS = {cls.name: cls for cls in (Enumerate, CertifySweep, LargeSlice, BuildWalk)}
