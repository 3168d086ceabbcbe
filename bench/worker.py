"""One workload in one single-threaded process; prints its raw results as a JSON line.

    python3 bench/worker.py --workload NAME --seed N --mode setup|measure|trace --seconds S

run.py starts this script.  Modes:
  setup    build the inputs and stop (a set-up time sample);
  measure  untraced passes over the inputs until S seconds are spent;
  trace    one untraced and one traced pass (set-up traced too), for
           per-layer counts that repeat exactly and the tracing overhead.
"ready" in the output is time.monotonic() when set-up ended, which run.py
compares with the time it started the process.  Exit code 0 when every
operation was correct, 1 otherwise.

The host's speed drifts by up to 2x over tens of seconds, so timings are
scaled by REF_S / the time of a fixed reference loop run in the same process:
three times right after set-up, and during measured passes at operation
boundaries, at most SAMPLE_S apart.  The traced run reports raw times.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from itertools import product
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REF_S = 0.015  # about the median of reference() on the 2-core VM of README.md
SAMPLE_S = 0.5  # most workload time between two reference samples in a pass
_REF_TERMS = [t for t in product(range(5), repeat=5) if sum(t) == 4]


def reference() -> float:
    """Wall time of a fixed loop of the tuple and set work the program does:
    the support of t / gcd(t, u) for all pairs of the 70 degree-4 terms in
    5 variables."""
    t0 = perf_counter()
    for a in _REF_TERMS:
        for b in _REF_TERMS:
            q = tuple(x - min(x, y) for x, y in zip(a, b))
            frozenset(i for i, e in enumerate(q) if e)
    return perf_counter() - t0


def import_program():
    """Import conedec from the source tree next to this directory, never from
    an installed copy."""
    sys.path.insert(0, str(SRC))
    import conedec

    origin = Path(conedec.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"conedec was imported from {origin}, not from {SRC}")


class Samples:
    """Reference-loop samples taken during one pass: (start, end, reference
    time, operations completed so far)."""

    def __init__(self, log):
        self.log = log
        self.taken: list[tuple[float, float, float, int]] = []

    def take(self) -> None:
        start = perf_counter()
        ref = reference()
        self.taken.append((start, perf_counter(), ref, len(self.log.latencies)))

    def due(self) -> None:
        if perf_counter() - self.taken[-1][1] >= SAMPLE_S:
            self.take()


def measure(wl, log, seconds: float) -> dict:
    """Passes until `seconds` are spent.  The time between two reference
    samples, sampling excluded, and the operations in it are scaled by
    REF_S / the mean of the two samples."""
    passes, lat_ms, refs = [], [], []
    samples = Samples(log)
    log.between = samples.due
    deadline = perf_counter() + seconds
    while True:
        samples.taken = []
        samples.take()
        wl.run_pass(log)
        samples.take()
        pass_s = 0.0
        for (_, end, ref0, n0), (start, _, ref1, n1) in zip(samples.taken, samples.taken[1:]):
            scale = 2 * REF_S / (ref0 + ref1)
            pass_s += (start - end) * scale
            lat_ms += [x * scale * 1000 for x in log.latencies[n0:n1]]
        passes.append(pass_s)
        refs += [ref for _, _, ref, _ in samples.taken]
        if perf_counter() >= deadline:
            break
    return {
        "passes": len(passes),
        "ref_s": statistics.median(refs),
        "run_s": statistics.median(passes),
        "ops_per_s": len(lat_ms) / sum(passes),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(wl, log, tracer) -> dict:
    from tracer import leftover_wrappers

    t0 = perf_counter()
    wl.run_pass(log)
    plain_s = perf_counter() - t0
    with tracer.installed():
        t0 = perf_counter()
        wl.run_pass(log)
        traced_s = perf_counter() - t0
    return {
        "overhead_ratio": traced_s / plain_s,
        "keys": sorted(tracer.keys()),
        "stats": {k: [s.calls, s.raised, s.self_s] for k, s in sorted(tracer.stats.items())},
        "layers": tracer.layer_self_s(),
        "leftover_wrappers": leftover_wrappers(),
    }


def run(workload: str, seed: int, mode: str, seconds: float) -> dict:
    """Set up and run one workload in this process; returns the raw results."""
    import workloads
    from tracer import Tracer

    goldens = json.loads((HERE / "goldens.json").read_text())
    cls = workloads.WORKLOADS[workload]
    tracer = Tracer()
    if mode == "trace":
        with tracer.installed():
            wl = cls(seed, goldens)
    else:
        wl = cls(seed, goldens)
    result = {"ready": time.monotonic(),
              "setup_ref_s": statistics.median(reference() for _ in range(3))}
    if mode == "setup":
        return result
    log = workloads.OpLog()
    result.update(measure(wl, log, seconds) if mode == "measure" else trace(wl, log, tracer))
    result["attempted"] = max(len(log.latencies), len(log.failures))
    result["failed"] = len(log.failures)
    result["failures"] = log.failures[:10]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    import_program()
    from workloads import SetupError

    try:
        result = run(args.workload, args.seed, args.mode, args.seconds)
    except SetupError as exc:
        print(f"set-up check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 1 if result.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
