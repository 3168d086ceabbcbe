"""The conedec benchmark: runs workloads and prints every metric with its unit.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs every workload named in BENCHMARK.json, one after
the other.  Each workload runs in its own single-threaded worker process
(worker.py), started from the root of the checkout.

--trace 0 measures the end-to-end metrics: one process runs untraced passes
for S seconds, and set-up-only processes before and after it give set-up time
samples (process start to the first timed operation).  Timings are scaled to
a nominal host speed, as worker.py describes.  --trace 1 runs one
untraced and one traced pass in one process and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.

Every line but the last is a table row `workload metric value unit`.  The last
line is one JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 when every operation was correct; 1 when one failed, a set-up
check failed or a worker did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # set-up-only processes before and again after the measured one
DEADLINE_S = 170  # a whole run must end within 180 s


class WorkerError(Exception):
    pass


def start_worker(workload: str, seed: int, mode: str, seconds: float, timeout: float):
    """Run worker.py to completion; returns (exit code, raw result, start time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} {mode} worker did not finish in {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise WorkerError(f"{workload} {mode} worker exited with {proc.returncode}")
    return proc.returncode, json.loads(lines[-1]), started


def scaled_setup(raw: dict, started: float) -> float:
    """Process start to the end of set-up, scaled like every timing (see worker.py)."""
    return (raw["ready"] - started) * REF_S / raw["setup_ref_s"]


def setup_time(workload: str, seed: int, deadline: float) -> float:
    _, raw, started = start_worker(workload, seed, "setup", 0, deadline - time.monotonic())
    return scaled_setup(raw, started)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """Set-up time is the median over processes spread across the whole run."""
    setup = [setup_time(workload, seed, deadline) for _ in range(SETUP_PROBES)]
    _, raw, started = start_worker(workload, seed, "measure", seconds, deadline - time.monotonic())
    setup.append(scaled_setup(raw, started))
    setup += [setup_time(workload, seed, deadline) for _ in range(SETUP_PROBES)]
    print(f"{workload}: reference loop {raw['ref_s'] * 1000:.2f} ms"
          f" (timings are scaled to {REF_S * 1000:.0f} ms)", file=sys.stderr)
    values = {name: raw[name] for name in
              ("run_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setup)
    values["ok_ratio"] = 1 - raw["failed"] / raw["attempted"]
    return raw, values


def per_layer_value(raw: dict, name: str) -> float:
    """A per-layer metric by name: trace.overhead_ratio, <layer>.self_s, or
    <layer>.<function>.<calls|self_s|conflicts|rejected|accept_ratio>."""
    if name == "trace.overhead_ratio":
        return raw["overhead_ratio"]
    key, _, stat = name.rpartition(".")
    if key in raw["layers"] and stat == "self_s":
        return raw["layers"][key]
    if key not in raw["keys"]:
        raise WorkerError(f"per-layer metric {name}: no traced function {key}")
    calls, raised, self_s = raw["stats"].get(key, (0, 0, 0.0))
    return {
        "calls": calls,
        "self_s": self_s,
        "conflicts": raised,
        "rejected": raised,
        "accept_ratio": (calls - raised) / calls if calls else 0.0,
    }[stat]


def per_layer(workload: str, seed: int, deadline: float):
    _, raw, _ = start_worker(workload, seed, "trace", 0, deadline - time.monotonic())
    if raw["leftover_wrappers"]:
        raise WorkerError(f"tracing wrappers left installed: {raw['leftover_wrappers']}")
    return raw


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float):
    if trace:
        raw = per_layer(workload, seed, deadline)
        metrics = {m["name"]: (per_layer_value(raw, m["name"]), m["unit"])
                   for m in spec["per_layer"]}
    else:
        raw, values = end_to_end(workload, seed, seconds, deadline)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    for failure in raw["failures"]:
        print(f"{workload}: FAILED {failure}", file=sys.stderr)
    return raw["attempted"], raw["failed"], metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names, help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    chosen = [args.workload] if args.workload else names
    attempted = failed = 0
    metrics = {}
    for workload in chosen:
        deadline = time.monotonic() + DEADLINE_S
        try:
            a, f, values = run_workload(spec, workload, args.seed, args.seconds,
                                        bool(args.trace), deadline)
        except WorkerError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        attempted += a
        failed += f
        for name, (value, unit) in values.items():
            print(f"{workload:<14} {name:<40} {value:>16.6f} {unit}")
            key = name if args.workload else f"{workload}/{name}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
