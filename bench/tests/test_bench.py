"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/tests -q

They run the traced workloads twice and take about a minute.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    runs = {}
    for name in WORKLOADS:
        runs[name] = []
        for _ in range(2):
            code, out = bench("--workload", name, "--seed", "5", "--trace", "1")
            assert code == 0, out
            runs[name].append(result(out))
    return runs


def test_traced_counts_repeat_exactly(traced_twice):
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for name, (first, second) in traced_twice.items():
        assert first["correct"] and second["correct"]
        assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in counted:
            assert first["metrics"][metric] == second["metrics"][metric], (name, metric)
    enum = traced_twice["enumerate"][0]["metrics"]
    assert enum["enumeration.assign.calls"]["value"] == 40_017
    assert enum["enumeration.candidates.calls"]["value"] == 116_431


def test_checker_fails_a_wrong_closure(monkeypatch, capsys):
    """A compliant closure missing a term fails ops, and tracing puts back
    exactly the functions it found."""
    worker.import_program()
    import conedec
    import conedec.closures
    from tracer import leftover_wrappers

    right = conedec.closures.compliant_closure

    @functools.wraps(right)
    def wrong(div, seed):
        report = right(div, seed)
        return conedec.ClosureReport(report.n, report.seed, report.closure[:-1],
                                     report.witnesses)

    monkeypatch.setattr(conedec, "compliant_closure", wrong)
    monkeypatch.setattr(conedec.closures, "compliant_closure", wrong)
    code = worker.main(["--workload", "certify-sweep", "--seed", "5", "--mode", "trace"])
    raw = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert raw["failed"] / raw["attempted"] > 0
    assert raw["leftover_wrappers"] == [] and leftover_wrappers() == []
    assert conedec.compliant_closure is wrong and conedec.closures.compliant_closure is wrong


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, out = bench("--workload", "enumerate", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert '"metrics"' not in out


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = WORKLOADS + [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(name.fullmatch(n) for n in names)
    assert all(unit.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
