from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import islice

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conedec import (
    RelDivision, enumerate_divisions, enumerate_terms, pommaret_general, pommaret_on_slice,
    verify_division_covering)
from conedec.cli import (
    MAX_IDENTITY_DEGREE, MAX_ORACLE_WORK, MAX_PROFILE_DEGREE, MAX_SLICE_TERMS, main)

from conftest import make_division, mutated


@pytest.fixture
def p32_file(tmp_path):
    path = tmp_path / "p32.json"
    path.write_text(pommaret_on_slice(3, 2).to_json())
    return str(path)


@pytest.fixture
def general_file(tmp_path):
    path = tmp_path / "general.json"
    path.write_text(pommaret_general([(2, 0, 0), (1, 1, 0), (0, 0, 3)], 3).to_json())
    return str(path)


@pytest.fixture
def bad31_file(tmp_path):
    div = make_division(3, 1, {"x": "x,y", "y": "y,z", "z": "x,z"})
    path = tmp_path / "bad31.json"
    path.write_text(div.to_json())
    return str(path)


def test_gen_pommaret(capsys):
    assert main(["gen", "pommaret", "3", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degree"] == 2
    assert data["multiplicative"]["z^2"] == ["x", "y", "z"]
    assert list(data["multiplicative"]) == ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]


def test_gen_janet_identical_output(capsys):
    main(["gen", "pommaret", "3", "2"])
    pom = capsys.readouterr().out
    main(["gen", "janet", "3", "2"])
    jan = capsys.readouterr().out
    assert pom == jan


def test_gen_reordered(capsys):
    assert main(["gen", "pommaret", "3", "2", "--order", "3,2,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["multiplicative"]["z^2"] == ["z"]
    assert data["multiplicative"]["x^2"] == ["x", "y", "z"]


def test_gen_output_roundtrips(capsys):
    main(["gen", "pommaret", "4", "3"])
    text = capsys.readouterr().out
    div = RelDivision.from_json(text)
    assert div.to_json() + "\n" == text


def test_validate_ok(capsys, p32_file):
    assert main(["validate", p32_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"valid": True, "violations": [], "notes": []}


def test_validate_invalid(capsys, bad31_file):
    assert main(["validate", bad31_file]) == 1
    data = json.loads(capsys.readouterr().out)
    assert not data["valid"]
    kinds = {v["kind"] for v in data["violations"]}
    assert kinds == {"profile-mismatch", "no-peak"}


def test_validate_with_oracle(capsys, bad31_file):
    assert main(["validate", bad31_file, "--oracle", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    kinds = {v["kind"] for v in data["violations"]}
    assert "uncovered" in kinds
    assert any(v.get("term") == "x*y*z" for v in data["violations"])


def test_validate_empty_support_with_oracle(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 2, "degree": null, "multiplicative": {}}')
    assert main(["validate", str(path), "--oracle", "1"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["valid"] is True and data["violations"] == []
    assert captured.err == ""


@pytest.mark.parametrize("text, argv, advice", [
    # degrees 2..1000 in 2 variables against 2 terms: 1,002,996 pairs at margin 0
    (lambda: '{"n": 2, "multiplicative": {"x": ["x"], "y^1000": ["y"]}}',
     ["validate", "F", "--oracle", "0"], "no --oracle margin fits this file"),
    # degrees 3..5 in 40 variables against 820 terms; margin 1 alone is 9.4 M pairs
    (lambda: pommaret_on_slice(40, 2).to_json(), ["closure", "F", "x1^2"],
     "use --certify 0, the largest margin that fits"),
    # degrees 5..7 in 7 variables against 210 terms: 651,420 pairs; 5..6: 291,060
    (lambda: pommaret_on_slice(7, 4).to_json(), ["closure", "F", "x1^4", "--mode", "escalier"],
     "use --certify 2, the largest margin that fits"),
], ids=["validate-y1000", "closure-pommaret-40-2", "closure-pommaret-7-4"])
def test_oracle_walk_over_the_bound_is_refused_before_it_starts(
        capsys, monkeypatch, tmp_path, text, argv, advice):
    def walked(*args):
        raise AssertionError("the oracle walked")

    for name in ("verify_division_covering", "verify_ideal_equality", "verify_order_ideal"):
        monkeypatch.setattr(f"conedec.oracle.{name}", walked)
    monkeypatch.setattr("conedec.cli.verify_division_covering", walked)
    path = tmp_path / "division.json"
    path.write_text(text())
    assert main([str(path) if a == "F" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"more than {MAX_ORACLE_WORK:,}; {advice}" in captured.err


def test_validate_missing_file(capsys, tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_enumerate_with_orbits(capsys):
    assert main(["enumerate", "3", "2", "--orbits"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    summary = json.loads(lines[-1])
    assert summary["count"] == 8
    assert sorted(summary["orbit_sizes"]) == [3, 3, 6, 6, 6, 6, 6, 6]
    for line in lines[:-1]:
        div = RelDivision.from_json(line)
        assert div.validate().valid


def test_enumerate_full_stream(capsys):
    assert main(["enumerate", "2", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == {"count": 3}
    assert len(lines) == 4


def test_enumerate_33_stream_is_unchanged(capsys):
    assert main(["enumerate", "3", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0fc1dc97b3bd05455f5a5f848a0df7c0d57f5fcb526207eb5d22858d8dd5edfb")


@pytest.mark.parametrize("n,d,digest", [
    ("6", "1", "3081864f68395341867d0173e34c0f5f57ec8e29a250234723a2c25a207a9c9f"),
    ("2", "5", "ca2c6afd12fe2acf53267c1bcd5cd18ab540604f3cb2f0f066fec0d7a28e4d45"),
], ids=["6-1", "2-5"])
def test_enumerate_stream_is_unchanged(capsys, n, d, digest):
    assert main(["enumerate", n, d]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_61_orbits_is_one_orbit_of_720(capsys):
    assert main(["enumerate", "6", "1", "--orbits"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert RelDivision.from_json(lines[0]).validate().valid
    assert lines[1] == '{"count":1,"orbit_sizes":[720]}'


@pytest.mark.parametrize("n,digest", [
    (4, "249b7be6e2fca7d2bd8bec7374ab714806294535ffaa010e04e4a1fe8c1c609a"),
    (5, "fa36d361c1009f4732fc12b4a1309e21a217f74fe6334a7c15dd6870d012d465"),
])
def test_enumerate_degree_one_orbit_streams_are_unchanged(capsys, n, digest):
    assert main(["enumerate", str(n), "1", "--orbits"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,d,digest", [
    ("3", "3", "5da52a8d8edabf614c08fcc521a4ae4cda45d42e6922905e39af61df08c074ad"),
    ("4", "2", "920d2adb33e8a2a6b9d8805ea19960cf9e00d9504de2026ced2a1f722a7b3a98"),
    ("3", "4", "a6365b63c35d5fc3ad18e74e0a9b414cdc0e36d2fb5603678c49b86e1d64ed93"),
], ids=["3-3", "4-2", "3-4"])
def test_enumerate_sorted_stream_is_unchanged(capsys, n, d, digest):
    # the lines whatever their order: the digest of `conedec enumerate n d | LC_ALL=C sort`
    assert main(["enumerate", n, d]) == 0
    lines = sorted(capsys.readouterr().out.splitlines(keepends=True))
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


def test_graph_dot(capsys, p32_file):
    assert main(["graph", p32_file]) == 0
    dot = capsys.readouterr().out
    assert dot.count("->") == 8
    assert dot.splitlines()[0] == "digraph division {"


def test_graph_json_kinds(capsys, p32_file):
    assert main(["graph", p32_file, "--kind", "generalized", "--format", "json"]) == 0
    gen = json.loads(capsys.readouterr().out)
    assert main(["graph", p32_file, "--kind", "redundant", "--format", "json"]) == 0
    red = json.loads(capsys.readouterr().out)
    assert {tuple(e[:2]) for e in gen["edges"]} <= {tuple(e[:2]) for e in red["edges"]}
    assert all(e[2] is None for e in red["edges"])


def test_graph_rejects_invalid(capsys, bad31_file):
    assert main(["graph", bad31_file]) == 1


def all_overlap_3_40() -> RelDivision:
    """Every term of the (3,40) slice keeps all variables: 861 terms, 370,230
    overlapping pairs."""
    return RelDivision.on_slice(3, 40, {t: frozenset({1, 2, 3}) for t in enumerate_terms(3, 40)})


def peak_rss_mb(argv) -> tuple[int, float]:
    """Exit code and peak RSS of `conedec argv`, run from a fresh wrapper
    process: this process's RUSAGE_CHILDREN keeps the largest peak of every
    child it ever waited for."""
    wrapper = ("import resource, subprocess, sys\n"
               "code = subprocess.run([sys.executable, '-m', 'conedec', *sys.argv[1:]],"
               " stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode\n"
               "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", wrapper, *argv],
                         capture_output=True, text=True, check=True)
    code, kb = map(int, out.stdout.split())
    return code, kb / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux only")
@pytest.mark.parametrize("div, argv, code, limit_mb", [
    (all_overlap_3_40, ["graph", "F", "--kind", "redundant"], 1, 60),
    # the output of `conedec gen pommaret 40 2`: 820 terms, 133,250 edges
    (lambda: pommaret_on_slice(40, 2), ["graph", "F", "--kind", "redundant"], 0, 120),
    (lambda: pommaret_on_slice(40, 2), ["graph", "F", "--kind", "generalized"], 0, 120),
    # `conedec gen pommaret 62 2`: 1,953 terms, one 1,953-bit landing mask each
    (lambda: pommaret_on_slice(62, 2), ["validate", "F"], 0, 60),
    (lambda: pommaret_on_slice(62, 2),
     ["closure", "F", "x1*x5", "x40^2", "--certify", "0"], 0, 60),
    (lambda: pommaret_on_slice(62, 2), ["graph", "F", "--kind", "redundant"], 0, 180),
    (all_overlap_3_40, ["validate", "F"], 1, 200),
    (lambda: pommaret_on_slice(62, 2),
     ["graph", "F", "--kind", "redundant", "--format", "json"], 0, 200),
], ids=["refused-all-overlap-3-40", "pommaret-40-2", "generalized-pommaret-40-2",
        "validate-pommaret-62-2", "closure-pommaret-62-2", "redundant-pommaret-62-2",
        "validate-all-overlap-3-40", "redundant-json-pommaret-62-2"])
def test_redundant_graph_memory_is_bounded(tmp_path, div, argv, code, limit_mb):
    path = tmp_path / "division.json"
    path.write_text(div().to_json())
    got, mb = peak_rss_mb([str(path) if a == "F" else a for a in argv])
    assert got == code
    assert mb < limit_mb


@pytest.mark.parametrize("argv", [
    ["graph", "G"],
    ["graph", "G", "--kind", "generalized"],
    ["closure", "G", "x*y"],
    ["sigma", "--division", "G"],
], ids=["graph", "graph-generalized", "closure", "sigma"])
def test_general_division_where_a_slice_is_needed_exits_1(capsys, general_file, argv):
    assert main([general_file if a == "G" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_redundant_graph_of_a_general_division(capsys, general_file):
    assert main(["graph", general_file, "--kind", "redundant", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"edges": [
        ["x*y", "x^2", None], ["z^3", "x^2", None], ["z^3", "x*y", None]]}


def test_closure_ideal(capsys, p32_file):
    assert main(["closure", p32_file, "x*y", "--mode", "ideal"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closure"] == ["x*y", "y^2", "y*z", "z^2"]
    assert data["certified"] is True
    assert data["seed"] == ["x*y"]


def test_closure_escalier(capsys, tmp_path):
    div = make_division(3, 2, {
        "x^2": "x,y,z", "x*y": "y,z", "y^2": "y",
        "x*z": "z", "y*z": "y,z", "z^2": "z"})
    path = tmp_path / "d.json"
    path.write_text(div.to_json())
    assert main(["closure", str(path), "x*z", "--mode", "escalier"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closure"] == ["x*z", "z^2"]
    assert data["certified"] is True


@pytest.mark.parametrize("mode, check, bad, shown", [
    ("ideal", "verify_ideal_equality", (1, 1, 1), "x*y*z"),
    ("escalier", "verify_order_ideal", ((1, 1, 1), (1, 1, 0)), ["x*y*z", "x*y"]),
])
def test_closure_failed_certificate_exits_1_with_its_counterexample(
        capsys, monkeypatch, p32_file, mode, check, bad, shown):
    monkeypatch.setattr(f"conedec.oracle.{check}", lambda div, members, margin: (False, bad))
    assert main(["closure", p32_file, "x*y", "--mode", mode]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["certified"] is False
    assert data["counterexample"] == shown


def test_closure_compound_seed_terms(capsys, tmp_path):
    from conftest import TR_ROWS

    path = tmp_path / "tr.json"
    path.write_text(make_division(4, 3, TR_ROWS).to_json())
    assert main(["closure", str(path), "x^2*y"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closure"] == ["x^2*y", "x^2*z", "x^2*t", "y*z*t"]


def test_closure_foreign_seed(capsys, p32_file):
    assert main(["closure", p32_file, "x^3"]) == 2


def test_build_script(capsys, tmp_path):
    script = tmp_path / "s.txt"
    script.write_text("x*y = x,y,z\nx*z = x,z\nz^2 = y,z\ny^2 = y\ny*z = y\n")
    assert main(["build", "3", "2", "--script", str(script)]) == 0
    div = RelDivision.from_json(capsys.readouterr().out)
    assert div.multiplicative_set((1, 1, 0)) == frozenset({1, 2, 3})
    assert div.validate().valid


def test_build_script_conflict(capsys, tmp_path):
    script = tmp_path / "s.txt"
    for n, d, text, message in [
        ("3", "2", "x*y = x,y,z\nz^2 = x,y,z\n", "line 2: z^2 may not take all of [1, 2]"),
        ("2", "3", "x^2*y = x\n\nx*y^2 = y\n", "line 3: no admissible set size left for y^3"),
    ]:
        script.write_text(text)
        assert main(["build", n, d, "--script", str(script)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"conflict: {message}\n" and captured.out == ""


def test_build_script_incomplete(capsys, tmp_path):
    script = tmp_path / "s.txt"
    script.write_text("x*y = x,y,z\n")
    assert main(["build", "3", "2", "--script", str(script)]) == 1
    assert "incomplete" in capsys.readouterr().err


def test_build_script_term_outside_the_slice(capsys, tmp_path):
    script = tmp_path / "s.txt"
    script.write_text("x*y = x,y,z\nx^3 = x\n")
    assert main(["build", "3", "2", "--script", str(script)]) == 1
    assert "line 2: term x^3 not in the support" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"\xff\xfe x*y = x\n"], ids=["directory", "not-utf8"])
def test_unreadable_build_script_is_usage_error(capsys, tmp_path, content):
    path = tmp_path  # content None: the path names a directory
    if content is not None:
        path = tmp_path / "s.txt"
        path.write_bytes(content)
    assert main(["build", "3", "2", "--script", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}") and err.count("\n") == 1


def test_build_interactive_rejects_term_outside_the_slice(capsys, monkeypatch):
    lines = iter(["x^3 = x", "x*y = x,y,z", "x*z = x,z", "z^2 = y,z", "y^2 = y", "y*z = y"])

    def fake_input(prompt):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    monkeypatch.setattr("builtins.input", fake_input)
    assert main(["build", "3", "2"]) == 0
    captured = capsys.readouterr()
    assert "rejected: term x^3 not in the support" in captured.err
    assert RelDivision.from_json(captured.out).validate().valid


@pytest.mark.parametrize("stop", [EOFError, KeyboardInterrupt], ids=["eof", "ctrl-c"])
def test_build_interactive_stopped_before_completion_exits_1(capsys, monkeypatch, stop):
    def fake_input(prompt):
        raise stop

    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    monkeypatch.setattr("builtins.input", fake_input)
    assert main(["build", "3", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\nconflict: the assignment is incomplete\n")
    assert "Traceback" not in captured.err


def test_build_needs_tty_without_script(capsys, monkeypatch):
    monkeypatch.setattr(sys.stdin, "isatty", lambda: False)
    assert main(["build", "3", "2"]) == 2
    assert capsys.readouterr().err == "error: interactive build needs a terminal; use --script\n"


def test_sigma_expected_only(capsys):
    assert main(["sigma", "4", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"expected": [10, 6, 3, 1], "sum": 20}


def test_sigma_against_division(capsys, p32_file, bad31_file):
    assert main(["sigma", "--division", p32_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"profile": [3, 2, 1], "expected": [3, 2, 1], "match": True}
    assert main(["sigma", "--division", bad31_file]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["match"] is False


def test_sigma_prints_the_profile_at_the_degree_bound(capsys):
    # the bound keeps every entry within Python's default int-to-text limit
    assert main(["sigma", "64", str(MAX_PROFILE_DEGREE)]) == 0
    assert len(json.loads(capsys.readouterr().out)["expected"]) == 64


def test_sigma_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sigma"])
    assert exc.value.code == 2


def test_vandermonde(capsys):
    assert main(["vandermonde", "3", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"n": 3, "degree": 2, "d_max": 12, "holds": True}
    assert main(["vandermonde", "5", "4", "8"]) == 0


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_color_gate(monkeypatch):
    from conedec.cli import _color_allowed

    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert _color_allowed()
    monkeypatch.setenv("NO_COLOR", "1")
    assert not _color_allowed()


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "conedec", "sigma", "3", "2"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"expected": [3, 2, 1], "sum": 6}


@pytest.mark.parametrize("argv, first_line", [
    (["enumerate", "3", "3"], lambda line: RelDivision.from_json(line).validate().valid),
    (["sigma", "3", "2"], None),
    (["graph", "F", "--kind", "redundant", "--format", "json"], lambda line: line == b"{\n"),
], ids=["mid-stream", "before-output", "mid-indented-json"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, argv, first_line):
    # stdout is block-buffered, as it is by default, so output is pending
    # when the pipe closes; enumerate 3 3 (about 77 kB) and the graph JSON of
    # Pommaret (40,2) (about 7.5 MB) outgrow a pipe's buffer, so a close after
    # their first line always finds them mid-stream
    path = tmp_path / "division.json"
    path.write_text(pommaret_on_slice(40, 2).to_json())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    if first_line is None:
        os.close(read_end)
    proc = subprocess.Popen([sys.executable, "-m", "conedec",
                             *[str(path) if a == "F" else a for a in argv]],
                            stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    if first_line is not None:
        with os.fdopen(read_end, "rb", buffering=0) as out:
            assert first_line(out.readline())
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == ""


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"n": 3, "degree": "1", "multiplicative": {}}',
    '{"n": 1, "degree": 1, "multiplicative": [["x"]]}',
    '{"n": true, "degree": 1, "multiplicative": {"x": ["x"]}}',
    '{"n": 1, "degree": true, "multiplicative": {"x": ["x"]}}',
    '{"n": 1, "degree": 1,',
    '{"n": 2, "degree": 1, "variables": ["y", "x"], "multiplicative": {"x": ["x"], "y": ["x", "y"]}}',
    '{"n": 2, "degree": 1, "variables": "xy", "multiplicative": {"x": ["x"], "y": ["x", "y"]}}',
    '{"n": 2, "degree": 1, "multiplicative": {"[true, 0]": ["x"], "y": ["x", "y"]}}',
    '{"n": 2, "degree": 1, "multiplicative": {"x": [true], "y": ["x", "y"]}}',
    '{"n": 300000, "degree": 1, "multiplicative": {"x1": ["x1"]}}',
    "[" * 100_000,
    pommaret_on_slice(2, MAX_SLICE_TERMS).to_json(),
    None,
    '{"n": 3, "degree": 1, "multiplicative": {"x": [1], "y": [1, 2], "z": [4]}}',
    '{"n": 2, "degree": 2, "multiplicative": {"x^2": ["x"], "x*y": ["x"], "y*x": ["x"],'
    ' "y^2": ["x", "y"]}}',
    '{"n": 1, "degree": 1, "multiplicative": {"x": "x"}}',
], ids=["array", "degree-string", "mult-list", "n-bool", "degree-bool", "syntax",
        "permuted-variables", "variables-string", "exponent-bool", "index-bool",
        "n-over-cap", "over-nested", "too-many-terms", "directory",
        "index-out-of-range", "term-repeated", "vars-not-list"])
def test_malformed_division_file_is_usage_error(capsys, tmp_path, text):
    path = tmp_path  # text None: the path names a directory
    if text is not None:
        path = tmp_path / "bad.json"
        path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_division_file_with_variable_indices(capsys, tmp_path):
    path = tmp_path / "indices.json"
    path.write_text('{"n": 3, "degree": 1,'
                    ' "multiplicative": {"x": [1], "y": [1, 2], "z": [1, 2, 3]}}')
    assert RelDivision.from_json(path.read_text()) == pommaret_on_slice(3, 1)
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"]


@pytest.mark.parametrize("rows,violation", [
    ({"x": ["y"], "y": ["x", "y"]}, {"kind": "pure-power", "variable": "x"}),
    ({"x": ["x", "y"], "y": ["x", "y"]}, {"kind": "multiple-peaks", "terms": ["x", "y"]}),
], ids=["pure-power", "multiple-peaks"])
def test_validate_names_variables_and_terms(capsys, tmp_path, rows, violation):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "degree": 1, "multiplicative": rows}))
    assert main(["validate", str(path)]) == 1
    assert violation in json.loads(capsys.readouterr().out)["violations"]


# A (2,3) division with every violation kind but no-peak, and a (2,1) one
# without a peak, each with the whole stdout of its validate command.
EVERY_KIND_BUT_NO_PEAK = {"n": 2, "degree": 3, "multiplicative": {
    "x^3": ["x", "y"], "x^2*y": ["x", "y"], "x*y^2": ["y"], "y^3": ["x"]}}
EVERY_KIND_BUT_NO_PEAK_REPORT = """\
{
  "valid": false,
  "violations": [
    {
      "kind": "overlap",
      "u": "x^3",
      "v": "x^2*y",
      "witness": "x^3*y"
    },
    {
      "kind": "overlap",
      "u": "x^3",
      "v": "y^3",
      "witness": "x^3*y^3"
    },
    {
      "kind": "overlap",
      "u": "x^2*y",
      "v": "y^3",
      "witness": "x^2*y^3"
    },
    {
      "kind": "overlap",
      "u": "x*y^2",
      "v": "y^3",
      "witness": "x*y^3"
    },
    {
      "kind": "profile-mismatch",
      "observed": [
        2,
        2
      ],
      "expected": [
        3,
        1
      ]
    },
    {
      "kind": "pure-power",
      "variable": "y"
    },
    {
      "kind": "multiple-peaks",
      "terms": [
        "x^3",
        "x^2*y"
      ]
    },
    {
      "kind": "double-covered",
      "term": "x^3*y",
      "u": "x^3",
      "v": "x^2*y"
    },
    {
      "kind": "double-covered",
      "term": "x*y^3",
      "u": "x*y^2",
      "v": "y^3"
    },
    {
      "kind": "uncovered",
      "term": "y^4"
    },
    {
      "kind": "double-covered",
      "term": "x^4*y",
      "u": "x^3",
      "v": "x^2*y"
    },
    {
      "kind": "double-covered",
      "term": "x^3*y^2",
      "u": "x^3",
      "v": "x^2*y"
    },
    {
      "kind": "double-covered",
      "term": "x^2*y^3",
      "u": "x^2*y",
      "v": "y^3"
    },
    {
      "kind": "uncovered",
      "term": "y^5"
    }
  ],
  "notes": []
}
"""
NO_PEAK = {"n": 2, "degree": 1, "multiplicative": {"x": ["x"], "y": ["y"]}}
NO_PEAK_REPORT = """\
{
  "valid": false,
  "violations": [
    {
      "kind": "profile-mismatch",
      "observed": [
        2,
        0
      ],
      "expected": [
        1,
        1
      ]
    },
    {
      "kind": "no-peak"
    }
  ],
  "notes": []
}
"""


@pytest.mark.parametrize("rows, options, text", [
    (EVERY_KIND_BUT_NO_PEAK, ["--oracle", "2"], EVERY_KIND_BUT_NO_PEAK_REPORT),
    (NO_PEAK, [], NO_PEAK_REPORT),
], ids=["every-kind-but-no-peak", "no-peak"])
def test_validate_report_text_is_pinned(capsys, tmp_path, rows, options, text):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rows))
    assert main(["validate", str(path), *options]) == 1
    assert capsys.readouterr().out == text


@pytest.fixture(scope="module")
def mutation_bases():
    return [*enumerate_divisions(3, 2), *islice(enumerate_divisions(3, 3), 0, None, 7)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_indented_output_is_the_text_of_json_dumps(tmp_path_factory, mutation_bases, data):
    """validate --oracle 2 on a (3,2) or (3,3) division with one or two rows
    mutated writes exactly json.dumps(report, indent=2) and a newline."""
    div = data.draw(st.sampled_from(mutation_bases))
    for _ in range(data.draw(st.integers(1, 2))):
        div = mutated(data, div)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(div.to_json())
    report = div.validate().merged(verify_division_covering(div, 2))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", str(path), "--oracle", "2"])
    assert code == (0 if report.valid else 1)
    assert out.getvalue() == json.dumps(report.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("div, argv, code, size, digest", [
    (all_overlap_3_40, ["validate", "F"], 1, 46_355_889,
     "49d0c841a4be2a9ea4a347cee9f4a15a7cc55d85e5161fa2a37d1af2845ac01c"),
    (lambda: pommaret_on_slice(62, 2), ["graph", "F", "--kind", "redundant", "--format", "json"],
     0, 40_897_834, "42168a71a6ac80b46e7faddeaaa379a43fb4d6c3c9c2515e0289ceebf4cd014d"),
], ids=["validate-all-overlap-3-40", "redundant-json-pommaret-62-2"])
def test_large_json_outputs_are_unchanged(tmp_path, div, argv, code, size, digest):
    path = tmp_path / "division.json"
    path.write_text(div().to_json())
    out = subprocess.run([sys.executable, "-m", "conedec",
                          *[str(path) if a == "F" else a for a in argv]], capture_output=True)
    assert (out.returncode, out.stderr) == (code, b"")
    assert len(out.stdout) == size
    assert hashlib.sha256(out.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["enumerate", "0", "2"],
    ["enumerate", "65", "1"],
    ["enumerate", "2", "-1"],
    ["sigma", "0", "3"],
    ["gen", "pommaret", "3", "2", "--order", "a"],
    ["gen", "pommaret", "3", "2", "--order", "1,1,2"],
    ["closure", "P32", "q*y"],
    ["validate", "P32", "--oracle", "-2"],
    ["closure", "P32", "x*y", "--certify", "-1"],
    ["vandermonde", "3", "2", "-1"],
    ["enumerate", "64", "1"],
    ["enumerate", "3", "200"],
    ["gen", "pommaret", "64", "20"],
    ["build", "64", "20"],
    ["gen", "janet", "3", "2", "--order", "1,2,3"],
    ["sigma", "3", "9" * 3000],
    ["vandermonde", "3", str(MAX_PROFILE_DEGREE + 1), "1"],
    ["vandermonde", "3", "2", str(MAX_IDENTITY_DEGREE + 1)],
    ["sigma", "4", "7", "--division", "P32"],
    ["sigma", "4", "--division", "P32"],
    ["sigma", "--division", ""],
], ids=["enumerate-n0", "enumerate-n-over-cap", "enumerate-negative-degree", "sigma-n0",
        "order-not-integers", "order-not-permutation", "seed-unparsable",
        "oracle-negative", "certify-negative", "vandermonde-negative",
        "enumerate-too-wide", "enumerate-too-many-terms", "gen-too-many-terms",
        "build-too-many-terms", "order-on-janet", "sigma-degree-over-cap",
        "vandermonde-degree-over-cap", "vandermonde-d-max-over-cap",
        "sigma-both-forms", "sigma-degree-missing-with-division", "sigma-empty-division-path"])
def test_bad_arguments_are_usage_errors(capsys, p32_file, argv):
    argv = [p32_file if a == "P32" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: " in err.splitlines()[-1]


_INT = st.sampled_from(["2", "1", "0"])  # slices stay at most (2,2)
_FILE = st.sampled_from(["SLICE", "GENERAL", "INVALID", "SCRIPT", "MALFORMED", "DIR", "MISSING"])
_TERM = st.sampled_from(["x*y", "y^2", "x^3", "q*y", "1", "[1,1,0]", ""])
_VALUES = {  # option -> its value, None for a flag
    "--order": st.sampled_from(["1,2", "2,1", "1,1", "1,2,3", "a"]),
    "--oracle": _INT,
    "--certify": _INT,
    "--kind": st.sampled_from(["ufnarovsky", "redundant", "generalized"]),
    "--format": st.sampled_from(["dot", "json"]),
    "--mode": st.sampled_from(["ideal", "escalier"]),
    "--script": _FILE,
    "--division": _FILE,
    "--orbits": None,
}
_GRAMMAR = {  # subcommand -> (positionals, own options)
    "gen": ([st.sampled_from(["pommaret", "janet"]), _INT, _INT], ["--order"]),
    "validate": ([_FILE], ["--oracle"]),
    "enumerate": ([_INT, _INT], ["--orbits"]),
    "graph": ([_FILE], ["--kind", "--format"]),
    "closure": ([_FILE, _TERM, _TERM], ["--mode", "--certify"]),
    "build": ([_INT, _INT], ["--script"]),
    "sigma": ([_INT, _INT], ["--division"]),
    "vandermonde": ([_INT, _INT, _INT], []),
    "frobnicate": ([], []),
}
_JUNK = st.sampled_from(["-1", "a", "", "-", "--", "--bogus", "-h", "q", "=", "1,1", "x^3"])


@st.composite
def command_lines(draw):
    """A subcommand with its positionals and some of its options; one time in
    four with positionals cut short, any options and stray tokens."""
    sub = draw(st.sampled_from(list(_GRAMMAR)))
    positionals, own = _GRAMMAR[sub]
    malformed = draw(st.integers(0, 3)) == 0
    args = [draw(s) for s in positionals]
    if malformed:
        args = args[:draw(st.integers(0, len(args)))]
    names = list(_VALUES) if malformed else own
    for name in draw(st.lists(st.sampled_from(names), max_size=2)) if names else []:
        args += [name] if _VALUES.get(name) is None else [name, draw(_VALUES[name])]
    if malformed:
        args += draw(st.lists(st.one_of(_JUNK, _INT, _FILE, _TERM), max_size=2))
    return [sub, *args]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "SLICE": pommaret_on_slice(3, 2).to_json(),
        "GENERAL": pommaret_general([(2, 0, 0), (1, 1, 0), (0, 0, 3)], 3).to_json(),
        "INVALID": make_division(3, 1, {"x": "x,y", "y": "y,z", "z": "x,z"}).to_json(),
        "SCRIPT": "x*y = x,y\nx^2 = x,y\n",  # a (2,2) script whose second line conflicts
        "MALFORMED": '{"n": 3,',
    }
    paths = {"DIR": str(root), "MISSING": str(root / "missing.json")}
    for name, text in files.items():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    return paths


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_exit_cleanly(fuzz_paths, argv):
    """Any command line from the grammar above returns or exits with 0, 1 or
    2 and prints no traceback."""
    argv = [fuzz_paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.stdin, "isatty", lambda: False)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
