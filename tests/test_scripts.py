"""Smoke tests of the helper scripts under scripts/, each run as its own process."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import knotcert
from knotcert.corpus import parse_corpus

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, *args: str, status: int = 0) -> subprocess.CompletedProcess:
    # the child finds the package where this process did, installed or not
    src = str(Path(knotcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == status, proc.stderr
    return proc


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_make_corpus_is_deterministic(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for out in (first, second):
        _run("make_corpus.py", "--count", "5", "--seed", "3", "--out", str(out))
    assert len(json.loads(first.read_text())) == 5
    assert first.read_bytes() == second.read_bytes()


def test_make_corpus_infers_the_format_from_an_upper_case_suffix(tmp_path):
    out = tmp_path / "c.JSON"
    _run("make_corpus.py", "--count", "2", "--out", str(out))
    assert len(parse_corpus(out)) == 2


def test_make_corpus_rejects_an_unknown_suffix_as_a_usage_error(tmp_path):
    out = tmp_path / "c.txt"
    proc = _run("make_corpus.py", "--count", "2", "--out", str(out), status=2)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        "make_corpus.py: error: cannot infer a corpus format from 'c.txt'; use --format"
    )
    assert not out.exists()



def test_make_corpus_rejects_an_extensionless_out_unless_given_a_format(tmp_path):
    # the suffix rule is the reader's, so no file is written that knotcert could not read
    out = tmp_path / "corpus"
    proc = _run("make_corpus.py", "--count", "3", "--out", str(out), status=2)
    assert proc.stderr.splitlines()[-1] == (
        "make_corpus.py: error: cannot infer a corpus format from 'corpus'; use --format"
    )
    assert not out.exists()
    _run("make_corpus.py", "--count", "3", "--format", "jsonl", "--out", str(out))
    assert len(parse_corpus(out, format="jsonl")) == 3

def test_plot_gallery_is_deterministic(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        _run("plot_gallery.py", "--paper-angles", "--out", str(out))
    files = _files(first)
    assert {"trefoil.svg", "trefoil.csv"} <= set(files)
    assert files == _files(second)


def _mutation_gate():
    spec = importlib.util.spec_from_file_location("mutation_gate", SCRIPTS / "mutation_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_mutation_gate_lists_its_sites_and_runs_nothing():
    lines = _run("mutation_gate.py", "--list").stdout.splitlines()
    assert "seifert.py" in lines[-1] and lines[-1].endswith(" det_int raise")
    for line in lines:
        where, function, kind = line.split(" ", 2)
        name, lineno = where.split(":")
        assert (SCRIPTS.parent / "src" / "knotcert" / name).is_file() and int(lineno) > 0
        assert kind in ("raise", "return False")
    assert any(line.endswith(" _multiplicity_proved return False") for line in lines)
    # a record's self-checks and a listed guard
    assert any(line.endswith(" UnitRootWitness.__post_init__ raise") for line in lines)
    assert any(line.endswith(" _rational_sqrt_between raise") for line in lines)


def test_mutation_gate_stops_a_tier1_run_that_hangs(tmp_path, monkeypatch):
    gate = _mutation_gate()
    monkeypatch.setattr(gate, "TIMEOUT_S", 5)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_ok.py").write_text("def test_ok():\n    pass\n")
    assert gate.tier1(tmp_path) == "passed"
    (tests / "test_other.py").write_text("def test_fails():\n    assert False\n")
    assert gate.tier1(tmp_path, ("tests/test_ok.py",)) == "failed"
    # the run has its own session, so a kill of this pytest's process group
    # misses it: it sleeps past TIMEOUT_S only while this pytest, its parent,
    # is alive, and ends once it is reparented
    (tests / "test_other.py").write_text(
        "import os\nimport time\n\nPARENT = os.getppid()\n\n\n"
        "def test_hangs():\n    while os.getppid() == PARENT:\n        time.sleep(0.1)\n"
    )
    started = time.monotonic()
    assert gate.tier1(tmp_path, ("tests/test_ok.py",)) == "timeout"
    assert time.monotonic() - started < 30


def test_mutation_gate_runs_a_module_s_own_tests_first():
    gate = _mutation_gate()
    root = SCRIPTS.parent
    assert gate.own_tests(root, "inertia.py") == ("tests/test_inertia.py",)
    assert gate.own_tests(root, "corpus.py") == ("tests/test_corpus_cli.py",)
    assert gate.own_tests(root, "errors.py") == ()
