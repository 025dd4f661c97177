from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotcert
from knotcert.fixtures import torus_knot

SRC = str(Path(knotcert.__file__).resolve().parents[1])
TREFOIL = [{"name": "trefoil", "seifert": [[-1, 1], [0, -1]]}]


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds the package where this process did."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_all_resolves_and_lists_exactly_the_imported_public_names():
    namespace: dict = {}
    exec("from knotcert import *", namespace)  # raises on a dangling export
    assert all(name in namespace for name in knotcert.__all__)
    assert set(knotcert.__all__) <= set(dir(knotcert))
    assert len(set(knotcert.__all__)) == len(knotcert.__all__)

    # the name -> module table is the one list of exports
    table = knotcert._EXPORTS
    assert knotcert.__all__ == sorted(table)
    assert all(not name.startswith("_") for name in table)
    for name, module in table.items():
        assert hasattr(importlib.import_module(f"knotcert.{module}"), name), name


def test_every_export_is_its_home_module_object():
    for name in knotcert.__all__:
        home = importlib.import_module(f"knotcert.{knotcert._EXPORTS[name]}")
        assert getattr(knotcert, name) is getattr(home, name), name
        obj = getattr(home, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == home.__name__, name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        knotcert.no_such_name  # noqa: B018


ORDERS = {
    "names first": "import knotcert as k\nf, g = k.certify, k.inertia\n"
    "import knotcert.certify, knotcert.inertia\nassert (k.certify, k.inertia) == (f, g)\n",
    "submodules first": "import importlib\nimportlib.import_module('knotcert.certify')\n"
    "importlib.import_module('knotcert.inertia')\nimport knotcert as k\n",
    "from-import after submodules": "import knotcert.inertia, knotcert.certify\n"
    "from knotcert import certify, inertia\nassert callable(certify) and callable(inertia)\n"
    "import knotcert as k\n",
    "certify_rows run first": "import sys\nfrom knotcert.corpus import parse_corpus\n"
    "from knotcert.emit import certify_rows\n"
    "assert certify_rows(parse_corpus(sys.argv[1]))[0].verdict == 'CERTIFIED'\n"
    "import knotcert as k\n",
}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_certify_and_inertia_stay_functions(order, tmp_path):
    corpus = tmp_path / "c.json"
    corpus.write_text(json.dumps(TREFOIL))
    check = (
        "import importlib, inspect\n"
        "assert inspect.isfunction(k.certify) and inspect.isfunction(k.inertia)\n"
        "assert k.certify is importlib.import_module('knotcert.certify').certify\n"
        "assert k.inertia is importlib.import_module('knotcert.inertia').inertia\n"
    )
    proc = _python("-c", ORDERS[order] + check, str(corpus))
    assert proc.returncode == 0, proc.stderr


def _imported_modules(stderr: str) -> set[str]:
    # -X importtime writes "import time: self | cumulative | [indent]module"
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.mark.parametrize(
    "command, loads_certify",
    [
        ("validate", False),
        ("alexander", False),
        ("roots", False),
        ("signature", True),
        ("certify", True),
        ("report", True),
    ],
)
def test_commands_load_only_the_layers_they_run(command, loads_certify, tmp_path):
    corpus = tmp_path / "c.json"
    t29 = [list(row) for row in torus_knot(2, 9).entries]  # size 8
    corpus.write_text(json.dumps(TREFOIL + [{"name": "T(2,9)", "seifert": t29}]))
    proc = _python("-X", "importtime", "-m", "knotcert", command, "--input", str(corpus))
    assert proc.returncode == 0, proc.stderr
    loaded = _imported_modules(proc.stderr)
    assert "knotcert.cli" in loaded and "knotcert.laurent" in loaded
    assert ("knotcert.certify" in loaded) is loads_certify
    assert ("knotcert.inertia" in loaded) is loads_certify
    # certificate JSON, reports and plots: only the commands that write them
    assert ("knotcert.emit" in loaded) is (command in ("certify", "report"))
    # the plateaus of every matrix are evaluated in this process
    assert not {"multiprocessing", "concurrent.futures"} & loaded
    # records are knotcert.record classes; importing dataclasses costs milliseconds
    assert "dataclasses" not in loaded


def test_signature_loads_emit_only_to_plot(tmp_path):
    corpus = tmp_path / "c.json"
    corpus.write_text(json.dumps(TREFOIL))
    for plot, loads_emit in (([], False), (["--plot", str(tmp_path / "plots")], True)):
        argv = ["-X", "importtime", "-m", "knotcert", "signature", "--input", str(corpus), *plot]
        proc = _python(*argv)
        assert proc.returncode == 0, proc.stderr
        assert ("knotcert.emit" in _imported_modules(proc.stderr)) is loads_emit
    assert (tmp_path / "plots" / "trefoil.svg").is_file()


def test_import_and_parse_load_neither_certify_nor_inertia(tmp_path):
    corpus = tmp_path / "c.json"
    corpus.write_text(json.dumps(TREFOIL))
    code = (
        "import sys, knotcert\n"
        "assert sorted(m for m in sys.modules if m.startswith('knotcert')) == ['knotcert']\n"
        "from knotcert.corpus import parse_corpus\n"
        "assert parse_corpus(sys.argv[1])[0].name == 'trefoil'\n"
        "loaded = {'knotcert.certify', 'knotcert.emit', 'knotcert.inertia'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    proc = _python("-c", code, str(corpus))
    assert proc.returncode == 0, proc.stderr


def test_import_and_parse_load_neither_dataclasses_nor_inspect():
    # the start-up of every command: dataclasses would load inspect, dis,
    # tokenize and ast; the interpreter's own start-up may load inspect
    code = "import knotcert\nfrom knotcert.corpus import parse_corpus\n"
    proc = _python("-X", "importtime", "-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = _imported_modules(proc.stderr)
    assert "knotcert.corpus" in loaded
    assert "dataclasses" not in loaded
    if "inspect" not in _imported_modules(_python("-X", "importtime", "-c", "pass").stderr):
        assert "inspect" not in loaded


def test_import_and_parse_load_only_what_parsing_needs(tmp_path):
    # every command parses first; laurent, fractions and csv wait for the
    # functions that use them
    corpus = tmp_path / "c.json"
    corpus.write_text(json.dumps(TREFOIL))
    heavy = "('fractions', 'decimal', 'csv')"
    code = (
        "import sys, knotcert\n"
        "from knotcert.corpus import parse_corpus\n"
        "assert parse_corpus(sys.argv[1])[0].name == 'trefoil'\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'knotcert'))\n"
        f"print(*(m for m in {heavy} if m in sys.modules))\n"
    )
    proc = _python("-c", code, str(corpus))
    assert proc.returncode == 0, proc.stderr
    ours, stdlib = proc.stdout.split("\n")[:2]
    assert ours.split() == [
        "knotcert",
        "knotcert.corpus",
        "knotcert.errors",
        "knotcert.record",
        "knotcert.seifert",
    ]
    # unless the interpreter's own start-up loads them
    bare = _python("-c", f"import sys; print(*(m for m in {heavy} if m in sys.modules))")
    assert set(stdlib.split()) <= set(bare.stdout.split())


def test_package_source_has_no_assert_statement():
    # python -O strips assert statements, so every fail-closed check must raise
    files = sorted(Path(knotcert.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_record_defines_eq():
    # a value type derives from knotcert.record.Record, which defines == and hash
    files = sorted(Path(knotcert.__file__).parent.glob("*.py"))
    assert any(path.name == "record.py" for path in files)
    found = [
        f"{path.name}:{node.name}"
        for path in files
        if path.name != "record.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__eq__" for f in node.body)
    ]
    assert found == []
