from __future__ import annotations

import ast
from pathlib import Path

import knotcert


def test_all_resolves_and_lists_exactly_the_imported_public_names():
    namespace: dict = {}
    exec("from knotcert import *", namespace)  # raises on a dangling export
    assert all(name in namespace for name in knotcert.__all__)
    assert len(set(knotcert.__all__)) == len(knotcert.__all__)

    tree = ast.parse(Path(knotcert.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(knotcert.__all__) == {n for n in imported if not n.startswith("_")}
