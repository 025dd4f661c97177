"""Mutation gate: every fail-closed check in src/knotcert is caught by a tier-1 test.

A site is a ``raise InternalInconsistencyError(...)`` statement or a check's
``return False``, found with ``ast``.  Each site in turn is replaced by
``pass`` in a temporary copy of the checkout, and the tier-1 suite runs
there with ``-x -q``: first the mutated module's own tests
(``tests/test_<module>*.py``), then, if those pass, the rest.  A mutant that
passes the suite survives.  The gate exits 1 if the unmutated copy fails the
suite, if a survivor is missing from REVIEWED_SURVIVORS, or if an entry there
no longer survives.

    python scripts/mutation_gate.py          # every mutant in turn, serially
    python scripts/mutation_gate.py --list   # print the sites and run nothing

Stdlib only.  A mutant its module's tests catch costs seconds; a survivor
costs a full tier-1 run.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "knotcert"

# (file under src/knotcert, function) -> why no test can catch its sites
REVIEWED_SURVIVORS: dict[tuple[str, str], str] = {}


class _Sites(ast.NodeVisitor):
    """Collects (qualified function name, statement) for every site of one module."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, ast.stmt]] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Raise(self, node: ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "InternalInconsistencyError":
            self.found.append((".".join(self.scope), node))

    def visit_Return(self, node: ast.Return):
        if isinstance(node.value, ast.Constant) and node.value.value is False:
            self.found.append((".".join(self.scope), node))


def sites(root: Path) -> list[tuple[str, str, ast.stmt]]:
    """(file, function, statement) of every site under root's package, in file order."""
    out = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        visitor = _Sites()
        visitor.visit(ast.parse(path.read_bytes(), filename=str(path)))
        out += [(path.name, func, node) for func, node in visitor.found]
    return out


def mutant(source: bytes, node: ast.stmt) -> bytes:
    """source with the statement node replaced by ``pass``; ast offsets count UTF-8 bytes."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
    out = source[:start] + b"pass" + source[end:]
    ast.parse(out)  # a mutant that does not parse is a bug of this script
    return out


def tier1_passes(checkout: Path, first: tuple[str, ...] = ()) -> bool:
    """Whether the tier-1 suite passes in checkout, stopping at the first failure.

    The test files ``first``, paths relative to checkout, run before the rest.
    """
    src = str(checkout / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        # a mutant and the next one of the same file can share size and mtime
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    command = [sys.executable, "-m", "pytest", "-x", "-q", "--continue-on-collection-errors"]
    runs = [[*command, *first], [*command, *(f"--ignore={f}" for f in first)]] if first else [command]
    return all(subprocess.run(run, cwd=checkout, env=env, capture_output=True).returncode == 0 for run in runs)


def own_tests(checkout: Path, name: str) -> tuple[str, ...]:
    """The test files of the module src/knotcert/<name>: tests/test_<stem>*.py."""
    tests = sorted((checkout / "tests").glob(f"test_{Path(name).stem}*.py"))
    return tuple(str(path.relative_to(checkout)) for path in tests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the sites and run nothing")
    args = parser.parse_args(argv)
    found = sites(ROOT)
    if args.list:
        for name, func, node in found:
            kind = "return False" if isinstance(node, ast.Return) else "raise"
            print(f"{name}:{node.lineno} {func} {kind}")
        return 0

    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, checkout, ignore=ignore)
        if not tier1_passes(checkout):
            print("tier-1 fails on the unmutated copy; no mutant can be judged")
            return 1
        survivors = set()
        for name, func, node in found:
            path = checkout / PACKAGE / name
            original = path.read_bytes()
            path.write_bytes(mutant(original, node))
            t0 = time.monotonic()
            try:
                caught = not tier1_passes(checkout, own_tests(checkout, name))
            finally:
                path.write_bytes(original)
            if not caught:
                survivors.add((name, func))
            verdict = "caught" if caught else "SURVIVED"
            seconds = time.monotonic() - t0
            print(f"{name}:{node.lineno} {func}: {verdict} ({seconds:.0f} s)", flush=True)

    unreviewed = sorted(survivors - REVIEWED_SURVIVORS.keys())
    stale = sorted(REVIEWED_SURVIVORS.keys() - survivors)
    print(
        f"{len(found)} sites, {len(found) - len(survivors)} caught, "
        f"{len(survivors)} survived, in {time.monotonic() - started:.0f} s"
    )
    for name, func in unreviewed:
        print(f"unreviewed survivor: {name} {func}")
    for name, func in stale:
        print(f"reviewed survivor no longer survives: {name} {func}")
    return 1 if unreviewed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
