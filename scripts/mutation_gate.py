"""Mutation gate: every fail-closed check in src/knotcert is caught by a tier-1 test.

A site is a ``raise InternalInconsistencyError(...)`` statement, a check's
``return False``, any ``raise`` in a record's ``__post_init__`` (the checks
that keep invalid instances from existing) and any ``raise`` in a function
of GUARDS, found with ``ast``.  Each site in turn is replaced by ``pass`` in
a temporary copy of the checkout, and the tier-1 suite runs there with
``-x -q``: first the mutated module's own tests (``tests/test_<module>*.py``),
then, if those pass, the rest.  A mutant that passes the suite survives.  A
tier-1 run that takes longer than TIMEOUT_S is stopped, with every process
it started, and its mutant gets the verdict TIMEOUT: a test that hangs
catches nothing.  The gate exits 1 if the unmutated copy does not pass the
suite in time, if a mutant times out, if a survivor is missing from
REVIEWED_SURVIVORS, or if an entry there no longer survives.

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
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "knotcert"

# (file under src/knotcert, function) -> why no test can catch its sites
REVIEWED_SURVIVORS: dict[tuple[str, str], str] = {}

# (file under src/knotcert, function) -> why its raise statements are sites
GUARDS: dict[tuple[str, str], str] = {
    ("inertia.py", "_rational_sqrt_between"): "past its range the doubling loop never ends",
}

# seconds one tier-1 run may take; the whole suite takes well under a minute
TIMEOUT_S = 300


class _Sites(ast.NodeVisitor):
    """Collects (qualified function name, statement) for every site of one module."""

    def __init__(self, name: str):
        self.name = name
        self.scope: list[str] = []
        self.found: list[tuple[str, ast.stmt]] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Raise(self, node: ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        func = ".".join(self.scope)
        if (
            isinstance(exc, ast.Name) and exc.id == "InternalInconsistencyError"
            or self.scope[-1:] == ["__post_init__"]
            or (self.name, func) in GUARDS
        ):
            self.found.append((func, node))

    def visit_Return(self, node: ast.Return):
        if isinstance(node.value, ast.Constant) and node.value.value is False:
            self.found.append((".".join(self.scope), node))


def sites(root: Path) -> list[tuple[str, str, ast.stmt]]:
    """(file, function, statement) of every site under root's package, in file order."""
    out = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        visitor = _Sites(path.name)
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


def _run(command: list[str], cwd: Path, env: dict) -> int | None:
    """command's exit status, or None if it ran past TIMEOUT_S and was killed with its children."""
    # its own session, so that killing the group also ends the processes tests start
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    with subprocess.Popen(command, cwd=cwd, env=env, start_new_session=True, **quiet) as proc:
        try:
            return proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None


def tier1(checkout: Path, first: tuple[str, ...] = ()) -> str:
    """How the tier-1 suite ends in checkout: "passed", "failed" or "timeout".

    It stops at the first failure.  The test files ``first``, paths relative
    to checkout, run before the rest.
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
    for run in runs:
        status = _run(run, checkout, env)
        if status != 0:
            return "timeout" if status is None else "failed"
    return "passed"


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
        unmutated = tier1(checkout)
        if unmutated != "passed":
            print(f"tier-1 {unmutated} on the unmutated copy; no mutant can be judged")
            return 1
        survivors, timeouts = set(), []
        for name, func, node in found:
            path = checkout / PACKAGE / name
            original = path.read_bytes()
            path.write_bytes(mutant(original, node))
            t0 = time.monotonic()
            try:
                result = tier1(checkout, own_tests(checkout, name))
            finally:
                path.write_bytes(original)
            if result == "passed":
                survivors.add((name, func))
            elif result == "timeout":
                timeouts.append(f"{name}:{node.lineno} {func}")
            verdict = {"failed": "caught", "passed": "SURVIVED", "timeout": "TIMEOUT"}[result]
            seconds = time.monotonic() - t0
            print(f"{name}:{node.lineno} {func}: {verdict} ({seconds:.0f} s)", flush=True)

    unreviewed = sorted(survivors - REVIEWED_SURVIVORS.keys())
    stale = sorted(REVIEWED_SURVIVORS.keys() - survivors)
    caught = len(found) - len(survivors) - len(timeouts)
    print(
        f"{len(found)} sites, {caught} caught, {len(survivors)} survived, "
        f"{len(timeouts)} timed out, in {time.monotonic() - started:.0f} s"
    )
    for name, func in unreviewed:
        print(f"unreviewed survivor: {name} {func}")
    for name, func in stale:
        print(f"reviewed survivor no longer survives: {name} {func}")
    for where in timeouts:
        print(f"timed out after {TIMEOUT_S} s: {where}")
    return 1 if unreviewed or stale or timeouts else 0


if __name__ == "__main__":
    sys.exit(main())
