"""Mutation gate: every fail-closed check in src/knotcert is caught by a tier-1 test.

A site is a ``raise InternalInconsistencyError(...)`` statement, a check's
``return False``, any ``raise`` in a record's ``__post_init__`` (the checks
that keep invalid instances from existing) and any ``raise`` in a function
of GUARDS, found with ``ast``; each of these statements is replaced by
``pass``.  In the modules of FLIPPED, a function that holds such a site has
one more site for each ``<``, ``<=``, ``==`` and ``!=``, which is flipped to
``<=``, ``<``, ``!=`` and ``==``; so has each function of DECIDING, which
holds no such site but computes what a check compares against.  Each site
in turn is mutated in a temporary copy of the checkout, and the tier-1
suite runs there with ``-x -q``: first the mutated module's own tests
(``tests/test_<module>*.py``), then, if those pass, the rest.  A mutant that passes the suite survives.  A
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
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "knotcert"

# (file under src/knotcert, function, kind) -> why no test can catch those sites
REVIEWED_SURVIVORS: dict[tuple[str, str, str], str] = {}

# (file under src/knotcert, function) -> why its raise statements are sites
GUARDS: dict[tuple[str, str], str] = {
    ("inertia.py", "_rational_sqrt_between"): "past its range the doubling loop never ends",
    ("emit.py", "_from_obj"): "the certificate reader's one rule and the JSON types it rests on",
    ("emit.py", "_rational"): "a rational with a zero denominator is not a number",
}

# files under src/knotcert whose checking functions also get comparison flips
FLIPPED = ("laurent.py", "inertia.py", "certify.py")
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}

# (file under src/knotcert, function) -> why its comparisons flip, though it holds no site
DECIDING: dict[tuple[str, str], str] = {
    ("certify.py", "_derived"): "the verdict and every field the certificate derives rest on it",
    ("certify.py", "_conclusion"): "the conclusion text that _derived gives",
}

# seconds one tier-1 run may take; the whole suite takes well under a minute
TIMEOUT_S = 300


class Site(NamedTuple):
    """One mutant: source bytes [start, end) of a module become text."""

    file: str
    function: str
    line: int
    kind: str  # "raise", "return False" or a flip such as "< to <="
    start: int
    end: int
    text: bytes


class _Sites(ast.NodeVisitor):
    """Collects (qualified function name, node) of one module's statement sites and comparisons."""

    def __init__(self, name: str):
        self.name = name
        self.scope: list[str] = []
        self.found: list[tuple[str, ast.stmt]] = []
        self.compares: list[tuple[str, ast.Compare]] = []

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
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return):
        if isinstance(node.value, ast.Constant) and node.value.value is False:
            self.found.append((".".join(self.scope), node))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare):
        self.compares.append((".".join(self.scope), node))
        self.generic_visit(node)


def sites(root: Path) -> list[Site]:
    """Every site under root's package, in file order and then source order."""
    out = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        source = path.read_bytes()
        lines = source.splitlines(keepends=True)

        def offset(lineno: int, col: int) -> int:  # ast offsets count UTF-8 bytes
            return sum(map(len, lines[: lineno - 1])) + col

        visitor = _Sites(path.name)
        visitor.visit(ast.parse(source, filename=str(path)))
        found = [
            Site(
                path.name,
                func,
                node.lineno,
                "return False" if isinstance(node, ast.Return) else "raise",
                offset(node.lineno, node.col_offset),
                offset(node.end_lineno, node.end_col_offset),
                b"pass",
            )
            for func, node in visitor.found
        ]
        checking = {site.function for site in found} if path.name in FLIPPED else set()
        checking |= {func for name, func in DECIDING if name == path.name}
        for func, node in visitor.compares:
            if func not in checking:
                continue
            for before, op, after in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) not in FLIPS:
                    continue
                old, new = FLIPS[type(op)]
                gap = offset(before.end_lineno, before.end_col_offset)
                between = source[gap : offset(after.lineno, after.col_offset)]
                assert between.count(old.encode()) == 1, between  # else this script is wrong
                start = gap + between.index(old.encode())
                kind, end = f"{old} to {new}", start + len(old)
                found.append(Site(path.name, func, after.lineno, kind, start, end, new.encode()))
        out += sorted(found, key=lambda site: site.start)
    return out


def mutant(source: bytes, site: Site) -> bytes:
    """source with the site's bytes replaced by its text."""
    out = source[: site.start] + site.text + source[site.end :]
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
        for site in found:
            print(f"{site.file}:{site.line} {site.function} {site.kind}")
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
        survivors, timeouts = [], []
        for site in found:
            path = checkout / PACKAGE / site.file
            original = path.read_bytes()
            path.write_bytes(mutant(original, site))
            t0 = time.monotonic()
            try:
                result = tier1(checkout, own_tests(checkout, site.file))
            finally:
                path.write_bytes(original)
            where = f"{site.file}:{site.line} {site.function} {site.kind}"
            if result == "passed":
                survivors.append((site.file, site.function, site.kind))
            elif result == "timeout":
                timeouts.append(where)
            verdict = {"failed": "caught", "passed": "SURVIVED", "timeout": "TIMEOUT"}[result]
            seconds = time.monotonic() - t0
            print(f"{where}: {verdict} ({seconds:.0f} s)", flush=True)

    unreviewed = sorted(set(survivors) - REVIEWED_SURVIVORS.keys())
    stale = sorted(REVIEWED_SURVIVORS.keys() - set(survivors))
    caught = len(found) - len(survivors) - len(timeouts)
    print(
        f"{len(found)} sites, {caught} caught, {len(survivors)} survived, "
        f"{len(timeouts)} timed out, in {time.monotonic() - started:.0f} s"
    )
    for name, func, kind in unreviewed:
        print(f"unreviewed survivor: {name} {func} {kind}")
    for name, func, kind in stale:
        print(f"reviewed survivor no longer survives: {name} {func} {kind}")
    for where in timeouts:
        print(f"timed out after {TIMEOUT_S} s: {where}")
    return 1 if unreviewed or stale or timeouts else 0


if __name__ == "__main__":
    sys.exit(main())
