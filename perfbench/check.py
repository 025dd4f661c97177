"""Checks of command-line output against the values the generators expect.

Each check returns one message per entry whose output is wrong; an empty
list means every entry of the invocation was right.  Root locations are
checked to float precision: the expected z must lie in the reported
isolating interval, widened by ``_Z_SLACK``, and the interval must be no
wider than 2^-refine_bits.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

from workloads import Expected, Invocation, Knot

_Z_SLACK = 1e-12
_ROOTS_HEADER = re.compile(r"^(\S+): (\d+) unit root\(s\)$")
_ROOT_LINE = re.compile(r"^  z in \((\S+), (\S+)\], multiplicity (\d+), phi in \[\S+, \S+\]$")


def expected_exit_code(inv: Invocation) -> int:
    return 1 if any(k.expected is None for k in inv.knots) else 0


def _interval_error(interval, z: float, bits: int) -> str | None:
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if not -2 < lo < hi < 2:
        return f"interval ({lo}, {hi}] not inside (-2, 2)"
    if hi - lo > Fraction(1, 2**bits):
        return f"interval wider than 2^-{bits}"
    if not float(lo) - _Z_SLACK <= z <= float(hi) + _Z_SLACK:
        return f"root z = {z!r} not in ({float(lo)!r}, {float(hi)!r}]"
    return None


def _alexander_obj(e: Expected) -> dict:
    return {str(k): c for k, c in e.alexander.items()}


def _report_row_error(knot: Knot, row: dict) -> str | None:
    e = knot.expected
    if row.get("name") != knot.name:
        return f"name {row.get('name')!r}"
    if e is None:
        if row.get("verdict") != "INVALID_INPUT" or not row.get("error"):
            return f"corrupted row not rejected: {row.get('verdict')}"
        return None
    got = (
        row.get("genus"),
        row.get("alexander"),
        row.get("unit_root_count"),
        row.get("simple_root_count"),
        row.get("jumps"),
        row.get("signature_at_minus_one"),
        row.get("verdict"),
    )
    want = (
        e.genus,
        _alexander_obj(e),
        len(e.roots),
        sum(r.multiplicity == 1 for r in e.roots),
        [r.jump for r in e.roots],
        e.sigma,
        e.verdict,
    )
    return None if got == want else f"report row {got} != expected {want}"


def _plot_error(knot: Knot, artifacts: dict[str, bytes]) -> str | None:
    svg = artifacts.get(f"plots/{knot.name}.svg")
    table = artifacts.get(f"plots/{knot.name}.csv")
    if not svg or table is None:
        return "missing SVG/CSV plot"
    rows = list(csv.DictReader(io.StringIO(table.decode("utf-8"))))
    signatures = [int(r["signature"]) for r in rows]
    if signatures != knot.expected.plateaus:
        return f"plot plateaus {signatures} != {knot.expected.plateaus}"
    return None


def check_report(inv: Invocation, stdout: str, artifacts: dict[str, bytes]) -> list[str]:
    try:
        rows = json.loads(artifacts["report.json"])
    except (KeyError, ValueError) as exc:
        return [f"{k.name}: no report JSON ({exc!r})" for k in inv.knots]
    if len(rows) != len(inv.knots):
        return [f"{k.name}: report has {len(rows)} rows" for k in inv.knots]
    valid = {f"plots/{k.name}.{ext}" for k in inv.knots if k.expected for ext in ("svg", "csv")}
    if set(artifacts) - {"report.json"} != valid:
        return [f"{k.name}: plot files differ from the valid rows" for k in inv.knots]
    failures = []
    for knot, row in zip(inv.knots, rows):
        err = _report_row_error(knot, row)
        if err is None and knot.expected is not None:
            err = _plot_error(knot, artifacts)
        if err is not None:
            failures.append(f"{knot.name}: {err}")
    return failures


def _certificate_error(knot: Knot, cert: dict, bits: int) -> str | None:
    e = knot.expected
    checks = cert.get("consistency_checks") or {}
    if not checks or not all(checks.values()):
        return f"consistency checks {checks}"
    got = (
        cert.get("name"),
        cert.get("verdict"),
        cert.get("genus"),
        cert.get("alexander"),
        cert.get("signature_at_minus_one"),
        len(cert.get("simple_root_witnesses", ())),
        len(cert.get("odd_multiplicity_witnesses", ())),
    )
    want = (
        knot.name,
        e.verdict,
        e.genus,
        _alexander_obj(e),
        e.sigma,
        sum(r.multiplicity == 1 for r in e.roots),
        sum(r.multiplicity % 2 for r in e.roots),
    )
    if got != want:
        return f"certificate {got} != expected {want}"
    jumps = cert.get("jump_witnesses", [])
    if len(jumps) != len(e.roots):
        return f"{len(jumps)} jump witnesses, expected {len(e.roots)}"
    plateaus = e.plateaus
    for i, (j, r) in enumerate(zip(jumps, e.roots)):
        if (j["jump"], j["root"]["multiplicity"], j["left_value"], j["right_value"]) != (
            r.jump, r.multiplicity, plateaus[i], plateaus[i + 1],
        ):
            return f"jump witness {i}: {j['jump']} x{j['root']['multiplicity']}"
        err = _interval_error(j["root"]["interval"], r.z, bits)
        if err:
            return err
    return None


def check_certify(inv: Invocation, stdout: str, artifacts: dict[str, bytes]) -> list[str]:
    try:
        certs = json.loads(stdout)
    except ValueError as exc:
        return [f"{k.name}: stdout is not JSON ({exc})" for k in inv.knots]
    if len(certs) != len(inv.knots):
        return [f"{k.name}: {len(certs)} certificates" for k in inv.knots]
    failures = []
    for knot, cert in zip(inv.knots, certs):
        err = _certificate_error(knot, cert, inv.refine_bits)
        if err is not None:
            failures.append(f"{knot.name}: {err}")
    return failures


def check_roots(inv: Invocation, stdout: str, artifacts: dict[str, bytes]) -> list[str]:
    lines = stdout.splitlines()
    failures = []
    pos = 0
    for knot in inv.knots:
        header = _ROOTS_HEADER.match(lines[pos]) if pos < len(lines) else None
        if header is None or header.group(1) != knot.name:
            return failures + [f"{knot.name}: no roots header"]
        count = int(header.group(2))
        body = lines[pos + 1 : pos + 1 + count]
        pos += 1 + count
        # printed by increasing z; the expectation runs by decreasing z
        want = knot.expected.roots[::-1]
        if count != len(want):
            failures.append(f"{knot.name}: {count} roots, expected {len(want)}")
            continue
        for line, r in zip(body, want):
            m = _ROOT_LINE.match(line)
            if m is None:
                err = "unparsable root line"
            elif int(m.group(3)) != r.multiplicity:
                err = f"multiplicity {m.group(3)}, expected {r.multiplicity}"
            else:
                err = _interval_error((m.group(1), m.group(2)), r.z, inv.refine_bits)
            if err:
                failures.append(f"{knot.name}: {err}")
                break
    if pos != len(lines):
        failures.append(f"{len(lines) - pos} unexpected trailing lines")
    return failures


CHECKS = {"report": check_report, "certify": check_certify, "roots": check_roots}
