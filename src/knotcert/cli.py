"""Command-line surface.

Subcommands: validate, alexander, roots, signature, certify, report.
Exit codes: 0 success (NOT_APPLICABLE verdicts included), 1 input or
validation errors, 2 failed internal consistency check or a bad option.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .certify import INVALID_INPUT
from .corpus import (
    CorpusError,
    certificates_to_json,
    certify_rows,
    emit_profile_plot,
    emit_report,
    parse_corpus,
)
from .errors import (
    CorpusParseError,
    InternalInconsistencyError,
    UnknownFormatError,
)
from .inertia import (
    signature_profile,
    to_paper_parametrization,
    transversality_diagnostic,
)
from .laurent import alexander_poly, isolate_unit_roots, to_z_poly
from .seifert import validate

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONSISTENT = 2


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotcert",
        description=(
            "Exact Alexander polynomials, unit-circle root isolation, "
            "signature profiles, and orderability certificates from integer "
            "Seifert matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="corpus file (json, jsonl, or csv)")
    common.add_argument(
        "--format", choices=("json", "jsonl", "csv"), default=None,
        help="corpus format; inferred from the file suffix when omitted",
    )
    common.add_argument(
        "--refine-bits", type=_nonnegative_int, default=32, metavar="N",
        help="refine isolating intervals to width 2^-N (default 32)",
    )

    sub.add_parser("validate", parents=[common], help="validate Seifert matrices")
    sub.add_parser("alexander", parents=[common], help="print Alexander polynomials")
    sub.add_parser("roots", parents=[common], help="isolate unit-circle roots")

    plotting = argparse.ArgumentParser(add_help=False)
    plotting.add_argument(
        "--plot", metavar="DIR", default=None,
        help="write per-entry SVG step plots (and CSV companions) into DIR",
    )
    plotting.add_argument(
        "--paper-angles", action="store_true",
        help="report halved angles (jumps at alpha with e^(2i*alpha) the root)",
    )
    signature = sub.add_parser(
        "signature", parents=[common, plotting], help="print signature profiles"
    )
    signature.add_argument(
        "--slope-diagnostics", action="store_true",
        help="print display-only finite-difference eigenvalue slopes at each root",
    )
    cert = sub.add_parser("certify", parents=[common], help="emit certificates as JSON")
    cert.add_argument("--out", metavar="PATH", default=None, help="also write the JSON here")
    report = sub.add_parser(
        "report", parents=[common, plotting], help="summary table and JSON report"
    )
    report.add_argument(
        "--out", metavar="PATH", default=None, help="write the machine-readable JSON report here"
    )
    return parser


def _load(args) -> list:
    return parse_corpus(args.input, format=args.format)


def _plot_name(name: str, used: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9_.-]", "_", name) or "entry"
    candidate = base
    k = 2
    while candidate in used:
        candidate = f"{base}_{k}"
        k += 1
    used.add(candidate)
    return candidate


def _angles_str(witness, halved: bool) -> str:
    lo, hi = witness.angle_bounds
    if halved:
        lo, hi = lo / 2, hi / 2
    return f"[{float(lo):.6f}, {float(hi):.6f}]"


def _cmd_validate(rows) -> int:
    status = EXIT_OK
    for row in rows:
        if isinstance(row, CorpusError):
            print(f"ERROR row {row.row} ({row.name or '?'}): {row.message}")
            status = EXIT_INPUT_ERROR
        else:
            print(f"OK {row.name}: genus {len(row.seifert) // 2}")
    return status


def _cmd_alexander(rows) -> int:
    status = EXIT_OK
    for row in rows:
        if isinstance(row, CorpusError):
            print(f"ERROR row {row.row} ({row.name or '?'}): {row.message}")
            status = EXIT_INPUT_ERROR
            continue
        delta = alexander_poly(validate(row.seifert, name=row.name))
        print(f"{row.name}: {delta}")
    return status


def _cmd_roots(rows, refine_bits: int) -> int:
    status = EXIT_OK
    for row in rows:
        if isinstance(row, CorpusError):
            print(f"ERROR row {row.row} ({row.name or '?'}): {row.message}")
            status = EXIT_INPUT_ERROR
            continue
        v = validate(row.seifert, name=row.name)
        witnesses = isolate_unit_roots(to_z_poly(alexander_poly(v)), refine_bits=refine_bits)
        print(f"{row.name}: {len(witnesses)} unit root(s)")
        for w in witnesses:
            print(
                f"  z in ({w.interval[0]}, {w.interval[1]}], multiplicity {w.multiplicity},"
                f" phi in {_angles_str(w, False)}"
            )
    return status


def _write_plots(profiles: list[tuple[str, object]], plot_dir: str) -> None:
    out = Path(plot_dir)
    out.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    for name, profile in profiles:
        stem = _plot_name(name, used)
        emit_profile_plot(profile, out / f"{stem}.svg", title=name)


def _cmd_signature(
    rows, refine_bits: int, plot: str | None, paper: bool, slopes: bool
) -> int:
    status = EXIT_OK
    profiles = []
    for row in rows:
        if isinstance(row, CorpusError):
            print(f"ERROR row {row.row} ({row.name or '?'}): {row.message}")
            status = EXIT_INPUT_ERROR
            continue
        v = validate(row.seifert, name=row.name)
        witnesses = isolate_unit_roots(to_z_poly(alexander_poly(v)), refine_bits=refine_bits)
        profile = signature_profile(v, witnesses)
        if paper:
            profile = to_paper_parametrization(profile)
        angle = "alpha" if paper else "phi"
        jumps = ", ".join(
            f"{profile.plateau_values[i + 1] - profile.plateau_values[i]:+d} at "
            f"{angle} ~ {float(w.angle_mid):.6f}"
            for i, w in enumerate(profile.jump_angles)
        )
        print(
            f"{row.name}: plateaus {list(profile.plateau_values)}, "
            f"sig(-1) = {profile.value_at_minus_one}"
            + (f", jumps: {jumps}" if jumps else "")
        )
        if slopes:
            for i in range(len(witnesses)):
                diag = transversality_diagnostic(v, witnesses, i)
                print(
                    f"  root {i}: eigenvalue {diag.left_eigenvalue:+.6g} -> "
                    f"{diag.right_eigenvalue:+.6g}, slope ~ {diag.slope:+.6g}"
                )
        profiles.append((row.name, profile))
    if plot is not None:
        _write_plots(profiles, plot)
    return status


def _cmd_certify(rows, refine_bits: int, out: str | None) -> int:
    certs = certify_rows(rows, refine_bits=refine_bits)
    text = certificates_to_json(certs)
    sys.stdout.write(text)
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    if any(c.verdict == INVALID_INPUT for c in certs):
        return EXIT_INPUT_ERROR
    return EXIT_OK


def _cmd_report(
    rows, refine_bits: int, out: str | None, plot: str | None, paper: bool
) -> int:
    certs = certify_rows(rows, refine_bits=refine_bits)
    sys.stdout.write(emit_report(certs, format="table"))
    if out is not None:
        Path(out).write_text(emit_report(certs, format="json"), encoding="utf-8")
    if plot is not None:
        profiles = []
        for cert in certs:
            if cert.profile is not None:
                profile = to_paper_parametrization(cert.profile) if paper else cert.profile
                profiles.append((cert.name or "entry", profile))
        _write_plots(profiles, plot)
    if any(c.verdict == INVALID_INPUT for c in certs):
        return EXIT_INPUT_ERROR
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rows = _load(args)
    except FileNotFoundError:
        print(f"error: no such file: {args.input}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (UnknownFormatError, CorpusParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        if args.command == "validate":
            return _cmd_validate(rows)
        if args.command == "alexander":
            return _cmd_alexander(rows)
        if args.command == "roots":
            return _cmd_roots(rows, args.refine_bits)
        if args.command == "signature":
            return _cmd_signature(
                rows, args.refine_bits, args.plot, args.paper_angles,
                args.slope_diagnostics,
            )
        if args.command == "certify":
            return _cmd_certify(rows, args.refine_bits, args.out)
        if args.command == "report":
            return _cmd_report(rows, args.refine_bits, args.out, args.plot, args.paper_angles)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
