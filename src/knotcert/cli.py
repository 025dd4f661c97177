"""Command-line surface.

Subcommands: validate, alexander, roots, signature, certify, report.
Every matrix is validated once, when the corpus is parsed.  signature,
certify and report run the full certificate pipeline with all of its exact
cross-checks; alexander and roots compute only what they print.
roots, signature, certify and report take --refine-bits N, N <= 4096 (a
bound on work, not on digits).  An error row prints as ``ERROR row N
(name): reason``; in certify and report it is an INVALID_INPUT record whose
error reads the same.  An entry is one if an Alexander coefficient or root
interval endpoint it prints is too long to write (signature prints neither).
Each command loads only the layers it runs: validate, alexander and roots
load corpus, errors, laurent, record and seifert; signature, certify and
report also load certify and inertia, and certify, report and --plot
emit, which the command functions below import; every plateau form is
evaluated in one loop in this process.
Exit codes: 0 success (NOT_APPLICABLE verdicts included), 1 an error row
or another input or validation error (a missing, unreadable or non-UTF-8
--input, an --out that names a directory, or an --out or --plot path that
cannot be written), 2 failed internal consistency check (in signature,
certify or report), any other package error, or a bad option.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .corpus import FORMATS, CorpusError, _unwritable, parse_corpus
from .errors import (
    CorpusParseError,
    InternalInconsistencyError,
    KnotCertError,
    UnknownFormatError,
    ValidationError,
)
from .laurent import MAX_REFINE_BITS, alexander_poly, isolate_unit_roots, to_z_poly

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONSISTENT = 2


def _refine_bits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    if value > MAX_REFINE_BITS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_REFINE_BITS}, got {text!r}")
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
        "--format", choices=FORMATS, default=None,
        help="corpus format; inferred from the file suffix when omitted",
    )
    refining = argparse.ArgumentParser(add_help=False)
    refining.add_argument(
        "--refine-bits", type=_refine_bits, default=32, metavar="N",
        help=f"refine isolating intervals to width 2^-N (default 32, at most {MAX_REFINE_BITS})",
    )
    plotting = argparse.ArgumentParser(add_help=False)
    plotting.add_argument(
        "--plot", metavar="DIR", default=None,
        help="write per-entry SVG step plots (and CSV companions) into DIR",
    )
    plotting.add_argument(
        "--paper-angles", action="store_true",
        help="report halved angles (jumps at alpha with e^(2i*alpha) the root)",
    )

    def add(name, run, parents, help_text):
        p = sub.add_parser(name, parents=[common, *parents], help=help_text)
        p.set_defaults(run=run)
        return p

    add("validate", _cmd_validate, [], "validate Seifert matrices")
    add("alexander", _cmd_alexander, [], "print Alexander polynomials")
    add("roots", _cmd_roots, [refining], "isolate unit-circle roots")
    signature = add("signature", _cmd_signature, [refining, plotting], "print signature profiles")
    signature.add_argument(
        "--slope-diagnostics", action="store_true",
        help="print display-only finite-difference eigenvalue slopes at each root",
    )
    cert = add("certify", _cmd_certify, [refining], "emit certificates as JSON")
    cert.add_argument("--out", metavar="PATH", default=None, help="also write the JSON here")
    report = add("report", _cmd_report, [refining, plotting], "summary table and JSON report")
    report.add_argument(
        "--out", metavar="PATH", default=None, help="write the machine-readable JSON report here"
    )
    return parser


def _plot_name(name: str, used: set[str]) -> str:
    # 200 characters leave room for a number and a suffix within the
    # 255-byte file-name limit of common file systems
    base = (re.sub(r"[^A-Za-z0-9_.-]", "_", name) or "entry")[:200]
    # stems are unique under casefold, so that no two plots share a file on a
    # case-insensitive file system
    candidate = base
    k = 2
    while candidate.casefold() in used:
        candidate = f"{base}_{k}"
        k += 1
    used.add(candidate.casefold())
    return candidate


def _each_entry(rows, emit) -> int:
    """Print each error row as ERROR and pass each entry to emit, in file order.

    emit prints an entry and returns None, or returns the CorpusError of an
    entry it cannot print, which is printed as an error row.
    """
    status = EXIT_OK
    for row in rows:
        error = row if isinstance(row, CorpusError) else emit(row)
        if error is not None:
            print(f"ERROR {error}")
            status = EXIT_INPUT_ERROR
    return status


def _cmd_validate(rows, args) -> int:
    def emit(entry):
        print(f"OK {entry.name}: genus {entry.seifert.genus}")

    return _each_entry(rows, emit)


def _cmd_alexander(rows, args) -> int:
    def emit(entry):
        delta = alexander_poly(entry.seifert)
        error = _unwritable(entry, "Alexander coefficient", delta.coeffs.values())
        if error is None:
            print(f"{entry.name}: {delta}")
        return error

    return _each_entry(rows, emit)


def _cmd_roots(rows, args) -> int:
    def emit(entry):
        p_z = to_z_poly(alexander_poly(entry.seifert))
        witnesses = isolate_unit_roots(p_z, refine_bits=args.refine_bits)
        ends = (x for w in witnesses for x in w.interval)
        error = _unwritable(entry, "root interval endpoint", ends)
        if error is not None:
            return error
        lines = [f"{entry.name}: {len(witnesses)} unit root(s)"] + [
            f"  z in ({w.interval[0]}, {w.interval[1]}], multiplicity {w.multiplicity},"
            f" phi in [{float(w.angle_bounds[0]):.6f}, {float(w.angle_bounds[1]):.6f}]"
            for w in witnesses
        ]
        print("\n".join(lines))

    return _each_entry(rows, emit)


def _write_plots(certs, args) -> None:
    """Write the step plot of every certificate with a profile into --plot, if given."""
    if args.plot is None:
        return
    from .emit import emit_profile_plot
    from .inertia import to_paper_parametrization

    out = Path(args.plot)  # made by main before the work
    used: set[str] = set()
    for cert in certs:
        if cert.profile is not None:
            profile = to_paper_parametrization(cert.profile) if args.paper_angles else cert.profile
            name = cert.name or "entry"
            emit_profile_plot(profile, out / f"{_plot_name(name, used)}.svg", title=name)


def _cmd_signature(rows, args) -> int:
    from .certify import certify
    from .inertia import to_paper_parametrization, transversality_diagnostic

    certs = []

    def emit(entry):
        cert = certify(
            entry.seifert, entry.metadata(), name=entry.name, refine_bits=args.refine_bits
        )
        certs.append(cert)
        profile = to_paper_parametrization(cert.profile) if args.paper_angles else cert.profile
        angle = "alpha" if args.paper_angles else "phi"
        jumps = ", ".join(
            f"{profile.plateau_values[i + 1] - profile.plateau_values[i]:+d} at "
            f"{angle} ~ {float(w.angle_mid):.6f}"
            for i, w in enumerate(profile.jump_angles)
        )
        print(
            f"{entry.name}: plateaus {list(profile.plateau_values)}, "
            f"sig(-1) = {profile.value_at_minus_one}"
            + (f", jumps: {jumps}" if jumps else "")
        )
        if args.slope_diagnostics:
            for i in range(len(cert.profile.jump_angles)):
                for diag in transversality_diagnostic(entry.seifert, cert.profile, i):
                    print(
                        f"  root {i}: eigenvalue {diag.left_eigenvalue:+.6g} -> "
                        f"{diag.right_eigenvalue:+.6g}, slope ~ {diag.slope:+.6g}"
                    )

    status = _each_entry(rows, emit)
    _write_plots(certs, args)
    return status


def _certificates(rows, args):
    """Certificates of all rows, and the exit status their verdicts give."""
    from .certify import INVALID_INPUT
    from .emit import certify_rows

    certs = certify_rows(rows, refine_bits=args.refine_bits)
    return certs, EXIT_INPUT_ERROR if any(c.verdict == INVALID_INPUT for c in certs) else EXIT_OK


def _cmd_certify(rows, args) -> int:
    from .emit import certificates_to_json

    certs, status = _certificates(rows, args)
    text = certificates_to_json(certs)
    sys.stdout.write(text)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    return status


def _cmd_report(rows, args) -> int:
    from .emit import emit_report

    certs, status = _certificates(rows, args)
    sys.stdout.write(emit_report(certs, format="table"))
    if args.out is not None:
        Path(args.out).write_text(emit_report(certs, format="json"), encoding="utf-8")
    _write_plots(certs, args)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    # fail before the work, not when the result is written
    if out is not None and Path(out).is_dir():
        print(f"error: --out is a directory: {out}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if out is not None and not Path(out).parent.is_dir():
        print(f"error: no such directory for --out: {Path(out).parent}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        if getattr(args, "plot", None) is not None:
            Path(args.plot).mkdir(parents=True, exist_ok=True)  # before the work, too
        try:
            rows = parse_corpus(args.input, format=args.format)
        except FileNotFoundError:
            print(f"error: no such file: {args.input}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except (UnknownFormatError, CorpusParseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        return args.run(rows, args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except KnotCertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
