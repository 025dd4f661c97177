"""What certify, report and --plot write: certificate JSON, reports and step plots.

``certify_rows`` certifies parsed corpus rows.  Certificate JSON is the
compared fields of the record classes in declaration order, and
``certificates_from_json`` reads back exactly what it writes.  All emitted
artifacts (certificate JSON, report JSON, SVG, CSV) are byte-deterministic
for a fixed input.  Parsing needs none of this, so ``knotcert.corpus`` does not import
it; the commands that write output do.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

from .certify import Certificate, _invalid_certificate, certify
from .corpus import CorpusEntry, ParsedRow, _unwritable
from .errors import KnotCertError, UnknownFormatError
from .inertia import SignatureProfile
from .laurent import SymmetricLaurentPoly, alexander_poly
from .record import Record, replace
from .seifert import KnotMetadata

# ---------------------------------------------------------------------------
# certificate JSON schema: the record class declarations are the schema


def _to_obj(x):
    """JSON-ready form of x: a record becomes its compared fields in order."""
    if isinstance(x, SymmetricLaurentPoly):
        return {str(k): x.coeffs[k] for k in sorted(x.coeffs)}
    if isinstance(x, Record):
        return {name: _to_obj(getattr(x, name)) for name in x._compared}
    if isinstance(x, tuple):
        return [_to_obj(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


# evaluating a class's annotations costs more than decoding its fields
_field_types = functools.cache(get_type_hints)


def _from_obj(tp, obj):
    """Inverse of _to_obj for a value declared with type tp.

    A value must come in the JSON type _to_obj writes for tp, else TypeError
    (a bool is not an int, a rational is a string, null is only an Optional).
    One rule holds each record to its JSON: written back, it must give the
    object read, else ValueError names the record and the first key that
    differs.  A record checks itself as it is built (a tuple's length, too).
    Other errors in reading a field become TypeError or ValueError naming it.
    """
    if type(None) in get_args(tp):  # an Optional
        if obj is None:
            return None
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
    # before the class test: on Python 3.10, isinstance(tuple[int, ...], type) holds
    args = get_args(tp) if get_origin(tp) is tuple else ()
    json_type = list if args else dict if issubclass(tp, Record) else str if tp is Fraction else tp
    if type(obj) is not json_type:
        raise TypeError(f"expected {json_type.__name__}, not {type(obj).__name__}")
    if args:  # every tuple field holds values of one type
        return tuple(_from_obj(args[0], v) for v in obj)
    if tp is SymmetricLaurentPoly:
        return SymmetricLaurentPoly({int(k): v for k, v in obj.items()})
    if issubclass(tp, Record):
        hints, fields = _field_types(tp), {}
        for name in [name for name in tp._compared if name in obj]:
            try:
                fields[name] = _from_obj(hints[name], obj[name])
            except (TypeError, ValueError, KnotCertError) as exc:
                error = TypeError if isinstance(exc, TypeError) else ValueError
                raise error(f"{tp.__name__} key {name!r}: {exc}") from exc
        # the one rule: the record, written back, is the object read
        written = {name: _to_obj(value) for name, value in fields.items()}
        for key in (*obj, *tp._compared):
            if key not in written or written[key] != obj[key]:
                how = (
                    "is missing" if key not in obj
                    else "is never written" if key not in written
                    else f"is written {json.dumps(written[key])}"
                )
                raise ValueError(f"{tp.__name__} key {key!r} {how}")
        return tp(**fields)
    return _rational(obj) if tp is Fraction else obj


def _rational(text: str) -> Fraction:
    """The Fraction written as text, "p/q" or "p"; a zero denominator raises ValueError."""
    # int(), unlike Fraction(), reads no exponent, so "1e99999999" costs no time
    numerator, _, denominator = text.partition("/")
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except ZeroDivisionError as exc:
        raise ValueError(f"rational {text!r} has a zero denominator") from exc


def certificates_to_json(certs: Sequence[Certificate]) -> str:
    return json.dumps([_to_obj(c) for c in certs], indent=2) + "\n"


def certificates_from_json(text: str) -> list[Certificate]:
    """The certificates that certificates_to_json wrote as text (see _from_obj)."""
    return list(_from_obj(tuple[Certificate, ...], json.loads(text)))


# ---------------------------------------------------------------------------
# pipeline over parsed rows


def certify_rows(rows: Sequence[ParsedRow], refine_bits: int = 32) -> list[Certificate]:
    """Certify parsed corpus rows in order; error rows become INVALID_INPUT records.

    Entries carry the matrix validated at parse time, so none is validated again.
    An entry is an error row too when its Alexander coefficients (checked before
    isolation) or root interval endpoints are too long to write (_unwritable), so
    certificates_to_json can write every record; an entry built in code, with
    no row of a corpus file, is worded by its 0-based position in ``rows``.
    InternalInconsistencyError propagates: it signals a bug in this software,
    not a property of the input.
    """
    out = []
    for position, row in enumerate(rows):
        meta, error = KnotMetadata(), row
        if isinstance(row, CorpusEntry):
            if row.row is None:
                row = replace(row, row=position)
            meta, delta = row.metadata(), alexander_poly(row.seifert)
            error = _unwritable(row, "Alexander coefficient", delta.coeffs.values())
        if error is None:
            cert = certify(row.seifert, meta, name=row.name, refine_bits=refine_bits, delta=delta)
            # every root has a jump witness
            ends = (x for j in cert.jump_witnesses for x in j.root.interval)
            error = _unwritable(row, "root interval endpoint", ends)
        if error is not None:
            cert = _invalid_certificate(meta, row.name or f"row {row.row}", str(error))
        out.append(cert)
    return out


# ---------------------------------------------------------------------------
# reports


def _report_row(cert: Certificate) -> dict:
    return {
        "name": cert.name,
        "genus": cert.genus,
        "alexander": _to_obj(cert.alexander),
        "unit_root_count": cert.unit_root_count,
        "simple_root_count": cert.simple_root_count,
        "jumps": [j.jump for j in cert.jump_witnesses],
        "signature_at_minus_one": cert.signature_at_minus_one,
        "verdict": cert.verdict,
        "error": cert.error,
    }


def emit_report(certificates: Sequence[Certificate], format: str = "table") -> str:
    """Render certificates as a human-readable table or machine-readable JSON."""
    if format == "json":
        return json.dumps([_report_row(c) for c in certificates], indent=2) + "\n"
    if format != "table":
        raise UnknownFormatError(f"unknown report format {format!r}")
    headers = ["name", "genus", "alexander", "roots", "simple", "jumps", "sig(-1)", "verdict"]
    rows = []
    for c in certificates:
        if c.verdict == "INVALID_INPUT":
            rows.append(
                [c.name or "?", "-", c.error or "invalid", "-", "-", "-", "-", c.verdict]
            )
        else:
            rows.append(
                [
                    c.name or "?",
                    str(c.genus),
                    str(c.alexander),
                    str(c.unit_root_count),
                    str(c.simple_root_count),
                    str([j.jump for j in c.jump_witnesses]),
                    str(c.signature_at_minus_one),
                    c.verdict,
                ]
            )
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# step plots


def _fmt(x: Fraction) -> str:
    return f"{float(x):.12g}"


def profile_steps(
    profile: SignatureProfile,
) -> list[tuple[Fraction, Fraction, int, Fraction, Fraction]]:
    """(phi_lo, phi_hi, signature, z_lo, z_hi) per plateau arc.

    Arc boundaries at roots use the rational midpoints of the witnesses'
    angle bounds and z-intervals; the final angle is a dyadic approximation
    of pi (pi/2 for halved-angle profiles).  Decisions upstream are exact in
    z; these cuts are display values.
    """
    end = Fraction(math.pi) / (2 if profile.paper_angles else 1)
    cuts_angle = [w.angle_mid for w in profile.jump_angles]
    cuts_z = [w.z_mid for w in profile.jump_angles]
    rows = []
    m = len(cuts_angle)
    for i, sig in enumerate(profile.plateau_values):
        phi_lo = Fraction(0) if i == 0 else cuts_angle[i - 1]
        phi_hi = cuts_angle[i] if i < m else end
        z_hi = Fraction(2) if i == 0 else cuts_z[i - 1]
        z_lo = cuts_z[i] if i < m else Fraction(-2)
        rows.append((phi_lo, phi_hi, sig, z_lo, z_hi))
    return rows


def profile_csv(profile: SignatureProfile) -> str:
    lines = ["phi_lo,phi_hi,signature,z_lo,z_hi"]
    for phi_lo, phi_hi, sig, z_lo, z_hi in profile_steps(profile):
        lines.append(f"{_fmt(phi_lo)},{_fmt(phi_hi)},{sig},{_fmt(z_lo)},{_fmt(z_hi)}")
    return "\n".join(lines) + "\n"


def _line(x1: float, y1: float, x2: float, y2: float, style: str) -> str:
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {style}/>'


def _text(x: float, y: float, size: int, anchor: str, body: object, extra: str = "") -> str:
    # the one place that escapes text; an int coordinate prints as is, a float to 2 places
    x, y = (v if isinstance(v, int) else f"{v:.2f}" for v in (x, y))
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{x}" y="{y}" font-family="monospace" font-size="{size}" '
        f'text-anchor="{anchor}"{extra}>{body}</text>'
    )


def profile_svg(profile: SignatureProfile, title: str | None = None) -> str:
    """Hand-rolled SVG step plot; byte-deterministic for a fixed profile."""
    width, height = 640, 360
    left, right, top, bottom = 60.0, 20.0, 24.0, 44.0
    steps = profile_steps(profile)
    end = float(steps[-1][1])
    values = list(profile.plateau_values)
    y_min = min(min(values) - 1, -1)
    y_max = max(max(values) + 1, 1)

    def x_of(phi: float) -> float:
        return left + (width - left - right) * phi / end

    def y_of(sig: float) -> float:
        return top + (height - top - bottom) * (y_max - sig) / (y_max - y_min)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(_text(width / 2, 16, 13, "middle", title))
    axis = 'stroke="black" stroke-width="1"'
    base = y_of(y_min)
    parts.append(_line(left, base, width - right, base, axis))
    parts.append(_line(left, base, left, y_of(y_max), axis))
    if profile.paper_angles:
        quarter_labels = ["0", "pi/8", "pi/4", "3pi/8", "pi/2"]
    else:
        quarter_labels = ["0", "pi/4", "pi/2", "3pi/4", "pi"]
    for k, label in enumerate(quarter_labels):
        xk = x_of(end * k / 4)
        parts += [_line(xk, base, xk, base + 5, axis), _text(xk, base + 18, 11, "middle", label)]
    for s in range(y_min + y_min % 2, y_max + 1, 2):
        ys = y_of(s)
        parts += [_line(left - 4, ys, left, ys, axis), _text(left - 8, ys + 4, 11, "end", s)]
    if y_min < 0 < y_max:
        zero = 'stroke="lightgray" stroke-width="1" stroke-dasharray="2,3"'
        parts.append(_line(left, y_of(0), width - right, y_of(0), zero))
    riser = 'stroke="crimson" stroke-width="1" stroke-dasharray="3,3"'
    for i, (phi_lo, phi_hi, sig, _, _) in enumerate(steps):
        y, xc = y_of(sig), x_of(float(phi_hi))
        parts.append(_line(x_of(float(phi_lo)), y, xc, y, 'stroke="crimson" stroke-width="2"'))
        if i + 1 < len(steps):
            parts.append(_line(xc, y, xc, y_of(steps[i + 1][2]), riser))
    angle_name = "alpha" if profile.paper_angles else "phi"
    mid = (top + height - bottom) / 2
    parts += [
        _text((left + width - right) / 2, height - 6.0, 12, "middle", angle_name),
        _text(14, mid, 12, "middle", "signature", f' transform="rotate(-90 14 {mid:.2f})"'),
    ]
    return "\n".join(parts) + "\n</svg>\n"


def emit_profile_plot(
    profile: SignatureProfile, path: str | Path, title: str | None = None
) -> Path:
    """Write the SVG step plot at ``path`` and its CSV companion alongside.

    The companion shares the stem with a .csv suffix.  Returns the SVG path;
    raises OSError on IO failure.
    """
    svg_path = Path(path)
    csv_path = svg_path.with_suffix(".csv")
    svg_path.write_text(profile_svg(profile, title=title), encoding="utf-8")
    csv_path.write_text(profile_csv(profile), encoding="utf-8")
    return svg_path
