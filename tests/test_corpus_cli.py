from __future__ import annotations

import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest

from knotcert.certify import CERTIFIED, INVALID_INPUT, certify
from knotcert.cli import main
from knotcert.corpus import CorpusEntry, CorpusError, parse_corpus, write_corpus
from knotcert.emit import (
    certificates_from_json,
    certificates_to_json,
    certify_rows,
    emit_profile_plot,
    emit_report,
    profile_csv,
    profile_steps,
)
from knotcert.errors import (
    CorpusParseError,
    InternalInconsistencyError,
    RootAtPlusMinusOneError,
    UnknownFormatError,
    ZeroPolynomialError,
)
from knotcert.fixtures import FIGURE_EIGHT, TREFOIL, UNKNOT, granny_knot, random_corpus
from knotcert.inertia import signature_profile
from knotcert.laurent import alexander_poly, isolate_unit_roots, to_z_poly
from knotcert.seifert import validate

TREFOIL_OBJ = {"name": "trefoil", "seifert": [[-1, 1], [0, -1]]}
DATA = Path(__file__).parent / "data"


def profile_of(v):
    return signature_profile(v, isolate_unit_roots(to_z_poly(alexander_poly(v))))


# --- parsing -------------------------------------------------------------------


def test_parse_json_roundtrip(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([TREFOIL_OBJ]))
    (entry,) = parse_corpus(p)
    assert entry == CorpusEntry("trefoil", validate([[-1, 1], [0, -1]]))
    assert entry.seifert.name == "trefoil"
    assert entry.assume_irreducible and not entry.assume_m0_prime


def test_parse_empty_jsonl_is_empty(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text("")
    assert parse_corpus(p) == []


def test_parse_empty_json_is_format_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("")
    with pytest.raises(CorpusParseError):
        parse_corpus(p)


def test_parse_rejects_unknown_format(tmp_path):
    p = tmp_path / "c.xml"
    p.write_text("<entries/>")
    with pytest.raises(UnknownFormatError):
        parse_corpus(p)
    with pytest.raises(UnknownFormatError):
        parse_corpus(p, format="xml")


def test_parse_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_corpus("/nonexistent/corpus.json")


def test_parse_odd_size_row_yields_error_record(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([TREFOIL_OBJ, {"name": "bad", "seifert": [[1]]}]))
    rows = parse_corpus(p)
    assert isinstance(rows[0], CorpusEntry)
    err = rows[1]
    assert isinstance(err, CorpusError)
    assert err.row == 1 and err.name == "bad"
    assert "row 1" in str(err)


def test_parse_rejects_fractional_entries(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([{"name": "frac", "seifert": [[-1.5, 1], [0, -1]]}]))
    (row,) = parse_corpus(p)
    assert isinstance(row, CorpusError)


def test_parse_jsonl_bad_line_is_row_error(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text(json.dumps(TREFOIL_OBJ) + "\n{not json}\n")
    rows = parse_corpus(p)
    assert isinstance(rows[0], CorpusEntry)
    assert isinstance(rows[1], CorpusError)


def test_parse_jsonl_keeps_unicode_line_separators_in_strings(tmp_path):
    # JSON allows these raw inside a string; str.splitlines() would break there
    p = tmp_path / "c.jsonl"
    objs = [dict(TREFOIL_OBJ, name=f"a{sep}b") for sep in ("\u2028", "\u2029", "\u0085")]
    p.write_text("".join(json.dumps(o, ensure_ascii=False) + "\n" for o in objs), encoding="utf-8")
    rows = parse_corpus(p)
    assert all(isinstance(r, CorpusEntry) for r in rows)
    assert [(r.row, r.name) for r in rows] == [(i, o["name"]) for i, o in enumerate(objs)]


@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv"])
@pytest.mark.parametrize("name", ["nul\x00x", "tab\tx", "us\x1fx", "del\x7fx"])
def test_parse_rejects_a_name_with_a_control_character(tmp_path, fmt, name):
    # the error row does not echo the name, which could forge an output line
    p = tmp_path / f"c.{fmt}"
    objs = [dict(TREFOIL_OBJ, name=name), TREFOIL_OBJ]
    if fmt == "json":
        p.write_text(json.dumps(objs), encoding="utf-8")
    elif fmt == "jsonl":
        p.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
    else:
        p.write_text("".join(f'"{o["name"]}",-1,1,0,-1,2\n' for o in objs), encoding="utf-8")
    bad, good = parse_corpus(p)
    assert bad == CorpusError(0, None, "name contains a control character")
    assert good == CorpusEntry("trefoil", validate([[-1, 1], [0, -1]]))


def test_parse_rejects_a_seifert_value_that_is_not_a_matrix(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([{"name": "flat", "seifert": [-1, 1, 0, -1]}, TREFOIL_OBJ]))
    bad, good = parse_corpus(p)
    assert bad == CorpusError(0, "flat", "'seifert' must be a matrix (list of lists)")
    assert isinstance(good, CorpusEntry)


def test_parse_rejects_a_non_boolean_flag(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([dict(TREFOIL_OBJ, assume_irreducible="yes")]))
    assert parse_corpus(p) == [CorpusError(0, "trefoil", "'assume_irreducible' must be a boolean")]


def test_parse_csv(tmp_path):
    # name, row-major entries, trailing size column; a signed size on the
    # first line is data, not a header, because int() reads it
    p = tmp_path / "c.csv"
    for first in ("trefoil,-1,1,0,-1,2", "trefoil,-1,1,0,-1,+2"):
        p.write_text(first + "\nshort,-1,1,2\n")
        rows = parse_corpus(p)
        assert rows[0] == CorpusEntry("trefoil", validate([[-1, 1], [0, -1]]))
        assert isinstance(rows[1], CorpusError)


@pytest.mark.parametrize(
    "suffix, text",
    [
        ("json", json.dumps([TREFOIL_OBJ])),
        ("jsonl", json.dumps(TREFOIL_OBJ) + "\n"),
        ("csv", "trefoil,-1,1,0,-1,2\n"),
    ],
    ids=["json", "jsonl", "csv"],
)
def test_parse_skips_a_leading_byte_order_mark(tmp_path, suffix, text):
    # Excel writes a UTF-8 byte-order mark at the start of a CSV; read as
    # text it would be part of the first record
    p = tmp_path / f"c.{suffix}"
    p.write_text("\ufeff" + text, encoding="utf-8")
    assert parse_corpus(p) == [CorpusEntry("trefoil", validate([[-1, 1], [0, -1]]))]


READ_BACK = "would not read back unchanged"


@pytest.mark.parametrize("name", ["two\nlines", "two\rlines"])
def test_write_csv_rejects_a_name_with_a_line_break(tmp_path, name):
    # the reader takes one physical line per record and would split the name
    p = tmp_path / "c.csv"
    with pytest.raises(ValueError, match=READ_BACK):
        write_corpus([CorpusEntry(name, TREFOIL)], p, "csv")
    assert not p.exists()


@pytest.mark.parametrize(
    # why names the reader's rule that changes the entry; it is the test id's last part
    "name, flags, why",
    [
        # the reader strips the name cell, so " padded " would come back "padded"
        (" padded ", {}, "whitespace"),
        ("padded ", {}, "whitespace"),
        ("\tpadded", {}, "whitespace"),
        # no flag columns: a trefoil written with assume_irreducible=False
        # would read back CERTIFIED instead of NOT_APPLICABLE
        ("trefoil", {"assume_irreducible": False}, "flag"),
        ("trefoil", {"assume_m0_prime": True}, "flag"),
        # the reader drops a byte-order mark at the start of the file
        ("\ufeffmarked", {}, "bom"),
    ],
)
def test_write_csv_rejects_an_entry_it_would_read_back_differently(tmp_path, name, flags, why):
    p = tmp_path / "c.csv"
    with pytest.raises(ValueError, match=READ_BACK):
        write_corpus([CorpusEntry(name, TREFOIL, **flags)], p, "csv")
    assert not p.exists()


@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv"])
@pytest.mark.parametrize("name", ["", "ctl\x01x"])
def test_write_rejects_a_name_the_reader_makes_an_error_row(tmp_path, fmt, name):
    p = tmp_path / f"c.{fmt}"
    entries = [CorpusEntry("trefoil", TREFOIL), CorpusEntry(name, TREFOIL)]
    with pytest.raises(ValueError, match=rf"entry 1 \({re.escape(repr(name))}\) {READ_BACK}"):
        write_corpus(entries, p)
    assert not p.exists()


@pytest.mark.parametrize("fname, fmt", [("c.csv", "csv"), ("c.jsonl", "jsonl"), ("c.JSON", "json")])
def test_write_infers_the_format_from_the_suffix(tmp_path, fname, fmt):
    entries = random_corpus(6, seed=2)
    p = tmp_path / fname
    write_corpus(entries, p)
    assert parse_corpus(p, format=fmt) == entries


def test_write_rejects_an_unknown_suffix_before_writing(tmp_path):
    p = tmp_path / "c.xml"
    with pytest.raises(UnknownFormatError):
        write_corpus(random_corpus(2, seed=2), p)
    assert not p.exists()


def test_write_parse_roundtrip_all_formats(tmp_path):
    entries = random_corpus(6, seed=2)
    for fmt in ("json", "jsonl", "csv"):
        p = tmp_path / f"c.{fmt}"
        write_corpus(entries, p, fmt)
        rows = parse_corpus(p)
        assert [r.seifert for r in rows] == [e.seifert for e in entries]
        assert [r.name for r in rows] == [e.name for e in entries]


def test_parse_flags(tmp_path):
    p = tmp_path / "c.json"
    obj = dict(TREFOIL_OBJ, assume_irreducible=False, assume_m0_prime=True)
    p.write_text(json.dumps([obj]))
    (entry,) = parse_corpus(p)
    meta = entry.metadata()
    assert not meta.assume_irreducible
    assert meta.assume_m0_prime


# --- certificate JSON schema -----------------------------------------------------


def test_certificate_json_roundtrip_is_stable(tmp_path):
    p = tmp_path / "c.json"
    for objs in (
        [
            TREFOIL_OBJ,
            {"name": "figure8", "seifert": [[1, 1], [0, -1]]},
            {"name": "broken", "seifert": [[0, 0], [0, 0]]},
        ],
        # a multiplicity-2 witness and an empty odd-multiplicity list
        [{"name": "granny", "seifert": [list(r) for r in granny_knot().entries]}],
        # empty witness tuples and alexander {"0": 1}
        [{"name": "unknot", "seifert": []}],
        [dict(TREFOIL_OBJ, assume_irreducible=False, assume_m0_prime=True)],
    ):
        p.write_text(json.dumps(objs))
        certs = certify_rows(parse_corpus(p))
        text = certificates_to_json(certs)
        parsed = certificates_from_json(text)
        assert parsed == certs
        # parse(emit(parse(x))) == parse(x)
        assert certificates_from_json(certificates_to_json(parsed)) == parsed


def test_certificate_json_round_trips_the_determinism_corpus():
    # the corpus of acceptance criterion 7
    certs = certify_rows(random_corpus(50, seed=17))
    assert certificates_from_json(certificates_to_json(certs)) == certs


def test_certificate_json_rejects_a_missing_key():
    # the writer writes every compared field, so a missing key is damage,
    # even where the field has a default
    text = certificates_to_json([certify(TREFOIL, name="trefoil")])
    for path, record in [
        (("name",), "Certificate"),
        (("genus",), "Certificate"),
        (("error",), "Certificate"),
        (("consistency_checks", "parity"), "ConsistencyChecks"),
        (("simple_root_witnesses", 0, "multiplicity"), "UnitRootWitness"),
    ]:
        obj = json.loads(text)[0]
        *keys, last = path
        target = obj
        for key in keys:
            target = target[key]
        del target[last]
        with pytest.raises(ValueError, match=f"{record} key '{last}' is missing"):
            certificates_from_json(json.dumps([obj]))


@pytest.mark.parametrize(
    "rename, extra, key",
    [
        ("genus", None, "genuss"),  # a misspelt key once read back as genus=None
        (None, ("bogus", 1), "bogus"),
        (None, ("profile", None), "profile"),  # a field, but not a written one
    ],
)
def test_certificate_json_rejects_an_unknown_key(rename, extra, key):
    obj = json.loads(certificates_to_json([certify(TREFOIL, name="trefoil")]))[0]
    if rename:
        obj[key] = obj.pop(rename)
    if extra:
        obj.update([extra])
    with pytest.raises(ValueError, match=f"Certificate key '{key}' is never written"):
        certificates_from_json(json.dumps([obj]))


def test_certificate_json_rejects_a_non_integer_alexander_coefficient():
    obj = json.loads(certificates_to_json([certify(TREFOIL, name="trefoil")]))[0]
    obj["alexander"]["0"] = -1.9
    with pytest.raises(TypeError):
        certificates_from_json(json.dumps([obj]))


@pytest.mark.parametrize(
    "path, value, error",
    [
        (("genus",), "abc", TypeError),
        (("genus",), True, TypeError),  # an int field takes no bool
        (("genus",), 1.0, TypeError),
        (("verdict",), 42, TypeError),
        (("verdict",), None, TypeError),  # null only for an Optional field
        (("name",), 7, TypeError),
        (("consistency_checks", "parity"), "no", TypeError),
        (("consistency_checks", "parity"), 1, TypeError),  # a bool field takes no int
        (("assumptions_echoed",), None, TypeError),
        (("assumptions_echoed",), [True, True, False], TypeError),
        (("simple_root_witnesses", 0, "multiplicity"), True, TypeError),
        (("simple_root_witnesses", 0, "interval"), [1, 2], TypeError),  # rationals are strings
        (("simple_root_witnesses", 0, "interval"), "1", TypeError),
        (("simple_root_witnesses", 0, "interval"), ["1"], ValueError),
        (("simple_root_witnesses", 0, "interval"), ["0", "1", "2"], ValueError),
        (("simple_root_witnesses",), {}, TypeError),
        (("jump_witnesses",), None, TypeError),
        (("alexander",), [[0, 1]], TypeError),
    ],
)
def test_certificate_json_rejects_an_ill_typed_value(path, value, error):
    obj = json.loads(certificates_to_json([certify(TREFOIL, name="trefoil")]))[0]
    *keys, last = path
    target = obj
    for key in keys:
        target = target[key]
    target[last] = value
    with pytest.raises(error):
        certificates_from_json(json.dumps([obj]))


# int() reads each of these keys, but certificates_to_json writes none of them
@pytest.mark.parametrize("key, written", [("+1", "1"), ("\u0660", "0"), (" 1", "1"), ("01", "1")])
def test_certificate_json_rejects_a_non_canonical_alexander_exponent(key, written):
    cert = certify(TREFOIL, name="trefoil")
    text = certificates_to_json([cert])
    assert certificates_from_json(text) == [cert]
    obj = json.loads(text)[0]
    obj["alexander"][key] = obj["alexander"].pop(written)
    with pytest.raises(ValueError, match="Certificate key 'alexander' is written "):
        certificates_from_json(json.dumps([obj]))


# Fraction() reads each of these as 1, but certificates_to_json writes "1"; the
# first pair also read back as the empty interval (1, 1]
@pytest.mark.parametrize(
    "lo, hi",
    [("2/2", " \u0661/1 "), *((None, hi) for hi in ["2/2", "1/1", " 1", "\u0661", "1.0", "+1", "01"])],
)
def test_certificate_json_rejects_a_non_canonical_rational(lo, hi):
    cert = certify(TREFOIL, name="trefoil")
    obj = json.loads(certificates_to_json([cert]))[0]
    interval = obj["simple_root_witnesses"][0]["interval"]
    assert interval[1] == "1"
    interval[:] = [lo or interval[0], hi]
    with pytest.raises(ValueError, match="UnitRootWitness key 'interval'"):
        certificates_from_json(json.dumps([obj]))


def test_certificate_json_rejects_a_zero_denominator():
    obj = json.loads(certificates_to_json([certify(TREFOIL, name="trefoil")]))[0]
    obj["simple_root_witnesses"][0]["angle_bounds"][1] = "1/0"
    with pytest.raises(ValueError, match="zero denominator"):
        certificates_from_json(json.dumps([obj]))


def test_certificate_json_carries_schema_fields():
    cert = certify(TREFOIL, name="trefoil")
    obj = json.loads(certificates_to_json([cert]))[0]
    assert obj["verdict"] == "CERTIFIED"
    assert obj["genus"] == 1
    assert obj["alexander"] == {"-1": 1, "0": -1, "1": 1}
    assert obj["signature_at_minus_one"] == -2
    assert obj["assumptions_echoed"] == {
        "assume_irreducible": True,
        "assume_homology_sphere": True,
        "assume_m0_prime": False,
    }
    assert obj["consistency_checks"] == {
        "det_sign_crosscheck": True,
        "first_plateau_zero": True,
        "parity": True,
    }
    (witness,) = obj["simple_root_witnesses"]
    assert witness["multiplicity"] == 1
    lo, hi = witness["interval"]
    assert "/" in lo and hi == "1"


# --- reports ---------------------------------------------------------------------


def test_emit_report_trefoil_row():
    cert = certify(TREFOIL, name="trefoil")
    table = emit_report([cert], format="table")
    assert "trefoil" in table
    assert "CERTIFIED" in table
    assert "-2" in table
    rows = json.loads(emit_report([cert], format="json"))
    assert rows[0]["verdict"] == "CERTIFIED"
    assert rows[0]["signature_at_minus_one"] == -2
    assert rows[0]["jumps"] == [-2]
    assert rows[0]["unit_root_count"] == 1
    assert rows[0]["simple_root_count"] == 1


def test_emit_report_empty_is_header_only():
    table = emit_report([], format="table")
    lines = [l for l in table.splitlines() if l.strip()]
    assert len(lines) == 2  # header + rule
    assert json.loads(emit_report([], format="json")) == []


def test_emit_report_mixed_rows(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps([TREFOIL_OBJ, {"name": "broken", "seifert": [[0, 0], [0, 0]]}])
    )
    certs = certify_rows(parse_corpus(p))
    table = emit_report(certs, format="table")
    assert "CERTIFIED" in table and "INVALID_INPUT" in table
    rows = json.loads(emit_report(certs, format="json"))
    assert [r["name"] for r in rows] == ["trefoil", "broken"]  # input order
    assert rows[1]["error"]


def test_emit_report_rejects_unknown_format():
    with pytest.raises(UnknownFormatError):
        emit_report([], format="yaml")


# --- plots ------------------------------------------------------------------------


def test_profile_steps_trefoil():
    steps = profile_steps(profile_of(TREFOIL))
    assert len(steps) == 2
    (phi0_lo, phi0_hi, sig0, z0_lo, z0_hi), (phi1_lo, phi1_hi, sig1, z1_lo, z1_hi) = steps
    assert phi0_lo == 0 and sig0 == 0 and z0_hi == 2
    assert sig1 == -2 and z1_lo == -2
    assert phi0_hi == phi1_lo  # shared cut at the root angle
    assert abs(float(phi0_hi) - math.pi / 3) < 1e-6
    assert abs(float(phi1_hi) - math.pi) < 1e-12
    assert abs(float(z0_lo) - 1.0) < 1e-6


def test_profile_csv_figure_eight_single_step():
    text = profile_csv(profile_of(FIGURE_EIGHT))
    lines = text.strip().splitlines()
    assert lines[0] == "phi_lo,phi_hi,signature,z_lo,z_hi"
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "0"


def test_profile_plot_unknot_single_zero_step(tmp_path):
    path = emit_profile_plot(profile_of(UNKNOT), tmp_path / "unknot.svg")
    assert path.exists()
    csv_text = (tmp_path / "unknot.csv").read_text()
    assert len(csv_text.strip().splitlines()) == 2


def test_profile_plot_deterministic(tmp_path):
    prof = profile_of(TREFOIL)
    emit_profile_plot(prof, tmp_path / "a.svg", title="trefoil")
    emit_profile_plot(prof, tmp_path / "b.svg", title="trefoil")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert b"<svg" in (tmp_path / "a.svg").read_bytes()


# --- CLI ---------------------------------------------------------------------------


@pytest.fixture()
def corpus_file(tmp_path):
    p = tmp_path / "corpus.json"
    p.write_text(
        json.dumps(
            [
                TREFOIL_OBJ,
                {"name": "figure8", "seifert": [[1, 1], [0, -1]]},
            ]
        )
    )
    return p


def test_cli_validate_ok(corpus_file, capsys):
    assert main(["validate", "--input", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert "OK trefoil: genus 1" in out


def test_cli_validate_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps([{"name": "bad", "seifert": [[1]]}]))
    assert main(["validate", "--input", str(p)]) == 1
    assert "ERROR row 0" in capsys.readouterr().out


def test_cli_alexander(corpus_file, capsys):
    assert main(["alexander", "--input", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert "trefoil: t - 1 + t^-1" in out
    assert "figure8: -t + 3 - t^-1" in out


def test_cli_roots(corpus_file, capsys):
    assert main(["roots", "--input", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert "trefoil: 1 unit root(s)" in out
    assert "figure8: 0 unit root(s)" in out


def test_cli_roots_refine_bits(corpus_file, capsys):
    assert main(["roots", "--input", str(corpus_file), "--refine-bits", "8"]) == 0
    out = capsys.readouterr().out
    assert "multiplicity 1" in out


def test_cli_signature_with_plots(corpus_file, tmp_path, capsys):
    plot_dir = tmp_path / "plots"
    assert (
        main(["signature", "--input", str(corpus_file), "--plot", str(plot_dir)]) == 0
    )
    out = capsys.readouterr().out
    assert "trefoil: plateaus [0, -2], sig(-1) = -2" in out
    assert sorted(p.name for p in plot_dir.iterdir()) == [
        "figure8.csv",
        "figure8.svg",
        "trefoil.csv",
        "trefoil.svg",
    ]


def test_cli_signature_paper_angles(corpus_file, capsys):
    assert main(["signature", "--input", str(corpus_file), "--paper-angles"]) == 0
    out = capsys.readouterr().out
    # trefoil jump reported near alpha = pi/6
    assert "alpha ~ 0.5235" in out


def test_cli_certify_json(corpus_file, capsys):
    assert main(["certify", "--input", str(corpus_file)]) == 0
    certs = certificates_from_json(capsys.readouterr().out)
    assert [c.verdict for c in certs] == ["CERTIFIED", "NOT_APPLICABLE"]


def test_cli_report_and_exit_codes(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps([TREFOIL_OBJ, {"name": "broken", "seifert": [[0, 0], [0, 0]]}])
    )
    out_json = tmp_path / "report.json"
    rc = main(["report", "--input", str(p), "--out", str(out_json)])
    assert rc == 1  # invalid row present
    assert "INVALID_INPUT" in capsys.readouterr().out
    rows = json.loads(out_json.read_text())
    assert rows[0]["verdict"] == CERTIFIED
    assert rows[1]["verdict"] == INVALID_INPUT


def test_cli_missing_file_and_unknown_format(tmp_path, capsys):
    assert main(["report", "--input", str(tmp_path / "nope.json")]) == 1
    p = tmp_path / "c.unknown"
    p.write_text("[]")
    assert main(["report", "--input", str(p)]) == 1


FLOAT_ROW = {"name": "float", "seifert": [[1.5, 1], [0, -1]]}
FLOAT_MESSAGE = "row 0 (float): 'float' object cannot be interpreted as an integer"
# a structural error, found before the matrix is validated
FLAT_ROW = {"name": "flat", "seifert": [1, 2]}
FLAT_MESSAGE = "row 1 (flat): 'seifert' must be a matrix (list of lists)"


@pytest.mark.parametrize("command", ["validate", "alexander", "roots", "signature"])
def test_cli_row_error_prefix_printed_once(command, tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([FLOAT_ROW, FLAT_ROW, TREFOIL_OBJ]))
    assert main([command, "--input", str(p)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"ERROR {FLOAT_MESSAGE}", f"ERROR {FLAT_MESSAGE}"]


def test_cli_row_error_in_report_json_keeps_its_prefix(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([FLOAT_ROW, FLAT_ROW]))
    out = tmp_path / "r.json"
    assert main(["report", "--input", str(p), "--out", str(out)]) == 1
    errors = [row["error"] for row in json.loads(out.read_text())]
    assert errors == [FLOAT_MESSAGE, FLAT_MESSAGE]


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


def test_cli_non_utf8_input_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_bytes(b"\xff\xfe[]")
    assert main(["validate", "--input", str(p)]) == 1
    assert "cannot read" in _one_error_line(capsys)


def test_cli_directory_input_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.mkdir()
    assert main(["certify", "--input", str(p)]) == 1
    assert "cannot read" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["report", "certify"])
def test_cli_out_into_missing_directory_fails_before_the_work(
    command, corpus_file, tmp_path, capsys
):
    out = tmp_path / "missing" / "r.json"
    assert main([command, "--input", str(corpus_file), "--out", str(out)]) == 1
    assert "no such directory" in _one_error_line(capsys)
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["report", "certify"])
def test_cli_out_naming_a_directory_fails_before_the_work(
    command, corpus_file, tmp_path, monkeypatch, capsys
):
    counts = _spy(monkeypatch, ["certify.certify"])
    assert main([command, "--input", str(corpus_file), "--out", str(tmp_path)]) == 1
    assert "--out is a directory" in _one_error_line(capsys)
    assert counts["certify.certify"] == [0, 0]


def test_cli_unwritable_plot_dir_is_an_input_error(corpus_file, tmp_path, capsys):
    plot = tmp_path / "plots"
    plot.write_text("a file, not a directory")
    assert main(["signature", "--input", str(corpus_file), "--plot", str(plot)]) == 1
    assert "cannot write output" in capsys.readouterr().err


def test_cli_unwritable_plot_dir_fails_before_the_work(corpus_file, tmp_path, monkeypatch, capsys):
    plot = tmp_path / "plots"
    plot.write_text("a file, not a directory")
    counts = _spy(monkeypatch, ["certify.certify"])
    assert main(["report", "--input", str(corpus_file), "--plot", str(plot)]) == 1
    assert "cannot write output" in _one_error_line(capsys)
    assert counts["certify.certify"] == [0, 0]


def test_cli_signature_slope_diagnostics(corpus_file, capsys):
    rc = main(["signature", "--input", str(corpus_file), "--slope-diagnostics"])
    assert rc == 0
    assert "slope ~ -" in capsys.readouterr().out  # trefoil crossing is downward


def test_cli_slope_diagnostics_sign_points_are_exact(tmp_path, monkeypatch, capsys):
    # every sign is taken at a point k/d given as two exact integers, d > 0;
    # the spy records that and also shows that the sign routine ran
    import knotcert.laurent as laurent_mod

    seen = set()
    sign_int = laurent_mod._sign_int

    def spy(f, k, d):
        seen.add((type(k), type(d), d > 0))
        return sign_int(f, k, d)

    monkeypatch.setattr(laurent_mod, "_sign_int", spy)
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            [
                TREFOIL_OBJ,
                {"name": "5_2", "seifert": [[-1, 1], [0, -2]]},
                {"name": "T(2,5)", "seifert": [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]},
                # a twisted trefoil: with a float Cauchy bound, bisection
                # stalled at float resolution and never met the 2^-48 width
                {"name": "twisted", "seifert": [[-49, 19], [18, -7]]},
            ]
        )
    )
    assert main(["signature", "--input", str(p), "--slope-diagnostics"]) == 0
    out = capsys.readouterr().out
    assert out.count("slope ~ ") == 5
    assert out == (DATA / "slope_diagnostics_golden.txt").read_text(encoding="utf-8")
    assert seen == {(int, int, True)}


def test_cli_slope_diagnostics_digits_are_exact(tmp_path, capsys):
    # a sheared T(2,5): the root-0 right eigenvalue is -9.666745064e-08; a
    # 2^-48 enclosure is too wide for its sixth digit (one such midpoint,
    # -9.6667449999e-08, prints -9.66674e-08)
    p = tmp_path / "c.json"
    write_corpus([random_corpus(60, seed=5)[3]], p, "json")
    assert main(["signature", "--input", str(p), "--slope-diagnostics"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("  root 0: eigenvalue +9.31721e-08 -> -9.66675e-08, ")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["alexander"], "pipeline_alexander_golden.txt"),
        (["roots"], "pipeline_roots_golden.txt"),
        (["signature", "--paper-angles"], "pipeline_signature_paper_golden.txt"),
    ],
)
def test_cli_stdout_matches_golden(argv, golden, capsys):
    # the corpus mixes simple, double and absent unit roots with an odd-size row
    corpus = DATA / "pipeline_golden.json"
    assert main([*argv, "--input", str(corpus)]) == 1
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


def test_cli_rejects_negative_refine_bits(corpus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--input", str(corpus_file), "--refine-bits", "-1"])
    assert exc.value.code == 2
    assert "--refine-bits: must be a non-negative integer, got '-1'" in capsys.readouterr().err


def test_cli_rejects_non_numeric_refine_bits(corpus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--input", str(corpus_file), "--refine-bits", "many"])
    assert exc.value.code == 2
    assert "--refine-bits: must be a non-negative integer, got 'many'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["roots", "certify"])
@pytest.mark.parametrize("bits", ["4097", str(10**20)])
def test_cli_rejects_refine_bits_past_the_bound(command, bits, corpus_file, capsys):
    # past the bound an endpoint overflows the int-to-str limit or the shift
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(corpus_file), "--refine-bits", bits])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--refine-bits: must be at most 4096, got '{bits}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "alexander"])
def test_cli_refine_bits_only_where_it_is_read(command, corpus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(corpus_file), "--refine-bits", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --refine-bits 3" in capsys.readouterr().err


def test_cli_slope_diagnostics_follow_the_jump_order(tmp_path, capsys):
    # trefoil # mirror(5_2): the first jump, +2 at the 5_2 root, crosses upward
    p = tmp_path / "c.json"
    seifert = [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 2]]
    p.write_text(json.dumps([{"name": "sum", "seifert": seifert}]))
    assert main(["signature", "--input", str(p), "--slope-diagnostics"]) == 0
    head, root0, root1 = capsys.readouterr().out.splitlines()
    assert head.endswith("jumps: +2 at phi ~ 0.722734, -2 at phi ~ 1.047198")
    assert root0.startswith("  root 0: ") and root0.endswith("slope ~ +0.881917")
    assert root1.startswith("  root 1: ") and root1.endswith("slope ~ -0.866025")


def test_cli_plot_names_that_collide_get_numbered_stems(tmp_path, capsys):
    p = tmp_path / "c.json"
    for i, (names, expected) in enumerate(
        [
            (
                ["trefoil", "trefoil", "tre foil", "tre_foil"],
                ["tre_foil", "tre_foil_2", "trefoil", "trefoil_2"],
            ),
            # a stem is cut to 200 characters before it is numbered, so that
            # a long name cannot overflow the file-name limit
            (["k" * 200 + "a" * 100, "k" * 200 + "b" * 100], ["k" * 200, "k" * 200 + "_2"]),
            # names that differ only in case would share a file on a
            # case-insensitive file system
            (["K", "k", "k_2"], ["K", "k_2", "k_2_2"]),
        ]
    ):
        p.write_text(json.dumps([dict(TREFOIL_OBJ, name=n) for n in names]))
        plots = tmp_path / f"plots{i}"
        assert main(["report", "--input", str(p), "--plot", str(plots)]) == 0
        assert sorted(f.stem for f in plots.glob("*.svg")) == expected


def test_cli_name_with_a_line_break_cannot_forge_an_output_line(tmp_path, capsys):
    # the figure-eight is NOT_APPLICABLE; its name carries a CERTIFIED table row
    forged = "figure8  1      t^-1 - 3 + t  2      2       [-2]   -2       CERTIFIED\nfig"
    p = tmp_path / "c.json"
    p.write_text(json.dumps([{"name": forged, "seifert": [[1, 1], [0, -1]]}]))
    error = "row 0 (?): name contains a control character"
    assert main(["validate", "--input", str(p)]) == 1
    assert capsys.readouterr().out == f"ERROR {error}\n"
    assert main(["report", "--input", str(p)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and "CERTIFIED" not in "\n".join(out)
    assert out[2].startswith("row 0  ") and error in out[2] and out[2].endswith("INVALID_INPUT")


def test_cli_plot_titles_are_escaped(tmp_path, capsys):
    names = ['a<b & "c"', "x</text><script>alert(1)</script><text>"]
    p = tmp_path / "c.json"
    p.write_text(json.dumps([dict(TREFOIL_OBJ, name=n) for n in names]))
    plots = tmp_path / "plots"
    assert main(["report", "--input", str(p), "--plot", str(plots)]) == 0
    titles = []
    for svg in sorted(plots.glob("*.svg")):
        root = ElementTree.parse(svg).getroot()
        assert not [e for e in root.iter() if e.tag.endswith("script")]
        titles.append(next(e.text for e in root.iter() if e.get("y") == "16"))
    assert sorted(titles) == sorted(names)


def test_cli_rejects_boolean_matrix_entries(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([{"name": "bools", "seifert": [[True, True], [False, True]]}, TREFOIL_OBJ]))
    (bad, good) = parse_corpus(p)
    assert isinstance(bad, CorpusError) and "boolean" in bad.message
    assert isinstance(good, CorpusEntry)
    assert main(["certify", "--input", str(p)]) == 1
    certs = certificates_from_json(capsys.readouterr().out)
    assert [c.verdict for c in certs] == [INVALID_INPUT, CERTIFIED]


def test_cli_internal_inconsistency_exit_code(corpus_file, monkeypatch):
    import knotcert.emit as emit_mod

    def boom(rows, refine_bits=32):
        raise InternalInconsistencyError("forced for the exit-code test")

    # the command imports certify_rows from knotcert.emit when it runs
    monkeypatch.setattr(emit_mod, "certify_rows", boom)
    assert main(["report", "--input", str(corpus_file)]) == 2


def _spy(monkeypatch, names):
    """Count [calls, returns] of knotcert functions in every module that binds them."""
    counts = {}
    for name in names:
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"knotcert.{layer}"), attr)
        counts[name] = count = [0, 0]

        def spy(*args, _fn=fn, _count=count, **kwargs):
            _count[0] += 1
            result = _fn(*args, **kwargs)
            _count[1] += 1
            return result

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "knotcert":
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, spy)
    return counts


def test_report_runs_each_stage_once_per_valid_entry(tmp_path, monkeypatch, capsys):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            [
                TREFOIL_OBJ,
                {"name": "odd", "seifert": [[1]]},
                {"name": "5_2", "seifert": [[-1, 1], [0, -2]]},
                {"name": "T(2,5)", "seifert": [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]},
            ]
        )
    )
    stages = ["laurent.alexander_poly", "laurent.to_z_poly", "laurent.isolate_unit_roots"]
    counts = _spy(monkeypatch, ["seifert.validate", "certify.certify", *stages])
    assert main(["report", "--input", str(p)]) == 1
    # the odd-size row is rejected by its one validate call, at parse time
    assert counts["seifert.validate"] == [4, 3]
    assert counts["certify.certify"] == [3, 3]
    for name in stages:
        assert counts[name] == [3, 3], name


@pytest.mark.parametrize("command", ["alexander", "roots"])
def test_alexander_and_roots_build_no_certificate(command, corpus_file, monkeypatch, capsys):
    counts = _spy(
        monkeypatch, ["certify.certify", "inertia.signature_profile", "laurent.alexander_poly"]
    )
    assert main([command, "--input", str(corpus_file)]) == 0
    assert counts == {
        "certify.certify": [0, 0],
        "inertia.signature_profile": [0, 0],
        "laurent.alexander_poly": [2, 2],
    }


def test_cli_signature_fails_closed_on_a_failed_crosscheck(corpus_file, monkeypatch, capsys):
    certify_mod = importlib.import_module("knotcert.certify")
    monkeypatch.setattr(certify_mod, "det_sign_crosscheck", lambda p_z, profile: False)
    assert main(["signature", "--input", str(corpus_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: consistency checks failed for trefoil")


@pytest.mark.parametrize("command", ["signature", "certify", "report"])
def test_cli_package_error_is_one_line_exit_2(command, corpus_file, monkeypatch, capsys):
    def boom(matrix, witnesses):
        raise ZeroPolynomialError("forced for the exit-code test")

    monkeypatch.setattr(importlib.import_module("knotcert.certify"), "signature_profile", boom)
    assert main([command, "--input", str(corpus_file)]) == 2
    err = capsys.readouterr().err
    assert err == "error: ZeroPolynomialError: forced for the exit-code test\n"


def test_singular_arc_sample_is_an_internal_inconsistency(corpus_file, monkeypatch, capsys):
    # det B = (z-2)^g P(z) is nonzero on a root-free arc; force a zero eigenvalue
    inertia_mod = importlib.import_module("knotcert.inertia")
    monkeypatch.setattr(inertia_mod, "_inertia_and_det", lambda h: (0, 0, len(h), Fraction(0)))
    with pytest.raises(InternalInconsistencyError, match="singular sample"):
        profile_of(TREFOIL)
    assert main(["certify", "--input", str(corpus_file)]) == 2
    assert capsys.readouterr().err.startswith("internal inconsistency: singular sample")


def test_cli_validation_error_from_a_command_is_one_line_exit_1(corpus_file, monkeypatch, capsys):
    def boom(p_z, refine_bits=32):
        raise RootAtPlusMinusOneError("forced for the exit-code test")

    monkeypatch.setattr(importlib.import_module("knotcert.cli"), "isolate_unit_roots", boom)
    assert main(["roots", "--input", str(corpus_file)]) == 1
    assert capsys.readouterr().err == "error: forced for the exit-code test\n"


def _over_long_alexander_corpus(tmp_path) -> Path:
    # a valid genus-2 row whose entries parse but whose Alexander
    # coefficients (about 2N digits) pass the int-string digit limit
    n = int("9" * (_int_digit_limit() * 7 // 10))
    big = [[n, 1, 0, 0], [0, -1, 0, 0], [0, 0, n, 1], [0, 0, 0, -1]]
    p = tmp_path / "big.json"
    p.write_text(json.dumps([TREFOIL_OBJ, {"name": "big", "seifert": big}, TREFOIL_OBJ]))
    return p


def test_cli_over_long_alexander_coefficient_is_a_row_error(tmp_path, capsys):
    p = _over_long_alexander_corpus(tmp_path)
    prefix = "row 1 (big): Alexander coefficient too long to write: Exceeds the limit"

    assert main(["validate", "--input", str(p)]) == 0
    assert main(["roots", "--input", str(p)]) == 0
    assert main(["signature", "--input", str(p)]) == 0
    out = capsys.readouterr().out
    assert "OK big: genus 2" in out and "big: 0 unit root(s)" in out
    assert "big: plateaus [0], sig(-1) = 0" in out

    assert main(["alexander", "--input", str(p)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == lines[2] == "trefoil: t - 1 + t^-1"
    assert lines[1].startswith("ERROR " + prefix)
    assert len(lines) == 3 and captured.err == ""

    out_json = tmp_path / "certs.json"
    assert main(["certify", "--input", str(p), "--out", str(out_json)]) == 1
    certs = certificates_from_json(capsys.readouterr().out)
    assert [c.verdict for c in certs] == [CERTIFIED, INVALID_INPUT, CERTIFIED]
    assert certs[1].name == "big" and certs[1].error.startswith(prefix)
    assert certificates_from_json(out_json.read_text()) == certs

    report_json = tmp_path / "report.json"
    assert main(["report", "--input", str(p), "--out", str(report_json)]) == 1
    table = capsys.readouterr().out.splitlines()
    assert table[3].startswith("big ") and table[3].endswith("INVALID_INPUT")
    rows = json.loads(report_json.read_text())
    assert [r["verdict"] for r in rows] == [CERTIFIED, INVALID_INPUT, CERTIFIED]
    assert rows[1]["error"].startswith(prefix)


def test_over_long_alexander_row_is_rejected_before_its_roots(tmp_path, monkeypatch, capsys):
    # the row becomes INVALID_INPUT right after its Alexander polynomial, with
    # the error alexander prints; root isolation never sees it
    p = _over_long_alexander_corpus(tmp_path)
    assert main(["alexander", "--input", str(p)]) == 1
    error = capsys.readouterr().out.splitlines()[1].removeprefix("ERROR ")
    certify_module = importlib.import_module("knotcert.certify")
    real = certify_module.isolate_unit_roots

    def isolate(p_z, refine_bits=32):
        assert p_z.degree == 1, "roots isolated for the over-long row"
        return real(p_z, refine_bits=refine_bits)

    monkeypatch.setattr(certify_module, "isolate_unit_roots", isolate)
    certs = certify_rows(parse_corpus(p))
    assert [c.verdict for c in certs] == [CERTIFIED, INVALID_INPUT, CERTIFIED]
    assert certs[1].error == error


def test_entry_built_in_code_is_worded_by_its_position(capsys):
    # the genus-2 row with a = 10^1100 has Alexander coefficients of about
    # 4400 digits; an entry that no corpus file numbered takes its index in rows
    if _int_digit_limit() > 4400:
        pytest.skip("the int-string digit limit is above 4400 digits")
    a = 10**1100
    v = validate([[a, 1, 0, 0], [0, a, 0, 0], [0, 0, a + 1, 1], [0, 0, 0, a]])
    rows = [CorpusEntry("trefoil", TREFOIL), CorpusEntry("big", v)]
    trefoil, big = certify_rows(rows)
    assert trefoil.verdict == CERTIFIED and big.verdict == INVALID_INPUT
    assert big.name == "big"
    assert big.error.startswith("row 1 (big): Alexander coefficient too long to write: ")
    (alone,) = certify_rows(rows[1:])
    assert alone.error.startswith("row 0 (big): ")
    assert rows[1].row is None  # the caller's entry is not changed


def test_cli_roots_over_long_endpoint_is_a_row_error(tmp_path, capsys):
    # with a = 10^(L/2), L the digit limit, the isolating interval of the one
    # unit root needs endpoints past the limit; nothing of the row is printed
    a = 10 ** (_int_digit_limit() // 2)
    p = tmp_path / "big.json"
    big = {"name": "big", "seifert": [[a, 1], [0, a]]}
    p.write_text(json.dumps([TREFOIL_OBJ, big, TREFOIL_OBJ]))

    assert main(["roots", "--input", str(p)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == lines[3] == "trefoil: 1 unit root(s)"
    assert lines[1] == lines[4] and lines[1].startswith("  z in (")
    assert lines[2].startswith(
        "ERROR row 1 (big): root interval endpoint too long to write: Exceeds the limit"
    )
    assert len(lines) == 5 and captured.err == ""



def test_cli_over_long_endpoint_is_invalid_input_in_certify_and_report(tmp_path, capsys):
    # with a = isqrt(5 * 10^(L-1)) the Alexander coefficients a^2 and 1 - 2a^2
    # just fit the digit limit L, but the endpoints of the root near z = 2 do not
    a = math.isqrt(5 * 10 ** (_int_digit_limit() - 1))
    p = tmp_path / "big.json"
    big = {"name": "big", "seifert": [[a, 1], [0, a]]}
    p.write_text(json.dumps([TREFOIL_OBJ, big, TREFOIL_OBJ]))

    assert main(["roots", "--input", str(p)]) == 1
    error = capsys.readouterr().out.splitlines()[2].removeprefix("ERROR ")
    assert error.startswith("row 1 (big): root interval endpoint too long to write: ")

    out_json = tmp_path / "certs.json"
    assert main(["certify", "--input", str(p), "--out", str(out_json)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    certs = certificates_from_json(captured.out)
    assert [c.verdict for c in certs] == [CERTIFIED, INVALID_INPUT, CERTIFIED]
    assert certs[1].name == "big" and certs[1].error == error
    assert certificates_from_json(out_json.read_text()) == certs

    report_json = tmp_path / "report.json"
    assert main(["report", "--input", str(p), "--out", str(report_json)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[3].startswith(f"big      -      {error}")
    rows = json.loads(report_json.read_text())
    assert [r["verdict"] for r in rows] == [CERTIFIED, INVALID_INPUT, CERTIFIED]
    assert rows[1]["error"] == error

    # alexander prints the coefficients, signature neither number
    assert main(["alexander", "--input", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("big: 4999")
    assert main(["signature", "--input", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "big: plateaus [0, 2], sig(-1) = 2, jumps: +2 at phi ~ 0.000000"
    )

def test_cli_slope_eigenvalue_past_the_float_range_prints_inf(tmp_path, capsys):
    # at a = 10^400 the larger eigenvalue of B, and on the far side of the
    # root also the one nearest zero, lies past the float range
    p = tmp_path / "big.json"
    p.write_text(json.dumps([{"name": "big", "seifert": [[10**400, 1], [0, 10**400]]}]))
    assert main(["signature", "--slope-diagnostics", "--input", str(p)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "big: plateaus [0, 2], sig(-1) = 2, jumps: +2 at phi ~ 0.000000",
        "  root 0: eigenvalue -0 -> +inf, slope ~ +inf",
    ]
    assert captured.err == ""


def test_cli_slope_with_both_sample_angles_on_one_float_prints_inf(tmp_path, capsys):
    # two genus-2 blocks, each with a root about 10^-32 above z = -2: the
    # arc between those roots is so close to phi = pi that both sample
    # angles of the last root round to the float pi, and the angle step is 0
    def near(y):
        return [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, y], [0, 0, y, (4 * y * y + 2) // 3]]

    y = 3 * (10**16 // 3) + 1
    a, b = near(y), near(y + 3)
    seifert = [row + [0] * 4 for row in a] + [[0] * 4 + row for row in b]
    p = tmp_path / "near.json"
    p.write_text(json.dumps([{"name": "near", "seifert": seifert}]))
    assert main(["signature", "--slope-diagnostics", "--input", str(p)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].endswith("+2 at phi ~ 3.141593, +2 at phi ~ 3.141593")
    assert len(lines) == 5 and lines[4].startswith("  root 3: eigenvalue +")
    assert lines[4].endswith("slope ~ +inf")


def test_cli_plateau_arc_next_to_z_minus_two_is_sampled_exactly(tmp_path, capsys):
    # det(V - V^T) = 1 and P(-2) = 5, and P has a root about 10^-400 above
    # z = -2, so the sample u^2 of the arc below it lies past the float range
    y = 3 * (10**200 // 3) + 1
    matrix = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, y], [0, 0, y, (4 * y * y + 2) // 3]]
    p = tmp_path / "near.json"
    out = tmp_path / "r.json"
    p.write_text(json.dumps([{"name": "near", "seifert": matrix}]))
    assert main(["report", "--input", str(p), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (row,) = json.loads(out.read_text())
    assert row["verdict"] == CERTIFIED and row["signature_at_minus_one"] == 4
    (cert,) = certify_rows(parse_corpus(p))
    assert cert.profile.plateau_values == (0, 2, 4)


def _int_digit_limit() -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python has no int-string digit limit")
    return limit


def test_cli_hostile_json_file_is_one_error_line(tmp_path, capsys):
    payloads = {"deep.json": "[" * 100_000}
    for fname, text in payloads.items():
        p = tmp_path / fname
        p.write_text(text)
        with pytest.raises(CorpusParseError):
            parse_corpus(p)
        assert main(["validate", "--input", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON: ")
        assert captured.err.count("\n") == 1


def test_cli_hostile_jsonl_lines_are_row_errors(tmp_path, capsys):
    long_int = "1" * (_int_digit_limit() + 1)
    p = tmp_path / "c.jsonl"
    p.write_text(
        json.dumps(TREFOIL_OBJ)
        + "\n"
        + '{"name": "big", "seifert": [[' + long_int + "]]}\n"
        + "[" * 100_000
        + "\n"
    )
    rows = parse_corpus(p)
    assert [type(r) for r in rows] == [CorpusEntry, CorpusError, CorpusError]
    assert main(["validate", "--input", str(p)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "OK trefoil: genus 1"
    assert lines[1].startswith("ERROR row 1 (big): entry too long to read: Exceeds the limit")
    assert lines[2].startswith("ERROR row 2 (?): bad JSON line: maximum recursion depth")
    assert len(lines) == 3 and captured.err == ""


@pytest.mark.parametrize("suffix", ["json", "jsonl", "csv"])
def test_cli_entry_past_the_digit_limit_is_a_row_error(suffix, tmp_path, capsys):
    long_int = "1" * (_int_digit_limit() + 1)
    p = tmp_path / f"c.{suffix}"
    if suffix == "csv":
        p.write_text(f"trefoil,-1,1,0,-1,2\nbig,{long_int},1,0,{long_int},2\n")
    else:
        objs = [json.dumps(TREFOIL_OBJ), f'{{"name": "big", "seifert": [[{long_int}, 1], [0, 1]]}}']
        p.write_text(f"[{', '.join(objs)}]" if suffix == "json" else "\n".join(objs) + "\n")
    assert main(["validate", "--input", str(p)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "OK trefoil: genus 1"
    assert lines[1].startswith("ERROR row 1 (big): entry too long to read: Exceeds the limit")
    assert len(lines) == 2 and captured.err == ""


def test_csv_long_cell_is_too_long_only_when_it_is_an_integer(tmp_path):
    long_int = "1" * (_int_digit_limit() + 1)
    p = tmp_path / "c.csv"
    p.write_text(f"size,-1,1,0,-1,{long_int}\nnot_int,{long_int}x,1,0,-1,2\n")
    size, not_int = parse_corpus(p)
    assert size.message.startswith("entry too long to read: Exceeds the limit")
    assert not_int.message == "non-integer size or entry"


def test_cli_csv_first_row_is_a_header_only_without_integer_cells(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("trefoil,-1,1,0,-1,2x\nfig8,1,1,0,-1,2\n")
    assert main(["validate", "--input", str(p)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ERROR row 0 (trefoil): non-integer size or entry",
        "OK fig8: genus 1",
    ]
    p.write_text("name,e00,e01,e10,e11,size\nfig8,1,1,0,-1,2\n")
    assert main(["validate", "--input", str(p)]) == 0
    assert capsys.readouterr().out.splitlines() == ["OK fig8: genus 1"]


def test_cli_csv_record_the_reader_rejects_is_a_row_error(tmp_path, capsys):
    p = tmp_path / "c.csv"
    big_cell = "1" * (csv.field_size_limit() + 1)
    p.write_text(f"trefoil,-1,1,0,-1,2\nbig,{big_cell},1\n5_2,-1,1,0,-2,2\n")
    rows = parse_corpus(p)
    assert [type(r) for r in rows] == [CorpusEntry, CorpusError, CorpusEntry]
    assert rows[1].row == 1 and rows[2].row == 2
    assert main(["validate", "--input", str(p)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("ERROR row 1 (?): bad CSV record: field larger than field limit")
    assert len(lines) == 3


def test_huge_det_is_worded_without_its_digits(tmp_path, capsys):
    # det(V - V^T) = 10^4400 has more digits than the int-to-str limit allows
    _int_digit_limit()
    matrix = [[0, 10**2200], [0, 0]]
    message = "det(V - V^T) is a 14617-bit integer, expected 1"
    cert = certify(matrix)
    assert cert.verdict == INVALID_INPUT
    assert cert.error == f"NonSymplecticError: {message}"
    p = tmp_path / "c.json"
    p.write_text(json.dumps([{"name": "big", "seifert": matrix}]))
    assert main(["validate", "--input", str(p)]) == 1
    assert capsys.readouterr().out == f"ERROR row 0 (big): {message}\n"


def _child_env() -> dict:
    """The environment in which a child finds the package where this process did."""
    import knotcert

    src = str(Path(knotcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_module_entry_point(corpus_file):
    proc = subprocess.run(
        [sys.executable, "-m", "knotcert", "report", "--input", str(corpus_file)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "CERTIFIED" in proc.stdout


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["validate", "roots", "certify"])
def test_cli_ends_quietly_when_stdout_is_closed(command, buffered, corpus_file):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails: exit 1 with nothing on stderr, not even the
    # "Exception ignored" line of a failed flush at exit; a buffered stdout
    # first writes when it is flushed, an unbuffered one at each print
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "knotcert", command, "--input", str(corpus_file)],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")
