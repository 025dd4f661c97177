from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from knotcert.certify import CERTIFIED, INVALID_INPUT, certify
from knotcert.cli import main
from knotcert.corpus import (
    CorpusEntry,
    CorpusError,
    certificates_from_json,
    certificates_to_json,
    certify_rows,
    emit_profile_plot,
    emit_report,
    parse_corpus,
    profile_csv,
    profile_steps,
    write_corpus,
)
from knotcert.errors import CorpusParseError, UnknownFormatError
from knotcert.fixtures import FIGURE_EIGHT, TREFOIL, UNKNOT, random_corpus
from knotcert.inertia import signature_profile
from knotcert.laurent import alexander_poly, isolate_unit_roots, to_z_poly

TREFOIL_OBJ = {"name": "trefoil", "seifert": [[-1, 1], [0, -1]]}


def profile_of(v):
    return signature_profile(v, isolate_unit_roots(to_z_poly(alexander_poly(v))))


# --- parsing -------------------------------------------------------------------


def test_parse_json_roundtrip(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps([TREFOIL_OBJ]))
    (entry,) = parse_corpus(p)
    assert entry == CorpusEntry("trefoil", ((-1, 1), (0, -1)))
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
    assert "row 1" in err.message


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


def test_parse_csv(tmp_path):
    # name, row-major entries, trailing size column
    p = tmp_path / "c.csv"
    p.write_text("trefoil,-1,1,0,-1,2\nshort,-1,1,2\n")
    rows = parse_corpus(p)
    assert rows[0] == CorpusEntry("trefoil", ((-1, 1), (0, -1)))
    assert isinstance(rows[1], CorpusError)


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
    p.write_text(
        json.dumps(
            [
                TREFOIL_OBJ,
                {"name": "figure8", "seifert": [[1, 1], [0, -1]]},
                {"name": "broken", "seifert": [[0, 0], [0, 0]]},
            ]
        )
    )
    certs = certify_rows(parse_corpus(p))
    text = certificates_to_json(certs)
    parsed = certificates_from_json(text)
    assert parsed == certs
    # parse(emit(parse(x))) == parse(x)
    assert certificates_from_json(certificates_to_json(parsed)) == parsed


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


def test_cli_signature_slope_diagnostics(corpus_file, capsys):
    rc = main(["signature", "--input", str(corpus_file), "--slope-diagnostics"])
    assert rc == 0
    assert "slope ~ -" in capsys.readouterr().out  # trefoil crossing is downward


def test_cli_slope_diagnostics_sign_points_are_exact(tmp_path, monkeypatch, capsys):
    # _sign_at raises TypeError on a float point; the spy also shows it ran
    import knotcert.laurent as laurent_mod

    seen = set()
    sign_at = laurent_mod._sign_at

    def spy(f, x):
        seen.add(type(x))
        return sign_at(f, x)

    monkeypatch.setattr(laurent_mod, "_sign_at", spy)
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
    assert capsys.readouterr().out.count("slope ~ ") == 5
    assert seen and seen <= {int, Fraction}


def test_cli_rejects_negative_refine_bits(corpus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--input", str(corpus_file), "--refine-bits", "-1"])
    assert exc.value.code == 2
    assert "--refine-bits: must be a non-negative integer, got '-1'" in capsys.readouterr().err


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
    import knotcert.cli as cli_mod
    from knotcert.errors import InternalInconsistencyError

    def boom(rows, refine_bits=32):
        raise InternalInconsistencyError("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "certify_rows", boom)
    assert main(["report", "--input", str(corpus_file)]) == 2


def test_cli_module_entry_point(corpus_file):
    # the child finds the package where this process did, installed or not
    import knotcert

    src = str(Path(knotcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "knotcert", "report", "--input", str(corpus_file)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "CERTIFIED" in proc.stdout
