"""Byte-identity gate: the criterion-7 artifacts hash to committed manifests.

``tests/data/criterion7_sha256.json`` holds the SHA-256 of every file that
``certify --out`` and ``report --out --plot`` write for
``random_corpus(50, seed=17)``, and ``tests/data/paper_angles_sha256.json``
that of every plot ``report --paper-angles --plot`` writes for the same
corpus.  A refactor that changes any byte of the certificate JSON, the
report JSON or a plot fails here, naming the file.  Every SVG of the run
must also parse as XML.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from xml.etree import ElementTree

from knotcert.cli import main
from knotcert.corpus import write_corpus
from knotcert.fixtures import random_corpus

MANIFEST = Path(__file__).parent / "data" / "criterion7_sha256.json"
PAPER_MANIFEST = Path(__file__).parent / "data" / "paper_angles_sha256.json"


def _hashes(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _differing(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return sorted(
        name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name)
    )


def artifact_hashes(workdir: Path) -> dict[str, str]:
    """SHA-256 of each certify/report artifact for the criterion-7 corpus, by relative path."""
    corpus = workdir / "corpus.json"
    write_corpus(random_corpus(50, seed=17), corpus, "json")
    out = workdir / "out"
    out.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "--input", str(corpus), "--out", str(out / "certificates.json")]) == 0
        assert (
            main(
                [
                    "report", "--input", str(corpus), "--out", str(out / "report.json"),
                    "--plot", str(out / "plots"),
                ]
            )
            == 0
        )
    return _hashes(out)


def paper_angle_plot_hashes(workdir: Path) -> dict[str, str]:
    """SHA-256 of each ``report --paper-angles --plot`` file for the criterion-7 corpus."""
    corpus = workdir / "corpus.json"
    write_corpus(random_corpus(50, seed=17), corpus, "json")
    out = workdir / "plots"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", "--input", str(corpus), "--paper-angles", "--plot", str(out)]) == 0
    return _hashes(out)


def test_criterion_7_artifacts_match_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = artifact_hashes(tmp_path)
    assert len(expected) == 2 + 2 * 50
    differing = _differing(expected, actual)
    assert not differing, f"artifacts differ from the manifest: {differing}"


def test_paper_angle_plots_match_manifest(tmp_path):
    expected = json.loads(PAPER_MANIFEST.read_text(encoding="utf-8"))
    actual = paper_angle_plot_hashes(tmp_path)
    assert len(expected) == 2 * 50
    differing = _differing(expected, actual)
    assert not differing, f"paper-angle plots differ from the manifest: {differing}"


def test_criterion_7_svgs_parse_as_xml(tmp_path):
    artifact_hashes(tmp_path)
    svgs = sorted((tmp_path / "out" / "plots").glob("*.svg"))
    assert len(svgs) == 50
    for svg in svgs:
        assert ElementTree.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg", svg.name
