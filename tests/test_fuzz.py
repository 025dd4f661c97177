"""Random corpora in all three formats: per-row errors, never a traceback.

The parsers are fuzzed with random text; report, and through it every
certify stage, with perturbed valid matrices of genus up to 4: some become
invalid rows and some stay valid with entries near 2^64.  Every plateau
form is evaluated in one loop, whatever the genus.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from knotcert.cli import main
from knotcert.corpus import CorpusEntry, CorpusError, parse_corpus
from knotcert.errors import CorpusParseError

from conftest import seifert_matrices

FUZZ = settings(max_examples=60, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=20,
)
# near-valid entries reach validate, whose errors must become row errors
matrix_cells = st.integers(-3, 3) | st.integers() | json_values
entries = st.fixed_dictionaries(
    {
        "name": st.text(max_size=5) | json_values,
        "seifert": st.lists(st.lists(matrix_cells, max_size=4), max_size=4) | json_values,
    },
    optional={"assume_irreducible": st.booleans() | json_values, "assume_m0_prime": json_values},
)
items = entries | json_values


@st.composite
def cut(draw, text: str) -> str:
    """text, or text cut short at a drawn position."""
    if draw(st.booleans()):
        return text
    return text[: draw(st.integers(0, len(text)))]


def json_texts():
    return st.text() | (st.lists(items, max_size=4) | json_values).map(json.dumps).flatmap(cut)


def jsonl_texts():
    line = st.text().map(lambda t: t.replace("\n", " ")) | items.map(json.dumps).flatmap(cut)
    return st.text() | st.lists(line, max_size=5).map("\n".join)


def _csv_line(cells: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def csv_texts():
    cell = st.integers(-3, 3).map(str) | st.integers().map(str) | st.text(max_size=6)
    lines = st.lists(st.lists(cell, max_size=7).map(_csv_line), max_size=5).map("".join)
    return st.text() | lines.flatmap(cut)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check(corpus_dir, fmt: str, text: str) -> None:
    path = corpus_dir / f"corpus.{fmt}"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        rows = parse_corpus(path)
    except CorpusParseError:
        assert fmt == "json"  # only a json file fails as a whole
        rows = None
    else:
        assert all(isinstance(r, (CorpusEntry, CorpusError)) for r in rows)
    code = main(["validate", "--input", str(path)])
    clean = rows is not None and all(isinstance(r, CorpusEntry) for r in rows)
    assert code == (0 if clean else 1)


@FUZZ
@given(text=json_texts())
def test_fuzz_json_corpus(corpus_dir, text):
    _check(corpus_dir, "json", text)


@FUZZ
@given(text=jsonl_texts())
def test_fuzz_jsonl_corpus(corpus_dir, text):
    _check(corpus_dir, "jsonl", text)


@FUZZ
@given(text=csv_texts())
def test_fuzz_csv_corpus(corpus_dir, text):
    _check(corpus_dir, "csv", text)


def test_unbalanced_csv_quote_is_one_row_error(corpus_dir, capsys):
    # the corpus format has no multi-line fields: the quote must not swallow rows 2-3
    path = corpus_dir / "quote.csv"
    path.write_text(
        'name,e00,e01,e10,e11,size\nbad,"1,1\ntrefoil,-1,1,0,-1,2\nfigure8,1,1,0,-1,2\n',
        encoding="utf-8",
    )
    assert main(["validate", "--input", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ERROR row 1 ")
    assert lines[1:] == ["OK trefoil: genus 1", "OK figure8: genus 1"]


@st.composite
def perturbed_matrices(draw) -> list[list[int]]:
    """A valid matrix with one perturbation.

    Adding c to V[i][j] and V[j][i] keeps V - V^T, so the matrix stays valid
    with entries up to about 2^64; setting one entry usually breaks it.
    """
    m = [list(row) for row in draw(seifert_matrices(max_genus=4)).entries]
    if not m:
        return m
    i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
    c = draw(st.integers(-(2**64), 2**64))
    if draw(st.booleans()):
        m[i][j] += c
        if i != j:
            m[j][i] += c
    else:
        m[i][j] = c
    return m


@settings(max_examples=40, deadline=None)
@given(matrices=st.lists(perturbed_matrices(), min_size=1, max_size=3))
def test_fuzz_report_on_perturbed_matrices(corpus_dir, matrices):
    path = corpus_dir / "perturbed.json"
    rows = [{"name": f"k{i}", "seifert": m} for i, m in enumerate(matrices)]
    path.write_text(json.dumps(rows), encoding="utf-8")
    invalid = any(isinstance(r, CorpusError) for r in parse_corpus(path))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["report", "--input", str(path), "--out", str(corpus_dir / "report.json")])
    assert code == (1 if invalid else 0)
