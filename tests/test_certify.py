from __future__ import annotations

import importlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings

from knotcert.certify import (
    CERTIFIED,
    INVALID_INPUT,
    NOT_APPLICABLE,
    certify,
)
from knotcert.corpus import CorpusEntry, CorpusError, parse_corpus
from knotcert.emit import certificates_from_json, certificates_to_json, certify_rows
from knotcert.errors import InternalInconsistencyError
from knotcert.fixtures import (
    FIGURE_EIGHT,
    KNOT_5_2,
    STEVEDORE,
    TORUS_2_5,
    TORUS_2_7,
    TREFOIL,
    UNKNOT,
    congruent,
    granny_knot,
    random_unimodular,
    square_knot,
    torus_knot,
)
from knotcert.laurent import MAX_REFINE_BITS, alexander_poly, isolate_unit_roots, to_z_poly
from knotcert.record import replace
from knotcert.seifert import KnotMetadata, block_sum, mirror

from conftest import seifert_matrices


def test_trefoil_certified():
    cert = certify(TREFOIL, KnotMetadata(assume_irreducible=True))
    assert cert.verdict == CERTIFIED
    assert cert.simple_root_count == 1
    assert [j.jump for j in cert.jump_witnesses] == [-2]
    assert cert.consistency_checks.all_passed()
    assert cert.signature_at_minus_one == -2
    assert "left-orderable" in cert.conclusion_text
    assert "(-a, 0) u (0, a)" in cert.conclusion_text


def test_figure_eight_not_applicable():
    cert = certify(FIGURE_EIGHT, KnotMetadata(assume_irreducible=True))
    assert cert.verdict == NOT_APPLICABLE
    assert cert.simple_root_witnesses == ()
    assert cert.jump_witnesses == ()
    assert cert.odd_multiplicity_witnesses == ()
    assert cert.profile.plateau_values == (0,)


def test_granny_not_applicable_with_jump_witnesses():
    cert = certify(granny_knot())
    assert cert.verdict == NOT_APPLICABLE
    assert len(cert.jump_witnesses) == 1
    assert cert.jump_witnesses[0].jump == -4
    assert cert.jump_witnesses[0].root.multiplicity == 2
    assert cert.odd_multiplicity_witnesses == ()
    assert "SU(2)" in cert.conclusion_text


def test_square_knot_zero_jump():
    cert = certify(square_knot())
    assert cert.verdict == NOT_APPLICABLE
    assert cert.jump_witnesses[0].jump == 0
    assert "SU(2)" not in cert.conclusion_text


def test_unasserted_irreducibility_blocks_certification():
    cert = certify(TREFOIL, KnotMetadata(assume_irreducible=False))
    assert cert.verdict == NOT_APPLICABLE
    assert cert.simple_root_count == 1  # the witness is still reported
    assert "irreducibility" in cert.conclusion_text


def test_prime_filling_remark_is_conditional():
    with_prime = certify(TREFOIL, KnotMetadata(assume_m0_prime=True))
    without = certify(TREFOIL, KnotMetadata())
    assert "(-a, a)" in with_prime.conclusion_text
    assert "(-a, a)" not in without.conclusion_text


def test_certify_accepts_raw_entries():
    cert = certify([[-1, 1], [0, -1]], name="raw-trefoil")
    assert cert.verdict == CERTIFIED
    assert cert.name == "raw-trefoil"


def test_certify_invalid_input():
    cert = certify([[0, 0], [0, 0]])
    assert cert.verdict == INVALID_INPUT
    assert "NonSymplecticError" in cert.error
    assert cert.alexander is None
    assert cert.consistency_checks is None


@pytest.mark.parametrize(
    "raw",
    [
        [[1.5, 0], [0, 1]],
        [[True, True], [False, True]],
        [["a"]],
        [[1, 0], 7],  # a row that is not a list
    ],
)
def test_certify_non_integer_raw_input_is_invalid(raw):
    cert = certify(raw, name="raw")
    assert cert.verdict == INVALID_INPUT
    assert cert.error.startswith("TypeError: ")
    assert cert.name == "raw"
    assert cert.consistency_checks is None


def test_certify_selects_simple_root_witnesses():
    trefoil_ws = isolate_unit_roots(to_z_poly(alexander_poly(TREFOIL)))
    assert certify(TREFOIL).simple_root_witnesses == tuple(trefoil_ws)

    unknot = certify(UNKNOT)
    assert unknot.simple_root_witnesses == () and unknot.verdict == NOT_APPLICABLE

    granny = certify(granny_knot())
    assert granny.jump_witnesses and granny.simple_root_witnesses == ()
    assert granny.verdict == NOT_APPLICABLE


def _tamper(cert, **changes) -> str:
    obj = json.loads(certificates_to_json([cert]))[0]
    obj.update(changes)
    return json.dumps([obj])


@pytest.mark.parametrize(
    "changes, match",
    [
        ({"verdict": "MAYBE"}, "unknown verdict 'MAYBE'"),
        ({"error": "forged"}, "must have an error and no consistency checks exactly when"),
        ({"consistency_checks": None}, "must have an error and no consistency checks exactly when"),
        ({"verdict": INVALID_INPUT}, "must have an error and no consistency checks exactly when"),
        # a CERTIFIED trefoil with no simple witness once read back without an error
        ({"simple_root_witnesses": []}, "simple_root_witnesses are not"),
        ({"odd_multiplicity_witnesses": []}, "odd_multiplicity_witnesses are not"),
        ({"verdict": NOT_APPLICABLE}, "verdict NOT_APPLICABLE with 1 simple witnesses"),
        (
            {
                "assumptions_echoed": {
                    "assume_irreducible": False,
                    "assume_homology_sphere": True,
                    "assume_m0_prime": False,
                }
            },
            "verdict CERTIFIED with 1 simple witnesses and assume_irreducible=False",
        ),
        ({"conclusion_text": "Certified."}, "conclusion_text is not that of verdict CERTIFIED"),
    ],
)
def test_certificate_checks_itself_as_it_is_read(changes, match):
    cert = certify(TREFOIL, name="trefoil")
    assert certificates_from_json(_tamper(cert)) == [cert]
    with pytest.raises(ValueError, match=match):
        certificates_from_json(_tamper(cert, **changes))


def test_certificate_witnesses_follow_z_order():
    # T(2,5) has two simple roots; the jumps run by angle, the witnesses by z
    cert = certify(TORUS_2_5)
    simple = [w.interval[0] for w in cert.simple_root_witnesses]
    assert len(simple) == 2 and simple == sorted(simple)
    obj = json.loads(certificates_to_json([cert]))[0]
    for key in ("simple_root_witnesses", "odd_multiplicity_witnesses"):
        with pytest.raises(ValueError, match=f"{key} are not"):
            certificates_from_json(_tamper(cert, **{key: obj[key][::-1]}))
    # an INVALID_INPUT record passes its own checks, and replace checks a copy
    invalid = certify([[0, 0], [0, 0]])
    assert certificates_from_json(certificates_to_json([invalid])) == [invalid]
    with pytest.raises(ValueError, match="unknown verdict"):
        replace(invalid, verdict="MAYBE")


@pytest.mark.parametrize("bits", [-1, MAX_REFINE_BITS + 1, 15000])
def test_certify_rejects_refine_bits_outside_the_bound(bits):
    # 15000 bits would take seconds and then fail in certificates_to_json;
    # the check comes first, so even an invalid raw matrix raises
    for v in (TORUS_2_5, [[1]]):
        with pytest.raises(ValueError, match=rf"refine_bits must be in \[0, 4096\], got {bits}"):
            certify(v, refine_bits=bits)
    with pytest.raises(ValueError, match="refine_bits"):
        certify_rows([CorpusEntry("t(2,5)", TORUS_2_5)], refine_bits=bits)


def test_certify_at_the_refine_bits_bound_writes_json():
    text = certificates_to_json([certify(TREFOIL, refine_bits=MAX_REFINE_BITS)])
    assert json.loads(text)[0]["verdict"] == CERTIFIED


def test_certify_rows_empty():
    assert certify_rows([]) == []


def test_certify_rows_order_and_isolation(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            [
                {"name": "trefoil", "seifert": [[-1, 1], [0, -1]]},
                {"name": "odd", "seifert": [[1]]},  # odd size: per-row error record
                {"name": "figure8", "seifert": [[1, 1], [0, -1]]},
            ]
        )
    )
    rows = parse_corpus(p)
    assert [type(r) for r in rows] == [CorpusEntry, CorpusError, CorpusEntry]
    certs = certify_rows(rows)
    assert [c.verdict for c in certs] == [CERTIFIED, INVALID_INPUT, NOT_APPLICABLE]
    assert [c.name for c in certs] == ["trefoil", "odd", "figure8"]
    assert certs[1].error == "row 1 (odd): matrix size 1 is odd; Seifert matrices are 2g x 2g"
    assert "OddSizeError" in certify([[1]]).error


@given(seifert_matrices(max_genus=2))
@settings(max_examples=15, deadline=None)
def test_verdict_invariant_under_congruence(v):
    w = congruent(v, random_unimodular(v.size, random.Random(7), steps=5))
    cv = certify(v)
    cw = certify(w)
    assert cv.verdict == cw.verdict
    assert cv.alexander == cw.alexander
    assert [j.jump for j in cv.jump_witnesses] == [j.jump for j in cw.jump_witnesses]


@given(seifert_matrices())
@settings(max_examples=25, deadline=None)
def test_certified_implies_simple_witness_with_jump_two(v):
    cert = certify(v)
    if cert.verdict == CERTIFIED:
        assert cert.simple_root_count >= 1
        simple_jumps = [
            j for j in cert.jump_witnesses if j.root.multiplicity == 1
        ]
        assert all(abs(j.jump) == 2 for j in simple_jumps)


NAMED = (TREFOIL, FIGURE_EIGHT, KNOT_5_2, STEVEDORE, TORUS_2_5, TORUS_2_7)
SUMS = tuple(
    block_sum(a, twin(b))
    for a, b in itertools.combinations_with_replacement(NAMED, 2)
    for twin in (lambda v: v, mirror)
)
# the named fixtures, T(3,4) and the two-piece sums that have a unit root
DROP_KNOTS = [
    v for v in NAMED + (torus_knot(3, 4),) + SUMS if isolate_unit_roots(to_z_poly(alexander_poly(v)))
]


@pytest.mark.parametrize("v", DROP_KNOTS, ids=[v.name for v in DROP_KNOTS])
def test_certify_raises_when_isolation_loses_a_root(v, monkeypatch):
    # drop each witness and each adjacent pair: the arc proof must notice,
    # also where the other checks pass, as for trefoil # mirror(5_2) with
    # both roots dropped
    delta = alexander_poly(v)
    witnesses = isolate_unit_roots(to_z_poly(delta))
    drops = [{i} for i in range(len(witnesses))]
    drops += [{i, i + 1} for i in range(len(witnesses) - 1)]
    certify_module = importlib.import_module("knotcert.certify")
    for drop in drops:
        kept = [w for i, w in enumerate(witnesses) if i not in drop]
        monkeypatch.setattr(
            certify_module, "isolate_unit_roots", lambda p_z, refine_bits=32, kept=kept: kept
        )
        with pytest.raises(InternalInconsistencyError, match="plateau arc"):
            certify(v, delta=delta)


# trefoil # trefoil # mirror(trefoil): Delta = (t - 1 + 1/t)^3, one triple
# root with jump -2; reported as simple it would pass every other check
TRIPLE = block_sum(granny_knot(), mirror(TREFOIL))
MULTIPLICITY_KNOTS = [
    v for v in NAMED + SUMS + (TRIPLE,) if isolate_unit_roots(to_z_poly(alexander_poly(v)))
]


@pytest.mark.parametrize("v", MULTIPLICITY_KNOTS, ids=[v.name for v in MULTIPLICITY_KNOTS])
def test_certify_raises_when_isolation_misstates_a_multiplicity(v, monkeypatch):
    # shift each witness's multiplicity by +-1 and +-2 where it stays >= 1:
    # the multiplicity proof must notice, also where an even shift passes the
    # parity, jump and det-sign checks
    delta = alexander_poly(v)
    witnesses = isolate_unit_roots(to_z_poly(delta))
    certify_module = importlib.import_module("knotcert.certify")
    for i, w in enumerate(witnesses):
        for shift in (-2, -1, 1, 2):
            if w.multiplicity + shift < 1:
                continue
            wrong = list(witnesses)
            wrong[i] = replace(w, multiplicity=w.multiplicity + shift)
            monkeypatch.setattr(
                certify_module, "isolate_unit_roots", lambda p_z, refine_bits=32, wrong=wrong: wrong
            )
            with pytest.raises(InternalInconsistencyError, match="one root of multiplicity"):
                certify(v, delta=delta)


def test_triple_root_knot_certifies_with_its_true_multiplicity():
    cert = certify(TRIPLE)
    assert cert.verdict == NOT_APPLICABLE
    ((root, jump),) = [(j.root, j.jump) for j in cert.jump_witnesses]
    assert root.multiplicity == 3 and jump == -2
