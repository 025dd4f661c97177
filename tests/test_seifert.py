from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from knotcert.errors import (
    InternalInconsistencyError,
    NonSquareError,
    NonSymplecticError,
    OddSizeError,
)
from knotcert.fixtures import TREFOIL, UNKNOT, granny_knot, square_knot
from knotcert.seifert import (
    SeifertMatrix,
    block_sum,
    det_int,
    mirror,
    validate,
)

from conftest import seifert_matrices


def test_validate_unknot():
    v = validate([])
    assert v.size == 0
    assert v.genus == 0


def test_validate_rejects_booleans():
    # operator.index(True) == 1, so booleans would otherwise pass as entries
    with pytest.raises(TypeError, match="boolean"):
        validate([[True, True], [False, True]])
    with pytest.raises(TypeError, match="boolean"):
        validate([[-1, True], [0, -1]])


def test_validate_trefoil():
    v = validate([[-1, 1], [0, -1]])
    assert v.genus == 1
    # det(V - V^T) = det([[0,1],[-1,0]]) = 1 by cofactor expansion
    assert det_int([[0, 1], [-1, 0]]) == 1


def test_validate_rejects_zero_matrix():
    with pytest.raises(NonSymplecticError):
        validate([[0, 0], [0, 0]])


def test_validate_rejects_odd_size():
    with pytest.raises(OddSizeError):
        validate([[0]])


def test_validate_rejects_ragged():
    with pytest.raises(NonSquareError):
        validate([[1, 0], [0]])


def test_validate_rejects_wrong_skew_determinant():
    with pytest.raises(NonSymplecticError):
        validate([[0, 2], [0, 0]])  # det(V - V^T) = 4


@pytest.mark.parametrize(
    "entries, error",
    [
        (((1, 2), (3,)), NonSquareError),
        (((1,),), OddSizeError),
        (((1.5, 1), (0, -1)), TypeError),
        (((True, 1), (0, -1)), TypeError),
    ],
)
def test_a_hand_built_matrix_checks_itself(entries, error):
    with pytest.raises(error):
        SeifertMatrix(entries=entries)


def test_det_int_fails_closed_on_an_inexact_bareiss_division():
    # a Fraction entry: the first Bareiss step leaves 1/2 * 1 - 1 * 1 = -1/2,
    # which the exact division by 1 over the integers refuses
    with pytest.raises(InternalInconsistencyError, match="^Bareiss division must be exact"):
        det_int([[Fraction(1, 2), 1], [1, 1]])


def test_genus_examples():
    assert UNKNOT.genus == 0
    assert TREFOIL.genus == 1
    assert granny_knot().genus == 2


def test_block_sum_with_unknot_is_identity():
    assert block_sum(UNKNOT, TREFOIL).entries == TREFOIL.entries
    assert block_sum(TREFOIL, UNKNOT).entries == TREFOIL.entries


def test_block_sum_granny_and_square_are_valid_genus_2():
    assert granny_knot().size == 4
    assert square_knot().size == 4


def test_mirror_examples():
    assert mirror(UNKNOT).entries == ()
    assert mirror(TREFOIL).entries == ((1, 0), (-1, 1))


def test_mirror_is_involution():
    assert mirror(mirror(TREFOIL)).entries == TREFOIL.entries


@given(seifert_matrices())
@settings(max_examples=60)
def test_random_fixtures_are_valid(v):
    # re-validation from raw entries must succeed with determinant exactly +1
    w = validate(v.entries)
    n = w.size
    skew = [[w.entries[i][j] - w.entries[j][i] for j in range(n)] for i in range(n)]
    assert det_int(skew) == 1


@given(seifert_matrices(), seifert_matrices())
@settings(max_examples=40)
def test_block_sum_validity_and_genus_additivity(v1, v2):
    s = block_sum(v1, v2)
    assert s.genus == v1.genus + v2.genus


@given(seifert_matrices())
@settings(max_examples=40)
def test_mirror_involution_and_validity(v):
    m = mirror(v)
    assert mirror(m).entries == v.entries
