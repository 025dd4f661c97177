from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from knotcert.errors import (
    NormalizationError,
    NotReciprocalError,
    RootAtPlusMinusOneError,
    ZeroPolynomialError,
)
from knotcert.cli import main
from knotcert.fixtures import (
    FIGURE_EIGHT,
    KNOT_5_2,
    TORUS_2_5,
    TREFOIL,
    UNKNOT,
    granny_knot,
)
from knotcert.laurent import (
    SymmetricLaurentPoly,
    ZPoly,
    _isolate_squarefree,
    _peval,
    _refine_once,
    _sign_at,
    alexander_poly,
    has_simple_unit_root,
    isolate_unit_roots,
    squarefree_decompose,
    sturm_chain,
    sturm_count,
    to_z_poly,
)
from knotcert.seifert import block_sum, mirror

from conftest import seifert_matrices
from oracles import distinct_real_roots_float


# --- Alexander polynomial ---------------------------------------------------


def test_alexander_unknot_is_one():
    assert alexander_poly(UNKNOT) == SymmetricLaurentPoly({0: 1})


def test_alexander_trefoil():
    # hand expansion: det(tV - V^T) = (1-t)^2 + t = t^2 - t + 1, shifted by t^-1
    assert alexander_poly(TREFOIL) == SymmetricLaurentPoly({1: 1, 0: -1, -1: 1})


def test_alexander_figure_eight():
    # hand expansion: det(tV - V^T) = -(t-1)^2 + t = -t^2 + 3t - 1
    assert alexander_poly(FIGURE_EIGHT) == SymmetricLaurentPoly({1: -1, 0: 3, -1: -1})


def test_alexander_torus_2_5():
    assert alexander_poly(TORUS_2_5) == SymmetricLaurentPoly(
        {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    )


def test_symmetric_laurent_rejects_asymmetry():
    with pytest.raises(NotReciprocalError):
        SymmetricLaurentPoly({1: 1, 0: 1, -1: -1})


def test_symmetric_laurent_rejects_bad_normalization():
    with pytest.raises(NormalizationError):
        SymmetricLaurentPoly({1: 1, 0: 1, -1: 1})


# --- z-reduction ------------------------------------------------------------


def test_to_z_poly_constant():
    assert to_z_poly(SymmetricLaurentPoly({0: 1})) == ZPoly([1])


def test_to_z_poly_trefoil():
    assert to_z_poly(alexander_poly(TREFOIL)) == ZPoly([-1, 1])


def test_to_z_poly_torus_2_5():
    # t^2 + t^-2 = z^2 - 2 by hand substitution
    assert to_z_poly(alexander_poly(TORUS_2_5)) == ZPoly([-1, -1, 1])


def test_to_z_poly_roundtrip_at_sample_points():
    for v in (TREFOIL, FIGURE_EIGHT, TORUS_2_5, granny_knot()):
        delta = alexander_poly(v)
        p = to_z_poly(delta)
        for t in (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3)):
            assert delta.evaluate(t) == p.evaluate(t + 1 / t)


# --- square-free decomposition ----------------------------------------------


def test_squarefree_linear():
    assert squarefree_decompose(ZPoly([-1, 1])) == [(ZPoly([-1, 1]), 1)]


def test_squarefree_granny_square():
    # (z-1)^2; gcd with the derivative 2(z-1) is z-1 by hand
    p = to_z_poly(alexander_poly(granny_knot()))
    assert p == ZPoly([1, -2, 1])
    assert squarefree_decompose(p) == [(ZPoly([-1, 1]), 2)]


def test_squarefree_golden_is_squarefree():
    # gcd(z^2-z-1, 2z-1) = 1 by one Euclid step
    assert squarefree_decompose(ZPoly([-1, -1, 1])) == [(ZPoly([-1, -1, 1]), 1)]


def test_squarefree_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        squarefree_decompose(ZPoly([]))


def test_squarefree_constant_has_no_factors():
    assert squarefree_decompose(ZPoly([7])) == []


# --- root isolation ----------------------------------------------------------


def test_isolate_trefoil_single_root_at_one():
    ws = isolate_unit_roots(ZPoly([-1, 1]))
    assert len(ws) == 1
    (w,) = ws
    lo, hi = w.interval
    assert lo < 1 <= hi
    assert w.multiplicity == 1
    assert hi - lo <= Fraction(1, 2**32)
    # angle bounds enclose pi/3
    assert float(w.angle_bounds[0]) <= 1.0471975511965976 <= float(w.angle_bounds[1])


def test_isolate_figure_eight_no_roots():
    assert isolate_unit_roots(ZPoly([3, -1])) == []


def test_isolate_golden_two_simple_roots():
    ws = isolate_unit_roots(ZPoly([-1, -1, 1]))
    assert [w.multiplicity for w in ws] == [1, 1]
    golden = (1 + 5**0.5) / 2
    lo0, hi0 = (float(x) for x in ws[0].interval)
    lo1, hi1 = (float(x) for x in ws[1].interval)
    assert lo0 - 1e-12 < 1 - golden < hi0 + 1e-12  # z = (1-sqrt5)/2 ~ -0.618
    assert lo1 - 1e-12 < golden < hi1 + 1e-12  # z = (1+sqrt5)/2 ~ 1.618


def test_isolate_respects_refine_bits():
    ws = isolate_unit_roots(ZPoly([-1, -1, 1]), refine_bits=8)
    for w in ws:
        assert w.interval[1] - w.interval[0] <= Fraction(1, 2**8)
    finer = isolate_unit_roots(ZPoly([-1, -1, 1]), refine_bits=48)
    for w in finer:
        assert w.interval[1] - w.interval[0] <= Fraction(1, 2**48)


def test_isolate_intervals_disjoint_sorted_interior():
    p = to_z_poly(alexander_poly(block_sum(TORUS_2_5, TREFOIL)))
    ws = isolate_unit_roots(p)
    assert len(ws) == 3
    for w1, w2 in zip(ws, ws[1:]):
        assert w1.interval[1] < w2.interval[0]
    assert ws[0].interval[0] > -2
    assert ws[-1].interval[1] < 2


def test_isolating_intervals_count_one_against_squarefree_part():
    # each interval must contain exactly one root of the full square-free part,
    # also across different factors (here: (z-1)^2 * (z^2-z-1))
    from knotcert.laurent import _pmul, _primitive

    p = to_z_poly(alexander_poly(block_sum(TORUS_2_5, granny_knot())))
    factors = squarefree_decompose(p)
    radical = [1]
    for f, _ in factors:
        radical = _pmul(radical, list(f.coeffs))
    chain = sturm_chain(_primitive(radical))
    ws = isolate_unit_roots(p)
    assert sorted(w.multiplicity for w in ws) == [1, 1, 2]
    for w in ws:
        assert sturm_count(chain, w.interval[0], w.interval[1]) == 1


def test_isolate_rejects_roots_at_endpoints():
    with pytest.raises(RootAtPlusMinusOneError):
        isolate_unit_roots(ZPoly([-2, 1]))  # root z = 2
    with pytest.raises(RootAtPlusMinusOneError):
        isolate_unit_roots(ZPoly([2, 1]))  # root z = -2


def test_has_simple_unit_root_selection():
    trefoil_ws = isolate_unit_roots(to_z_poly(alexander_poly(TREFOIL)))
    ok, selected = has_simple_unit_root(trefoil_ws)
    assert ok and selected == trefoil_ws

    ok, selected = has_simple_unit_root([])
    assert not ok and selected == []

    granny_ws = isolate_unit_roots(to_z_poly(alexander_poly(granny_knot())))
    ok, selected = has_simple_unit_root(granny_ws)
    assert not ok and selected == []


# --- properties over random valid matrices -----------------------------------


@given(seifert_matrices())
@settings(max_examples=50, deadline=None)
def test_alexander_reciprocal_normalized_odd_determinant(v):
    delta = alexander_poly(v)
    for k, c in delta.coeffs.items():
        assert delta.coefficient(-k) == c
    assert delta.evaluate(1) == 1
    d = delta.evaluate(-1)
    assert d.denominator == 1 and int(d) % 2 == 1
    assert delta.max_exponent <= v.genus


@given(seifert_matrices(max_genus=2), seifert_matrices(max_genus=2))
@settings(max_examples=30, deadline=None)
def test_alexander_multiplicative_under_block_sum(v1, v2):
    assert alexander_poly(block_sum(v1, v2)) == alexander_poly(v1) * alexander_poly(v2)


@given(seifert_matrices())
@settings(max_examples=40, deadline=None)
def test_alexander_mirror_invariant(v):
    assert alexander_poly(mirror(v)) == alexander_poly(v)


# --- Sturm machinery vs floating oracle --------------------------------------


def test_sturm_count_halfopen_convention():
    chain = sturm_chain([-1, 1])  # z - 1
    assert sturm_count(chain, Fraction(0), Fraction(1)) == 1  # root at right endpoint
    assert sturm_count(chain, Fraction(1), Fraction(2)) == 0


def test_sturm_isolation_matches_floating_roots():
    rng = random.Random(20260810)
    checked = 0
    while checked < 100:
        degree = rng.randint(1, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        p = ZPoly(coeffs)
        if p.degree < 1 or p.evaluate(2) == 0 or p.evaluate(-2) == 0:
            continue
        witnesses = isolate_unit_roots(p)
        floats = distinct_real_roots_float(p.coeffs)
        assert len(witnesses) == len(floats)
        for root in floats:
            containing = [
                w for w in witnesses
                if float(w.interval[0]) - 1e-12 < root <= float(w.interval[1]) + 1e-12
            ]
            assert len(containing) == 1
        checked += 1


# --- integer signs and sign-change refinement ---------------------------------

DATA = Path(__file__).parent / "data"

# rational points: negative, zero, integer, dyadic and non-dyadic
points = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(
        Fraction,
        st.integers(-(2**70), 2**70),
        st.one_of(st.integers(0, 80).map(lambda m: 2**m), st.integers(1, 10**9)),
    ),
)


@given(st.lists(st.integers(-(10**12), 10**12), max_size=14), points)
@settings(max_examples=300, deadline=None)
def test_sign_at_matches_exact_evaluation(coeffs, x):
    value = _peval(coeffs, Fraction(x))
    assert _sign_at(coeffs, x) == (value > 0) - (value < 0)


def test_sign_at_rejects_inexact_points():
    with pytest.raises(TypeError):
        _sign_at([1, 1], 0.5)
    with pytest.raises(TypeError):
        _sign_at([1, 1], "1/2")


def test_refine_once_halfopen_convention():
    chain = sturm_chain([-1, 1])  # z - 1
    # root at the midpoint stays in the left half (a, mid]
    assert _refine_once(chain, Fraction(0), Fraction(2)) == (0, 1)
    # root at b: (mid, b]
    assert _refine_once(chain, Fraction(0), Fraction(1)) == (Fraction(1, 2), 1)
    # sign change inside (mid, b]
    assert _refine_once(chain, Fraction(0), Fraction(3, 2)) == (Fraction(3, 4), Fraction(3, 2))
    # no sign change over (mid, b]: the root is in (a, mid]
    assert _refine_once(chain, Fraction(1, 2), Fraction(4)) == (Fraction(1, 2), Fraction(9, 4))


def test_refine_once_picks_the_half_sturm_picks():
    rng = random.Random(20261017)
    checked = 0
    while checked < 60:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
        p = ZPoly(coeffs)
        if p.degree < 1:
            continue
        for f, _ in squarefree_decompose(p):
            chain = sturm_chain(list(f.coeffs))
            for a, b in _isolate_squarefree(chain, Fraction(-4), Fraction(4)):
                for _ in range(12):
                    mid = (a + b) / 2
                    sturm_half = (mid, b) if sturm_count(chain, mid, b) == 1 else (a, mid)
                    a, b = _refine_once(chain, a, b)
                    assert (a, b) == sturm_half
                    assert sturm_count(chain, a, b) == 1
        checked += 1


@pytest.mark.parametrize("bits", [0, 1, 8, 32, 320])
def test_dyadic_root_of_5_2_at_right_endpoint(bits):
    # P(z) = 2z - 3 for 5_2: the root z = 3/2 is dyadic, so bisection lands on
    # it and the half-open convention keeps it at hi
    (w,) = isolate_unit_roots(to_z_poly(alexander_poly(KNOT_5_2)), refine_bits=bits)
    lo, hi = w.interval
    assert hi == Fraction(3, 2)
    assert lo < hi and hi - lo <= Fraction(1, 2**bits)


def test_roots_refine_320_matches_golden(capsys):
    # T(2,17) and T(2,7)#T(2,7); the golden file was made by refining with
    # a Sturm count over (mid, b], and refining by the sign of the square-free
    # factor must pick the same half at every one of the 320 steps
    assert main(["roots", "--input", str(DATA / "roots_golden.json"), "--refine-bits", "320"]) == 0
    assert capsys.readouterr().out == (DATA / "roots_golden_320.txt").read_text()
