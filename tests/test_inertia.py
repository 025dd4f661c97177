from __future__ import annotations

import contextlib
import importlib
import math
import os
import random
import re
import signal
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from knotcert.certify import certify
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
    random_corpus,
    random_unimodular,
    square_knot,
    torus_knot,
)
from knotcert.inertia import (
    GaussianRational,
    UnitCirclePoint,
    _hermitian_h,
    _inertia_and_det,
    _inertia_from_char_poly,
    _rational_sqrt_between,
    b_matrix_at,
    char_poly,
    det_sign_crosscheck,
    inertia,
    jump_reports,
    sample_point_in_z_range,
    signature_profile,
    to_paper_parametrization,
    transversality_diagnostic,
)
from knotcert.laurent import alexander_poly, arc_z_ranges, isolate_unit_roots, to_z_poly
from knotcert.record import replace
from knotcert.seifert import SeifertMatrix, det_int, mirror

from conftest import seifert_matrices
from oracles import inertia_exact, inertia_float, signature_float


def profile_of(v: SeifertMatrix):
    witnesses = isolate_unit_roots(to_z_poly(alexander_poly(v)))
    return signature_profile(v, witnesses), witnesses


def p_of(v: SeifertMatrix):
    return to_z_poly(alexander_poly(v))


def omega(point: UnitCirclePoint) -> tuple[Fraction, Fraction]:
    """(re, im) of w = ((1 - u^2) + 2u*i)/(1 + u^2), the point's tan-half-angle form."""
    u = point.u
    return (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)


def v_plus_vt(v: SeifertMatrix) -> list[list[int]]:
    """The symmetric matrix V + V^T, whose signature is the classical knot signature."""
    return [[x + y for x, y in zip(row, col)] for row, col in zip(v.entries, zip(*v.entries))]


# --- B matrix ----------------------------------------------------------------


def test_b_matrix_at_i_is_closed_form():
    b = b_matrix_at(TREFOIL, UnitCirclePoint(Fraction(1)))  # w = i
    # (1 - i)V + (1 + i)V^T, entry by entry
    expected = [
        [
            GaussianRational(
                Fraction(TREFOIL.entries[i][j] + TREFOIL.entries[j][i]),
                Fraction(TREFOIL.entries[j][i] - TREFOIL.entries[i][j]),
            )
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert b == expected
    # hand values: [[-2, 1-i], [1+i, -2]]
    assert b[0][0] == GaussianRational(Fraction(-2))
    assert b[0][1] == GaussianRational(Fraction(1), Fraction(-1))
    assert b[1][0] == GaussianRational(Fraction(1), Fraction(1))


@pytest.mark.parametrize(
    "v",
    [UNKNOT, TREFOIL, FIGURE_EIGHT, KNOT_5_2, STEVEDORE, TORUS_2_5, TORUS_2_7, granny_knot()],
    ids=lambda v: v.name,
)
@pytest.mark.parametrize("u", [Fraction(1, 3), Fraction(3), Fraction(7, 2), Fraction(1, 10**9)])
def test_b_matrix_at_is_the_defining_form(v, u):
    # (1 - w)V + (1 - conj(w))V^T with w taken from the point itself
    point = UnitCirclePoint(u)
    w_re, w_im = omega(point)
    a_re, a_im = 1 - w_re, -w_im
    e = v.entries
    expected = [
        [
            GaussianRational(a_re * (e[i][j] + e[j][i]), a_im * (e[i][j] - e[j][i]))
            for j in range(v.size)
        ]
        for i in range(v.size)
    ]
    assert b_matrix_at(v, point) == expected


def test_b_matrix_empty():
    assert b_matrix_at(UNKNOT, UnitCirclePoint(Fraction(1))) == []


def test_unit_circle_point_geometry():
    p = UnitCirclePoint(Fraction(1, 3))
    w_re, w_im = omega(p)
    assert w_re * w_re + w_im * w_im == 1
    assert p.z == 2 * w_re
    q = UnitCirclePoint(Fraction(3))
    assert q.z < p.z  # z decreases as u (hence the angle) grows
    with pytest.raises(ValueError):
        UnitCirclePoint(Fraction(0))


@pytest.mark.parametrize("u", [0.5, True, "1", None, complex(1)])
def test_unit_circle_point_takes_only_an_exact_u(u):
    with pytest.raises(TypeError, match="int or Fraction"):
        UnitCirclePoint(u)


def test_unit_circle_point_keeps_an_int_u_as_a_fraction():
    point = UnitCirclePoint(1)
    assert point == UnitCirclePoint(Fraction(1)) and type(point.u) is Fraction
    assert point.z == 0 and type(point.z) is Fraction
    assert UnitCirclePoint(3).z == Fraction(-8, 5)


def test_unit_circle_point_angle_past_the_float_range():
    assert UnitCirclePoint(Fraction(10**400)).angle == math.pi


def test_sample_next_to_z_minus_two_past_the_float_range():
    # u^2 = (2 - z)/(2 + z) is near 10^400 here; the float estimate cannot hold it
    z_hi = Fraction(-2) + Fraction(1, 10**400)
    assert -2 < sample_point_in_z_range(Fraction(-2), z_hi).z < z_hi


# --- exact inertia -----------------------------------------------------------


def test_inertia_examples():
    assert inertia([[-2, 1], [1, -2]]) == (0, 2, 0)  # eigenvalues -1, -3
    assert inertia([[2, 1], [1, -2]]) == (1, 1, 0)  # det -5 forces opposite signs
    assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert inertia([]) == (0, 0, 0)


def test_inertia_rejects_non_hermitian():
    # non-square and ragged inputs are rejected as non-Hermitian, not indexed past
    for h in [[[0, 1], [2, 0]], [[1, 2]], [[1], [2]], [[1, 0, 5], [0, 2, 7]], [[1, 2], [3]]]:
        with pytest.raises(ValueError, match="inertia requires a Hermitian matrix"):
            inertia(h)


def test_inertia_with_gaussian_entries():
    h = [
        [GaussianRational(Fraction(0)), GaussianRational(Fraction(0), Fraction(-2))],
        [GaussianRational(Fraction(0), Fraction(2)), GaussianRational(Fraction(0))],
    ]
    assert inertia(h) == (1, 1, 0)  # eigenvalues +-2



def test_inertia_reads_only_exact_entries():
    assert inertia([[1, Fraction(1, 2)], [GaussianRational(Fraction(1, 2)), 3]]) == (2, 0, 0)
    for h in (
        [["1/2"]],
        [[0.5]],
        [[True]],
        [[GaussianRational(0.1)]],
        [[GaussianRational(Fraction(1), 0.0)]],
        [[GaussianRational(Fraction(1), False)]],
    ):
        with pytest.raises(TypeError, match="int or Fraction"):
            inertia(h)


def test_char_poly_fails_closed_on_a_non_real_trace(monkeypatch):
    # the Hermitian guard stops every input that could make a trace non-real,
    # so the per-step check is reached by a product that gains i on its diagonal
    module = importlib.import_module("knotcert.inertia")
    real = module._mat_mul

    def skewed(a, b):
        m = real(a, b)
        m[0][0] = (m[0][0][0], m[0][0][1] + 1)
        return m

    monkeypatch.setattr(module, "_mat_mul", skewed)
    with pytest.raises(InternalInconsistencyError, match=r"^characteristic polynomial not real$"):
        char_poly([[(1, 0), (0, 1)], [(0, -1), (1, 0)]])


def test_inertia_fails_closed_when_descartes_counts_miss_eigenvalues():
    # x^2 + 1 has no real root, so neither sign count sees its two eigenvalues
    with pytest.raises(InternalInconsistencyError, match="do not exhaust"):
        _inertia_from_char_poly([Fraction(1), Fraction(0), Fraction(1)])


@pytest.mark.parametrize("entries", [[[0, 1], [-1, 0]], [[0, 1], [0, 0]]])
def test_char_poly_fails_closed_on_non_hermitian_input(entries):
    # only the upper triangle of each product is formed, which is the whole
    # product only for Hermitian H: [[0, 1], [0, 0]] would read x^2
    with pytest.raises(InternalInconsistencyError, match="not real: H is not Hermitian"):
        char_poly([[(x, 0) for x in row] for row in entries])


def test_char_poly_matches_numpy_on_random_hermitian():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        h = [[None] * n for _ in range(n)]
        for i in range(n):
            h[i][i] = (rng.randint(-5, 5), 0)
            for j in range(i + 1, n):
                re, im = rng.randint(-4, 4), rng.randint(-4, 4)
                h[i][j], h[j][i] = (re, im), (re, -im)
        exact = [float(c) for c in char_poly(h)]
        hf = np.array([[complex(re, im) for re, im in row] for row in h])
        viafloat = np.poly(np.linalg.eigvalsh(hf))[::-1].real
        assert np.allclose(exact, viafloat, atol=1e-6)


def assert_matches_exact_oracle(pairs):
    expected = inertia_exact(pairs)
    assert _inertia_and_det(pairs) == expected
    grid = [[GaussianRational(Fraction(re), Fraction(im)) for re, im in row] for row in pairs]
    assert inertia(grid) == expected[:3]
    return expected


@pytest.mark.parametrize(
    "pairs, expected",
    [
        # zero diagonals: the congruence takes c = 1, then c = i
        ([[(0, 0), (1, 0)], [(1, 0), (0, 0)]], (1, 1, 0, -1)),
        ([[(0, 0), (0, 2)], [(0, -2), (0, 0)]], (1, 1, 0, -4)),
        ([[(0, 0)] * 3] * 3, (0, 0, 3, 0)),
        ([[(1, 0), (0, 1)], [(0, -1), (1, 0)]], (1, 0, 1, 0)),  # rank 1
    ],
)
def test_exact_oracle_examples(pairs, expected):
    assert assert_matches_exact_oracle(pairs) == expected


def random_gaussian_hermitian(rng: random.Random, n: int, kind: str):
    """A Hermitian matrix of Gaussian-integer (re, im) pairs, of one of four kinds."""
    if kind == "low rank":  # X X* with X of n x r, r < n
        r = rng.randint(0, n - 1)
        x = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(r)] for _ in range(n)]
        return [
            [
                (
                    sum(a * c + b * d for (a, b), (c, d) in zip(x[i], x[j])),
                    sum(b * c - a * d for (a, b), (c, d) in zip(x[i], x[j])),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    h = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        h[i][i] = (0 if kind == "zero diagonal" else rng.randint(-3, 3), 0)
        for j in range(i + 1, n):
            re, im = rng.randint(-2, 2), rng.randint(-2, 2)
            h[i][j], h[j][i] = (re, im), (re, -im)
    if kind == "singular":  # the last row and column repeat the first
        for i in range(n):
            h[i][-1] = h[i][0]
        h[-1] = list(h[0])
    return h


def test_inertia_matches_the_exact_oracle_on_random_gaussian_integer_matrices():
    rng = random.Random(24)
    kinds = ["general", "zero diagonal", "singular", "low rank"]
    zero_counts = {kind: set() for kind in kinds}
    # 400 of size 1-6, then three of each kind at sizes 7-10, up to genus 5
    for trial in range(412):
        kind = kinds[trial % 4]
        n = rng.randint(1, 6) if trial < 400 else 7 + (trial - 400) // 3
        pairs = random_gaussian_hermitian(rng, n, kind)
        zero_counts[kind].add(assert_matches_exact_oracle(pairs)[2])
    assert all(len(counts) > 1 for counts in zero_counts.values())


def test_plateau_inertia_matches_the_exact_oracle_on_random_corpus():
    for entry in random_corpus(50, seed=17):
        profile, _ = profile_of(entry.seifert)
        points = [(s.u.numerator, s.u.denominator) for s in profile.arc_samples] + [(1, 0)]
        for p, q in points:
            _, h = _hermitian_h(entry.seifert, p, q)
            assert_matches_exact_oracle(h)


# --- signature profiles -------------------------------------------------------


def grid_check(v: SeifertMatrix, profile, samples: int = 300):
    """Compare the exact step function with a floating eigensolver on a grid."""
    enclosures = [
        (float(w.angle_bounds[0]), float(w.angle_bounds[1])) for w in profile.jump_angles
    ]
    for k in range(1, samples):
        phi = math.pi * k / samples
        if any(lo - 1e-6 <= phi <= hi + 1e-6 for lo, hi in enclosures):
            continue
        arc = sum(1 for lo, _ in enclosures if phi > lo)
        assert signature_float(v.entries, phi) == profile.plateau_values[arc]


def test_profile_trefoil():
    profile, _ = profile_of(TREFOIL)
    assert profile.plateau_values == (0, -2)
    assert profile.value_at_minus_one == -2
    assert len(profile.jump_angles) == 1
    grid_check(TREFOIL, profile)


def test_profile_figure_eight_flat():
    profile, _ = profile_of(FIGURE_EIGHT)
    assert profile.plateau_values == (0,)
    assert profile.value_at_minus_one == 0
    grid_check(FIGURE_EIGHT, profile)


def test_profile_torus_2_5():
    profile, _ = profile_of(TORUS_2_5)
    assert profile.plateau_values == (0, -2, -4)
    assert profile.value_at_minus_one == -4
    grid_check(TORUS_2_5, profile)


def test_profile_unknot():
    profile, _ = profile_of(UNKNOT)
    assert profile.plateau_values == (0,)
    assert profile.value_at_minus_one == 0


def test_profile_samples_are_strictly_between_roots():
    for v in [TORUS_2_5, granny_knot(), square_knot(), torus_knot(3, 4), torus_knot(4, 5)]:
        profile, ws = profile_of(v)
        assert len(profile.arc_samples) == len(profile.arc_dets) == len(ws) + 1
        zs = [p.z for p in profile.arc_samples]
        assert all(z2 < z1 for z1, z2 in zip(zs, zs[1:]))  # angle-ordered
        for w in ws:
            for z in zs:
                assert not (w.interval[0] < z <= w.interval[1])


# --- jumps --------------------------------------------------------------------


def test_jump_reports_trefoil():
    profile, ws = profile_of(TREFOIL)
    (report,) = jump_reports(profile)
    assert report.root == ws[0]
    assert report.left_value == 0
    assert report.right_value == -2
    assert report.jump == -2
    assert report.odd_multiplicity
    assert report.transversal_simple


def test_jump_reports_granny_and_square():
    profile, _ = profile_of(granny_knot())
    (report,) = jump_reports(profile)
    assert report.jump == -4
    assert report.root.multiplicity == 2
    assert not report.odd_multiplicity
    assert not report.transversal_simple

    profile, _ = profile_of(square_knot())
    (report,) = jump_reports(profile)
    assert report.jump == 0
    assert report.root.multiplicity == 2


@pytest.mark.parametrize(
    "plateaus, message",
    [
        ((0, -4), "exceeds twice the multiplicity 1"),
        ((0, 0), "zero jump at an odd-multiplicity root"),
        ((0, -1), "simple root with |jump| = 1 != 2"),
    ],
    ids=["bound", "odd", "simple"],
)
def test_jump_reports_fail_closed_on_a_broken_jump_law(plateaus, message):
    # the trefoil's one simple root, with plateaus that break one law each
    profile, _ = profile_of(TREFOIL)
    broken = replace(profile, plateau_values=plateaus)
    with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
        jump_reports(broken)


# --- determinant crosscheck -----------------------------------------------------


def test_det_sign_crosscheck_trefoil_values():
    profile, _ = profile_of(TREFOIL)
    assert det_sign_crosscheck(p_of(TREFOIL), profile)
    # first plateau (signature 0, g = 1): one negative eigenvalue, det < 0
    assert profile.arc_dets[0] < 0
    # past the jump the signature is -2, both eigenvalues negative, det > 0;
    # in particular det B(i) = (0-2)^1 * P(0) = (-2)(-1) = +2
    assert profile.arc_dets[1] > 0
    p, n, z = inertia(b_matrix_at(TREFOIL, UnitCirclePoint(Fraction(1))))
    assert (p, n, z) == (0, 2, 0)


def test_det_sign_crosscheck_figure_eight_negative_throughout():
    profile, _ = profile_of(FIGURE_EIGHT)
    assert det_sign_crosscheck(p_of(FIGURE_EIGHT), profile)
    assert all(d < 0 for d in profile.arc_dets)


def test_det_sign_crosscheck_empty_matrix_vacuous():
    profile, _ = profile_of(UNKNOT)
    assert det_sign_crosscheck(p_of(UNKNOT), profile)



@pytest.mark.parametrize(
    "broken",
    [
        lambda pr: replace(pr, arc_dets=(-pr.arc_dets[0], *pr.arc_dets[1:])),
        lambda pr: replace(pr, arc_dets=(2 * pr.arc_dets[0], *pr.arc_dets[1:])),
        lambda pr: replace(pr, plateau_values=(0, pr.plateau_values[1] + 2)),
        lambda pr: replace(pr, det_at_minus_one=pr.det_at_minus_one + 1),
        lambda pr: replace(pr, jump_angles=(replace(pr.jump_angles[0], multiplicity=2),)),
    ],
    ids=["sample-identity", "sample-factorization", "sign-law", "minus-one-identity", "flip-parity"],
)
def test_det_sign_crosscheck_fails_on_a_broken_law(broken):
    # the trefoil's profile, changed to break one of the four laws; negating
    # arc_dets[0] (sample-identity) also breaks the sign law and the flip
    # parity, while doubling it breaks the factorization alone
    profile, _ = profile_of(TREFOIL)
    assert det_sign_crosscheck(p_of(TREFOIL), profile)
    assert not det_sign_crosscheck(p_of(TREFOIL), broken(profile))


@pytest.mark.parametrize(
    "at_samples, at_minus_one, message",
    [
        (lambda sig, det: (1, 0, det), None, "odd plateau signature"),
        (None, lambda sig, det: (sig, 1, det), "B(-1) singular"),
        (None, lambda sig, det: (sig + 2, 0, det), "disagrees with the final plateau"),
    ],
    ids=["odd", "singular-at-minus-one", "minus-one-disagrees"],
)
def test_profile_fails_closed_on_a_broken_plateau(at_samples, at_minus_one, message, monkeypatch):
    # one evaluation of B, at the arc samples (q != 0) or at w = -1 (q = 0), is changed
    module = importlib.import_module("knotcert.inertia")
    real = module._plateau

    def plateau(v, p, q):
        sig, zeros, det = real(v, p, q)
        change = at_minus_one if q == 0 else at_samples
        return (sig, zeros, det) if change is None else change(sig, det)

    monkeypatch.setattr(module, "_plateau", plateau)
    with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
        signature_profile(TREFOIL, isolate_unit_roots(p_of(TREFOIL)))


# --- reporting transform --------------------------------------------------------


def test_to_paper_parametrization_halves_angles():
    profile, _ = profile_of(TORUS_2_5)
    halved = to_paper_parametrization(profile)
    assert halved.plateau_values == profile.plateau_values
    assert halved.value_at_minus_one == profile.value_at_minus_one
    assert halved.paper_angles
    for w, h in zip(profile.jump_angles, halved.jump_angles):
        assert h.angle_bounds == (w.angle_bounds[0] / 2, w.angle_bounds[1] / 2)
        assert h.interval == w.interval
    # trefoil jump at phi = pi/3 becomes alpha = pi/6
    tp, _ = profile_of(TREFOIL)
    (h,) = to_paper_parametrization(tp).jump_angles
    assert float(h.angle_bounds[0]) <= math.pi / 6 <= float(h.angle_bounds[1])


def test_to_paper_parametrization_empty_profile():
    profile, _ = profile_of(UNKNOT)
    halved = to_paper_parametrization(profile)
    assert halved.jump_angles == ()
    assert halved.plateau_values == (0,)


# --- properties -----------------------------------------------------------------


@given(seifert_matrices())
@settings(max_examples=25, deadline=None)
def test_profile_invariants(v):
    profile, ws = profile_of(v)
    assert profile.plateau_values[0] == 0
    assert all(p % 2 == 0 for p in profile.plateau_values)
    assert profile.value_at_minus_one == profile.plateau_values[-1]
    sym_p, sym_n, sym_z = inertia(v_plus_vt(v))
    assert sym_z == 0
    assert profile.value_at_minus_one == sym_p - sym_n
    # B(-1) = 2(V + V^T), against the package's independent integer determinant
    assert profile.det_at_minus_one == 4**v.genus * det_int(v_plus_vt(v))
    assert profile.jump_angles == tuple(sorted(ws, key=lambda w: w.interval, reverse=True))
    for report in jump_reports(profile):
        assert abs(report.jump) <= 2 * report.root.multiplicity
        if report.odd_multiplicity:
            assert report.jump != 0
    assert det_sign_crosscheck(p_of(v), profile)


@given(seifert_matrices(max_genus=2))
@settings(max_examples=15, deadline=None)
def test_profile_congruence_invariance(v):
    u = random_unimodular(v.size, random.Random(99), steps=4)
    w = congruent(v, u)
    pv, _ = profile_of(v)
    pw, _ = profile_of(w)
    assert pv.jump_angles == pw.jump_angles
    assert pv.plateau_values == pw.plateau_values
    assert pv.value_at_minus_one == pw.value_at_minus_one


@given(seifert_matrices(max_genus=2))
@settings(max_examples=15, deadline=None)
def test_profile_mirror_antisymmetry(v):
    pv, _ = profile_of(v)
    pm, _ = profile_of(mirror(v))
    assert pm.jump_angles == pv.jump_angles
    assert pm.plateau_values == tuple(-x for x in pv.plateau_values)
    assert pm.value_at_minus_one == -pv.value_at_minus_one


def sig_at(profile, z: Fraction) -> int:
    arc = sum(1 for w in profile.jump_angles if w.interval[0] > z)
    return profile.plateau_values[arc]


@given(seifert_matrices(max_genus=1), seifert_matrices(max_genus=1))
@settings(max_examples=15, deadline=None)
def test_profile_additivity_under_block_sum(v1, v2):
    from knotcert.seifert import block_sum

    p1, _ = profile_of(v1)
    p2, _ = profile_of(v2)
    ps, _ = profile_of(block_sum(v1, v2))
    for point, value in zip(ps.arc_samples, ps.plateau_values):
        assert value == sig_at(p1, point.z) + sig_at(p2, point.z)
    assert ps.value_at_minus_one == p1.value_at_minus_one + p2.value_at_minus_one


def test_inertia_matches_floating_eigensolver_at_arc_samples():
    rng = random.Random(31337)
    from knotcert.fixtures import random_valid_matrix

    checked = 0
    while checked < 30:
        v = random_valid_matrix(rng, max_genus=2)
        profile, _ = profile_of(v)
        for point, sig in zip(profile.arc_samples, profile.plateau_values):
            bf = np.array(
                [
                    [complex(float(x.re), float(x.im)) for x in row]
                    for row in b_matrix_at(v, point)
                ]
            ).reshape(v.size, v.size) if v.size else np.zeros((0, 0))
            p, n, z = inertia_float(bf)
            assert z == 0
            assert p - n == sig
            checked += 1


@pytest.mark.parametrize("lo, hi", [(-3, 0), (0, 3), (1, 1), (1, 0)])
def test_sample_point_in_z_range_rejects_a_bad_range(lo, hi):
    with pytest.raises(ValueError, match="bad z range"):
        sample_point_in_z_range(Fraction(lo), Fraction(hi))


def test_sample_outside_its_arc_raises_under_python_O(tmp_path):
    # python -O strips assert statements; this check must still end certify
    # with exit 2: the stub puts the first sample of the trefoil near z = -2
    corpus = tmp_path / "trefoil.json"
    corpus.write_text('[{"name": "trefoil", "seifert": [[-1, 1], [0, -1]]}]')
    code = (
        "import importlib, sys\n"
        "from fractions import Fraction\n"
        "from knotcert.cli import main\n"
        "if not sys.flags.optimize: sys.exit('not under -O')\n"
        "inertia = importlib.import_module('knotcert.inertia')\n"
        "inertia._rational_sqrt_between = lambda qa, qb: Fraction(1000)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(importlib.import_module("knotcert").__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, "certify", "--input", str(corpus)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2, proc.stderr
    assert re.fullmatch(r"internal inconsistency: sample z = \S+ outside \(1, 2\)\n", proc.stderr)


def test_sample_point_in_z_range_is_exact_and_interior():
    for lo, hi in ((Fraction(-2), Fraction(2)), (Fraction(1), Fraction(2)), (Fraction(-2), Fraction(-1))):
        pt = sample_point_in_z_range(lo, hi)
        assert lo < pt.z < hi
        w_re, w_im = omega(pt)
        assert w_re * w_re + w_im * w_im == 1


@given(
    st.one_of(
        st.just(Fraction(0)),
        st.builds(
            lambda n, d, e: Fraction(n, d) * Fraction(2) ** e,
            st.integers(1, 10**6),
            st.integers(1, 10**6),
            st.integers(-1300, 1300),
        ),
    ),
    st.builds(lambda n, e: Fraction(n) / Fraction(2) ** e, st.integers(1, 10**6), st.integers(-1300, 4000)),
)
@settings(max_examples=300, deadline=None)
def test_rational_sqrt_between_is_the_least_dyadic_inside(qa, width):
    # qa from 0 to past the float range, widths from past it down to 2^-4000
    qb = qa + width
    u = _rational_sqrt_between(qa, qb)
    k, den = u.numerator, u.denominator
    assert den & (den - 1) == 0  # u = k/2^b
    assert qa < u * u < qb
    # no smaller k at this b ...
    assert Fraction(k - 1, den) ** 2 <= qa
    # ... and no fit at b - 1, which would be an even k' >= k at b: so k is
    # odd and k + 1 is already past qb
    if den > 1:
        assert k % 2 == 1 and Fraction(k + 1, den) ** 2 >= qb


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise TimeoutError in the block after seconds, where the platform has SIGALRM."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("qa, qb", [(1, 1), (2, 1), (0, 0), (-1, 1)])
def test_rational_sqrt_between_rejects_a_bad_range(qa, qb):
    # without the guard, qa >= qb doubles the bit count forever: the time
    # limit makes that a failure rather than a hang
    with _time_limit(5), pytest.raises(ValueError, match="need 0 <= qa < qb"):
        _rational_sqrt_between(Fraction(qa), Fraction(qb))


def test_certify_samples_inside_an_arc_about_1e_30_wide():
    # the root nearest z = 2 lies about 1e-30 below it, so the first arc is
    # about 1e-30 wide; its sample is the least dyadic u inside the arc
    cert = certify([[-(10**30), 1], [0, -1]])
    assert cert.verdict == "CERTIFIED"
    profile = cert.profile
    arcs = arc_z_ranges(profile.jump_angles)
    z_lo, z_hi = arcs[0]
    assert z_hi - z_lo < Fraction(1, 10**29)
    u = profile.arc_samples[0].u
    assert u.denominator & (u.denominator - 1) == 0
    for point, (z_lo, z_hi) in zip(profile.arc_samples, arcs):
        assert z_lo < point.z < z_hi


def test_profile_rejects_witnesses_that_miss_roots():
    # an empty witness list for the trefoil puts the root inside an arc,
    # which the first-plateau assertion catches
    with pytest.raises(InternalInconsistencyError):
        signature_profile(TREFOIL, [])


# --- display-only slope diagnostic -----------------------------------------------


def test_transversality_diagnostic_trefoil_against_eigensolver():
    profile, _ = profile_of(TREFOIL)
    (diag,) = transversality_diagnostic(TREFOIL, profile, 0)
    # one eigenvalue crosses zero downward at phi = pi/3
    assert diag.left_eigenvalue > 0 > diag.right_eigenvalue
    assert diag.slope < 0
    for phi, lam in (
        (diag.left_angle, diag.left_eigenvalue),
        (diag.right_angle, diag.right_eigenvalue),
    ):
        ev = np.linalg.eigvalsh(
            np.array(
                [
                    [complex(float(x.re), float(x.im)) for x in row]
                    for row in b_matrix_at(
                        TREFOIL, UnitCirclePoint(Fraction(math.tan(phi / 2)).limit_denominator(10**9))
                    )
                ]
            )
        )
        nearest = min(ev, key=abs)
        assert abs(nearest - lam) < 1e-4


def test_transversality_diagnostic_interior_root_of_torus_2_5():
    profile, _ = profile_of(TORUS_2_5)
    for idx in range(len(profile.jump_angles)):
        (diag,) = transversality_diagnostic(TORUS_2_5, profile, idx)
        assert diag.left_eigenvalue > 0 > diag.right_eigenvalue
        assert diag.left_angle < diag.right_angle


def test_transversality_diagnostic_square_knot_gives_both_branches():
    # B of K # mirror(K) has a spectrum symmetric about 0: at the double root
    # the trefoil's branch crosses downward and its mirror's upward
    v = square_knot()
    profile, _ = profile_of(v)
    (root,) = profile.jump_angles
    assert root.multiplicity == 2
    up, down = transversality_diagnostic(v, profile, 0)
    assert up.slope > 0 > down.slope
    assert math.isclose(up.slope, -down.slope, rel_tol=1e-3)
    for diag in (up, down):
        assert diag.left_angle < diag.right_angle
    for phi, lams in (
        (up.left_angle, [up.left_eigenvalue, down.left_eigenvalue]),
        (up.right_angle, [down.right_eigenvalue, up.right_eigenvalue]),
    ):
        point = UnitCirclePoint(Fraction(math.tan(phi / 2)).limit_denominator(10**9))
        b = [[complex(float(x.re), float(x.im)) for x in row] for row in b_matrix_at(v, point)]
        ev = np.linalg.eigvalsh(np.array(b))
        assert lams == sorted(lams)
        assert np.allclose(sorted(sorted(ev, key=abs)[:2]), lams, rtol=1e-6, atol=1e-12)
