from __future__ import annotations

import functools
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from knotcert.errors import (
    InternalInconsistencyError,
    NonSymplecticError,
    NormalizationError,
    NotReciprocalError,
    RootAtPlusMinusOneError,
    ZeroPolynomialError,
)
from knotcert.cli import main
from knotcert.corpus import CorpusEntry, write_corpus
from knotcert.fixtures import (
    FIGURE_EIGHT,
    KNOT_5_2,
    SEEDS,
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
from knotcert.laurent import (
    SymmetricLaurentPoly,
    UnitRootWitness,
    ZPoly,
    _descartes_variations,
    _halve,
    _isolate_squarefree,
    _multiplicity_proved,
    _pderiv,
    _pdiv,
    _pgcd,
    _primitive,
    _sign_at,
    _simple_roots,
    _tan_half_angle,
    alexander_poly,
    isolate_unit_roots,
    sturm_chain,
    to_z_poly,
    unproved_claim,
)
from knotcert.record import replace
from knotcert.seifert import SeifertMatrix, block_sum, mirror, validate

from conftest import seifert_matrices
from oracles import distinct_real_roots_float, isolate_by_halving, laurent_product, sturm_count


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


@pytest.mark.parametrize(
    "changes, error, message",
    [
        ({"interval": (Fraction(1), Fraction(1))}, ValueError, "empty isolating interval"),
        ({"interval": (Fraction(1), Fraction(1, 2))}, ValueError, "empty isolating interval"),
        ({"multiplicity": True}, TypeError, "multiplicity must be an int"),
        ({"multiplicity": 2.0}, TypeError, "multiplicity must be an int"),
        ({"multiplicity": 0}, ValueError, "below 1"),
        ({"multiplicity": -1}, ValueError, "below 1"),
        ({"angle_bounds": (Fraction(2), Fraction(1))}, ValueError, "not ordered"),
    ],
)
def test_unit_root_witness_checks_itself(changes, error, message):
    # equal angle bounds are ordered
    good = UnitRootWitness(
        interval=(Fraction(-1), Fraction(1)), multiplicity=2, angle_bounds=(Fraction(1), Fraction(1))
    )
    with pytest.raises(error, match=message):
        replace(good, **changes)


def test_alexander_rejects_an_unvalidated_matrix_with_det_4():
    # det(V - V^T) = 4: the matrix is refused when it is built, so no
    # alexander_poly call can see it
    with pytest.raises(NonSymplecticError) as exc:
        SeifertMatrix(entries=((0, 2), (0, 0)))
    assert str(exc.value) == "det(V - V^T) = 4, expected 1"


@pytest.mark.parametrize("v", [UNKNOT, TREFOIL, TORUS_2_5, TORUS_2_7], ids=lambda v: v.name)
def test_alexander_takes_one_determinant_per_genus(v, monkeypatch):
    # P(2) = det(V - V^T) = 1 is known from validation, so only
    # det(k*V - V^T) for k = 2, ..., g+1 is taken
    import knotcert.laurent as laurent_mod

    calls = []
    real = laurent_mod.det_int

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(laurent_mod, "det_int", counting)
    alexander_poly(v)
    assert len(calls) == v.genus


def test_alexander_fails_closed_on_a_non_integer_interpolant(monkeypatch):
    # at genus 2 the node k = 3 enters P's leading coefficient with weight
    # 9/10 and its value is det / 9, so a determinant off by 1 moves it by 1/10
    import knotcert.laurent as laurent_mod

    calls = []
    real = laurent_mod.det_int

    def off_by_one(m):
        calls.append(m)
        return real(m) + (len(calls) == 2)

    monkeypatch.setattr(laurent_mod, "det_int", off_by_one)
    with pytest.raises(InternalInconsistencyError, match="^interpolated P must have integer"):
        alexander_poly(TORUS_2_5)


def test_alexander_fails_closed_on_a_degree_above_the_genus(monkeypatch):
    # t^2 + t^-2 - 2 keeps reciprocity and Delta(1) = 1, so only the degree
    # check sees it on the genus-1 trefoil
    import knotcert.laurent as laurent_mod

    real = laurent_mod._expand_in_t

    def padded(p):
        coeffs = real(p)
        for k, c in ((2, 1), (-2, 1), (0, -2)):
            coeffs[k] = coeffs.get(k, 0) + c
        return coeffs

    monkeypatch.setattr(laurent_mod, "_expand_in_t", padded)
    with pytest.raises(InternalInconsistencyError, match="^Delta has degree 2 above the genus 1$"):
        alexander_poly(TREFOIL)


def test_yun_fails_closed_on_an_inexact_division(monkeypatch):
    # a "gcd" of z - 1 and its derivative that does not divide it
    import knotcert.laurent as laurent_mod

    monkeypatch.setattr(laurent_mod, "_pgcd", lambda a, b: [2])
    with pytest.raises(InternalInconsistencyError, match="^division is not exact"):
        laurent_mod._yun([-1, 1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: ZPoly([1.5, 1]),  # once read as z + 1, with a root at z = -1
        lambda: ZPoly([True, 1]),
        lambda: SymmetricLaurentPoly({1: 1, 0: -1.9, -1: 1}),  # once the trefoil's Delta
        lambda: SymmetricLaurentPoly({0.5: 1, -0.5: 1, 0: -1}),
        lambda: SymmetricLaurentPoly({True: 1, 0: 1, -1: 1}),
    ],
    ids=["float", "bool", "float-coefficient", "float-exponent", "bool-exponent"],
)
def test_polynomials_take_only_exact_integers(build):
    with pytest.raises(TypeError):
        build()


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


# --- root isolation ----------------------------------------------------------


def _squarefree_part(f):
    return _pdiv(f, _pgcd(f, _pderiv(f)))


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
    # the granny's P = (z - 1)^2 has the same one root, of multiplicity 2
    p = to_z_poly(alexander_poly(granny_knot()))
    assert p == ZPoly([1, -2, 1])
    (w2,) = isolate_unit_roots(p)
    assert (w2.interval, w2.multiplicity) == (w.interval, 2)


def test_isolate_figure_eight_no_roots():
    assert isolate_unit_roots(ZPoly([3, -1])) == []
    # a constant has no roots at all
    assert isolate_unit_roots(ZPoly([7])) == []


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
    p = to_z_poly(alexander_poly(block_sum(TORUS_2_5, granny_knot())))
    f = _squarefree_part(list(p.coeffs))
    ws = isolate_unit_roots(p)
    assert sorted(w.multiplicity for w in ws) == [1, 1, 2]
    for w in ws:
        assert sturm_count(f, w.interval[0], w.interval[1]) == 1


@pytest.mark.parametrize("bits", [0, 3, 32])
def test_isolate_multiplicities_of_constructed_roots(bits):
    # P = (z^2 + 1) * prod (b z - a)^m over distinct roots a/b in (-2, 2),
    # dyadic and not; z^2 + 1 has no root in [-2, 2].  Reading multiplicities
    # off the gcds g_i in place of r_i = g_i / g_(i+1) gets the triple root
    # 1/3 wrong: g_1 has a double root there and does not change sign
    roots = {
        Fraction(-5, 7): 3,
        Fraction(-1): 2,
        Fraction(1, 3): 3,
        Fraction(1, 2): 4,
        Fraction(3, 2): 1,
        Fraction(19, 10): 2,
    }
    p = [1, 0, 1]
    for r, m in roots.items():
        for _ in range(m):
            # p * (b z - a) for r = a/b
            p = [r.denominator * x - r.numerator * y for x, y in zip([0, *p], [*p, 0])]
    ws = isolate_unit_roots(ZPoly(p), refine_bits=bits)
    assert len(ws) == len(roots)
    for w, (r, m) in zip(ws, sorted(roots.items())):
        lo, hi = w.interval
        assert lo < r <= hi and hi - lo <= Fraction(1, 2**bits)
        assert w.multiplicity == m


def test_isolate_builds_one_sturm_chain(monkeypatch):
    # T(2,5)#granny: P = (z - 1)^2 (z^2 - z - 1) has roots of two multiplicities
    import knotcert.laurent as laurent_mod

    calls = []
    real = laurent_mod.sturm_chain

    def spy(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(laurent_mod, "sturm_chain", spy)
    p = to_z_poly(alexander_poly(block_sum(TORUS_2_5, granny_knot())))
    assert [w.multiplicity for w in isolate_unit_roots(p)] == [1, 2, 1]
    assert len(calls) == 1


def test_isolate_rejects_roots_at_endpoints():
    with pytest.raises(RootAtPlusMinusOneError):
        isolate_unit_roots(ZPoly([-2, 1]))  # root z = 2
    with pytest.raises(RootAtPlusMinusOneError):
        isolate_unit_roots(ZPoly([2, 1]))  # root z = -2
    with pytest.raises(ZeroPolynomialError):
        isolate_unit_roots(ZPoly([]))


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
    product = laurent_product(alexander_poly(v1).coeffs, alexander_poly(v2).coeffs)
    assert alexander_poly(block_sum(v1, v2)).coeffs == product


@given(seifert_matrices())
@settings(max_examples=40, deadline=None)
def test_alexander_mirror_invariant(v):
    assert alexander_poly(mirror(v)) == alexander_poly(v)


# --- beyond genus 8: many interpolation nodes, large determinants -----------


@pytest.mark.parametrize("k", [*range(1, 16), 30])
def test_alexander_torus_2_2k_plus_1_closed_form(k):
    # T(2,2k+1): Delta alternates +-1 on [-k, k]
    v = torus_knot(2, 2 * k + 1)
    expected = {e: (-1) ** (k - abs(e)) for e in range(-k, k + 1)}
    assert alexander_poly(v) == SymmetricLaurentPoly(expected)


@pytest.mark.parametrize("genus", [10, 20])
def test_alexander_congruence_invariant_on_twisted_block_sums(genus):
    rng = random.Random(genus)
    pieces = []
    while (room := genus - sum(p.genus for p in pieces)) > 0:
        seed = rng.choice([s for s in SEEDS if s.genus <= room])
        pieces.append(mirror(seed) if rng.random() < 0.5 else seed)
    v = functools.reduce(block_sum, pieces)
    product = laurent_product(*(alexander_poly(p).coeffs for p in pieces))
    twisted = congruent(v, random_unimodular(v.size, rng, steps=40))
    assert max(abs(x) for row in twisted.entries for x in row) > 1
    delta = alexander_poly(v)
    assert alexander_poly(twisted) == delta and delta.coeffs == product


# --- Sturm machinery vs floating oracle --------------------------------------


def test_sturm_count_halfopen_convention():
    # the oracle's own check: roots at either end, none, and a constant
    f = [-1, 1]  # z - 1
    assert sturm_count(f, Fraction(0), Fraction(1)) == 1  # root at right endpoint
    assert sturm_count(f, Fraction(1), Fraction(2)) == 0
    assert sturm_count([-2, 0, 1], Fraction(-2), Fraction(2)) == 2  # +-sqrt(2)
    assert sturm_count([3, -16, 16], Fraction(1, 4), Fraction(3, 4)) == 1  # 1/4 and 3/4
    assert sturm_count([5], Fraction(0), Fraction(1)) == 0


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
    value = ZPoly(coeffs).evaluate(x)
    assert _sign_at(coeffs, x) == (value > 0) - (value < 0)


def test_sign_at_rejects_inexact_points():
    with pytest.raises(TypeError):
        _sign_at([1, 1], 0.5)
    with pytest.raises(TypeError):
        _sign_at([1, 1], "1/2")


def _halves(f, ka, kb, d, steps):
    """Halve (ka/d, kb/d] ``steps`` times, checking each step against a Sturm count."""
    s_b = _sign_at(f, Fraction(kb, d))
    for _ in range(steps):
        a, b = Fraction(ka, d), Fraction(kb, d)
        mid = (a + b) / 2
        sturm_half = (mid, b) if sturm_count(f, mid, b) == 1 else (a, mid)
        ka, kb, d, s_b = _halve(f, ka, kb, d, s_b)
        assert (Fraction(ka, d), Fraction(kb, d)) == sturm_half
        assert s_b == _sign_at(f, sturm_half[1])
        assert sturm_count(f, *sturm_half) == 1
    return Fraction(ka, d), Fraction(kb, d)


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=9),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 16)),
    st.builds(Fraction, st.integers(1, 64), st.integers(1, 16)).map(lambda w: min(w, Fraction(4))),
)
@settings(max_examples=200, deadline=None)
def test_descartes_variations_agree_with_sturm_count(coeffs, lo, width):
    p = list(ZPoly(coeffs).coeffs)
    assume(len(p) > 1)
    f = _squarefree_part(p)
    hi = lo + width
    # distinct roots in the open interval (lo, hi); sturm_count counts (lo, hi]
    roots = sturm_count(f, lo, hi) - (_sign_at(f, hi) == 0)
    d = lo.denominator * hi.denominator
    variations = _descartes_variations(f, int(lo * d), int(hi * d), d)
    # Descartes' rule: an upper bound of the same parity, exact at 0 and 1
    assert variations >= roots and (variations - roots) % 2 == 0
    assert variations > 1 or variations == roots
    assert (_simple_roots(f, lo, hi) == 0) == (_simple_roots(p, lo, hi) == 0) == (roots == 0)


def _decimal_asin(x: Decimal) -> Decimal:
    """asin(x) for small x by its series, sum of C(2n, n) x^(2n+1) / (4^n (2n+1))."""
    total, power, n = Decimal(0), x, 0
    while power > Decimal(10) ** -70:
        total += power / (2 * n + 1)
        n += 1
        power *= x * x * (2 * n - 1) / (2 * n)
    return total


@pytest.mark.parametrize("a", [10**6, 10**8, 10**15])
def test_angle_bounds_enclose_an_angle_near_zero(a):
    # Delta = a^2 (t - 2 + 1/t) + 1 puts the root at z* = 2 - 1/a^2, so
    # phi* = 2 asin(sqrt(2 - z*)/2) = 2 asin(1/(2a)); from a = 10^8 on, z/2
    # rounds to 1 and a float acos gave the bounds [0, 2e-323]
    (w,) = isolate_unit_roots(to_z_poly(alexander_poly(validate([[a, 1], [0, a]]))))
    with localcontext() as ctx:
        ctx.prec = 80
        phi = 2 * _decimal_asin(Decimal(1) / (2 * a))
    lo, hi = w.angle_bounds
    assert lo <= Fraction(phi) <= hi
    assert hi - lo < Fraction(phi)  # and says something about it


def test_tan_half_angle_past_the_float_range():
    # z = -2 + 10^-700 gives u = sqrt((2 - z)/(2 + z)), about 2 * 10^350
    z = Fraction(-2) + Fraction(1, 10**700)
    assert _tan_half_angle(z, True) == math.inf
    assert _tan_half_angle(z, False) == sys.float_info.max


@given(
    st.lists(
        st.tuples(st.lists(st.integers(-4, 4), min_size=2, max_size=4), st.integers(1, 3)),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([0, 4, 32]),
)
@settings(max_examples=100, deadline=None)
def test_multiplicity_proof_accepts_the_true_multiplicity_only(parts, refine_bits):
    # P = f_1^m_1 ... f_k^m_k with square-free, pairwise coprime primitive f_i;
    # refine_bits 0 leaves wide intervals whose dyadic root can sit inside
    factors = [(_primitive(list(ZPoly(c).coeffs)), m) for c, m in parts]
    assume(all(len(f) > 1 for f, _ in factors))
    radical = functools.reduce(_pmul, (f for f, _ in factors))
    assume(len(_pgcd(radical, _pderiv(radical))) == 1)
    p = functools.reduce(_pmul, (f for f, m in factors for _ in range(m)))
    assume(_sign_at(p, 2) != 0 and _sign_at(p, -2) != 0)
    for w in isolate_unit_roots(ZPoly(p), refine_bits=refine_bits):
        lo, hi = w.interval
        # the one f_i with a root in (lo, hi]
        ((f, m),) = [(f, m) for f, m in factors if _sign_at(f, lo) * _sign_at(f, hi) <= 0]
        assert w.multiplicity == m
        assert _multiplicity_proved(p, f, m, lo, hi)
        for wrong in (m - 2, m - 1, m + 1, m + 2):
            assert not _multiplicity_proved(p, f, wrong, lo, hi)
        for g, _ in factors:
            if g != f:
                assert not _multiplicity_proved(p, g, m, lo, hi)


def test_multiplicity_proof_rejects_a_hint_with_a_double_root_at_hi():
    # P = (z - 1)^2 on (0, 1]: the hint z - 1 proves multiplicity 2, while
    # the hint (z - 1)^2, vanishing with its derivative at hi, proves nothing
    p, lo, hi = [1, -2, 1], Fraction(0), Fraction(1)
    assert _multiplicity_proved(p, [-1, 1], 2, lo, hi)
    assert not _multiplicity_proved(p, p, 1, lo, hi)
    # the first step, one simple root of the hint in (lo, hi]: with P = f and
    # m = 1, f = 16z^2 - 16z + 3 has two roots there (1/4, 3/4) and z - 10 none
    for f in ([3, -16, 16], [-10, 1]):
        assert not _multiplicity_proved(f, f, 1, lo, hi)


def test_multiplicity_proof_rejects_a_multiplicity_below_one():
    # only the argument guard refuses m = 0: the hint 2z - 1 has one simple
    # root in (0, 1], f^0 divides P, and P = z - 10 has no root there
    assert not _multiplicity_proved([-10, 1], [-1, 2], 0, Fraction(0), Fraction(1))


def test_unproved_claim_returns_the_first_claim_it_cannot_prove():
    # P = z - 1 (the trefoil): its one root z = 1 has multiplicity 1
    p = ZPoly([-1, 1])
    (w,) = isolate_unit_roots(p)
    lo, hi = w.interval
    assert unproved_claim(p, [w]) is None
    assert unproved_claim(p, []) == "no proof that P has no root in the plateau arc z in (-2, 2)"
    assert unproved_claim(p, [replace(w, multiplicity=2)]) == (
        f"no proof that P has one root of multiplicity 2 in z in ({lo}, {hi}]"
    )


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_halve_halfopen_convention():
    f = [-1, 1]  # z - 1
    # root at the midpoint stays in the left half (a, mid], and f(hi) = 0
    assert _halve(f, 0, 2, 1, 1) == (0, 2, 2, 0)
    # root at b: (mid, b]
    assert _halve(f, 0, 1, 1, 0) == (1, 2, 2, 0)
    # sign change inside (mid, b]
    assert _halve(f, 0, 3, 2, 1) == (3, 6, 4, 1)
    # no sign change over (mid, b]: the root is in (a, mid]
    assert _halve(f, 1, 8, 2, 1) == (2, 9, 4, 1)


def test_halve_picks_the_half_sturm_picks():
    rng = random.Random(20261017)
    checked = 0
    while checked < 60:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
        p = ZPoly(coeffs)
        if p.degree < 1:
            continue
        f = _squarefree_part(list(p.coeffs))
        for ka, kb, d in _isolate_squarefree(sturm_chain(f), -4, 4, 1):
            _halves(f, ka, kb, d, 12)
        checked += 1


def test_halve_from_a_non_dyadic_start():
    # (-7/3, 7/3] over d = 3: midpoints k/(3*2^m) are never dyadic
    checked = 0
    for f in ([-1, 1], [1, -3], [-2, 0, 1], [1, 1, -5, 0, 3]):
        for ka, kb in ((-7, 7), (-7, 0), (0, 7)):
            if sturm_count(f, Fraction(ka, 3), Fraction(kb, 3)) == 1:
                lo, hi = _halves(f, ka, kb, 3, 40)
                assert hi - lo == Fraction(kb - ka, 3 * 2**40)
                checked += 1
    assert checked >= 6


def test_halve_keeps_a_root_at_hi_once_a_midpoint_hits_it():
    # 8z - 3: from (-2, 2] the midpoints are 0, 1, 1/2, 1/4, then the root 3/8
    f = [-3, 8]
    assert _halves(f, -2, 2, 1, 4) == (Fraction(1, 4), Fraction(1, 2))
    assert _halves(f, -2, 2, 1, 5) == (Fraction(1, 4), Fraction(3, 8))
    for steps in (6, 9, 30):
        lo, hi = _halves(f, -2, 2, 1, steps)
        assert hi == Fraction(3, 8) and hi - lo == Fraction(4, 2**steps)


def test_isolate_with_zero_refine_bits():
    # P = z - 1 for the trefoil: (-2, 2] -> (0, 2] -> (0, 1], width 1 = 2^-0
    (w,) = isolate_unit_roots(to_z_poly(alexander_poly(TREFOIL)), refine_bits=0)
    assert w.interval == (0, 1)


def test_isolate_keeps_intervals_already_narrower_than_the_width():
    # roots 1 and 1025/1024 are separated only at width 2^-11, so every
    # refine_bits up to 11 leaves the bisection's intervals as they are
    p = ZPoly([1025, -2049, 1024])  # (z - 1)(1024z - 1025)
    expected = [(Fraction(2047, 2048), 1), (Fraction(2049, 2048), Fraction(1025, 1024))]
    for bits in (0, 1, 5, 11):
        assert [w.interval for w in isolate_unit_roots(p, refine_bits=bits)] == expected
    assert [w.interval for w in isolate_unit_roots(p, refine_bits=12)] == [
        (Fraction(4095, 4096), 1),
        (Fraction(4099, 4096), Fraction(1025, 1024)),
    ]


@pytest.mark.parametrize("bits", [0, 1, 8, 32, 320])
def test_dyadic_root_of_5_2_at_right_endpoint(bits):
    # P(z) = 2z - 3 for 5_2: the root z = 3/2 is dyadic, so bisection lands on
    # it and the half-open convention keeps it at hi
    (w,) = isolate_unit_roots(to_z_poly(alexander_poly(KNOT_5_2)), refine_bits=bits)
    lo, hi = w.interval
    assert hi == Fraction(3, 2)
    assert lo < hi and hi - lo <= Fraction(1, 2**bits)


def _halving_agrees(p: ZPoly, bits: int) -> list[UnitRootWitness]:
    witnesses = isolate_unit_roots(p, refine_bits=bits)
    assert [(w.interval, w.multiplicity) for w in witnesses] == isolate_by_halving(p, bits)
    return witnesses


@given(
    st.lists(st.integers(-30, 30), min_size=2, max_size=8),
    st.lists(st.integers(-6, 6), min_size=2, max_size=3),
    st.integers(0, 3),
    st.sampled_from([0, 1, 32, 320, 1000]),
)
@settings(max_examples=150, deadline=None)
def test_refinement_lands_on_the_cell_halving_reaches(base, factor, power, bits):
    # power 0 leaves a random, almost always square-free polynomial; a power
    # above 1 repeats the factor's roots
    coeffs = base
    for _ in range(power):
        coeffs = _pmul(coeffs, factor)
    p = ZPoly(coeffs)
    assume(p.degree >= 1 and _sign_at(p.coeffs, 2) != 0 and _sign_at(p.coeffs, -2) != 0)
    _halving_agrees(p, bits)


@pytest.mark.parametrize("bits", [0, 1, 32, 320, 1000])
def test_refinement_matches_halving_on_repeated_roots(bits):
    # (z - 1)^2 (z + 1)^3 (2z - 1) (z^2 - 2): roots -sqrt(2), -1, 1/2, 1 and
    # sqrt(2), with a triple and a double root and a dyadic simple one
    p = ZPoly(_pmul(_pmul(_pmul([1, -2, 1], [1, 3, 3, 1]), [-1, 2]), [-2, 0, 1]))
    witnesses = _halving_agrees(p, bits)
    assert [w.multiplicity for w in witnesses] == [1, 3, 1, 2, 1]


@pytest.mark.parametrize("bits", [0, 8, 32])
@pytest.mark.parametrize("sign", [1, -1])
def test_refinement_near_plus_minus_two_halves_into_the_open_interval(sign, bits):
    # P = a^2 z + sign (1 - 2a^2) has its root sign (2 - 1/a^2), about 2^-40
    # inside +-2, so the cell of width 2^-bits still ends at +-2 and the
    # halving after refinement runs; 2 is a grid point, so the cell it ends
    # with is no wider than the root's distance to +-2
    a = 10**6
    p = ZPoly([sign * (1 - 2 * a * a), a * a])
    (w,) = _halving_agrees(p, bits)
    lo, hi = w.interval
    assert -2 < lo < sign * (2 - Fraction(1, a * a)) <= hi < 2
    assert hi - lo <= Fraction(1, a * a) < Fraction(1, 2**bits)


def test_refinement_takes_a_twentieth_of_the_halving_evaluations(monkeypatch):
    # evaluations are counted, not timed: halving takes one per bit and root,
    # quadratic refinement about log2(bits) steps of two
    import knotcert.laurent as laurent_mod

    calls = []
    value_int = laurent_mod._value_int

    def counting(a, k, d):
        calls.append(k)
        return value_int(a, k, d)

    monkeypatch.setattr(laurent_mod, "_value_int", counting)
    p = to_z_poly(alexander_poly(torus_knot(2, 17)))  # eight simple roots
    quadratic = {}
    for bits in (1000, 3200):
        calls.clear()
        assert len(isolate_unit_roots(p, refine_bits=bits)) == 8
        quadratic[bits] = len(calls)
    calls.clear()
    _halving_agrees(p, 1000)
    halving = len(calls) - quadratic[1000]
    assert 20 * quadratic[1000] <= halving
    # the halving loop's count grows 3.2-fold from 1000 to 3200 bits
    assert quadratic[3200] < 1.25 * quadratic[1000]


def test_isolation_builds_no_fraction_per_halving(monkeypatch):
    # chains and gcds are integer pseudo-remainders, so the only Fractions are
    # a witness's two interval ends and two angle bounds, however many
    # halvings refine_bits costs
    import knotcert.laurent as laurent_mod

    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(laurent_mod, "Fraction", CountingFraction)
    p = to_z_poly(alexander_poly(block_sum(TORUS_2_5, granny_knot())))
    for bits in (32, 320):
        built.clear()
        assert len(isolate_unit_roots(p, refine_bits=bits)) == 3
        assert len(built) == 4 * 3
    for entry in random_corpus(60, seed=5):
        p = to_z_poly(alexander_poly(entry.seifert))
        built.clear()
        witnesses = isolate_unit_roots(p)
        assert len(built) == 4 * len(witnesses)


def test_roots_refine_320_matches_golden(capsys):
    # T(2,17) and T(2,7)#T(2,7); the golden file was made by refining with
    # a Sturm count over (mid, b], and refining by the sign of the square-free
    # factor must pick the same half at every one of the 320 steps
    assert main(["roots", "--input", str(DATA / "roots_golden.json"), "--refine-bits", "320"]) == 0
    assert capsys.readouterr().out == (DATA / "roots_golden_320.txt").read_text()


def _lowbits_corpus() -> list[CorpusEntry]:
    granny = granny_knot()
    named = {
        "granny": granny,
        "square": square_knot(),
        "T(2,5)#granny": block_sum(TORUS_2_5, granny),
        "T(2,7)#T(2,7)": block_sum(TORUS_2_7, TORUS_2_7),
        "T(2,5)#T(2,5)#trefoil": block_sum(block_sum(TORUS_2_5, TORUS_2_5), TREFOIL),
        "granny#trefoil": block_sum(granny, TREFOIL),  # (z - 1)^3
        "granny#mirror(granny)": block_sum(granny, mirror(granny)),  # (z - 1)^4
    }
    return [CorpusEntry(name=k, seifert=v) for k, v in named.items()] + random_corpus(60, seed=5)


def test_roots_low_refine_bits_match_golden(tmp_path, capsys):
    # at 0 and 2 bits root separation, not refine_bits, sets most intervals
    # (fixture_000 gets (23/16, 3/2] at 0 bits); the golden is the stdout of
    # --refine-bits 0 followed by that of --refine-bits 2
    corpus = tmp_path / "lowbits.json"
    write_corpus(_lowbits_corpus(), corpus, "json")
    out = []
    for bits in ("0", "2"):
        assert main(["roots", "--input", str(corpus), "--refine-bits", bits]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (DATA / "roots_lowbits_golden.txt").read_text(encoding="utf-8")
