"""Torus knots T(p,q) against closed forms that share no code with the package.

Two oracles, both standard library only:

* the Alexander polynomial (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), by
  integer long division, centred so that it is symmetric;
* Litherland's signature (Signatures of iterated torus knots, 1979): at
  w = e^(2 pi i x), off the jumps, sigma = -(N_in - N_out), where N_in counts
  the pairs 1 <= i < p, 1 <= j < q with x < i/p + j/q < x + 1 and N_out the
  rest.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import pytest

from knotcert.certify import certify
from knotcert.fixtures import TORUS_2_5, TORUS_2_7, TREFOIL, torus_knot

# genus (p-1)(q-1)/2 <= 6; plateau inertia makes higher genus slow
TORUS_PQ = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (4, 5)]


@functools.cache
def _certificate(p: int, q: int):
    return certify(torus_knot(p, q))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for a monic b that divides a, ascending coefficients."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + len(b) - 1]
        for j, y in enumerate(b):
            a[k + j] -= q[k] * y
    assert not any(a), "b does not divide a"
    return q


def _t_power_minus_one(n: int) -> list[int]:
    return [-1] + [0] * (n - 1) + [1]


def torus_alexander(p: int, q: int) -> dict[int, int]:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) as {exponent: coefficient}, centred at 0."""
    num = _poly_mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    quotient = _poly_div(num, _poly_mul(_t_power_minus_one(p), _t_power_minus_one(q)))
    assert sum(quotient) == 1  # already normalised: Delta(1) = 1
    g = (len(quotient) - 1) // 2
    return {k - g: c for k, c in enumerate(quotient) if c}


def litherland_signature(p: int, q: int, x: float) -> int:
    """Signature of T(p,q) at w = e^(2 pi i x), for x off the jumps."""
    inside = sum(
        1 for i in range(1, p) for j in range(1, q) if x < Fraction(i, p) + Fraction(j, q) < x + 1
    )
    return -(inside - ((p - 1) * (q - 1) - inside))


@pytest.mark.parametrize(
    "fixture, rows",
    [
        (TREFOIL, [[-1, 1], [0, -1]]),
        (TORUS_2_5, [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]),
        (
            TORUS_2_7,
            [
                [-1, 1, 0, 0, 0, 0],
                [0, -1, 1, 0, 0, 0],
                [0, 0, -1, 1, 0, 0],
                [0, 0, 0, -1, 1, 0],
                [0, 0, 0, 0, -1, 1],
                [0, 0, 0, 0, 0, -1],
            ],
        ),
    ],
)
def test_torus_fixtures_are_the_two_strand_matrices(fixture, rows):
    assert [list(r) for r in fixture.entries] == rows
    assert fixture == torus_knot(2, len(rows) + 1, name=fixture.name)


def test_torus_knot_names_and_genus():
    assert (TREFOIL.name, TORUS_2_5.name, TORUS_2_7.name) == ("trefoil", "T(2,5)", "T(2,7)")
    v = torus_knot(4, 5)
    assert v.name == "T(4,5)" and v.genus == 6
    assert torus_knot(1, 5).size == 0 and torus_knot(3, 4, name="x").name == "x"


@pytest.mark.parametrize("p, q", [(2, 4), (3, 6), (0, 3), (-2, 3)])
def test_torus_knot_rejects_links_and_nonpositive_pairs(p, q):
    with pytest.raises(ValueError, match="coprime"):
        torus_knot(p, q)


@pytest.mark.parametrize("p, q", TORUS_PQ)
def test_torus_alexander_is_the_cyclotomic_quotient(p, q):
    cert = _certificate(p, q)
    assert dict(cert.alexander.coeffs) == torus_alexander(p, q)
    # every root of Delta is on the unit circle and simple: P has g simple roots
    assert cert.simple_root_count == cert.unit_root_count == cert.genus
    assert cert.verdict == "CERTIFIED"


@pytest.mark.parametrize("p, q", TORUS_PQ)
def test_torus_plateaus_match_litherland(p, q):
    profile = _certificate(p, q).profile
    expected = [
        litherland_signature(p, q, point.angle / (2 * math.pi)) for point in profile.arc_samples
    ]
    assert list(profile.plateau_values) == expected
    assert profile.value_at_minus_one == litherland_signature(p, q, 0.5)


def test_torus_4_5_has_an_upward_jump():
    # the signature of T(4,5) is not monotone in the angle: its last jump is +2
    assert _certificate(4, 5).profile.plateau_values == (0, -2, -4, -6, -8, -10, -8)
