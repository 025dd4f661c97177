"""Exact Laurent-polynomial arithmetic and unit-circle root isolation.

Conventions used throughout:

* Dense integer polynomials are lists of ``int`` coefficients in ascending
  order with no trailing zeros; ``[]`` is the zero polynomial.
* The Alexander polynomial of a Seifert matrix V of size 2g is computed as
  Delta(t) = t^(-g) * det(t*V - V^T), which avoids half-integer powers of t
  and lands in the symmetric Laurent representative with Delta(1) = 1.
* A reciprocal Laurent polynomial Delta determines a unique integer
  polynomial P with Delta(t) = P(t + 1/t), via the basis polynomials
  T_k(z) satisfying t^k + t^(-k) = T_k(t + 1/t) (T_0 = 2, T_1 = z,
  T_(k+1) = z*T_k - T_(k-1)).  Roots of Delta on the unit circle t = e^(i phi)
  correspond to real roots z = 2 cos(phi) of P in (-2, 2), with equal
  multiplicity.
* Root isolation is exact and integer-only.  Every sign is read off by
  integer Horner on the numerator of a rational point k/d (``_sign_at``).
  Sturm sequences count the roots in a dyadic bisection; an interval that
  holds one root of a square-free factor is then refined by the sign of
  that factor alone.  Isolating intervals are half-open (lo, hi], so a
  dyadic root hit by bisection sits at the right endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import (
    NormalizationError,
    NotReciprocalError,
    RootAtPlusMinusOneError,
    ZeroPolynomialError,
)
from .seifert import SeifertMatrix

IntPoly = list[int]

# ---------------------------------------------------------------------------
# dense integer polynomial helpers


def _trim(c: IntPoly) -> IntPoly:
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a: IntPoly, b: IntPoly) -> IntPoly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _pneg(a: IntPoly) -> IntPoly:
    return [-x for x in a]


def _psub(a: IntPoly, b: IntPoly) -> IntPoly:
    return _padd(a, _pneg(b))


def _pmul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _pscale(a: IntPoly, s: int) -> IntPoly:
    if s == 0:
        return []
    return [s * x for x in a]


def _pdivexact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Quotient a / b when the division is exact in Z[x]; asserts exactness."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1]
        if c == 0:
            continue
        qk, r = divmod(c, lead)
        assert r == 0, "division is not exact over the integers"
        q[k] = qk
        for j, y in enumerate(b):
            rem[k + j] -= qk * y
    assert all(x == 0 for x in rem), "nonzero remainder in exact division"
    return _trim(q)


def _pderiv(a: IntPoly) -> IntPoly:
    return _trim([i * a[i] for i in range(1, len(a))])


def _peval(a: Sequence[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _sign_at(a: Sequence[int], x: int | Fraction) -> int:
    """Sign of a(x) at a rational point, in integers only.

    With x = k/d and n = deg a, d^n * a(x) = sum of c_i k^i d^(n-i), which
    Horner builds as acc*k + c*d^(n-i); d > 0, so it has the sign of a(x).
    """
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact sign needs an int or Fraction point, not {type(x).__name__}")
    k, d = x.numerator, x.denominator
    acc = 0
    d_pow = 1
    for c in reversed(a):
        acc = acc * k + c * d_pow
        d_pow *= d
    return (acc > 0) - (acc < 0)


def _content(a: IntPoly) -> int:
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g


def _primitive(a: IntPoly, positive_lead: bool = True) -> IntPoly:
    """Divide out the integer content; optionally force a positive leading coefficient."""
    if not a:
        return []
    c = _content(a)
    out = [x // c for x in a]
    if positive_lead and out[-1] < 0:
        out = [-x for x in out]
    return out


def _frem_primitive(a: IntPoly, b: IntPoly) -> IntPoly:
    """Remainder of a by b over Q, rescaled by a positive rational to a
    primitive integer polynomial.  Positive rescaling preserves every sign,
    which is what Sturm sequences need."""
    rem = [Fraction(x) for x in a]
    lead = Fraction(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1]
        if c == 0:
            continue
        qk = c / lead
        for j, y in enumerate(b):
            rem[k + j] -= qk * y
    while rem and rem[-1] == 0:
        rem.pop()
    if not rem:
        return []
    denom_lcm = 1
    for x in rem:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in rem]
    c = _content(ints)
    return [x // c for x in ints]


def _pgcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x] with positive leading coefficient."""
    a = _primitive(a)
    b = _primitive(b)
    if not a:
        return b
    if not b:
        return a
    while b:
        a, b = b, _frem_primitive(a, b)
    return _primitive(a)


# ---------------------------------------------------------------------------
# Bareiss determinant over Z[t]


def det_poly_matrix(m: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Exact determinant of a matrix of integer polynomials.

    Fraction-free (Bareiss) elimination: every intermediate division is by
    the previous pivot and is exact in Z[t], so coefficients never leave the
    integers.
    """
    n = len(m)
    if n == 0:
        return [1]
    work = [[list(p) for p in row] for row in m]
    sign = 1
    prev: IntPoly = [1]
    for k in range(n - 1):
        if not work[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if work[i][k]), None)
            if pivot_row is None:
                return []
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _psub(
                    _pmul(work[k][k], work[i][j]), _pmul(work[i][k], work[k][j])
                )
                work[i][j] = _pdivexact(num, prev)
            work[i][k] = []
        prev = work[k][k]
    return _pscale(work[n - 1][n - 1], sign)


# ---------------------------------------------------------------------------
# public polynomial types


class SymmetricLaurentPoly:
    """Integer Laurent polynomial with p(t) = p(1/t) and p(1) = 1.

    This is the normalized home of the Alexander polynomial: fixing the
    symmetric representative with value 1 at t = 1 makes equality testable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int]):
        cleaned = {k: int(v) for k, v in coeffs.items() if v != 0}
        for k, v in cleaned.items():
            if cleaned.get(-k, 0) != v:
                raise NotReciprocalError(
                    f"coefficient at t^{k} is {v} but at t^{-k} is {cleaned.get(-k, 0)}"
                )
        value_at_one = sum(cleaned.values())
        if value_at_one != 1:
            raise NormalizationError(f"p(1) = {value_at_one}, expected 1")
        self.coeffs = MappingProxyType(cleaned)

    def coefficient(self, k: int) -> int:
        return self.coeffs.get(k, 0)

    @property
    def max_exponent(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def evaluate(self, t: Fraction | int) -> Fraction:
        t = Fraction(t)
        if t == 0:
            raise ZeroDivisionError("Laurent polynomial undefined at t = 0")
        total = Fraction(0)
        for k, c in self.coeffs.items():
            total += c * t**k
        return total

    def __mul__(self, other: "SymmetricLaurentPoly") -> "SymmetricLaurentPoly":
        out: dict[int, int] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
        return SymmetricLaurentPoly(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricLaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"SymmetricLaurentPoly({dict(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                power = "t" if k == 1 else f"t^{k}"
                term = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


class ZPoly:
    """Integer polynomial in the variable z = t + 1/t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = list(int(x) for x in coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, z: Fraction | int) -> Fraction:
        return _peval(self.coeffs, Fraction(z))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ZPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                power = "z" if k == 1 else f"z^{k}"
                term = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


@dataclass(frozen=True)
class UnitRootWitness:
    """Exact isolating data for one unit-circle root pair e^(+-i phi).

    ``interval`` is a half-open dyadic-rational interval (lo, hi] in
    z = 2 cos(phi) containing exactly one root of the square-free part of P;
    ``angle_bounds`` is a rational enclosure of phi = arccos(z*/2), derived
    for reporting only (decisions are made in z).
    """

    interval: tuple[Fraction, Fraction]
    multiplicity: int
    angle_bounds: tuple[Fraction, Fraction]

    @property
    def z_mid(self) -> Fraction:
        return (self.interval[0] + self.interval[1]) / 2

    @property
    def angle_mid(self) -> Fraction:
        return (self.angle_bounds[0] + self.angle_bounds[1]) / 2

    @property
    def is_simple(self) -> bool:
        return self.multiplicity == 1


# ---------------------------------------------------------------------------
# Alexander polynomial


def alexander_poly(v: SeifertMatrix) -> SymmetricLaurentPoly:
    """Alexander polynomial Delta(t) = t^(-g) det(t*V - V^T), with Delta(1) = 1.

    The determinant is expanded exactly over Z[t]; the t^(-g) shift recenters
    the support on [-g, g] and reciprocity then holds identically.
    """
    n = v.size
    g = v.genus
    m = [
        [[-v.entries[j][i], v.entries[i][j]] for j in range(n)]
        for i in range(n)
    ]
    det = det_poly_matrix([[_trim(p) for p in row] for row in m])
    coeffs = {k - g: c for k, c in enumerate(det)}
    value_at_one = sum(coeffs.values())
    if value_at_one == -1:
        coeffs = {k: -c for k, c in coeffs.items()}
    elif value_at_one != 1:
        raise NormalizationError(
            f"Delta(1) = {value_at_one}; the matrix cannot be a valid Seifert matrix"
        )
    poly = SymmetricLaurentPoly(coeffs)
    assert poly.max_exponent <= g
    return poly


def to_z_poly(delta: SymmetricLaurentPoly) -> ZPoly:
    """Rewrite a reciprocal Laurent polynomial as P with Delta(t) = P(t + 1/t).

    Uses the recursion T_(k+1) = z*T_k - T_(k-1) for t^k + t^(-k); the result
    is re-expanded and compared with Delta coefficient by coefficient, so a
    returned value is certified exact.
    """
    for k, c in delta.coeffs.items():
        if delta.coeffs.get(-k, 0) != c:
            raise NotReciprocalError(f"asymmetric coefficient at t^{k}")
    g = delta.max_exponent
    t_prev: IntPoly = [2]
    t_cur: IntPoly = [0, 1]
    p: IntPoly = [delta.coefficient(0)]
    for k in range(1, g + 1):
        c = delta.coefficient(k)
        if c:
            p = _padd(p, _pscale(t_cur, c))
        if k < g:
            t_prev, t_cur = t_cur, _psub(_pmul([0, 1], t_cur), t_prev)
    result = ZPoly(p)
    expanded = _expand_in_t(result)
    if expanded != dict(delta.coeffs):
        raise NotReciprocalError("round-trip expansion failed to reproduce the input")
    return result


def _expand_in_t(p: ZPoly) -> dict[int, int]:
    """Expand P(t + 1/t) as a Laurent polynomial in t (Horner over Laurent dicts)."""
    acc: dict[int, int] = {}
    for c in reversed(p.coeffs):
        nxt: dict[int, int] = {}
        for k, a in acc.items():
            for dk in (1, -1):
                nxt[k + dk] = nxt.get(k + dk, 0) + a
        nxt[0] = nxt.get(0, 0) + c
        acc = {k: v for k, v in nxt.items() if v != 0}
    return acc


# ---------------------------------------------------------------------------
# square-free decomposition (Yun)


def squarefree_decompose(p: ZPoly) -> list[tuple[ZPoly, int]]:
    """Yun's square-free decomposition over the rationals.

    Returns primitive integer factors with positive leading coefficient;
    the product of factor^multiplicity equals P up to a rational unit.
    Constant input decomposes into no factors.
    """
    if p.is_zero():
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    f = _primitive(list(p.coeffs))
    if len(f) <= 1:
        return []
    fp = _pderiv(f)
    g = _pgcd(f, fp)
    c = _pdivexact(f, g)
    d = _psub(_pdivexact(fp, g), _pderiv(c))
    out: list[tuple[ZPoly, int]] = []
    i = 1
    while len(c) > 1:
        h = _pgcd(c, d)
        if len(h) > 1:
            out.append((ZPoly(h), i))
        c_next = _pdivexact(c, h)
        d = _psub(_pdivexact(d, h), _pderiv(c_next))
        c = c_next
        i += 1
    return out


# ---------------------------------------------------------------------------
# Sturm sequences and isolation


def sturm_chain(f: IntPoly) -> list[IntPoly]:
    """Sturm chain of a square-free integer polynomial.

    Each remainder is rescaled by a positive rational to a primitive integer
    polynomial, which preserves all sign information.
    """
    chain = [list(f), _pderiv(f)]
    while len(chain[-1]) > 1:
        r = _frem_primitive(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_pneg(r))
    return chain


def _variations(chain: Sequence[IntPoly], x: int | Fraction) -> int:
    """Sign variations of a Sturm chain at x, zeros skipped."""
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: Sequence[IntPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of chain[0] in the half-open interval (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


def _isolate_squarefree(chain: Sequence[IntPoly], lo: Fraction, hi: Fraction):
    """Bisect (lo, hi] into half-open dyadic intervals with one root each.

    Each stack entry carries the variation counts at its endpoints, so every
    bisection point is evaluated once although two children share it.
    """
    stack = [(lo, _variations(chain, lo), hi, _variations(chain, hi))]
    out = []
    while stack:
        a, v_a, b, v_b = stack.pop()
        cnt = v_a - v_b
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        v_mid = _variations(chain, mid)
        stack.append((a, v_a, mid, v_mid))
        stack.append((mid, v_mid, b, v_b))
    return out


def _refine_once(chain, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Halve (a, b], which holds exactly one root of the square-free chain[0].

    A simple root changes the sign of chain[0], so the signs at mid and b
    pick the half: a root at mid stays in (a, mid], and f(b) = 0 or a sign
    change over (mid, b] means the root is there.
    """
    f = chain[0]
    mid = (a + b) / 2
    s_mid = _sign_at(f, mid)
    if s_mid == 0:
        return a, mid
    if _sign_at(f, b) != s_mid:
        return mid, b
    return a, mid


def _angle_bounds(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    # phi = arccos(z/2) is decreasing in z; nudge the float evaluations
    # outward a few ulps so the rational bounds really enclose phi.
    def down(x: float) -> float:
        for _ in range(4):
            x = math.nextafter(x, -math.inf)
        return max(x, 0.0)

    def up(x: float) -> float:
        for _ in range(4):
            x = math.nextafter(x, math.inf)
        return x

    phi_lo = down(math.acos(max(-1.0, min(1.0, float(hi) / 2.0))))
    phi_hi = up(math.acos(max(-1.0, min(1.0, float(lo) / 2.0))))
    return Fraction(phi_lo), Fraction(phi_hi)


def isolate_unit_roots(p: ZPoly, refine_bits: int = 32) -> list[UnitRootWitness]:
    """Isolate all roots of P in the open interval (-2, 2), with multiplicities.

    Each square-free factor from Yun's decomposition is isolated with its own
    Sturm chain; intervals are then refined until (a) each contains exactly
    one root of the full square-free part, (b) they are pairwise disjoint
    with positive gaps, (c) they lie strictly inside (-2, 2), and (d) each is
    no wider than 2^-refine_bits.  Witnesses are sorted by z ascending.
    """
    if p.is_zero():
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if p.evaluate(2) == 0 or p.evaluate(-2) == 0:
        raise RootAtPlusMinusOneError(
            "P vanishes at z = +-2 (t = +-1); not a knot Alexander polynomial"
        )
    factors = squarefree_decompose(p)
    if not factors:
        return []
    radical: IntPoly = [1]
    for f, _ in factors:
        radical = _pmul(radical, list(f.coeffs))
    radical_chain = sturm_chain(_primitive(radical))

    lo2, hi2 = Fraction(-2), Fraction(2)
    pending: list[list] = []  # [lo, hi, multiplicity, chain]
    for f, mult in factors:
        chain = sturm_chain(list(f.coeffs))
        for a, b in _isolate_squarefree(chain, lo2, hi2):
            # shrink until no other factor's root shares the interval
            while sturm_count(radical_chain, a, b) > 1:
                a, b = _refine_once(chain, a, b)
            pending.append([a, b, mult, chain])

    # pairwise disjoint with positive gaps (sorted by root order once disjoint)
    while True:
        pending.sort(key=lambda w: (w[0], w[1]))
        clean = True
        for w1, w2 in zip(pending, pending[1:]):
            if w1[1] >= w2[0]:
                w1[0], w1[1] = _refine_once(w1[3], w1[0], w1[1])
                w2[0], w2[1] = _refine_once(w2[3], w2[0], w2[1])
                clean = False
        if clean:
            break

    width = Fraction(1, 2**refine_bits)
    out = []
    for a, b, mult, chain in pending:
        while b - a > width or a <= -2 or b >= 2:
            a, b = _refine_once(chain, a, b)
        out.append(
            UnitRootWitness(
                interval=(a, b), multiplicity=mult, angle_bounds=_angle_bounds(a, b)
            )
        )
    out.sort(key=lambda w: w.interval)
    return out


def has_simple_unit_root(
    witnesses: Sequence[UnitRootWitness],
) -> tuple[bool, list[UnitRootWitness]]:
    """Whether any isolated unit root is simple, plus the simple witnesses."""
    simple = [w for w in witnesses if w.multiplicity == 1]
    return bool(simple), simple
