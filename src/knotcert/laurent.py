"""Exact Laurent-polynomial arithmetic and unit-circle root isolation.

Conventions used throughout:

* Dense integer polynomials are lists of ``int`` coefficients in ascending
  order with no trailing zeros; ``[]`` is the zero polynomial.
* The Alexander polynomial of a Seifert matrix V of size 2g is
  Delta(t) = t^(-g) * det(t*V - V^T), which avoids half-integer powers of t
  and lands in the symmetric Laurent representative with Delta(1) = 1.  Its
  P (below) is interpolated exactly from P(2) = det(V - V^T) = 1, which
  ``SeifertMatrix`` checked when it was built, and g integer determinants
  by ``seifert.det_int``, the package's one determinant routine.
* A reciprocal Laurent polynomial Delta determines a unique integer
  polynomial P with Delta(t) = P(t + 1/t), since (t + 1/t)^k has top term
  t^k; ``to_z_poly`` peels it off from the top.  Roots of Delta on the unit
  circle t = e^(i phi) correspond to real roots z = 2 cos(phi) of P in
  (-2, 2), with equal multiplicity.
* Root isolation is exact and integer-only.  An interval is carried as two
  integer numerators over one positive denominator, (ka/d, kb/d]; halving
  it doubles ka, kb and d and looks only at the midpoint (ka+kb)/(2d).
  Every sign is read off by integer Horner at a point k/d (``_value_int``,
  ``_sign_int``).  One Sturm chain, of the square-free part P / gcd(P, P'),
  counts the roots in a bisection; multiplicities come from the chain of
  gcds with the derivative.  Chains and gcds both read one remainder
  sequence (``_remainders``) of integer pseudo-remainders (``_prem``).
  Close intervals are separated by halving, carrying the sign at the right
  end (``_halve``).  An interval that holds one root of a square-free
  polynomial is then refined on that polynomial alone by quadratic interval
  refinement (``_refine``): secant steps, each proved by exact signs, that
  land on the cell halving would reach.  A ``Fraction`` is built only for a
  finished ``UnitRootWitness``.
  Isolating intervals are half-open (lo, hi], so a dyadic root hit by
  bisection sits at the right endpoint.
* ``unproved_claim`` proves the isolation without the Sturm path: by
  Descartes' rule of signs no plateau arc (``arc_z_ranges``) holds a root,
  so a root that isolation lost cannot pass unnoticed, and by the same rule
  and exact division each witness holds one root of its multiplicity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    InternalInconsistencyError,
    NormalizationError,
    NotReciprocalError,
    RootAtPlusMinusOneError,
    ZeroPolynomialError,
)
from .record import Record
from .seifert import SeifertMatrix, _exact_ints, det_int

IntPoly = list[int]

# the bound ``certify`` and the command line put on refine_bits, a bound on
# work: T(2,13) refines in seconds.  It does not keep endpoints short, since
# separating close roots can take far more halvings than refine_bits
MAX_REFINE_BITS = 4096

# ---------------------------------------------------------------------------
# dense integer polynomial helpers


def _trim(c: IntPoly) -> IntPoly:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pdiv(a: IntPoly, b: IntPoly) -> IntPoly | None:
    """Quotient a / b when the division is exact in Z[x], else None."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return None if a else []
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1]
        if c == 0:
            continue
        qk, r = divmod(c, lead)
        if r:
            return None
        q[k] = qk
        for j, y in enumerate(b):
            rem[k + j] -= qk * y
    return _trim(q) if not any(rem) else None


def _pderiv(a: IntPoly) -> IntPoly:
    return _trim([i * a[i] for i in range(1, len(a))])


def _value_int(a: Sequence[int], k: int, d: int) -> int:
    """d^n * a(k/d) for integers k and d > 0, n = deg a, in integers only.

    d^n * a(k/d) = sum of c_i k^i d^(n-i), which Horner builds as
    acc*k + c*d^(n-i).
    """
    coeffs = reversed(a)
    acc = next(coeffs, 0)
    d_pow = 1
    for c in coeffs:
        d_pow *= d
        acc = acc * k + c * d_pow
    return acc


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_int(a: Sequence[int], k: int, d: int) -> int:
    """Sign of a(k/d) for integers k and d > 0: that of ``_value_int``, since d > 0."""
    return _sign(_value_int(a, k, d))


def _num_den(x: int | Fraction) -> tuple[int, int]:
    """Numerator and positive denominator of an exact point; rejects anything else."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact sign needs an int or Fraction point, not {type(x).__name__}")
    return x.numerator, x.denominator


def _sign_at(a: Sequence[int], x: int | Fraction) -> int:
    """Sign of a(x) at an int or Fraction point (see ``_sign_int``)."""
    return _sign_int(a, *_num_den(x))


def _primitive(a: IntPoly) -> IntPoly:
    """Divide out the integer content and force a positive leading coefficient."""
    if not a:
        return []
    c = -gcd(*a) if a[-1] < 0 else gcd(*a)
    return [x // c for x in a]


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Remainder of a by b != 0 over Q, rescaled by a positive rational to a
    primitive integer polynomial, so every sign is kept.

    Before each top term is cancelled the partial remainder is multiplied by
    |lead(b)|, which keeps the division in Z[x].
    """
    n = len(b) - 1
    rem = list(a)
    while len(rem) > n:
        c = rem.pop()
        if c:
            q = c if b[-1] > 0 else -c  # c * |lead(b)| / lead(b)
            k = len(rem) - n
            rem = [x * abs(b[-1]) for x in rem]
            for j in range(n):
                rem[k + j] -= q * b[j]
    _trim(rem)
    c = gcd(*rem)
    return [x // c for x in rem]


def _remainders(a: IntPoly, b: IntPoly) -> list[IntPoly]:
    """a, b and the negated primitive remainders of Euclid's algorithm on them.

    The sequence stops at a zero remainder or at a constant, so its last
    element is a nonzero scalar multiple of gcd(a, b) when b != 0.
    """
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-x for x in r])
    return seq


def _pgcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x] with positive leading coefficient, for b != 0."""
    return _primitive(_remainders(a, b)[-1])


# ---------------------------------------------------------------------------
# public polynomial types


class SymmetricLaurentPoly(Record):
    """Integer Laurent polynomial with p(t) = p(1/t) and p(1) = 1.

    This is the normalized home of the Alexander polynomial: fixing the
    symmetric representative with value 1 at t = 1 makes equality testable.
    ``coeffs`` maps each exponent to its nonzero coefficient, read-only.  The
    constructor reads exponents and coefficients by the exact-integer rule
    (TypeError), drops zero terms, and raises NotReciprocalError or
    NormalizationError unless p(t) = p(1/t) and p(1) = 1.
    """

    coeffs: Mapping[int, int]

    def __post_init__(self):
        exponents = _exact_ints(self.coeffs, "Laurent exponents")
        values = _exact_ints(self.coeffs.values(), "polynomial coefficients")
        cleaned = {k: v for k, v in zip(exponents, values) if v != 0}
        for k, v in cleaned.items():
            if cleaned.get(-k, 0) != v:
                raise NotReciprocalError(
                    f"coefficient at t^{k} is {v} but at t^{-k} is {cleaned.get(-k, 0)}"
                )
        value_at_one = sum(cleaned.values())
        if value_at_one != 1:
            raise NormalizationError(f"p(1) = {value_at_one}, expected 1")
        object.__setattr__(self, "coeffs", MappingProxyType(cleaned))

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

    def __hash__(self) -> int:  # a mappingproxy has no hash
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
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


class ZPoly(Record):
    """Integer polynomial in the variable z = t + 1/t.

    ``coeffs`` are ascending, with no trailing zeros; the constructor takes
    any iterable of exact integers (TypeError otherwise) and trims it.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = _trim(list(_exact_ints(self.coeffs, "polynomial coefficients")))
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, z: Fraction | int) -> Fraction:
        z, acc = Fraction(z), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


class UnitRootWitness(Record):
    """Exact isolating data for one unit-circle root pair e^(+-i phi).

    ``interval`` is a half-open dyadic-rational interval (lo, hi] in
    z = 2 cos(phi) containing exactly one root of the square-free part of P;
    ``angle_bounds`` is a rational enclosure of phi = arccos(z*/2) =
    2 atan(sqrt((2 - z*)/(2 + z*))), from float bounds nudged outward
    (``_angle_bounds``), for reporting only (decisions are made in z).
    The constructor requires lo < hi, an int multiplicity of at least 1
    (TypeError for a bool or a non-int) and ordered angle bounds.
    """

    interval: tuple[Fraction, Fraction]
    multiplicity: int
    angle_bounds: tuple[Fraction, Fraction]

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError(f"empty isolating interval ({lo}, {hi}]")
        if not isinstance(self.multiplicity, int) or isinstance(self.multiplicity, bool):
            raise TypeError(f"multiplicity must be an int, not {self.multiplicity!r}")
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity {self.multiplicity} is below 1")
        if not self.angle_bounds[0] <= self.angle_bounds[1]:
            raise ValueError(f"angle bounds {self.angle_bounds} are not ordered")

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

    det(t*V - V^T) is palindromic of degree 2g, so Delta(t) = P(t + 1/t) for
    an integer polynomial P of degree at most g.  P is interpolated exactly,
    in Newton form over ``Fraction``, from its values
    P(k + 1/k) = det(k*V - V^T) / k^g at the g+1 nodes k = 1, ..., g+1, and
    then expanded back in t.  The node k = 1 is P(2) = det(V - V^T) = 1,
    which ``SeifertMatrix`` checked, so only the g determinants for
    k = 2, ..., g+1 are taken.
    """
    e, n, g = v.entries, v.size, v.genus
    nodes = [Fraction(k * k + 1, k) for k in range(1, g + 2)]
    diffs = [Fraction(1)] + [
        Fraction(det_int([[k * e[i][j] - e[j][i] for j in range(n)] for i in range(n)]), k**g)
        for k in range(2, g + 2)
    ]
    # divided differences: after pass j, diffs[i] = P[nodes[i-j], ..., nodes[i]]
    for j in range(1, g + 1):
        for i in range(g, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (nodes[i] - nodes[i - j])
    # Newton form to ascending coefficients: p <- diffs[i] + (z - nodes[i]) * p
    p = [diffs[g]]
    for i in range(g - 1, -1, -1):
        x = nodes[i]
        p = [diffs[i] - x * p[0], *(a - x * b for a, b in zip(p, p[1:])), p[-1]]
    if any(a.denominator != 1 for a in p):
        raise InternalInconsistencyError("interpolated P must have integer coefficients")
    poly = SymmetricLaurentPoly(_expand_in_t(ZPoly(a.numerator for a in p)))
    if poly.max_exponent > g:
        raise InternalInconsistencyError(f"Delta has degree {poly.max_exponent} above the genus {g}")
    return poly


def to_z_poly(delta: SymmetricLaurentPoly) -> ZPoly:
    """Rewrite a reciprocal Laurent polynomial as P with Delta(t) = P(t + 1/t).

    Peels P from the top: for k = g down to 0, p_k is the t^k coefficient of
    what is left, and p_k * (t + 1/t)^k = p_k * sum_j C(k, j) t^(k - 2j) is
    subtracted.  What is left at the end is Delta - P(t + 1/t), so a returned
    value is certified exact.  Reciprocity itself is enforced by the
    SymmetricLaurentPoly constructor.
    """
    rest = dict(delta.coeffs)
    p = [0] * (delta.max_exponent + 1)
    for k in range(delta.max_exponent, -1, -1):
        c = p[k] = rest.get(k, 0)
        if c:
            for j in range(k + 1):
                rest[k - 2 * j] = rest.get(k - 2 * j, 0) - c * math.comb(k, j)
    if any(rest.values()):
        raise NotReciprocalError("round-trip expansion failed to reproduce the input")
    return ZPoly(p)


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
# Sturm sequences and isolation


def sturm_chain(f: IntPoly) -> list[IntPoly]:
    """Sturm chain of a square-free integer polynomial.

    Each remainder is an integer pseudo-remainder reduced to its primitive
    part, a positive multiple of the remainder over Q, so no sign changes.
    """
    return _remainders(list(f), _pderiv(f))


def _variations(chain: Sequence[IntPoly], k: int, d: int) -> int:
    """Sign variations of a Sturm chain at k/d, zeros skipped."""
    signs = [s for s in (_sign_int(p, k, d) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _descartes_variations(a: Sequence[int], ka: int, kb: int, d: int) -> int:
    """Sign variations of Q(x) = (d + d*x)^n * a((ka + kb*x) / (d + d*x)), n = deg a.

    x -> (ka + kb*x) / (d + d*x) maps (0, oo) onto (ka/d, kb/d), so by
    Descartes' rule of signs 0 variations prove that a has no root there and
    1 variation proves one.  Q = sum of c_i (ka + kb*x)^i (d + d*x)^(n-i) is
    built by homogeneous Horner; zero coefficients, from roots at the ends,
    are skipped.
    """
    q, m = [a[-1]], [1]
    for c in reversed(a[:-1]):
        q = [ka * x + kb * y for x, y in zip(q + [0], [0] + q)]
        m = [d * (x + y) for x, y in zip(m + [0], [0] + m)]
        q = [x + c * y for x, y in zip(q, m)]
    signs = [x > 0 for x in q if x]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _simple_roots(a: Sequence[int], lo: Fraction, hi: Fraction) -> int | None:
    """The number of roots of the nonzero a in the open interval (lo, hi), lo < hi <= lo + 4,
    if each is proved simple, else None.

    Decided by Descartes' rule of signs with bisection (Collins-Akritas),
    sharing no code with the Sturm path: 0 variations prove a piece
    root-free and 1 variation proves one simple root in it; a root at a
    bisection midpoint counts if a' does not vanish there.  Distinct roots of
    a square-free factor of a are more than sqrt(3) n^(-(n+2)/2)
    ||a||_2^(1-n) apart (Mahler), so a piece narrower than that has no
    non-real root in the disc on it as diameter; 2 or more variations there
    mean a multiple real root in the piece, and bisection stops at the depth
    where pieces are that narrow.
    """
    n = len(a) - 1
    max_depth = 4 + n * n.bit_length() + n * (max(map(abs, a)).bit_length() + n.bit_length())
    d = math.lcm(lo.denominator, hi.denominator)
    stack = [(int(lo * d), int(hi * d), d, 0)]
    roots = 0
    while stack:
        ka, kb, d, depth = stack.pop()
        variations = _descartes_variations(a, ka, kb, d)
        if variations <= 1:
            roots += variations
            continue
        km = ka + kb
        if depth == max_depth:
            return None
        if _sign_int(a, km, 2 * d) == 0:
            if _sign_int(_pderiv(list(a)), km, 2 * d) == 0:
                return None
            roots += 1
        stack += [(2 * ka, km, 2 * d, depth + 1), (km, 2 * kb, 2 * d, depth + 1)]
    return roots


def _multiplicity_proved(
    p: Sequence[int], f: IntPoly, m: int, lo: Fraction, hi: Fraction
) -> bool:
    """Whether P has exactly one root in (lo, hi], of multiplicity exactly m.

    The hint f is not trusted; the proof has three steps, each by
    ``_simple_roots`` or exact division, sharing nothing else with the
    Sturm/Yun path: f has exactly one root in (lo, hi] and it is simple (a
    root at hi is settled by exact evaluation of f and f'); f^m divides P
    exactly, so that root has multiplicity at least m in P; and
    Q = P / f^m has no root in (lo, hi], so the multiplicity is exactly m and
    P has no other root there.
    """
    if m < 1 or len(f) < 2:
        return False
    at_hi = _sign_at(f, hi) == 0
    if at_hi and _sign_at(_pderiv(f), hi) == 0:
        return False
    if _simple_roots(f, lo, hi) != (0 if at_hi else 1):
        return False
    q: IntPoly | None = list(p)
    for _ in range(m):
        q = _pdiv(q, f)
        if q is None:
            return False
    return _sign_at(q, hi) != 0 and _simple_roots(q, lo, hi) == 0


def _isolate_squarefree(chain: Sequence[IntPoly], ka: int, kb: int, d: int):
    """Bisect (ka/d, kb/d] into half-open intervals (ka'/d', kb'/d'] with one root each.

    Each stack entry carries the variation counts at its endpoints, so every
    bisection point is evaluated once although two children share it.  The
    right half is pushed first, so the intervals come out in ascending order.
    """
    stack = [(ka, _variations(chain, ka, d), kb, _variations(chain, kb, d), d)]
    out = []
    while stack:
        a, v_a, b, v_b, d = stack.pop()
        cnt = v_a - v_b
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b, d))
            continue
        m = a + b
        v_m = _variations(chain, m, 2 * d)
        stack.append((m, v_m, 2 * b, v_b, 2 * d))
        stack.append((2 * a, v_a, m, v_m, 2 * d))
    return out


def _halve(f: IntPoly, ka: int, kb: int, d: int, s_b: int) -> tuple[int, int, int, int]:
    """Halve (ka/d, kb/d], which holds exactly one root of the square-free f.

    s_b is the sign of f at kb/d.  The halves are (2ka/2d, (ka+kb)/2d] and
    ((ka+kb)/2d, 2kb/2d], so only the midpoint is evaluated: a root at mid
    stays in the left half, and f(b) = 0 or a sign change over (mid, b]
    means the root is in the right half.  Returns the kept half over 2d with
    the sign of f at its right end.
    """
    km = ka + kb
    s_mid = _sign_int(f, km, 2 * d)
    if s_mid and s_mid != s_b:
        return km, 2 * kb, 2 * d, s_b
    return 2 * ka, km, 2 * d, s_mid


def _refine(f: IntPoly, ka: int, kb: int, d: int, halvings: int) -> tuple[int, int, int, int]:
    """The cell ``halvings`` halvings of (ka/d, kb/d] keep, by quadratic interval refinement.

    (ka/d, kb/d] holds exactly one root of the square-free f, and f(ka/d) != 0.
    A step splits the cell into m = 2^e cells of the grid that halving
    visits, and the secant through f at the two ends picks one.  The pick is
    kept if the signs at its ends prove that it holds the root, under the
    (lo, hi] convention of ``_halve``, and e doubles; else e halves and the
    step is one halving.  e never takes the depth past ``halvings``.  At
    every depth one grid cell holds the root, so the result is the cell of
    ``_halve`` applied ``halvings`` times, with the sign of f at its right
    end.  Near a simple root the secant's error squares with each step, so
    about log2(halvings) steps are taken (Abbott 2006; Kerber and Sagraloff,
    ISSAC 2011), not one sign per halving.
    """
    n = len(f) - 1
    width = kb - ka  # every cell is width/d wide, as in _halve
    # d^n f at the ends, one scale for both, as the secant needs
    fa, fb = _value_int(f, ka, d), _value_int(f, kb, d)
    e = 2
    while halvings:
        e = min(e, halvings)
        m = 1 << e
        # the secant's zero is ka/d + t*width/d with t = fa/(fa - fb) in (0, 1]
        i = min(m * fa // (fa - fb), m - 1)
        lo, dm = ka * m + i * width, d * m
        # an end shared with the cell is known; its value scales by m^n
        f_lo = fa << e * n if i == 0 else _value_int(f, lo, dm)
        f_hi = fb << e * n if i == m - 1 else _value_int(f, lo + width, dm)
        if f_hi == 0 or (f_lo and _sign(f_lo) != _sign(f_hi)):
            ka, kb, d, fa, fb = lo, lo + width, dm, f_lo, f_hi
            halvings -= e
            e *= 2
            continue
        e = max(1, e // 2)
        km = ka + kb  # one halving, as _halve takes it
        fm = _value_int(f, km, 2 * d)
        if fm and _sign(fm) != _sign(fb):
            ka, kb, fa, fb = km, 2 * kb, fm, fb << n
        else:
            ka, kb, fa, fb = 2 * ka, km, fa << n, fm
        d *= 2
        halvings -= 1
    return ka, kb, d, _sign(fb)


def _tan_half_angle(z: Fraction, up: bool) -> float:
    """A float upper (``up``) or lower bound of u = sqrt((2 - z)/(2 + z)), -2 < z < 2.

    u = tan(phi/2) for z = 2 cos(phi), and u^2 = a/b with the integers a, b
    below.  The float nearest (k + up)/2^s, with k = isqrt(floor(u^2 4^s))
    and s giving k at least 64 bits, is stepped outward until its square,
    compared with a/b in integers, is on the right side of u^2.
    """
    a, b = 2 * z.denominator - z.numerator, 2 * z.denominator + z.numerator
    s = max(0, (b.bit_length() - a.bit_length()) // 2 + 64)
    try:
        u = (math.isqrt((a << 2 * s) // b) + up) / (1 << s)
    except OverflowError:  # u is past the float range, so above its largest float
        return math.inf if up else math.nextafter(math.inf, 0.0)

    def wrong_side(u: float) -> bool:
        n, d = u.as_integer_ratio()
        return n * n * b < a * d * d if up else n * n * b > a * d * d

    while u < math.inf and wrong_side(u):
        u = math.nextafter(u, math.inf if up else 0.0)
    return u


def _angle_bounds(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """A rational enclosure of phi = arccos(z*/2) for a root z* in (lo, hi] inside (-2, 2).

    phi = 2 atan(u) is decreasing in z, with u from ``_tan_half_angle``.
    atan is well-conditioned, and its float is within an ulp, so 2 atan(u)
    nudged outward 2 ulps encloses phi.  A float acos(z/2) is not
    well-conditioned: near z = 2, phi ~ sqrt(2 - z) is lost once z/2 rounds
    to 1.  The acos bounds nudged outward 4 ulps, which earlier releases
    printed, are kept where they contain the atan bounds, since they then
    enclose phi as well.
    """

    def out(x: float, toward: float, ulps: int) -> float:
        for _ in range(ulps):
            x = math.nextafter(x, toward)
        return max(x, 0.0)

    def acos(z: Fraction) -> float:
        return math.acos(max(-1.0, min(1.0, float(z) / 2.0)))

    phi_lo = out(2 * math.atan(_tan_half_angle(hi, False)), -math.inf, 2)
    phi_hi = out(2 * math.atan(_tan_half_angle(lo, True)), math.inf, 2)
    acos_lo, acos_hi = out(acos(hi), -math.inf, 4), out(acos(lo), math.inf, 4)
    if acos_lo <= phi_lo and phi_hi <= acos_hi:
        return Fraction(acos_lo), Fraction(acos_hi)
    return Fraction(phi_lo), Fraction(phi_hi)


def _yun(p: Sequence[int]) -> tuple[list[IntPoly], list[IntPoly]]:
    """The radicals r_0, r_1, ... of P and its Yun factors, both primitive.

    With g_0 = P and g_(i+1) = gcd(g_i, g_i'), r_i = g_i / g_(i+1) is
    square-free and vanishes exactly at the roots of multiplicity > i; the
    Yun factor r_(m-1) / r_m (r_(m-1) at the top multiplicity) vanishes
    exactly at the roots of multiplicity m.
    """
    radicals: list[IntPoly] = []
    g = _primitive(list(p))
    while len(g) > 1:
        g_next = _pgcd(g, _pderiv(g))
        radicals.append(_pdiv(g, g_next))
        g = g_next
    factors = [_pdiv(r, s) for r, s in zip(radicals, radicals[1:])] + radicals[-1:]
    if None in radicals + factors:
        raise InternalInconsistencyError("division is not exact over the integers")
    return radicals, factors


def _unit_root_cells(p: ZPoly) -> list[tuple[int, int, int, int, IntPoly]]:
    """(ka, kb, d, m, f) per root of P in (-2, 2), by z ascending.

    The radicals r_i and Yun factors of P come from ``_yun``.  The roots of
    r_0 = P / gcd(P, P') are isolated with one Sturm chain, and the
    intervals are halved on r_0 until they are pairwise disjoint with
    positive gaps.  A root's multiplicity m is then the number of r_i that
    change sign or vanish over its interval (ka/d, kb/d], and f is the Yun
    factor r_(m-1) / r_m (r_(m-1) at the top multiplicity), whose only root
    in the cell is that root.
    """
    if p.is_zero():
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if _sign_at(p.coeffs, 2) == 0 or _sign_at(p.coeffs, -2) == 0:
        raise RootAtPlusMinusOneError(
            "P vanishes at z = +-2 (t = +-1); not a knot Alexander polynomial"
        )
    radicals, factors = _yun(p.coeffs)
    if not radicals:
        return []
    r0 = radicals[0]
    # [ka, kb, d, sign of r0 at kb/d] for (ka/d, kb/d], in ascending order
    cells = [
        [ka, kb, d, _sign_int(r0, kb, d)]
        for ka, kb, d in _isolate_squarefree(sturm_chain(r0), -2, 2, 1)
    ]

    # pairwise disjoint with positive gaps; halving keeps the order
    clean = False
    while not clean:
        clean = True
        for w1, w2 in zip(cells, cells[1:]):
            if w1[1] * w2[2] >= w2[0] * w1[2]:
                w1[:] = _halve(r0, *w1)
                w2[:] = _halve(r0, *w2)
                clean = False

    out = []
    for ka, kb, d, _ in cells:
        # no root of P sits at ka/d now, so r_i changes sign over the cell or
        # vanishes at kb/d exactly when the root has multiplicity > i
        mult = sum(1 for r in radicals if _sign_int(r, ka, d) * _sign_int(r, kb, d) <= 0)
        out.append((ka, kb, d, mult, factors[mult - 1]))
    return out


def isolate_unit_roots(p: ZPoly, refine_bits: int = 32) -> list[UnitRootWitness]:
    """Isolate all roots of P in the open interval (-2, 2), with multiplicities.

    Each root's cell and Yun factor come from ``_unit_root_cells``.  The cell
    is refined on that factor by ``_refine`` to the first halving depth at
    which it is no wider than 2^-refine_bits, then halved until it lies
    strictly inside (-2, 2).  The result is the cell that halving alone, one
    sign per bit, would reach.  Witnesses are sorted by z ascending.
    """
    out = []
    for ka, kb, d, mult, f in _unit_root_cells(p):
        # the least j with (kb - ka) / (d 2^j) <= 2^-refine_bits
        halvings = (-(-((kb - ka) << refine_bits) // d) - 1).bit_length()
        ka, kb, d, s_b = _refine(f, ka, kb, d, halvings)
        while ka <= -2 * d or kb >= 2 * d:
            ka, kb, d, s_b = _halve(f, ka, kb, d, s_b)
        lo, hi = Fraction(ka, d), Fraction(kb, d)
        out.append(
            UnitRootWitness(
                interval=(lo, hi), multiplicity=mult, angle_bounds=_angle_bounds(lo, hi)
            )
        )
    return out


def arc_z_ranges(
    witnesses_by_angle: Sequence[UnitRootWitness],
) -> list[tuple[Fraction, Fraction]]:
    """Open z-ranges of the plateau arcs, ordered by increasing angle.

    Witness k (angle order) has z-interval (lo_k, hi_k] with z decreasing in
    angle; the arc before it spans z in (hi_k, lo_{k-1}).
    """
    two = Fraction(2)
    ranges = []
    upper = two
    for w in witnesses_by_angle:
        ranges.append((w.interval[1], upper))
        upper = w.interval[0]
    ranges.append((Fraction(-2), upper))
    return ranges


def unproved_claim(p: ZPoly, witnesses: Sequence[UnitRootWitness]) -> str | None:
    """None, or the first claim about the witnesses, sorted by z, that is not proved.

    The claims: no plateau arc holds a root of P, and each witness holds one
    root of P of its multiplicity, proved with the hints of its own ``_yun``.
    """
    # a root that isolation lost would leave an arc with a root of P in it
    for lo, hi in arc_z_ranges(witnesses[::-1]):
        if _simple_roots(p.coeffs, lo, hi) != 0:
            return f"no proof that P has no root in the plateau arc z in ({lo}, {hi})"
    factors = _yun(p.coeffs)[1]
    for w in witnesses:
        m = w.multiplicity
        hint = factors[m - 1] if 1 <= m <= len(factors) else []
        if not _multiplicity_proved(p.coeffs, hint, m, *w.interval):
            lo, hi = w.interval
            return f"no proof that P has one root of multiplicity {m} in z in ({lo}, {hi}]"
    return None
