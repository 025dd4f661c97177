"""Exact equivariant signature profiles over the unit circle.

The Hermitian form evaluated here is B(w) = (1-w)V + (1-conj(w))V^T for w on
the unit circle.  This closed form comes from expanding
(t^(-1/2) - t^(1/2)) (t^(1/2) V - t^(-1/2) V^T) = (1-t)V + (1-1/t)V^T and
substituting 1/t = conj(t) on |t| = 1; no half-integer powers survive, so B
is evaluable at any Gaussian-rational circle point.

Sampling points are taken in tan-half-angle form
w = ((1-u^2) + 2u*i)/(1+u^2) with u rational and positive, which sweeps the
open upper semicircle (phi in (0, pi)) through Gaussian-rational points.
Each plateau, and w = -1 (phi = pi) as (p, q) = (1, 0), is evaluated on the
integer form H = p(V + V^T) - iq(V - V^T) at u = p/q: B(w) = cH with
c = 2p/(p^2+q^2) > 0, so B and H share their inertia and det B = c^n det H.
H is kept as Gaussian-integer (re, im) pairs; ``GaussianRational`` grids are
only ``inertia``'s input and ``b_matrix_at``'s output.  Inertia is read off
exactly from the characteristic polynomial, which Faddeev-LeVerrier builds
from the upper triangles of the Hermitian products H*M_k over exact pairs,
skipping zero entries of both factors: the polynomial is real-rooted, so
Descartes' rule counts positive and negative eigenvalues exactly once zero
roots are stripped as trailing zero coefficients.

Signature jumps can occur only at the isolated Alexander roots, so the
signature is a step function; every plateau is sampled once, strictly
between consecutive isolating intervals.  The plateaus, and w = -1, are
evaluated in one loop in this process.

Near w = 1 the form expands as B(e^(i theta)) = i*theta*(V^T - V) + O(theta^2):
i times a real antisymmetric matrix has symmetric spectrum, and
det(V - V^T) = 1 keeps it nonsingular, so the first plateau is exactly 0.
The computation still evaluates it and raises if the assertion ever fails.

Transversality at a root is never decided numerically: a simple root forces
the single vanishing eigenvalue to cross zero with nonzero derivative, which
is why JumpReport.transversal_simple is set from multiplicity alone.  The
finite-difference slope estimate below is a display-only diagnostic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

from .errors import InternalInconsistencyError
from .laurent import UnitRootWitness, ZPoly, _is_exact, arc_z_ranges, isolate_unit_roots
from .record import Record, replace
from .seifert import SeifertMatrix


class GaussianRational(Record):
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)


CMatrix = list[list[GaussianRational]]
Pairs = list[list[tuple[Fraction, Fraction]]]  # (re, im) entries, int or Fraction
Sparse = list[list[tuple[int, Fraction, Fraction]]]  # each row's nonzero (j, re, im)


class UnitCirclePoint(Record):
    """A Gaussian-rational point w = e^(i phi) on the open upper unit semicircle.

    ``u`` is the tan-half-angle parameter u = tan(phi/2) > 0, so phi lies in
    (0, pi); the endpoint w = -1 is not a point of this type.  u must be an
    int or a Fraction (TypeError), kept as a Fraction so that ``z`` is exact.
    """

    u: Fraction

    def __post_init__(self):
        if not _is_exact(self.u):
            raise TypeError(f"tan-half-angle parameter must be an int or Fraction, not {self.u!r}")
        if self.u <= 0:
            raise ValueError("tan-half-angle parameter must be positive")
        object.__setattr__(self, "u", Fraction(self.u))

    @property
    def z(self) -> Fraction:
        """z = w + conj(w) = 2 cos(phi)."""
        return 2 * (1 - self.u * self.u) / (1 + self.u * self.u)

    @property
    def angle(self) -> float:
        return 2.0 * math.atan(_float(self.u))


class JumpReport(Record):
    """One-sided signature limits across a single unit root.

    The constructor raises ValueError unless ``jump`` is right_value -
    left_value and the flags say whether the root's multiplicity is odd and
    whether it is 1, and InternalInconsistencyError if the jump breaks a
    law: |jump| <= 2 * multiplicity, a nonzero jump at an odd multiplicity,
    and |jump| = 2 at a simple root, where one eigenvalue crosses zero.
    """

    root: UnitRootWitness
    left_value: int
    right_value: int
    jump: int
    odd_multiplicity: bool
    transversal_simple: bool

    def __post_init__(self):
        jump, multiplicity = self.jump, self.root.multiplicity
        if jump != self.right_value - self.left_value:
            raise ValueError("jump is not right_value - left_value")
        if self.odd_multiplicity != (multiplicity % 2 == 1):
            raise ValueError("odd_multiplicity is not whether the root's multiplicity is odd")
        if self.transversal_simple != (multiplicity == 1):
            raise ValueError("transversal_simple is not whether the root is simple")
        if abs(jump) > 2 * multiplicity:
            raise InternalInconsistencyError(
                f"|jump| = {abs(jump)} exceeds twice the multiplicity {multiplicity}"
            )
        if self.odd_multiplicity and jump == 0:
            raise InternalInconsistencyError(
                "zero jump at an odd-multiplicity root contradicts the determinant sign flip"
            )
        if self.transversal_simple and abs(jump) != 2:
            raise InternalInconsistencyError(f"simple root with |jump| = {abs(jump)} != 2")


class SignatureProfile(Record):
    """The signature step function phi -> Sign B(e^(i phi)) on (0, pi].

    ``jump_angles`` holds the root witnesses ordered by increasing angle
    (decreasing z); ``plateau_values[i]`` is the constant signature on the
    open arc before the i-th jump, with the final entry covering the arc up
    to pi.  The value exactly at a jump angle is deliberately not defined.
    ``arc_samples``/``arc_dets`` record the exact sample point and det B used
    to certify each plateau; ``paper_angles`` marks profiles whose reported
    angles have been halved into the t = e^(i alpha), w = t^2 convention.
    """

    jump_angles: tuple[UnitRootWitness, ...]
    plateau_values: tuple[int, ...]
    value_at_minus_one: int
    genus: int
    arc_samples: tuple[UnitCirclePoint, ...]
    arc_dets: tuple[Fraction, ...]
    det_at_minus_one: Fraction
    paper_angles: bool = False


# ---------------------------------------------------------------------------
# exact Hermitian linear algebra


def _is_hermitian(h: Pairs) -> bool:
    n = len(h)
    return all(
        h[i][j][0] == h[j][i][0] and h[i][j][1] == -h[j][i][1]
        for i in range(n)
        for j in range(i, n)
    )


def _nonzero(rows: Pairs) -> Sparse:
    return [[(j, x, y) for j, (x, y) in enumerate(row) if x or y] for row in rows]


def _mat_mul(a: Sparse, b: Sparse) -> Pairs:
    """AB for Hermitian A and B a real polynomial in A, both given by nonzero entries.

    (AB)* = BA = AB, so only the entries j >= i are formed, from the columns of
    B's rows (listed in ascending order); each one below is its mirror's conjugate.
    """
    n = len(b)
    out = []
    for i, a_row in enumerate(a):
        re, im = [Fraction(0)] * n, [Fraction(0)] * n
        for k, x, y in a_row:
            for j, u, v in b[k][bisect_left(b[k], (i,)):]:
                re[j] += x * u - y * v
                im[j] += x * v + y * u
        out.append([(out[j][i][0], -out[j][i][1]) for j in range(i)] + list(zip(re[i:], im[i:])))
    return out


def char_poly(h: Pairs) -> list[Fraction]:
    """Coefficients of det(x*I - H), ascending, via Faddeev-LeVerrier, for Hermitian H.

    Exact, on (re, im) pairs with zero entries skipped.  As M_1 = I and
    M_(k+1) = H*M_k + c*I with c real, each H*M_k is Hermitian and ``_mat_mul``
    forms its upper triangle only; H is checked Hermitian first.
    """
    if not _is_hermitian(h):
        raise InternalInconsistencyError("characteristic polynomial not real: H is not Hermitian")
    n = len(h)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    a = _nonzero(h)
    m = [[(Fraction(i == j), Fraction(0)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = _mat_mul(a, _nonzero(m))
        if sum((m[i][i][1] for i in range(n)), Fraction(0)) != 0:
            raise InternalInconsistencyError("characteristic polynomial not real")
        c = coeffs[n - k] = -sum((m[i][i][0] for i in range(n)), Fraction(0)) / k
        for i in range(n):
            m[i][i] = (m[i][i][0] + c, m[i][i][1])
    return coeffs


def _descartes_positive(coeffs: Sequence[Fraction]) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _inertia_from_char_poly(coeffs: Sequence[Fraction]) -> tuple[int, int, int]:
    n = len(coeffs) - 1
    zeros = 0
    while zeros <= n and coeffs[zeros] == 0:
        zeros += 1
    stripped = list(coeffs[zeros:])
    positives = _descartes_positive(stripped)
    negatives = _descartes_positive([-c if i % 2 else c for i, c in enumerate(stripped)])
    if positives + negatives != n - zeros:
        raise InternalInconsistencyError(
            "Descartes counts do not exhaust the spectrum; input was not Hermitian"
        )
    return positives, negatives, zeros


def _exact_pair(x) -> tuple[int | Fraction, int | Fraction]:
    """(re, im) of an ``inertia`` entry: an int, a Fraction, or a GaussianRational of them."""
    pair = (x.re, x.im) if isinstance(x, GaussianRational) else (x, 0)
    if not all(map(_is_exact, pair)):
        raise TypeError(f"inertia needs int or Fraction entries, not {x!r}")
    return pair


def inertia(h) -> tuple[int, int, int]:
    """Exact (positives, negatives, zeros) eigenvalue counts of a Hermitian matrix.

    Entries may be GaussianRational, Fraction, or int, the parts of a
    GaussianRational likewise; anything else, bool included, raises
    TypeError.  The signature is positives - negatives.  A matrix that is not
    square and Hermitian raises ValueError.
    """
    pairs = [[_exact_pair(x) for x in r] for r in h]
    if any(len(r) != len(pairs) for r in pairs) or not _is_hermitian(pairs):
        raise ValueError("inertia requires a Hermitian matrix")
    return _inertia_and_det(pairs)[:3]


def _inertia_and_det(h: Pairs) -> tuple[int, int, int, Fraction]:
    coeffs = char_poly(h)
    p, n, z = _inertia_from_char_poly(coeffs)
    size = len(coeffs) - 1
    det = coeffs[0] if size % 2 == 0 else -coeffs[0]
    return p, n, z, det


# ---------------------------------------------------------------------------
# the Hermitian form B


def _hermitian_h(v: SeifertMatrix, p: int, q: int) -> tuple[Fraction, Pairs]:
    """c and H with B(w) = cH at u = p/q, as 1 - w = 2p(p - iq)/(p^2+q^2) there."""
    e = v.entries
    return Fraction(2 * p, p * p + q * q), [
        [(p * (x + y), q * (y - x)) for x, y in zip(row, col)] for row, col in zip(e, zip(*e))
    ]


def _plateau(v: SeifertMatrix, p: int, q: int) -> tuple[int, int, Fraction]:
    """Signature, zero count and det B = c^n det H of B(w) at u = p/q, evaluated on H."""
    c, h = _hermitian_h(v, p, q)
    pos, neg, zeros, det_h = _inertia_and_det(h)
    return pos - neg, zeros, c**v.size * det_h


def _b_pairs(v: SeifertMatrix, point: UnitCirclePoint) -> Pairs:
    c, h = _hermitian_h(v, point.u.numerator, point.u.denominator)
    return [[(c * x, c * y) for x, y in row] for row in h]


def b_matrix_at(v: SeifertMatrix, point: UnitCirclePoint) -> CMatrix:
    """B(w) = (1-w)V + (1-conj(w))V^T at a Gaussian-rational circle point."""
    return [[GaussianRational(x, y) for x, y in row] for row in _b_pairs(v, point)]


# ---------------------------------------------------------------------------
# sample selection between isolating intervals


def _rational_sqrt_between(qa: Fraction, qb: Fraction) -> Fraction:
    """The dyadic u = k/2^b with qa < u^2 < qb, for 0 <= qa < qb, of least b, then least k.

    The least k at b is isqrt(floor(qa 4^b)) + 1; a fit at b is one at b + 1
    (2k/2^(b+1)), so b is found by doubling and then bisection.  Any other
    qa, qb raise ValueError: the doubling would never find a fit.
    """
    if not 0 <= qa < qb:
        raise ValueError(f"need 0 <= qa < qb, not qa = {qa}, qb = {qb}")

    def least_k(b: int) -> int:  # 0 where the least k at b does not fit below qb
        k = math.isqrt((qa.numerator << 2 * b) // qa.denominator) + 1
        return k if k * k * qb.denominator < qb.numerator << 2 * b else 0

    lo, hi = -1, 0  # no fit at lo, and hi is tried next
    while not least_k(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if least_k(mid) else (mid, hi)
    return Fraction(least_k(hi), 1 << hi)


def sample_point_in_z_range(z_lo: Fraction, z_hi: Fraction) -> UnitCirclePoint:
    """A Gaussian-rational circle point whose z lies strictly in (z_lo, z_hi).

    Both endpoints must satisfy -2 <= z_lo < z_hi <= 2, so callers may pass
    arc endpoints; u is ``_rational_sqrt_between`` on the middle third.
    """
    if not (-2 <= z_lo < z_hi <= 2):
        raise ValueError(f"bad z range ({z_lo}, {z_hi})")
    third = (z_hi - z_lo) / 3
    a, b = z_lo + third, z_hi - third
    # u is decreasing in z: u^2 = (2-z)/(2+z)
    point = UnitCirclePoint(_rational_sqrt_between((2 - b) / (2 + b), (2 - a) / (2 + a)))
    if not z_lo < point.z < z_hi:
        raise InternalInconsistencyError(f"sample z = {point.z} outside ({z_lo}, {z_hi})")
    return point


def signature_profile(v: SeifertMatrix, witnesses: Sequence[UnitRootWitness]) -> SignatureProfile:
    """Evaluate the signature step function of B over the upper semicircle.

    ``witnesses`` must come from isolating the roots of the z-form of
    alexander_poly(v) (pairwise disjoint intervals); each open arc between
    consecutive roots is sampled once at an exact interior point.  An arc
    holds no root of P and z != 2 on it, so det B = (z-2)^g P(z) != 0 there.
    Every sample must be nonsingular, the first plateau must be 0, and the
    final plateau must agree with the closed-form value at w = -1; violations
    raise, since they are mathematically impossible for consistent inputs.
    """
    by_angle = sorted(witnesses, key=lambda w: w.interval, reverse=True)
    ranges = arc_z_ranges(by_angle)
    samples = [sample_point_in_z_range(z_lo, z_hi) for z_lo, z_hi in ranges]
    at_samples = [_plateau(v, s.u.numerator, s.u.denominator) for s in samples]
    sig_m1, zeros_m1, det_m1 = _plateau(v, 1, 0)
    for (z_lo, z_hi), (sig, zeros, _) in zip(ranges, at_samples):
        if zeros != 0:
            raise InternalInconsistencyError(
                f"singular sample in root-free z range ({z_lo}, {z_hi})"
            )
        if sig % 2 != 0:
            raise InternalInconsistencyError("odd plateau signature")
    plateaus = [sig for sig, _, _ in at_samples]

    if plateaus[0] != 0:
        raise InternalInconsistencyError(
            f"signature near w = 1 is {plateaus[0]}, expected 0"
        )

    if zeros_m1 != 0:
        raise InternalInconsistencyError("B(-1) singular; Delta(-1) must be odd")
    if sig_m1 != plateaus[-1]:
        raise InternalInconsistencyError(
            "signature at w = -1 disagrees with the final plateau"
        )

    return SignatureProfile(
        jump_angles=tuple(by_angle),
        plateau_values=tuple(plateaus),
        value_at_minus_one=sig_m1,
        genus=v.genus,
        arc_samples=tuple(samples),
        arc_dets=tuple(det for _, _, det in at_samples),
        det_at_minus_one=det_m1,
    )


def jump_reports(profile: SignatureProfile) -> list[JumpReport]:
    """Per-root one-sided limits and jumps, ordered by increasing angle; each checks the laws."""
    values = profile.plateau_values
    return [
        JumpReport(w, left, right, right - left, w.multiplicity % 2 == 1, w.multiplicity == 1)
        for w, left, right in zip(profile.jump_angles, values, values[1:])
    ]


def det_sign_crosscheck(p_z: ZPoly, profile: SignatureProfile) -> bool:
    """Verify det B against the signature data on every plateau.

    ``p_z`` is the z-form of the Alexander polynomial whose roots ``profile``
    was sampled between.  Four exact checks, any failure returning False:
    * det B(w) = (z-2)^g P(z) at every recorded sample (z = w + conj(w)),
      the determinant factorization that ties B to the Alexander polynomial;
    * sign(det B) = (-1)^((2g - signature)/2) on every plateau (the count of
      negative eigenvalues determines the determinant sign);
    * det B(-1) = (-4)^g P(-2), the same factorization at w = -1;
    * the determinant sign flips across a root iff its multiplicity is odd.
    """
    g = profile.genus
    points = list(zip(profile.arc_samples, profile.arc_dets, profile.plateau_values))
    for point, det, sig in points:
        z = point.z
        if det != (z - 2) ** g * p_z.evaluate(z):
            return False
        n_negative = (2 * g - sig) // 2
        if (det > 0) != (n_negative % 2 == 0):
            return False
    if profile.det_at_minus_one != Fraction(-4) ** g * p_z.evaluate(-2):
        return False
    for i, w in enumerate(profile.jump_angles):
        flips = (profile.arc_dets[i] > 0) != (profile.arc_dets[i + 1] > 0)
        if flips != (w.multiplicity % 2 == 1):
            return False
    return True


class SlopeDiagnostic(Record):
    """Display-only finite-difference data for one root crossing."""

    left_angle: float
    right_angle: float
    left_eigenvalue: float
    right_eigenvalue: float

    @property
    def slope(self) -> float:
        """The difference quotient, or +-inf by the eigenvalue change when the
        two sample angles round to one float (roots next to phi = 0 or pi)."""
        change = self.right_eigenvalue - self.left_eigenvalue
        step = self.right_angle - self.left_angle
        return change / step if step else math.copysign(math.inf, change)


def _float(x: Fraction) -> float:
    """float(x), or the float's own +-inf where x is past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _eigenvalues_nearest_zero(h: Pairs, m: int) -> list[float]:
    """The m smallest-magnitude eigenvalues of a nonsingular Hermitian matrix.

    Counted with multiplicity and returned in ascending order.  The
    characteristic polynomial is scaled to integers and its variable to
    z = x / 2^(e-1), with 2^e above the Cauchy bound, so every eigenvalue x
    has z strictly inside (-2, 2).  The package's one Sturm isolator,
    ``isolate_unit_roots``, then encloses each eigenvalue to width 2^-80 in
    x, and each enclosure's midpoint is rounded to float (+-inf past its range).
    """
    coeffs = char_poly(h)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    # |x| < 1 + max|c_i| / c_n <= 2 + max|c_i| // c_n < 2^e
    e = (2 + max(map(abs, ints)) // ints[-1]).bit_length()
    scaled = ZPoly(c << (i * (e - 1)) for i, c in enumerate(ints))
    roots = isolate_unit_roots(scaled, refine_bits=79 + e)
    values = [_float(sum(w.interval) * 2 ** (e - 2)) for w in roots for _ in range(w.multiplicity)]
    return sorted(sorted(values, key=abs)[:m])


def transversality_diagnostic(
    v: SeifertMatrix,
    profile: SignatureProfile,
    jump_index: int,
) -> tuple[SlopeDiagnostic, ...]:
    """Finite-difference estimates of the vanishing eigenvalues' slopes at a jump.

    Jumps are numbered by increasing angle, as in ``profile.jump_angles``.
    Samples within 2^-20 of the isolating interval on both sides (clamped to
    the plateau arcs next to it), takes the m eigenvalues nearest zero on each
    side, m the root's multiplicity, and differences against the sample
    angles: one diagnostic per branch.  Branches that vanish together swap
    order across the root, so the left values in ascending order pair with
    the right values in descending order.  Purely informational; no verdict
    consumes it.
    """
    root = profile.jump_angles[jump_index]
    lo, hi = root.interval
    arcs = arc_z_ranges(profile.jump_angles)
    delta = Fraction(1, 2**20)
    # angle-left of the root means larger z
    left_point = sample_point_in_z_range(hi, min(hi + delta, arcs[jump_index][1]))
    right_point = sample_point_in_z_range(max(lo - delta, arcs[jump_index + 1][0]), lo)
    lefts = _eigenvalues_nearest_zero(_b_pairs(v, left_point), root.multiplicity)
    rights = _eigenvalues_nearest_zero(_b_pairs(v, right_point), root.multiplicity)
    return tuple(
        SlopeDiagnostic(left_point.angle, right_point.angle, left, right)
        for left, right in zip(lefts, reversed(rights))
    )


def to_paper_parametrization(profile: SignatureProfile) -> SignatureProfile:
    """Rewrite reported angles in the halved convention (w = t^2, alpha = phi/2).

    Step data is untouched; only the witnesses' angle bounds are halved, so
    jumps are reported at alpha with e^(2 i alpha) the Alexander root.
    """
    halved = tuple(
        replace(w, angle_bounds=(w.angle_bounds[0] / 2, w.angle_bounds[1] / 2))
        for w in profile.jump_angles
    )
    return replace(profile, jump_angles=halved, paper_angles=True)
