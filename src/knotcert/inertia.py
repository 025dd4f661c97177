"""Exact equivariant signature profiles over the unit circle.

The Hermitian form evaluated here is B(w) = (1-w)V + (1-conj(w))V^T for w on
the unit circle.  This closed form comes from expanding
(t^(-1/2) - t^(1/2)) (t^(1/2) V - t^(-1/2) V^T) = (1-t)V + (1-1/t)V^T and
substituting 1/t = conj(t) on |t| = 1; no half-integer powers survive, so B
is evaluable at any Gaussian-rational circle point.

Sampling points are taken in tan-half-angle form
w = ((1-u^2) + 2u*i)/(1+u^2) with u rational and positive, which sweeps the
open upper semicircle (phi in (0, pi)) through Gaussian-rational points; the
point w = -1 (phi = pi) is handled separately via B(-1) = 2(V + V^T).
Inertia of a Hermitian Gaussian-rational matrix is read off exactly from its
characteristic polynomial: a Hermitian characteristic polynomial is
real-rooted, so Descartes' rule counts positive and negative eigenvalues
exactly once zero roots are stripped as trailing zero coefficients.

Signature jumps can occur only at the isolated Alexander roots, so the
signature is a step function; every plateau is sampled once, strictly
between consecutive isolating intervals.

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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import InternalInconsistencyError, SampleOnRootError
from .laurent import (
    UnitRootWitness,
    _isolate_squarefree,
    _pderiv,
    _pdivexact,
    _pgcd,
    _primitive,
    _refine_once,
    alexander_poly,
    sturm_chain,
    to_z_poly,
)
from .seifert import SeifertMatrix, symmetrized_form


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x: "GaussianRational | Fraction | int") -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(Fraction(x))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def scale(self, s: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * s, self.im * s)


_ZERO = GaussianRational(Fraction(0))
_ONE = GaussianRational(Fraction(1))

CMatrix = list[list[GaussianRational]]


@dataclass(frozen=True)
class UnitCirclePoint:
    """A Gaussian-rational point on the open upper unit semicircle, or w = -1.

    ``u`` is the tan-half-angle parameter (u = tan(phi/2) > 0); ``u = None``
    encodes the distinguished point w = -1.
    """

    u: Fraction | None

    def __post_init__(self):
        if self.u is not None and self.u <= 0:
            raise ValueError("tan-half-angle parameter must be positive")

    @staticmethod
    def minus_one() -> "UnitCirclePoint":
        return UnitCirclePoint(None)

    @property
    def is_minus_one(self) -> bool:
        return self.u is None

    @property
    def omega(self) -> GaussianRational:
        if self.u is None:
            return GaussianRational(Fraction(-1))
        d = 1 + self.u * self.u
        return GaussianRational((1 - self.u * self.u) / d, 2 * self.u / d)

    @property
    def z(self) -> Fraction:
        """z = w + conj(w) = 2 cos(phi)."""
        if self.u is None:
            return Fraction(-2)
        return 2 * (1 - self.u * self.u) / (1 + self.u * self.u)

    @property
    def angle(self) -> float:
        return math.pi if self.u is None else 2.0 * math.atan(float(self.u))


@dataclass(frozen=True)
class JumpReport:
    """One-sided signature limits across a single unit root."""

    root: UnitRootWitness
    left_value: int
    right_value: int
    jump: int
    odd_multiplicity: bool
    transversal_simple: bool


@dataclass(frozen=True)
class SignatureProfile:
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


def _to_cmatrix(entries) -> CMatrix:
    return [[GaussianRational.of(x) for x in row] for row in entries]


def _is_hermitian(h: CMatrix) -> bool:
    n = len(h)
    return all(
        h[i][j].re == h[j][i].re and h[i][j].im == -h[j][i].im
        for i in range(n)
        for j in range(i, n)
    )


def _mat_mul(a: CMatrix, b: CMatrix) -> CMatrix:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = _ZERO
            for k in range(n):
                if not a[i][k].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def char_poly(h: CMatrix) -> list[Fraction]:
    """Coefficients of det(x*I - H), ascending, via Faddeev-LeVerrier.

    All arithmetic is exact; for Hermitian input every coefficient is real
    and this is asserted.
    """
    n = len(h)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    if n == 0:
        return coeffs
    m = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    hm = _mat_mul(h, m)
    for k in range(1, n + 1):
        if k > 1:
            c = coeffs[n - k + 1]
            m = [
                [hm[i][j] + (GaussianRational(c) if i == j else _ZERO) for j in range(n)]
                for i in range(n)
            ]
            hm = _mat_mul(h, m)
        tr_re = sum((hm[i][i].re for i in range(n)), Fraction(0))
        tr_im = sum((hm[i][i].im for i in range(n)), Fraction(0))
        if tr_im != 0:
            raise InternalInconsistencyError("characteristic polynomial not real")
        coeffs[n - k] = -tr_re / k
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
    negatives = _descartes_positive([c if i % 2 == 0 else -c for i, c in enumerate(stripped)])
    if positives + negatives != n - zeros:
        raise InternalInconsistencyError(
            "Descartes counts do not exhaust the spectrum; input was not Hermitian"
        )
    return positives, negatives, zeros


def inertia(h) -> tuple[int, int, int]:
    """Exact (positives, negatives, zeros) eigenvalue counts of a Hermitian matrix.

    Entries may be GaussianRational, Fraction, or int.  The signature is
    positives - negatives.
    """
    cm = _to_cmatrix(h)
    if not _is_hermitian(cm):
        raise ValueError("inertia requires a Hermitian matrix")
    p, n, z = _inertia_from_char_poly(char_poly(cm))
    return p, n, z


def _inertia_and_det(h: CMatrix) -> tuple[int, int, int, Fraction]:
    coeffs = char_poly(h)
    p, n, z = _inertia_from_char_poly(coeffs)
    size = len(coeffs) - 1
    det = coeffs[0] if size % 2 == 0 else -coeffs[0]
    return p, n, z, det


# ---------------------------------------------------------------------------
# the Hermitian form B


def b_matrix_at(v: SeifertMatrix, point: UnitCirclePoint) -> CMatrix:
    """B(w) = (1-w)V + (1-conj(w))V^T at a Gaussian-rational circle point.

    At w = -1 this reduces to the integer matrix 2(V + V^T).
    """
    n = v.size
    if point.is_minus_one:
        sym = symmetrized_form(v)
        return [[GaussianRational(Fraction(2 * sym[i][j])) for j in range(n)] for i in range(n)]
    a = GaussianRational(Fraction(1)) - point.omega
    abar = a.conjugate()
    return [
        [
            a.scale(Fraction(v.entries[i][j])) + abar.scale(Fraction(v.entries[j][i]))
            for j in range(n)
        ]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# sample selection between isolating intervals


def _rational_sqrt_between(qa: Fraction, qb: Fraction) -> Fraction:
    """Some positive rational u with qa < u^2 < qb, for 0 <= qa < qb."""
    target = (qa + qb) / 2
    est = math.sqrt(float(target)) if target > 0 else 0.0
    for limit in (10**3, 10**6, 10**12):
        u = Fraction(est).limit_denominator(limit)
        if u > 0 and qa < u * u < qb:
            return u
    lo, hi = Fraction(0), max(Fraction(1), qb)
    while True:
        mid = (lo + hi) / 2
        m2 = mid * mid
        if m2 <= qa:
            lo = mid
        elif m2 >= qb:
            hi = mid
        else:
            return mid


def sample_point_in_z_range(z_lo: Fraction, z_hi: Fraction) -> UnitCirclePoint:
    """A Gaussian-rational circle point whose z lies strictly in (z_lo, z_hi).

    Both endpoints must satisfy -2 <= z_lo < z_hi <= 2; the returned point is
    strictly interior, so callers may pass arc endpoints directly.
    """
    if not (-2 <= z_lo < z_hi <= 2):
        raise ValueError(f"bad z range ({z_lo}, {z_hi})")
    third = (z_hi - z_lo) / 3
    a, b = z_lo + third, z_hi - third
    # u is decreasing in z: u^2 = (2-z)/(2+z)
    qa = (2 - b) / (2 + b)
    qb = (2 - a) / (2 + a)
    u = _rational_sqrt_between(qa, qb)
    point = UnitCirclePoint(u)
    assert z_lo < point.z < z_hi
    return point


def _arc_z_ranges(
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


def signature_profile(
    v: SeifertMatrix,
    witnesses: Sequence[UnitRootWitness],
    max_retries: int = 3,
) -> SignatureProfile:
    """Evaluate the signature step function of B over the upper semicircle.

    ``witnesses`` must come from isolating the roots of the z-form of
    alexander_poly(v) (pairwise disjoint intervals); each open arc between
    consecutive roots is sampled once at an exact interior point.  Every
    accepted sample must be nonsingular, the first plateau must be 0, and the
    final plateau must agree with the closed-form value at w = -1; violations
    raise, since they are mathematically impossible for consistent inputs.
    """
    by_angle = sorted(witnesses, key=lambda w: w.interval, reverse=True)
    plateaus: list[int] = []
    samples: list[UnitCirclePoint] = []
    dets: list[Fraction] = []
    for z_lo, z_hi in _arc_z_ranges(by_angle):
        result = None
        window = (z_lo, z_hi)
        for _ in range(max_retries + 1):
            point = sample_point_in_z_range(*window)
            p, n, zeros, det = _inertia_and_det(b_matrix_at(v, point))
            if zeros == 0:
                result = (point, p - n, det)
                break
            # singular sample: shrink the window toward its lower end and retry
            window = (window[0], point.z)
        if result is None:
            raise SampleOnRootError(
                f"no nonsingular sample found in z range ({z_lo}, {z_hi})"
            )
        point, sig, det = result
        if sig % 2 != 0:
            raise InternalInconsistencyError("odd plateau signature")
        plateaus.append(sig)
        samples.append(point)
        dets.append(det)

    if plateaus[0] != 0:
        raise InternalInconsistencyError(
            f"signature near w = 1 is {plateaus[0]}, expected 0"
        )

    p, n, zeros, det_m1 = _inertia_and_det(b_matrix_at(v, UnitCirclePoint.minus_one()))
    if zeros != 0:
        raise InternalInconsistencyError("B(-1) singular; Delta(-1) must be odd")
    if p - n != plateaus[-1]:
        raise InternalInconsistencyError(
            "signature at w = -1 disagrees with the final plateau"
        )

    return SignatureProfile(
        jump_angles=tuple(by_angle),
        plateau_values=tuple(plateaus),
        value_at_minus_one=p - n,
        genus=v.genus,
        arc_samples=tuple(samples),
        arc_dets=tuple(dets),
        det_at_minus_one=det_m1,
    )


def jump_reports(
    profile: SignatureProfile,
    witnesses: Sequence[UnitRootWitness] | None = None,
) -> list[JumpReport]:
    """Per-root one-sided limits and jumps, ordered by increasing angle.

    ``transversal_simple`` is set purely from multiplicity = 1: a simple root
    forces the single vanishing eigenvalue to cross zero with nonzero slope
    (det B changes sign to first order), so no numerical slope test is run.
    """
    roots = profile.jump_angles if witnesses is None else tuple(
        sorted(witnesses, key=lambda w: w.interval, reverse=True)
    )
    if roots != profile.jump_angles:
        raise ValueError("witnesses do not match the profile's jump set")
    out = []
    for i, w in enumerate(roots):
        left = profile.plateau_values[i]
        right = profile.plateau_values[i + 1]
        jump = right - left
        if abs(jump) > 2 * w.multiplicity:
            raise InternalInconsistencyError(
                f"|jump| = {abs(jump)} exceeds twice the multiplicity {w.multiplicity}"
            )
        odd = w.multiplicity % 2 == 1
        if odd and jump == 0:
            raise InternalInconsistencyError(
                "zero jump at an odd-multiplicity root contradicts the determinant sign flip"
            )
        out.append(
            JumpReport(
                root=w,
                left_value=left,
                right_value=right,
                jump=jump,
                odd_multiplicity=odd,
                transversal_simple=w.multiplicity == 1,
            )
        )
    return out


def det_sign_crosscheck(
    v: SeifertMatrix,
    profile: SignatureProfile,
    witnesses: Sequence[UnitRootWitness] | None = None,
) -> bool:
    """Verify det B against the signature data on every plateau.

    Three exact checks, any failure returning False:
    * det B(w) = (z-2)^g P(z) at every recorded sample (z = w + conj(w)),
      the determinant factorization that ties B to the Alexander polynomial;
    * sign(det B) = (-1)^((2g - signature)/2) on every plateau (the count of
      negative eigenvalues determines the determinant sign);
    * the determinant sign flips across a root iff its multiplicity is odd.
    """
    p_z = to_z_poly(alexander_poly(v))
    g = v.genus
    roots = profile.jump_angles if witnesses is None else tuple(
        sorted(witnesses, key=lambda w: w.interval, reverse=True)
    )
    if roots != profile.jump_angles:
        return False

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
    for i, w in enumerate(roots):
        flips = (profile.arc_dets[i] > 0) != (profile.arc_dets[i + 1] > 0)
        if flips != (w.multiplicity % 2 == 1):
            return False
    return True


@dataclass(frozen=True)
class SlopeDiagnostic:
    """Display-only finite-difference data for one root crossing."""

    left_angle: float
    right_angle: float
    left_eigenvalue: float
    right_eigenvalue: float

    @property
    def slope(self) -> float:
        return (self.right_eigenvalue - self.left_eigenvalue) / (
            self.right_angle - self.left_angle
        )


def _eigenvalue_nearest_zero(h: CMatrix) -> float:
    """Smallest-magnitude eigenvalue of a nonsingular Hermitian matrix.

    Exact route: integer-scale the characteristic polynomial, take its
    square-free part, Sturm-isolate every eigenvalue, refine the interval
    nearest zero, and only then round to float.
    """
    coeffs = char_poly(h)
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ip = _primitive([int(c * den) for c in coeffs])
    radical = _pdivexact(ip, _pgcd(ip, _pderiv(ip)))
    chain = sturm_chain(radical)
    bound = 1 + Fraction(max(abs(c) for c in radical), abs(radical[-1]))
    width = Fraction(1, 2**48)
    resolved = []
    for a, b in _isolate_squarefree(chain, -bound, bound):
        # narrow before comparing distances, else a wide interval whose
        # endpoint grazes zero shadows the true nearest eigenvalue
        while a < 0 < b or b - a > width:
            a, b = _refine_once(chain, a, b)
        resolved.append((a, b))
    a, b = min(resolved, key=lambda ab: min(abs(ab[0]), abs(ab[1])))
    return float((a + b) / 2)


def transversality_diagnostic(
    v: SeifertMatrix,
    witnesses: Sequence[UnitRootWitness],
    root_index: int,
    offset_bits: int = 20,
) -> SlopeDiagnostic:
    """Finite-difference estimate of the vanishing eigenvalue's slope at a root.

    Samples just outside the isolating interval on both sides (clamped away
    from neighboring roots), finds the eigenvalue nearest zero on each side,
    and differences against the sample angles.  Purely informational; no
    verdict consumes it.
    """
    by_z = sorted(witnesses, key=lambda w: w.interval)
    w = by_z[root_index]
    lo, hi = w.interval
    delta = Fraction(1, 2**offset_bits)
    below = by_z[root_index - 1].interval[1] if root_index > 0 else Fraction(-2)
    above = by_z[root_index + 1].interval[0] if root_index + 1 < len(by_z) else Fraction(2)
    # angle-left of the root means larger z
    left_point = sample_point_in_z_range(hi, min(hi + delta, above))
    right_point = sample_point_in_z_range(max(lo - delta, below), lo)
    return SlopeDiagnostic(
        left_angle=left_point.angle,
        right_angle=right_point.angle,
        left_eigenvalue=_eigenvalue_nearest_zero(b_matrix_at(v, left_point)),
        right_eigenvalue=_eigenvalue_nearest_zero(b_matrix_at(v, right_point)),
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
