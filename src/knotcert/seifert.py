"""Integer Seifert matrices: validation and basic algebra.

A Seifert matrix is the 2g x 2g integer linking matrix V of a basis of a
genus-g Seifert surface, with V[i][j] the linking number of the i-th basis
curve with the positive pushoff of the j-th.  V - V^T is then the
intersection form of the surface, which forces det(V - V^T) = 1 exactly.
The 0 x 0 matrix is accepted and represents the unknot.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

from .errors import NonSquareError, NonSymplecticError, OddSizeError

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SeifertMatrix:
    """A validated 2g x 2g integer linking matrix.

    Instances are immutable; construct them through :func:`validate`.
    """

    entries: Matrix
    name: str | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return len(self.entries) // 2

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def __str__(self) -> str:
        label = self.name or "V"
        return f"{label}({self.size}x{self.size})"


@dataclass(frozen=True)
class KnotMetadata:
    """User assertions about the knot exterior that no matrix can decide.

    assume_m0_prime additionally asserts that the 0-surgery is prime, which
    strengthens the certified slope interval from (-a,0)u(0,a) to (-a,a).
    """

    assume_irreducible: bool = True
    assume_homology_sphere: bool = True
    assume_m0_prime: bool = False


def _as_matrix(entries: Sequence[Sequence[int]]) -> Matrix:
    rows = []
    for row in entries:
        if any(isinstance(x, bool) for x in row):
            raise TypeError("matrix entries must be integers, not booleans")
        # operator.index rejects floats and strings instead of truncating
        rows.append(tuple(operator.index(x) for x in row))
    return tuple(rows)


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                assert r == 0, "Bareiss division must be exact over the integers"
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def validate(entries: Sequence[Sequence[int]], name: str | None = None) -> SeifertMatrix:
    """Check that ``entries`` is a square, even-sized matrix with det(V - V^T) = 1.

    Raises NonSquareError, OddSizeError, or NonSymplecticError; the sign of
    the determinant matters (a 2g x 2g integral symplectic form always has
    determinant +1, so -1 already signals a non-Seifert input).
    """
    m = _as_matrix(entries)
    n = len(m)
    if any(len(row) != n for row in m):
        raise NonSquareError(f"matrix is {n} rows but has a row of different length")
    if n % 2 != 0:
        raise OddSizeError(f"matrix size {n} is odd; Seifert matrices are 2g x 2g")
    skew = [[m[i][j] - m[j][i] for j in range(n)] for i in range(n)]
    d = det_int(skew)
    if d != 1:
        raise NonSymplecticError(f"det(V - V^T) = {d}, expected 1")
    return SeifertMatrix(entries=m, name=name)


def genus(v: SeifertMatrix) -> int:
    """Genus g of the underlying Seifert surface (half the matrix size)."""
    return v.genus


def block_sum(v1: SeifertMatrix, v2: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal sum, the Seifert matrix of the connected sum."""
    n1, n2 = v1.size, v2.size
    rows = []
    for i in range(n1):
        rows.append(v1.entries[i] + (0,) * n2)
    for i in range(n2):
        rows.append((0,) * n1 + v2.entries[i])
    name = None
    if v1.name and v2.name:
        name = f"{v1.name}#{v2.name}"
    return validate(rows, name=name)


def mirror(v: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix -V^T of the mirror knot; an involution."""
    n = v.size
    rows = [[-v.entries[j][i] for j in range(n)] for i in range(n)]
    name = f"{v.name}*" if v.name else None
    return validate(rows, name=name)


def symmetrized_form(v: SeifertMatrix) -> Matrix:
    """The symmetric matrix V + V^T, whose signature is the classical knot signature."""
    n = v.size
    return tuple(
        tuple(v.entries[i][j] + v.entries[j][i] for j in range(n)) for i in range(n)
    )
