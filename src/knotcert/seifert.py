"""Integer Seifert matrices: validation and basic algebra.

A Seifert matrix is the 2g x 2g integer linking matrix V of a basis of a
genus-g Seifert surface, with V[i][j] the linking number of the i-th basis
curve with the positive pushoff of the j-th.  V - V^T is then the
intersection form of the surface, which forces det(V - V^T) = 1 exactly.
The 0 x 0 matrix is the unknot.  A ``SeifertMatrix`` checks all this when
built, so later stages take det(V - V^T) = 1 as known.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .errors import InternalInconsistencyError, NonSquareError, NonSymplecticError, OddSizeError
from .record import Record

Matrix = tuple[tuple[int, ...], ...]


class SeifertMatrix(Record, uncompared=("name",)):
    """An immutable 2g x 2g integer linking matrix with det(V - V^T) = 1.

    It checks itself when built: entries must be exact integers (else
    TypeError), the matrix square (NonSquareError) and of even size
    (OddSizeError), and det(V - V^T) = 1 exactly (NonSymplecticError; an
    integral symplectic form has determinant +1, so -1 is refused too).
    """

    entries: Matrix
    name: str | None = None

    def __post_init__(self):
        m = tuple(_exact_ints(row, "matrix entries") for row in self.entries)
        n = len(m)
        if any(len(row) != n for row in m):
            raise NonSquareError(f"matrix is {n} rows but has a row of different length")
        if n % 2 != 0:
            raise OddSizeError(f"matrix size {n} is odd; Seifert matrices are 2g x 2g")
        d = det_int([[m[i][j] - m[j][i] for j in range(n)] for i in range(n)])
        if d != 1:
            try:
                shown = f"= {d}"
            except ValueError:  # more digits than the int-to-str limit allows
                shown = f"is a {d.bit_length()}-bit integer"
            raise NonSymplecticError(f"det(V - V^T) {shown}, expected 1")
        object.__setattr__(self, "entries", m)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return len(self.entries) // 2


class KnotMetadata(Record):
    """User assertions about the knot exterior that no matrix can decide.

    assume_m0_prime additionally asserts that the 0-surgery is prime, which
    strengthens the certified slope interval from (-a,0)u(0,a) to (-a,a).
    """

    assume_irreducible: bool = True
    assume_homology_sphere: bool = True
    assume_m0_prime: bool = False


def _exact_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as ints: the one rule for exact integers at the package's edges."""
    values = tuple(values)
    if any(isinstance(x, bool) for x in values):
        raise TypeError(f"{what} must be integers, not booleans")
    # operator.index rejects floats and strings instead of truncating
    return tuple(operator.index(x) for x in values)


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
                if r:
                    raise InternalInconsistencyError("Bareiss division must be exact over the integers")
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def validate(entries: Sequence[Sequence[int]], name: str | None = None) -> SeifertMatrix:
    """The SeifertMatrix of ``entries``; raises as its constructor does."""
    return SeifertMatrix(entries=entries, name=name)


def block_sum(v1: SeifertMatrix, v2: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal sum, the Seifert matrix of the connected sum."""
    n1, n2 = v1.size, v2.size
    rows = [row + (0,) * n2 for row in v1.entries] + [(0,) * n1 + row for row in v2.entries]
    name = f"{v1.name}#{v2.name}" if v1.name and v2.name else None
    return validate(rows, name=name)


def mirror(v: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix -V^T of the mirror knot; an involution."""
    n = v.size
    rows = [[-v.entries[j][i] for j in range(n)] for i in range(n)]
    name = f"{v.name}*" if v.name else None
    return validate(rows, name=name)
