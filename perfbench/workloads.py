"""Seeded benchmark inputs, each carrying the values the program must report.

Every input is a block sum of closed-form pieces whose invariants are known
in closed form: the fixture knots (trefoil, figure-eight, 5_2, 6_1) and the
torus knots T(2,2k+1).  A block sum multiplies Alexander polynomials, adds
signatures at w = -1 and adds multiplicities and jumps at shared roots; a
mirror keeps the Alexander polynomial and negates every signature value; a
congruence twist U^T V U (U a product of shears and signed swaps) changes the
surface basis, and so the entry sizes, but no invariant.

The generators live here, not in the package, so that a change to the
package cannot change what the benchmark feeds it.  The same workload name
and seed always give the same inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

CERTIFIED = "CERTIFIED"
NOT_APPLICABLE = "NOT_APPLICABLE"

# roots closer than this in z are one root; distinct roots of the pieces
# used here are at least 0.05 apart
_SAME_ROOT = 1e-9


@dataclass(frozen=True)
class Root:
    """One unit-circle root in z = 2 cos(phi), with the signature jump across it."""

    z: float
    multiplicity: int
    jump: int


@dataclass(frozen=True)
class Expected:
    """What a correct program reports for one valid Seifert matrix."""

    genus: int
    alexander: dict[int, int]
    roots: tuple[Root, ...]  # by decreasing z, i.e. increasing angle
    sigma: int  # signature at w = -1

    @property
    def verdict(self) -> str:
        # corpus rows leave assume_irreducible at its default, true
        return CERTIFIED if any(r.multiplicity == 1 for r in self.roots) else NOT_APPLICABLE

    @property
    def plateaus(self) -> list[int]:
        values = [0]
        for r in self.roots:
            values.append(values[-1] + r.jump)
        return values


@dataclass(frozen=True)
class Piece:
    """A Seifert matrix with its expected invariants."""

    matrix: tuple[tuple[int, ...], ...]
    expected: Expected


@dataclass(frozen=True)
class Knot:
    """One corpus row; ``expected`` is None for a row the program must reject."""

    name: str
    seifert: list[list[int]]
    expected: Expected | None


@dataclass(frozen=True)
class Invocation:
    """One run of the command line over a corpus file of ``knots``."""

    command: str  # "report", "certify" or "roots"
    knots: tuple[Knot, ...]
    refine_bits: int = 32  # the command line's default, used unless "roots" passes it


def _piece(matrix, alexander, roots, sigma) -> Piece:
    return Piece(
        tuple(tuple(row) for row in matrix),
        Expected(len(matrix) // 2, dict(alexander), tuple(roots), sigma),
    )


def torus(k: int) -> Piece:
    """T(2,2k+1): -1 on the diagonal, 1 above it.

    Delta alternates +-1 over [-k, k]; the k roots z = 2 cos(pi(2j+1)/(2k+1))
    are simple, each with jump -2, so sigma(-1) = -2k.
    """
    n = 2 * k
    matrix = [[-1 if i == j else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    alexander = {e: (-1) ** (k - abs(e)) for e in range(-k, k + 1)}
    roots = [Root(2 * math.cos(math.pi * (2 * j + 1) / (2 * k + 1)), 1, -2) for j in range(k)]
    return _piece(matrix, alexander, roots, -2 * k)


PIECES: dict[str, Piece] = {
    "trefoil": torus(1),
    "figure8": _piece([[1, 1], [0, -1]], {-1: -1, 0: 3, 1: -1}, [], 0),
    "5_2": _piece([[-1, 1], [0, -2]], {-1: 2, 0: -3, 1: 2}, [Root(1.5, 1, -2)], -2),
    "6_1": _piece([[1, 1], [0, -2]], {-1: -2, 0: 5, 1: -2}, [], 0),
    "T(2,5)": torus(2),
}


def piece(name: str) -> Piece:
    if name in PIECES:
        return PIECES[name]
    # "T(2,n)" for odd n >= 3
    n = int(name[len("T(2,") : -1])
    return torus((n - 1) // 2)


def mirror(p: Piece) -> Piece:
    """-V^T: same Alexander polynomial, every signature value negated."""
    n = len(p.matrix)
    e = p.expected
    return _piece(
        [[-p.matrix[j][i] for j in range(n)] for i in range(n)],
        e.alexander,
        [Root(r.z, r.multiplicity, -r.jump) for r in e.roots],
        -e.sigma,
    )


def block_sum(pieces: list[Piece]) -> Piece:
    """Block-diagonal sum: Delta multiplies, sigma(-1), multiplicities and jumps add."""
    size = sum(len(p.matrix) for p in pieces)
    matrix = [[0] * size for _ in range(size)]
    offset = 0
    alexander = {0: 1}
    roots: list[Root] = []
    for p in pieces:
        n = len(p.matrix)
        for i in range(n):
            matrix[offset + i][offset : offset + n] = p.matrix[i]
        offset += n
        product: dict[int, int] = {}
        for e1, c1 in alexander.items():
            for e2, c2 in p.expected.alexander.items():
                product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
        alexander = {e: c for e, c in product.items() if c}
        roots.extend(p.expected.roots)
    merged: list[Root] = []
    for r in sorted(roots, key=lambda r: -r.z):
        if merged and abs(merged[-1].z - r.z) < _SAME_ROOT:
            m = merged[-1]
            merged[-1] = Root(m.z, m.multiplicity + r.multiplicity, m.jump + r.jump)
        else:
            merged.append(r)
    return _piece(matrix, alexander, merged, sum(p.expected.sigma for p in pieces))


def twist(matrix, rng: random.Random, steps: int) -> list[list[int]]:
    """U^T V U for a random unimodular U made of ``steps`` shears and signed swaps.

    More steps give larger entries; the invariants do not change.
    """
    n = len(matrix)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.random()
        i, j = rng.sample(range(n), 2)
        if op < 0.8:
            c = rng.choice((-1, 1))
            for k in range(n):
                u[i][k] += c * u[j][k]
        else:
            for k in range(n):
                u[i][k], u[j][k] = u[j][k], -u[i][k]
    vu = [[sum(matrix[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * vu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _twisted_sum(names, rng: random.Random, steps: int) -> tuple[list[list[int]], Expected]:
    pieces = [mirror(piece(n)) if rng.random() < 0.5 else piece(n) for n in names]
    p = block_sum(pieces)
    return twist(p.matrix, rng, steps), p.expected


def _corrupt(matrix: list[list[int]], kind: int) -> list[list[int]]:
    """A row ``validate`` rejects: odd size, non-square, or det(V - V^T) != 1."""
    if kind == 0:
        return [row[:-1] for row in matrix[:-1]]
    if kind == 1:
        return [list(row) for row in matrix[:-1]] + [list(matrix[-1][:-1])]
    # det(2V - 2V^T) = 4^g
    return [[2 * x for x in row] for row in matrix]


# corpus-report: every multiset of fixture pieces of total genus <= 3, each
# repeated so that genus 1, 2 and 3 rows all weigh in; the seed picks the
# mirrors, the twists, the corrupted rows and the row order
CORPUS_REPEATS = {1: 20, 2: 8, 3: 1}
CORPUS_SHEAR_STEPS = 4
CORPUS_CORRUPT_ROWS = 9

# genus-ladder: closed-form T(2,2k+1) for rising k, then twisted block sums of
# rising genus with many shear steps (few roots, some repeated, larger entries).
# Nine knots, so that the median invocation is one knot, T(2,9), whose cost
# does not depend on the seed
LADDER_TORUS_K = (2, 3, 4, 5, 6)
LADDER_SUMS = (
    ("trefoil", "figure8"),
    ("trefoil", "trefoil", "figure8"),
    ("T(2,5)", "trefoil", "trefoil"),
    ("T(2,5)", "T(2,5)", "figure8"),
)
LADDER_SHEAR_STEPS = 40

# roots-hires: many simple roots, and block sums with repeated factors,
# isolated to intervals of width 2^-HIRES_BITS
HIRES_BITS = 320
HIRES_TORUS_K = (4, 5, 6, 8)
HIRES_SUMS = (
    ("T(2,9)", "trefoil"),
    ("T(2,5)", "T(2,5)", "trefoil"),
    ("T(2,7)", "T(2,7)"),
)
HIRES_SHEAR_STEPS = 8

WORKLOADS = ("corpus-report", "genus-ladder", "roots-hires")


def _corpus_combos():
    names = sorted(PIECES)
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(names, size):
            genus = sum(PIECES[n].expected.genus for n in combo)
            if genus <= 3:
                yield genus, combo


def corpus_report(rng: random.Random) -> list[Invocation]:
    rows: list[tuple[list[list[int]], Expected | None]] = []
    for genus, combo in _corpus_combos():
        for _ in range(CORPUS_REPEATS[genus]):
            rows.append(_twisted_sum(combo, rng, CORPUS_SHEAR_STEPS))
    valid = list(rows)
    for kind in range(CORPUS_CORRUPT_ROWS):
        matrix, _ = rng.choice(valid)
        rows.append((_corrupt(matrix, kind % 3), None))
    rng.shuffle(rows)
    knots = tuple(Knot(f"k{i:03d}", m, e) for i, (m, e) in enumerate(rows))
    return [Invocation("report", knots)]


def _one_knot_each(rng, command, torus_k, sums, steps, refine_bits=32) -> list[Invocation]:
    knots = [
        Knot(f"T2_{2 * k + 1}", [list(r) for r in torus(k).matrix], torus(k).expected)
        for k in torus_k
    ]
    for i, names in enumerate(sums):
        matrix, expected = _twisted_sum(names, rng, steps)
        knots.append(Knot(f"sum{i}_g{expected.genus}", matrix, expected))
    return [Invocation(command, (k,), refine_bits) for k in knots]


def genus_ladder(rng: random.Random) -> list[Invocation]:
    return _one_knot_each(rng, "certify", LADDER_TORUS_K, LADDER_SUMS, LADDER_SHEAR_STEPS)


def roots_hires(rng: random.Random) -> list[Invocation]:
    return _one_knot_each(rng, "roots", HIRES_TORUS_K, HIRES_SUMS, HIRES_SHEAR_STEPS, HIRES_BITS)


def build(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one round of ``workload``; rounds repeat them."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        "corpus-report": corpus_report,
        "genus-ladder": genus_ladder,
        "roots-hires": roots_hires,
    }[workload](rng)
