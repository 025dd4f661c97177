"""Named Seifert matrices and random valid-fixture generators.

Random fixtures are built by congruence W = U^T V U of known-valid seeds
with unimodular integer U (products of elementary shears and signed swaps),
which guarantees validity by construction and keeps entries desk-scale.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Sequence

from .corpus import CorpusEntry
from .seifert import SeifertMatrix, block_sum, mirror, validate


def torus_knot(p: int, q: int, name: str | None = None) -> SeifertMatrix:
    """The validated V(T(p,q)) = -(A_(p-1) (x) A_(q-1)), named "T(p,q)" by default.

    A_k is the k x k matrix with 1 on the diagonal and -1 just above it; the
    Kronecker product is the Sebastiani-Thom join of the Seifert forms of
    x^p and y^q (Milnor 1968).  At p = 2 it is -1 on the diagonal, 1 above.
    """
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is not a knot: p and q must be positive and coprime")

    def a(i: int, j: int) -> int:
        return (j == i) - (j == i + 1)

    pairs = [(i, k) for i in range(p - 1) for k in range(q - 1)]  # Kronecker row order
    rows = [[-a(i, j) * a(k, l) for j, l in pairs] for i, k in pairs]
    return validate(rows, name=name or f"T({p},{q})")


UNKNOT = validate([], name="unknot")
TREFOIL = torus_knot(2, 3, name="trefoil")
FIGURE_EIGHT = validate([[1, 1], [0, -1]], name="figure8")
KNOT_5_2 = validate([[-1, 1], [0, -2]], name="5_2")
STEVEDORE = validate([[1, 1], [0, -2]], name="6_1")
TORUS_2_5 = torus_knot(2, 5)
TORUS_2_7 = torus_knot(2, 7)

SEEDS: tuple[SeifertMatrix, ...] = (TREFOIL, FIGURE_EIGHT, KNOT_5_2, STEVEDORE, TORUS_2_5)


def granny_knot() -> SeifertMatrix:
    """Trefoil # trefoil: double root with jump -4."""
    return block_sum(TREFOIL, TREFOIL)


def square_knot() -> SeifertMatrix:
    """Trefoil # mirror trefoil: double root with zero jump."""
    return block_sum(TREFOIL, mirror(TREFOIL))


def random_unimodular(n: int, rng: random.Random, steps: int = 4) -> list[list[int]]:
    """Unimodular integer matrix as a product of shears and signed swaps."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return u
    for _ in range(steps):
        op = rng.random()
        i, j = rng.sample(range(n), 2)
        if op < 0.8:
            c = rng.choice((-1, 1))
            for k in range(n):  # row_i += c * row_j
                u[i][k] += c * u[j][k]
        else:
            for k in range(n):  # signed swap keeps |det| = 1
                u[i][k], u[j][k] = u[j][k], -u[i][k]
    return u


def congruent(v: SeifertMatrix, u: Sequence[Sequence[int]]) -> SeifertMatrix:
    """U^T V U, revalidated; same knot data in a different surface basis."""
    e, n = v.entries, v.size
    vu = [[sum(e[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    w = [[sum(u[k][i] * vu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return validate(w, name=f"{v.name}~" if v.name else None)


def random_valid_matrix(rng: random.Random, max_genus: int = 3) -> SeifertMatrix:
    """A random valid Seifert matrix: block sums of seeds, congruence-twisted."""
    v = rng.choice(SEEDS)
    while v.genus < max_genus and rng.random() < 0.4:
        extra = rng.choice(SEEDS + (mirror(rng.choice(SEEDS)),))
        if v.genus + extra.genus > max_genus:
            break
        v = block_sum(v, extra)
    if rng.random() < 0.15:
        v = mirror(v)
    return congruent(v, random_unimodular(v.size, rng))


def random_corpus(count: int, seed: int = 0, max_genus: int = 3) -> list[CorpusEntry]:
    """Deterministic list of corpus entries for demos and determinism checks."""
    rng = random.Random(seed)
    return [
        CorpusEntry(name=f"fixture_{i:03d}", seifert=random_valid_matrix(rng, max_genus=max_genus))
        for i in range(count)
    ]
