"""Named Seifert matrices and random valid-fixture generators.

Random fixtures are built by congruence W = U^T V U of known-valid seeds
with unimodular integer U (products of elementary shears and signed swaps),
which guarantees validity by construction and keeps entries desk-scale.
"""

from __future__ import annotations

import random
from typing import Sequence

from .corpus import CorpusEntry
from .seifert import SeifertMatrix, block_sum, mirror, validate

UNKNOT = validate([], name="unknot")
TREFOIL = validate([[-1, 1], [0, -1]], name="trefoil")
FIGURE_EIGHT = validate([[1, 1], [0, -1]], name="figure8")
KNOT_5_2 = validate([[-1, 1], [0, -2]], name="5_2")
STEVEDORE = validate([[1, 1], [0, -2]], name="6_1")
TORUS_2_5 = validate(
    [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]], name="T(2,5)"
)
TORUS_2_7 = validate(
    [
        [-1, 1, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0],
        [0, 0, -1, 1, 0, 0],
        [0, 0, 0, -1, 1, 0],
        [0, 0, 0, 0, -1, 1],
        [0, 0, 0, 0, 0, -1],
    ],
    name="T(2,7)",
)

SEEDS: tuple[SeifertMatrix, ...] = (
    TREFOIL,
    FIGURE_EIGHT,
    KNOT_5_2,
    STEVEDORE,
    TORUS_2_5,
)


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
    n = v.size
    vu = [
        [sum(v.entries[i][k] * u[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    w = [
        [sum(u[k][i] * vu[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    name = f"{v.name}~" if v.name else None
    return validate(w, name=name)


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
    entries = []
    for i in range(count):
        v = random_valid_matrix(rng, max_genus=max_genus)
        entries.append(CorpusEntry(name=f"fixture_{i:03d}", seifert=v))
    return entries
