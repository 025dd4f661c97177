"""Independent oracles used to cross-check exact results.

The floating-point ones go through numpy's eigensolvers and companion-matrix
root finding; ``inertia_exact`` goes through symmetric elimination over
``Fraction``, ``sturm_count`` through a Sturm remainder sequence over
``Fraction`` and ``laurent_product`` through the convolution of exponent
dicts.  None of them goes through the package's exact code paths, except
``isolate_by_halving``: it starts from the package's separated cells and
checks only how they are refined.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np


def b_matrix_float(entries, phi: float) -> np.ndarray:
    """B(e^(i phi)) = (1-w)V + (1-conj(w))V^T in complex floats."""
    v = np.array(entries, dtype=complex)
    w = cmath.exp(1j * phi)
    return (1 - w) * v + (1 - w.conjugate()) * v.T


def signature_float(entries, phi: float, tol: float = 1e-9) -> int:
    ev = np.linalg.eigvalsh(b_matrix_float(entries, phi))
    return int(np.sum(ev > tol) - np.sum(ev < -tol))


def inertia_float(matrix: np.ndarray, tol: float = 1e-9) -> tuple[int, int, int]:
    ev = np.linalg.eigvalsh(matrix)
    pos = int(np.sum(ev > tol))
    neg = int(np.sum(ev < -tol))
    return pos, neg, len(ev) - pos - neg


def distinct_real_roots_float(
    coeffs_ascending, lo: float = -2.0, hi: float = 2.0,
    imag_tol: float = 1e-8, cluster_tol: float = 1e-6,
) -> list[float]:
    """Distinct real roots of an integer polynomial in the open interval (lo, hi).

    Companion-matrix roots, filtered to (numerically) real ones and merged
    into clusters, so a multiple root counts once.
    """
    coeffs = list(coeffs_ascending)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    roots = np.roots(coeffs[::-1])
    real = sorted(r.real for r in roots if abs(r.imag) < imag_tol and lo < r.real < hi)
    merged: list[float] = []
    for r in real:
        if merged and abs(r - merged[-1]) < cluster_tol:
            continue
        merged.append(r)
    return merged


def inertia_exact(rows) -> tuple[int, int, int, Fraction]:
    """(positives, negatives, zeros, det) of a Hermitian matrix of (re, im) pairs.

    Symmetric elimination over exact pairs: each step takes a nonzero real
    diagonal pivot d, counts its sign and replaces the matrix by the Schur
    complement of d, which is congruent to the rest, so by Sylvester's law of
    inertia the counts add up, and det = d det(rest).  Where the whole
    remaining diagonal is zero but some a_ij is not, the determinant-1
    congruence row_i += c row_j, col_i += conj(c) col_j first makes
    a_ii = 2 Re(conj(c) a_ij), with c = 1 if Re a_ij != 0 and c = i otherwise.
    A zero remainder holds the zero eigenvalues.
    """

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    a = [[(Fraction(re), Fraction(im)) for re, im in row] for row in rows]
    pos = neg = 0
    det = Fraction(1)
    while a:
        n = len(a)
        p = next((i for i in range(n) if a[i][i][0] != 0), None)
        if p is None:
            nonzero = [(i, j) for i in range(n) for j in range(n) if a[i][j] != (0, 0)]
            if not nonzero:
                return pos, neg, n, Fraction(0)
            p, j = nonzero[0]
            c = (Fraction(1), Fraction(0)) if a[p][j][0] != 0 else (Fraction(0), Fraction(1))
            a[p] = [add(x, mul(c, y)) for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] = add(row[p], mul(row[j], (c[0], -c[1])))
        d = a[p][p][0]
        pos, neg, det = pos + (d > 0), neg + (d < 0), det * d
        rest = [i for i in range(n) if i != p]
        row = [(-x / d, -y / d) for x, y in a[p]]  # a - a_.p a_p. / d
        a = [[add(a[r][s], mul(a[r][p], row[s])) for s in rest] for r in rest]
    return pos, neg, 0, det


def laurent_product(*factors) -> dict[int, int]:
    """Product of Laurent polynomials given as {exponent: coefficient} mappings.

    The result has no zero coefficients; the empty product is {0: 1}.
    """
    product = {0: 1}
    for factor in factors:
        terms: dict[int, int] = {}
        for k1, c1 in product.items():
            for k2, c2 in factor.items():
                terms[k1 + k2] = terms.get(k1 + k2, 0) + c1 * c2
        product = {k: c for k, c in terms.items() if c}
    return product


def _horner_sign(f, x: Fraction) -> int:
    value = Fraction(0)
    for c in reversed(f):
        value = value * x + c
    return (value > 0) - (value < 0)


def sturm_count(f, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi] of a square-free integer polynomial f.

    f is given by ascending coefficients.  Sturm's theorem on the sequence
    f_0 = f, f_1 = f', f_(k+1) = -(f_(k-1) mod f_k) over ``Fraction``: the
    count is V(lo) - V(hi), V the sign changes with zeros skipped, which
    also holds where lo or hi is a root.
    """
    f = [Fraction(c) for c in f]
    while f and f[-1] == 0:
        f.pop()
    chain = [f, [k * c for k, c in enumerate(f)][1:]]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        while len(r) >= len(b):  # r mod b, one leading term at a time
            q, shift = r[-1] / b[-1], len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= q * c
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        chain.append([-c for c in r])

    def variations(x: Fraction) -> int:
        signs = [s for s in (_horner_sign(g, x) for g in chain if g) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(Fraction(lo)) - variations(Fraction(hi))


def isolate_by_halving(p, refine_bits: int) -> list[tuple[tuple[Fraction, Fraction], int]]:
    """(interval, multiplicity) per root of P in (-2, 2), by z ascending, refined by halving.

    The refinement ``isolate_unit_roots`` ran before it refined
    quadratically: from the same separated cells and Yun factors
    (``laurent._unit_root_cells``), one halving and one sign per step until
    the cell is no wider than 2^-refine_bits and lies strictly inside (-2, 2).
    ``_halve`` itself is checked against ``sturm_count`` in test_laurent.py.
    """
    from knotcert.laurent import _halve, _sign_int, _unit_root_cells

    out = []
    for ka, kb, d, mult, f in _unit_root_cells(p):
        s_b = _sign_int(f, kb, d)
        wide = (kb - ka) << refine_bits
        while wide > d or ka <= -2 * d or kb >= 2 * d:
            ka, kb, d, s_b = _halve(f, ka, kb, d, s_b)
        out.append(((Fraction(ka, d), Fraction(kb, d)), mult))
    return out
