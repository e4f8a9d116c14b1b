"""Exact linear algebra.

Dense matrices as lists of row lists.  One generic elimination,
``row_echelon``, serves every field: it only uses ``-``, ``*``, ``/`` and
a zero test, so rationals and ``Scalar`` both go through it.  Kernels,
ranks, inverses and solves are built on it; products need only a ring.
Determinants come from the fraction-free elimination ``fraction_free``
instead, which needs only an integral domain with exact ``//``:
``mat_det`` runs it on integer rows, and loop determinants and inverses
run it on Laurent polynomials.

Plus a unimodular completion of a primitive integer vector, used to
change coordinates so that a chosen lattice direction becomes the first
basis vector.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import reduce
from math import lcm
from operator import add, mul
from typing import Callable, Sequence


def identity(n: int) -> list[list[Q]]:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def _dot(xs: Sequence, ys: Sequence):
    """Sum of the products of two nonempty vectors over any ring."""
    return reduce(add, map(mul, xs, ys))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    assert all(len(r) == len(b) for r in a), "inner dimensions must agree"
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [_dot(row, v) for row in a]


def mat_det(a: Sequence[Sequence[Q]]) -> Q:
    """Determinant of a square rational matrix.

    Each row is scaled to integers by the lcm of its denominators, so the
    elimination divides integers exactly; the product of the scales is
    divided out at the end.
    """
    rows, scale = [], 1
    for row in a:
        s = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    m, pivots, sign = fraction_free(rows)
    if len(pivots) < len(rows):
        return Q(0)
    return Q(sign * m[-1][-1], scale) if m else Q(1)


def mat_inv(a: Sequence[Sequence[Q]]) -> list[list[Q]]:
    """Inverse of a square rational matrix; ValueError if singular."""
    n = len(a)
    ident = identity(n)
    aug = [[Q(x) for x in row] + ident[i] for i, row in enumerate(a)]
    rref, pivots = row_echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rref]


def is_integral(v: Sequence[Q]) -> bool:
    return all(Q(x).denominator == 1 for x in v)


# -- generic elimination ---------------------------------------------------


def row_echelon(
    rows: list[list], is_zero: Callable = lambda x: x == 0
) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over a field given by operator arithmetic.

    Returns (rref rows, pivot column indices).  Input is not mutated.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if not is_zero(m[r][col])), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        lead = m[row][col]
        m[row] = [x / lead for x in m[row]]
        for r in range(len(m)):
            if r != row and not is_zero(m[r][col]):
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def fraction_free(
    rows: list[list], is_zero: Callable = lambda x: x == 0
) -> tuple[list[list], list[int], int]:
    """Fraction-free Gauss-Jordan elimination over an integral domain.

    Bareiss's method (Bareiss 1968): the pivot row is kept, and every
    other row r becomes (p*r - r[c]*pivot row) // prev, where p is the
    pivot at column c and prev the one before.  After step k every entry
    is a (k+1)-minor of the input, so ``//`` must only divide exactly.
    Returns (rows, pivot column indices, sign of the row swaps); a square
    block of full rank ends as d*I with d = sign*det.  Input is not mutated.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    sign, prev, row = 1, None, 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(row, len(m)) if not is_zero(m[r][col])), None)
        if pivot is None:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
            sign = -sign
        top = m[row]
        lead = top[col]
        for r in range(len(m)):
            if r != row:
                f = m[r][col]
                new = [lead * x - f * y for x, y in zip(m[r], top)]
                m[r] = new if prev is None else [x // prev for x in new]
        prev = lead
        pivots.append(col)
        row += 1
    return m, pivots, sign


def rank(rows: list[list], is_zero: Callable = lambda x: x == 0) -> int:
    return len(row_echelon(rows, is_zero)[1])


def nullspace(
    rows: list[list],
    zero,
    one,
    is_zero: Callable = lambda x: x == 0,
) -> list[list]:
    """Basis of the right kernel, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = row_echelon(rows, is_zero)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for prow, pcol in zip(rref, pivots):
            vec[pcol] = zero - prow[f]
        basis.append(vec)
    return basis


# -- unimodular completion --------------------------------------------------


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and g = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def unimodular_completion(v: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """For a primitive integer vector v return (U, V) with U unimodular,
    U·v = e1 and V = U^{-1} (so the first column of V is v)."""
    n = len(v)
    if n == 0 or all(x == 0 for x in v):
        raise ValueError("vector must be nonzero")
    w = [int(x) for x in v]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n):
        if w[i] == 0:
            continue
        g, s, t = xgcd(w[0], w[i])
        a, b = w[0] // g, w[i] // g
        # rows of U: [[s, t], [-b, a]] acting on (row0, rowi); det = 1
        row0 = [s * x + t * y for x, y in zip(u[0], u[i])]
        rowi = [-b * x + a * y for x, y in zip(u[0], u[i])]
        u[0], u[i] = row0, rowi
        # columns of V pick up the inverse [[a, -t], [b, s]]
        for r in range(n):
            c0, ci = vinv[r][0], vinv[r][i]
            vinv[r][0] = a * c0 + b * ci
            vinv[r][i] = -t * c0 + s * ci
        w[0], w[i] = g, 0
    if w[0] == -1:
        u[0] = [-x for x in u[0]]
        for r in range(n):
            vinv[r][0] = -vinv[r][0]
        if n > 1:  # restore det +1 by negating a second row/column pair
            u[1] = [-x for x in u[1]]
            for r in range(n):
                vinv[r][1] = -vinv[r][1]
        w[0] = 1
    if w[0] != 1:
        raise ValueError(f"vector is not primitive (content {w[0]})")
    return u, vinv
