"""Loop determinants, inverses and block orders by exhaustive search.

A test oracle for :mod:`qtalg.loopjordan`, which eliminates fraction-free
and builds its block order directly: this is the earlier code, where the
determinant summed over all n! permutations (Leibniz), the inverse was
the adjugate of n^2 Leibniz minors over that determinant, and the block
order was the first of all n! index orders that passes the validity test.
"""

from itertools import permutations

from qtalg.errors import NormalFormError
from qtalg.loopjordan import MatrixLoop, ZPoly


def _perm_sign(perm) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def det(g: MatrixLoop) -> ZPoly:
    total = ZPoly.zero()
    for perm in permutations(range(g.n)):
        term = ZPoly.one()
        for i, j in enumerate(perm):
            e = g.rows[i][j]
            if e.is_zero():
                term = None
                break
            term = term * e
        if term is None:
            continue
        total = total + (term if _perm_sign(perm) > 0 else -term)
    return total


def _minor(g: MatrixLoop, i: int, j: int) -> MatrixLoop:
    return MatrixLoop(
        [
            [e for jj, e in enumerate(row) if jj != j]
            for ii, row in enumerate(g.rows)
            if ii != i
        ]
    )


def inverse(g: MatrixLoop) -> MatrixLoop:
    """Adjugate over determinant; the determinant must be a z-monomial."""
    d = det(g)
    if not d.is_monomial():
        raise ValueError(
            "loop is not invertible: determinant is not a monomial in z"
        )
    m, c = d.as_monomial()
    cinv = c.inverse()
    n = g.n
    if n == 1:
        return MatrixLoop([[ZPoly({-m: cinv})]])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = det(_minor(g, j, i))
            if (i + j) % 2:
                cof = -cof
            row.append(cof.scale(cinv).shift_z(-m))
        rows.append(row)
    return MatrixLoop(rows)


def order_is_valid(h, diag, labels, order) -> bool:
    n = h.n
    for i in range(n):
        for j in range(i):
            if not h.entry(order[i], order[j]).is_zero():
                return False
    seen: list[int] = []
    for k in range(n):
        lab = labels[order[k]]
        if seen and seen[-1] != lab and lab in seen:
            return False
        if not seen or seen[-1] != lab:
            seen.append(lab)
        elif diag[order[k - 1]].qexp < diag[order[k]].qexp:
            return False
    return True


def block_order(h, diag, labels) -> tuple[int, ...]:
    """First index order making blocks contiguous with falling q-exponents."""
    for order in permutations(range(h.n)):
        if order_is_valid(h, diag, labels, order):
            return order
    raise NormalFormError(
        "no ordering makes the loop upper-triangular with contiguous "
        "blocks and falling q-exponents"
    )
