"""Tests for exact linear algebra."""

from fractions import Fraction as Q
from itertools import permutations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtalg.linalg import (
    Residue,
    charpoly,
    identity,
    is_integral,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    row_echelon,
    unimodular_completion,
    xgcd,
)
from qtalg.scalars import Scalar

entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
mats3 = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)
vecs3 = st.lists(entries, min_size=3, max_size=3)


def test_det_known():
    assert mat_det([[Q(1), Q(2)], [Q(3), Q(4)]]) == -2
    assert mat_det(identity(4)) == 1
    assert mat_det([[Q(1), Q(2)], [Q(2), Q(4)]]) == 0


def test_det_of_a_symmetrized_cartan_matrix_with_denominators():
    # G2 with d = (1, 1/3): the leading minors are 2 and 1/3
    sym = [[Q(2), Q(-1)], [Q(-1), Q(2, 3)]]
    assert mat_det([row[:1] for row in sym[:1]]) == 2
    assert mat_det(sym) == Q(1, 3)
    assert mat_det([]) == 1


@given(mats3)
@settings(max_examples=50, deadline=None)
def test_det_of_a_rational_matrix_matches_the_leibniz_sum(m):
    def sign(p):
        return (-1) ** sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))

    leibniz = sum(sign(p) * prod(m[i][p[i]] for i in range(3)) for p in permutations(range(3)))
    assert mat_det(m) == leibniz


@given(mats3, vecs3)
@settings(max_examples=50, deadline=None)
def test_inverse_round_trip(m, b):
    assume(mat_det(m) != 0)
    inv = mat_inv(m)
    assert mat_mul(m, inv) == identity(3)
    assert mat_mul(inv, m) == identity(3)
    # inv solves m x = b
    assert mat_vec(m, mat_vec(inv, b)) == b


sparse_ints = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])


square_ints = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(sparse_ints, min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(square_ints)
@settings(max_examples=60, deadline=None)
def test_charpoly_agrees_with_determinants_and_reduces_mod_p(rows):
    """det(t·I - a) at n + 1 points fixes the monic degree-n polynomial; the
    same integer matrix mod p has that polynomial mod p, whatever pivots
    vanish there."""
    n = len(rows)
    poly = charpoly([[Q(x) for x in row] for row in rows], Q(0), Q(1))
    assert len(poly) == n + 1 and poly[n] == 1
    for t in range(n + 1):
        shifted = [
            [(t if i == j else 0) - x for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        assert sum(c * t**k for k, c in enumerate(poly)) == mat_det(shifted)
    p = 5
    residues = [[Residue(x, p) for x in row] for row in rows]
    modp = charpoly(residues, Residue(0, p), Residue(1, p))
    assert [c.value for c in modp] == [int(c) % p for c in poly]


def test_rank_and_echelon():
    assert rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1
    rref, pivots = row_echelon([[Q(0), Q(2)], [Q(3), Q(1)]])
    assert pivots == [0, 1]
    assert rref == [[Q(1), Q(0)], [Q(0), Q(1)]]


def test_nullspace_rational():
    basis = nullspace([[Q(1), Q(2)]], Q(0), Q(1))
    assert len(basis) == 1
    assert mat_vec([[Q(1), Q(2)]], basis[0]) == [Q(0)]


def test_nullspace_over_scalar_field():
    q = Scalar.q()
    m = [[Scalar.one(), q], [q.inverse(), Scalar.one()]]
    is_zero = lambda s: s.is_zero()
    assert rank(m, is_zero) == 1
    basis = nullspace(m, Scalar.zero(), Scalar.one(), is_zero)
    assert len(basis) == 1
    for row in m:
        acc = Scalar.zero()
        for a, x in zip(row, basis[0]):
            acc = acc + a * x
        assert acc.is_zero()


P = 13


def residue_rows(min_rows=1, max_rows=4):
    """Matrices over GF(P) with four columns."""
    return st.lists(
        st.lists(st.integers(0, P - 1), min_size=4, max_size=4),
        min_size=min_rows,
        max_size=max_rows,
    ).map(lambda rows: [[Residue(x, P) for x in row] for row in rows])


def test_residue_field():
    a, b = Residue(3, 7), Residue(12, 7)
    assert a == 10 and b == Residue(5, 7) and a != b
    assert a + b == 1 and a - b == 5 and a * b == 1
    assert (a / b) * b == a
    with pytest.raises(ValueError):
        a / Residue(7, 7)


@given(residue_rows())
@settings(max_examples=60, deadline=None)
def test_nullspace_mod_p_annihilates_the_rows(m):
    zero, one = Residue(0, P), Residue(1, P)
    basis = nullspace(m, zero, one)
    assert len(basis) == 4 - rank(m)
    for vec in basis:
        assert mat_vec(m, vec) == [zero] * len(m)
    if basis:
        assert rank(basis) == len(basis)


@given(residue_rows(), st.lists(st.integers(0, P - 1), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_row_echelon_mod_p_solves_for_coordinates(m, raw):
    # independent vectors: the nonzero rows of an echelon form
    rref, pivots = row_echelon(m)
    basis = rref[: len(pivots)]
    assume(basis)
    d = len(basis)
    coords = [Residue(x, P) for x in raw[:d]]
    columns = [list(col) for col in zip(*basis)]
    inside = mat_vec(columns, coords)
    # columns: the basis, then a target; its coordinates end each pivot row
    aug = [list(col) for col in zip(*basis, inside)]
    solved, spivots = row_echelon(aug)
    assert spivots == list(range(d))
    assert [row[d] for row in solved[:d]] == coords
    # e_c for a non-pivot column c has no pivot coordinates, so it is not a
    # combination of the rows: as a target it adds a pivot
    free = [c for c in range(4) if c not in pivots]
    if free:
        outside = [Residue(int(i == free[0]), P) for i in range(4)]
        aug = [list(col) for col in zip(*basis, outside)]
        assert row_echelon(aug)[1] == list(range(d + 1))


@given(residue_rows(), residue_rows(4, 4))
@settings(max_examples=30, deadline=None)
def test_mat_mul_mod_p_agrees_with_integer_products(a, b):
    prod = mat_mul(a, b)
    for i, row in enumerate(a):
        for j in range(4):
            assert prod[i][j] == sum(row[k].value * b[k][j].value for k in range(4))


def test_mat_mul_over_scalars():
    q, one, zero = Scalar.q(), Scalar.one(), Scalar.zero()
    m = [[one, q], [zero, one]]
    assert mat_mul(m, m) == [[one, q + q], [zero, one]]


def test_is_integral():
    assert is_integral([Q(2), Q(-3)])
    assert not is_integral([Q(1, 2)])


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_xgcd(a, b):
    g, s, t = xgcd(a, b)
    assert g >= 0
    assert g == s * a + t * b
    if a or b:
        assert a % g == 0 and b % g == 0


@pytest.mark.parametrize(
    "v",
    [(1,), (-1,), (0, 1), (2, 3), (-1, 0, 0), (6, 10, 15), (0, 0, -1, 0), (3, -5)],
)
def test_unimodular_completion(v):
    u, vinv = unimodular_completion(v)
    n = len(v)
    e1 = [1] + [0] * (n - 1)
    assert [sum(u[i][k] * v[k] for k in range(n)) for i in range(n)] == e1
    prod = [
        [sum(u[i][k] * vinv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert [vinv[i][0] for i in range(n)] == list(v)
    assert mat_det(u) in (1, -1)


def test_unimodular_completion_rejects_imprimitive():
    with pytest.raises(ValueError):
        unimodular_completion((2, 4))
    with pytest.raises(ValueError):
        unimodular_completion((0, 0))
