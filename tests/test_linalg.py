"""Tests for exact linear algebra."""

from fractions import Fraction as Q
from itertools import permutations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtalg.linalg import (
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
