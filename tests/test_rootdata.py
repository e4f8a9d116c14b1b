"""Tests for root systems, Weyl groups and lattice pairs."""

import random

import pytest
import sympy

from qtalg.linalg import mat_det
from qtalg.rootdata import BUILTIN_CARTAN, LatticePair, RootSystem, validate_cartan

SYSTEMS = {name: RootSystem(name) for name in BUILTIN_CARTAN}


@pytest.mark.parametrize(
    "name,num_roots,order,longest_len",
    [
        ("A1", 2, 2, 1),
        ("A2", 6, 6, 3),
        ("A3", 12, 24, 6),
        ("A4", 20, 120, 10),
        ("B2", 8, 8, 4),
        ("C2", 8, 8, 4),
        ("D4", 24, 192, 12),
        ("G2", 12, 12, 6),
    ],
)
def test_counts(name, num_roots, order, longest_len):
    rs = SYSTEMS[name]
    assert len(rs.roots) == num_roots
    assert rs.order == order
    assert rs.longest_element.length == longest_len
    assert len(rs.positive_roots) == num_roots // 2


@pytest.mark.parametrize(
    "name,theta,theta_coroot",
    [
        ("A2", (1, 1), (1, 1)),
        ("B2", (1, 2), (1, 1)),
        ("C2", (2, 1), (1, 1)),
        ("D4", (1, 2, 1, 1), (1, 2, 1, 1)),
        ("G2", (3, 2), (1, 2)),
    ],
)
def test_highest_root(name, theta, theta_coroot):
    rs = SYSTEMS[name]
    assert rs.highest_root == theta
    assert rs.highest_root_coroot == theta_coroot
    assert rs.root_coroot_pairing(theta, theta_coroot) == 2


def test_roots_are_primitive_in_root_basis():
    import math

    for rs in SYSTEMS.values():
        for r in rs.roots:
            assert math.gcd(*r) == 1 if len(r) > 1 else abs(r[0]) == 1


def test_longest_element_negates_positive_roots():
    rs = SYSTEMS["A2"]
    w0 = rs.longest_element
    image = {w0.act_root(r) for r in rs.positive_roots}
    assert image == {tuple(-x for x in r) for r in rs.positive_roots}


def test_known_action():
    rs = SYSTEMS["A2"]
    w = rs.element_by_word([0, 1, 0])
    assert w.act_root((1, 0)) == (0, -1)
    assert rs.reflection((1, 1)) == w


def test_group_laws():
    rs = SYSTEMS["B2"]
    rng = random.Random(7)
    elts = list(rs.elements)
    for _ in range(30):
        w1, w2 = rng.choice(elts), rng.choice(elts)
        assert (w1 * w2).act_root((1, 1)) == w1.act_root(w2.act_root((1, 1)))
        assert (w1.inverse() * w1).is_identity()
        assert w1.sign() == mat_det(w1.mat_root)
    assert sum(1 for w in elts if w.length == 1) == rs.rank


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_inverse_is_two_sided(name):
    for w in SYSTEMS[name].elements:
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()
        assert w.inverse().inverse() is w


# -- the permutation storage against integer matrices --------------------------


def _int_mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _simple_mats(rs, i):
    """s_i on simple-root and on simple-coroot coordinates, from the Cartan
    matrix: s_i(alpha_j) = alpha_j - <alpha_j, alpha_i^vee> alpha_i and
    s_i(alpha_j^vee) = alpha_j^vee - <alpha_i, alpha_j^vee> alpha_i^vee."""
    n = rs.rank
    root = tuple(
        tuple(int(k == j) - (rs.cartan[j][i] if k == i else 0) for j in range(n))
        for k in range(n)
    )
    coroot = tuple(
        tuple(int(k == j) - (rs.cartan[i][j] if k == i else 0) for j in range(n))
        for k in range(n)
    )
    return root, coroot


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_matrices_are_products_along_the_word(name):
    rs = SYSTEMS[name]
    simple = [_simple_mats(rs, i) for i in range(rs.rank)]
    one = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    for w in rs.elements:
        root, coroot = one, one
        for i in w.word:
            root = _int_mat_mul(root, simple[i][0])
            coroot = _int_mat_mul(coroot, simple[i][1])
        assert (w.mat_root, w.mat_coroot) == (root, coroot)
    for i in range(rs.rank):
        assert rs.simple_reflection(i).word == (i,)


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_products_match_integer_matrix_products(name):
    rs = SYSTEMS[name]
    by_matrix = {w.mat_root: w for w in rs.elements}
    assert len(by_matrix) == rs.order
    for w1 in rs.elements:
        for w2 in rs.elements:
            assert w1 * w2 is by_matrix[_int_mat_mul(w1.mat_root, w2.mat_root)]


def _conjugated(change, mat):
    """change * mat * change^-1 over the rationals, checked integral."""
    c = sympy.Matrix(change)
    m = c * sympy.Matrix(mat) * c.inv()
    assert all(x.is_integer for x in m)
    return tuple(tuple(int(m[i, j]) for j in range(m.cols)) for i in range(m.rows))


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_chart_matrices_match_rational_conjugation(name):
    # weight chart: x = A^T r on X; adjoint chart: d = A m on Y
    rs = SYSTEMS[name]
    a = [list(row) for row in rs.cartan]
    at = [list(col) for col in zip(*a)]
    weight, adjoint = LatticePair(rs, "weight"), LatticePair(rs, "adjoint")
    for w in rs.elements:
        assert weight.x_matrix(w) == _conjugated(at, w.mat_root)
        assert weight.y_matrix(w) == w.mat_coroot
        assert adjoint.x_matrix(w) == w.mat_root
        assert adjoint.y_matrix(w) == _conjugated(a, w.mat_coroot)


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_chart_vectors_are_ints(name):
    rs = SYSTEMS[name]
    for kind in LatticePair.KINDS:
        pair = LatticePair(rs, kind)
        vectors = [pair.theta_x(), pair.theta_coroot_y()]
        vectors += [pair.simple_root_x(i) for i in range(rs.rank)]
        vectors += [pair.simple_coroot_y(i) for i in range(rs.rank)]
        vectors += [pair.root_to_x(r) for r in rs.roots]
        vectors += [pair.coroot_to_y(rs.coroot_of(r)) for r in rs.roots]
        assert all(type(c) is int for v in vectors for c in v), kind


def test_reduced_words_are_reduced():
    rs = SYSTEMS["A3"]
    for w in rs.elements:
        assert rs.element_by_word(w.word) == w
        assert w.length == len(w.word)


def test_coroot_action_is_contragredient():
    # <w x, w y> = <x, y> on every pair chart
    rng = random.Random(11)
    for name in ("A2", "B2", "D4"):
        rs = SYSTEMS[name]
        for kind in LatticePair.KINDS:
            pair = LatticePair(rs, kind)
            for _ in range(10):
                w = rng.choice(rs.elements)
                x = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
                y = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
                assert pair.pair(pair.act_x(w, x), pair.act_y(w, y)) == pair.pair(x, y)


def test_pairing_matrices():
    rs = SYSTEMS["A2"]
    root = LatticePair(rs, "root")
    assert root.pair((1, 0), (0, 1)) == -1  # <alpha_1, alpha_2^vee>
    weight = LatticePair(rs, "weight")
    for i in range(2):
        for j in range(2):
            assert weight.pair(
                tuple(1 if k == i else 0 for k in range(2)),
                weight.simple_coroot_y(j),
            ) == (1 if i == j else 0)
    adjoint = LatticePair(rs, "adjoint")
    assert adjoint.simple_coroot_y(0) == (2, -1)
    assert adjoint.pair(adjoint.simple_root_x(0), adjoint.simple_coroot_y(0)) == 2


def test_weight_chart_reflection():
    rs = SYSTEMS["A2"]
    pair = LatticePair(rs, "weight")
    s1 = rs.simple_reflection(0)
    assert pair.act_x(s1, (1, 0)) == (-1, 1)  # s_1(w_1) = w_1 - alpha_1
    assert pair.act_x(s1, (0, 1)) == (0, 1)
    # roots expressed on the weight basis are the Cartan rows
    assert pair.simple_root_x(0) == (2, -1)
    assert pair.theta_x() == (1, 1)


def test_weight_chart_round_trip():
    rs = SYSTEMS["D4"]
    pair = LatticePair(rs, "weight")
    for r in rs.roots:
        assert pair.x_to_root(pair.root_to_x(r)) == r
    # every Weyl matrix on the weight chart is integral and unimodular
    for w in rs.elements:
        assert mat_det(pair.x_matrix(w)) in (1, -1)


@pytest.mark.parametrize(
    "name,pairs",
    [
        ("A1", {(0, 1): None}),
        ("A2", {(0, 1): 3, (0, 2): 3, (1, 2): 3}),
        ("B2", {(0, 1): 2, (0, 2): 4, (1, 2): 4}),
        ("G2", {(0, 1): 2, (0, 2): 3, (1, 2): 6}),
    ],
)
def test_affine_coxeter_exponents(name, pairs):
    rs = SYSTEMS[name]
    for (i, j), m in pairs.items():
        assert rs.affine_coxeter_m(i, j) == m
        assert rs.affine_coxeter_m(j, i) == m
    assert rs.affine_coxeter_m(0, 0) == 1


def test_validate_cartan_rejects_bad_input():
    for bad in (
        [[2, 1], [1, 2]],
        [[2, -1], [0, 2]],
        [[2, -2], [-2, 2]],
        [[2, -1], [-4, 2]],
        [[1]],
        [[2, -1]],
    ):
        with pytest.raises(ValueError):
            validate_cartan(bad)
    with pytest.raises(ValueError):
        RootSystem("E9")


def test_custom_cartan_equals_builtin():
    rs = RootSystem([[2, -1], [-1, 2]])
    assert len(rs.roots) == 6
    assert rs.name is None
