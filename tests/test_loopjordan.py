"""Tests for loop normal forms under q-twisted conjugation."""

import random
from fractions import Fraction as Q
from itertools import product

import handwritten
import leibniz as ref
import percoefficient
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_torsion_sweep import torsion

from qtalg import acceptance
from qtalg.errors import NormalFormError
from qtalg.loopjordan import (
    MatrixLoop,
    QNormalForm,
    ZPoly,
    _block_classes,
    _block_order,
    _diagonal_constants,
    character_on_x,
    component_weyl,
    constants_equivalent,
    diagonal_twist_match,
    q_centralizer_roots,
    q_conjugate,
    q_normal_form,
    solve_shift_equation,
    unipotent_parts_conjugate,
)
from qtalg.mlambda import Character, isotropy_group
from qtalg.rootdata import LatticePair, RootSystem
from qtalg.scalars import LaurentPoly, QPower, Scalar, _cancel_common
from qtalg.torusfn import TorusFraction

A1 = RootSystem("A1")
A2 = RootSystem("A2")


def zc(c) -> ZPoly:
    return ZPoly.const(c)


def unitriangular(*uppers) -> MatrixLoop:
    """2x2 or 3x3 unitriangular loop from the upper entries, row by row."""
    if len(uppers) == 1:
        (u,) = uppers
        return MatrixLoop([[ZPoly.one(), u], [ZPoly.zero(), ZPoly.one()]])
    a, b, c = uppers
    return MatrixLoop(
        [
            [ZPoly.one(), a, b],
            [ZPoly.zero(), ZPoly.one(), c],
            [ZPoly.zero(), ZPoly.zero(), ZPoly.one()],
        ]
    )


# -- polynomials and matrix loops --------------------------------------------


def test_zpoly_arithmetic():
    p = ZPoly.z(2, 3) + ZPoly.one()
    q = ZPoly.z(-1, Q(1, 2))
    assert (p * q).coeffs == {1: Scalar.const(Q(3, 2)), -1: Scalar.const(Q(1, 2))}
    assert (p - p).is_zero()
    assert p.shift_z(3) == ZPoly({5: Scalar.const(3), 3: Scalar.one()})


def test_zpoly_at_qz_scales_by_q_to_the_degree():
    p = ZPoly({2: Scalar.const(3), 0: Scalar.const(5)})
    assert p.at_qz() == ZPoly({2: Scalar.q(2) * Scalar.const(3), 0: Scalar.const(5)})


def test_zpoly_json_roundtrip():
    p = ZPoly({-1: Scalar.q(1) + Scalar.one(), 4: Scalar.const(Q(-2, 7))})
    assert ZPoly.from_json(p.to_json()) == p


def test_matrix_loop_product_and_inverse():
    g = MatrixLoop([[ZPoly.one(), ZPoly.z(1, 2)], [ZPoly.zero(), ZPoly.const(3)]])
    assert g.det() == zc(3)
    assert g * g.inverse() == MatrixLoop.identity(2)
    assert g.inverse() * g == MatrixLoop.identity(2)


def test_matrix_loop_monomial_determinant_inverts():
    g = MatrixLoop([[ZPoly.zero(), ZPoly.z(2)], [ZPoly.z(-1, 5), ZPoly.one()]])
    assert g.det().as_monomial() == (1, Scalar.const(-5))
    assert g * g.inverse() == MatrixLoop.identity(2)


def test_matrix_loop_non_unit_determinant_rejects():
    g = MatrixLoop([[ZPoly.one(), ZPoly.zero()], [ZPoly.zero(), ZPoly.one() + ZPoly.z(1)]])
    with pytest.raises(ValueError):
        g.inverse()


small = st.sampled_from([0, 0, 0, 1, -1, 2, Q(1, 2), -3]).map(Scalar.const)
zpolys = st.dictionaries(st.integers(-1, 2), small, max_size=3).map(ZPoly)
nonzero_zpolys = zpolys.filter(lambda p: not p.is_zero())


@given(zpolys, nonzero_zpolys)
def test_zpoly_floordiv_recovers_the_factor(a, b):
    assert (a * b) // b == a


def test_zpoly_floordiv_by_a_divisor_with_scalar_content():
    one_plus_z = ZPoly.one() + ZPoly.z(1)
    q_plus_1 = Scalar.q(1) + Scalar.one()
    quotient = (one_plus_z * one_plus_z) // one_plus_z.scale(q_plus_1)
    assert quotient == one_plus_z.scale(q_plus_1.inverse())
    assert quotient.den == q_plus_1.num


def test_zpoly_floordiv_rejects_an_inexact_quotient():
    one_plus_z = ZPoly.one() + ZPoly.z(1)
    for num in (ZPoly.one() + ZPoly.z(2), ZPoly.z(1), one_plus_z * one_plus_z + ZPoly.z(-1)):
        with pytest.raises(ValueError, match="does not divide"):
            num // one_plus_z


# -- the store over one denominator against the per-coefficient store ----------

_q, _t, _v = LaurentPoly.q, LaurentPoly.t, LaurentPoly.v
_one = LaurentPoly.one()
# numerators and denominators with half q-exponents, t and v, and shared
# factors: q^2 - 1 = (q - 1)(q + 1) meets q - 1, so sums and products cancel
_lpoly_dens = st.sampled_from(
    [_one, _q() - _one, _q(2) - _one, _one + _t(2), _q(Q(1, 2)) - _v(), _q().scale(2) - _one.scale(3)]
)
_lpolys = st.one_of(
    st.dictionaries(
        st.tuples(st.sampled_from([0, 1, -1, 2, Q(1, 2), Q(-3, 2)]), st.integers(-1, 1), st.integers(0, 1)),
        st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(5, 3)]),
        min_size=1,
        max_size=3,
    ).map(LaurentPoly),
    _lpoly_dens,
    st.just(_q() + _one),
)
monomial_scalars = st.builds(
    Scalar.monomial,
    qexp=st.sampled_from([0, 1, -2, Q(1, 2)]),
    texp=st.integers(-1, 1),
    coeff=st.sampled_from([1, -1, 3, Q(2, 5)]),
)
rich_scalars = st.one_of(monomial_scalars, st.builds(Scalar, _lpolys, _lpoly_dens))
coeff_dicts = st.dictionaries(st.integers(-2, 2), rich_scalars, max_size=3)
rich_zpolys = coeff_dicts.map(ZPoly)


def assert_stored_form(p: ZPoly):
    """den integer-primitive, positive leading coefficient, no monomial
    content, and coprime to the numerators up to a monomial."""
    den = p.den
    assert den.rational_content() == 1 and den.leading()[1] > 0
    assert den.min_exponents() == (0, 0, 0)
    assert gcd_is_a_monomial(den, p.polys.values())
    assert all(not x.is_zero() for x in p.polys.values())


def assert_same(new: ZPoly, old: percoefficient.ZPoly):
    assert_stored_form(new)
    assert new.to_json() == old.to_json()
    assert new.coeffs == old.coeffs


@given(coeff_dicts, coeff_dicts, rich_scalars, monomial_scalars)
@settings(max_examples=60, deadline=None)
def test_zpoly_matches_the_per_coefficient_store(a, b, c, unit):
    new_a, new_b = ZPoly(a), ZPoly(b)
    old_a, old_b = percoefficient.ZPoly(a), percoefficient.ZPoly(b)
    assert_same(new_a, old_a)
    assert_same(new_a + new_b, old_a + old_b)
    assert_same(new_a - new_b, old_a - old_b)
    assert_same(new_a * new_b, old_a * old_b)
    assert_same(new_a.scale(c), old_a.scale(c))
    assert_same(new_a.scale(unit), old_a.scale(unit))
    assert_same(new_a.at_qz(), old_a.at_qz())
    assert_same(new_a.shift_z(-3), old_a.shift_z(-3))
    assert new_a.eval_z1() == old_a.eval_z1()
    if new_b.is_zero():
        return
    assert_same((new_a * new_b) // new_b, (old_a * old_b) // old_b)
    if not c.is_zero():
        # the product cancels c's numerator and denominator across factors
        assert_same(new_a.scale(c) * ZPoly.const(c.inverse()), old_a)
        # a non-monomial scalar in the divisor's leading coefficient makes
        # the long division multiply through by it
        assert_same((new_a * new_b) // new_b.scale(c), (old_a * old_b) // old_b.scale(c))
    try:
        expected = old_a // old_b
    except ValueError:
        with pytest.raises(ValueError, match="does not divide"):
            new_a // new_b
        return
    assert_same(new_a // new_b, expected)


def gcd_is_a_monomial(den: LaurentPoly, numerators) -> bool:
    h = den
    for p in numerators:
        if len(h.terms) == 1:
            break
        split = _cancel_common(h, p)
        if split is None:
            return True
        h = split[0]
    return len(h.terms) == 1


@given(coeff_dicts, rich_scalars.filter(lambda c: not c.is_zero()), rich_zpolys, st.randoms())
@settings(max_examples=60, deadline=None)
def test_zpoly_stored_form_is_canonical(coeffs, c, other, rnd):
    p = ZPoly(coeffs)
    den = p.den
    assert_stored_form(p)
    items = list(coeffs.items())
    rnd.shuffle(items)
    variants = [
        ZPoly(dict(items)),
        ZPoly({m: x * c for m, x in items}).scale(c.inverse()),
        p.scale(c).scale(c.inverse()),
        (p + other) - other,
        (p + p).scale(Q(1, 2)),
        ZPoly.from_json(p.to_json()),
    ]
    if not other.is_zero():
        variants.append((p * other) // other)
    for v in variants:
        assert (v.den, v.polys) == (den, p.polys)
        assert v == p and (v - p).is_zero()
    assert (p == other) == (p - other).is_zero()


A1_PAIR = LatticePair(A1, "root")


@given(coeff_dicts, coeff_dicts, rich_scalars, monomial_scalars)
@settings(max_examples=60, deadline=None)
def test_zpoly_and_torus_fraction_share_one_store(a, b, c, unit):
    """Degree m as the A1 exponent (m,): a loop polynomial and a torus
    fraction with the same coefficients store the same den and numerators,
    though a polynomial sum tries exact division before the gcd chain."""

    def fraction(coeffs):
        return TorusFraction(A1_PAIR, {(m,): x for m, x in coeffs.items()})

    def same_store(p: ZPoly, f: TorusFraction):
        assert p.den == f.den
        assert {(m,): x for m, x in p.polys.items()} == f.polys

    p, q, f, g = ZPoly(a), ZPoly(b), fraction(a), fraction(b)
    same_store(p, f)
    same_store(p + q, f + g)
    same_store(p - q, f - g)
    # cancels back to q's store, through the gcd chain when p has a
    # denominator q's does not absorb
    same_store((p + q) - p, (f + g) - f)
    same_store(p.scale(unit), f.scale(unit))
    same_store(p.scale(c), f.scale(c))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_inverse_matches_the_per_coefficient_store(data):
    g = data.draw(invertible_loops(rich_zpolys))
    old = percoefficient.loop_inverse(
        [[percoefficient.ZPoly(e.coeffs) for e in row] for row in g.rows]
    )
    inv = g.inverse()
    for new_row, old_row in zip(inv.rows, old):
        for new, expected in zip(new_row, old_row):
            assert_same(new, expected)
    assert g * inv == MatrixLoop.identity(g.n)


loops = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(zpolys, min_size=n, max_size=n), min_size=n, max_size=n
    )
).map(MatrixLoop)


@st.composite
def invertible_loops(draw, entries=zpolys):
    """Permutation times unitriangular times a diagonal of z-monomials."""
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    upper = MatrixLoop(
        [
            [ZPoly.one() if i == j else draw(entries) if i < j else ZPoly.zero() for j in range(n)]
            for i in range(n)
        ]
    )
    diag = MatrixLoop.diagonal(
        [ZPoly.z(draw(st.integers(-2, 2)), draw(st.sampled_from([1, -2, Q(3, 2)]))) for _ in range(n)]
    )
    return MatrixLoop.permutation(order) * upper * diag


@given(loops)
@settings(max_examples=60, deadline=None)
def test_det_and_inverse_match_leibniz_and_the_adjugate(g):
    assert g.det() == ref.det(g)
    try:
        expected = ref.inverse(g)
    except ValueError:
        with pytest.raises(ValueError, match="not invertible"):
            g.inverse()
        return
    assert g.inverse() == expected


@given(invertible_loops())
@settings(max_examples=40, deadline=None)
def test_inverse_of_an_invertible_loop_matches_the_adjugate(g):
    inv = g.inverse()
    assert inv == ref.inverse(g)
    assert g * inv == MatrixLoop.identity(g.n) == inv * g


def test_six_by_six_inverse():
    rng = random.Random(3)
    upper = rand_unitriangular(rng, n=6, deg=2)
    g = MatrixLoop.permutation((3, 0, 5, 1, 4, 2)) * upper
    assert g * g.inverse() == MatrixLoop.identity(6)


def test_empty_loop_has_unit_determinant_and_normal_form():
    empty = MatrixLoop([])
    assert empty.det() == ZPoly.one()
    assert empty.inverse() == empty
    nf, f = q_normal_form(empty)
    assert nf.blocks == () and f == empty


def test_matrix_loop_json_roundtrip():
    g = MatrixLoop([[ZPoly.one(), ZPoly.z(1, Q(2, 3))], [ZPoly.zero(), ZPoly.const(Scalar.q(-1))]])
    assert MatrixLoop.from_json(g.to_json()) == g


def test_permutation_loop_conjugates_indices():
    h = MatrixLoop.diagonal([zc(2), zc(3), zc(5)])
    p = MatrixLoop.permutation((2, 0, 1))
    assert p * h * p.inverse() == MatrixLoop.diagonal([zc(5), zc(2), zc(3)])


# -- twisted conjugation ------------------------------------------------------


def test_conjugation_by_identity_fixes():
    h = MatrixLoop([[zc(3), ZPoly.z(1, 2)], [ZPoly.zero(), zc(5)]])
    assert q_conjugate(MatrixLoop.identity(2), h) == h


def test_conjugation_by_z_scales_diagonal():
    g = MatrixLoop.diagonal([ZPoly.z(1), ZPoly.one()])
    h = MatrixLoop.diagonal([zc(7), zc(11)])
    expected = MatrixLoop.diagonal([ZPoly.const(Scalar.q(1) * Scalar.const(7)), zc(11)])
    assert q_conjugate(g, h) == expected


def test_conjugation_is_a_group_action():
    rng = random.Random(5)

    def rand_loop():
        return MatrixLoop(
            [
                [
                    ZPoly({d: Scalar.const(rng.randint(-2, 2)) for d in range(2)})
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
        )

    g1 = unitriangular(ZPoly.z(1, 2))
    g2 = MatrixLoop([[zc(3), ZPoly.one()], [ZPoly.z(2), ZPoly.zero()]])
    for _ in range(10):
        h = rand_loop()
        assert q_conjugate(g1, q_conjugate(g2, h)) == q_conjugate(g1 * g2, h)


def test_conjugation_rejects_non_invertible():
    g = MatrixLoop([[ZPoly.one(), ZPoly.one()], [ZPoly.one(), ZPoly.one()]])
    with pytest.raises(ValueError):
        q_conjugate(g, MatrixLoop.identity(2))


# -- the scalar shift equation ------------------------------------------------


def shift_residual(l: int, x: ZPoly, target: ZPoly) -> ZPoly:
    return x.at_qz() - x.scale(Scalar.q(l)) - target


def test_shift_equation_resonant_constant_obstructed():
    res = solve_shift_equation(0, ZPoly.one())
    assert not res.solvable
    assert res.obstruction == Scalar.one()
    assert res.solution is None


def test_shift_equation_zero_target_has_kernel_line():
    res = solve_shift_equation(2, ZPoly.zero())
    assert res.solvable and res.solution.is_zero()
    assert res.kernel_degree == 2
    kernel = ZPoly.z(2, Q(5, 3))
    assert shift_residual(2, kernel, ZPoly.zero()).is_zero()


def test_shift_equation_off_resonance_solves():
    res = solve_shift_equation(0, ZPoly.z(3, 5))
    assert res.solvable
    assert shift_residual(0, res.solution, ZPoly.z(3, 5)).is_zero()
    assert res.solution == ZPoly({3: Scalar.const(5) / (Scalar.q(3) - Scalar.one())})


@given(
    st.integers(-3, 3),
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5),
)
def test_shift_equation_solvable_iff_resonant_coefficient_vanishes(l, coeffs):
    target = ZPoly({m: Scalar.const(c) for m, c in coeffs.items()})
    res = solve_shift_equation(l, target)
    assert res.solvable == target.coeff(l).is_zero()
    assert res.obstruction == target.coeff(l)
    if res.solvable:
        assert shift_residual(l, res.solution, target).is_zero()


# -- the normal form ----------------------------------------------------------


def test_normal_form_constant_unrelated_diagonal_is_fixed():
    h = MatrixLoop.diagonal([zc(2), zc(3)])
    nf, f = q_normal_form(h)
    assert nf.s == (QPower.of(2), QPower.of(3))
    assert nf.b == MatrixLoop.identity(2)
    assert f == MatrixLoop.identity(2)
    assert nf.blocks == ((0,), (1,))


def test_normal_form_recognizes_a_normal_input():
    c = Scalar.const(Q(7, 2))
    h = MatrixLoop(
        [[ZPoly.one(), ZPoly.z(1, c)], [ZPoly.zero(), ZPoly.const(Scalar.q(-1))]]
    )
    nf, f = q_normal_form(h)
    assert nf.s == (QPower.one(), QPower.q(-1))
    assert nf.b == unitriangular(ZPoly.z(1, c))
    assert f == MatrixLoop.identity(2)
    assert nf.check_twist() and nf.check_position()


def test_normal_form_cleans_off_resonance_entries():
    h = MatrixLoop(
        [[zc(2), ZPoly.one() + ZPoly.z(2, 3)], [ZPoly.zero(), zc(3)]]
    )
    nf, f = q_normal_form(h)
    assert nf.b == MatrixLoop.identity(2)
    assert q_conjugate(f, h) == nf.product()


def test_normal_form_sorts_interleaved_blocks():
    h = MatrixLoop.diagonal([zc(2), zc(3), ZPoly.const(Scalar.q(-1) * Scalar.const(2))])
    nf, f = q_normal_form(h)
    assert nf.s == (QPower.of(2), QPower.of(2) * QPower.q(-1), QPower.of(3))
    assert nf.blocks == ((0, 1), (2,))
    assert q_conjugate(f, h) == nf.product()


def test_normal_form_keeps_only_the_resonant_coefficient():
    s0 = Scalar.const(3)
    h = MatrixLoop(
        [
            [ZPoly.const(s0), ZPoly.one() + ZPoly.z(1, 4) + ZPoly.z(2, -2)],
            [ZPoly.zero(), ZPoly.const(Scalar.q(-1) * s0)],
        ]
    )
    nf, f = q_normal_form(h)
    assert set(nf.b.entry(0, 1).coeffs) <= {1}
    assert q_conjugate(f, h) == nf.product()
    assert nf.check_twist() and nf.check_position()


def test_normal_form_applies_a_supplied_basis_change():
    nf0 = QNormalForm(
        (QPower.of(2), QPower.of(3)), MatrixLoop.identity(2), ((0,), (1,))
    )
    swap = MatrixLoop.permutation((1, 0))
    h = q_conjugate(swap.inverse(), nf0.product())
    nf, f = q_normal_form(h, basis=swap)
    assert nf.s == nf0.s
    assert q_conjugate(f, h) == nf.product()


def test_normal_form_rejects_z_dependent_diagonal():
    with pytest.raises(NormalFormError, match="non-integral"):
        q_normal_form(MatrixLoop.diagonal([ZPoly.z(1), ZPoly.one()]))


def test_normal_form_rejects_non_monomial_diagonal():
    h = MatrixLoop.diagonal([ZPoly.const(Scalar.one() + Scalar.q(1)), ZPoly.one()])
    with pytest.raises(NormalFormError, match="torus coordinate"):
        q_normal_form(h)


def test_normal_form_rejects_untriangularizable_input():
    h = MatrixLoop([[ZPoly.one(), ZPoly.one()], [ZPoly.one(), ZPoly.one()]])
    with pytest.raises(NormalFormError, match="ordering"):
        q_normal_form(h)


def reorder_loop_6x6() -> MatrixLoop:
    """A 6 x 6 loop whose valid index order is not the given one."""
    two, three = Scalar.const(2), Scalar.const(3)
    diag = [zc(7), zc(three), ZPoly.const(Scalar.q(-1) * two), zc(5), zc(two), ZPoly.const(Scalar.q(1) * three)]
    rows = [[diag[i] if i == j else ZPoly.zero() for j in range(6)] for i in range(6)]
    rows[4][2] = ZPoly.one() + ZPoly.z(1, 3)
    rows[5][1] = ZPoly.z(-1, 2)
    rows[1][0] = ZPoly.one()
    rows[3][0] = ZPoly.z(2)
    return MatrixLoop(rows)


def test_normal_form_reorders_loops_larger_than_four():
    entries = [zc(2), ZPoly.const(Scalar.q(-1) * Scalar.const(2)), zc(3), zc(5), zc(7)]
    shuffled = MatrixLoop.diagonal([entries[1], entries[2], entries[0], entries[3], entries[4]])
    for h in (shuffled, reorder_loop_6x6()):
        nf, f = q_normal_form(h)
        assert q_conjugate(f, h) == nf.product()
        assert nf.check_twist() and nf.check_position()
    diag = _diagonal_constants(h)
    assert _block_order(h, diag, _block_classes(diag)) == (3, 4, 2, 5, 1, 0)
    assert nf.blocks == ((0,), (1, 2), (3, 4), (5,))


def test_normal_form_rejects_classes_that_must_precede_each_other():
    rows = [list(row) for row in reorder_loop_6x6().rows]
    rows[2][5] = ZPoly.one()  # the class of 2 and 4 before that of 1 and 5
    rows[1][4] = ZPoly.one()  # and after it
    with pytest.raises(NormalFormError, match="no ordering"):
        q_normal_form(MatrixLoop(rows))


class_pool = st.sampled_from(
    [zc(Scalar.q(k) * Scalar.const(c)) for c, k in ((2, 0), (2, -1), (2, 1), (3, 0), (3, 2), (-1, 0))]
)


@st.composite
def patterned_loops(draw):
    """Diagonals from a few q-classes and a sparse random zero pattern."""
    n = draw(st.integers(1, 4))
    diag = [draw(class_pool) for _ in range(n)]
    nonzero = st.sampled_from([False, False, False, True])
    return MatrixLoop(
        [[diag[i] if i == j else ZPoly.one() if draw(nonzero) else ZPoly.zero() for j in range(n)] for i in range(n)]
    )


@given(patterned_loops())
@settings(max_examples=200, deadline=None)
def test_block_order_matches_the_exhaustive_search(h):
    diag = _diagonal_constants(h)
    labels = _block_classes(diag)
    try:
        expected = ref.block_order(h, diag, labels)
    except NormalFormError:
        with pytest.raises(NormalFormError, match="no ordering"):
            _block_order(h, diag, labels)
        return
    assert _block_order(h, diag, labels) == expected


def rand_normal_pair(rng, n=3):
    """A random valid normal form with distinct block classes."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    bases = rng.sample(
        [
            QPower.of(2),
            QPower.of(3),
            QPower.of(-1),
            QPower.of(5) * QPower.q(Q(1, 2)),
        ],
        len(sizes),
    )
    s, blocks, start = [], [], 0
    for size, base in zip(sizes, bases):
        exps = sorted((rng.randint(-2, 2) for _ in range(size)), reverse=True)
        s.extend(base * QPower.q(e) for e in exps)
        blocks.append(tuple(range(start, start + size)))
        start += size
    rows = [
        [ZPoly.one() if i == j else ZPoly.zero() for j in range(n)]
        for i in range(n)
    ]
    for blk in blocks:
        for ai, i in enumerate(blk):
            for j in blk[ai + 1 :]:
                if rng.random() < 0.7:
                    l = (s[i] / s[j]).integral_q_exponent()
                    coeff = Q(rng.randint(1, 6), rng.randint(1, 3))
                    rows[i][j] = ZPoly({l: Scalar.const(rng.choice([-coeff, coeff]))})
    return QNormalForm(s, MatrixLoop(rows), blocks)


def rand_unitriangular(rng, n=3, deg=3):
    rows = [
        [ZPoly.one() if i == j else ZPoly.zero() for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            degrees = rng.sample(range(deg + 1), rng.randint(1, deg + 1))
            rows[i][j] = ZPoly({d: Scalar.const(rng.randint(-3, 3)) for d in degrees})
    return MatrixLoop(rows)


def test_normal_form_roundtrip_recovers_the_orbit_data():
    rng = random.Random(19)
    for _ in range(8):
        nf0 = rand_normal_pair(rng)
        assert nf0.check_twist() and nf0.check_position()
        g = rand_unitriangular(rng)
        h = q_conjugate(g, nf0.product())
        nf1, f1 = q_normal_form(h)
        assert q_conjugate(f1, h) == nf1.product()
        assert nf1.check_twist() and nf1.check_position()
        assert diagonal_twist_match(nf0.s, nf1.s) is not None
        assert unipotent_parts_conjugate(nf0, nf1)


# q = 9/4 has the rational square root 3/2, so half q-exponents specialize
Q0 = Q(9, 4)


def specialized(g: MatrixLoop, z, t, v) -> list[list[Q]]:
    """g at rational q = Q0, z, t and v, entry by entry through
    Scalar.specialize, with no loop arithmetic."""
    return [
        [sum((c.specialize(Q0, t, v) * z**m for m, c in e.coeffs.items()), Q(0)) for e in row]
        for row in g.rows
    ]


def rational_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_normal_form_solves_the_twisted_equation_at_rational_points(seed):
    """f(qz) h(z) = s b(z) f(z) on rational matrices, for the first
    jordan-roundtrip inputs at the seed."""
    rng = acceptance._rng(seed, "jordan-roundtrip")
    for _ in range(8):
        nf0 = acceptance._rand_normal_pair(rng)
        h = q_conjugate(acceptance._rand_unitriangular(rng), nf0.product())
        nf, f = q_normal_form(h)
        n = h.n
        s = [[nf.s[i].specialize(Q0) if i == j else Q(0) for j in range(n)] for i in range(n)]
        for z, t, v in ((Q(2), Q(5, 7), Q(3)), (Q(-1, 3), Q(2), Q(-1, 2))):
            lhs = rational_product(specialized(f, Q0 * z, t, v), specialized(h, z, t, v))
            rhs = rational_product(
                rational_product(s, specialized(nf.b, z, t, v)), specialized(f, z, t, v)
            )
            assert lhs == rhs


# -- q-centralizer roots ------------------------------------------------------


def scan_integral_roots(system, coords, q0):
    """Independent numeric scan: alpha(s) at a rational point q = q0.

    A root is flagged when its value is plus-or-minus a literal integer
    power of q0; values are computed with plain Fraction arithmetic from
    the Cartan pairings, with no torus-coordinate bookkeeping.
    """
    values = [c.specialize(q0) for c in coords]
    flagged = []
    for root in system.roots:
        val = Q(1)
        for j in range(system.rank):
            e = sum(root[i] * system.cartan[i][j] for i in range(system.rank))
            val *= values[j] ** e
        power = Q(1)
        hit = False
        for k in range(-8, 9):
            power = q0**k
            if val == power:
                hit = True
                break
        if hit:
            flagged.append(root)
    return sorted(flagged)


def test_centralizer_roots_identity_point_keeps_everything():
    coords = (QPower.one(), QPower.one())
    assert q_centralizer_roots(A2, coords) == tuple(sorted(A2.roots))


def test_centralizer_roots_a1_flags_the_root_pair():
    coords = (QPower.q(Q(3, 2)),)
    assert q_centralizer_roots(A1, coords) == ((-1,), (1,))
    assert q_centralizer_roots(A1, (QPower.q(Q(1, 3)),)) == ()


def test_centralizer_roots_match_numeric_scan():
    cases = [
        (A1, (QPower.q(Q(3, 2)),)),
        (A2, (QPower.q(1), QPower.one())),
        (A2, (QPower.q(Q(1, 2)), QPower.of(-1))),
        (RootSystem("B2"), (QPower.of(2), QPower.q(-1))),
    ]
    for system, coords in cases:
        exact = [list(r) for r in q_centralizer_roots(system, coords)]
        for q0 in (Q(9), Q(25)):
            assert exact == [list(r) for r in scan_integral_roots(system, coords, q0)]


def d4_point():
    half = QPower.q(Q(1, 2))
    minus = QPower.of(-1)
    return (minus, half, minus, minus * half)


def test_centralizer_roots_d4_point_is_empty():
    system = RootSystem("D4")
    coords = d4_point()
    assert q_centralizer_roots(system, coords) == ()
    for q0 in (Q(9), Q(25)):
        assert scan_integral_roots(system, coords, q0) == []


_POINT_PAIRS = {
    (name, kind): LatticePair(RootSystem(name), kind)
    for name in ("A1", "A2", "A3", "B2", "C2", "G2", "D4")
    for kind in LatticePair.KINDS
}
_point_coordinates = st.one_of(
    st.builds(
        QPower,
        rot=st.sampled_from([Q(0), Q(1, 2), Q(1, 3)]),
        qexp=st.fractions(min_value=-2, max_value=2, max_denominator=2),
        mag=st.sampled_from([Q(1), Q(2), Q(1, 3)]),
    ),
    st.sampled_from([1, -1, Q(-1, 2), 3]),
)


@given(st.sampled_from(sorted(_POINT_PAIRS)), st.data())
@settings(max_examples=60, deadline=None)
def test_point_products_match_the_hand_written_loops(key, data):
    # lambda(x) through Character.value, against the earlier explicit loops
    pair = _POINT_PAIRS[key]
    system = pair.system
    coords = data.draw(st.tuples(*[_point_coordinates] * system.rank))
    lam = character_on_x(pair, coords)
    assert lam.to_json() == handwritten.character_on_x(pair, coords).to_json()
    assert q_centralizer_roots(system, coords) == handwritten.q_centralizer_roots(
        system, coords
    )
    for w in system.elements:
        moved = lam.weyl_act(pair, w)
        assert moved.to_json() == handwritten.weyl_act(lam, pair, w).to_json()


_INTEGER_PAIRS = {
    (name, kind): LatticePair(RootSystem(name), kind)
    for name in ("A2", "B2", "G2", "A3")
    for kind in LatticePair.KINDS
}


@st.composite
def _integer_form_coordinates(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    return QPower(
        rot=Q(draw(st.integers(0, n - 1)), n),
        qexp=Q(draw(st.integers(-2 * m, 2 * m)), m),
        mag=draw(st.sampled_from([Q(1), Q(2), Q(1, 3)])),
    )


@given(st.sampled_from(sorted(_INTEGER_PAIRS)), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_points_match_the_qpower_route(key, data):
    # isotropy shifts, centralizer roots, torus witnesses and the Weyl and
    # q-shift actions on the integer form, against QPower products and the
    # rational inverse of the pairing
    pair = _INTEGER_PAIRS[key]
    system = pair.system
    n = system.rank
    s1 = data.draw(st.tuples(*[_integer_form_coordinates()] * n))
    lam = character_on_x(pair, s1)
    assert isotropy_group(pair, lam).shifts == handwritten.isotropy_shifts(pair, lam)
    assert q_centralizer_roots(system, s1) == handwritten.q_centralizer_roots(system, s1)
    w = data.draw(st.sampled_from(system.elements))
    y = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    moved, expected = lam.weyl_act(pair, w), handwritten.weyl_act(lam, pair, w)
    assert moved == expected and moved.to_json() == expected.to_json()
    shifted, expected = lam.times_q_y(pair, y), handwritten.times_q_y(lam, pair, y)
    assert shifted == expected and shifted.to_json() == expected.to_json()
    # a conjugate point, moved on the weight chart, or an unrelated one
    if data.draw(st.booleans()):
        weight = _INTEGER_PAIRS[key[0], "weight"]
        s2 = Character(s1).weyl_act(weight, w).times_q_y(weight, y).values
    else:
        s2 = data.draw(st.tuples(*[_integer_form_coordinates()] * n))
    wit = constants_equivalent(pair, s1, s2)
    found = handwritten.constants_equivalent(pair, s1, s2)
    assert bool(wit) == (found is not None)
    if wit:
        assert (wit.w, wit.y) == found
        lam1, lam2 = handwritten.character_on_x(pair, s1), handwritten.character_on_x(pair, s2)
        moved = handwritten.weyl_act(lam1, pair, wit.w)
        assert handwritten.times_q_y(moved, pair, wit.y) == lam2


def test_a_point_of_the_wrong_rank_is_rejected():
    pair = LatticePair(A2, "root")
    half = QPower.q(Q(1, 2))
    with pytest.raises(ValueError, match="coordinates"):
        constants_equivalent(pair, (half,), (half, half))
    with pytest.raises(ValueError, match="coordinates"):
        constants_equivalent(pair, (half, half), (half,))
    with pytest.raises(ValueError, match="coordinates"):
        q_centralizer_roots(A2, (half,))
    with pytest.raises(ValueError, match="coordinates"):
        component_weyl(LatticePair(A2, "weight"), (half, half, half))


# -- component groups ---------------------------------------------------------


def test_component_weyl_identity_point_is_all_of_w():
    pair = LatticePair(A2, "weight")
    cw = component_weyl(pair, (QPower.one(), QPower.one()))
    assert cw.isotropy.order == 6
    assert len(cw.reflection_subgroup) == 6
    assert cw.component_order == 1
    assert cw.transversal[0].is_identity()


def test_component_weyl_d4_point_has_two_components():
    pair = LatticePair(RootSystem("D4"), "weight")
    cw = component_weyl(pair, d4_point())
    assert cw.isotropy.order == 2
    assert cw.roots == ()
    assert len(cw.reflection_subgroup) == 1
    assert cw.component_order == 2
    assert cw.is_split
    assert pair.system.longest_element in cw.transversal


def test_component_weyl_matches_brute_force_on_a2():
    pair = LatticePair(A2, "weight")
    coords = (QPower.q(1), QPower.one())
    cw = component_weyl(pair, coords)
    iso = isotropy_group(pair, character_on_x(pair, coords))
    assert cw.isotropy.order == iso.order
    assert cw.component_order == iso.order // len(cw.reflection_subgroup)
    manual = {
        w
        for w in pair.system.elements
        if all(
            tuple(w.act_root(r)) in set(cw.roots) for r in cw.roots
        )
    }
    assert set(cw.reflection_subgroup) <= manual


def test_component_weyl_transversal_covers_the_quotient():
    pair = LatticePair(RootSystem("B2"), "weight")
    cw = component_weyl(pair, (QPower.of(-1), QPower.one()))
    sub = set(cw.reflection_subgroup)
    cosets = {frozenset(t * u for u in sub) for t in cw.transversal}
    assert len(cosets) == cw.component_order
    assert sum(len(c) for c in cosets) == cw.isotropy.order


@pytest.mark.parametrize(
    "label, lattice",
    [("A2", "weight"), ("B2", "weight"), ("G2", "weight"), ("A3", "weight"),
     ("A2", "root"), ("B2", "root")],
)
def test_component_transversal_matches_the_coset_search(label, lattice):
    """At every 2-torsion point the positive-root stabilizer is a complement,
    and it is what the coset search of the reflection subgroup finds."""
    pair = LatticePair(RootSystem(label), lattice)
    for coords in product(torsion(2), repeat=pair.rank):
        cw = component_weyl(pair, coords)
        assert handwritten.component_transversal(cw) == (True, cw.transversal)


# -- equivalence of constants -------------------------------------------------


def witness_holds(pair, s1, s2, witness) -> bool:
    lam1 = character_on_x(pair, s1)
    lam2 = character_on_x(pair, s2)
    moved = lam1.weyl_act(pair, witness.w).times_q_y(pair, witness.y)
    return moved == lam2


def test_constants_equivalent_equal_points():
    pair = LatticePair(A1, "weight")
    s = (QPower.q(Q(1, 2)),)
    wit = constants_equivalent(pair, s, s)
    assert wit.equivalent and wit.w.is_identity() and wit.y == (0,)
    assert witness_holds(pair, s, s, wit)


def test_constants_equivalent_recovers_a_constructed_twist():
    pair = LatticePair(A2, "weight")
    s1 = (QPower.q(Q(1, 2)), QPower.of(3))
    lam = character_on_x(pair, s1)
    w = pair.system.elements[4]
    s2 = tuple(lam.weyl_act(pair, w).times_q_y(pair, (1, -2)).values)
    wit = constants_equivalent(pair, s1, s2)
    assert wit.equivalent
    assert witness_holds(pair, s1, s2, wit)


def test_constants_equivalent_separates_incompatible_points():
    pair = LatticePair(A1, "weight")
    wit = constants_equivalent(pair, (QPower.q(Q(1, 2)),), (QPower.q(Q(1, 3)),))
    assert not wit.equivalent
    assert not bool(wit)


# -- matching of normalized loops ----------------------------------------------


def test_diagonal_twist_match_finds_permutation_and_shifts():
    d1 = (QPower.of(2), QPower.of(3))
    d2 = (QPower.of(3) * QPower.q(2), QPower.of(2) * QPower.q(-1))
    match = diagonal_twist_match(d1, d2)
    assert match is not None
    perm, shifts = match
    for i in range(2):
        assert d2[i] == d1[perm[i]] * QPower.q(shifts[i])


def test_diagonal_twist_match_rejects_different_classes():
    assert diagonal_twist_match((QPower.of(2),), (QPower.of(3),)) is None
    assert diagonal_twist_match(
        (QPower.of(2),), (QPower.of(2) * QPower.q(Q(1, 2)),)
    ) is None


def test_unipotent_comparison_detects_nontrivial_part():
    s = (QPower.of(3), QPower.of(3) * QPower.q(-1))
    blocks = ((0, 1),)
    nontrivial = QNormalForm(s, unitriangular(ZPoly.z(1, 2)), blocks)
    trivial = QNormalForm(s, MatrixLoop.identity(2), blocks)
    assert not unipotent_parts_conjugate(nontrivial, trivial)
    rescaled = QNormalForm(s, unitriangular(ZPoly.z(1, Q(-5, 7))), blocks)
    assert unipotent_parts_conjugate(nontrivial, rescaled)
