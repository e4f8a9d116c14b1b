"""Tests for windowed weight modules, isotropy groups and induced modules."""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtalg.errors import WindowOverflowError
from qtalg.mlambda import (
    Character,
    InducedModule,
    WRep,
    WeightModule,
    Window,
    dimension_bookkeeping,
    invariants_basis,
    isotropy_group,
    vectors_equal,
)
from qtalg.qtorus import HWElement, QuantumTorus
from qtalg.rootdata import LatticePair, RootSystem
from qtalg.scalars import QPower, Scalar

A1 = LatticePair(RootSystem("A1"), "weight")
A2 = LatticePair(RootSystem("A2"), "weight")


def half() -> QPower:
    return QPower.q(Q(1, 2))


def lam_a1() -> Character:
    return Character((half(),))


def lam_a2() -> Character:
    return Character((half(), QPower.one()))


# -- characters and isotropy groups -----------------------------------------


def test_character_value_and_shift():
    lam = lam_a1()
    assert lam.value((2,)) == QPower.q(1)
    shifted = lam.times_q_y(A1, (3,))
    assert shifted.value((1,)) == QPower.q(Q(7, 2))


def test_character_value_rejects_a_non_integral_coordinate():
    lam = Character((QPower.q(1),))
    # an integral Fraction is an integer coordinate
    assert lam.value((Q(2),)) == QPower.q(2)
    for x in (Q(1, 2), Q(3, 2), Q(-1, 2)):
        with pytest.raises(ValueError, match="not an integer"):
            lam.value((x,))
    with pytest.raises(ValueError, match="not an integer"):
        lam_a2().value((1, Q(1, 2)))


def test_a_point_of_the_wrong_rank_is_rejected():
    with pytest.raises(ValueError, match="coordinates"):
        Character((1, 1, 1)).value((1,))
    with pytest.raises(ValueError, match="coordinates"):
        isotropy_group(A2, lam_a1())
    with pytest.raises(ValueError, match="coordinates"):
        lam_a2().times_q_y(A2, (1,))
    with pytest.raises(ValueError, match="coordinates"):
        lam_a1().weyl_shift_to(A1, A1.system.identity, lam_a2())


def test_weyl_act_on_character():
    s = A1.system.simple_reflection(0)
    moved = lam_a1().weyl_act(A1, s)
    assert moved.value((1,)) == QPower.q(Q(-1, 2))


def test_isotropy_of_identity_point_is_whole_group():
    lam = Character((QPower.one(), QPower.one()))
    iso = isotropy_group(A2, lam)
    assert iso.order == A2.system.order
    assert all(y == (0, 0) for y in iso.shifts.values())


def test_isotropy_a1():
    iso = isotropy_group(A1, lam_a1())
    s = A1.system.simple_reflection(0)
    assert iso.order == 2
    assert iso.shift(s) == (-1,)


def test_isotropy_a2_two_element_stabilizer():
    iso = isotropy_group(A2, lam_a2())
    s1 = A2.system.simple_reflection(0)
    assert iso.order == 2
    assert iso.shift(s1) == (-1, 0)


def test_isotropy_d4_order_two():
    d4 = LatticePair(RootSystem("D4"), "weight")
    minus = QPower.of(-1)
    lam = Character((minus, half(), minus, minus * half()))
    iso = isotropy_group(d4, lam)
    assert iso.order == 2
    w0 = d4.system.longest_element
    assert w0 in iso
    assert iso.shift(w0) == (0, -1, 0, -1)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
def test_isotropy_cocycle_property(a, b, d):
    lam = Character((QPower.q(Q(a, d)), QPower.q(Q(b, d))))
    iso = isotropy_group(A2, lam)  # the constructor re-checks the cocycle
    assert A2.system.identity in iso
    assert iso.shift(A2.system.identity) == (0, 0)


# -- windows and the bare weight module -------------------------------------


def test_window_membership_and_points():
    win = Window(((-1, 1), (0, 0)))
    assert len(win) == 3
    assert (1, 0) in win and (2, 0) not in win
    assert win.points() == [(-1, 0), (0, 0), (1, 0)]


def test_weight_spaces_pairwise_distinct():
    mod = WeightModule(A1, lam_a1(), Window.box(-3, 2, 1))
    weights = [mod.weight_of((y,)) for y in range(-3, 3)]
    assert len(set(weights)) == 6


def test_diagonal_action_matches_weight_value():
    mod = WeightModule(A1, lam_a1(), Window.box(-1, 1, 1))
    v = mod.basis_vector((1,))
    out = mod.act({(2, 0): 1}, v)
    assert vectors_equal(out, {(1,): QPower.q(3).as_scalar()})


def test_shift_action_and_window_overflow():
    mod = WeightModule(A1, lam_a1(), Window.box(-1, 1, 1))
    v = mod.basis_vector((1,))
    moved = mod.act({(0, -2): 1}, v)
    assert vectors_equal(moved, {(-1,): Scalar.one()})
    with pytest.raises(WindowOverflowError) as exc:
        mod.act({(0, 1): 1}, v)
    assert exc.value.y == (2,)


def test_module_commutation_on_three_point_window():
    # e^x (e^y v) = q^{<x,y>} e^y (e^x v) for operators on the module
    mod = WeightModule(A1, lam_a1(), Window.box(-1, 1, 1))
    x, y = (1,), (1,)
    q = QPower.q(1).as_scalar()
    for start in [(-1,), (0,)]:
        v = mod.basis_vector(start)
        lhs = mod.act_monomial(mod.act_monomial(v, y=y), x=x)
        rhs = mod.act_monomial(mod.act_monomial(v, x=x), y=y)
        assert vectors_equal(lhs, {k: c * q for k, c in rhs.items()})


def test_monomial_normal_order_is_shift_then_evaluate():
    mod = WeightModule(A1, lam_a1(), Window.box(-2, 2, 1))
    v = mod.basis_vector((0,))
    combined = mod.act_monomial(v, x=(3,), y=(1,))
    stepwise = mod.act_monomial(mod.act_monomial(v, y=(1,)), x=(3,))
    assert vectors_equal(combined, stepwise)


def test_shift_orbit_spans_window():
    mod = WeightModule(A1, lam_a1(), Window.box(-3, 2, 1))
    start = (-2,)
    v = mod.basis_vector(start)
    for y in mod.window.points():
        step = tuple(a - b for a, b in zip(y, start))
        assert vectors_equal(mod.act_monomial(v, y=step), {y: Scalar.one()})


def test_weyl_component_rejected_on_bare_module():
    torus = QuantumTorus(pair=A1)
    s = A1.system.simple_reflection(0)
    mod = WeightModule(A1, lam_a1(), Window.box(-1, 1, 1))
    with pytest.raises(ValueError, match="dot_act or build"):
        mod.act(HWElement.group_element(torus, s), mod.basis_vector((0,)))


def test_identity_component_of_smash_element_acts():
    torus = QuantumTorus(pair=A1)
    elem = HWElement.from_torus(torus.x_monomial((1,)))
    mod = WeightModule(A1, lam_a1(), Window.box(-1, 1, 1))
    out = mod.act(elem, mod.basis_vector((0,)))
    assert vectors_equal(out, {(0,): half().as_scalar()})


# -- plain and dot Weyl actions ---------------------------------------------


def test_plain_action_on_weight_module():
    mod = WeightModule(A2, lam_a2(), Window(((-3, 2), (0, 0))))
    s1 = A2.system.simple_reflection(0)
    v = mod.basis_vector((1, 0))
    assert vectors_equal(mod.w_act(s1, v), mod.basis_vector((-2, 0)))
    assert vectors_equal(mod.w_act(s1, mod.w_act(s1, v)), v)
    s2 = A2.system.simple_reflection(1)
    with pytest.raises(ValueError, match="isotropy"):
        mod.w_act(s2, v)


def test_dot_action_involution_and_rejection():
    mod = WeightModule(A1, lam_a1(), Window.box(-2, 2, 1))
    s = A1.system.simple_reflection(0)
    for y, coeff in [((-2,), Scalar.t()), ((0,), Scalar.one()), ((1,), Scalar.q())]:
        v = mod.basis_vector(y, coeff)
        assert vectors_equal(mod.dot_act(s, mod.dot_act(s, v)), v)
    assert vectors_equal(
        mod.dot_act(s, mod.basis_vector((1,))), mod.basis_vector((-1,))
    )
    generic = WeightModule(A1, Character((QPower.q(Q(1, 3)),)), Window.box(-1, 1, 1))
    with pytest.raises(ValueError, match="isotropy"):
        generic.dot_act(s, generic.basis_vector((0,)))


# -- induced modules ---------------------------------------------------------


def a2_sign_module():
    iso = isotropy_group(A2, lam_a2())
    win = Window(((-3, 2), (0, 0)))
    return InducedModule(A2, lam_a2(), WRep.sign(iso), win, iso), iso


def test_induced_trivial_case_one_point():
    lam = Character((QPower.one(),))
    iso = isotropy_group(A1, lam)
    assert iso.order == 2
    mod = InducedModule(A1, lam, WRep.trivial(iso), Window.box(0, 0, 1), iso)
    assert mod.dim == 1
    v = mod.basis_vector(0, (0,))
    assert vectors_equal(mod.act_ex((5,), v), v)  # lam(x) = 1
    s = A1.system.simple_reflection(0)
    assert vectors_equal(mod.act_w(s, v), v)


def test_induced_free_point_two_components_per_window_point():
    lam = Character((QPower.q(Q(1, 3)),))
    iso = isotropy_group(A1, lam)
    assert iso.order == 1
    win = Window.box(-1, 1, 1)
    mod = InducedModule(A1, lam, WRep.trivial(iso), win, iso)
    assert mod.dim == 2 * len(win)
    s = A1.system.simple_reflection(0)
    assert mod.weight_of(0, (0,)) == lam
    assert mod.weight_of(1, (0,)) == lam.weyl_act(A1, s)


def test_induced_action_is_group_action():
    mod, _ = a2_sign_module()
    v = mod.basis_vector(1, (1, 0), coeff=Scalar.t())
    v.update(mod.basis_vector(0, (-2, 0)))
    for u1 in A2.system.elements:
        for u2 in A2.system.elements:
            lhs = mod.act_w(u1, mod.act_w(u2, v))
            assert vectors_equal(lhs, mod.act_w(u1 * u2, v))


def test_induced_diagonal_equivariance():
    # u e^x = e^{ux} u as operators on the induced module
    mod, _ = a2_sign_module()
    v = mod.basis_vector(2, (0, 0))
    x = (1, 1)
    for u in A2.system.elements:
        lhs = mod.act_w(u, mod.act_ex(x, v))
        rhs = mod.act_ex(A2.act_x(u, x), mod.act_w(u, v))
        assert vectors_equal(lhs, rhs)


def test_induced_shift_equivariance():
    iso = isotropy_group(A1, lam_a1())
    mod = InducedModule(A1, lam_a1(), WRep.sign(iso), Window.box(-3, 2, 1), iso)
    s = A1.system.simple_reflection(0)
    v = mod.basis_vector(0, (0,))
    lhs = mod.act_w(s, mod.act_ey((1,), v))
    rhs = mod.act_ey(A1.act_y(s, (1,)), mod.act_w(s, v))
    assert vectors_equal(lhs, rhs)


def test_lambda_line_carries_chi():
    iso = isotropy_group(A1, lam_a1())
    win = Window.box(-3, 2, 1)
    for make in (WRep.trivial, WRep.sign):
        chi = make(iso)
        mod = InducedModule(A1, lam_a1(), chi, win, iso)
        for w in iso.elements():
            got = mod.lambda_line_dot_matrix(w)
            expect = chi.matrix(w)
            assert all(
                a == b for ra, rb in zip(got, expect) for a, b in zip(ra, rb)
            )


# -- invariants and dimension bookkeeping ------------------------------------


def test_invariants_of_trivial_induced_module():
    iso = isotropy_group(A1, lam_a1())
    mod = InducedModule(A1, lam_a1(), WRep.trivial(iso), Window.box(-3, 2, 1), iso)
    inv = invariants_basis(mod)
    assert len(inv) == 3
    s = A1.system.simple_reflection(0)
    for vec in inv:
        assert vectors_equal(mod.act_w(s, vec), vec)
    [line_key] = mod.lambda_line()
    assert any(line_key in vec for vec in inv)


def test_lambda_line_symmetrization_by_fiber_character():
    # averaging the dot action over W^lambda on the weight-lambda line:
    # survives for the trivial fiber, dies for the sign fiber
    iso = isotropy_group(A1, lam_a1())
    win = Window.box(-3, 2, 1)
    for make, survives in ((WRep.trivial, True), (WRep.sign, False)):
        mod = InducedModule(A1, lam_a1(), make(iso), win, iso)
        [key] = mod.lambda_line()
        total: dict = {}
        for w in iso.elements():
            for k, c in mod.dot_act(w, {key: Scalar.one()}).items():
                total[k] = total.get(k, Scalar.zero()) + c
        assert any(not c.is_zero() for c in total.values()) == survives


def test_unsaturated_window_is_reported():
    iso = isotropy_group(A1, lam_a1())
    mod = InducedModule(A1, lam_a1(), WRep.trivial(iso), Window.box(0, 2, 1), iso)
    with pytest.raises(WindowOverflowError, match="not saturated"):
        invariants_basis(mod)


def test_dimension_bookkeeping_balances():
    mod = WeightModule(A2, lam_a2(), Window(((-3, 2), (0, 0))))
    iso = mod.isotropy
    report = dimension_bookkeeping(
        mod, {"triv": WRep.trivial(iso), "sign": WRep.sign(iso)}
    )
    assert report["balanced"]
    assert report["window_dim"] == 6
    assert report["per_chi"] == {"triv": 3, "sign": 3}
