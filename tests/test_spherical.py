"""Tests for Hecke words, spherical idempotents and membership."""

import itertools
import random
from fractions import Fraction as Q

import handwritten as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtalg import spherical
from qtalg.daha import DiffRefOperator, default_pair, dl_operator
from qtalg.rootdata import LatticePair, RootSystem
from qtalg.scalars import Scalar
from qtalg.spherical import (
    HeckeExpression,
    check_absorption,
    check_sign_absorption,
    check_spherical,
    deformed_y,
    idempotent_e_v,
    idempotent_eps_v,
    im_involution,
    poincare_sum,
    reduced_words,
)
from qtalg.torusfn import TorusFraction

A1 = default_pair("A1")
A2 = default_pair("A2")
B2 = default_pair("B2")

T = Scalar.t()
ONE = Scalar.one()


def frac(pair, num, dens=()):
    return TorusFraction.ratio(pair, num, dens)


# -- Hecke words ---------------------------------------------------------------


def test_reduced_words_inventory():
    w0 = B2.system.longest_element
    assert sorted(reduced_words(B2.system, w0)) == [(1, 2, 1, 2), (2, 1, 2, 1)]
    assert reduced_words(A1.system, A1.system.identity) == [()]


def test_word_independence_a2_symbolic():
    for w in A2.system.elements:
        ops = [
            HeckeExpression.word(word).to_operator(A2)
            for word in reduced_words(A2.system, w)
        ]
        assert all(op == ops[0] for op in ops[1:])


def test_word_independence_b2():
    for w in B2.system.elements:
        ops = [
            HeckeExpression.word(word, 1).to_operator(B2)
            for word in reduced_words(B2.system, w)
        ]
        assert all(op == ops[0] for op in ops[1:])


def test_word_rejects_affine_node():
    with pytest.raises(ValueError, match="numbered from 1"):
        HeckeExpression.word([0]).to_operator(A1)


# -- idempotents ----------------------------------------------------------------


def test_e0_is_the_classical_symmetrizer():
    e0 = idempotent_e_v(A1, 0)
    s = A1.system.simple_reflection(0)
    half = Scalar.const(Q(1, 2))
    expected = (
        DiffRefOperator.identity(A1) + DiffRefOperator.weyl_op(A1, s)
    ).scale(half)
    assert e0 == expected


def test_sl2_closed_forms():
    e = idempotent_e_v(A1, 1)
    s = A1.system.simple_reflection(0)
    t2 = T * T
    norm = (ONE + t2).inverse()
    den = [((1,), ONE)]
    a = frac(A1, {(1,): t2, (0,): Scalar.const(-1)}, den).scale(norm)
    b = frac(A1, {(1,): ONE, (0,): -t2}, den).scale(norm)
    assert e.terms[(s, (0,))] == a
    assert e.terms[(A1.system.identity, (0,))] == b
    assert a.weyl_act(s) == b
    assert a == TorusFraction.one(A1) - b


def test_e_v_idempotent_symbolic():
    for pair in (A1, A2):
        e = idempotent_e_v(pair)
        assert e * e == e
    for build in (idempotent_e_v, idempotent_eps_v):
        x = build(B2)
        assert x * x == x


def test_e_v_idempotent_b2_numeric():
    for v in (0, 1, 3):
        e = idempotent_e_v(B2, v)
        assert e * e == e


def test_idempotents_at_a_v_with_a_denominator():
    v = T.inverse()
    e = idempotent_e_v(A1, v)
    assert e * e == e
    assert check_absorption(A1, 1, v)
    eps = idempotent_eps_v(A1, v)
    assert eps * eps == eps


def test_eps_v_idempotent_and_xi_image():
    eps = idempotent_eps_v(A1)
    assert eps * eps == eps
    xi_image = im_involution(ref.symmetrizer_word(A1.system))
    assert xi_image == ref.antisymmetrizer_word(A1.system)


def test_absorption():
    assert check_absorption(A1, 1)  # symbolic v
    assert check_absorption(A1, 1, 0)
    assert check_absorption(A2, 1, 1)
    assert check_absorption(A2, 2, 1)


def test_sign_absorption():
    assert check_sign_absorption(A1, 1)
    assert check_sign_absorption(A2, 2, 1)


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_absorption_at_every_node_at_symbolic_v(label):
    pair = default_pair(label)
    for node in range(1, pair.rank + 1):
        assert check_absorption(pair, node)
        assert check_sign_absorption(pair, node)


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_right_absorption_at_every_node_at_symbolic_v(label):
    # T_i e_v = t e_v holds whatever the coefficient h; e_v T_i = t e_v tests h
    pair = default_pair(label)
    e = idempotent_e_v(pair)
    for node in range(1, pair.rank + 1):
        assert e * dl_operator(pair, node) == e.scale(T)


@pytest.mark.parametrize("pair", [A1, A2], ids=["A1", "A2"])
def test_absorption_detects_a_wrong_h(monkeypatch, pair):
    # T_i sum_w w(h) [w] = t sum_w w(h) [w] whatever h is, so only e_v T_i
    # = t e_v sees h; likewise only T_i eps_v = -y eps_v sees k = w0(h)
    macdonald_h = spherical._macdonald_h
    e_alpha = TorusFraction.monomial(pair, pair.simple_root_x(0))
    monkeypatch.setattr(spherical, "_macdonald_h", lambda p, ty: macdonald_h(p, ty) * e_alpha)
    assert not check_absorption(pair, 1)
    assert not check_sign_absorption(pair, 1)


# -- the product formula against the word build -----------------------------------

T2 = T * T
Y_ZERO = T2 * (T2 - ONE).inverse()  # y = t - v(t - 1/t) vanishes here
GRID_V = [0, 1, 2, T.inverse(), None, Y_ZERO]


def assert_same_idempotent(got, expected):
    assert got == expected
    assert got.to_json() == expected.to_json()


@pytest.mark.parametrize("kind", LatticePair.KINDS)
@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_product_formula_matches_the_word_build(label, kind):
    pair = LatticePair(RootSystem(label), kind)
    for v in GRID_V:
        assert_same_idempotent(idempotent_eps_v(pair, v), ref.idempotent_eps_v(pair, v))
        if v is Y_ZERO:
            for build in (idempotent_e_v, ref.idempotent_e_v):
                with pytest.raises(ZeroDivisionError):
                    build(pair, v)
        else:
            assert_same_idempotent(idempotent_e_v(pair, v), ref.idempotent_e_v(pair, v))


@pytest.mark.parametrize("v", [1, None])
def test_product_formula_matches_the_word_build_a3(v):
    pair = default_pair("A3")
    assert_same_idempotent(idempotent_e_v(pair, v), ref.idempotent_e_v(pair, v))
    assert_same_idempotent(idempotent_eps_v(pair, v), ref.idempotent_eps_v(pair, v))


# The plain square of a G2 idempotent at symbolic v or v = 2 takes 6-11 s
# of CPU (2-vCPU machine), so there the grouped square is only compared
# with e, whose stored form every plain square checked here also has.
@pytest.mark.parametrize("v", [None, 1, 2], ids=["v", "1", "2"])
@pytest.mark.parametrize("kind", LatticePair.KINDS)
@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_grouped_idempotent_squares_match_plain_products(label, kind, v):
    pair = LatticePair(RootSystem(label), kind)
    for build in (idempotent_e_v, idempotent_eps_v):
        e = build(pair, v)
        square = (e * e).to_json()
        assert square == e.to_json()
        if label != "G2" or v == 1:
            assert square == ref.plain_product(e, e).to_json()


@pytest.mark.parametrize("pair", [A1, A2], ids=["A1", "A2"])
def test_symbolic_idempotent_squares_specialize_to_the_numeric_build(pair):
    for build in (idempotent_e_v, idempotent_eps_v):
        e = build(pair)
        square = e * e
        for v0 in (0, 1, 2):
            numeric = build(pair, v0)
            values = ref.specialize_at_points(square, v0)
            assert values == ref.specialize_at_points(numeric * numeric, v0)
            assert all(values)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_macdonald_normalization_at_symbolic_v(label):
    # sum_w w(h) = (-ty)^N W(t/y) = (-t^2)^N W(y/t), h = prod (t^2 - ty e^a)/(e^a - 1)
    pair = default_pair(label)
    system = pair.system
    y = deformed_y()
    ty = T * y
    zero = (0,) * pair.rank
    h = TorusFraction.one(pair)
    for alpha in pair.positive_roots_x():
        h = h * frac(pair, {zero: T2, alpha: -ty}, [(alpha, ONE)])
    total = TorusFraction.sum(pair, [h.weyl_act(w) for w in system.elements])
    n = len(system.positive_roots)
    assert total.as_scalar() == (-ty) ** n * poincare_sum(system, T * y.inverse())
    assert total.as_scalar() == (-T2) ** n * poincare_sum(system, y * T.inverse())


def test_generator_eigenvalues():
    # (T - t)(T - (v(t - 1/t) - t)) = 0, symbolically in v
    v = Scalar.v()
    eigen = v * (T - T.inverse()) - T
    ident = DiffRefOperator.identity(A1)
    for node in (0, 1):
        op = dl_operator(A1, node)
        prod = (op - ident.scale(T)) * (op - ident.scale(eigen))
        assert prod.is_zero()


def test_word_and_operator_representations_agree():
    v = Scalar.one()
    expr = ref.symmetrizer_word(A2.system, v)
    direct = DiffRefOperator.zero(A2)
    for word, coeff in expr.terms.items():
        indices = [i for _, i in word]
        direct = direct + HeckeExpression.word(indices, v).to_operator(A2).scale(coeff)
    assert direct == idempotent_e_v(A2, v)


def test_vanishing_normalization_is_an_error():
    # at v = t^2/(t^2 - 1) the scale y vanishes, so W(t, v) has no meaning
    t2 = T * T
    bad_v = t2 * (t2 - ONE).inverse()
    with pytest.raises((ValueError, ZeroDivisionError)):
        idempotent_e_v(A1, bad_v)


def test_vanishing_poincare_sum_is_a_value_error():
    # at v = 2t^2/(t^2 - 1), y = -t and W = 1 + t/y vanishes for A1
    bad_v = Scalar.const(2) * T * T * (T * T - ONE).inverse()
    for build in (idempotent_e_v, idempotent_eps_v):
        with pytest.raises(ValueError, match="vanishes"):
            build(A1, bad_v)


# -- spherical membership --------------------------------------------------------


def test_e_itself_is_spherical():
    rep = check_spherical(idempotent_e_v(A1, 1))
    assert rep.ok and rep.terms_checked == 2


# v = 0 (H[W]), 2 and 1/3 away from DAHA's v = 1, and symbolic v
V_FAMILY = [0, 2, Q(1, 3), None]
V_IDS = ["v0", "v2", "v1_3", "symbolic"]


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
@pytest.mark.parametrize("v", V_FAMILY, ids=V_IDS)
def test_e_v_is_spherical_away_from_v1(label, v):
    pair = default_pair(label)
    rep = check_spherical(idempotent_e_v(pair, v), v)
    assert rep.ok and rep.terms_checked == pair.rank * len(pair.system.elements)


@pytest.mark.parametrize("label", ["A1", "A2"])
@pytest.mark.parametrize("v", [0, 2, None], ids=["v0", "v2", "symbolic"])
def test_sandwiches_are_spherical_away_from_v1(label, v):
    pair = default_pair(label)
    e = idempotent_e_v(pair, v)
    t0, t1 = dl_operator(pair, 0, v), dl_operator(pair, 1, v)
    for g in (t0, t0 * t1):
        assert check_spherical(e * g * e, v).ok


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
@pytest.mark.parametrize("v", V_FAMILY, ids=V_IDS)
def test_bare_generator_is_not_spherical_away_from_v1(label, v):
    rep = check_spherical(dl_operator(default_pair(label), 1, v), v)
    assert not rep.ok
    assert rep.first_witness()["node"] == 1
    assert any(f["condition"] == "right-ratio" for f in rep.failures)


def test_sandwiches_are_spherical():
    e = idempotent_e_v(A1, 1)
    rng = random.Random(11)
    gens = [dl_operator(A1, n, 1) for n in (0, 1)]
    for _ in range(4):
        g = DiffRefOperator.identity(A1)
        for _ in range(rng.randint(1, 3)):
            g = g * rng.choice(gens)
        h = e * g * e
        assert check_spherical(h).ok
        assert e * h * e == h


def test_bare_generator_is_not_spherical():
    rep = check_spherical(dl_operator(A1, 1, 1))
    assert not rep.ok
    witness = rep.first_witness()
    assert witness is not None and witness["node"] == 1
    assert any(f["condition"] == "right-ratio" for f in rep.failures)
    assert any(f["condition"] == "left-equivariance" for f in rep.failures)


def _generator_words(pair, max_length):
    gens = [dl_operator(pair, n, 1) for n in range(pair.rank + 1)]
    for length in range(1, max_length + 1):
        for word in itertools.product(gens, repeat=length):
            op = DiffRefOperator.identity(pair)
            for g in word:
                op = op * g
            yield op


def test_v1_failures_match_the_fixed_ratio_reference():
    # the product formula's ratio at v = 1 is the R_i of the earlier check
    e = idempotent_e_v(A1, 1)
    ops = [op for w in _generator_words(A1, 3) for op in (w, e * w * e)]
    ops += list(_generator_words(A2, 3))
    assert len(ops) == 67
    for op in ops:
        assert check_spherical(op).to_json() == ref.check_spherical_v1(op).to_json()


def test_sl2_series_ratio():
    # the right-ratio factor of v = 1 after a shift by mu = (n,)
    q2 = Scalar.q() ** 2
    t2 = T * T
    for n in (1, -2):
        shifted = ref.spherical_ratio_v1(A1, 1).shift_mu((n,))
        qn = q2**n
        expected = ref.two_term_den(
            A1, {(1,): t2 * qn, (0,): Scalar.const(-1)}, {(1,): qn, (0,): -t2}
        )
        assert shifted == expected


def test_report_json_shape():
    rep = check_spherical(dl_operator(A1, 1, 1))
    data = rep.to_json()
    assert data["ok"] is False
    assert data["failures"][0]["mu"] == [0]


# -- involution -------------------------------------------------------------------


def test_xi_is_an_involution_on_words():
    expr = HeckeExpression.word([1, 2], 1) * HeckeExpression.monomial((1, -1), 1)
    assert im_involution(im_involution(expr)) == expr


def test_xi_image_satisfies_the_quadratic():
    v = Scalar.v()
    d = v * (T - T.inverse())
    kappa = v + T * T * (ONE - v)
    image = im_involution(HeckeExpression.generator(1)).to_operator(A1)
    ident = DiffRefOperator.identity(A1)
    assert image * image == image.scale(d) + ident.scale(kappa)


def test_xi_images_satisfy_braid():
    u1 = im_involution(HeckeExpression.generator(1, 1)).to_operator(A2)
    u2 = im_involution(HeckeExpression.generator(2, 1)).to_operator(A2)
    assert u1 * u2 * u1 == u2 * u1 * u2


_v_values = st.one_of(
    st.none(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
_atoms = st.one_of(
    st.tuples(st.just("T"), st.integers(1, 3)),
    st.tuples(st.just("X"), st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
)
_coeffs = st.builds(
    lambda a, b, k: Scalar.const(a) + Scalar.const(b) * T**k,
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.integers(-1, 1),
)


@st.composite
def expressions(draw, v):
    words = draw(st.lists(st.lists(_atoms, max_size=4), min_size=1, max_size=3))
    return HeckeExpression(v, {tuple(w): draw(_coeffs) for w in words})


@given(st.data(), _v_values)
@settings(max_examples=60, deadline=None)
def test_xi_matches_the_atom_by_atom_expansion(data, v):
    expr = data.draw(expressions(v))
    assert im_involution(expr).to_json() == ref.im_involution(expr).to_json()


@given(st.data(), _v_values)
@settings(max_examples=40, deadline=None)
def test_xi_is_multiplicative(data, v):
    a, b = data.draw(expressions(v)), data.draw(expressions(v))
    assert im_involution(a * b) == im_involution(a) * im_involution(b)
    assert im_involution(a + b) == im_involution(a) + im_involution(b)


def test_xi_rejects_operators():
    with pytest.raises(TypeError, match="generator-word"):
        im_involution(dl_operator(A1, 1))


def test_expression_json_round_trip():
    expr = ref.symmetrizer_word(A2.system) * HeckeExpression.monomial((0, 1))
    assert HeckeExpression.from_json(expr.to_json()) == expr


# -- sign representation ----------------------------------------------------------


def sign_rep_apply(pair, expr, f):
    """Act by the involuted word on the anti-symmetrized function space."""
    proj = idempotent_eps_v(pair, expr.v)
    if proj.apply(f) != f:
        raise ValueError("function is not in the projected subspace")
    image = im_involution(expr).to_operator(pair).apply(f)
    if proj.apply(image) != image:
        raise ValueError("the image leaves the projected subspace")
    return image


def antisym_a1():
    return frac(A1, {(1,): ONE, (-1,): Scalar.const(-1)})


def test_antisymmetric_function_basics():
    f = antisym_a1()
    s = A1.system.simple_reflection(0)
    assert f.weyl_act(s) == -f


def test_projector_fixes_its_image():
    eps = idempotent_eps_v(A1, 0)
    g = eps.apply(frac(A1, {(2,): ONE}))
    assert eps.apply(g) == g
    assert not g.is_zero()


def test_sign_rep_action_preserves_antisymmetry():
    v = Scalar.zero()
    e_word = ref.symmetrizer_word(A1.system, v)
    a = e_word * HeckeExpression.monomial((1,), v) * e_word
    f = antisym_a1()
    image = sign_rep_apply(A1, a, f)
    s = A1.system.simple_reflection(0)
    assert image.weyl_act(s) == -image


def test_sign_rep_rejects_functions_outside_the_space():
    a = ref.symmetrizer_word(A1.system, Scalar.zero())
    with pytest.raises(ValueError, match="projected subspace"):
        sign_rep_apply(A1, a, frac(A1, {(1,): ONE}))
