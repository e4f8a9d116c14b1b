"""Tests for difference-reflection operators, relations and membership."""

import itertools
import json
import random
import re
from fractions import Fraction as Q

import handwritten as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtalg.acceptance import membership_violators
from qtalg.daha import (
    DiffRefOperator,
    _braid_sides,
    braid_sides,
    check_braid,
    check_membership,
    check_quadratic,
    default_pair,
    dl_operator,
    node_cocycle,
    node_reflection,
    relations_report,
)
from qtalg.errors import PoleError, QtalgError
from qtalg.rootdata import LatticePair, RootSystem
from qtalg.scalars import Scalar
from qtalg.torusfn import TorusFraction

A1 = default_pair("A1")
A2 = default_pair("A2")

T = Scalar.t()
QV = Scalar.q()


def frac(pair, num, dens=()):
    return TorusFraction.ratio(pair, num, dens)


# -- shift and reflection operators -------------------------------------------


def test_shift_rescales_monomials():
    mu = (1,)
    d = DiffRefOperator.shift_op(A1, mu)
    f = TorusFraction.monomial(A1, (3,))
    assert d.apply(f) == f.scale(QV**6)  # 2 <3 alpha, pi> = 6


def test_zero_shift_is_identity():
    d = DiffRefOperator.shift_op(A1, (0,))
    assert d == DiffRefOperator.identity(A1)
    f = frac(A1, {(2,): T}, [((1,), Scalar.one())])
    assert d.apply(f) == f


def test_shift_moves_denominator_factors():
    # D^mu (1/(e^a - 1)) = 1/(q^{2<a,mu>} e^a - 1)
    d = DiffRefOperator.shift_op(A1, (1,))
    f = frac(A1, {(0,): Scalar.one()}, [((1,), Scalar.one())])
    expected = ref.two_term_den(
        A1, {(0,): Scalar.one()}, {(1,): QV**2, (0,): Scalar.const(-1)}
    )
    assert d.apply(f) == expected


@given(st.integers(-4, 4))
@settings(max_examples=10, deadline=None)
def test_reflection_exchange_rule(k):
    # [s] e^lam = e^{s lam} [s] as operators
    s = A1.system.simple_reflection(0)
    sw = DiffRefOperator.weyl_op(A1, s)
    mono = DiffRefOperator.from_function(A1, TorusFraction.monomial(A1, (k,)))
    flipped = DiffRefOperator.from_function(A1, TorusFraction.monomial(A1, (-k,)))
    assert sw * mono == flipped * sw


def test_compose_single_term_rewriting():
    s = A2.system.simple_reflection(0)
    h1 = frac(A2, {(1, 0): T})
    h2 = frac(A2, {(0, 1): Scalar.one()})
    a = DiffRefOperator(A2, {(s, (1, 0)): h1})
    b = DiffRefOperator(A2, {(s, (0, 1)): h2})
    prod = a * b
    [(w, mu)] = prod.terms.keys()
    assert w == s * s and w.is_identity()
    assert mu == tuple(
        p + q for p, q in zip((1, 0), A2.act_y(s, (0, 1)))
    )
    # coefficient: h1 * shift_{(1,0)}(s(h2)); s(e^{a2}) = e^{a1 + a2}
    expected = h1 * frac(A2, {(1, 1): Scalar.one()}).shift_mu((1, 0))
    assert prod.terms[(w, mu)] == expected


def test_compose_with_identity_and_power():
    t1 = dl_operator(A1, 1)
    ident = DiffRefOperator.identity(A1)
    assert t1 * ident == t1 and ident * t1 == t1
    assert t1**2 == t1 * t1


# -- deformed generators -------------------------------------------------------


def test_dl_collapses_at_v_zero():
    # at v = 0 the family specialises to H[W]: T_i(0) = t [s_i], node 0 included
    for name in ("A1", "A2", "B2", "G2"):
        system = RootSystem(name)
        for kind in LatticePair.KINDS:
            pair = LatticePair(system, kind)
            for node in range(system.rank + 1):
                op = dl_operator(pair, node, 0)
                expected = node_reflection(pair, node).scale(T)
                assert op == expected, (name, kind, node)
                assert op.to_json() == expected.to_json(), (name, kind, node)
    s = A1.system.simple_reflection(0)
    assert dl_operator(A1, 1, 0) == DiffRefOperator.weyl_op(A1, s).scale(T)
    assert list(dl_operator(A1, 0, 0).terms) == [(s, (-2,))]


_COCYCLE_PAIRS = [
    LatticePair(RootSystem(name), kind)
    for name in ("A1", "A2", "B2", "G2")
    for kind in LatticePair.KINDS
]


@given(
    st.sampled_from(_COCYCLE_PAIRS),
    st.one_of(
        st.none(),
        st.sampled_from([1, Q(1, 2), 0]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
)
@settings(max_examples=40, deadline=None)
def test_node_zero_cocycle_matches_the_two_term_denominator(pair, v):
    # c_0 over 1/(q^2 e^{-theta} - 1), rewritten by hand, has the same stored form
    got = node_cocycle(pair, 0, Scalar.v() if v is None else v)
    assert got.to_json() == ref.node_zero_cocycle(pair, v).to_json()


def test_dl_finite_node_closed_forms():
    op = dl_operator(A1, 1, 1)
    s = A1.system.simple_reflection(0)
    tt = T - T.inverse()
    den = [((1,), Scalar.one())]
    assert op.terms[(A1.system.identity, (0,))] == frac(A1, {(0,): -tt}, den)
    assert op.terms[(s, (0,))] == frac(A1, {(1,): T, (0,): -T.inverse()}, den)


@pytest.mark.parametrize("pair", [A1, A2], ids=["A1", "A2"])
def test_out_of_range_nodes_are_rejected(pair):
    # node -1 once wrapped to the last simple reflection; rank + 1 hit an IndexError
    for node in (-1, pair.rank + 1):
        for build in (
            lambda: node_reflection(pair, node),
            lambda: node_cocycle(pair, node, 1),
            lambda: dl_operator(pair, node),
            lambda: dl_operator(pair, node, 1),
        ):
            with pytest.raises(ValueError, match="not an affine node"):
                build()


def test_dl_affine_node_closed_forms():
    op = dl_operator(A1, 0, 1)
    s = A1.system.simple_reflection(0)
    tt = T - T.inverse()
    den = [((1,), QV**2)]
    assert op.terms[(A1.system.identity, (0,))] == frac(A1, {(1,): tt}, den)
    assert op.terms[(s, (-2,))] == frac(
        A1, {(1,): T.inverse(), (0,): -(QV**2) * T}, den
    )


def test_quadratic_symbolic_and_specialized():
    for node in (0, 1):
        assert check_quadratic(A1, node)
        assert check_quadratic(A1, node, 1)
        assert check_quadratic(A1, node, 0)


def test_quadratic_at_v_one_is_hecke():
    # (T - t)(T + 1/t) = 0
    op = dl_operator(A1, 1, 1)
    ident = DiffRefOperator.identity(A1)
    prod = (op - ident.scale(T)) * (op + ident.scale(T.inverse()))
    assert prod.is_zero()


def test_braid_a2_all_pairs():
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert check_braid(A2, i, j, 1)


def test_braid_infinite_order_rejected():
    with pytest.raises(ValueError, match="infinite"):
        check_braid(A1, 0, 1)


def test_relations_report_shape():
    rep = relations_report(A1, 1)
    assert rep["ok"]
    assert rep["infinite_order_pairs"] == [(0, 1)]
    assert set(rep["quadratic"]) == {0, 1}


def finite_order_pairs(pair):
    nodes = range(pair.rank + 1)
    return [
        (i, j)
        for i in nodes
        for j in nodes
        if i < j and pair.system.affine_coxeter_m(i, j) is not None
    ]


@pytest.mark.parametrize("v", [None, 0, 1, 2], ids=["v", "0", "1", "2"])
@pytest.mark.parametrize("kind", LatticePair.KINDS)
@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_braid_sides_match_the_sequential_build(label, kind, v):
    pair = LatticePair(RootSystem(label), kind)
    for i, j in finite_order_pairs(pair):
        lhs, rhs = braid_sides(pair, i, j, v)
        ref_lhs, ref_rhs = ref.sequential_braid_sides(pair, i, j, v)
        assert lhs.to_json() == ref_lhs.to_json(), (i, j)
        assert rhs.to_json() == ref_rhs.to_json(), (i, j)


@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2)])
def test_a_generator_at_another_v_breaks_an_odd_braid(i, j):
    # the shared middle word assumes nothing about a and b: with T_i and
    # T_j at different v the sides differ, and each is still its product
    for vi, vj in ((1, 2), (2, 1)):
        a, b = dl_operator(A2, i, vi), dl_operator(A2, j, vj)
        lhs, rhs = _braid_sides(a, b, 3)
        assert lhs != rhs
        assert lhs.to_json() == ref.alternating_product(a, b, 3).to_json()
        assert rhs.to_json() == ref.alternating_product(b, a, 3).to_json()


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_symbolic_braid_sides_specialize_to_the_numeric_build(label):
    pair = default_pair(label)
    for i, j in finite_order_pairs(pair):
        symbolic = braid_sides(pair, i, j)
        for v0 in (0, 1, 2):
            for side, numeric in zip(symbolic, braid_sides(pair, i, j, v0)):
                values = ref.specialize_at_points(side, v0)
                assert values == ref.specialize_at_points(numeric, v0)


# coefficient pools of random operators: roots as pole directions, and
# symbolic v, fractional q-powers and signs in the numerators
_pool_coeffs = st.sampled_from(
    [Scalar.one(), Scalar.const(-2), Scalar.v(), T - Scalar.v(), Scalar.q(Q(1, 2)) * T]
)


@st.composite
def repeated_factor_operators(draw, pair):
    """An operator whose coefficients repeat up to sign across its Weyl
    elements, and one whose coefficients are w(g) for one g (as e_v's are)
    or drawn from the same pool: products of the two have keys of several
    pairs with equal left or equal transported right factors."""
    roots = pair.positive_roots_x()
    zero = (0,) * pair.rank

    def fraction():
        x = tuple(draw(st.integers(-1, 1)) for _ in range(pair.rank))
        dens = [(draw(st.sampled_from(roots)), draw(st.sampled_from([Scalar.one(), T * T])))]
        return TorusFraction.ratio(pair, {x: draw(_pool_coeffs), zero: 1}, dens[: draw(st.integers(0, 1))])

    pool = [fraction() for _ in range(draw(st.integers(1, 2)))]
    mus = [zero, tuple(pair.theta_coroot_y())]

    def signed():
        h = draw(st.sampled_from(pool))
        return -h if draw(st.booleans()) else h

    elements = pair.system.elements
    left = {(w, draw(st.sampled_from(mus))): signed() for w in elements}
    g = fraction()
    if draw(st.booleans()):
        right = {(w, zero): g.weyl_act(w) for w in elements}
    else:
        right = {(w, draw(st.sampled_from(mus))): signed() for w in elements}
    return DiffRefOperator(pair, left), DiffRefOperator(pair, right)


@given(st.sampled_from([A1, A2, LatticePair(RootSystem("B2"), "weight")]), st.data())
@settings(max_examples=30, deadline=None)
def test_grouped_products_match_plain_products(pair, data):
    a, b = data.draw(repeated_factor_operators(pair))
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        got, plain = x * y, ref.plain_product(x, y)
        assert got.to_json() == plain.to_json()
        assert got == plain


def test_operator_equality_matches_pointwise_action():
    rng = random.Random(7)
    gens = [dl_operator(A2, n, 1) for n in (0, 1, 2)]
    monos = [
        TorusFraction.monomial(A2, (a, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)
    ]

    def rand_op():
        out = DiffRefOperator.identity(A2)
        for _ in range(rng.randint(1, 3)):
            out = out * rng.choice(gens)
        return out

    for _ in range(6):
        a, b = rand_op(), rand_op()
        same_normal = a == b
        same_pointwise = all(a.apply(f) == b.apply(f) for f in monos)
        assert same_normal == same_pointwise


# the lattices of the pinned operator documents and more: non-primitive root
# directions on the weight lattices (A1 (2,), B2 (2,-2) and (0,2))
FOLD_PAIRS = [
    LatticePair(RootSystem(name), lattice)
    for name, lattice in (
        ("A1", "root"),
        ("A1", "weight"),
        ("B2", "root"),
        ("B2", "weight"),
        ("C2", "weight"),
        ("G2", "root"),
    )
]


def pairwise_product(a: DiffRefOperator, b: DiffRefOperator) -> DiffRefOperator:
    """Composition as it was before the n-ary sum: each partial product
    reduced, then added into its term one at a time.  A two-term
    TorusFraction sum is that old pairwise addition (test_torusfn checks
    it against a copy)."""
    terms: dict = {}
    for (w1, m1), h1 in a.terms.items():
        for (w2, m2), h2 in b.terms.items():
            coeff = h1 * h2.transport(w1, m1)
            key = (w1 * w2, tuple(x + y for x, y in zip(m1, a.pair.act_y(w1, m2))))
            terms[key] = terms[key] + coeff if key in terms else coeff
    return DiffRefOperator(a.pair, terms)


@given(
    st.sampled_from(FOLD_PAIRS),
    st.sampled_from([None, Q(1, 2)]),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_product_and_apply_store_the_pairwise_fold_form(pair, v, data):
    word = data.draw(st.lists(st.integers(0, pair.rank), min_size=2, max_size=4))
    gens = {node: dl_operator(pair, node, v) for node in set(word)}
    got = ref = DiffRefOperator.identity(pair)
    for node in word:
        got, ref = got * gens[node], pairwise_product(ref, gens[node])
    assert got.to_json() == ref.to_json()
    # a half-lattice function with a pole along a root direction
    half = tuple(Q(1, 2) * a for a in pair.theta_x())
    zero = (0,) * pair.rank
    root = data.draw(st.sampled_from(pair.positive_roots_x()))
    f = TorusFraction.ratio(
        pair, {half: Scalar.v(), zero: Scalar.one()}, [(root, Scalar.q(2))]
    )
    applied = TorusFraction.zero(pair)
    for (w, mu), h in got.terms.items():
        applied = applied + h * f.transport(w, mu)
    assert got.apply(f).to_json() == applied.to_json()


# -- residues ------------------------------------------------------------------


def test_residue_simple_pole():
    f = frac(A1, {(0,): Scalar.one()}, [((1,), Scalar.one())])
    assert f.residue((1,), 1) == TorusFraction.one(A1)
    assert f.residue((1,), T**2).is_zero()


def test_residue_restricts_transverse_factors():
    dens = [((1, 0), Scalar.one()), ((0, 1), QV**2)]
    f = frac(A2, {(0, 0): Scalar.one()}, dens)
    expected = frac(A2, {(0, 0): Scalar.one()}, [((0, 1), QV**2)])
    assert f.residue((1, 0), 1) == expected


def test_residue_rejects_double_pole():
    f = frac(A1, {(0,): Scalar.one()}, [((1,), Scalar.one()), ((1,), Scalar.one())])
    with pytest.raises(PoleError):
        f.residue((1,), 1)


# -- membership ----------------------------------------------------------------


def test_generators_and_short_products_are_members():
    gens = [dl_operator(A1, n, 1) for n in (0, 1)]
    for g in gens:
        assert check_membership(g)["ok"]
    for a in gens:
        for b in gens:
            assert check_membership(a * b)["ok"]


def test_multiplication_operator_is_member():
    op = DiffRefOperator.from_function(A1, TorusFraction.monomial(A1, (2,), T))
    assert check_membership(op)["ok"]


def test_membership_rejects_pole_off_family():
    bad = DiffRefOperator.from_function(
        A1, frac(A1, {(0,): Scalar.one()}, [((1,), T**4)])
    )
    rep = check_membership(bad)
    assert not rep["ok"]
    assert {v["rule"] for v in rep["violations"]} == {"pole-location"}


def test_membership_rejects_unpaired_residue():
    bad = DiffRefOperator.from_function(
        A1, frac(A1, {(0,): Scalar.one()}, [((1,), Scalar.one())])
    )
    rep = check_membership(bad)
    assert not rep["ok"]
    assert "residue-sum" in {v["rule"] for v in rep["violations"]}


def test_membership_rejects_missing_vanishing():
    bad = DiffRefOperator.shift_op(A1, (1,))
    rep = check_membership(bad)
    assert not rep["ok"]
    rules = {v["rule"] for v in rep["violations"]}
    assert rules == {"forced-vanishing"}


def test_membership_reports_serialise():
    # the residue-sum partner's mu is built from the coroot and act_y
    for rule, bad in membership_violators(A1):
        rep = check_membership(bad)
        assert rule in {v["rule"] for v in rep["violations"]}
        assert json.loads(json.dumps(rep)) == rep


def _violator(pair, num, den, mu=None) -> DiffRefOperator:
    f = DiffRefOperator.from_function(pair, frac(pair, num, den))
    return f if mu is None else f * DiffRefOperator.shift_op(pair, mu)


def _where(mu, alpha, value) -> dict:
    return {"term": {"w": [], "mu": mu}, "divisor": {"alpha": alpha, "value": value}}


def _pole(detail, mu, alpha, value) -> dict:
    return {"rule": "pole-location", "detail": detail, **_where(mu, alpha, value)}


def _vanishing(detail, mu, alpha, value) -> dict:
    return {"rule": "forced-vanishing", "detail": detail, **_where(mu, alpha, value)}


def _residue_sum(mu, value) -> dict:
    return {
        "rule": "residue-sum",
        "term": {"w": [], "mu": mu},
        "partner": {"w": [1], "mu": [0]},
        "divisor": {"alpha": [1], "value": value},
        "detail": "residues do not cancel",
    }


_NOT_ZERO = "coefficient does not vanish"
_NOT_EVEN = "pole value is not an even power of q"


def pinned_violators() -> list:
    """(operator, violations): the three violators of the acceptance check
    first, then one per remaining detail."""
    return [
        (
            _violator(A1, {(0,): 1}, [((1,), T**4)]),
            [_pole(_NOT_EVEN, [0], [1], "t^4")],
        ),
        (_violator(A1, {(0,): 1}, [((1,), 1)]), [_residue_sum([0], "q^0")]),
        (
            DiffRefOperator.shift_op(A1, (1,)),
            [_vanishing(_NOT_ZERO, [1], [1], "(1)/(t^2)")],
        ),
        (
            _violator(A2, {(0, 0): 1}, [((1, -1), 1)]),
            [_pole("pole direction is not a root", [0, 0], [1, -1], "1")],
        ),
        (
            _violator(A1, {(0,): 1}, [((1,), Scalar.q(2))] * 2),
            [_pole("pole order 2 > 1", [0], [1], "q^2")],
        ),
        (
            _violator(A1, {(0,): 1}, [((1,), T**-2)], mu=(1,)),
            [
                _pole(_NOT_EVEN, [1], [1], "(1)/(t^2)"),
                _vanishing("pole where vanishing is required", [1], [1], "(1)/(t^2)"),
            ],
        ),
        (
            _violator(A1, {(1,): 1, (0,): -Scalar.q(-2)}, [((1,), Scalar.q(2))], mu=(-2,)),
            [
                _residue_sum([-2], "q^2"),
                _vanishing(_NOT_ZERO, [-2], [1], "q^2*t^2"),
                _vanishing(_NOT_ZERO, [-2], [1], "q^4*t^2"),
            ],
        ),
    ]


def test_membership_reports_are_pinned():
    # each report as the Scalar-path check wrote it, compared by repr so
    # that key order and value types count
    for op, violations in pinned_violators():
        assert repr(check_membership(op)) == repr({"ok": False, "violations": violations})


def _generator_words(pair, max_len):
    gens = [dl_operator(pair, n, 1) for n in range(pair.rank + 1)]
    for length in range(1, max_len + 1):
        for word in itertools.product(gens, repeat=length):
            op = word[0]
            for g in word[1:]:
                op = op * g
            yield op


def test_membership_by_zero_tests_matches_the_reduced_rules():
    # every A2 word of length <= 4, every B2 word of length <= 3, the short
    # A2 words moved off the family by a shift (forced vanishing fails) or
    # with one term doubled (residue sums fail), and the pinned violators
    ops = list(_generator_words(A2, 4)) + list(_generator_words(default_pair("B2"), 3))
    shifts = [DiffRefOperator.shift_op(A2, mu) for mu in ((1, 0), (0, -1), (1, -1))]
    for op in _generator_words(A2, 2):
        ops += [op * d for d in shifts]
        for key, h in op.terms.items():
            ops.append(op + DiffRefOperator(A2, {key: h}))
    ops += [op for op, _ in pinned_violators()]
    for op in ops:
        assert repr(check_membership(op)) == repr(ref.check_membership(op))


def _rules_broken(op) -> list:
    """The violations of op, sorted, each with its divisor's value only: the
    divisor direction is in X coordinates, terms and partners are in Y."""
    out = []
    for viol in check_membership(op)["violations"]:
        out.append(json.dumps(dict(viol, divisor=viol["divisor"]["value"]), sort_keys=True))
    return sorted(out)


def test_weight_and_root_charts_of_g2_agree():
    # G2's weight lattice is its root lattice and both charts take Y on the
    # simple coroots, so a word and a shift are the same operator on both:
    # every word of length <= 3, and the short ones moved off the family
    charts = [LatticePair(RootSystem("G2"), kind) for kind in ("weight", "root")]
    words = [list(_generator_words(pair, 3)) for pair in charts]
    for pair, ops in zip(charts, words):
        shifts = [DiffRefOperator.shift_op(pair, mu) for mu in ((1, 0), (0, -1))]
        ops += [op * d for op in ops[:12] for d in shifts]
    assert len(words[0]) == 39 + 24
    for on_weights, on_roots in zip(*words):
        assert _rules_broken(on_weights) == _rules_broken(on_roots)
    assert all(check_membership(op)["ok"] for op in words[0][:39])


def test_weight_chart_generator_words_are_members():
    # a positive root on a weight chart may start negative, as A2's
    # alpha_2 = (-1, 2), while a stored pole direction starts positive
    for label, max_len in (("A2", 3), ("A3", 2)):
        for op in _generator_words(LatticePair(RootSystem(label), "weight"), max_len):
            rep = check_membership(op)
            assert rep["ok"], rep
            assert repr(rep) == repr(ref.check_membership(op))


@pytest.mark.parametrize("label, root", [("A1", [2]), ("B2", [2, -2]), ("C2", [-2, 2])])
def test_membership_refuses_non_primitive_roots(label, root):
    # the rules restrict to e^alpha = tau, which needs alpha primitive
    pair = LatticePair(RootSystem(label), "weight")
    for op in (DiffRefOperator.identity(pair), dl_operator(pair, 1, 1)):
        with pytest.raises(QtalgError, match=re.escape(f"primitive roots; {root} is not")):
            check_membership(op)


def test_membership_residue_cancellation_is_exact():
    op = dl_operator(A1, 1, 1)
    s = A1.system.simple_reflection(0)
    r_e = op.terms[(A1.system.identity, (0,))].residue((1,), Scalar.one())
    r_s = op.terms[(s, (0,))].residue((1,), Scalar.one())
    tt = T - T.inverse()
    assert r_e == TorusFraction.from_scalar(A1, -tt)
    assert r_s == TorusFraction.from_scalar(A1, tt)
    assert (r_e + r_s).is_zero()


# -- node zero ------------------------------------------------------------------


def test_node_zero_reflection_squares_to_identity():
    s0 = node_reflection(A2, 0)
    assert s0 * s0 == DiffRefOperator.identity(A2)


def test_node_zero_substitution_matches_operator():
    # [s_0] = D^{-theta_coroot} [s_theta] acts by
    # e^x -> q^{2<x, theta_coroot>} e^{s_theta x}
    s0 = node_reflection(A2, 0)
    [(w, mu)] = s0.terms
    assert w == A2.system.reflection(A2.system.highest_root)
    theta_y = A2.theta_coroot_y()
    for mono in [(1, 0), (0, 1), (2, -1)]:
        f = TorusFraction.monomial(A2, mono)
        moved = TorusFraction.monomial(
            A2, A2.act_x(w, mono), Scalar.q(2 * A2.pair(mono, theta_y))
        )
        assert s0.apply(f) == f.transport(w, mu) == moved


# -- JSON -----------------------------------------------------------------------


def test_operator_json_round_trip():
    op = dl_operator(A2, 0) * dl_operator(A2, 2)
    data = op.to_json()
    back = DiffRefOperator.from_json(A2, data)
    assert back == op
