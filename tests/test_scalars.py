"""Tests for exact scalar arithmetic."""

from fractions import Fraction as Q
from functools import reduce
from math import lcm
from operator import mul
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qtalg.errors import ScalarEmbeddingError, SpecializationError
from qtalg.scalars import (
    LaurentPoly,
    QPower,
    Scalar,
    _cancel_common,
    _common_den,
    _div,
    _gcd,
    _interpolate,
    nth_root,
)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
qexps = st.fractions(min_value=-2, max_value=2, max_denominator=2)
keys = st.tuples(qexps, st.integers(-2, 2), st.integers(-2, 2))
polys = st.dictionaries(keys, coeffs, max_size=4).map(LaurentPoly)
scalars = st.tuples(polys, polys.filter(lambda p: not p.is_zero())).map(
    lambda nd: Scalar(nd[0], nd[1])
)

nonunit = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
    lambda r: r not in (0, 1, -1)
)
# q0 a square, so that half-integer q-exponents evaluate exactly
points = st.tuples(nonunit.map(lambda r: r * r), nonunit, nonunit)


def poly(d):
    return LaurentPoly({(Q(qe), te, ve): Q(c) for (qe, te, ve), c in d.items()})


# -- LaurentPoly -------------------------------------------------------------


def test_add_cancels_to_zero():
    assert (LaurentPoly.q() - LaurentPoly.q()).is_zero()
    assert (LaurentPoly.t() * LaurentPoly.t(-1)) == LaurentPoly.one()


def test_known_product():
    t_minus = poly({(0, 1, 0): 1, (0, 0, 0): -1})
    t_plus = poly({(0, 1, 0): 1, (0, 0, 0): 1})
    assert t_minus * t_plus == poly({(0, 2, 0): 1, (0, 0, 0): -1})


def test_root_index():
    assert LaurentPoly.q().root_index() == 1
    assert (LaurentPoly.q(Q(1, 2)) + LaurentPoly.t()).root_index() == 2
    assert (LaurentPoly.q(Q(1, 2)) + LaurentPoly.q(Q(2, 3))).root_index() == 6


def test_leading_and_content():
    p = poly({(1, 0, 0): Q(2, 3), (0, 2, 0): Q(-4, 3)})
    assert p.leading() == ((Q(1), 0, 0), Q(2, 3))
    assert p.rational_content() == Q(2, 3)
    assert (-p).rational_content() == Q(-2, 3)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@given(polys)
def test_poly_json_round_trip(p):
    assert LaurentPoly.from_json(p.to_json()) == p


def test_poly_str():
    p = poly({(Q(1, 2), 0, 0): 1, (0, 0, 0): -3})
    assert str(p) == "q^1/2 - 3"


# -- Scalar -------------------------------------------------------------------


def test_cross_multiplication_equality():
    t2_minus_1 = poly({(0, 2, 0): 1, (0, 0, 0): -1})
    t_minus_1 = poly({(0, 1, 0): 1, (0, 0, 0): -1})
    t_plus_1 = poly({(0, 1, 0): 1, (0, 0, 0): 1})
    assert Scalar(t2_minus_1, t_minus_1) == Scalar(t_plus_1)


def test_normalization_invariants():
    s = Scalar(
        poly({(2, 1, 0): Q(1, 2)}),
        poly({(1, 3, 0): Q(-2, 3), (1, 4, 0): Q(-2, 3)}),
    )
    # no common monomial content across numerator and denominator
    mins = [
        min(x)
        for x in zip(*(k for k in list(s.num.terms) + list(s.den.terms)))
    ]
    assert mins == [0, 0, 0]
    # denominator integer-primitive with positive leading coefficient
    assert s.den.rational_content() == 1
    assert s.den.leading()[1] > 0
    assert s == Scalar(
        poly({(2, 1, 0): Q(1, 2)}),
        poly({(1, 3, 0): Q(-2, 3), (1, 4, 0): Q(-2, 3)}),
    )


def test_common_factors_cancel_completely():
    q, t, v, one = LaurentPoly.q(), LaurentPoly.t(), LaurentPoly.v(), LaurentPoly.one()
    c = LaurentPoly.const
    # t - 2 is 1 at t = 3, where a one-point sieve sees no common factor
    s = Scalar((t - c(2)) * (q + t), (t - c(2)) * (t + c(5)))
    assert (s.num, s.den) == (q + t, t + c(5))
    s = Scalar((t - c(2)) * (q + one), (t - c(2)) * (q - one))
    assert (s.num, s.den) == (q + one, q - one)
    s = Scalar((t + v) * (q + one), (t + v) * (q * t - one))
    assert (s.num, s.den) == (q + one, q * t - one)
    # the image of the numerator vanishes at the first evaluation point
    s = Scalar((q - c(4)) * (t + v) * (t + one), (t + v) * (t + one))
    assert (s.num, s.den) == (q - c(4), one)
    # the first candidate gcd does not divide, so the evaluation point grows
    s = Scalar((q**2 * v + c(2) * v) * (t + v), (q * t * v - t * v) * (t + v))
    assert (s.num, s.den) == (q**2 + c(2), q * t - t)


nonzero_polys = polys.filter(lambda p: not p.is_zero())


@given(polys, nonzero_polys, nonzero_polys)
@settings(max_examples=80, deadline=None)
def test_common_factor_leaves_the_stored_form_unchanged(a, b, c):
    # fractional and negative exponents, rational coefficients, q, t and v
    s, t = Scalar(a, b), Scalar(a * c, b * c)
    assert s.num.terms == t.num.terms
    assert s.den.terms == t.den.terms


# integer coefficients up to 10^6 in q^1/2, t and v
big_polys = st.dictionaries(
    st.tuples(st.integers(0, 4).map(lambda e: Q(e, 2)), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-(10**6), 10**6).filter(bool),
    min_size=1,
    max_size=4,
).map(LaurentPoly)
# (a, b, c) for the sides a c and b c: c = 1 leaves a pair that is mostly
# coprime, any other c is a planted common factor
gcd_cases = st.one_of(
    st.tuples(nonzero_polys, nonzero_polys, nonzero_polys),
    st.tuples(big_polys, big_polys, st.just(LaurentPoly.one()) | big_polys),
)


@given(gcd_cases)
@settings(max_examples=100, deadline=None)
def test_cancel_common_returns_the_gcd_with_exact_quotients(case):
    sympy = pytest.importorskip("sympy")
    a, b, c = case
    p, r = a * c, b * c
    split = _cancel_common(p, r)
    syms = sympy.symbols("y t v")  # y = q^(1/2)

    def lift(s):  # s over its monomial content, a polynomial
        return sympy_poly(s.shift(*(-e for e in s.min_exponents())), 2, syms)

    g = sympy.gcd(lift(p), lift(r))
    if split is None:  # only a monomial is common
        assert len(sympy.Poly(g, *syms).terms()) == 1, (p, r, g)
        return
    h, x, y = split
    assert h * x == p and h * y == r
    assert h.min_exponents() == (0, 0, 0) and len(h.terms) > 1
    # h is the gcd up to a unit: a rational multiple of a Laurent monomial
    unit = sympy.fraction(sympy.cancel(sympy_poly(h, 2, syms) / g))
    assert all(len(sympy.Poly(side, *syms).terms()) == 1 for side in unit), (p, r, h, g)


@given(scalars, scalars, nonzero_polys, points)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_equality_agrees_with_specialize(a, b, c, point):
    unreduced = Scalar(a.num * c, a.den * c)
    assert unreduced == a
    assert (a == b) == (a - b).is_zero()
    try:
        va, vb = a.specialize(*point), b.specialize(*point)
        vu = unreduced.specialize(*point)
    except SpecializationError:
        assume(False)
    assert vu == va
    if a == b:
        assert va == vb
    if va != vb:
        assert a != b


def sympy_poly(p: LaurentPoly, grid: int, syms):
    y, t, v = syms
    return sum(
        (c.numerator * y ** int(qe * grid) * t**te * v**ve) / c.denominator
        for (qe, te, ve), c in p.terms.items()
    )


@given(scalars, scalars, nonzero_polys)
@settings(max_examples=40, deadline=None)
def test_stored_sides_are_coprime_by_an_independent_gcd(a, b, c):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("y t v")  # y = q^(1/grid)
    for s in (a, a * b, a + b, Scalar(a.num * c, a.den * c)):
        grid = lcm(s.num.root_index(), s.den.root_index())
        g = sympy.gcd(sympy_poly(s.num, grid, syms), sympy_poly(s.den, grid, syms))
        assert len(sympy.Poly(g, *syms).terms()) == 1, (s, g)


_lq, _lt, _lv, _l1 = LaurentPoly.q, LaurentPoly.t, LaurentPoly.v, LaurentPoly.one()
# monomials, half q-exponents, content, and factors that meet: q^2 - 1 is
# (q - 1)(q + 1)
_den_factors = st.sampled_from(
    [_lq(), _lt(), _lq() - _l1, _lq() + _l1, _lq(2) - _l1, _lq().scale(2) - _l1.scale(3),
     _lq(Q(1, 2)) - _lv(), _lq() * _lt() - _l1]
)
# lowest-terms scalar denominators, monomial ones included
lowest_dens = st.lists(_den_factors, max_size=3).map(
    lambda fs: Scalar(_l1, reduce(mul, fs, _l1)).den
)


@given(st.lists(lowest_dens, max_size=4))
@settings(max_examples=60, deadline=None)
def test_common_den_cofactors_are_exact_and_the_lcm_matches_sympy(dens):
    sympy = pytest.importorskip("sympy")
    den, cofactors = _common_den(dens)
    assert len(cofactors) == len(dens)
    for d, f in zip(dens, cofactors):
        assert f * d == den
    syms = sympy.symbols("y t v")  # y = q^(1/grid)
    grid = lcm(1, *(d.root_index() for d in dens))
    expected = sympy.lcm_list([sympy_poly(d, grid, syms) for d in dens])
    # equal up to a unit: a rational multiple of a Laurent monomial
    unit = sympy.fraction(sympy.cancel(expected / sympy_poly(den, grid, syms)))
    assert all(len(sympy.Poly(side, *syms).terms()) == 1 for side in unit), (dens, den)


int_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-9, 9).filter(bool),
    min_size=1,
    max_size=4,
).map(LaurentPoly)


@given(int_polys, int_polys, int_polys)
@settings(max_examples=80, deadline=None)
def test_gcd_candidates_have_no_monomial_content(a, b, c):
    # so the Laurent division that accepts a candidate tests divisibility of
    # polynomials, which the acceptance argument of GCDHEU needs
    candidates = []

    def recording(h, ax, xi):
        candidates.append(_interpolate(h, ax, xi))
        return candidates[-1]

    f, g = a * c, b * c
    with mock.patch("qtalg.scalars._interpolate", recording):
        h = _gcd(f, g)[0]
    assert all(k.min_exponents() == (0, 0, 0) for k in candidates)
    assert f.divide_exact(h) is not None and g.divide_exact(h) is not None


@given(scalars, scalars, scalars)
@settings(max_examples=40, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a * a.inverse() == Scalar.one()


@given(scalars, scalars)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_specialize_is_a_homomorphism(a, b):
    point = (Q(2), Q(3), Q(5))
    try:
        va, vb = a.specialize(*point), b.specialize(*point)
        vab = (a * b).specialize(*point)
        vsum = (a + b).specialize(*point)
    except SpecializationError:
        assume(False)
    assert vab == va * vb
    assert vsum == va + vb


def test_specialize_frozen_value():
    num = poly({(2, 2, 0): 1, (0, 0, 0): -1})  # q^2 t^2 - 1
    den = poly({(2, 0, 0): 1, (0, 2, 0): -1})  # q^2 - t^2
    assert Scalar(num, den).specialize(2, 3, 1) == Q(-7)


def test_specialize_rejects_bad_points():
    one_over = Scalar(LaurentPoly.one(), poly({(1, 0, 0): 1, (0, 0, 0): -1}))
    with pytest.raises(SpecializationError):
        one_over.specialize(1, 2, 1)  # root of unity
    with pytest.raises(SpecializationError):
        one_over.specialize(-1, 2, 1)
    with pytest.raises(SpecializationError):
        one_over.specialize(0, 2, 1)
    pole = Scalar(LaurentPoly.one(), poly({(1, 0, 0): 1, (0, 0, 0): -2}))
    with pytest.raises(SpecializationError):
        pole.specialize(2, 3, 1)  # q - 2 vanishes
    assert pole.specialize(3, 1, 1) == Q(1)


def test_specialize_fractional_exponents():
    assert Scalar.q(Q(1, 2)).specialize(4, 1, 1) == 2
    assert Scalar.q(Q(-3, 2)).specialize(4, 1, 1) == Q(1, 8)
    with pytest.raises(SpecializationError):
        Scalar.q(Q(1, 2)).specialize(2, 1, 1)
    with pytest.raises(SpecializationError):
        Scalar.t(-1).specialize(2, 0, 1)


def test_nth_root_is_exact_for_large_integers():
    assert nth_root(Q(3**200), 2) == 3**100
    assert nth_root(Q(7**800), 2) == 7**400
    assert nth_root(Q(5**90, 11**60), 3) == Q(5**30, 11**20)
    assert nth_root(Q(-(2**301)), 7) == -(2**43)
    # no exact root
    assert nth_root(Q(3**201), 2) is None
    assert nth_root(Q(2**300 + 1), 3) is None
    assert nth_root(Q(1, 7**801), 2) is None


def test_scalar_monomial_access():
    key, coeff = Scalar.q(-2).as_monomial()
    assert key == (Q(-2), 0, 0) and coeff == 1
    key, coeff = (Scalar.t(3) * Scalar.const(Q(-1, 2))).as_monomial()
    assert key == (Q(0), 3, 0) and coeff == Q(-1, 2)


def stored_terms(s: Scalar) -> tuple:
    """The stored terms of both sides, with the type of every value."""
    return tuple(
        sorted((tuple((v, type(v)) for v in key), (c, type(c))) for key, c in p.terms.items())
        for p in (s.num, s.den)
    )


@pytest.mark.parametrize("coeff", [1, -1, Q(2, 1), Q(-2, 3), 0])
def test_scalar_monomial_is_built_in_stored_form(coeff):
    # the direct build stores what the gcd path of Scalar() stores
    qexps = [-2, Q(-3, 2), Q(-1, 3), Q(-4, 2), 0, Q(1, 2), 1, Q(6, 3)]
    for qe in qexps:
        for te in (-2, -1, 0, 1, 2):
            for ve in (-1, 0, 1):
                got = Scalar.monomial(qe, te, ve, coeff)
                expected = Scalar(LaurentPoly.monomial(qe, te, ve, coeff))
                assert stored_terms(got) == stored_terms(expected), (qe, te, ve)
    for qe in qexps:
        assert stored_terms(Scalar.q(qe)) == stored_terms(Scalar(LaurentPoly.q(qe)))
    assert stored_terms(Scalar.const(coeff)) == stored_terms(Scalar(LaurentPoly.const(coeff)))
    assert stored_terms(Scalar.t(-2)) == stored_terms(Scalar(LaurentPoly.t(-2)))
    assert stored_terms(Scalar.v(-1)) == stored_terms(Scalar(LaurentPoly.v(-1)))


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar.one() / Scalar.zero()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()


@given(scalars)
@settings(max_examples=40, deadline=None)
def test_scalar_json_round_trip(s):
    assert Scalar.from_json(s.to_json()) == s


# -- QPower --------------------------------------------------------------------

rots = st.fractions(min_value=0, max_value=Q(11, 12), max_denominator=12)
mags = st.fractions(min_value=Q(1, 4), max_value=4, max_denominator=4).filter(
    lambda m: m > 0
)
qpowers = st.builds(QPower, rots, qexps, mags)


def test_qpower_basics():
    minus_one = QPower.of(-1)
    assert minus_one * minus_one == QPower.one()
    half = QPower.q(Q(1, 2))
    assert half * half == QPower.q(1)
    assert (minus_one * half) == QPower(rot=Q(1, 2), qexp=Q(1, 2))
    assert QPower.of(Q(3, 2)).mag == Q(3, 2)
    with pytest.raises(ValueError):
        QPower.of(0)


@given(qpowers, qpowers, qpowers)
@settings(max_examples=60, deadline=None)
def test_qpower_group_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == QPower.one()
    assert a**3 == a * a * a
    assert a**-2 == (a.inverse()) ** 2


def test_q_direction_is_torsion_free():
    a = QPower.q(Q(1, 3))
    for n in range(1, 7):
        assert (a**n).is_one() == (n == 0)


def test_qpower_exponent_views():
    assert QPower.q(Q(3, 2)).plain_q_exponent() == Q(3, 2)
    assert QPower.q(Q(3, 2)).integral_q_exponent() is None
    assert QPower.q(-2).integral_q_exponent() == -2
    assert QPower(rot=Q(1, 2)).plain_q_exponent() is None
    assert QPower(mag=2).plain_q_exponent() is None


def test_qpower_scalar_embedding():
    emb = QPower(rot=Q(1, 2), qexp=2, mag=3).as_scalar()
    assert emb == Scalar.monomial(qexp=2, coeff=-3)
    assert QPower.q(Q(1, 2)).as_scalar() == Scalar.q(Q(1, 2))
    with pytest.raises(ScalarEmbeddingError):
        QPower(rot=Q(1, 4)).as_scalar()


def test_qpower_specialize():
    assert QPower(rot=Q(1, 2), qexp=1, mag=2).specialize(3) == -6
    with pytest.raises(SpecializationError):
        QPower(rot=Q(1, 3)).specialize(2)


@given(qpowers)
def test_qpower_json_round_trip(a):
    assert QPower.from_json(a.to_json()) == a


# -- exact division ------------------------------------------------------------


def test_divide_exact_needs_no_step_budget():
    q, t, one = LaurentPoly.q(), LaurentPoly.t(), LaurentPoly.one()
    geometric = LaurentPoly({(k, 0, 0): 1 for k in range(30)})
    assert (q**30 - one).divide_exact(q - one) == geometric
    s = Scalar((q**30 - one) * (one + t), (q - one) * (one + t))
    assert s.den == one
    assert s.num == geometric


def test_divide_exact_rejects_non_divisors():
    q, t, v, one = LaurentPoly.q(), LaurentPoly.t(), LaurentPoly.v(), LaurentPoly.one()
    assert (q**30 - one).divide_exact(q**7 - one) is None
    assert (q**30 - one).divide_exact(q - LaurentPoly.const(2)) is None
    assert (q * t + one).divide_exact(q + t) is None
    # the quotient's t-degree would leave its box at the first step
    assert (q**3 * v - one).divide_exact(q * t - one) is None


big_polys = st.dictionaries(keys, coeffs, min_size=21, max_size=30).map(LaurentPoly)


@given(big_polys, polys.filter(lambda p: not p.is_zero()))
@settings(max_examples=40, deadline=None)
def test_divide_exact_recovers_long_quotients(a, b):
    assert len(a.terms) > 20
    assert (a * b).divide_exact(b) == a


# -- storage: int when integral, Fraction otherwise ------------------------------


def stored_values(*ps: LaurentPoly):
    for p in ps:
        for (qe, te, ve), c in p.terms.items():
            yield from (qe, te, ve, c)


def assert_no_float(*ps: LaurentPoly):
    for x in stored_values(*ps):
        assert isinstance(x, (int, Q)), x


def assert_normalized(*ps: LaurentPoly):
    for x in stored_values(*ps):
        assert type(x) is int or (type(x) is Q and x.denominator != 1), x


def fraction_only(p: LaurentPoly) -> LaurentPoly:
    """p stored with every q-exponent and coefficient a Fraction."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = {(Q(qe), te, ve): Q(c) for (qe, te, ve), c in p.terms.items()}
    return out


def fraction_only_scalar(s: Scalar) -> Scalar:
    out = Scalar.__new__(Scalar)
    out.num, out.den = fraction_only(s.num), fraction_only(s.den)
    return out


@given(st.dictionaries(keys, coeffs, max_size=4), coeffs, keys)
@settings(max_examples=60, deadline=None)
def test_constructors_store_ints_when_integral(raw, c, key):
    p = LaurentPoly(raw)  # hypothesis draws Fraction values, integral ones too
    qe, te, ve = key
    assert_normalized(
        p,
        LaurentPoly.const(c),
        LaurentPoly.monomial(qe, te, ve, c),
        LaurentPoly.q(qe),
        p.scale(c),
        p.scale(1 / c),
        p.shift(qe, te, ve),
        LaurentPoly.from_json(p.to_json()),
    )
    if p.terms:
        assert_normalized(LaurentPoly.const(p.rational_content()))
        s = Scalar(p, LaurentPoly.monomial(qe, te, ve, c))
        assert_normalized(s.num, s.den)
        back = Scalar.from_json(s.to_json())
        assert_normalized(back.num, back.den)


@given(scalars, polys.filter(lambda p: not p.is_zero()), polys)
@settings(max_examples=60, deadline=None)
def test_exact_division_stores_ints_when_integral(s, b, a):
    # the Scalar constructor divides by content and by the gcd, all through
    # the exact-division helper
    assert_normalized(s.num, s.den)
    assert_normalized((a * b).divide_exact(b))
    for x, y in ((6, 3), (3, 6), (Q(3, 2), Q(1, 2)), (Q(1, 2), 3), (-4, Q(2, 3))):
        assert _div(x, y) == Q(x) / Q(y)
        assert_normalized(LaurentPoly.const(_div(x, y)))
        assert type(_div(x, y)) is (int if (Q(x) / Q(y)).denominator == 1 else Q)


@given(scalars, scalars, st.integers(-2, 3), points)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_scalar_arithmetic_agrees_with_fraction_storage(a, b, n, point):
    fa, fb = fraction_only_scalar(a), fraction_only_scalar(b)
    pairs = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)]
    if not b.is_zero():
        pairs.append((a / b, fa / fb))
    if not a.is_zero():
        pairs += [(a.inverse(), fa.inverse()), (a**n, fa**n)]
    for got, ref in pairs:
        assert_no_float(got.num, got.den)
        assert got == ref
        try:
            value = got.specialize(*point)
        except SpecializationError:
            continue
        assert value == ref.specialize(*point)


@given(polys, polys.filter(lambda p: not p.is_zero()), coeffs, keys, points)
@settings(max_examples=60, deadline=None)
def test_poly_arithmetic_agrees_with_fraction_storage(a, b, c, key, point):
    fa, fb = fraction_only(a), fraction_only(b)
    pairs = [
        (a + b, fa + fb),
        (a - b, fa - fb),
        (a * b, fa * fb),
        (a**3, fa**3),
        ((a * b).divide_exact(b), (fa * fb).divide_exact(fb)),
        (a.scale(c), fa.scale(c)),
        (a.shift(*key), fa.shift(*key)),
    ]
    quo = a.divide_exact(b)
    if quo is not None:
        assert quo * b == a
        pairs.append((quo, fa.divide_exact(fb)))
    for got, ref in pairs:
        assert_no_float(got)
        assert got == ref
        assert got.specialize(*point) == ref.specialize(*point)
        assert got.to_json() == ref.to_json() and str(got) == str(ref)
