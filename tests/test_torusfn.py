"""Tests for rational functions on the character torus."""

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import handwritten
import percoefficient as ref
from qtalg import torusfn
from qtalg.errors import PoleError
from qtalg.rootdata import LatticePair, RootSystem
from qtalg.scalars import LaurentPoly, Scalar
from qtalg.torusfn import TorusFraction, _divisor, _make_factor

A1 = LatticePair(RootSystem("A1"), "root")
A1_ADJ = LatticePair(RootSystem("A1"), "adjoint")
A2 = LatticePair(RootSystem("A2"), "root")


def frac(num, den=(), pair=A1):
    return TorusFraction.ratio(pair, num, den)


def test_cancellation():
    f = frac({(2,): 1, (0,): -1}, [((1,), 1)])
    assert not f.factors
    assert f == frac({(1,): 1, (0,): 1})
    g = frac({(2,): 1, (1,): -2, (0,): 1}, [((1,), 1)])
    assert g == frac({(1,): 1, (0,): -1})
    h = frac({(4,): 1, (0,): -Scalar.q(4)}, [((2,), Scalar.q(2))])
    assert h == frac({(2,): 1, (0,): Scalar.q(2)})
    # the factor's value needs a finer q-grid than the numerator
    k = frac({(3,): 1, (0,): -Scalar.q(1)}, [((1,), Scalar.q(Q(1, 3)))])
    assert not k.factors
    assert k == frac({(2,): 1, (1,): Scalar.q(Q(1, 3)), (0,): Scalar.q(Q(2, 3))})


def test_no_spurious_cancellation():
    f = frac({(1,): Scalar.t(2), (0,): -1}, [((1,), Scalar.t(2))])
    assert f.factors
    assert f.pole_list() == [((1,), Scalar.t(2), 1)]


def test_field_identities():
    a = frac({(1,): Scalar.t(1)}, [((1,), 1)])
    b = frac({(0,): 1, (1,): Scalar.q(1)}, [((1,), Scalar.q(2))])
    c = frac({(-1,): 1})
    assert (a + b) * c == a * c + b * c
    assert (a - a).is_zero()
    # cross-form equality
    assert frac({(2,): 1, (0,): -Scalar.q(2)}, [((1,), Scalar.q(1))]) == frac(
        {(1,): 1, (0,): Scalar.q(1)}
    )


def test_shift_mu_on_adjoint_chart():
    # X = root lattice, Y = coweight lattice: <alpha, mu> = 1 for mu the
    # fundamental coweight, so the shift sends e^alpha to q^2 e^alpha
    mono = TorusFraction.monomial(A1_ADJ, (1,))
    shifted = mono.shift_mu((1,))
    assert shifted == TorusFraction.monomial(A1_ADJ, (1,), Scalar.q(2))
    f = TorusFraction.ratio(A1_ADJ, {(0,): 1}, [((1,), Scalar.t(2))])
    g = f.shift_mu((1,))
    # 1/(e^a - t^2) -> q^{-2}/(e^a - q^{-2} t^2)
    expected = TorusFraction.ratio(
        A1_ADJ, {(0,): Scalar.q(-2)}, [((1,), Scalar.t(2) * Scalar.q(-2))]
    )
    assert g == expected
    h = TorusFraction.ratio(A1_ADJ, {(1,): Scalar.t(1), (0,): 2}, [((1,), 1)])
    assert h.shift_mu((1,)).shift_mu((2,)) == h.shift_mu((3,))
    assert (f * h).shift_mu((1,)) == f.shift_mu((1,)) * h.shift_mu((1,))


def test_weyl_action():
    s = A1.system.simple_reflection(0)
    f = TorusFraction.ratio(A1, {(0,): 1}, [((1,), Scalar.t(2))])
    sf = f.weyl_act(s)
    # s(1/(e^a - t^2)) * (e^{-a} - t^2) = 1
    poly = frac({(-1,): 1, (0,): -Scalar.t(2)})
    assert sf * poly == TorusFraction.one(A1)
    assert sf.weyl_act(s) == f
    # A2: s1 fixes e^{a1+a2} + e^{-a1-a2}... no: s1(a1+a2) = a2
    s1 = A2.system.simple_reflection(0)
    m = TorusFraction.monomial(A2, (1, 1))
    assert m.weyl_act(s1) == TorusFraction.monomial(A2, (0, 1))


def test_transport_composes():
    # D^mu1 [w1] D^mu2 [w2] = D^{mu1 + w1 mu2} [w1 w2]
    f = frac({(1, 0): 1, (0, 1): Scalar.t(1)}, [((1, 1), Scalar.q(2))], pair=A2)
    system = A2.system
    for word1, word2, mu1, mu2 in [
        ((0,), (1,), (1, 0), (0, 2)),
        ((0, 1), (1, 0, 1), (-1, 1), (2, -1)),
        ((), (0, 1), (0, 0), (1, 1)),
    ]:
        w1, w2 = system.element_by_word(word1), system.element_by_word(word2)
        once = f.transport(w2, mu2).transport(w1, mu1)
        mu = tuple(a + b for a, b in zip(mu1, A2.act_y(w1, mu2)))
        assert once == f.transport(w1 * w2, mu)


def test_half_lattice_display_form():
    # (q^{-1} e^{a/2} - q e^{-a/2}) / (q^{-1} e^{-a/2} - q e^{a/2})
    # the denominator is q^{-1} e^{a/2} (e^{-a} - q^2)
    half = Q(1, 2)
    display = TorusFraction.ratio(
        A1,
        {(half,): Scalar.q(-1), (-half,): -Scalar.q(1)},
        [((-1,), Scalar.q(2))],
    ) * TorusFraction.monomial(A1, (-half,), Scalar.q(1))
    normalized = TorusFraction.ratio(
        A1,
        {(1,): -Scalar.q(-2), (0,): 1},
        [((1,), Scalar.q(-2))],
    )
    assert display == normalized
    s = A1.system.simple_reflection(0)
    assert display.weyl_act(s) * display == TorusFraction.one(A1)


def test_evaluate_at():
    f = frac({(1,): Scalar.t(2), (0,): -1}, [((1,), Scalar.t(2))])
    value = f.evaluate_at((1,), Scalar.q(2)).as_scalar()
    assert value.specialize(2, 3, 1) == Q(-7)
    with pytest.raises(PoleError):
        f.evaluate_at((1,), Scalar.t(2))
    with pytest.raises(ValueError):
        f.evaluate_at((2,), Scalar.q(2))  # imprimitive direction


def test_evaluate_at_rank_two():
    f = TorusFraction.ratio(
        A2, {(1, 0): 1, (0, 1): 1}, [((1, 1), Scalar.q(2))]
    )
    g = f.evaluate_at((1, 0), Scalar.q(2))
    # e^{a1} = q^2: num -> q^2 + e^{a2}, den factor (1,1) -> q^2(e^{a2} - 1)
    expected = TorusFraction.ratio(
        A2,
        {(0, 0): Scalar.q(2) * Scalar.q(-2), (0, 1): Scalar.q(-2)},
        [((0, 1), 1)],
    )
    assert g == expected


def test_residue_simple():
    f = TorusFraction.ratio(A1, {(0,): 1}, [((1,), Scalar.q(2))])
    res = f.residue((1,), Scalar.q(2))
    assert res.as_scalar() == Scalar.one()
    g = frac({(1,): 1, (0,): 1}, [((1,), Scalar.q(2))])
    assert g.residue((1,), Scalar.q(2)).as_scalar() == Scalar.q(2) + Scalar.one()
    # no pole: residue vanishes
    assert g.residue((1,), Scalar.t(2)).is_zero()


def test_residue_flipped_orientation():
    f = TorusFraction.ratio(A1, {(0,): 1}, [((1,), Scalar.q(2))])
    res = f.residue((-1,), Scalar.q(-2))
    assert res.as_scalar() == -Scalar.q(-4)
    # e^{-a} = q^{-2} is the divisor e^a = q^2, where f has a simple pole
    assert f.pole_order((-1,), Scalar.q(-2)) == 1
    with pytest.raises(PoleError):
        f.evaluate_at((-1,), Scalar.q(-2))
    g = TorusFraction.ratio(A1, {(0,): 1}, [((1,), 1)])
    assert g.pole_order((-1,), 1) == 1
    with pytest.raises(PoleError):
        g.evaluate_at((-1,), 1)
    assert g.residue((-1,), 1).as_scalar() == Scalar.const(-1)
    # away from the pole: e^a = 1/2, where 1/(e^a - 1) is -2
    assert g.evaluate_at((-1,), 2).as_scalar() == Scalar.const(-2)
    assert g.pole_order((-1,), 2) == 0


def test_residue_cancellation_pair():
    tdiff = Scalar.t(1) - Scalar.t(-1)
    f1 = TorusFraction.ratio(A1, {(0,): -tdiff}, [((1,), 1)])
    f2 = TorusFraction.ratio(A1, {(0,): tdiff}, [((1,), 1)])
    r1 = f1.residue((1,), Scalar.one()).as_scalar()
    r2 = f2.residue((1,), Scalar.one()).as_scalar()
    assert (r1 + r2).is_zero()
    assert r1 == -tdiff


def test_higher_order_pole():
    f = TorusFraction.ratio(
        A1, {(0,): 1}, [((1,), Scalar.q(2)), ((1,), Scalar.q(2))]
    )
    assert f.pole_order((1,), Scalar.q(2)) == 2
    with pytest.raises(PoleError):
        f.residue((1,), Scalar.q(2))


def test_residue_through_multiple_of_direction():
    # factor e^{2a} - q^2 has a simple zero along e^a = q
    f = TorusFraction.ratio(A1, {(0,): 1}, [((2,), Scalar.q(2))])
    res = f.residue((1,), Scalar.q(1))
    # (e^{2a} - q^2) = (e^a - q)(e^a + q); value of 1/(e^a + q) at q is 1/(2q)
    assert res.as_scalar() == (Scalar.const(2) * Scalar.q(1)).inverse()


@pytest.mark.parametrize("alpha", [(1,), (-1,)], ids=["alpha", "minus-alpha"])
def test_zero_divisor_value_is_an_error(alpha):
    # e^alpha = 0 is not a point of the torus, in either orientation
    f = frac({(1,): 1}, [((1,), 1)])
    for method in (f.evaluate_at, f.residue, f.pole_order):
        with pytest.raises(ValueError, match="divisor value must be nonzero"):
            method(alpha, 0)


def test_zero_direction_is_an_error():
    # f = e^a / (e^a - 1): a zero direction names no divisor
    f = frac({(1,): 1}, [((1,), 1)])
    for method in (f.evaluate_at, f.residue, f.pole_order):
        with pytest.raises(ValueError, match="direction must be nonzero"):
            method((0,), 1)


def test_pole_list_and_json():
    f = TorusFraction.ratio(
        A1, {(0,): 1}, [((1,), Scalar.q(2)), ((1,), 1)]
    )
    poles = f.pole_list()
    assert [(d, m) for d, _, m in poles] == [((1,), 1), ((1,), 1)]
    data = f.to_json()
    assert len(data["den"]) == 2 and data["num"]


def unreduced(pair, num, factors) -> TorusFraction:
    """num / factors with no factor cancelled."""
    over = TorusFraction(pair, {(0,) * pair.rank: 1}, factors)
    return TorusFraction(pair, num).mul_unreduced(over)


def test_zero_fraction_has_no_poles():
    f = TorusFraction.ratio(A1, {(0,): 1}, [((1,), Scalar.q(2))])
    zero = f.scale(Scalar.zero())
    assert zero.is_zero() and not zero.factors
    assert zero.pole_list() == [] and zero.to_json()["den"] == []
    assert unreduced(A1, {(1,): Scalar.zero()}, f.factors).pole_list() == []


# -- factor cancellation by exact division -----------------------------------------


def stored(num: dict) -> dict:
    return {x: c.to_json() for x, c in num.items()}


PAIRS = {
    1: (A1, [(1,), (2,), (3,)]),
    2: (A2, [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (0, 2)]),
}
# the same directions on the weight lattice, whose Weyl matrices differ
WEIGHT_PAIRS = {
    n: (LatticePair(pair.system, "weight"), betas)
    for n, (pair, betas) in PAIRS.items()
}
# fractional q-exponents with denominators 2 and 3 (grid 6), negative
# exponents and symbolic v
_qexps = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_coeffs = st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(5, 3)])
_polys = st.dictionaries(
    st.tuples(_qexps, st.integers(-2, 2), st.integers(-1, 1)),
    _coeffs,
    min_size=1,
    max_size=3,
).map(LaurentPoly)
_dens = st.sampled_from(
    [
        LaurentPoly.one(),
        LaurentPoly.one() + LaurentPoly.t(2),
        LaurentPoly.q(Q(1, 2)) - LaurentPoly.v(),
    ]
)
_scalars = st.builds(Scalar, _polys, _dens)
_monomials = st.builds(
    Scalar.monomial,
    qexp=_qexps,
    texp=st.integers(-2, 2),
    vexp=st.integers(-1, 1),
    coeff=_coeffs,
)


@st.composite
def fractions_to_reduce(draw, lattices=(PAIRS,)):
    """(pair, numerator, factors): a random numerator times a random subset
    of the factors, over half-lattice exponents."""
    lattice = draw(st.sampled_from(lattices))
    pair, betas = lattice[draw(st.sampled_from([1, 2]))]
    xs = st.tuples(
        *[st.fractions(min_value=-2, max_value=2, max_denominator=2)] * pair.rank
    )
    num = draw(st.dictionaries(xs, _scalars, min_size=1, max_size=4))
    factors = [
        _make_factor(draw(st.sampled_from(betas)), draw(_monomials))
        for _ in range(draw(st.integers(1, 3)))
    ]
    for f in factors:
        if draw(st.booleans()):
            num = ref.num_mul(num, ref.binomial(f, pair.rank))
    return pair, num, factors


_reduce_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def multiclass_fractions_to_reduce(draw):
    """(pair, numerator, factors) at rank 2: a sum over two or three
    classes x + Z beta, x a half-lattice point, each a random polynomial
    along beta that is multiplied, or not, by each factor along beta, so
    that the class a reduction probes first may divide while another does
    not.  beta may be non-primitive, as (0, 2) and (2, 1) - (0, 1) are."""
    pair, betas = draw(st.sampled_from([PAIRS[2], WEIGHT_PAIRS[2]]))
    beta = draw(st.sampled_from(betas))
    factors = [_make_factor(beta, draw(_monomials)) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        factors.append(_make_factor(draw(st.sampled_from(betas)), draw(_monomials)))
    half = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    num: dict = {}
    for _ in range(draw(st.integers(2, 3))):
        x = (draw(half), draw(half))
        along = {
            tuple(v + m * b for v, b in zip(x, beta)): draw(_scalars)
            for m in range(draw(st.integers(1, 3)))
        }
        for f in factors:
            if f[0] == beta and draw(st.booleans()):
                along = ref.num_mul(along, ref.binomial(f, pair.rank))
        for y, c in along.items():
            num[y] = num[y] + c if y in num else c
    num = {y: c for y, c in num.items() if not c.is_zero()} or {(0, 0): Scalar.one()}
    return pair, num, factors


@_reduce_settings
@given(st.one_of(fractions_to_reduce(), multiclass_fractions_to_reduce()))
def test_screened_reduce_matches_the_unscreened_loop(case):
    pair, num, factors = case
    raw = unreduced(pair, num, factors)
    ref_num, ref_factors = ref.reduce(raw.num, raw.factors)
    reduced = TorusFraction(pair, num, factors)
    assert reduced.factors == ref_factors
    assert stored(reduced.num) == stored(ref_num)


@_reduce_settings
@given(fractions_to_reduce(), st.data())
def test_a_factor_of_the_numerator_always_cancels(case, data):
    pair, g, factors = case
    f = data.draw(st.sampled_from(factors))
    num = ref.num_mul(g, ref.binomial(f, pair.rank))
    cancelled = TorusFraction(pair, num, (f,))
    assert cancelled.factors == ()
    assert cancelled == TorusFraction(pair, g)


# Values that a reduction modulo the prime 2^61 - 1 at a fixed point cannot
# read: exact division decides them like any other.
_P = (1 << 61) - 1
_T_AT_POINT = 987_654_321_098_767


@pytest.mark.parametrize(
    "undefined",
    [Scalar.const(Q(1, _P))],  # coefficient denominator divisible by p
    ids=["coefficient-denominator-p"],
)
def test_undefined_residues_fall_back_to_exact_division(undefined):
    factor = ((1,), Scalar.q(2))
    # (e^a - q^2) * undefined * (e^a + 1) cancels
    num = {
        (2,): undefined,
        (1,): undefined * (Scalar.one() - Scalar.q(2)),
        (0,): -undefined * Scalar.q(2),
    }
    divisible = frac(num, [factor])
    assert not divisible.factors
    assert divisible == frac({(1,): undefined, (0,): undefined})
    kept = frac({(1,): undefined, (0,): 1}, [factor])
    assert kept.pole_list() == [((1,), Scalar.q(2), 1)]


def test_screen_reads_numerators_over_a_vanishing_denominator():
    # the scalar denominator vanishes modulo p at t = _T_AT_POINT
    vanishing = Scalar(LaurentPoly.one(), LaurentPoly.t() - LaurentPoly.const(_T_AT_POINT))
    factor = ((1,), Scalar.q(2))
    num = {
        (2,): vanishing,
        (1,): vanishing * (Scalar.one() - Scalar.q(2)),
        (0,): -vanishing * Scalar.q(2),
    }
    divisible = frac(num, [factor])
    assert divisible == frac({(1,): vanishing, (0,): vanishing})
    assert not divisible.factors
    kept = frac({(1,): vanishing, (0,): 1}, [factor])
    assert kept.pole_list() == [((1,), Scalar.q(2), 1)]


def test_indivisible_factors_are_kept():
    f = frac({(1,): Scalar.t(2), (0,): -1}, [((1,), Scalar.t(2)), ((2,), Scalar.q())])
    assert len(f.factors) == 2


# -- storage of exponents: int when integral, Fraction otherwise --------------------


def assert_stored_normalized(f: TorusFraction):
    for x, p in f.polys.items():
        for v in x:
            assert type(v) is int or (type(v) is Q and v.denominator != 1), x
        for poly in (p, f.den):
            for (qe, te, ve), coeff in poly.terms.items():
                assert isinstance(qe, (int, Q)) and isinstance(coeff, (int, Q))
    for f_ in f.factors:
        qe = f_[1][0]
        assert type(qe) is int or (type(qe) is Q and qe.denominator != 1), f_


def fraction_keyed(f: TorusFraction) -> TorusFraction:
    """f with every exponent stored as a Fraction."""
    out = TorusFraction.__new__(TorusFraction)
    out.pair, out.den, out.factors = f.pair, f.den, f.factors
    out.polys = {tuple(Q(v) for v in x): p for x, p in f.polys.items()}
    return out


@_reduce_settings
@given(fractions_to_reduce(), fractions_to_reduce(), st.data())
def test_substitution_and_evaluation_store_ints_when_integral(case, other, data):
    pair, num, factors = case
    f = TorusFraction(pair, num, factors)
    ref = fraction_keyed(f)
    n = pair.rank
    mu = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    w = data.draw(st.sampled_from(pair.system.elements))
    results = [
        (f, ref),
        (f.transport(w, mu), ref.transport(w, mu)),
        (f.shift_mu(mu), ref.shift_mu(mu)),
    ]
    for i in range(n):
        s = pair.system.simple_reflection(i)
        results.append((f.weyl_act(s), ref.weyl_act(s)))
    alpha = data.draw(st.sampled_from(PAIRS[n][1][: 1 if n == 1 else 3]))
    tau = Scalar.q(data.draw(_qexps))
    try:
        results.append((f.evaluate_at(alpha, tau), ref.evaluate_at(alpha, tau)))
    except PoleError:
        pass
    if other[0] is pair:
        g = TorusFraction(pair, other[1], other[2])
        results += [(f + g, ref + g), (f * g, ref * g)]
    for got, expected in results:
        assert_stored_normalized(got)
        assert got == expected


# -- transport: one non-reducing substitution --------------------------------------


def reference_substitute(f: TorusFraction, mat, phi) -> TorusFraction:
    """The substitution e^x -> q^{phi.x} e^{M x} with a reducing rebuild."""
    return TorusFraction(f.pair, *ref.substitute(f.pair.rank, (f.num, f.factors), mat, phi))


def reference_transport(f: TorusFraction, w, mu) -> TorusFraction:
    """The plain Weyl action, then the shift by mu, each reducing."""
    pair, n = f.pair, f.pair.rank
    moved = reference_substitute(f, pair.x_matrix(w), (0,) * n)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    phi = tuple(
        2 * sum(pair.pairing[i][j] * mu[j] for j in range(n)) for i in range(n)
    )
    return reference_substitute(moved, ident, phi)


@_reduce_settings
@given(fractions_to_reduce(lattices=(PAIRS, WEIGHT_PAIRS)), st.data())
def test_transport_matches_the_reducing_two_step_path(case, data):
    pair, num, factors = case
    f = TorusFraction(pair, num, factors)
    n = pair.rank
    w = pair.system.element_by_word(
        data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    )
    mu = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    got = f.transport(w, mu)
    expected = reference_transport(f, w, mu)
    assert got.factors == expected.factors
    assert stored(got.num) == stored(expected.num)
    # the substitution is an automorphism: reducing again cancels nothing
    rebuilt = TorusFraction(pair, got.num, got.factors)
    assert rebuilt.factors == got.factors
    assert stored(rebuilt.num) == stored(got.num)
    same = f.transport(pair.system.identity, (0,) * n)
    assert same == f
    assert same.factors == f.factors and stored(same.num) == stored(f.num)


# -- one n-ary sum over the lcm denominator ---------------------------------------


def pairwise_add(a: TorusFraction, b: TorusFraction) -> TorusFraction:
    """The two-term sum the n-ary one replaced: the lcm of the two factor
    multisets, each numerator times the factors only the other has, one
    reduction."""
    counts: dict = {}
    for f in a.factors:
        counts[f] = counts.get(f, 0) + 1
    common, b_extra = [], []
    for f in b.factors:
        if counts.get(f, 0) > 0:
            counts[f] -= 1
            common.append(f)
        else:
            b_extra.append(f)
    a_extra = [f for f, m in counts.items() for _ in range(m)]
    rank = a.pair.rank
    num = ref.num_mul(a.num, ref.factors_poly(b_extra, rank))
    for x, c in ref.num_mul(b.num, ref.factors_poly(a_extra, rank)).items():
        num[x] = num[x] + c if x in num else c
    return TorusFraction(a.pair, num, common + a_extra + b_extra)


def pairwise_fold(parts) -> TorusFraction:
    """The sum as operator products formed it before: each part reduced,
    then added into the running total one at a time."""
    reduced = [TorusFraction(p.pair, p.num, p.factors) for p in parts]
    out = reduced[0]
    for p in reduced[1:]:
        out = pairwise_add(out, p)
    return out


def _oriented(beta) -> tuple[int, ...]:
    beta = tuple(int(b) for b in beta)
    return beta if next(b for b in beta if b) > 0 else tuple(-b for b in beta)


# root directions, as operator coefficients have them: in a reduced root
# system no two are proportional, and on the weight lattices some are not
# primitive (A1 (2,), B2 (2,-2) and (0,2))
ROOT_DIRECTIONS = [
    (pair, sorted({_oriented(a) for a in pair.positive_roots_x()}))
    for pair in (
        A1,
        LatticePair(RootSystem("A1"), "weight"),
        A2,
        LatticePair(RootSystem("B2"), "weight"),
        LatticePair(RootSystem("G2"), "root"),
    )
]
# factor values: random monomials (symbolic v, coefficient 1/2) and squares,
# whose binomials split along a non-primitive direction
_values = st.one_of(
    _monomials,
    st.sampled_from(
        [Scalar.one(), Scalar.q(2), Scalar.t(2), Scalar.q(-2) * Scalar.t(2)]
    ),
)


@st.composite
def parts_to_sum(draw):
    """(pair, parts): unreduced products of fractions over a shared pool of
    root-direction factors with half-lattice numerators, and sometimes a last
    part that cancels the sum down to another such fraction."""
    pair, betas = draw(st.sampled_from(ROOT_DIRECTIONS))
    xs = st.tuples(
        *[st.fractions(min_value=-1, max_value=1, max_denominator=2)] * pair.rank
    )
    pool = [
        _make_factor(draw(st.sampled_from(betas)), draw(_values))
        for _ in range(draw(st.integers(1, 3)))
    ]

    def fraction() -> TorusFraction:
        num = draw(st.dictionaries(xs, _scalars, min_size=1, max_size=2))
        factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
        for f in factors:
            if draw(st.booleans()):
                num = ref.num_mul(num, ref.binomial(f, pair.rank))
        return unreduced(pair, num, factors)

    parts = [
        fraction().mul_unreduced(fraction()) for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        target = fraction()
        parts.append(TorusFraction.sum(pair, [target] + [-p for p in parts]))
    return pair, parts


@_reduce_settings
@given(parts_to_sum(), st.randoms(use_true_random=False))
def test_sum_stores_the_pairwise_fold_form(case, rng):
    pair, parts = case
    got = TorusFraction.sum(pair, parts)
    assert got.to_json() == pairwise_fold(parts).to_json()
    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert TorusFraction.sum(pair, shuffled).to_json() == got.to_json()
    a, b = (TorusFraction(pair, p.num, p.factors) for p in (parts * 2)[:2])
    assert (a + b).to_json() == pairwise_add(a, b).to_json()


def test_proportional_directions_make_the_fold_depend_on_order():
    # e^{2a} - 1 = (e^a - 1)(e^a + 1): with both binomials stored, which one
    # a reduction cancels depends on the factors it is given, so the
    # pairwise fold's stored form depends on the order of the parts.  The
    # n-ary sum sees one denominator whatever the order.
    a = frac({(0,): 1}, [((2,), 1)])
    b = frac({(2,): 1, (0,): -2}, [((2,), 1)])
    c = frac({(0,): 1}, [((1,), 1)])
    assert pairwise_fold([a, b, c]).factors != pairwise_fold([a, c, b]).factors
    assert pairwise_fold([a, b, c]) == pairwise_fold([a, c, b])
    orders = ([a, b, c], [c, b, a], [b, c, a])
    forms = {str(TorusFraction.sum(A1, parts).to_json()) for parts in orders}
    assert len(forms) == 1


# -- one scalar denominator: the per-coefficient store as an oracle ----------------


def assert_matches(got: TorusFraction, expected: tuple) -> None:
    num, factors = expected
    assert got.factors == factors
    assert stored(got.num) == stored(num)


def fraction(case) -> TorusFraction:
    pair, num, factors = case
    return TorusFraction(pair, num, factors)


_equivalence_cases = fractions_to_reduce(lattices=(PAIRS, WEIGHT_PAIRS))
# for the tests whose oracle takes a gcd per coefficient or a sympy gcd
_oracle_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_oracle_settings
@given(_equivalence_cases, st.data())
def test_products_and_sums_match_the_per_coefficient_store(case, data):
    f = fraction(case)
    pair = f.pair
    others = [
        TorusFraction(pair, num, factors)
        for num, factors in data.draw(
            st.lists(
                fractions_to_reduce(lattices=(PAIRS, WEIGHT_PAIRS))
                .filter(lambda c: c[0] is pair)
                .map(lambda c: (c[1], c[2])),
                min_size=1,
                max_size=2,
            )
        )
    ]
    g = others[0]
    a, b = (f.num, f.factors), (g.num, g.factors)
    assert_matches(f * g, ref.product(a, b))
    assert_matches(f.mul_unreduced(g), ref.product(a, b, reducing=False))
    parts = [f.mul_unreduced(h) for h in others] + [f, -g]
    ref_parts = [ref.product(a, (h.num, h.factors), False) for h in others]
    ref_parts += [a, ref.scale(b, Scalar.const(-1))]
    assert_matches(TorusFraction.sum(pair, parts), ref.fsum(pair.rank, ref_parts))
    assert_matches(f - f, ({}, ()))


@_reduce_settings
@given(_equivalence_cases, st.one_of(_scalars, _monomials))
def test_scale_matches_the_per_coefficient_store(case, c):
    f = fraction(case)
    assert_matches(f.scale(c), ref.scale((f.num, f.factors), c))


@_reduce_settings
@given(_equivalence_cases, st.data())
def test_transport_matches_the_per_coefficient_store(case, data):
    f = fraction(case)
    pair, n = f.pair, f.pair.rank
    w = pair.system.element_by_word(
        data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    )
    mu = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    assert_matches(f.transport(w, mu), ref.transport(pair, (f.num, f.factors), w, mu))


def outcome(fn):
    """fn's value, or the type of the error it raised: a pole on the divisor,
    or a fractional power of tau that is not a monomial."""
    try:
        return fn()
    except (PoleError, ValueError) as error:
        return type(error)


@_reduce_settings
@given(_equivalence_cases, st.data())
def test_evaluation_and_residues_match_the_per_coefficient_store(case, data):
    f = fraction(case)
    pair, n = f.pair, f.pair.rank
    alpha = data.draw(st.sampled_from(PAIRS[n][1][: 1 if n == 1 else 3]))
    # a pole of f on the divisor, when it has one along alpha, or a random q-power
    poles = [_factor_value_root(g, alpha) for g in f.factors]
    taus = [t for t in poles if t is not None] + [Scalar.q(data.draw(_qexps))]
    tau = data.draw(st.sampled_from(taus))
    a = (f.num, f.factors)
    for got, expected in (
        (lambda: f.evaluate_at(alpha, tau), lambda: ref.evaluate_at(n, a, alpha, tau)),
        (lambda: f.residue(alpha, tau), lambda: ref.residue(n, a, alpha, tau)),
        (
            lambda: f.residue(tuple(-v for v in alpha), tau.inverse()),
            lambda: ref.residue(n, a, tuple(-v for v in alpha), tau.inverse()),
        ),
    ):
        value, ref_value = outcome(got), outcome(expected)
        if isinstance(ref_value, type):
            assert value is ref_value
        else:
            assert_matches(value, ref_value)


@_reduce_settings
@given(_equivalence_cases, st.data())
def test_pole_order_and_evaluation_read_either_orientation(case, data):
    # e^{-alpha} = 1/tau names the divisor e^alpha = tau
    f = fraction(case)
    alpha = data.draw(st.sampled_from(PAIRS[f.pair.rank][1][:3]))
    poles = [_factor_value_root(g, alpha) for g in f.factors]
    taus = [t for t in poles if t is not None] + [Scalar.q(data.draw(_qexps))]
    tau = data.draw(st.sampled_from(taus))
    flipped = (tuple(-a for a in alpha), tau.inverse())
    assert f.pole_order(*flipped) == f.pole_order(alpha, tau)
    value = outcome(lambda: f.evaluate_at(alpha, tau))
    assert outcome(lambda: f.evaluate_at(*flipped)) == value


def _factor_value_root(f, alpha) -> Scalar | None:
    """tau with tau^k = c when the factor is e^{k alpha} - c and c has a
    k-th root among monomials with unit coefficient, else None."""
    beta, (qe, te, ve), coeff = f
    ratios = {Q(b, a) for a, b in zip(alpha, beta) if a} | {
        None for a, b in zip(alpha, beta) if not a and b
    }
    if len(ratios) != 1 or None in ratios:
        return None
    k = ratios.pop()
    if k.denominator != 1 or k <= 0:
        return None
    k = int(k)
    if k == 1:
        return torusfn._factor_value(f)
    if coeff != 1 or te % k or ve % k:
        return None
    return Scalar.monomial(qexp=Q(qe) / k, texp=te // k, vexp=ve // k)


# -- divisors on monomial data: the Scalar-path code as an oracle --------------------

B2 = LatticePair(RootSystem("B2"), "root")


def _primitive(v) -> tuple[int, ...]:
    v = tuple(int(a) for a in v)
    g = gcd(*v)
    return tuple(a // g for a in v)


# primitive root directions of A1 in the root and weight lattices, A2 and B2
_DIVISOR_PAIRS = [
    (pair, sorted({_primitive(r) for r in pair.positive_roots_x()}))
    for pair in (A1, LatticePair(RootSystem("A1"), "weight"), A2, B2)
]
# constants make tau^k and a constant factor value share a key
_constants = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-2, 3)]).map(Scalar.const)
_non_monomials = _scalars.filter(lambda s: not s.is_monomial())


@st.composite
def divisor_cases(draw):
    """(fraction, alpha, tau): alpha a root direction of either orientation,
    now and then doubled; factors along 1, 2 or 3 times a root direction,
    some vanishing on e^alpha = tau; a numerator over half-lattice
    exponents, sometimes vanishing on the divisor."""
    pair, dirs = draw(st.sampled_from(_DIVISOR_PAIRS))
    n = pair.rank
    d = draw(st.sampled_from(dirs))
    sign = draw(st.sampled_from([1, -1]))
    alpha = tuple(sign * draw(st.sampled_from([1] * 5 + [2])) * a for a in d)
    monomial_tau = draw(st.booleans()) or draw(st.booleans())
    tau = draw(st.one_of(_constants, _monomials) if monomial_tau else _non_monomials)
    dens = []
    for _ in range(draw(st.integers(0, 3))):
        direction = d if draw(st.booleans()) else draw(st.sampled_from(dirs))
        m = draw(st.sampled_from([1, 2, 3])) * draw(st.sampled_from([1, -1]))
        beta = tuple(m * a for a in direction)
        if direction == d and monomial_tau and draw(st.booleans()):
            c = tau ** (sign * m)  # e^d = tau^sign when alpha is primitive
        else:
            c = draw(st.one_of(_constants, _monomials))
        dens.append((beta, c))
    xs = st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=2)] * n)
    num = draw(st.dictionaries(xs, _scalars, min_size=1, max_size=3))
    if draw(st.booleans()):
        num = ref.num_mul(num, {alpha: Scalar.one(), (0,) * n: -tau})
    return TorusFraction.ratio(pair, num, dens), alpha, tau


def _same(got, expected) -> bool:
    if isinstance(expected, TorusFraction):
        return (
            isinstance(got, TorusFraction)
            and got.to_json() == expected.to_json()
            and got.factors == expected.factors
        )
    return got == expected


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(divisor_cases())
def test_divisor_code_matches_the_scalar_path(case):
    f, alpha, tau = case
    got = outcome(lambda: f._matching_factors(*_divisor(alpha, tau, "pole")[:2]))
    assert got == outcome(lambda: handwritten.matching_factors(f, alpha, tau))
    for method in ("pole_order", "residue", "evaluate_at"):
        got = outcome(lambda: getattr(f, method)(alpha, tau))
        expected = outcome(lambda: getattr(handwritten, method)(f, alpha, tau))
        if method == "evaluate_at" and not tau.is_monomial() and got is ValueError:
            # the Scalar path also evaluated at a non-monomial tau where
            # nothing but factors along alpha depends on e^alpha
            continue
        assert _same(got, expected), (method, got, expected)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(divisor_cases())
def test_vanishing_is_the_zero_test_of_evaluation(case):
    f, alpha, tau = case
    vanishes = outcome(lambda: f.vanishes_on(alpha, tau))
    assert vanishes == outcome(lambda: f.evaluate_at(alpha, tau).is_zero())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(divisor_cases(), st.sampled_from([-1, 1, 2]), _scalars)
def test_unreduced_residues_decide_the_residue_sum(case, c, m):
    # f gains a pole on the divisor, which a numerator vanishing there
    # cancels; g = c f (1 + m (e^alpha - tau)) has c times the residue of
    # f, so the residues cancel when c = -1 or f has none
    f, alpha, tau = case
    zero = (0,) * f.pair.rank
    if tau.is_monomial():
        f = f * TorusFraction.ratio(f.pair, {zero: 1}, [(alpha, tau)])
    u = TorusFraction(f.pair, {zero: Scalar.one() - m * tau, alpha: m})
    g = (f * u).scale(c)
    got = outcome(lambda: f.residues_cancel(g, alpha, tau))
    expected = outcome(lambda: (f.residue(alpha, tau) + g.residue(alpha, tau)).is_zero())
    assert got == expected


@pytest.mark.parametrize(
    "tau", [Scalar.q(2), Scalar.monomial(qexp=2, coeff=Q(-2, 3))], ids=["q^2", "non-unit"]
)
def test_restriction_through_negative_powers_of_tau(tau):
    # exponents below zero along alpha take tau^k with k < 0; a unit
    # coefficient must stay a Fraction there, as int 1 ** -1 is a float
    f = frac({(-2,): 1, (-1,): Scalar.t(), (1,): 3}, [((1,), Scalar.t(2)), ((2,), Scalar.q())])
    assert _same(f.evaluate_at((1,), tau), handwritten.evaluate_at(f, (1,), tau))
    assert not f.vanishes_on((1,), tau)
    g = frac({(-2,): 1, (0,): -(tau**-2)}, [((1,), Scalar.t(2))])
    assert g.vanishes_on((1,), tau) and g.evaluate_at((1,), tau).is_zero()
    # a pole along 2 alpha: the residue is scaled by tau^(1 - k) / k, k = 2
    h = frac({(-1,): 1, (0,): Scalar.t()}, [((2,), tau**2), ((1,), Scalar.t(2))])
    assert _same(h.residue((1,), tau), handwritten.residue(h, (1,), tau))


@pytest.mark.xfail(strict=True, reason="a factor along a non-primitive direction cancels only whole")
def test_non_primitive_factor_reports_only_its_poles():
    # (e^a + 1) / (e^2a - 1) == 1 / (e^a - 1), which has no pole at e^a = -1
    f = TorusFraction.ratio(A1, {(1,): 1, (0,): 1}, [((2,), 1)])
    assert f == frac({(0,): 1}, [((1,), 1)])
    assert f.pole_order((1,), -1) == 0
    assert f.pole_list() == [((1,), Scalar.one(), 1)]


@pytest.mark.xfail(strict=True, reason="a factor along a non-primitive direction cancels only whole")
def test_restriction_reports_no_pole_that_is_not_there():
    # g = q^-4 (e^a - q^2)/(e^3a - q^6) == q^-4 / (e^2a + q^2 e^a + q^4),
    # which is 1/(3 q^8) at e^a = q^2; it comes from root data on G2
    q = Scalar.q
    pair = LatticePair(RootSystem("G2"), "adjoint")
    f = TorusFraction.ratio(pair, {(1, 0): 1, (0, 0): -q(2)}, [((3, 2), q(10))])
    g = f.evaluate_at((0, 1), q(2))
    assert g * TorusFraction(pair, {(2, 0): 1, (1, 0): q(2), (0, 0): q(4)}) == (
        TorusFraction.from_scalar(pair, q(-4))
    )
    assert g.pole_order((1, 0), q(2)) == 0
    value = g.evaluate_at((1, 0), q(2))
    assert value == TorusFraction.from_scalar(pair, (Scalar.const(3) * q(8)).inverse())


# -- the stored form ------------------------------------------------------------------


def laurent_to_sympy(p: LaurentPoly, grid: int, syms):
    """p times a monomial, as a sympy polynomial expression in y = q^(1/grid),
    t and v with nonnegative exponents."""
    y, t, v = syms
    mq, mt, mv = p.min_exponents()
    return sum(
        c.numerator * y ** int((qe - mq) * grid) * t ** (te - mt) * v ** (ve - mv)
        / c.denominator
        for (qe, te, ve), c in p.terms.items()
    )


def assert_stored_form(f: TorusFraction) -> None:
    sympy = pytest.importorskip("sympy")
    if f.is_zero():
        assert f.den == LaurentPoly.one() and f.factors == ()
        return
    den = f.den
    # integer-primitive with a positive leading coefficient, no monomial content
    assert den.rational_content() == 1 and den.leading()[1] > 0
    assert den.min_exponents() == (0, 0, 0)
    assert all(type(c) is int for c in den.terms.values())
    # coprime to the numerators, by an independent gcd
    grid = 1
    for p in (den, *f.polys.values()):
        grid = grid * p.root_index() // gcd(grid, p.root_index())
    syms = sympy.symbols("y t v")
    g = laurent_to_sympy(den, grid, syms)
    for p in f.polys.values():
        g = sympy.gcd(g, laurent_to_sympy(p, grid, syms))
    assert len(sympy.Poly(g, *syms).terms()) == 1, (f, g)


@_oracle_settings
@given(_equivalence_cases, _equivalence_cases, _scalars, st.data())
def test_stored_form_is_lowest_terms_over_a_primitive_denominator(case, other, c, data):
    f = fraction(case)
    pair, n = f.pair, f.pair.rank
    results = [f, f.scale(c), f.scale(Scalar.zero()), f - f]
    w = pair.system.element_by_word(data.draw(st.lists(st.integers(0, n - 1), max_size=2)))
    results.append(f.transport(w, data.draw(st.tuples(*[st.integers(-1, 1)] * n))))
    if other[0] is pair:
        g = fraction(other)
        results += [f * g, f + g, TorusFraction.sum(pair, [f.mul_unreduced(g), g])]
    alpha = PAIRS[n][1][0]
    tau = Scalar.q(data.draw(_qexps))
    try:
        results.append(f.evaluate_at(alpha, tau))
    except PoleError:
        pass
    for got in results:
        assert_stored_form(got)
