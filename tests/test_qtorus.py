"""Tests for the quantum torus layer."""

import random
from math import gcd

import pytest

from qtalg.errors import DegenerateFormError
from qtalg.qtorus import (
    HWElement,
    QuantumTorus,
    _separating_vector,
    is_w_invariant,
    simplicity_witness,
    w_project_invariants,
)
from qtalg.rootdata import LatticePair, RootSystem
from qtalg.scalars import Scalar

A1 = RootSystem("A1")
A2 = RootSystem("A2")


def rand_element(torus, rng, nterms=3, spread=2):
    terms = {}
    while len(terms) < nterms:
        v = tuple(rng.randint(-spread, spread) for _ in range(torus.dim))
        terms[v] = Scalar.const(rng.randint(1, 5)) * Scalar.q(rng.randint(-1, 1))
    return torus.element(terms)


def test_basic_commutation():
    torus = QuantumTorus(pair=LatticePair(A1, "root"))
    ex = torus.x_monomial((1,))
    ey = torus.y_monomial((1,))
    # e^y e^x = q^<x,y> e^x e^y with <alpha, alpha^vee> = 2
    assert ey * ex == (ex * ey).scale(Scalar.q(2))


def test_product_twist_is_half_symmetrized():
    torus = QuantumTorus(pairing=[[1]])
    prod = torus.monomial((1, 0)) * torus.monomial((0, 1))
    v, c = prod.as_monomial()
    assert v == (1, 1)
    from fractions import Fraction as Q

    assert c == Scalar.q(Q(-1, 2))


def test_associativity_random():
    torus = QuantumTorus(pairing=[[1, 0], [0, 2]])
    rng = random.Random(3)
    for _ in range(15):
        a, b, c = (rand_element(torus, rng, nterms=2) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_monomial_inverse():
    torus = QuantumTorus(pairing=[[3]])
    m = torus.monomial((2, -1), Scalar.t(2))
    assert m * m.inverse() == torus.one()
    with pytest.raises(ValueError):
        (m + torus.one()).inverse()


def test_conjugation_matches_triple_product():
    torus = QuantumTorus(pairing=[[1, -1], [0, 1]])
    rng = random.Random(5)
    for _ in range(10):
        h = rand_element(torus, rng)
        v = tuple(rng.randint(-2, 2) for _ in range(torus.dim))
        ev = torus.monomial(v)
        assert ev * h * ev.inverse() == h.conjugate_by_monomial(v)
        assert (ev * ev) * h * (ev * ev).inverse() == h.conjugate_by_monomial(v, 2)


def test_weyl_action_is_an_algebra_action():
    torus = QuantumTorus(pair=LatticePair(A2, "root"))
    rng = random.Random(9)
    for _ in range(10):
        w1, w2 = (rng.choice(A2.elements) for _ in range(2))
        h, g = rand_element(torus, rng, 2), rand_element(torus, rng, 2)
        assert torus.weyl_act(w1, torus.weyl_act(w2, h)) == torus.weyl_act(w1 * w2, h)
        assert torus.weyl_act(w1, h * g) == torus.weyl_act(w1, h) * torus.weyl_act(
            w1, g
        )


def test_smash_product():
    torus = QuantumTorus(pair=LatticePair(A2, "root"))
    s1 = A2.simple_reflection(0)
    g_s1 = HWElement.group_element(torus, s1)
    assert g_s1 * g_s1 == HWElement.group_element(torus, A2.identity)
    ex = HWElement.from_torus(torus.x_monomial((1, 0)))
    prod = g_s1 * ex
    assert prod.terms[s1] == torus.x_monomial(s1.act_root((1, 0)))
    rng = random.Random(13)
    elts = list(A2.elements)
    for _ in range(8):
        a = HWElement(torus, {rng.choice(elts): rand_element(torus, rng, 2, 1)})
        b = HWElement(torus, {rng.choice(elts): rand_element(torus, rng, 2, 1)})
        c = HWElement(torus, {rng.choice(elts): rand_element(torus, rng, 2, 1)})
        assert (a * b) * c == a * (b * c)


def test_invariant_projection():
    torus = QuantumTorus(pair=LatticePair(A2, "root"))
    rng = random.Random(17)
    h = rand_element(torus, rng)
    proj = w_project_invariants(h)
    assert is_w_invariant(proj)
    if not proj.is_zero():
        assert w_project_invariants(proj) == proj


def test_witness_on_known_element():
    torus = QuantumTorus(pairing=[[1]])
    h = torus.monomial((1, 0)) + torus.monomial((0, 1))
    witness = simplicity_witness(h)
    assert witness.verified
    assert witness.verify()
    assert len(set(witness.z_exponents)) == 2
    # the separating conjugator pairs differently with the two exponents
    v = witness.conjugator
    assert torus.omega(v, (1, 0)) != torus.omega(v, (0, 1))


def test_witness_random_elements():
    torus = QuantumTorus(pairing=[[1, 0], [0, 1]])
    rng = random.Random(23)
    for _ in range(25):
        h = rand_element(torus, rng, nterms=rng.randint(2, 4))
        assert simplicity_witness(h).verified


def test_separating_search_has_no_radius_budget():
    # one support point per direction of the box of radius 16, plus the
    # origin: every vector of that box is parallel to a support difference
    torus = QuantumTorus(pairing=[[1]])
    support = [(0, 0)] + [
        (a, b)
        for a in range(17)
        for b in range(-16, 17)
        if gcd(a, b) == 1 and (a > 0 or b > 0)
    ]
    v, exps = _separating_vector(torus, support)
    assert max(map(abs, v)) > 16
    assert len(set(exps)) == len(support)
    assert exps == [-torus.omega(v, u) for u in support]


def test_witness_degenerate_form():
    torus = QuantumTorus(pairing=[[0]])
    h = torus.monomial((1, 0)) + torus.monomial((0, 1))
    with pytest.raises(DegenerateFormError, match="radical"):
        simplicity_witness(h)


def test_witness_degenerate_direction_only():
    # pairing of rank 1 in a 2d lattice: some directions separate, others not
    torus = QuantumTorus(pairing=[[1, 0], [0, 0]])
    ok = torus.monomial((1, 0, 0, 0)) + torus.monomial((0, 0, 1, 0))
    assert simplicity_witness(ok).verified
    bad = torus.monomial((0, 1, 0, 0)) + torus.monomial((0, 0, 0, 1))
    with pytest.raises(DegenerateFormError):
        simplicity_witness(bad)
