"""Difference-reflection operators on the character torus.

An operator is a finite sum sum h_{w,mu} D^mu [w] in left-normal form:
[w] substitutes e^x -> e^{wx}, D^mu rescales e^x -> q^{2<x,mu>} e^x, and
the coefficients h_{w,mu} are torus fractions with binomial-factored
denominators.  Node 0 is the affine node, realized through e^{alpha_0} =
q^2 e^{-theta} (equivalently e^delta = q^2) and the affine reflection
[s_0] = D^{-theta_coroot} [s_theta].

The deformed divided-difference generator at node i is

    T_i(v) = t [s_i] + c_i ([s_i] - 1),   c_i = v (t - 1/t) / (e^{alpha_i} - 1),

which satisfies T^2 = v(t - 1/t) T + v + t^2(1 - v) and the braid
relations of the affine Coxeter diagram.  The braid sides share their middle
word, and a product collects equal factors, sum h1 G = (sum h1) G, so an
idempotent square takes one coefficient product per key instead of |W|.

`check_membership` decides whether an operator's coefficients satisfy
the three divisor conditions that cut out the image of the deformed
algebra: poles confined to e^alpha = q^{2k} with order one
("pole-location"), residue cancellation between coefficient partners on
each such divisor ("residue-sum"), and forced vanishing on a family of
t-shifted divisors determined by the sign of <alpha, mu> ("forced-
vanishing"; the exact ranges are documented in the README).  The last
two are zero tests on unreduced restrictions, with no reduced fraction
built: :meth:`~qtalg.torusfn.TorusFraction.residues_cancel` and
:meth:`~qtalg.torusfn.TorusFraction.vanishes_on`.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from operator import eq

from .errors import PoleError, QtalgError
from .rootdata import LatticePair, RootSystem, WeylElement
from .scalars import Scalar, _as_scalar
from .torusfn import TorusFraction


def _as_v(v) -> Scalar:
    """The deformation parameter: the symbolic variable v when None."""
    return Scalar.v() if v is None else _as_scalar(v)


def default_pair(system) -> LatticePair:
    """The lattice pair used by default: X = root lattice, Y = coweights."""
    if isinstance(system, str):
        system = RootSystem(system)
    return LatticePair(system, "adjoint")


class DiffRefOperator:
    """Finite sum of terms h_{w,mu} D^mu [w], keyed by (w, mu)."""

    __slots__ = ("pair", "terms")

    def __init__(self, pair: LatticePair, terms: dict):
        self.pair = pair
        clean = {}
        for (w, mu), h in terms.items():
            if not h.is_zero():
                clean[(w, tuple(int(m) for m in mu))] = h
        self.terms = clean

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, pair: LatticePair) -> DiffRefOperator:
        return cls(pair, {})

    @classmethod
    def identity(cls, pair: LatticePair) -> DiffRefOperator:
        return cls.from_function(pair, TorusFraction.one(pair))

    @classmethod
    def from_function(cls, pair: LatticePair, f: TorusFraction) -> DiffRefOperator:
        zero_mu = (0,) * pair.rank
        return cls(pair, {(pair.system.identity, zero_mu): f})

    @classmethod
    def shift_op(cls, pair: LatticePair, mu) -> DiffRefOperator:
        """D^mu: e^x -> q^{2<x,mu>} e^x."""
        return cls(
            pair,
            {(pair.system.identity, tuple(mu)): TorusFraction.one(pair)},
        )

    @classmethod
    def weyl_op(cls, pair: LatticePair, w: WeylElement) -> DiffRefOperator:
        zero_mu = (0,) * pair.rank
        return cls(pair, {(w, zero_mu): TorusFraction.one(pair)})

    # -- ring structure -----------------------------------------------------------

    def __add__(self, other: DiffRefOperator) -> DiffRefOperator:
        terms = dict(self.terms)
        for key, h in other.terms.items():
            terms[key] = terms[key] + h if key in terms else h
        return DiffRefOperator(self.pair, terms)

    def __neg__(self) -> DiffRefOperator:
        return self.scale(Scalar.const(-1))

    def __sub__(self, other: DiffRefOperator) -> DiffRefOperator:
        return self + (-other)

    def scale(self, c) -> DiffRefOperator:
        c = _as_scalar(c)
        return DiffRefOperator(
            self.pair, {key: h.scale(c) for key, h in self.terms.items()}
        )

    def __mul__(self, other: DiffRefOperator) -> DiffRefOperator:
        """Composition, normal-ordered: coefficients move left through
        D^mu and [w] by the substitution rules.

        Term pairs are grouped by key (w1 w2, m1 + w1 m2); a group's products
        h1 * G, G = h2.transport(w1, m1), equal factors collected in groups of
        more than two (:func:`_collect_factors`), are formed unreduced and
        summed once with one reduction (:meth:`TorusFraction.sum`)."""
        pair = self.pair
        groups: dict = {}
        for (w1, m1), h1 in self.terms.items():
            for (w2, m2), h2 in other.terms.items():
                key = (
                    w1 * w2,
                    tuple(a + b for a, b in zip(m1, pair.act_y(w1, m2))),
                )
                groups.setdefault(key, []).append((h1, h2, w1, m1))
        signed: dict = {}
        terms = {}
        for key, group in groups.items():
            parts = [(h1, h2.transport(w1, m1)) for h1, h2, w1, m1 in group]
            if len(parts) > 2:
                parts = _collect_factors(pair, parts, signed)
            terms[key] = TorusFraction.sum(pair, [h1.mul_unreduced(g) for h1, g in parts])
        return DiffRefOperator(pair, terms)

    def __pow__(self, n: int) -> DiffRefOperator:
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        out = DiffRefOperator.identity(self.pair)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffRefOperator):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    # -- action on functions ------------------------------------------------------

    def apply(self, f: TorusFraction) -> TorusFraction:
        parts = [h.mul_unreduced(f.transport(w, mu)) for (w, mu), h in self.terms.items()]
        return TorusFraction.sum(self.pair, parts)

    # -- display and JSON ---------------------------------------------------------

    def support(self) -> list:
        return sorted(
            self.terms, key=lambda key: (key[0].length, key[0].word, key[1])
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, mu in self.support():
            bits.append(f"[{self.terms[(w, mu)]!r}] D^{list(mu)} {w!r}")
        return " + ".join(bits)

    def to_json(self) -> list:
        return [
            {
                "w": [i + 1 for i in w.word],
                "mu": list(mu),
                "coeff": self.terms[(w, mu)].to_json(),
            }
            for w, mu in self.support()
        ]

    @classmethod
    def from_json(cls, pair: LatticePair, data: list) -> DiffRefOperator:
        terms: dict = {}
        for item in data:
            w = pair.system.element_by_word([i - 1 for i in item["w"]])
            key = (w, tuple(int(m) for m in item["mu"]))
            h = TorusFraction.from_json(pair, item["coeff"])
            terms[key] = terms[key] + h if key in terms else h
        return cls(pair, terms)


def _collect_factors(pair: LatticePair, parts: list, signed: dict) -> list:
    """The factor pairs (h1, G) of one key with equal factors collected, by
    sum h1 G = (sum h1) G: per stored form of G (in e_v^2, G = f_{w1 w2})
    or per form of h1 up to sign (in eps_v^2, h1 = +-k), whichever leaves
    fewer pairs.  signed caches the forms of left factors by id."""
    right, left = {}, {}
    for h1, g in parts:
        right.setdefault(g._form()[0], (g, []))[1].append(h1)
        if id(h1) not in signed:
            signed[id(h1)] = h1._form(up_to_sign=True)
        form, sign = signed[id(h1)]
        # h1 = (s s0) h0 for the first h0 of the form, of sign s0
        h0, s0, gs = left.setdefault(form, (h1, sign, []))
        gs.append(g if sign == s0 else -g)
    if len(right) <= len(left):
        return [(_sum(pair, h1s), g) for g, h1s in right.values()]
    return [(h0, _sum(pair, gs)) for h0, _, gs in left.values()]


def _sum(pair: LatticePair, parts: list) -> TorusFraction:
    return parts[0] if len(parts) == 1 else TorusFraction.sum(pair, parts)


# -- generators ---------------------------------------------------------------


def _check_node(pair: LatticePair, node: int) -> None:
    if not 0 <= node <= pair.rank:
        raise ValueError(f"node {node} is not an affine node 0..{pair.rank}")


def node_reflection(pair: LatticePair, node: int) -> DiffRefOperator:
    """[s_i] for finite nodes (1..l); D^{-theta_coroot}[s_theta] for node 0."""
    _check_node(pair, node)
    system = pair.system
    if node == 0:
        w = system.reflection(system.highest_root)
        mu = tuple(-m for m in pair.theta_coroot_y())
        return DiffRefOperator(pair, {(w, mu): TorusFraction.one(pair)})
    return DiffRefOperator.weyl_op(pair, system.simple_reflection(node - 1))


def node_cocycle(pair: LatticePair, node: int, v) -> TorusFraction:
    """c_i = v (t - 1/t) / (e^{alpha_i} - 1), with e^{alpha_0} = q^2 e^{-theta},
    so that c_0 = -v (t - 1/t) e^theta / (e^theta - q^2)."""
    _check_node(pair, node)
    v = _as_scalar(v)
    t = Scalar.t()
    top = v * (t - t.inverse())
    if node == 0:
        theta = pair.theta_x()
        return TorusFraction.ratio(pair, {theta: -top}, [(theta, Scalar.q(2))])
    alpha = pair.simple_root_x(node - 1)
    return TorusFraction.ratio(pair, {(0,) * pair.rank: top}, [(alpha, Scalar.one())])


def dl_operator(pair: LatticePair, node: int, v=None) -> DiffRefOperator:
    """T_i(v) = t [s_i] + c_i ([s_i] - 1); v defaults to the symbolic variable."""
    refl = node_reflection(pair, node)
    c = node_cocycle(pair, node, _as_v(v))
    [(w, mu)] = refl.terms.keys()
    terms = {
        (w, mu): TorusFraction.from_scalar(pair, Scalar.t()) + c,
        (pair.system.identity, (0,) * pair.rank): -c,
    }
    return DiffRefOperator(pair, terms)


def quadratic_sides(pair: LatticePair, node: int, v=None):
    """Both sides of T^2 = v(t - 1/t) T + (v + t^2(1 - v))."""
    v = _as_v(v)
    return _quadratic_sides(pair, dl_operator(pair, node, v), v)


def _quadratic_sides(pair: LatticePair, op: DiffRefOperator, v: Scalar):
    t = Scalar.t()
    d = v * (t - t.inverse())
    kappa = v + t * t * (Scalar.one() - v)
    return op * op, op.scale(d) + DiffRefOperator.identity(pair).scale(kappa)


def check_quadratic(pair: LatticePair, node: int, v=None) -> bool:
    return eq(*quadratic_sides(pair, node, v))


def braid_sides(pair: LatticePair, i: int, j: int, v=None):
    """The alternating products T_i T_j T_i ... and T_j T_i T_j ... of
    Coxeter length m(i,j), sharing their middle word (:func:`_braid_sides`)."""
    m = pair.system.affine_coxeter_m(i, j)
    if m is None:
        raise ValueError(f"nodes {i}, {j} have infinite Coxeter order")
    return _braid_sides(dl_operator(pair, i, v), dl_operator(pair, j, v), m)


def _braid_sides(a: DiffRefOperator, b: DiffRefOperator, m: int):
    """With P = a b a ... of m - 1 letters, the sides are P a (m odd) or
    P b (m even) and b P: m products, where two separate sides take 2m - 2."""
    middle = a
    for k in range(1, m - 1):
        middle = middle * (b if k % 2 else a)
    return middle * (a if m % 2 else b), b * middle


def check_braid(pair: LatticePair, i: int, j: int, v=None) -> bool:
    return eq(*braid_sides(pair, i, j, v))


def relations_report(pair: LatticePair, v=None) -> dict:
    """Quadratic at every node, braid at every finite-order node pair."""
    v = _as_v(v)
    nodes = range(pair.rank + 1)
    gens = [dl_operator(pair, node, v) for node in nodes]
    quad = {node: eq(*_quadratic_sides(pair, gens[node], v)) for node in nodes}
    braid = {}
    skipped = []
    for i in nodes:
        for j in nodes:
            if i >= j:
                continue
            m = pair.system.affine_coxeter_m(i, j)
            if m is None:
                skipped.append((i, j))
                continue
            braid[(i, j)] = eq(*_braid_sides(gens[i], gens[j], m))
    return {
        "quadratic": quad,
        "braid": braid,
        "infinite_order_pairs": skipped,
        "ok": all(quad.values()) and all(braid.values()),
    }


# -- membership test -------------------------------------------------------------


def _term_json(key) -> dict:
    w, mu = key
    return {"w": [i + 1 for i in w.word], "mu": list(mu)}


def _violation(rule: str, detail: str, key, alpha, value: Scalar) -> dict:
    """A violation record at the term key and the divisor e^alpha = value,
    built only when a rule fails."""
    return {
        "rule": rule,
        "detail": detail,
        "term": _term_json(key),
        "divisor": {"alpha": list(alpha), "value": str(value)},
    }


def check_membership(op: DiffRefOperator) -> dict:
    """Report whether every coefficient satisfies the divisor conditions
    characterizing the deformed algebra (at v = 1); see module docstring."""
    pair = op.pair
    system = pair.system
    violations: list[dict] = []
    pos_roots_x = pair.positive_roots_x()
    for alpha in pos_roots_x:
        if gcd(*alpha) != 1:
            raise QtalgError(f"membership needs primitive roots; {list(alpha)} is not")
    # a stored direction starts positive, as a positive root need not
    roots = set(pos_roots_x) | {tuple(-a for a in alpha) for alpha in pos_roots_x}
    order = op.support()

    # pole locations: only e^alpha = q^{2k}, alpha a root, order <= 1
    clean_poles: dict = {}
    for key in order:
        # each distinct stored factor e^beta - c; a when c = q^a, a even
        for (beta, (dq, dt, dv), c), mult in sorted(Counter(op.terms[key].factors).items()):
            a = None if dt or dv or c != 1 or dq % 2 else int(dq)
            if beta not in roots:
                detail = "pole direction is not a root"
            elif a is None:
                detail = "pole value is not an even power of q"
            elif mult > 1:
                detail = f"pole order {mult} > 1"
            else:
                clean_poles.setdefault((beta, a), []).append(key)
                continue
            value = Scalar.monomial(dq, dt, dv, coeff=c)
            violations.append(_violation("pole-location", detail, key, beta, value))

    # residue pairing: partner of (w, mu) on e^alpha = q^{-2k} is
    # (s_alpha w, k alpha_coroot + s_alpha mu)
    zero_fn = TorusFraction.zero(pair)
    seen = set()
    for (alpha, a), keys in sorted(clean_poles.items()):
        k = -a // 2
        root = pair.x_to_root(alpha)
        s_alpha = system.reflection(root)
        coroot_y = pair.coroot_to_y(system.coroot_of(root))
        tau = Scalar.q(a)
        for key in keys:
            w, mu = key
            partner = (
                s_alpha * w,
                tuple(
                    k * c + m for c, m in zip(coroot_y, pair.act_y(s_alpha, mu))
                ),
            )
            pair_id = (alpha, a, frozenset((key, partner)))
            if pair_id in seen:
                continue
            seen.add(pair_id)
            other = op.terms.get(partner, zero_fn)
            if not op.terms[key].residues_cancel(other, alpha, tau):
                violations.append(
                    {
                        "rule": "residue-sum",
                        "term": _term_json(key),
                        "partner": _term_json(partner),
                        "divisor": {"alpha": list(alpha), "value": f"q^{a}"},
                        "detail": "residues do not cancel",
                    }
                )

    # forced vanishing on t-shifted divisors
    for key in order:
        w, mu = key
        h = op.terms[key]
        w_inv = w.inverse()
        for alpha in pos_roots_x:
            pairing = pair.pair(alpha, mu)
            moved = pair.x_to_root(pair.act_x(w_inv, alpha))
            eps = 0 if system.is_positive_root(moved) else 1
            if pairing >= 0:
                taus = [Scalar.monomial(-2 * k, -2) for k in range(pairing + eps)]
            else:
                taus = [Scalar.monomial(2 * k, 2) for k in range(1, -pairing - eps + 1)]
            for tau in taus:
                try:
                    if h.vanishes_on(alpha, tau):
                        continue
                    detail = "coefficient does not vanish"
                except PoleError:
                    detail = "pole where vanishing is required"
                violations.append(_violation("forced-vanishing", detail, key, alpha, tau))
    return {"ok": not violations, "violations": violations}

