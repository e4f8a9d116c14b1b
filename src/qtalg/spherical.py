"""Finite Hecke words, spherical idempotents, and the membership test.

The finite Hecke algebra sits inside the operator algebra through the
deformed generators T_i(v) on the finite nodes (1-based).  With
y = t - v(t - 1/t) and W(r) = sum_w r^{l(w)} the Poincare sum, the
symmetrizing idempotent e_v = (1/W(t/y)) sum_w y^{-l(w)} T_{w,v} absorbs
each generator with eigenvalue t.  Its sign-side partner, the image of e_v
under the involution Xi, is eps_v = (1/W(y/t)) sum_w (-t)^{-l(w)} T_{w,v},
with eigenvalue v(t - 1/t) - t = -y.

Both are built in normal order from one torus fraction.  With ty = t*y and
N positive roots, let h = prod_{a > 0} (t^2 - ty e^a)/(e^a - 1) and
k = w0(h).  Then

    e_v   = (1/S) sum_w w(h) [w],                  S = (-ty)^N W(t/y),
    eps_v = (1/S) k sum_w (-1)^{l(w)} [w],         S = (-t^2)^N W(y/t).

T_i sum_w w(h) [w] = t sum_w w(h) [w] holds for every h, and k sum_w
(-1)^{l(w)} [w] T_i = -y k sum_w (-1)^{l(w)} [w] for every k, so the
absorption checks test e_v T_i = t e_v and T_i eps_v = -y eps_v.

The two S agree (w -> w w0 sends l(w) to N - l(w)) and equal sum_w w(h):
Macdonald's identity for the Poincare series (I. G. Macdonald, The
Poincare series of a Coxeter group, Math. Ann. 199, 1972; Affine Hecke
algebras and orthogonal polynomials, 2003, ch. 5).  The first form
inverts y, so e_v raises ZeroDivisionError at y = 0, where eps_v is still
defined; a vanishing W raises ValueError for both.

Membership of a normal-ordered operator h = sum h_{w,mu} D^mu [w] in the
spherical subalgebra e*H*e is equivalent to two coefficient conditions,
for every finite node i and every term (w, mu):

    (left-equivariance)  h_{s_i w, s_i mu} = s_i(h_{w,mu}),
    (right-ratio)        h_{w s_i, mu} = h_{w,mu} * D^mu w(s_i(h)/h),

with h the product above and s_i(h)/h = (t^2 e^{a_i} - ty)/(ty e^{a_i} - t^2),
taken at the v of the algebra that h belongs to.  At symbolic v the pole
e^{a_i} = t/y is not a monomial, so the right-ratio is compared
cross-multiplied by the two binomials.
"""

from __future__ import annotations

from .daha import DiffRefOperator, _as_v, dl_operator
from .rootdata import LatticePair, RootSystem, WeylElement
from .scalars import Scalar, _as_scalar
from .torusfn import TorusFraction

_T = "T"
_X = "X"


def deformed_y(v=None) -> Scalar:
    """The coefficient scale y = t - v(t - 1/t)."""
    v = _as_v(v)
    t = Scalar.t()
    return t - v * (t - t.inverse())


def reduced_words(system: RootSystem, w: WeylElement) -> list[tuple[int, ...]]:
    """All reduced words for w, as tuples of 1-based finite node indices."""
    if w.is_identity():
        return [()]
    out = []
    for i in range(system.rank):
        shorter = w * system.simple_reflection(i)
        if shorter.length < w.length:
            out.extend(u + (i + 1,) for u in reduced_words(system, shorter))
    return out


class HeckeExpression:
    """Formal linear combination of words in T_i and e^mu, with parameter v.

    Words are tuples of atoms ("T", i) and ("X", mu); this representation
    is what the involution acts on.
    """

    __slots__ = ("v", "terms")

    def __init__(self, v, terms: dict):
        self.v = _as_v(v)
        clean: dict[tuple, Scalar] = {}
        for word, c in terms.items():
            c = _as_scalar(c)
            if not c.is_zero():
                clean[tuple(word)] = c
        self.terms = clean

    @classmethod
    def one(cls, v=None) -> HeckeExpression:
        return cls(v, {(): Scalar.one()})

    @classmethod
    def generator(cls, i: int, v=None) -> HeckeExpression:
        if int(i) < 1:
            raise ValueError("finite Hecke generators are numbered from 1")
        return cls(v, {((_T, int(i)),): Scalar.one()})

    @classmethod
    def monomial(cls, mu, v=None) -> HeckeExpression:
        return cls(v, {((_X, tuple(int(m) for m in mu)),): Scalar.one()})

    @classmethod
    def word(cls, indices, v=None) -> HeckeExpression:
        out = cls.one(v)
        for i in indices:
            out = out * cls.generator(i, v)
        return out

    def _check_same_v(self, other: HeckeExpression) -> None:
        if not self.v == other.v:
            raise ValueError("expressions carry different deformation parameters")

    def __add__(self, other) -> HeckeExpression:
        if not isinstance(other, HeckeExpression):
            return NotImplemented
        self._check_same_v(other)
        terms = dict(self.terms)
        for word, c in other.terms.items():
            terms[word] = terms[word] + c if word in terms else c
        return HeckeExpression(self.v, terms)

    def __mul__(self, other) -> HeckeExpression:
        if not isinstance(other, HeckeExpression):
            return NotImplemented
        self._check_same_v(other)
        terms: dict[tuple, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = w1 + w2
                c = c1 * c2
                terms[key] = terms[key] + c if key in terms else c
        return HeckeExpression(self.v, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeExpression):
            return NotImplemented
        return self.v == other.v and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for word, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), str(kv[0]))):
            name = "*".join(
                f"T{p}" if k == _T else f"e{list(p)}" for k, p in word
            ) or "1"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)

    def to_operator(self, pair: LatticePair) -> DiffRefOperator:
        """Evaluate the words into a normal-ordered operator."""
        gens: dict[int, DiffRefOperator] = {}
        out = DiffRefOperator.zero(pair)
        for word, c in self.terms.items():
            op = DiffRefOperator.identity(pair)
            for kind, payload in word:
                if kind == _T:
                    if payload not in gens:
                        if not 1 <= payload <= pair.rank:
                            raise ValueError("finite Hecke words use nodes 1..rank")
                        gens[payload] = dl_operator(pair, payload, self.v)
                    op = op * gens[payload]
                else:
                    op = op * DiffRefOperator.from_function(
                        pair, TorusFraction.monomial(pair, payload)
                    )
            out = out + op.scale(c)
        return out

    def to_json(self) -> dict:
        return {
            "v": self.v.to_json(),
            "terms": [
                {
                    "word": [
                        [k, p if k == _T else list(p)] for k, p in word
                    ],
                    "coeff": c.to_json(),
                }
                for word, c in sorted(
                    self.terms.items(), key=lambda kv: (len(kv[0]), str(kv[0]))
                )
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> HeckeExpression:
        terms = {}
        for item in data["terms"]:
            word = tuple(
                (k, int(p) if k == _T else tuple(int(x) for x in p))
                for k, p in item["word"]
            )
            terms[word] = Scalar.from_json(item["coeff"])
        return cls(Scalar.from_json(data["v"]), terms)


def poincare_sum(system: RootSystem, ratio: Scalar) -> Scalar:
    """Sum of ratio^{l(w)} over the Weyl group."""
    out = Scalar.zero()
    for w in system.elements:
        out = out + ratio**w.length
    return out


def _normalizer(system: RootSystem, scale: Scalar, ratio: Scalar) -> Scalar:
    """1/(scale^N W(ratio)); a vanishing W raises ValueError."""
    poincare = poincare_sum(system, ratio)
    if poincare.is_zero():
        raise ValueError("normalization W(t, v) vanishes")
    return (scale ** len(system.positive_roots) * poincare).inverse()


def _binomial(pair: LatticePair, ty: Scalar, alpha) -> dict:
    """t^2 - ty e^alpha, the numerator factor of the product formula."""
    return {(0,) * pair.rank: Scalar.t() * Scalar.t(), tuple(alpha): -ty}


def _macdonald_h(pair: LatticePair, ty: Scalar) -> TorusFraction:
    """h = prod_{a > 0} (t^2 - ty e^a)/(e^a - 1)."""
    h = TorusFraction.one(pair)
    for alpha in pair.positive_roots_x():
        h = h * TorusFraction.ratio(pair, _binomial(pair, ty, alpha), [(alpha, 1)])
    return h


def idempotent_e_v(pair: LatticePair, v=None) -> DiffRefOperator:
    """The symmetrizing idempotent (1/S) sum_w w(h) [w], from the product
    formula of the module docstring."""
    system = pair.system
    t, y = Scalar.t(), deformed_y(v)
    norm = _normalizer(system, -(t * y), t * y.inverse())
    h = _macdonald_h(pair, t * y).scale(norm)
    zero = (0,) * pair.rank
    return DiffRefOperator(pair, {(w, zero): h.weyl_act(w) for w in system.elements})


def idempotent_eps_v(pair: LatticePair, v=None) -> DiffRefOperator:
    """The sign-side idempotent (1/S) k sum_w (-1)^{l(w)} [w], from the
    product formula of the module docstring."""
    system = pair.system
    t, y = Scalar.t(), deformed_y(v)
    norm = _normalizer(system, -(t * t), y * t.inverse())
    k = _macdonald_h(pair, t * y).weyl_act(system.longest_element).scale(norm)
    zero = (0,) * pair.rank
    return DiffRefOperator(
        pair, {(w, zero): -k if w.length % 2 else k for w in system.elements}
    )


def check_absorption(pair: LatticePair, node: int, v=None) -> bool:
    """e_v T_{i,v} = t e_v as a symbolic operator identity."""
    v = _as_v(v)
    e = idempotent_e_v(pair, v)
    return e * dl_operator(pair, node, v) == e.scale(Scalar.t())


def check_sign_absorption(pair: LatticePair, node: int, v=None) -> bool:
    """T_{i,v} eps_v = (v(t - 1/t) - t) eps_v as a symbolic identity."""
    v = _as_v(v)
    t = Scalar.t()
    eps = idempotent_eps_v(pair, v)
    return dl_operator(pair, node, v) * eps == eps.scale(v * (t - t.inverse()) - t)


class SphericalReport:
    """Outcome of the spherical membership test, with failure witnesses."""

    __slots__ = ("failures", "terms_checked")

    def __init__(self, failures: list, terms_checked: int):
        self.failures = list(failures)
        self.terms_checked = terms_checked

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_witness(self):
        return self.failures[0] if self.failures else None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "terms_checked": self.terms_checked,
            "failures": self.failures,
        }

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return f"SphericalReport({state}, {self.terms_checked} term checks)"


def _failure(condition: str, node: int, w: WeylElement, mu) -> dict:
    return {
        "condition": condition,
        "node": node,
        "word": [i + 1 for i in w.word],
        "mu": list(mu),
    }


def check_spherical(h: DiffRefOperator, v=1) -> SphericalReport:
    """Check left-equivariance and right-ratio for every term and node,
    for h in the algebra at v (None for symbolic v).

    The right-ratio h_{w s_i, mu} = h_{w,mu} D^mu w(s_i(h)/h) is tested as
    h_{w s_i, mu} D^mu w(ty e^{a_i} - t^2) = h_{w,mu} D^mu w(t^2 e^{a_i} - ty),
    the two binomials of the product formula's ratio.
    """
    pair = h.pair
    system = pair.system
    ty = Scalar.t() * deformed_y(v)
    zero = TorusFraction.zero(pair)
    failures: list[dict] = []
    checked = 0
    keys = sorted(h.terms, key=lambda key: (key[0].length, key[0].word, key[1]))
    for node in range(1, system.rank + 1):
        si = system.simple_reflection(node - 1)
        alpha = pair.simple_root_x(node - 1)
        # t^2 - ty e^a is b(a); ty e^a - t^2 = -b(a), t^2 e^a - ty = e^a s_i(b(a))
        b = TorusFraction(pair, _binomial(pair, ty, alpha))
        den = -b
        num = TorusFraction.monomial(pair, alpha) * b.weyl_act(si)
        for w, mu in keys:
            coeff = h.terms[(w, mu)]
            checked += 1
            mirrored = h.terms.get((si * w, pair.act_y(si, mu)), zero)
            if mirrored != coeff.weyl_act(si):
                failures.append(_failure("left-equivariance", node, w, mu))
            right = h.terms.get((w * si, mu), zero)
            if right.mul_unreduced(den.transport(w, mu)) != coeff.mul_unreduced(
                num.transport(w, mu)
            ):
                failures.append(_failure("right-ratio", node, w, mu))
    return SphericalReport(failures, checked)


def im_involution(expr: HeckeExpression) -> HeckeExpression:
    """The involution T_i -> v(t - 1/t) - T_i, e^mu -> e^{-mu} on words."""
    if not isinstance(expr, HeckeExpression):
        raise TypeError("the involution acts on generator-word expressions")
    v = expr.v
    t = Scalar.t()
    d = v * (t - t.inverse())
    out = HeckeExpression(v, {})
    for word, c in expr.terms.items():
        image = HeckeExpression(v, {(): c})
        for kind, payload in word:
            if kind == _T:
                image = image * HeckeExpression(v, {(): d, ((_T, payload),): -1})
            else:
                image = image * HeckeExpression.monomial(tuple(-m for m in payload), v)
        out = out + image
    return out
