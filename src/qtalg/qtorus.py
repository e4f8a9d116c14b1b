"""Quantum tori on a lattice X + Y with an integral pairing.

Monomials e^v are indexed by integer vectors v = (x, y); the product is

    e^v * e^w = q^kappa(v, w) * e^(v + w),

where kappa = -omega/2 for the skew form omega((x,y),(x',y')) =
<x, y'> - <x', y>.  In particular e^y e^x = q^<x,y> e^x e^y for x in X,
y in Y.  Bilinearity of kappa makes the product associative; kappa is
half-integral, so scalars live in Q(q^{1/2}, t, v).

The torus may be built from a :class:`~qtalg.rootdata.LatticePair` (which
also equips it with the Weyl action v -> (wx, wy)) or from a raw integer
pairing matrix.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .errors import DegenerateFormError
from .rootdata import LatticePair, WeylElement
from .scalars import LaurentPoly, Scalar, _as_scalar

Vec = tuple[int, ...]


class QuantumTorus:
    """The algebra; a factory and context for :class:`TorusElement`."""

    def __init__(self, pairing=None, pair: LatticePair | None = None):
        if pair is not None:
            pairing = pair.pairing
        if pairing is None:
            raise ValueError("need a pairing matrix or a lattice pair")
        self.pair = pair
        self.pairing = tuple(tuple(int(x) for x in row) for row in pairing)
        self.x_rank = len(self.pairing)
        self.y_rank = len(self.pairing[0]) if self.pairing else 0
        self.dim = self.x_rank + self.y_rank

    def _check_vec(self, v) -> Vec:
        v = tuple(int(x) for x in v)
        if len(v) != self.dim:
            raise ValueError(f"exponent must have length {self.dim}")
        return v

    def omega(self, v, w) -> int:
        """The skew form <x, y'> - <x', y> on full exponent vectors."""
        n = self.x_rank

        def pairing(x, y):
            return sum(
                x[i] * self.pairing[i][j] * y[j]
                for i in range(self.x_rank)
                for j in range(self.y_rank)
            )

        return pairing(v[:n], w[n:]) - pairing(w[:n], v[n:])

    def kappa(self, v, w) -> Q:
        """q-exponent of the product twist: kappa = -omega/2."""
        return Q(-self.omega(v, w), 2)

    def radical_contains(self, v) -> bool:
        """True when omega(., v) vanishes identically."""
        units = [
            tuple(1 if k == i else 0 for k in range(self.dim))
            for i in range(self.dim)
        ]
        return all(self.omega(u, v) == 0 for u in units)

    # -- constructors -------------------------------------------------------

    def element(self, terms: dict) -> TorusElement:
        return TorusElement(self, terms)

    def zero(self) -> TorusElement:
        return TorusElement(self, {})

    def one(self) -> TorusElement:
        return self.monomial((0,) * self.dim)

    def monomial(self, v, coeff=1) -> TorusElement:
        return TorusElement(self, {self._check_vec(v): _as_scalar(coeff)})

    def x_monomial(self, x_coords, coeff=1) -> TorusElement:
        """e^x for x in the X lattice."""
        return self.monomial(tuple(x_coords) + (0,) * self.y_rank, coeff)

    def y_monomial(self, y_coords, coeff=1) -> TorusElement:
        """e^y for y in the Y lattice."""
        return self.monomial((0,) * self.x_rank + tuple(y_coords), coeff)

    # -- Weyl action (lattice-pair tori only) --------------------------------

    def weyl_act(self, w: WeylElement, elem: TorusElement) -> TorusElement:
        """w . e^(x,y) = e^(wx, wy), extended by scalar linearity."""
        if self.pair is None:
            raise ValueError("torus was built without a lattice pair")
        n = self.x_rank
        terms = {}
        for v, c in elem.terms.items():
            image = self.pair.act_x(w, v[:n]) + self.pair.act_y(w, v[n:])
            terms[image] = c
        return TorusElement(self, terms)


class TorusElement:
    """Finite scalar combination of torus monomials."""

    __slots__ = ("torus", "terms")

    def __init__(self, torus: QuantumTorus, terms: dict):
        self.torus = torus
        clean: dict[Vec, Scalar] = {}
        for v, c in terms.items():
            c = _as_scalar(c)
            if not c.is_zero():
                clean[torus._check_vec(v)] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def as_monomial(self) -> tuple[Vec, Scalar]:
        if len(self.terms) != 1:
            raise ValueError("not a monomial")
        [(v, c)] = self.terms.items()
        return v, c

    def support(self) -> list[Vec]:
        return sorted(self.terms)

    def __add__(self, other: TorusElement) -> TorusElement:
        terms = dict(self.terms)
        for v, c in other.terms.items():
            terms[v] = terms[v] + c if v in terms else c
        return TorusElement(self.torus, terms)

    def __neg__(self) -> TorusElement:
        return TorusElement(self.torus, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other: TorusElement) -> TorusElement:
        return self + (-other)

    def scale(self, c) -> TorusElement:
        c = _as_scalar(c)
        return TorusElement(self.torus, {v: c * x for v, x in self.terms.items()})

    def __mul__(self, other: TorusElement) -> TorusElement:
        if not isinstance(other, TorusElement):
            return NotImplemented
        torus = self.torus
        terms: dict[Vec, Scalar] = {}
        for v, cv in self.terms.items():
            for w, cw in other.terms.items():
                key = tuple(a + b for a, b in zip(v, w))
                coeff = cv * cw * Scalar.q(torus.kappa(v, w))
                terms[key] = terms[key] + coeff if key in terms else coeff
        return TorusElement(torus, terms)

    def __pow__(self, n: int) -> TorusElement:
        if n < 0:
            return self.inverse() ** (-n)
        result = self.torus.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> TorusElement:
        """Inverse of a single monomial: (c e^v)^-1 = c^-1 e^-v."""
        v, c = self.as_monomial()
        return self.torus.monomial(tuple(-x for x in v), c.inverse())

    def conjugate_by_monomial(self, v, k: int = 1) -> TorusElement:
        """e^{kv} . self . e^{-kv}; each term picks up q^{-k omega(v, w)}."""
        torus = self.torus
        v = torus._check_vec(v)
        return TorusElement(
            torus,
            {
                w: c * Scalar.q(-k * torus.omega(v, w))
                for w, c in self.terms.items()
            },
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*e{list(v)}" for v, c in sorted(self.terms.items()))

    def to_json(self) -> list[dict]:
        return [
            {"exponent": list(v), "coeff": self.terms[v].to_json()}
            for v in sorted(self.terms)
        ]


# -- smash product with the Weyl group ----------------------------------------


class HWElement:
    """Finite sum of terms (torus element) * w over the Weyl group,
    multiplied by (f w)(g u) = f * (w.g) (wu)."""

    __slots__ = ("torus", "terms")

    def __init__(self, torus: QuantumTorus, terms: dict[WeylElement, TorusElement]):
        if torus.pair is None:
            raise ValueError("smash products need a lattice-pair torus")
        self.torus = torus
        self.terms = {w: f for w, f in terms.items() if not f.is_zero()}

    @classmethod
    def from_torus(cls, elem: TorusElement) -> HWElement:
        w0 = elem.torus.pair.system.identity
        return cls(elem.torus, {w0: elem})

    @classmethod
    def group_element(cls, torus: QuantumTorus, w: WeylElement) -> HWElement:
        return cls(torus, {w: torus.one()})

    def __add__(self, other: HWElement) -> HWElement:
        terms = dict(self.terms)
        for w, f in other.terms.items():
            terms[w] = terms[w] + f if w in terms else f
        return HWElement(self.torus, terms)

    def __sub__(self, other: HWElement) -> HWElement:
        return self + HWElement(
            self.torus, {w: -f for w, f in other.terms.items()}
        )

    def __mul__(self, other: HWElement) -> HWElement:
        torus = self.torus
        terms: dict[WeylElement, TorusElement] = {}
        for w, f in self.terms.items():
            for u, g in other.terms.items():
                key = w * u
                prod = f * torus.weyl_act(w, g)
                terms[key] = terms[key] + prod if key in terms else prod
        return HWElement(torus, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HWElement):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"[{f!r}]*{w!r}" for w, f in self.terms.items())


def w_project_invariants(elem: TorusElement) -> TorusElement:
    """Average of the Weyl orbit: (1/|W|) sum_w w.elem."""
    torus = elem.torus
    if torus.pair is None:
        raise ValueError("invariant projection needs a lattice-pair torus")
    system = torus.pair.system
    total = torus.zero()
    for w in system.elements:
        total = total + torus.weyl_act(w, elem)
    return total.scale(Q(1, system.order))


def is_w_invariant(elem: TorusElement) -> bool:
    torus = elem.torus
    system = torus.pair.system
    return all(
        torus.weyl_act(system.simple_reflection(i), elem) == elem
        for i in range(system.rank)
    )


# -- simplicity witness --------------------------------------------------------


class Witness:
    """Conjugation data expressing each monomial of an element from its
    monomial conjugates.

    For h = sum_i c_i e^{v_i} and the conjugates u_k = e^{kv} h e^{-kv}
    (k = 0..s-1), row j of ``rows`` gives scalars a_k with
    sum_k a_k u_k = c_j e^{v_j}.  Row j of ``cleared`` is the same row
    with its common denominator pulled out: polynomial numerators and the
    denominator they share.
    """

    __slots__ = ("element", "conjugator", "z_exponents", "rows", "verified", "_cleared")

    def __init__(self, element, conjugator, z_exponents, rows, verified, cleared):
        self.element = element
        self.conjugator = conjugator
        self.z_exponents = z_exponents
        self.rows = rows
        self.verified = verified
        self._cleared = cleared

    def verify(self) -> bool:
        """Recompute the conjugates and re-multiply them against the rows.

        The comparison is made after multiplying both sides by the
        (nonzero) row denominator, which keeps every coefficient
        polynomial small.
        """
        h = self.element
        torus = h.torus
        support = h.support()
        conjugates = [
            h.conjugate_by_monomial(self.conjugator, k) for k in range(len(support))
        ]
        for j, v in enumerate(support):
            nums, den = self._cleared[j]
            scalars = [Scalar(a) for a in nums]
            target = torus.monomial(v, h.terms[v] * Scalar(den))
            acc = torus.zero()
            for a, u in zip(scalars, conjugates):
                acc = acc + u.scale(a)
            if acc != target:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "conjugator": list(self.conjugator),
            "z_exponents": [str(z) for z in self.z_exponents],
            "rows": [[a.to_json() for a in row] for row in self.rows],
            "verified": self.verified,
        }


def _separating_vectors(torus: QuantumTorus, radius: int):
    """Integer vectors in the centered box of the given radius, nonzero,
    in a deterministic order."""
    from itertools import product

    for v in product(range(-radius, radius + 1), repeat=torus.dim):
        if any(v):
            yield v


def _elementary_symmetric(vals: list[LaurentPoly]) -> list[LaurentPoly]:
    """e_0, ..., e_n of the given values."""
    es = [LaurentPoly.one()]
    for v in vals:
        es.append(LaurentPoly.zero())
        for m in range(len(es) - 1, 0, -1):
            es[m] = es[m] + v * es[m - 1]
    return es


def _separating_vector(torus: QuantumTorus, support) -> tuple:
    """First v, in boxes of radius 1, 2, 4, 8, ..., whose values
    -omega(v, u) on the support are distinct, with those values.

    The search ends once no support difference d lies in the radical:
    each omega(., d) is then a nonzero linear form, so along
    v = (1, t, t^2, ...) it is a nonzero polynomial in t of degree below
    dim, and some integer t keeps all of them from vanishing.
    """
    radius = 1
    while True:
        for v in _separating_vectors(torus, radius):
            exps = [-torus.omega(v, u) for u in support]
            if len(set(exps)) == len(support):
                return v, exps
        radius *= 2


def simplicity_witness(h: TorusElement) -> Witness:
    """Find a monomial conjugator separating the support of h, then isolate
    each monomial of h from the conjugates u_k = e^{kv} h e^{-kv} by
    Lagrange interpolation at the nodes z_i = q^{-omega(v, v_i)}.

    Raises DegenerateFormError when two support vectors differ by a
    radical direction of the skew form (no conjugation can separate
    them).
    """
    torus = h.torus
    support = h.support()
    if not support:
        raise ValueError("zero element has no witness")
    s = len(support)
    for i in range(s):
        for j in range(i + 1, s):
            d = tuple(a - b for a, b in zip(support[i], support[j]))
            if torus.radical_contains(d):
                raise DegenerateFormError(
                    f"support difference {d} lies in the radical of the skew form"
                )
    v, exps = _separating_vector(torus, support)
    zmono = [LaurentPoly.q(e) for e in exps]
    rows = []
    cleared = []
    for j in range(s):
        others = [zmono[i] for i in range(s) if i != j]
        es = _elementary_symmetric(others)
        # prod_{i != j} (Z - z_i) = sum_m (-1)^{s-1-m} e_{s-1-m} Z^m
        nums = [
            es[s - 1 - m].scale(-1 if (s - 1 - m) % 2 else 1) for m in range(s)
        ]
        den = LaurentPoly.one()
        for i in range(s):
            if i != j:
                den = den * (zmono[j] - zmono[i])
        rows.append([Scalar(a, den) for a in nums])
        cleared.append((nums, den))
    witness = Witness(h, v, [Q(e) for e in exps], rows, False, cleared)
    witness.verified = witness.verify()
    return witness
