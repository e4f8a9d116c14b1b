"""Rational functions on the character torus of a lattice X.

A :class:`TorusFraction` is a fraction whose numerator is a finite
combination of torus monomials e^x with scalar coefficients (x may lie in
one half of the lattice), and whose denominator is a multiset of canonical
binomials e^beta - c, with beta a nonzero integer vector whose first
nonzero coordinate is positive and c a nonzero monomial scalar.  The
X-part of a quantum torus is commutative, so this is ordinary fraction
arithmetic.

The coefficients share one scalar denominator: a fraction keeps its
numerator, by torus exponent, in the store of
:class:`~qtalg.scalars.CommonDen`, shared with the loop polynomials of
:mod:`qtalg.loopjordan`, so products, sums, divisions and substitutions
are polynomial arithmetic.  :attr:`TorusFraction.num` is the store's
scalar view, so the display and the JSON form are those of a fraction
with one lowest-terms scalar per coefficient.

The binomial shape is closed under every operation used here — Weyl
substitutions and translation twists send binomials to unit multiples
of binomials, with the unit folded into the numerator — and it keeps
poles readable: every pole lies on a stored factor, though a factor
e^{k beta} - c with k > 1 cancels only whole, so (e^a - r)/(e^{3a} - r^3)
still reports a pole at e^a = r (ROADMAP.md, canonical torus fractions).

Fractions cancel on construction: a denominator binomial is dropped
exactly when it divides the numerator (classwise synthetic division along
beta; u - c is monic in u, so no scalar is divided), stopping at the first
class with one member or a remainder.  Above rank 1 the class of one
exponent, found by dict probes, is divided first: most candidates fail
there, before the numerator is split into classes.

Transport through D^mu [w] and restriction to a divisor are one monomial
substitution e^x -> m(x) e^{x'}, x -> x' linear and m(x) a scalar
monomial (:meth:`TorusFraction._substitute`): a factor e^beta - c becomes
m(beta) (e^{beta'} - c/m(beta)), or the scalar m(beta) - c when beta' = 0.
Transport, e^x -> q^{phi.x} e^{M_w x}, is a ring automorphism and skips
both reductions (:meth:`TorusFraction.transport`).

Sums are reduced once.  :meth:`TorusFraction.sum` puts any number of
fractions over the least common multiple of their factor multisets and of
their scalar denominators (Henrici's rule; parts that share a denominator,
as the partial products of an operator square do, need only an equality
test) and reduces the result, and operator composition hands it partial
products left unreduced (:meth:`TorusFraction.mul_unreduced`).  A binomial
is only cancelled after an exact division, so one late reduction is exact.
When no two stored directions are proportional, as for roots, the
reduced denominator depends on the value alone, so it is also the form
that reducing every product and partial sum would store.

A product of two reduced fractions tries only the cancellations that can
happen (:meth:`TorusFraction.__mul__`): over integral exponents a binomial
along a primitive direction is prime, so it is divided only into the
numerator of the side that does not already hold it.

Restriction to e^alpha = tau is e^x -> tau^k e^{x - k alpha}, k the
alpha-coordinate of x.  Each divisor is taken apart once: alpha in the
orientation of stored factors and tau as monomial exponents and a
coefficient, so powers of tau, pole matching and moved factors are
exponent and coefficient arithmetic, with no scalar built.
:meth:`evaluate_at` and :meth:`residue` return the restriction reduced.
The zero tests build no fraction: :meth:`vanishes_on` reads only the
restricted numerator, and :meth:`residues_cancel` reads the restricted
numerators of both sides, each multiplied by what the other side's
denominator has beyond its own (the scalar denominator, the derivative
k tau^{k-1} of the pole factor and the restricted lacking factors).
:meth:`vanishes_on` takes a monomial tau only, as :meth:`evaluate_at`
does; the membership test across the v-family (ROADMAP.md) extends it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as Q
from math import gcd
from operator import add

from .errors import PoleError
from .linalg import unimodular_completion
from .rootdata import LatticePair, WeylElement
from .scalars import (
    _ONE,
    CommonDen,
    LaurentPoly,
    Rat,
    Scalar,
    _add_into,
    _as_scalar,
    _common_den,
    _div,
    _lowest_terms,
    _mul_terms,
    _norm,
    _poly,
    _times_monomial,
)

# exponent of a torus monomial; each entry an int when integral, else a
# Fraction (half-lattice points), as in scalars
XKey = tuple[Rat, ...]
# numerator polynomials over the shared scalar denominator, by exponent
Num = dict[XKey, LaurentPoly]
# denominator binomial e^beta - c, with c stored by monomial data
Factor = tuple[tuple[int, ...], tuple[Rat, int, int], Q]
# torus monomial c e^x: x and the monomial data (key, coeff) of a scalar c
Unit = tuple[tuple[int, ...], tuple[tuple[Rat, int, int], Q]]

_completion_cache: dict[tuple[int, ...], list[list[int]]] = {}


def _xkey(x) -> XKey:
    return tuple(_norm(v) for v in x)


def _factor_value(f: Factor) -> Scalar:
    (qe, te, ve), coeff = f[1], f[2]
    return Scalar.monomial(qexp=qe, texp=te, vexp=ve, coeff=coeff)


def _make_factor(beta, c: Scalar) -> Factor:
    beta = tuple(int(b) for b in beta)
    if not any(beta):
        raise ValueError("binomial direction must be nonzero")
    key, coeff = c.as_monomial()
    if coeff == 0:
        raise ValueError("binomial value must be nonzero")
    return beta, key, coeff


def _divisor(alpha, tau, what: str):
    """The divisor e^alpha = tau, checked and taken apart once: alpha in
    the orientation of stored factors (e^-alpha = 1/tau is e^alpha = tau),
    the monomial data (key, coeff) of tau there, or None for a tau that is
    not a monomial, and whether alpha was flipped."""
    tau = _as_scalar(tau)
    if tau.is_zero():
        raise ValueError("divisor value must be nonzero")
    alpha = tuple(int(a) for a in alpha)
    if not any(alpha):
        raise ValueError(f"{what} direction must be nonzero")
    mono = tau.as_monomial() if tau.is_monomial() else None
    if next(a for a in alpha if a) > 0:
        return alpha, mono, False
    return tuple(-a for a in alpha), mono and _mono_pow(*mono, -1), True


def _restriction(alpha, mono):
    """The substitution e^x -> tau^k e^{x - k alpha} onto e^alpha = tau, for
    a primitive alpha and tau's monomial data, k = row . x the
    alpha-coordinate of x: the images span a complement of Z alpha."""
    _, content, row = _beta_coordinate(alpha)
    if content != 1:
        raise ValueError("evaluation direction must be primitive")
    powers: dict[Rat, tuple | None] = {0: None}

    def image(x):
        k = _norm(sum(r * v for r, v in zip(row, x)))
        if k not in powers:
            powers[k] = _mono_pow(*mono, k)
        return tuple(_norm(v - k * a) for v, a in zip(x, alpha)), powers[k]

    return image


def _beta_coordinate(beta: tuple[int, ...]):
    """Primitive part, content and the dual row functional of beta, via a
    cached unimodular completion of beta/content."""
    content = gcd(*beta)
    prim = tuple(b // content for b in beta)
    if prim not in _completion_cache:
        u, _ = unimodular_completion(prim)
        _completion_cache[prim] = u
    row = _completion_cache[prim][0]
    return prim, content, row


def _mono_pow(key, coeff: Q, k: Rat) -> tuple[tuple[Rat, int, int], Q]:
    """(key, coeff) of (coeff q^qe t^te v^ve)^k for key = (qe, te, ve) and
    a Fraction coeff; a fractional k needs a unit coefficient and t- and
    v-exponents that k keeps integral."""
    qe, te, ve = key
    if k.__class__ is int:
        return (_norm(qe * k), te * k, ve * k), coeff if coeff == 1 else coeff**k
    texp, vexp = te * k, ve * k
    if texp.denominator != 1 or vexp.denominator != 1 or coeff != 1:
        value = Scalar.monomial(qe, te, ve, coeff)
        raise ValueError(f"cannot take power {k} of the monomial {value}")
    return (_norm(qe * k), int(texp), int(vexp)), coeff


class TorusFraction(CommonDen):
    """Rational function on the torus of X, with binomial denominator.

    Stored as numerators by exponent over one scalar denominator
    (:class:`~qtalg.scalars.CommonDen`) and the sorted binomial
    ``factors``; see the module docstring for the invariants.  Fractions
    never change after construction.
    """

    __slots__ = ("pair", "factors")

    def __init__(self, pair: LatticePair, num, factors=()):
        """num is a dict exponent -> scalar (or int, Fraction), or a pair
        (numerator polynomials, scalar denominator) as the arithmetic below
        builds it.  The scalar part is put in lowest terms and the binomial
        factors that divide the numerator are cancelled."""
        self.pair = pair
        if isinstance(num, tuple):
            self.polys, self.den = _lowest_terms(*num)
        else:
            super().__init__({_xkey(x): _as_scalar(c) for x, c in num.items()})
        # zero has no poles, whatever the factors were
        self.factors = tuple(sorted(factors)) if self.polys else ()
        if self.factors:
            self.polys, kept = _cancel(self.polys, self.factors)
            self.factors = tuple(kept)

    @classmethod
    def _stored(cls, pair: LatticePair, polys: Num, den, factors) -> TorusFraction:
        """A fraction from parts the caller vouches for: nothing is
        cancelled, only the factors are sorted."""
        out = cls.__new__(cls)
        out.pair, out.polys = pair, polys
        out.den = den if polys else _ONE
        out.factors = tuple(sorted(factors)) if polys else ()
        return out

    def _with(self, polys: Num, den) -> TorusFraction:
        """The fraction with this one's factors over a new scalar part: a
        scalar is a unit for binomial divisibility, so no factor cancels."""
        return TorusFraction._stored(self.pair, polys, den, self.factors)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, pair: LatticePair) -> TorusFraction:
        return cls(pair, {})

    @classmethod
    def one(cls, pair: LatticePair) -> TorusFraction:
        return cls.monomial(pair, (0,) * pair.rank)

    @classmethod
    def monomial(cls, pair: LatticePair, x, coeff=1) -> TorusFraction:
        return cls(pair, {_xkey(x): _as_scalar(coeff)})

    @classmethod
    def from_scalar(cls, pair: LatticePair, c) -> TorusFraction:
        return cls.monomial(pair, (0,) * pair.rank, c)

    @classmethod
    def ratio(cls, pair: LatticePair, num: dict, den_binomials=()) -> TorusFraction:
        """num / prod (e^beta - c) for the given (beta, c) pairs: the
        identity substitution puts the factors in stored orientation."""
        factors = [_make_factor(beta, _as_scalar(c)) for beta, c in den_binomials]
        value = cls(pair, num)._substitute(lambda x: (x, None), factors)
        return cls(pair, (value.polys, value.den), value.factors)

    # -- structure -------------------------------------------------------------

    num = CommonDen.coeffs  # exponent -> lowest-terms scalar coefficient

    def as_scalar(self) -> Scalar:
        """The value of a constant fraction (no factors, exponent zero)."""
        if self.factors:
            raise ValueError("fraction has a nontrivial denominator")
        if not self.polys:
            return Scalar.zero()
        [(x, p)] = self.polys.items()
        if any(x):
            raise ValueError("fraction is not constant")
        return self._scalar(p)

    def pole_list(self) -> list[tuple[tuple[int, ...], Scalar, int]]:
        """Distinct denominator binomials with multiplicities."""
        counts = sorted(Counter(self.factors).items())
        return [(f[0], _factor_value(f), m) for f, m in counts]

    # -- arithmetic -----------------------------------------------------------------

    @classmethod
    def sum(cls, pair: LatticePair, parts) -> TorusFraction:
        """The sum of the fractions in parts, reduced once.

        The denominator is the least common multiple of the parts' factor
        multisets and of their scalar denominators.  Each numerator is
        multiplied by the binomials and the scalar cofactor its own
        denominator lacks, the numerators are added, and the result is
        reduced.  Parts may be unreduced (see :meth:`mul_unreduced`): the
        value is the same, and the one reduction cancels what it can.
        """
        num, den, factors = _common_form(pair.rank, parts)
        return cls(pair, (num, den), factors)

    def __add__(self, other: TorusFraction) -> TorusFraction:
        if not isinstance(other, TorusFraction):
            return NotImplemented
        return TorusFraction.sum(self.pair, (self, other))

    def __mul__(self, other: TorusFraction) -> TorusFraction:
        """The product, reduced, of two reduced fractions.

        Over integral exponents, e^beta - c with beta primitive is prime, so
        a factor of one side divides the product only through the other
        side's numerator, and a factor of both sides never divides it: the
        cross-cancellations alone are tried.  A factor along a non-primitive
        direction may split, and is tried on the whole product, as are all
        factors when a numerator has a fractional exponent, where a primitive
        beta can be twice a half-lattice point."""
        if not isinstance(other, TorusFraction):
            return NotImplemented
        pair, a, b = self.pair, self.factors, other.factors
        if not (self.polys and other.polys):
            return TorusFraction.zero(pair)
        den = self.den * other.den
        if not (_integral(self.polys) and _integral(other.polys)):
            return TorusFraction(pair, (_num_mul(self.polys, other.polys), den), a + b)
        # only the factors of one side are tried on the other's numerator
        num_a, kept_b = _cancel(self.polys, [f for f in b if f not in a and _primitive(f)])
        num_b, kept_a = _cancel(other.polys, [f for f in a if f not in b and _primitive(f)])
        polys = _num_mul(num_a, num_b)
        if len(den.terms) > 1:
            polys, den = _lowest_terms(polys, den)
        common = [f for f in a + b if f in a and f in b and _primitive(f)]
        split, kept = _cancel(polys, sorted(f for f in a + b if not _primitive(f)))
        return TorusFraction._stored(pair, split, den, kept_a + kept_b + common + kept)

    def mul_unreduced(self, other: TorusFraction) -> TorusFraction:
        """The product with nothing cancelled: the factor multisets
        concatenated and the scalar denominators multiplied, for
        :meth:`sum` to reduce."""
        return TorusFraction._stored(
            self.pair,
            _num_mul(self.polys, other.polys),
            self.den * other.den,
            self.factors + other.factors,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusFraction):
            return NotImplemented
        # the difference over the common denominator, left unreduced
        num, _, _ = _common_form(self.pair.rank, (self, -other))
        return not num

    __hash__ = None

    def _form(self, up_to_sign: bool = False) -> tuple[tuple, int]:
        """(form, s): a hashable image of the stored form of s * self, for
        self != 0, s = 1 or, up_to_sign, the sign that makes the first
        coefficient positive.  Not a hash: a value can have other forms."""
        first = self.polys[min(self.polys)].terms
        sign = -1 if up_to_sign and first[min(first)] < 0 else 1
        num = frozenset(
            (x, frozenset((k, sign * c) for k, c in p.terms.items())) for x, p in self.polys.items()
        )
        return (num, frozenset(self.den.terms.items()), self.factors), sign

    # -- substitutions -----------------------------------------------------------

    def _image_num(self, image) -> dict[XKey, dict]:
        """Term dicts, by image exponent, of the numerator under the
        substitution of :meth:`_substitute`; a dict may be empty."""
        acc: dict[XKey, dict] = {}
        for x, p in self.polys.items():
            y, m = image(x)
            if m is None:
                _add_into(acc, y, p.terms)
            else:
                _mul_terms(acc.setdefault(y, {}), p.terms, {m[0]: _norm(m[1])})
        return acc

    def _substitute(self, image, factors) -> TorusFraction:
        """The numerator over den and the given factors, none vanishing
        under it, through e^x -> m(x) e^{x'}, with nothing cancelled (see
        the module docstring).  image(x) is (x', m(x)): x' in stored form
        and m(x) the monomial data (key, coeff) of a scalar, or None for 1.
        """
        acc = self._image_num(image)
        polys: Num = {y: _poly(terms) for y, terms in acc.items() if terms}
        if not polys:
            return TorusFraction.zero(self.pair)
        one: Unit = ((0,) * self.pair.rank, ((0, 0, 0), 1))
        unit, den, new_factors = one, self.den, []
        for beta, key, coeff in factors:
            new_beta, m = image(beta)
            if not any(new_beta):
                # m(beta) - c, for beta = k alpha with k != 0 on a divisor;
                # the two keys meet when both are constants
                value = LaurentPoly.monomial(*m[0], coeff=m[1])
                den = den * (value - LaurentPoly.monomial(*key, coeff=coeff))
                continue
            if m is not None:
                inv = _mono_pow(*m, -1)
                unit = unit[0], _mono_mul(unit[1], inv)
                key, coeff = _mono_mul((key, coeff), inv)
            nf, unit = _canonicalize_factor((new_beta, key, coeff), unit)
            new_factors.append(nf)
        if unit is not one:
            x, mono = unit
            polys = {_xkey(map(add, y, x)): _times_monomial(p, *mono) for y, p in polys.items()}
        return TorusFraction._stored(self.pair, polys, den, new_factors)

    def transport(self, w: WeylElement, mu) -> TorusFraction:
        """Move the fraction left through D^mu [w]: the plain action
        e^x -> e^{wx} followed by the shift e^x -> q^{2<x,mu>} e^x, as one
        substitution e^x -> q^{phi.x} e^{M x}, M = M_w and phi = M^T phi_mu.

        M is a Weyl matrix, so this is a ring automorphism sending each
        denominator binomial to a unit times a binomial: a factor divides
        the image of the numerator exactly when it divided the numerator,
        so a reduced fraction maps to a reduced one with nothing cancelled.
        The scalar denominator is unchanged: the numerators only gain
        q-monomials, units of the scalar ring.
        """
        pair = self.pair
        n = pair.rank
        mat = pair.x_matrix(w)
        phi_mu = [
            2 * sum(pair.pairing[i][j] * mu[j] for j in range(n)) for i in range(n)
        ]
        phi = _xkey(sum(mat[i][k] * phi_mu[i] for i in range(n)) for k in range(n))
        ident = w.is_identity()
        if ident and not any(phi):
            return self  # fractions never change after construction

        # M is injective, so no two exponents meet
        def image(x):
            e = _norm(sum(c * v for c, v in zip(phi, x)))
            if not ident:
                x = tuple(_norm(sum(a * v for a, v in zip(row, x))) for row in mat)
            return x, ((e, 0, 0), 1) if e else None

        return self._substitute(image, self.factors)

    def weyl_act(self, w: WeylElement) -> TorusFraction:
        """The plain action e^x -> e^{wx}."""
        return self.transport(w, (0,) * self.pair.rank)

    def shift_mu(self, mu) -> TorusFraction:
        """Conjugation by the translation mu: e^x -> q^{2<x,mu>} e^x."""
        return self.transport(self.pair.system.identity, mu)

    # -- evaluation and residues ------------------------------------------------

    def _matching_factors(self, alpha, mono) -> list[tuple[Factor, int]]:
        """(factor, k) for the factors e^{k alpha} - tau^k, k > 0, on a
        divisor as :func:`_divisor` returns it; factor values are
        monomials, so a tau that is not one (mono None) matches nothing."""
        if mono is None:
            return []
        i = next(i for i, a in enumerate(alpha) if a)
        out = []
        for f in self.factors:
            beta = f[0]
            k, rest = divmod(beta[i], alpha[i])
            if rest or k <= 0 or beta != tuple(k * a for a in alpha):
                continue
            if (f[1], f[2]) == _mono_pow(*mono, k):
                out.append((f, k))
        return out

    def _checked_restriction(self, alpha, tau):
        """The substitution onto e^alpha = tau in the orientation given,
        whose exponents the value keeps: PoleError on a pole, ValueError
        unless alpha is primitive and tau a monomial."""
        alpha, mono, flipped = _divisor(alpha, tau, "evaluation")
        if self._matching_factors(alpha, mono):
            tau = _factor_value((alpha, *mono))
            raise PoleError(f"pole on the divisor e^{list(alpha)} = {tau}")
        if mono is None:
            raise ValueError(f"evaluation value must be a monomial, not {tau}")
        if flipped:
            alpha, mono = tuple(-a for a in alpha), _mono_pow(*mono, -1)
        return _restriction(alpha, mono)

    def evaluate_at(self, alpha, tau) -> TorusFraction:
        """Substitute e^alpha = tau (alpha a primitive integer vector of
        either orientation, tau a nonzero monomial scalar).  Raises
        PoleError if a denominator factor vanishes there.

        A factor e^beta - c with beta a multiple k alpha becomes the scalar
        tau^k - c, which moves into the scalar denominator; the result is
        put in lowest terms once.  A numerator that vanishes on the divisor
        gives zero without reading the factors."""
        value = self._substitute(self._checked_restriction(alpha, tau), self.factors)
        return TorusFraction(self.pair, (value.polys, value.den), value.factors)

    def vanishes_on(self, alpha, tau) -> bool:
        """Whether :meth:`evaluate_at` would be zero, or its error: read on
        the restricted numerator alone, with no fraction built."""
        return not any(self._image_num(self._checked_restriction(alpha, tau)).values())

    def pole_order(self, alpha, tau) -> int:
        """The order of the pole on e^alpha = tau, in either orientation."""
        return len(self._matching_factors(*_divisor(alpha, tau, "pole")[:2]))

    def residue(self, alpha, tau) -> TorusFraction:
        """Residue along e^alpha = tau: the value of (e^alpha - tau) * self
        on the divisor.  Zero if there is no pole; PoleError if the pole
        has order > 1.

        alpha may have either orientation; tau must be a nonzero monomial.
        """
        alpha, mono, flipped = _divisor(alpha, tau, "residue")
        pole = self._pole_on(alpha, mono)
        if pole is None:
            return TorusFraction.zero(self.pair)
        k, remaining = pole
        value = self._substitute(_restriction(alpha, mono), remaining)
        # e^{k alpha} - tau^k = (e^alpha - tau) S with S -> k tau^{k-1}, and
        # e^-alpha - 1/tau = -tau^-2 (e^alpha - tau) on the divisor
        if k != 1 or flipped:
            key, coeff = _mono_pow(*mono, 1 - k - 2 * flipped)
            value = value.scale(Scalar.monomial(*key, coeff=(-1) ** flipped * coeff / k))
        return TorusFraction(self.pair, (value.polys, value.den), value.factors)

    def residues_cancel(self, other: TorusFraction, alpha, tau) -> bool:
        """Whether the residues of self and other along e^alpha = tau sum
        to zero, with the errors of :meth:`residue`, read on restricted
        numerators with no residue built.

        Write f = N / (d F A), with d the scalar denominator, F = e^{k alpha}
        - tau^k the one factor vanishing on D: e^alpha = tau and A the
        others, and s = k tau^{k-1}.  Then Res f = N|_D / (d s A|_D), up to
        the sign of the orientation, which both sides share.  Multiplied by
        d_f d_g s_f s_g lcm(A_f, A_g)|_D, nonzero on D, the residue sum is
        N_f|_D d_g s_g (A_g - A_f)|_D + N_g|_D d_f s_f (A_f - A_g)|_D, with
        A_g - A_f the multiset difference, and equal parts of the two sides
        are left out.  A side with no pole on D has no residue.
        """
        alpha, mono, _ = _divisor(alpha, tau, "residue")
        image, sides = None, []
        for f in (self, other):
            pole = f._pole_on(alpha, mono)
            if pole is not None:
                image = image or _restriction(alpha, mono)
                pole = (f._image_num(image), *pole)
            sides.append(pole)
        if sides[0] is None or sides[1] is None:
            return not any(any(side[0].values()) for side in sides if side)
        (num_f, k_f, rest_f), (num_g, k_g, rest_g) = sides
        # each side is multiplied by what the other's denominator has
        # beyond its own
        lacks_f = lacks_g = ()
        if rest_f != rest_g:
            counts_f, counts_g = Counter(rest_f), Counter(rest_g)
            lacks_f = tuple((counts_g - counts_f).elements())
            lacks_g = tuple((counts_f - counts_g).elements())
        den_f = den_g = None
        if self.den.terms != other.den.terms:
            den_f, den_g = other.den, self.den
        s_f = s_g = None
        if k_f != k_g:
            # s = k tau^{k-1}; each side takes the other's
            s_f, s_g = (_mono_mul(_mono_pow(*mono, k - 1), ((0, 0, 0), k)) for k in (k_g, k_f))
        rank = self.pair.rank
        acc = _times_restricted(num_f, image, rank, den_f, s_f, lacks_f)
        for y, terms in _times_restricted(num_g, image, rank, den_g, s_g, lacks_g).items():
            _add_into(acc, y, terms)
        return not any(acc.values())

    def _pole_on(self, alpha, mono) -> tuple[int, list[Factor]] | None:
        """(k, the other factors) for the one factor e^{k alpha} - tau^k of
        self that vanishes on a divisor as :func:`_divisor` returns it, or
        None if none does; PoleError if more than one does."""
        matching = self._matching_factors(alpha, mono)
        if not matching:
            return None
        if len(matching) > 1:
            tau = _factor_value((alpha, *mono))
            raise PoleError(f"pole of order {len(matching)} on e^{list(alpha)} = {tau}")
        # the one matching factor is peeled off, so no other factor vanishes
        [(f, k)] = matching
        remaining = list(self.factors)
        remaining.remove(f)
        return k, remaining

    # -- display and JSON ------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.polys:
            return "0"
        num = " + ".join(
            f"({c})*e[{', '.join(str(v) for v in x)}]"
            for x, c in sorted(self.num.items())
        )
        if not self.factors:
            return num
        den = " * ".join(
            f"(e{list(f[0])} - {_factor_value(f)})" for f in self.factors
        )
        return f"[{num}] / [{den}]"

    def to_json(self) -> dict:
        return {
            "num": [
                {"exponent": [str(v) for v in x], "coeff": c.to_json()}
                for x, c in sorted(self.num.items())
            ],
            "den": [
                {"direction": list(f[0]), "value": _factor_value(f).to_json()}
                for f in self.factors
            ],
        }

    @classmethod
    def from_json(cls, pair: LatticePair, data: dict) -> TorusFraction:
        num = {
            tuple(Q(v) for v in item["exponent"]): Scalar.from_json(item["coeff"])
            for item in data["num"]
        }
        dens = [
            (tuple(int(v) for v in item["direction"]), Scalar.from_json(item["value"]))
            for item in data.get("den", ())
        ]
        return cls.ratio(pair, num, dens)


# -- numerator polynomials over one scalar denominator ----------------------------


def _collect(acc: dict) -> Num:
    """The numerator of accumulated term dicts, zero polynomials dropped."""
    return {_xkey(x): _poly(terms) for x, terms in acc.items() if terms}


def _mul_into(acc: dict, a: Num, b: Num) -> None:
    """acc[x + y] += a[x] * b[y] for every pair of exponents."""
    for x, p in a.items():
        pt = p.terms
        for y, r in b.items():
            key = tuple(map(add, x, y))
            out = acc.get(key)
            if out is None:
                out = acc[key] = {}
            _mul_terms(out, pt, r.terms)


def _num_mul(a: Num, b: Num) -> Num:
    acc: dict = {}
    _mul_into(acc, a, b)
    return _collect(acc)


def _common_form(rank: int, parts) -> tuple[Num, LaurentPoly, tuple[Factor, ...]]:
    """(numerator, scalar denominator, factors) of the sum of parts over
    the lcm of their factor multisets and of their scalar denominators,
    nothing cancelled."""
    parts = [p for p in parts if p.polys]
    den, cofactors = _common_den([p.den for p in parts])
    factors = parts[0].factors if parts else ()
    if all(p.factors == factors for p in parts):
        # one factor multiset, as most sums have: it is the lcm
        missing = [()] * len(parts)
    else:
        owned = [Counter(p.factors) for p in parts]
        lcm_factors: Counter = Counter()
        for counts in owned:
            lcm_factors |= counts
        factors = tuple(lcm_factors.elements())
        missing = [tuple((lcm_factors - counts).elements()) for counts in owned]
    zero = _xkey((0,) * rank)
    acc: dict = {}
    for p, lack, cofactor in zip(parts, missing, cofactors):
        mult = _factors_poly(lack, rank) if lack else None
        if cofactor is not _ONE:
            cofactor = {zero: cofactor}
            mult = cofactor if mult is None else _num_mul(mult, cofactor)
        if mult is None:
            for x, poly in p.polys.items():
                _add_into(acc, x, poly.terms)
        else:
            _mul_into(acc, p.polys, mult)
    return _collect(acc), den, factors


def _times_restricted(num: dict, image, rank: int, den, s, factors) -> dict:
    """Term dicts, by exponent, of num (as :meth:`TorusFraction._image_num`
    gives it) times the scalar den, the scalar monomial with data s and the
    factors restricted through image; den and s may be None for 1."""
    zero = (0,) * rank
    mult = None if den is None else {zero: den}
    if s is not None:
        scalar = {zero: LaurentPoly.monomial(*s[0], coeff=s[1])}
        mult = scalar if mult is None else _num_mul(mult, scalar)
    for beta, key, coeff in factors:
        # e^beta - c -> m e^{beta'} - c, a nonzero scalar when beta' = 0
        y, m = image(beta)
        power = _ONE if m is None else LaurentPoly.monomial(*m[0], coeff=m[1])
        c = LaurentPoly.monomial(*key, coeff=-coeff)
        binomial = {y: power, zero: c} if any(y) else {zero: power + c}
        mult = binomial if mult is None else _num_mul(mult, binomial)
    if mult is None:
        return num
    acc: dict = {}
    for y, terms in num.items():
        for x, p in mult.items():
            _mul_terms(acc.setdefault(tuple(map(add, y, x)), {}), terms, p.terms)
    return acc


def _factors_poly(factors, rank: int) -> Num:
    """Expand a factor multiset into a numerator."""
    zero = _xkey((0,) * rank)
    out: Num = {zero: _ONE}
    for beta, key, coeff in factors:
        out = _num_mul(out, {_xkey(beta): _ONE, zero: LaurentPoly.monomial(*key, coeff=-coeff)})
    return out


def _mono_mul(a, b) -> tuple[tuple[Rat, int, int], Q]:
    """(key, coeff) of the product of two scalar monomials given so."""
    (aq, at, av), ac = a
    (bq, bt, bv), bc = b
    return (_norm(aq + bq), at + bt, av + bv), ac * bc


def _canonicalize_factor(f: Factor, unit: Unit) -> tuple[Factor, Unit]:
    """Flip e^beta - c so the first nonzero coordinate of beta is positive,
    and multiply unit by what the flip leaves in the numerator:
    1/(e^beta - c) = (-c^{-1} e^{-beta}) / (e^{-beta} - c^{-1})."""
    beta, (qe, te, ve), coeff = f
    if next(v for v in beta if v) > 0:
        return f, unit
    neg = tuple(-b for b in beta)
    inv_key = (-qe, -te, -ve)
    flipped = (neg, inv_key, 1 / coeff)
    x, mono = unit
    return flipped, (tuple(map(add, x, neg)), _mono_mul(mono, (inv_key, -1 / coeff)))


def _primitive(f: Factor) -> bool:
    return gcd(*f[0]) == 1


def _integral(num: Num) -> bool:
    """Whether every exponent of num lies in X."""
    return all(v.__class__ is int for x in num for v in x)


def _cancel(num: Num, factors) -> tuple[Num, list[Factor]]:
    """(quotient, kept): num divided by each of the sorted factors, after
    its exact division succeeds, as often as it divides, in one pass: a
    factor that does not divide N divides no N/f, as N = f (N/f), so none
    needs a retry.  A numerator with one exponent is a unit, which no
    binomial divides."""
    kept = list(factors)
    classes: dict[tuple[int, ...], list] = {}
    for f in dict.fromkeys(factors):
        if len(num) == 1:
            break
        for _ in range(factors.count(f)):
            quotient: Num = {}
            todo = classes.get(f[0])
            if todo is None:
                probed = _probe_class(num, f[0]) if len(f[0]) > 1 else None
                if probed and not _divide_num(num, f, [probed], quotient):
                    break
                # the first exponent's class comes first, and was just divided
                classes[f[0]] = todo = _beta_classes(num, f[0])
                todo = todo[1:] if probed else todo
            if not _divide_num(num, f, todo, quotient):
                break
            num, classes = quotient, {}
            kept.remove(f)
    return num, kept


def _beta_classes(num: Num, beta: tuple[int, ...]) -> list[list[tuple[int, XKey]]]:
    """Split the exponents of num into the classes x + Z beta, in the order
    of their first exponents; each member comes with its offset m >= 0
    above the lowest member of its class."""
    _, content, row = _beta_coordinate(beta)
    classes: dict[tuple, list] = {}
    for x in num:
        # beta-coordinate: x . row gives the prim coordinate; beta = content*prim
        k = _div(sum(r * v for r, v in zip(row, x)), content)
        rest = tuple(_norm(v - k * b) for v, b in zip(x, beta))
        classes.setdefault((k % 1,) + rest, []).append((k, x))
    out = []
    for items in classes.values():
        kmin = min(k for k, _ in items)
        out.append([(int(k - kmin), x) for k, x in items])
    return out


def _probe_class(num: Num, beta: tuple[int, ...]) -> list[tuple[int, XKey]]:
    """The class x0 + Z beta of num's first exponent x0, as
    :func:`_beta_classes` lists it, by dict probes x0 + k beta within the
    bounds of num's exponents in one coordinate i with beta_i != 0."""
    x0 = next(iter(num))
    i = next(i for i, b in enumerate(beta) if b)
    coords = [x[i] for x in num]
    reach = max(x0[i] - min(coords), max(coords) - x0[i]) // abs(beta[i])
    # x0 is a stored key and k * c an int, so each probe is in stored form
    members = [
        (k, x)
        for k in range(-reach, reach + 1)
        if (x := tuple(y + k * c for y, c in zip(x0, beta))) in num
    ]
    return [(k - members[0][0], x) for k, x in members]


def _divide_num(num: Num, f: Factor, classes: list, quotient: Num) -> bool:
    """Whether e^beta - c divides num on each class (:func:`_beta_classes`):
    synthetic division of sum_m P_m u^m, u = e^beta, by u - c, monic in u,
    the quotient terms put into quotient."""
    beta, key, coeff = f
    for items in classes:
        degree = max(m for m, _ in items)
        if degree == 0:
            return False
        coeffs: list[LaurentPoly | None] = [None] * (degree + 1)
        for m, x in items:
            coeffs[m] = num[x]
            if m == 0:
                base = x
        carry = coeffs[degree]
        for m in range(degree - 1, -1, -1):
            if carry.terms:
                # base is a stored key and m * b an int, so this is stored form
                quotient[tuple(v + m * b for v, b in zip(base, beta))] = carry
            shifted = _times_monomial(carry, key, coeff)
            carry = shifted if coeffs[m] is None else shifted + coeffs[m]
        if carry.terms:  # the remainder
            return False
    return True
