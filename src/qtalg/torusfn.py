"""Rational functions on the character torus of a lattice X.

A :class:`TorusFraction` is a fraction whose numerator is a finite
combination of torus monomials e^x with :class:`~qtalg.scalars.Scalar`
coefficients (x may lie in one half of the lattice), and whose
denominator is a multiset of canonical binomials e^beta - c, with beta
a nonzero integer vector whose first nonzero coordinate is positive and
c a nonzero monomial scalar.  The X-part of a quantum torus is
commutative, so this is ordinary fraction arithmetic.

The binomial shape is closed under every operation used here — Weyl
substitutions and translation twists send binomials to unit multiples
of binomials, with the unit folded into the numerator — and it keeps
poles readable: the stored denominator is the pole divisor.

Fractions cancel on construction: a denominator binomial is dropped
whenever it divides the numerator exactly (classwise synthetic division
along beta).  Most candidate binomials do not divide, so each is first
screened modulo a prime at one fixed point: a class remainder that is
nonzero there is nonzero exactly, and the binomial is rejected without
any exact arithmetic.  Every other case, including a coefficient that is
undefined at the point, goes to the exact division, so the screen can
only reject and the result is exact.

Substitutions e^x -> q^{phi.x} e^{Mx} skip that reduction.  For M
invertible such a map is a ring automorphism, so a factor divides the
image of the numerator exactly when it divided the numerator, and a
reduced fraction maps to a reduced one.  Every caller passes a
Weyl-group or identity matrix.

Sums are reduced once.  :meth:`TorusFraction.sum` puts any number of
fractions over the least common multiple of their factor multisets and
reduces the result, and operator composition hands it partial products
left unreduced (:meth:`TorusFraction.mul_unreduced`).  A binomial is
only cancelled after an exact division, so one late reduction is exact.
When no two stored directions are proportional, as for roots, the
reduced denominator depends on the value alone, so it is also the form
that reducing every product and partial sum would store.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as Q
from math import gcd, lcm

from .errors import PoleError
from .linalg import mat_det, unimodular_completion
from .rootdata import LatticePair, WeylElement
from .scalars import (
    _P,
    Rat,
    Scalar,
    _as_scalar,
    _div,
    _norm,
    _residue,
    _root_index,
    _terms_residue,
)

# exponent of a torus monomial; each entry an int when integral, else a
# Fraction (half-lattice points), as in scalars
XKey = tuple[Rat, ...]
# denominator binomial e^beta - c, with c stored by monomial data
Factor = tuple[tuple[int, ...], tuple[Rat, int, int], Q]

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


def _divisor_value(tau) -> Scalar:
    tau = _as_scalar(tau)
    if tau.is_zero():
        raise ValueError("divisor value must be nonzero")
    return tau


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


def _scalar_frac_power(tau: Scalar, k: Rat) -> Scalar:
    """tau^k for monomial tau; fractional k needs unit coefficient."""
    if k.denominator == 1:
        return tau ** int(k)
    (qe, te, ve), coeff = tau.as_monomial()
    texp, vexp = te * k, ve * k
    if texp.denominator != 1 or vexp.denominator != 1 or coeff != 1:
        raise ValueError(f"cannot take power {k} of the monomial {tau}")
    return Scalar.monomial(qexp=qe * k, texp=int(texp), vexp=int(vexp))


class TorusFraction:
    """Rational function on the torus of X, with binomial denominator."""

    __slots__ = ("pair", "num", "factors")

    def __init__(self, pair: LatticePair, num: dict, factors=(), reduce: bool = True):
        self.pair = pair
        clean: dict[XKey, Scalar] = {}
        for x, c in num.items():
            c = _as_scalar(c)
            if not c.is_zero():
                clean[_xkey(x)] = c
        self.num = clean
        # zero has no poles, whatever the factors were
        self.factors = tuple(sorted(factors)) if clean else ()
        if reduce and self.factors:
            self._reduce()

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
        """num / prod (e^beta - c) for the given (beta, c) pairs."""
        factors = []
        unit: dict[XKey, Scalar] = {_xkey((0,) * pair.rank): Scalar.one()}
        for beta, c in den_binomials:
            f = _make_factor(beta, _as_scalar(c))
            f, unit = _canonicalize_factor(f, unit, pair.rank)
            factors.append(f)
        return cls(pair, num) * cls(pair, unit, tuple(factors))

    @classmethod
    def from_two_term_den(cls, pair: LatticePair, num: dict, den: dict) -> TorusFraction:
        """num / den where den is an explicit two-monomial combination;
        the denominator is rewritten as unit * (e^beta - c)."""
        terms = [(x, _as_scalar(c)) for x, c in den.items() if not _as_scalar(c).is_zero()]
        if len(terms) != 2:
            raise ValueError("denominator must have exactly two monomials")
        (x1, a), (x2, b) = terms
        diff = tuple(Q(p) - Q(r) for p, r in zip(x1, x2))
        if any(d.denominator != 1 for d in diff):
            raise ValueError("denominator exponent difference must be integral")
        # den = a e^{x2} (e^{x1-x2} - (-b/a))
        beta = tuple(int(d) for d in diff)
        c = -(b / a)
        inv_unit = {tuple(-Q(v) for v in x2): a.inverse()}
        return cls.ratio(pair, num, [(beta, c)]) * cls(pair, inv_unit)

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_polynomial(self) -> bool:
        return not self.factors

    def as_scalar(self) -> Scalar:
        """The value of a constant fraction (no factors, exponent zero)."""
        if self.factors:
            raise ValueError("fraction has a nontrivial denominator")
        if not self.num:
            return Scalar.zero()
        [(x, c)] = self.num.items()
        if any(x):
            raise ValueError("fraction is not constant")
        return c

    def pole_list(self) -> list[tuple[tuple[int, ...], Scalar, int]]:
        """Distinct denominator binomials with multiplicities."""
        counts = sorted(Counter(self.factors).items())
        return [(f[0], _factor_value(f), m) for f, m in counts]

    # -- reduction ---------------------------------------------------------------

    def _reduce(self) -> None:
        """Cancel, one at a time, every denominator factor that divides the
        numerator exactly.

        Each pass evaluates the numerator's coefficients once modulo the
        prime p of :mod:`qtalg.scalars`, at its fixed point with q^(1/grid)
        for the lcm grid of the pass.  A factor e^beta - c whose division
        has a single-member class, or a class remainder P(c) that is
        nonzero mod p, does not divide: reduction mod p is a ring
        homomorphism on the values involved, so a nonzero residue is a
        nonzero exact remainder.  Any other factor, including one whose
        value or class coefficients are undefined mod p (a coefficient
        denominator divisible by p, or a scalar denominator vanishing at
        the point), goes to the exact division.
        """
        factors = list(self.factors)
        changed = True
        while changed and factors:
            changed = False
            distinct = sorted(set(factors))
            grid = lcm(
                _root_index(self.num.values()),
                *(f[1][0].denominator for f in distinct),
            )
            values = {x: _residue(c, grid) for x, c in self.num.items()}
            classes: dict[tuple[int, ...], list] = {}
            for f in distinct:
                if f[0] not in classes:
                    classes[f[0]] = _beta_classes(self.num, f[0])
                if _indivisible(classes[f[0]], values, _terms_residue([f[1:]], grid)):
                    continue
                quotient = _divide_num(self.num, f)
                if quotient is not None:
                    self.num = quotient
                    factors.remove(f)
                    changed = True
                    break
        self.factors = tuple(sorted(factors))

    # -- arithmetic -----------------------------------------------------------------

    @classmethod
    def sum(cls, pair: LatticePair, parts) -> TorusFraction:
        """The sum of the fractions in parts, reduced once.

        The denominator is the least common multiple of the parts' factor
        multisets.  Each numerator is multiplied by the binomials its own
        denominator lacks, the numerators are added, and the result is
        reduced.  Parts may be unreduced (see :meth:`mul_unreduced`): the
        value is the same, and the one reduction cancels what it can.
        """
        parts = [p for p in parts if p.num]
        owned = [Counter(p.factors) for p in parts]
        lcm_factors: Counter = Counter()
        for counts in owned:
            lcm_factors |= counts
        num: dict[XKey, Scalar] = {}
        for p, counts in zip(parts, owned):
            missing = lcm_factors - counts
            terms = p.num
            if missing:
                terms = _num_mul(terms, _factors_poly(missing.elements(), pair.rank))
            for x, c in terms.items():
                num[x] = num[x] + c if x in num else c
        return cls(pair, num, tuple(lcm_factors.elements()))

    def __add__(self, other: TorusFraction) -> TorusFraction:
        if not isinstance(other, TorusFraction):
            return NotImplemented
        return TorusFraction.sum(self.pair, (self, other))

    def __neg__(self) -> TorusFraction:
        out = TorusFraction.__new__(TorusFraction)
        out.pair = self.pair
        out.num = {x: -c for x, c in self.num.items()}
        out.factors = self.factors
        return out

    def __sub__(self, other: TorusFraction) -> TorusFraction:
        return self + (-other)

    def __mul__(self, other: TorusFraction) -> TorusFraction:
        if not isinstance(other, TorusFraction):
            return NotImplemented
        return TorusFraction(
            self.pair, _num_mul(self.num, other.num), self.factors + other.factors
        )

    def mul_unreduced(self, other: TorusFraction) -> TorusFraction:
        """The product with the factor multisets concatenated and nothing
        cancelled, for :meth:`sum` to reduce."""
        num = _num_mul(self.num, other.num)
        return TorusFraction(self.pair, num, self.factors + other.factors, False)

    def scale(self, c) -> TorusFraction:
        c = _as_scalar(c)
        return TorusFraction(
            self.pair, {x: c * v for x, v in self.num.items()}, self.factors, False
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusFraction):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- substitutions -----------------------------------------------------------

    def substitute(self, mat, phi) -> TorusFraction:
        """Apply e^x -> q^{phi.x} e^{M x} (M integral and invertible, phi a
        covector).

        With M invertible this is a ring automorphism of the Laurent
        polynomials with exponents in Q^n, and it sends each denominator
        binomial to a unit times a binomial.  A factor therefore divides
        the image of the numerator exactly when it divided the numerator,
        so a reduced fraction maps to a reduced one and the result is built
        without a second reduction.  Every caller passes a Weyl-group or an
        identity matrix; a singular M raises ValueError.
        """
        phi = _xkey(phi)
        n = self.pair.rank
        ident = all(mat[i][k] == (i == k) for i in range(n) for k in range(n))
        if ident and not any(phi):
            return self  # fractions never change after construction
        if not ident and mat_det(mat) == 0:
            raise ValueError("substitution matrix must be invertible")

        def apply_mat(x) -> XKey:
            return tuple(
                _norm(sum(mat[i][k] * x[k] for k in range(n))) for i in range(n)
            )

        def qform(x) -> Rat:
            return _norm(sum(p * v for p, v in zip(phi, x)))

        num = {}
        for x, c in self.num.items():
            key = x if ident else apply_mat(x)
            e = qform(x)
            coeff = c * Scalar.q(e) if e else c
            num[key] = num[key] + coeff if key in num else coeff
        unit: dict[XKey, Scalar] = {_xkey((0,) * n): Scalar.one()}
        factors = []
        for f in self.factors:
            beta, c = f[0], _factor_value(f)
            new_beta = tuple(int(v) for v in apply_mat(beta))
            shift = qform(beta)
            if shift:
                # e^beta - c  ->  q^shift (e^{M beta} - q^{-shift} c)
                unit = _num_scale(unit, Scalar.q(-shift))
                c = c * Scalar.q(-shift)
            nf, unit = _canonicalize_factor(_make_factor(new_beta, c), unit, n)
            factors.append(nf)
        return TorusFraction(
            self.pair, _num_mul(num, unit), tuple(factors), reduce=False
        )

    def transport(self, w: WeylElement, mu) -> TorusFraction:
        """Move the fraction left through D^mu [w]: the plain action
        e^x -> e^{wx} followed by the shift e^x -> q^{2<x,mu>} e^x, done as
        one substitution with the covector M_w^T phi_mu."""
        pair = self.pair
        n = pair.rank
        mat = pair.x_matrix(w)
        phi_mu = [
            2 * sum(pair.pairing[i][j] * mu[j] for j in range(n)) for i in range(n)
        ]
        phi = tuple(sum(mat[i][k] * phi_mu[i] for i in range(n)) for k in range(n))
        return self.substitute(mat, phi)

    def weyl_act(self, w: WeylElement) -> TorusFraction:
        """The plain action e^x -> e^{wx}."""
        return self.transport(w, (0,) * self.pair.rank)

    def shift_mu(self, mu) -> TorusFraction:
        """Conjugation by the translation mu: e^x -> q^{2<x,mu>} e^x."""
        return self.transport(self.pair.system.identity, mu)

    # -- evaluation and residues ------------------------------------------------

    def _matching_factors(self, alpha, tau: Scalar) -> list[tuple[Factor, int]]:
        """Factors (beta, c) vanishing on e^alpha = tau, i.e. beta = k alpha
        with c = tau^k; returns (factor, k) pairs."""
        alpha = tuple(int(a) for a in alpha)
        out = []
        for f in self.factors:
            beta = f[0]
            ratios = {Q(b, a) for a, b in zip(alpha, beta) if a != 0}
            if len(ratios) != 1:
                continue
            k = ratios.pop()
            if k.denominator != 1 or k <= 0:
                continue
            k = int(k)
            if beta != tuple(k * a for a in alpha):
                continue
            if _factor_value(f) == tau**k:
                out.append((f, k))
        return out

    def evaluate_at(self, alpha, tau) -> TorusFraction:
        """Substitute e^alpha = tau (alpha a primitive integer vector, tau a
        nonzero monomial scalar).  Raises PoleError if a denominator factor
        vanishes there."""
        tau = _divisor_value(tau)
        alpha = tuple(int(a) for a in alpha)
        if not any(alpha):
            raise ValueError("evaluation direction must be nonzero")
        if self._matching_factors(alpha, tau):
            raise PoleError(f"pole on the divisor e^{list(alpha)} = {tau}")
        prim, content, row = _beta_coordinate(alpha)
        if content != 1:
            raise ValueError("evaluation direction must be primitive")

        def coordinate(x) -> Rat:
            return _norm(sum(r * v for r, v in zip(row, x)))

        num = {}
        for x, c in self.num.items():
            k = coordinate(x)
            key = tuple(_norm(v - k * a) for v, a in zip(x, alpha))
            coeff = c * _scalar_frac_power(tau, k)
            num[key] = num[key] + coeff if key in num else coeff
        unit: dict[XKey, Scalar] = {_xkey((0,) * self.pair.rank): Scalar.one()}
        factors = []
        for f in self.factors:
            beta, c = f[0], _factor_value(f)
            k = coordinate(beta)
            assert k.denominator == 1
            new_beta = tuple(b - k * a for b, a in zip(beta, alpha))
            if not any(new_beta):
                value = tau**k - c  # nonzero: no matching factor
                unit = _num_scale(unit, value.inverse())
                continue
            unit = _num_scale(unit, tau ** -k)
            nf = _make_factor(new_beta, c * tau ** -k)
            nf, unit = _canonicalize_factor(nf, unit, self.pair.rank)
            factors.append(nf)
        return TorusFraction(self.pair, _num_mul(num, unit), tuple(factors))

    def pole_order(self, alpha, tau) -> int:
        tau = _divisor_value(tau)
        alpha = tuple(int(a) for a in alpha)
        if not any(alpha):
            raise ValueError("pole direction must be nonzero")
        return len(self._matching_factors(alpha, tau))

    def residue(self, alpha, tau) -> TorusFraction:
        """Residue along e^alpha = tau: the value of (e^alpha - tau) * self
        on the divisor.  Zero if there is no pole; PoleError if the pole
        has order > 1.

        alpha may have either orientation; tau must be a nonzero monomial.
        """
        tau = _divisor_value(tau)
        alpha = tuple(int(a) for a in alpha)
        first = next((a for a in alpha if a), None)
        if first is None:
            raise ValueError("residue direction must be nonzero")
        if first < 0:
            # e^alpha - tau = -tau e^alpha (e^{-alpha} - tau^{-1})
            flipped = self.residue(tuple(-a for a in alpha), tau.inverse())
            return flipped.scale(-(tau**2))
        matching = self._matching_factors(alpha, tau)
        if not matching:
            return TorusFraction.zero(self.pair)
        if len(matching) > 1:
            raise PoleError(
                f"pole of order {len(matching)} on e^{list(alpha)} = {tau}"
            )
        [(f, k)] = matching
        remaining = list(self.factors)
        remaining.remove(f)
        peeled = TorusFraction(self.pair, self.num, tuple(remaining), False)
        value = peeled.evaluate_at(alpha, tau)
        # e^{k alpha} - tau^k = (e^alpha - tau) * S with S -> k tau^{k-1}
        if k != 1:
            value = value.scale((Scalar.const(k) * tau ** (k - 1)).inverse())
        return value

    # -- display and JSON ------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.num:
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


# -- numerator-dict helpers -------------------------------------------------------


def _num_mul(a: dict, b: dict) -> dict:
    out: dict[XKey, Scalar] = {}
    for x, cx in a.items():
        for y, cy in b.items():
            key = tuple(p + r for p, r in zip(x, y))
            c = cx * cy
            if key in out:
                s = out[key] + c
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
    return out


def _num_scale(a: dict, c: Scalar) -> dict:
    return {x: v * c for x, v in a.items()}


def _factors_poly(factors, rank: int) -> dict:
    """Expand a factor multiset into a numerator dict."""
    out: dict[XKey, Scalar] = {_xkey((0,) * rank): Scalar.one()}
    for f in factors:
        beta, c = f[0], _factor_value(f)
        binom = {_xkey(beta): Scalar.one(), _xkey((0,) * rank): -c}
        out = _num_mul(out, binom)
    return out


def _canonicalize_factor(f: Factor, unit: dict, rank: int):
    """Flip e^beta - c so the first nonzero coordinate of beta is positive;
    1/(e^beta - c) = (-c^{-1} e^{-beta}) / (e^{-beta} - c^{-1})."""
    beta = f[0]
    first = next(v for v in beta if v)
    if first > 0:
        return f, unit
    c = _factor_value(f)
    flipped = _make_factor(tuple(-b for b in beta), c.inverse())
    mult = {_xkey(tuple(-b for b in beta)): -c.inverse()}
    return flipped, _num_mul(unit, mult)


def _beta_classes(num: dict, beta: tuple[int, ...]) -> list[list[tuple[int, XKey]]]:
    """Split the exponents of num into the classes x + Z beta; each member
    comes with its offset m >= 0 above the lowest member of its class."""
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


def _indivisible(classes: list, values: dict, c: int | None) -> bool:
    """True when e^beta - c provably does not divide the numerator: a class
    along beta has a single member, or a class polynomial P has P(c) != 0
    mod p.  values maps exponents to coefficient residues and c is the
    residue of the factor value, each None where undefined."""
    if any(len(items) == 1 for items in classes):
        return True
    if c is None:
        return False
    for items in classes:
        coeffs = [0] * (max(m for m, _ in items) + 1)
        for m, x in items:
            if values[x] is None:
                break
            coeffs[m] = values[x]
        else:
            remainder = 0
            for a in reversed(coeffs):
                remainder = (remainder * c + a) % _P
            if remainder:
                return True
    return False


def _divide_num(num: dict, f: Factor) -> dict | None:
    """Exact quotient num / (e^beta - c), or None."""
    beta, c = f[0], _factor_value(f)
    quotient: dict[XKey, Scalar] = {}
    for items in _beta_classes(num, beta):
        degree = max(m for m, _ in items)
        coeffs = [Scalar.zero()] * (degree + 1)
        base = None
        for m, x in items:
            coeffs[m] = coeffs[m] + num[x]
            if m == 0:
                base = x
        # synthetic division of sum coeffs[m] u^m by (u - c)
        qcoeffs = [Scalar.zero()] * degree
        carry = Scalar.zero()
        for m in range(degree, 0, -1):
            carry = coeffs[m] + carry * c if m < degree else coeffs[m]
            qcoeffs[m - 1] = carry
        remainder = coeffs[0] + (carry * c if degree > 0 else Scalar.zero())
        if degree == 0 or not remainder.is_zero():
            return None
        for m, qc in enumerate(qcoeffs):
            if qc.is_zero():
                continue
            # base is a stored key and m * b an int, so this is stored form
            key = tuple(v + m * b for v, b in zip(base, beta))
            quotient[key] = quotient.get(key, Scalar.zero()) + qc
    return {x: c for x, c in quotient.items() if not c.is_zero()}
