"""Torus fractions and loop polynomials with one lowest-terms Scalar per
coefficient.

A test oracle for :mod:`qtalg.torusfn` and for ``ZPoly`` in
:mod:`qtalg.loopjordan`, which store polynomial numerators over one scalar
denominator: this is the earlier store, where every coefficient was a
canonical :class:`~qtalg.scalars.Scalar` and every coefficient product and
sum took its own gcd.

A fraction here is a pair (num, factors): num maps exponents to nonzero
Scalars and factors is the sorted tuple of denominator binomials, in the
factor format of torusfn.  Binomial reduction is the reference loop, an
exact trial division for every distinct factor of every pass.

``ZPoly`` is the earlier loop polynomial, a dict degree -> nonzero Scalar,
and ``loop_inverse`` the earlier matrix-loop inverse over it.
"""

from collections import Counter

from handwritten import scalar_frac_power
from qtalg.errors import PoleError
from qtalg.linalg import fraction_free
from qtalg.scalars import Scalar, _as_scalar, _div, _norm
from qtalg.torusfn import _beta_coordinate, _factor_value, _make_factor, _xkey


def num_mul(a: dict, b: dict) -> dict:
    out = {}
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


def num_scale(a: dict, c: Scalar) -> dict:
    return {x: v * c for x, v in a.items()}


def binomial(f, rank: int) -> dict:
    """The numerator e^beta - c of a factor."""
    return {_xkey(f[0]): Scalar.one(), _xkey((0,) * rank): -_factor_value(f)}


def factors_poly(factors, rank: int) -> dict:
    out = {_xkey((0,) * rank): Scalar.one()}
    for f in factors:
        out = num_mul(out, binomial(f, rank))
    return out


def canonicalize_factor(f, unit: dict):
    beta = f[0]
    if next(v for v in beta if v) > 0:
        return f, unit
    c = _factor_value(f)
    neg = tuple(-b for b in beta)
    return _make_factor(neg, c.inverse()), num_mul(unit, {_xkey(neg): -c.inverse()})


def beta_classes(num: dict, beta) -> list:
    _, content, row = _beta_coordinate(beta)
    classes = {}
    for x in num:
        k = _div(sum(r * v for r, v in zip(row, x)), content)
        rest = tuple(_norm(v - k * b) for v, b in zip(x, beta))
        classes.setdefault((k % 1,) + rest, []).append((k, x))
    out = []
    for items in classes.values():
        kmin = min(k for k, _ in items)
        out.append([(int(k - kmin), x) for k, x in items])
    return out


def divide_num(num: dict, f) -> dict | None:
    """Exact quotient num / (e^beta - c) by synthetic division on Scalars."""
    beta, c = f[0], _factor_value(f)
    quotient = {}
    for items in beta_classes(num, beta):
        degree = max(m for m, _ in items)
        coeffs = [Scalar.zero()] * (degree + 1)
        base = None
        for m, x in items:
            coeffs[m] = coeffs[m] + num[x]
            if m == 0:
                base = x
        qcoeffs = [Scalar.zero()] * degree
        carry = Scalar.zero()
        for m in range(degree, 0, -1):
            carry = coeffs[m] + carry * c if m < degree else coeffs[m]
            qcoeffs[m - 1] = carry
        remainder = coeffs[0] + (carry * c if degree > 0 else Scalar.zero())
        if degree == 0 or not remainder.is_zero():
            return None
        for m, qc in enumerate(qcoeffs):
            if not qc.is_zero():
                key = tuple(v + m * b for v, b in zip(base, beta))
                quotient[key] = quotient.get(key, Scalar.zero()) + qc
    return {x: c for x, c in quotient.items() if not c.is_zero()}


def reduce(num: dict, factors) -> tuple[dict, tuple]:
    factors = list(factors)
    changed = True
    while changed and num and factors:
        changed = False
        for f in sorted(set(factors)):
            quotient = divide_num(num, f)
            if quotient is not None:
                num = quotient
                factors.remove(f)
                changed = True
                break
    if not num:
        factors = []
    return num, tuple(sorted(factors))


def build(num: dict, factors=(), reducing: bool = True) -> tuple[dict, tuple]:
    """The stored form of num / factors, as the old constructor made it."""
    clean = {}
    for x, c in num.items():
        if not c.is_zero():
            clean[_xkey(x)] = c
    factors = tuple(sorted(factors)) if clean else ()
    return reduce(clean, factors) if reducing else (clean, factors)


def product(a, b, reducing: bool = True):
    return build(num_mul(a[0], b[0]), a[1] + b[1], reducing)


def fsum(rank: int, parts):
    parts = [p for p in parts if p[0]]
    owned = [Counter(p[1]) for p in parts]
    lcm_factors = Counter()
    for counts in owned:
        lcm_factors |= counts
    num = {}
    for (terms, _), counts in zip(parts, owned):
        missing = lcm_factors - counts
        if missing:
            terms = num_mul(terms, factors_poly(missing.elements(), rank))
        for x, c in terms.items():
            num[x] = num[x] + c if x in num else c
    return build(num, tuple(lcm_factors.elements()))


def scale(a, c: Scalar):
    return build({x: c * v for x, v in a[0].items()}, a[1], False)


def substitute(rank: int, a, mat, phi):
    """e^x -> q^{phi.x} e^{M x}, for M invertible, without a reduction."""
    n = rank

    def apply_mat(x):
        return tuple(_norm(sum(mat[i][k] * x[k] for k in range(n))) for i in range(n))

    def qform(x):
        return _norm(sum(p * v for p, v in zip(phi, x)))

    num = {}
    for x, c in a[0].items():
        key = apply_mat(x)
        e = qform(x)
        coeff = c * Scalar.q(e) if e else c
        num[key] = num[key] + coeff if key in num else coeff
    unit = {_xkey((0,) * n): Scalar.one()}
    factors = []
    for f in a[1]:
        c = _factor_value(f)
        shift = qform(f[0])
        if shift:
            unit = num_scale(unit, Scalar.q(-shift))
            c = c * Scalar.q(-shift)
        nf, unit = canonicalize_factor(_make_factor(apply_mat(f[0]), c), unit)
        factors.append(nf)
    return build(num_mul(num, unit), factors, False)


def transport(pair, a, w, mu):
    n = pair.rank
    mat = pair.x_matrix(w)
    phi_mu = [2 * sum(pair.pairing[i][j] * mu[j] for j in range(n)) for i in range(n)]
    phi = tuple(sum(mat[i][k] * phi_mu[i] for i in range(n)) for k in range(n))
    return substitute(n, a, mat, phi)


def matching_factors(a, alpha, tau: Scalar) -> list:
    out = []
    for f in a[1]:
        ratios = {_div(b, x) for x, b in zip(alpha, f[0]) if x != 0}
        if len(ratios) != 1:
            continue
        k = ratios.pop()
        if k.denominator != 1 or k <= 0 or f[0] != tuple(k * x for x in alpha):
            continue
        if _factor_value(f) == tau**k:
            out.append((f, k))
    return out


def evaluate_at(rank: int, a, alpha, tau: Scalar):
    if matching_factors(a, alpha, tau):
        raise PoleError("pole on the divisor")
    _, _, row = _beta_coordinate(alpha)

    def coordinate(x):
        return _norm(sum(r * v for r, v in zip(row, x)))

    num = {}
    for x, c in a[0].items():
        k = coordinate(x)
        key = tuple(_norm(v - k * b) for v, b in zip(x, alpha))
        coeff = c * scalar_frac_power(tau, k)
        num[key] = num[key] + coeff if key in num else coeff
    unit = {_xkey((0,) * rank): Scalar.one()}
    factors = []
    for f in a[1]:
        c = _factor_value(f)
        k = coordinate(f[0])
        new_beta = tuple(b - k * x for b, x in zip(f[0], alpha))
        if not any(new_beta):
            unit = num_scale(unit, (tau**k - c).inverse())
            continue
        unit = num_scale(unit, tau**-k)
        nf, unit = canonicalize_factor(_make_factor(new_beta, c * tau**-k), unit)
        factors.append(nf)
    return build(num_mul(num, unit), factors)


def residue(rank: int, a, alpha, tau: Scalar):
    if next(x for x in alpha if x) < 0:
        flipped = residue(rank, a, tuple(-x for x in alpha), tau.inverse())
        return scale(flipped, -(tau**2))
    matching = matching_factors(a, alpha, tau)
    if not matching:
        return {}, ()
    if len(matching) > 1:
        raise PoleError("pole of order > 1")
    [(f, k)] = matching
    remaining = list(a[1])
    remaining.remove(f)
    value = evaluate_at(rank, (a[0], tuple(remaining)), alpha, tau)
    if k != 1:
        value = scale(value, (Scalar.const(k) * tau ** (k - 1)).inverse())
    return value


# -- loop polynomials ---------------------------------------------------------------


class ZPoly:
    """Laurent polynomial in z, stored as degree -> nonzero Scalar."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(m): c for m, c in (coeffs or {}).items() if not c.is_zero()}

    @classmethod
    def one(cls):
        return cls({0: Scalar.one()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            acc = out.get(m, Scalar.zero()) + c
            if acc.is_zero():
                out.pop(m, None)
            else:
                out[m] = acc
        return ZPoly(out)

    def __neg__(self):
        return ZPoly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = m1 + m2
                acc = out.get(m, Scalar.zero()) + c1 * c2
                if acc.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = acc
        return ZPoly(out)

    def __floordiv__(self, other):
        if other.is_monomial():
            ((m, c),) = other.coeffs.items()
            return self.scale(c.inverse()).shift_z(-m)
        top = max(other.coeffs)
        low = min(self.coeffs, default=0) - min(other.coeffs)
        rem, quot = self, ZPoly()
        while rem.coeffs:
            e = max(rem.coeffs) - top
            if e < low:
                raise ValueError("does not divide")
            term = ZPoly({e: rem.coeffs[e + top] / other.coeffs[top]})
            quot, rem = quot + term, rem - term * other
        return quot

    def scale(self, c):
        c = _as_scalar(c)
        return ZPoly({m: x * c for m, x in self.coeffs.items()})

    def shift_z(self, k: int):
        return ZPoly({m + k: c for m, c in self.coeffs.items()})

    def at_qz(self):
        return ZPoly({m: c * Scalar.q(m) for m, c in self.coeffs.items()})

    def eval_z1(self) -> Scalar:
        total = Scalar.zero()
        for c in self.coeffs.values():
            total = total + c
        return total

    def to_json(self) -> dict:
        return {str(m): self.coeffs[m].to_json() for m in sorted(self.coeffs)}


def loop_inverse(rows) -> list[list[ZPoly]]:
    """The inverse of a square matrix of ZPoly from one fraction-free
    elimination of [g | 1]; the determinant must be a z-monomial."""
    n = len(rows)
    one = [[ZPoly.one() if i == j else ZPoly() for j in range(n)] for i in range(n)]
    m, pivots, _ = fraction_free([list(row) + one[i] for i, row in enumerate(rows)], ZPoly.is_zero)
    d = m[-1][n - 1] if m else ZPoly.one()
    if pivots != list(range(n)) or not d.is_monomial():
        raise ValueError("loop is not invertible")
    ((e, c),) = d.coeffs.items()
    cinv = c.inverse()
    return [[x.scale(cinv).shift_z(-e) for x in row[n:]] for row in m]
