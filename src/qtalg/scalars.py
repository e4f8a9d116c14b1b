"""Exact coefficient arithmetic.

Three layers, all exact:

* ``LaurentPoly`` — sparse Laurent polynomials in the formal variables
  ``q`` (exponents in (1/n)Z for a per-value root index n), ``t`` and
  ``v`` (integer exponents), with rational coefficients.
* ``Scalar`` — the fraction field of ``LaurentPoly``, in lowest terms:
  numerator and denominator are divided by their exact gcd (GCDHEU) and
  normalized, so every value has one stored form and equality compares
  stored terms.
* ``QPower`` — the exact multiplicative group of torus coordinates
  zeta * q^a * m with zeta a root of unity (stored as its rotation
  number), a rational and m a positive rational magnitude.

The root index n of a value is implicit: exponents are exact rationals,
so mixed-index arithmetic promotes automatically.

Torus fractions (``torusfn``) and loop polynomials (``loopjordan``) store
many coefficients as LaurentPoly numerators over one shared denominator,
in one store, ``CommonDen``, at the end of this module.

Storage rule: a q-exponent or coefficient of a ``LaurentPoly`` is stored
as a Python ``int`` when it is integral and as a ``fractions.Fraction``
only when it is not, so the common integral case never pays for
``Fraction`` arithmetic.  Constructors, ``scale`` and ``shift`` normalize
with ``_norm``, and every quotient of stored values goes through ``_div``.
Sums and products are kept as Python computes them: ints stay ints, and a
``Fraction`` that happens to be integral (q^(1/2) * q^(1/2)) keeps its
type until a constructor or quotient normalizes it.  An ``int`` and a
``Fraction`` of equal value hash and compare equal, so the type never
splits a term.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, isqrt, lcm

from .errors import ScalarEmbeddingError, SpecializationError

Rat = int | Q  # int when integral, Fraction otherwise
Key = tuple[Rat, int, int]  # (q-exponent, t-exponent, v-exponent)

_ZERO_KEY: Key = (0, 0, 0)


def _as_q(x) -> Q:
    if isinstance(x, Q):
        return x
    if isinstance(x, int):
        return Q(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _norm(x) -> Rat:
    """x as stored: an int when integral, else a Fraction."""
    if x.__class__ is int:
        return x
    if isinstance(x, Q):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _div(a: Rat, b: Rat) -> Rat:
    """Exact quotient a / b as stored: an int when integral."""
    if a.__class__ is int and b.__class__ is int:
        return a // b if a % b == 0 else Q(a, b)
    return _norm(a / b)


def nth_root(x: Q, n: int) -> Q | None:
    """Exact n-th root of a rational, or None if there is none."""
    if n <= 0:
        raise ValueError("root index must be positive")
    if n == 1:
        return x
    if x == 0:
        return Q(0)
    if x < 0:
        if n % 2 == 0:
            return None
        r = nth_root(-x, n)
        return None if r is None else -r

    a, b = _iroot(x.numerator, n), _iroot(x.denominator, n)
    if a**n != x.numerator or b**n != x.denominator:
        return None
    return Q(a, b)


def _iroot(m: int, n: int) -> int:
    """Floor of the n-th root of m >= 0, by integer Newton steps (exact for
    integers of any size, unlike a float root)."""
    if n == 2:
        return isqrt(m)
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // n)  # a power of two at or above the root
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _pow_q(base: Q, exp: Q) -> Q:
    """base ** exp for rational exp, exactly; raises if no rational value."""
    if exp.denominator == 1:
        e = exp.numerator
        if base == 0 and e < 0:
            raise SpecializationError("zero base with negative exponent")
        return base**e
    root = nth_root(base, exp.denominator)
    if root is None:
        raise SpecializationError(
            f"{base} has no exact {exp.denominator}-th root for exponent {exp}"
        )
    return _pow_q(root, Q(exp.numerator))


def _poly(terms: dict[Key, Rat]) -> LaurentPoly:
    """The polynomial with the given stored terms, taken as they are."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = terms
    return out


def _add_terms(out: dict[Key, Rat], terms: dict[Key, Rat]) -> None:
    """out += terms, on term dicts, in place."""
    for k, c in terms.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]


def _mul_terms(out: dict[Key, Rat], a: dict[Key, Rat], b: dict[Key, Rat]) -> None:
    """out += a * b, on term dicts, in place."""
    bt = b.items()
    for (qa, ta, va), ca in a.items():
        for (qb, tb, vb), cb in bt:
            k = (qa + qb, ta + tb, va + vb)
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]


class LaurentPoly:
    """Sparse Laurent polynomial in q^{1/n}, t, v over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Rat] | None = None):
        clean: dict[Key, Rat] = {}
        if terms:
            for key, coeff in terms.items():
                coeff = _norm(coeff)
                if coeff:
                    qe, te, ve = key
                    clean[(_norm(qe), te, ve)] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def const(cls, c) -> LaurentPoly:
        return cls({_ZERO_KEY: c})

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls.const(1)

    @classmethod
    def monomial(cls, qexp=0, texp: int = 0, vexp: int = 0, coeff=1) -> LaurentPoly:
        return cls({(qexp, texp, vexp): coeff})

    @classmethod
    def q(cls, exp=1) -> LaurentPoly:
        return cls.monomial(qexp=exp)

    @classmethod
    def t(cls, exp: int = 1) -> LaurentPoly:
        return cls.monomial(texp=exp)

    @classmethod
    def v(cls, exp: int = 1) -> LaurentPoly:
        return cls.monomial(vexp=exp)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def as_monomial(self) -> tuple[Key, Rat]:
        if len(self.terms) != 1:
            raise ValueError("not a monomial")
        [(key, coeff)] = self.terms.items()
        return key, coeff

    def root_index(self) -> int:
        """Smallest n with all q-exponents in (1/n)Z."""
        n = 1
        for qe, _, _ in self.terms:
            n = lcm(n, qe.denominator)
        return n

    def leading(self) -> tuple[Key, Rat]:
        """Term with the largest (qexp, texp, vexp) in lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms)
        return key, self.terms[key]

    def min_exponents(self) -> Key:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        qs, ts, vs = zip(*self.terms)
        return min(qs), min(ts), min(vs)

    def rational_content(self) -> Rat:
        """Positive rational c with self/c integer-primitive, signed by the
        leading coefficient."""
        if not self.terms:
            raise ValueError("zero polynomial has no content")
        num = 0
        den = 1
        for coeff in self.terms.values():
            num = gcd(num, coeff.numerator)
            den = lcm(den, coeff.denominator)
        content = _div(num, den)
        return -content if self.leading()[1] < 0 else content

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self.terms)
        _add_terms(terms, other.terms)
        return _poly(terms)

    def __neg__(self) -> LaurentPoly:
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {key: -coeff for key, coeff in self.terms.items()}
        return out

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms: dict[Key, Rat] = {}
        _mul_terms(terms, self.terms, other.terms)
        return _poly(terms)

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial; use Scalar")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divide_exact(self, other: LaurentPoly) -> LaurentPoly | None:
        """Exact quotient self/other, or None when other does not divide.

        Long division peeling the lexicographically largest key.  In each
        of q, t and v the lowest and highest degree parts of a product are
        the products of those parts of the factors, so every key m of an
        exact quotient satisfies min_i(self) - min_i(other) <= m_i <=
        max_i(self) - max_i(other).  The scan aborts as soon as m leaves
        that box.  The popped key strictly decreases and lies on a fixed
        grid inside the box, so the loop ends without a step budget.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        if len(other.terms) == 1:
            ((kq, kt, kv), kc), = other.terms.items()
            out = LaurentPoly.__new__(LaurentPoly)
            out.terms = {
                (_norm(qe - kq), te - kt, ve - kv): _div(c, kc)
                for (qe, te, ve), c in self.terms.items()
            }
            return out
        lead = max(other.terms)
        lc = other.terms[lead]
        rest = [(key, c) for key, c in other.terms.items() if key != lead]
        qs, ts, vs = zip(*self.terms)
        qo, to, vo = zip(*other.terms)
        lq, lt, lv = min(qs) - min(qo), min(ts) - min(to), min(vs) - min(vo)
        hq, ht, hv = max(qs) - max(qo), max(ts) - max(to), max(vs) - max(vo)
        rem = dict(self.terms)
        quo: dict[Key, Rat] = {}
        while rem:
            top = max(rem)
            m = (_norm(top[0] - lead[0]), top[1] - lead[1], top[2] - lead[2])
            if not (lq <= m[0] <= hq and lt <= m[1] <= ht and lv <= m[2] <= hv):
                return None
            coeff = _div(rem.pop(top), lc)
            quo[m] = coeff
            for key, c in rest:
                kk = (m[0] + key[0], m[1] + key[1], m[2] + key[2])
                acc = rem.get(kk, 0) - coeff * c
                if acc:
                    rem[kk] = acc
                else:
                    rem.pop(kk, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = quo
        return out

    def scale(self, c) -> LaurentPoly:
        c = _norm(c)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {} if not c else {k: _norm(c * x) for k, x in self.terms.items()}
        return out

    def shift(self, dq=0, dt: int = 0, dv: int = 0) -> LaurentPoly:
        """Multiply by the monomial q^dq t^dt v^dv."""
        dq = _norm(dq)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {
            (_norm(qe + dq), te + dt, ve + dv): c
            for (qe, te, ve), c in self.terms.items()
        }
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable dict inside; not intended as a dict key

    # -- evaluation and display ------------------------------------------

    def specialize(self, q0, t0, v0) -> Q:
        q0, t0, v0 = _as_q(q0), _as_q(t0), _as_q(v0)
        total = Q(0)
        for (qe, te, ve), coeff in self.terms.items():
            if (t0 == 0 and te < 0) or (v0 == 0 and ve < 0):
                raise SpecializationError("negative exponent at a zero value")
            total += coeff * _pow_q(q0, qe) * t0**te * v0**ve
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"

        def fmt(key: Key, coeff: Rat) -> str:
            qe, te, ve = key
            parts = []
            for name, e in (("q", qe), ("t", Q(te)), ("v", Q(ve))):
                if e == 0:
                    continue
                if e == 1:
                    parts.append(name)
                else:
                    parts.append(f"{name}^{e}")
            if not parts:
                return str(coeff)
            body = "*".join(parts)
            if coeff == 1:
                return body
            if coeff == -1:
                return f"-{body}"
            return f"{coeff}*{body}"

        chunks = [fmt(k, self.terms[k]) for k in sorted(self.terms, reverse=True)]
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")

    __repr__ = __str__

    # -- JSON -------------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {
                "qexp": str(qe),
                "texp": te,
                "vexp": ve,
                "coeff": str(self.terms[(qe, te, ve)]),
            }
            for (qe, te, ve) in sorted(self.terms)
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> LaurentPoly:
        return cls(
            {
                (Q(item["qexp"]), int(item["texp"]), int(item["vexp"])): Q(
                    item["coeff"]
                )
                for item in data
            }
        )


def _strip_common(
    num: LaurentPoly, den: LaurentPoly
) -> tuple[LaurentPoly, LaurentPoly]:
    """Remove common monomial content and make den integer-primitive."""
    nq, nt, nv = num.min_exponents()
    dq, dt, dv = den.min_exponents()
    mq, mt, mv = min(nq, dq), min(nt, dt), min(nv, dv)
    if (mq, mt, mv) != _ZERO_KEY:
        num = num.shift(-mq, -mt, -mv)
        den = den.shift(-mq, -mt, -mv)
    content = den.rational_content()
    if content != 1:
        inv = _div(1, content)
        num, den = num.scale(inv), den.scale(inv)
    return num, den


def _int_poly(poly: LaurentPoly, grid: int) -> tuple[LaurentPoly, int, Key]:
    """(poly over its monomial content m, with every q-exponent multiplied by
    grid and every coefficient by s; s; m): s is the lcm of the coefficient
    denominators, and every stored value is an int.  ``int()`` matters: a
    Fraction with denominator 1 can reach here, and an int raised to a
    Fraction power is a float."""
    s = lcm(1, *(c.denominator for c in poly.terms.values()))
    mono = mq, mt, mv = poly.min_exponents()
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = {
        (int((qe - mq) * grid), te - mt, ve - mv): int(c * s)
        for (qe, te, ve), c in poly.terms.items()
    }
    return out, s, mono


def _off_grid(f: LaurentPoly, grid: int, s: int, mono: Key) -> LaurentPoly:
    """The inverse of ``_int_poly``: f * m / s with q-exponents off the grid."""
    mq, mt, mv = mono
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = {
        (_norm(_div(qe, grid) + mq), te + mt, ve + mv): _div(c, s)
        for (qe, te, ve), c in f.terms.items()
    }
    return out


def _primitive(f: LaurentPoly) -> tuple[LaurentPoly, int]:
    """(f over its integer content and its monomial content, the integer
    content) for a nonzero integer polynomial."""
    content = gcd(*f.terms.values())
    mono = mq, mt, mv = f.min_exponents()
    if content == 1 and mono == _ZERO_KEY:
        return f, 1
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = {
        (qe - mq, te - mt, ve - mv): c // content
        for (qe, te, ve), c in f.terms.items()
    }
    return out, content


def _powers(xi: int, n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * xi)
    return out


def _evaluate(f: LaurentPoly, ax: int, xi: int) -> LaurentPoly:
    """f with the variable on axis ax set to the integer xi."""
    pw = _powers(xi, max(k[ax] for k in f.terms))
    terms: dict[Key, int] = {}
    for key, c in f.terms.items():
        k = key[:ax] + (0,) + key[ax + 1 :]
        terms[k] = terms.get(k, 0) + c * pw[key[ax]]
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = {k: c for k, c in terms.items() if c}
    return out


def _interpolate(h: LaurentPoly, ax: int, xi: int) -> LaurentPoly:
    """The polynomial in axis ax whose coefficients are the symmetric
    xi-adic digits of h's coefficients (h free of that axis)."""
    half = xi // 2
    terms: dict[Key, int] = {}
    for key, c in h.terms.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                terms[key[:ax] + (e,) + key[ax + 1 :]] = d
            c = (c - d) // xi
            e += 1
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = terms
    return out


def _gcd(
    f: LaurentPoly, g: LaurentPoly
) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """(h, f / h, g / h), up to monomials, for h the gcd over the integers
    of integer polynomials with nonnegative exponents, not both zero.

    GCDHEU (Char, Geddes & Gonnet 1989): substitute an integer xi for the
    first variable either side has, take the gcd of the images by recursion
    (an integer gcd once no variable is left), rebuild a polynomial from
    the symmetric xi-adic digits of its coefficients and accept its
    primitive part if it divides both sides.  With xi >= 2 * min(|f|, |g|)
    + 2 (largest coefficient sizes) an accepted candidate is the gcd.  A
    candidate has no monomial content, so ``divide_exact``, which divides
    Laurent polynomials, tests divisibility of polynomials: the side with
    the smaller coefficients has a term free of the substituted variable
    and coefficients below xi, so xi divides neither every coefficient of
    its image nor every coefficient of the images' gcd, and the recursion
    returns gcds free of monomials in the other variables.  A candidate is
    rejected only while xi is below twice the gcd's coefficients or the
    images share more than the image of the gcd: a nonconstant factor for
    finitely many xi, otherwise an integer bounded independently of xi,
    which the digits separate once xi is large enough.  So growing xi ends
    the loop; there is no try budget.
    """
    if not f.terms or not g.terms:  # gcd(p, 0) = p
        p, c = _primitive(f if f.terms else g)
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return (p.scale(c), one, zero) if f.terms else (p.scale(c), zero, one)
    f, cf = _primitive(f)
    g, cg = _primitive(g)
    content = gcd(cf, cg)
    h, a, b = LaurentPoly.one(), f, g
    if len(f.terms) > 1 and len(g.terms) > 1:
        ax = next(i for i, d in enumerate(map(max, zip(*f.terms, *g.terms))) if d)
        xi = 2 * min(max(map(abs, p.terms.values())) for p in (f, g)) + 2
        while True:
            h = _gcd(_evaluate(f, ax, xi), _evaluate(g, ax, xi))[0]
            h = _primitive(_interpolate(h, ax, xi))[0]
            a = f.divide_exact(h)
            b = None if a is None else g.divide_exact(h)
            if b is not None:
                break
            xi = xi * 73794 // 27011  # CGG's growth factor, about e
    return h.scale(content), a.scale(cf // content), b.scale(cg // content)


def _cancel_common(
    p: LaurentPoly, r: LaurentPoly
) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly] | None:
    """(h, p / h, r / h) for h the gcd of p and r, or None when they have no
    common factor but monomials.  h has no monomial content and both
    quotients are exact: p == h * (p / h) and r == h * (r / h)."""
    if len(p.terms) < 2 or len(r.terms) < 2:
        return None
    grid = lcm(p.root_index(), r.root_index())
    (f, sf, mf), (g, sg, mg) = _int_poly(p, grid), _int_poly(r, grid)
    h, a, b = _gcd(f, g)
    if len(h.terms) == 1:
        return None
    return (
        _off_grid(h, grid, 1, _ZERO_KEY),
        _off_grid(a, grid, sf, mf),
        _off_grid(b, grid, sg, mg),
    )


class Scalar:
    """Element of the fraction field of LaurentPoly.

    Canonical form: num and den are coprime (their gcd is taken exactly,
    ``_gcd``); den is integer-primitive with positive leading coefficient;
    the pair carries no common monomial content (the componentwise minimum
    exponent over both supports is zero).  Every value therefore has one
    stored form, polynomial scalars have den = 1, and equality compares
    stored terms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        if num.is_zero():
            self.num = _poly({})
            self.den = _poly({_ZERO_KEY: 1})
            return
        num, den = _strip_common(num, den)
        cancelled = _cancel_common(num, den)
        if cancelled is not None:
            num, den = _strip_common(*cancelled[1:])
        self.num = num
        self.den = den

    @classmethod
    def _from_coprime(cls, num: LaurentPoly, den: LaurentPoly) -> Scalar:
        """num/den for a pair with no common nonmonomial factor, which
        needs no gcd: only monomial content and scale are normalized."""
        if num.is_zero():
            return cls.zero()
        out = cls.__new__(cls)
        out.num, out.den = _strip_common(num, den)
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> Scalar:
        """0 over 1, built in stored form."""
        out = cls.__new__(cls)
        out.num = _poly({})
        out.den = _poly({_ZERO_KEY: 1})
        return out

    @classmethod
    def one(cls) -> Scalar:
        return cls.monomial()

    @classmethod
    def const(cls, c) -> Scalar:
        return cls.monomial(coeff=c)

    @classmethod
    def q(cls, exp=1) -> Scalar:
        return cls.monomial(qexp=exp)

    @classmethod
    def t(cls, exp: int = 1) -> Scalar:
        return cls.monomial(texp=exp)

    @classmethod
    def v(cls, exp: int = 1) -> Scalar:
        return cls.monomial(vexp=exp)

    @classmethod
    def monomial(cls, qexp=0, texp: int = 0, vexp: int = 0, coeff=1) -> Scalar:
        """coeff q^qexp t^texp v^vexp, built in stored form: the positive
        exponents over the negative ones, with the coefficient on top."""
        coeff = _norm(coeff)
        if not coeff:
            return cls.zero()
        qexp = _norm(qexp)
        out = cls.__new__(cls)
        out.num = LaurentPoly.__new__(LaurentPoly)
        out.num.terms = {(max(qexp, 0), max(texp, 0), max(vexp, 0)): coeff}
        out.den = LaurentPoly.__new__(LaurentPoly)
        out.den.terms = {(max(-qexp, 0), max(-texp, 0), max(-vexp, 0)): 1}
        return out

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def is_monomial(self) -> bool:
        return self.num.is_monomial() and self.den.is_monomial()

    def as_monomial(self) -> tuple[Key, Q]:
        """Exponents and coefficient of a monomial scalar (num and den both
        single terms)."""
        (nk, nc) = self.num.as_monomial()
        (dk, dc) = self.den.as_monomial()
        return (_norm(nk[0] - dk[0]), nk[1] - dk[1], nk[2] - dk[2]), Q(nc, dc)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        # Henrici: a/b + c/d = (a d' + c b') / (b d') with b = g b', d = g d'
        # for g = gcd(b, d); when g is 1, that is in lowest terms.
        split = _cancel_common(self.den, other.den)
        if split is None:
            return Scalar._from_coprime(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        _, b, d = split
        return Scalar(self.num * d + other.num * b, self.den * d)

    def __neg__(self) -> Scalar:
        out = Scalar.__new__(Scalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __mul__(self, other: Scalar) -> Scalar:
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.num == other.den:
            return Scalar(other.num, self.den)
        if other.num == self.den:
            return Scalar(self.num, other.den)
        # Henrici: with a/b and c/d in lowest terms, (a/gcd(a, d)) (c/gcd(c, b))
        # over (b/gcd(c, b)) (d/gcd(a, d)) is in lowest terms.
        _, a, d = _cancel_common(self.num, other.den) or (None, self.num, other.den)
        _, c, b = _cancel_common(other.num, self.den) or (None, other.num, self.den)
        return Scalar._from_coprime(a * c, b * d)

    def __truediv__(self, other: Scalar) -> Scalar:
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return self * other.inverse()

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar._from_coprime(self.den, self.num)

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.inverse() ** (-n)
        return Scalar._from_coprime(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    __hash__ = None

    # -- evaluation and display ----------------------------------------------

    def specialize(self, q0, t0, v0) -> Q:
        """Exact evaluation.  q0 must be a rational that is not a root of
        unity (so q0 not in {1, -1}) and not 0; the denominator must not
        vanish at the point."""
        q0 = _as_q(q0)
        if q0 in (Q(1), Q(-1)):
            raise SpecializationError("q must not specialize to a root of unity")
        if q0 == 0:
            raise SpecializationError("q must specialize to an invertible value")
        den = self.den.specialize(q0, t0, v0)
        if den == 0:
            raise SpecializationError("pole at the specialization point")
        return self.num.specialize(q0, t0, v0) / den

    def __str__(self) -> str:
        if self.den == LaurentPoly.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__

    # -- JSON ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> Scalar:
        return cls(
            LaurentPoly.from_json(data["num"]), LaurentPoly.from_json(data["den"])
        )


def _as_scalar(c) -> Scalar:
    return c if isinstance(c, Scalar) else Scalar.const(c)


# -- numerators over one shared scalar denominator ----------------------------

_ONE = LaurentPoly.one()  # shared; nothing here changes a stored polynomial


def _times_monomial(p: LaurentPoly, key, coeff) -> LaurentPoly:
    """p * coeff q^qe t^te v^ve for key = (qe, te, ve)."""
    dq, dt, dv = key
    coeff = _norm(coeff)
    return _poly(
        {(qe + dq, te + dt, ve + dv): c * coeff for (qe, te, ve), c in p.terms.items()}
    )


def _add_into(acc: dict, x, terms: dict) -> None:
    """acc[x] += the polynomial with the given terms, on fresh term dicts."""
    out = acc.get(x)
    if out is None:
        acc[x] = dict(terms)
    else:
        _add_terms(out, terms)


def _common_den(dens) -> tuple[LaurentPoly, list[LaurentPoly]]:
    """(l, cofactors) for scalar denominators dens: l is a least common
    multiple of them up to units, and cofactors[i] * dens[i] == l exactly.
    A cofactor of 1 is ``_ONE`` itself.

    l grows one denominator d at a time.  A d equal to l keeps it, and so
    does a monomial, a unit, whose cofactor is l times its inverse.
    Otherwise, with h = gcd(l, d), l becomes l * (d/h), the cofactors so far
    gain the factor d/h and d's own is l/h: both quotients come out of the
    gcd split, so no cofactor is found by division."""
    den, cofactors = _ONE, []
    for d in dens:
        if d is den or d.terms == den.terms:
            cofactors.append(_ONE)
        elif len(d.terms) == 1:
            ((dq, dt, dv), dc), = d.terms.items()
            cofactors.append(_times_monomial(den, (-dq, -dt, -dv), _div(1, dc)))
        else:
            split = None if den is _ONE else _cancel_common(den, d)
            den_part, d_part = (den, d) if split is None else split[1:]
            cofactors = [d_part if f is _ONE else f * d_part for f in cofactors]
            cofactors.append(den_part)
            den = d if den is _ONE else den * d_part
    return den, cofactors


def _unit_normal(num: dict, den: LaurentPoly) -> tuple[dict, LaurentPoly]:
    """(num, den) over the unit part of den, which leaves den
    integer-primitive with a positive leading coefficient and no monomial
    content."""
    mq, mt, mv = den.min_exponents()
    content = den.rational_content()
    if (mq, mt, mv) == _ZERO_KEY and content == 1:
        return num, den
    unit_key, unit = (-mq, -mt, -mv), _div(1, content)
    den = den.shift(*unit_key).scale(unit)  # both store ints where integral
    return {x: _times_monomial(p, unit_key, unit) for x, p in num.items()}, den


def _lowest_terms(num: dict, den: LaurentPoly) -> tuple[dict, LaurentPoly]:
    """(num, den) over gcd(den, every numerator) and over the unit part of
    den; num maps keys to nonzero numerators.

    One gcd chain: h starts at den and becomes gcd(h, p) only for a
    numerator p that h does not divide, and the chain stops as soon as h is
    a monomial.  Numerators are taken smallest first, where a gcd is
    cheapest; the quotients by h are kept, and rescaled when h shrinks."""
    if not num:
        return {}, _ONE
    if len(den.terms) > 1:
        h, rest, quotients = den, _ONE, {}
        for x, p in sorted(num.items(), key=lambda item: len(item[1].terms)):
            quo = p.divide_exact(h) if quotients else None
            if quo is None:
                split = _cancel_common(h, p)
                if split is None:
                    break
                h, cofactor, quo = split
                rest = rest * cofactor
                quotients = {y: r * cofactor for y, r in quotients.items()}
            quotients[x] = quo
        else:
            num, den = quotients, rest
    return _unit_normal(num, den)


class CommonDen:
    """Scalar coefficients, by key, stored as LaurentPoly numerators over
    one scalar denominator: the store of torus fractions (``torusfn``) and
    loop polynomials (``loopjordan``).

    ``polys`` maps keys to nonzero numerators and ``den`` is one polynomial
    for all of them: den is integer-primitive, has a positive leading
    coefficient and no monomial content, and gcd(den, every numerator) is a
    monomial.  Monomials are units, so this is the lowest-terms form of a
    common-denominator fraction (Geddes, Czapor & Labahn, *Algorithms for
    Computer Algebra*, 1992), each value has one stored form, and it costs
    one gcd chain per value where a lowest-terms scalar per coefficient
    would cost a gcd per coefficient.

    Built from scalars, the store needs no gcd chain: each prime power of
    the lcm of lowest-terms denominators is carried whole by the
    denominator of one coefficient, whose numerator is coprime to it, so
    only the unit part of the lcm is normalized.  Negation and scaling by a
    monomial keep den.  Subclasses supply ``_with(polys, den)``, which
    builds a value of their own kind from parts in stored form, and their
    own sums and products.  Values never change after construction.
    """

    __slots__ = ("polys", "den")

    def __init__(self, coeffs: dict | None = None):
        """coeffs maps keys to scalars; zeros are dropped."""
        items = [(x, c) for x, c in (coeffs or {}).items() if not c.is_zero()]
        den, cofactors = _common_den([c.den for _, c in items])
        polys = {
            x: c.num if f is _ONE else c.num * f for (x, c), f in zip(items, cofactors)
        }
        self.polys, self.den = _unit_normal(polys, den) if polys else ({}, _ONE)

    def _scalar(self, p: LaurentPoly) -> Scalar:
        """p / den as a lowest-terms Scalar; a monomial over 1 is built
        directly in stored form."""
        if len(p.terms) == 1 and len(self.den.terms) == 1:
            ((key, c),) = p.terms.items()
            return Scalar.monomial(*key, coeff=c)
        return Scalar(p, self.den)

    @property
    def coeffs(self) -> dict:
        """Key -> lowest-terms scalar coefficient (a fresh dict: changing it
        does not change the value)."""
        return {x: self._scalar(p) for x, p in self.polys.items()}

    def is_zero(self) -> bool:
        return not self.polys

    def __neg__(self):
        return self._with({x: -p for x, p in self.polys.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _as_scalar(c)
        if c.is_zero():
            return self._with({}, _ONE)
        return self._times(c.num, c.den)

    def _times(self, num: LaurentPoly, den: LaurentPoly):
        """self * num/den for a nonzero num coprime to den."""
        if len(num.terms) == 1 and len(den.terms) == 1:
            # a unit: the denominator stays and nothing cancels
            ((nk, nc),) = num.terms.items()
            ((dk, dc),) = den.terms.items()
            key = (nk[0] - dk[0], nk[1] - dk[1], nk[2] - dk[2])
            coeff = _div(nc, dc)
            polys = {x: _times_monomial(p, key, coeff) for x, p in self.polys.items()}
            return self._with(polys, self.den)
        polys = {x: p * num for x, p in self.polys.items()}
        return self._with(*_lowest_terms(polys, self.den * den))


class QPower:
    """Exact torus coordinate zeta * q^qexp * mag.

    zeta = exp(2*pi*i*rot) is a root of unity with rot a rational in
    [0, 1); mag is a positive rational.  Because q is not a root of
    unity, two coordinates are equal iff all three fields agree, and the
    q-direction is torsion-free.
    """

    __slots__ = ("rot", "qexp", "mag")

    def __init__(self, rot=0, qexp=0, mag=1):
        rot, qexp, mag = _as_q(rot), _as_q(qexp), _as_q(mag)
        if mag <= 0:
            raise ValueError("magnitude must be positive")
        self.rot = rot % 1
        self.qexp = qexp
        self.mag = mag

    @classmethod
    def one(cls) -> QPower:
        return cls()

    @classmethod
    def q(cls, exp=1) -> QPower:
        return cls(qexp=exp)

    @classmethod
    def of(cls, c) -> QPower:
        """Embed a nonzero rational."""
        c = _as_q(c)
        if c == 0:
            raise ValueError("torus coordinates are nonzero")
        return cls(rot=Q(0) if c > 0 else Q(1, 2), mag=abs(c))

    def is_one(self) -> bool:
        return self.rot == 0 and self.qexp == 0 and self.mag == 1

    def __mul__(self, other: QPower) -> QPower:
        if not isinstance(other, QPower):
            return NotImplemented
        return QPower(self.rot + other.rot, self.qexp + other.qexp, self.mag * other.mag)

    def __truediv__(self, other: QPower) -> QPower:
        if not isinstance(other, QPower):
            return NotImplemented
        return QPower(self.rot - other.rot, self.qexp - other.qexp, self.mag / other.mag)

    def inverse(self) -> QPower:
        return QPower(-self.rot, -self.qexp, 1 / self.mag)

    def __pow__(self, n: int) -> QPower:
        if not isinstance(n, int):
            raise TypeError("torus coordinates take integer powers only")
        return QPower(n * self.rot, n * self.qexp, self.mag**n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPower):
            return NotImplemented
        return (self.rot, self.qexp, self.mag) == (other.rot, other.qexp, other.mag)

    def __hash__(self) -> int:
        return hash((self.rot, self.qexp, self.mag))

    def plain_q_exponent(self) -> Q | None:
        """If the value is a pure power q^a, return a; else None."""
        if self.rot == 0 and self.mag == 1:
            return self.qexp
        return None

    def integral_q_exponent(self) -> int | None:
        """If the value is q^k with k an integer, return k; else None."""
        a = self.plain_q_exponent()
        if a is not None and a.denominator == 1:
            return a.numerator
        return None

    def as_scalar(self) -> Scalar:
        """Embed into the scalar field; only rotations 0 and 1/2 embed."""
        if self.rot == 0:
            return Scalar.monomial(qexp=self.qexp, coeff=self.mag)
        if self.rot == Q(1, 2):
            return Scalar.monomial(qexp=self.qexp, coeff=-self.mag)
        raise ScalarEmbeddingError(
            f"root of unity exp(2*pi*i*{self.rot}) does not embed in Q(q,t,v)"
        )

    def specialize(self, q0) -> Q:
        q0 = _as_q(q0)
        if self.rot == 0:
            sign = Q(1)
        elif self.rot == Q(1, 2):
            sign = Q(-1)
        else:
            raise SpecializationError("non-real root of unity")
        return sign * self.mag * _pow_q(q0, self.qexp)

    def __str__(self) -> str:
        parts = []
        if self.rot == Q(1, 2):
            parts.append("-")
        elif self.rot != 0:
            parts.append(f"zeta({self.rot})*")
        if self.mag != 1:
            parts.append(f"{self.mag}")
            if self.qexp != 0:
                parts.append("*")
        if self.qexp == 1:
            parts.append("q")
        elif self.qexp != 0:
            parts.append(f"q^{self.qexp}")
        if self.mag == 1 and self.qexp == 0:
            parts.append("1")
        return "".join(parts)

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"rot": str(self.rot), "qexp": str(self.qexp), "mag": str(self.mag)}

    @classmethod
    def from_json(cls, data: dict) -> QPower:
        return cls(Q(data["rot"]), Q(data["qexp"]), Q(data["mag"]))
