"""Exact coefficient arithmetic.

Three layers, all exact:

* ``LaurentPoly`` — sparse Laurent polynomials in the formal variables
  ``q`` (exponents in (1/n)Z for a per-value root index n), ``t`` and
  ``v`` (integer exponents), with rational coefficients.
* ``Scalar`` — the fraction field of ``LaurentPoly``.  Representations
  are reduced by monomial content and by exact division when one side
  divides the other (no full multivariate gcd); equality is decided by
  cross-multiplication.
* ``QPower`` — the exact multiplicative group of torus coordinates
  zeta * q^a * m with zeta a root of unity (stored as its rotation
  number), a rational and m a positive rational magnitude.

The root index n of a value is implicit: exponents are exact rationals,
so mixed-index arithmetic promotes automatically.

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
        keys = list(self.terms)
        return (
            min(k[0] for k in keys),
            min(k[1] for k in keys),
            min(k[2] for k in keys),
        )

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
        for key, coeff in other.terms.items():
            acc = terms.get(key, 0) + coeff
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        return out

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
        for (qa, ta, va), ca in self.terms.items():
            for (qb, tb, vb), cb in other.terms.items():
                key = (qa + qb, ta + tb, va + vb)
                acc = terms.get(key, 0) + ca * cb
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        return out

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


def _point_value(poly: LaurentPoly, grid: int) -> int:
    """Value at q^(1/grid) = 2, t = 3, v = 5 for an integer-coefficient
    polynomial with nonnegative exponents."""
    total = 0
    for (qe, te, ve), coeff in poly.terms.items():
        total += coeff.numerator * 2 ** int(qe * grid) * 3**te * 5**ve
    return total


def _try_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """num/den when den divides num exactly, else None.

    A one-point integrality test screens out most non-divisible pairs
    before the long division runs: with both parts integer-primitive an
    exact quotient has integer coefficients (Gauss), so den's value at an
    integer point must divide num's.
    """
    grid = 1
    for poly in (num, den):
        for (qe, _, _) in poly.terms:
            grid = lcm(grid, qe.denominator)
    nval = _point_value(num.scale(_div(1, num.rational_content())), grid)
    dval = _point_value(den.scale(_div(1, den.rational_content())), grid)
    if abs(dval) > 1 and nval % dval:
        return None
    return num.divide_exact(den)


# -- common-factor cancellation ------------------------------------------
#
# Fraction denominators in the operator algebra are, almost without
# exception, monomials times a polynomial in a single variable (powers of
# symmetrizer normalizations like t^2 + 1).  For such a shape the full
# multivariate gcd with the numerator reduces to univariate gcds against
# the numerator's coefficient buckets, which Euclid settles exactly.


def _axis_split(poly: LaurentPoly):
    """(axis, mono, core, grid) when poly is a monomial times a polynomial
    in one variable, else None.  core maps integer exponents (q scaled by
    grid) to coefficients; mono holds the fixed exponents of the other
    axes."""
    axes = [set(), set(), set()]
    for key in poly.terms:
        axes[0].add(key[0])
        axes[1].add(key[1])
        axes[2].add(key[2])
    varying = [i for i in range(3) if len(axes[i]) > 1]
    if len(varying) != 1:
        return None
    ax = varying[0]
    grid = 1
    if ax == 0:
        for qe in axes[0]:
            grid = lcm(grid, qe.denominator)
    core: dict[int, Rat] = {}
    for key, c in poly.terms.items():
        e = int(key[ax] * grid) if ax == 0 else key[ax]
        core[e] = c
    mono = list(next(iter(poly.terms)))
    mono[ax] = 0
    return ax, tuple(mono), core, grid


def _int_list(core: dict[int, Rat]) -> tuple[int, list[int]]:
    """(offset, primitive integer coefficient list) for a univariate bucket."""
    lo, hi = min(core), max(core)
    scale = 1
    for c in core.values():
        scale = lcm(scale, c.denominator)
    arr = [0] * (hi - lo + 1)
    for e, c in core.items():
        arr[e - lo] = c.numerator * (scale // c.denominator)
    g = 0
    for x in arr:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        arr = [x // g for x in arr]
    return lo, arr


def _horner(arr: list[int], x: int) -> int:
    total = 0
    for c in reversed(arr):
        total = total * x + c
    return total


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (deg a >= deg b >= 1), integer lists."""
    r = a[:]
    db = len(b) - 1
    lc = b[-1]
    while len(r) - 1 >= db:
        m = r[-1]
        if m == 0:
            r.pop()
            continue
        if lc != 1:
            r = [lc * x for x in r]
        k = len(r) - 1 - db
        for i, bc in enumerate(b):
            r[k + i] -= m * bc
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _prim(arr: list[int]) -> list[int]:
    while arr and arr[-1] == 0:
        arr.pop()
    g = 0
    for x in arr:
        g = gcd(g, x)
        if g == 1:
            return arr
    if g > 1:
        arr = [x // g for x in arr]
    return arr


def _uni_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of primitive integer polynomials by the primitive PRS."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prim(_pseudo_rem(a, b))
        if not r:
            return b
        a, b = b, r
    return [1]


def _uni_divide_exact(arr: list[Rat], g: list[int]) -> list[Rat] | None:
    """Exact quotient of a rational coefficient list by g, else None."""
    dg = len(g) - 1
    if len(arr) <= dg:
        return None
    lc = g[-1]
    r = list(arr)
    out = [0] * (len(arr) - dg)
    for k in range(len(arr) - dg - 1, -1, -1):
        c = _div(r[k + dg], lc)
        out[k] = c
        if c:
            for i, bc in enumerate(g):
                r[k + i] -= c * bc
    if any(r[:dg]):
        return None
    return out


def _bucket(poly: LaurentPoly, ax: int, grid: int) -> dict[tuple, dict[int, Rat]]:
    """Group terms by the exponents of the axes other than ax."""
    out: dict[tuple, dict[int, Rat]] = {}
    for key, c in poly.terms.items():
        e = int(key[ax] * grid) if ax == 0 else key[ax]
        rest = tuple(x for i, x in enumerate(key) if i != ax)
        out.setdefault(rest, {})[e] = c
    return out


def _rebuild(
    buckets: dict[tuple, list[tuple[int, Rat]]], ax: int, grid: int
) -> LaurentPoly:
    terms: dict[Key, Rat] = {}
    for rest, pairs in buckets.items():
        for e, c in pairs:
            exp = _div(e, grid) if ax == 0 else e
            key = rest[:ax] + (exp,) + rest[ax:]
            terms[key] = c
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = terms
    return out


def _cancel_axis(
    other: LaurentPoly, uni: LaurentPoly, split
) -> tuple[LaurentPoly, LaurentPoly] | None:
    """Divide both polys by gcd(core of uni, buckets of other), or None."""
    ax, mono, core, grid0 = split
    grid = grid0
    if ax == 0:
        for (qe, _, _) in other.terms:
            grid = lcm(grid, qe.denominator)
        if grid != grid0:
            core = {e * (grid // grid0): c for e, c in core.items()}
    _, g = _int_list(core)
    sieve = abs(_horner(g, 3))
    raw_buckets = _bucket(other, ax, grid)
    int_buckets = [_int_list(b)[1] for b in raw_buckets.values()]
    for arr in int_buckets:
        sieve = gcd(sieve, abs(_horner(arr, 3)))
        if sieve == 1:
            return None
    for arr in int_buckets:
        g = _uni_gcd(g, arr)
        if len(g) == 1:
            return None
    new_other: dict[tuple, list[tuple[int, Rat]]] = {}
    for rest, b in raw_buckets.items():
        lo = min(b)
        quo = _uni_divide_exact(
            [b.get(e, 0) for e in range(lo, max(b) + 1)], g
        )
        if quo is None:
            return None
        new_other[rest] = [(lo + i, c) for i, c in enumerate(quo) if c]
    lo_c = min(core)
    quo_u = _uni_divide_exact(
        [core.get(e, 0) for e in range(lo_c, max(core) + 1)], g
    )
    if quo_u is None:
        return None
    rest_u = tuple(x for i, x in enumerate(mono) if i != ax)
    new_uni = _rebuild(
        {rest_u: [(lo_c + i, c) for i, c in enumerate(quo_u) if c]}, ax, grid
    )
    return _rebuild(new_other, ax, grid), new_uni


def _cancel_common(
    num: LaurentPoly, den: LaurentPoly
) -> tuple[LaurentPoly, LaurentPoly] | None:
    """Cancel the full common polynomial factor when one side is a monomial
    times a univariate polynomial; fall back to whole-side division."""
    split = _axis_split(den)
    if split is not None:
        pair = _cancel_axis(num, den, split)
        if pair is None:
            return None
        return _strip_common(*pair)
    split = _axis_split(num)
    if split is not None:
        pair = _cancel_axis(den, num, split)
        if pair is None:
            return None
        return _strip_common(pair[1], pair[0])
    quo = _try_divide(num, den)
    if quo is not None:
        return _strip_common(quo, LaurentPoly.one())
    if len(num.terms) > 1:
        quo = _try_divide(den, num)
        if quo is not None:
            return _strip_common(LaurentPoly.one(), quo)
    return None


class Scalar:
    """Element of the fraction field of LaurentPoly.

    Invariants: den != 0; den is integer-primitive with positive leading
    coefficient; the pair carries no common monomial content (the
    componentwise minimum exponent over both supports is zero); when one
    side divides the other exactly the quotient is taken, so polynomial
    scalars have den = 1.  Beyond that there is no multivariate gcd:
    equality is by cross-multiplication, never by canonical form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        if num.is_zero():
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        num, den = _strip_common(num, den)
        if len(den.terms) > 1:
            cancelled = _cancel_common(num, den)
            if cancelled is not None:
                num, den = cancelled
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> Scalar:
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> Scalar:
        return cls(LaurentPoly.one())

    @classmethod
    def const(cls, c) -> Scalar:
        return cls(LaurentPoly.const(c))

    @classmethod
    def q(cls, exp=1) -> Scalar:
        exp = _as_q(exp)
        if exp >= 0:
            return cls(LaurentPoly.q(exp))
        return cls(LaurentPoly.one(), LaurentPoly.q(-exp))

    @classmethod
    def t(cls, exp: int = 1) -> Scalar:
        if exp >= 0:
            return cls(LaurentPoly.t(exp))
        return cls(LaurentPoly.one(), LaurentPoly.t(-exp))

    @classmethod
    def v(cls, exp: int = 1) -> Scalar:
        if exp >= 0:
            return cls(LaurentPoly.v(exp))
        return cls(LaurentPoly.one(), LaurentPoly.v(-exp))

    @classmethod
    def monomial(cls, qexp=0, texp: int = 0, vexp: int = 0, coeff=1) -> Scalar:
        return cls(LaurentPoly.monomial(qexp, texp, vexp, coeff))

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
        return Scalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

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
        return Scalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: Scalar) -> Scalar:
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.num * other.den, self.den * other.num)

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.den, self.num)

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.inverse() ** (-n)
        return Scalar(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

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


# -- evaluation modulo a prime ----------------------------------------------
#
# Reduction modulo _P at one fixed point (q^(1/grid), t, v) -> _POINT is a
# ring homomorphism on the scalars it is defined on: those whose rational
# coefficients have denominators prime to _P and whose denominator does not
# vanish at the point.  A nonzero residue of an expression built from such
# scalars by ring operations therefore proves the expression nonzero
# (Schwartz 1980; Zippel 1979); a zero residue proves nothing.  The point is
# fixed so that runs are deterministic; any nonzero residues would do.

_P = (1 << 61) - 1
_POINT = (1_234_567_890_123_457, 987_654_321_098_767, 271_828_182_845_905)


def _root_index(scalars) -> int:
    """Smallest grid n with every q-exponent of the scalars in (1/n)Z."""
    return lcm(1, *(poly.root_index() for s in scalars for poly in (s.num, s.den)))


def _terms_residue(terms, grid: int) -> int | None:
    """Residue of sum coeff * q^qe t^te v^ve over (key, coeff) pairs, or None
    when a coefficient denominator is divisible by _P.  grid must be a
    multiple of every qe's denominator."""
    rq, rt, rv = _POINT
    total = 0
    for (qe, te, ve), c in terms:
        term = c.numerator
        if qe:
            term *= pow(rq, qe.numerator * (grid // qe.denominator), _P)
        if te:
            term *= pow(rt, te, _P)
        if ve:
            term *= pow(rv, ve, _P)
        d = c.denominator
        if d != 1:
            if d % _P == 0:
                return None
            term *= pow(d, -1, _P)
        total += term
    return total % _P


def _residue(s: Scalar, grid: int) -> int | None:
    """Residue of s at the fixed point with q^(1/grid) -> _POINT[0], or None
    when s is undefined there: a coefficient denominator is divisible by _P,
    or the denominator of s vanishes at the point."""
    num = _terms_residue(s.num.terms.items(), grid)
    if num is None:
        return None
    if s.den.terms == {_ZERO_KEY: 1}:
        return num
    den = _terms_residue(s.den.terms.items(), grid)
    if not den:
        return None
    return num * pow(den, -1, _P) % _P


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
