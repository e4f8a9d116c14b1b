"""Jordan-type normal form for loops under q-twisted conjugation.

A loop is a square matrix of Laurent polynomials in the loop variable z
with ``Scalar`` coefficients.  Loops act on each other by the twisted
conjugation

    g . h = g(qz) h(z) g(z)^{-1},

and a loop with constant monomial diagonal and zeros below it can be
normalized, inside its orbit, to a product s*b of

* a constant diagonal ``s`` of exact torus coordinates, and
* a unitriangular ``b`` that commutes with the twist by s, meaning
  b(qz) s = s b(z) (twist-equivariance), with the extra position rule
  that whenever s_i/s_j is a positive integral power of q the pair
  (i, j) sits strictly above the diagonal.

Twist-equivariance forces each entry of b to be a single monomial
c*z^m with q^m = s_i/s_j, so b is block-diagonal along the groups of
diagonal entries that differ by integral powers of q.  The
normalization is computed one superdiagonal at a time: every entry of
the conjugator satisfies a scalar equation x(qz) - rho*x(z) = target
whose only obstruction is the coefficient at the resonant degree (when
rho = q^l), and that coefficient is absorbed into b.

A ``ZPoly`` keeps its coefficients, by degree, in the store torus
fractions use, ``scalars.CommonDen``: LaurentPoly numerators over one
lowest-terms scalar denominator, so equality compares stored terms and the
arithmetic is polynomial arithmetic with at most one normalization per
result.  Besides the store's own shortcuts, ``shift_z`` and ``at_qz`` keep
the denominator, and a sum first divides its numerators by the
denominator exactly and runs the gcd chain only when that fails: the
shift check x(qz) - q^l x(z) lands back on a target over 1.

Constant diagonals are compared exactly: two are equivalent when one is
a Weyl permutation of the other times integral powers of q.  For a
point s of a torus attached to a root system (coordinates on the simple
coroots), the roots alpha with alpha(s) an integral power of q span the
reflection subgroup of the isotropy group of s modulo q^Y; the quotient
is the component group of the corresponding fixed-point centralizer.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .errors import NormalFormError
from .linalg import fraction_free, mat_mul, rank
from .mlambda import Character, _as_qpower, _check_rank, isotropy_group
from .rootdata import LatticePair, RootSystem, WeylElement
from .scalars import (
    _ONE,
    CommonDen,
    LaurentPoly,
    QPower,
    Scalar,
    _add_into,
    _add_terms,
    _as_scalar,
    _common_den,
    _lowest_terms,
    _mul_terms,
    _poly,
)


class ZPoly(CommonDen):
    """Laurent polynomial in z with ``Scalar`` coefficients.

    Built from degree -> scalar and stored as numerators by degree over one
    scalar denominator (``scalars.CommonDen``).  Polynomials never change
    after construction.
    """

    __slots__ = ()

    @staticmethod
    def _with(polys: dict[int, LaurentPoly], den: LaurentPoly) -> ZPoly:
        """A polynomial from parts already in stored form."""
        out = ZPoly.__new__(ZPoly)
        out.polys, out.den = polys, den
        return out

    @classmethod
    def zero(cls) -> ZPoly:
        return cls._with({}, _ONE)

    @classmethod
    def const(cls, c) -> ZPoly:
        return cls({0: _as_scalar(c)})

    @classmethod
    def one(cls) -> ZPoly:
        return cls._with({0: _ONE}, _ONE)

    @classmethod
    def z(cls, exp: int = 1, coeff=1) -> ZPoly:
        return cls({exp: _as_scalar(coeff)})

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.polys)

    def coeff(self, m: int) -> Scalar:
        p = self.polys.get(m)
        return Scalar.zero() if p is None else self._scalar(p)

    def constant_term(self) -> Scalar:
        return self.coeff(0)

    def is_monomial(self) -> bool:
        return len(self.polys) == 1

    def as_monomial(self) -> tuple[int, Scalar]:
        if not self.is_monomial():
            raise ValueError(f"not a monomial in z: {self}")
        ((m, p),) = self.polys.items()
        return m, self._scalar(p)

    def __add__(self, other: ZPoly) -> ZPoly:
        if not other.polys:
            return self
        if not self.polys:
            return other
        den, cofactors = _common_den((self.den, other.den))
        acc: dict[int, dict] = {}
        for part, cofactor in zip((self, other), cofactors):
            if cofactor is _ONE:
                for m, p in part.polys.items():
                    _add_into(acc, m, p.terms)
            else:
                for m, p in part.polys.items():
                    _mul_terms(acc.setdefault(m, {}), p.terms, cofactor.terms)
        polys = {m: _poly(t) for m, t in acc.items() if t}
        if len(den.terms) > 1:
            # over 1 the sum is in lowest terms; else try exact division
            # before the gcd chain
            quotients = {}
            for m, p in polys.items():
                quo = p.divide_exact(den)
                if quo is None:
                    return ZPoly._with(*_lowest_terms(polys, den))
                quotients[m] = quo
            polys, den = quotients, _ONE
        return ZPoly._with(polys, den)

    def __mul__(self, other: ZPoly) -> ZPoly:
        if not self.polys:
            return self
        if not other.polys:
            return other
        acc: dict[int, dict] = {}
        for m1, p1 in self.polys.items():
            t1 = p1.terms
            for m2, p2 in other.polys.items():
                _mul_terms(acc.setdefault(m1 + m2, {}), t1, p2.terms)
        polys = {m: _poly(t) for m, t in acc.items() if t}
        a, b = self.den, other.den
        if len(b.terms) == 1:
            den = a
        elif len(a.terms) == 1:
            den = b
        else:
            den = a * b
        if len(den.terms) == 1:  # both denominators are 1
            return ZPoly._with(polys, den)
        return ZPoly._with(*_lowest_terms(polys, den))

    def __floordiv__(self, other: ZPoly) -> ZPoly:
        """Exact quotient; ValueError when other does not divide self.

        With self = P/D and other = R/E this is (P E / R) / D.  Long
        division of P E by R peels the top degree; a step whose leading
        coefficient the top coefficient of R does not divide exactly first
        multiplies the remainder and the quotient so far by it, and the
        product s of those multipliers joins D at the end: P E s = Q R."""
        if not other.polys:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(other.polys) == 1:
            ((e, r),) = other.polys.items()
            return self._times(other.den, r).shift_z(-e)
        top = max(other.polys)
        lead = other.polys[top]
        rest = [(m - top, p.terms) for m, p in other.polys.items() if m != top]
        low = min(self.polys, default=0) - min(other.polys)
        rem: dict[int, dict] = {}
        for m, p in self.polys.items():
            _mul_terms(rem.setdefault(m, {}), p.terms, other.den.terms)
        quot: dict[int, LaurentPoly] = {}
        scale = _ONE
        while rem:
            mt = max(rem)
            if mt - top < low:
                raise ValueError(f"{other} does not divide {self}")
            c = _poly(rem.pop(mt))
            t = c.divide_exact(lead)
            if t is None:
                t = c
                rem = {m: (_poly(r) * lead).terms for m, r in rem.items()}
                quot = {m: q * lead for m, q in quot.items()}
                scale = scale * lead
            quot[mt - top] = t
            neg = (-t).terms
            for d, r in rest:
                out = rem.setdefault(mt + d, {})
                _mul_terms(out, neg, r)
                if not out:
                    del rem[mt + d]
        return ZPoly._with(*_lowest_terms(quot, scale * self.den))

    def shift_z(self, k: int) -> ZPoly:
        """Multiply by z^k."""
        return ZPoly._with({m + k: p for m, p in self.polys.items()}, self.den)

    def at_qz(self) -> ZPoly:
        """Substitute z -> qz, scaling the z^m numerator by the unit q^m."""
        polys = {m: p.shift(m) if m else p for m, p in self.polys.items()}
        return ZPoly._with(polys, self.den)

    def eval_z1(self) -> Scalar:
        """Evaluate at z = 1."""
        total: dict = {}
        for p in self.polys.values():
            _add_terms(total, p.terms)
        return Scalar(_poly(total), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self.den == other.den and self.polys == other.polys

    def __str__(self) -> str:
        if not self.polys:
            return "0"
        coeffs = self.coeffs
        parts = []
        for m in sorted(coeffs):
            c = coeffs[m]
            if m == 0:
                parts.append(f"({c})")
            elif m == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{m}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self) -> dict:
        coeffs = self.coeffs
        return {str(m): coeffs[m].to_json() for m in sorted(coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> ZPoly:
        return cls({int(m): Scalar.from_json(c) for m, c in data.items()})


def _twisted_inverse(target: ZPoly, rho: Scalar) -> ZPoly:
    """The x with x(qz) - rho x(z) = target: target_m / (q^m - rho) at
    each degree m of the target, none of which may have q^m = rho."""
    a, b = rho.num, rho.den
    den = target.den
    # (p/den) / (q^m - a/b) = p b / (den (q^m b - a))
    return ZPoly(
        {m: Scalar(p * b, den * (b.shift(m) - a)) for m, p in target.polys.items()}
    )


class MatrixLoop:
    """Square matrix of ``ZPoly`` entries under matrix multiplication."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(e for e in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix loop must be square")
        for row in rows:
            for e in row:
                if not isinstance(e, ZPoly):
                    raise TypeError("matrix loop entries must be ZPoly")
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> MatrixLoop:
        return cls.diagonal([ZPoly.one() for _ in range(n)])

    @classmethod
    def diagonal(cls, entries) -> MatrixLoop:
        entries = [
            e if isinstance(e, ZPoly) else ZPoly.const(e) for e in entries
        ]
        n = len(entries)
        return cls(
            [
                [entries[i] if i == j else ZPoly.zero() for j in range(n)]
                for i in range(n)
            ]
        )

    @classmethod
    def permutation(cls, order) -> MatrixLoop:
        """Constant loop p with (p h p^{-1})_{ij} = h_{order[i], order[j]}."""
        n = len(order)
        return cls(
            [
                [
                    ZPoly.one() if j == order[i] else ZPoly.zero()
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def entry(self, i: int, j: int) -> ZPoly:
        return self.rows[i][j]

    def __mul__(self, other: MatrixLoop) -> MatrixLoop:
        if not isinstance(other, MatrixLoop):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch in loop product")
        return MatrixLoop(mat_mul(self.rows, other.rows))

    def at_qz(self) -> MatrixLoop:
        return MatrixLoop([[e.at_qz() for e in row] for row in self.rows])

    def eval_z1(self) -> tuple[tuple[Scalar, ...], ...]:
        return tuple(tuple(e.eval_z1() for e in row) for row in self.rows)

    def det(self) -> ZPoly:
        m, pivots, sign = fraction_free(self.rows, ZPoly.is_zero)
        if len(pivots) < self.n:
            return ZPoly.zero()
        d = m[-1][-1] if m else ZPoly.one()
        return d if sign > 0 else -d

    def inverse(self) -> MatrixLoop:
        """Inverse from one fraction-free elimination of [g | 1].

        The left block ends as d*1 and the right one as d*g^{-1}, so g is
        invertible exactly when d is a z-monomial c*z^e.
        """
        n = self.n
        one = MatrixLoop.identity(n).rows
        m, pivots, _ = fraction_free(
            [row + one[i] for i, row in enumerate(self.rows)], ZPoly.is_zero
        )
        d = m[-1][n - 1] if m else ZPoly.one()
        if pivots != list(range(n)) or not d.is_monomial():
            raise ValueError(
                "loop is not invertible: determinant is not a monomial in z"
            )
        return MatrixLoop([[x // d for x in row[n:]] for row in m])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixLoop):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        ) + "]"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[e.to_json() for e in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> MatrixLoop:
        return cls(
            [[ZPoly.from_json(e) for e in row] for row in data["entries"]]
        )


def q_conjugate(g: MatrixLoop, h: MatrixLoop) -> MatrixLoop:
    """Twisted conjugation g(qz) h(z) g(z)^{-1}."""
    if g.n != h.n:
        raise ValueError("size mismatch in twisted conjugation")
    return g.at_qz() * h * g.inverse()


class ShiftSolution:
    """Outcome of the scalar equation x(qz) - q^l x(z) = target."""

    __slots__ = ("l", "obstruction", "solution")

    def __init__(self, l: int, obstruction: Scalar, solution: ZPoly | None):
        self.l = l
        self.obstruction = obstruction
        self.solution = solution

    @property
    def solvable(self) -> bool:
        return self.obstruction.is_zero()

    @property
    def kernel_degree(self) -> int:
        """Homogeneous solutions are the multiples of z^kernel_degree."""
        return self.l

    def __repr__(self) -> str:
        if self.solvable:
            return f"ShiftSolution(l={self.l}, solution={self.solution})"
        return f"ShiftSolution(l={self.l}, obstruction={self.obstruction})"


def solve_shift_equation(l: int, target: ZPoly) -> ShiftSolution:
    """Solve x(qz) - q^l x(z) = target coefficient by coefficient.

    Degree m contributes (q^m - q^l) x_m = target_m, invertible except
    at the resonant degree m = l; the coefficient there is returned as
    the obstruction, and the equation is solvable iff it vanishes.  The
    returned solution takes the kernel multiple c*z^l to be zero.
    """
    obstruction = target.coeff(l)
    if not obstruction.is_zero():
        return ShiftSolution(l, obstruction, None)
    return ShiftSolution(l, obstruction, _twisted_inverse(target, Scalar.q(l)))


class QNormalForm:
    """Product decomposition s*b: torus diagonal and twist-commuting part."""

    __slots__ = ("s", "b", "blocks")

    def __init__(self, s, b: MatrixLoop, blocks):
        self.s = tuple(_as_qpower(x) for x in s)
        self.b = b
        self.blocks = tuple(tuple(block) for block in blocks)

    def s_loop(self) -> MatrixLoop:
        return MatrixLoop.diagonal([x.as_scalar() for x in self.s])

    def product(self) -> MatrixLoop:
        return self.s_loop() * self.b

    def check_twist(self) -> bool:
        """b(qz) s = s b(z): b commutes with the twist by s."""
        s = self.s_loop()
        return self.b.at_qz() * s == s * self.b

    def check_position(self) -> bool:
        """s_i/s_j = q^m with m > 0 only strictly above the diagonal."""
        for i in range(len(self.s)):
            for j in range(i + 1):
                k = (self.s[i] / self.s[j]).integral_q_exponent()
                if k is not None and k > 0:
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "s": [x.to_json() for x in self.s],
            "b": self.b.to_json(),
            "blocks": [list(block) for block in self.blocks],
        }


def _diagonal_constants(h: MatrixLoop) -> tuple[QPower, ...]:
    """Diagonal of h as torus coordinates; rejects the non-integral case."""
    out = []
    for i in range(h.n):
        e = h.entry(i, i)
        if not e.is_constant():
            raise NormalFormError(
                f"non-integral loop: diagonal entry {i} depends on z"
            )
        c = e.constant_term()
        if c.is_zero() or not c.is_monomial():
            raise NormalFormError(
                f"diagonal entry {i} is not an exact torus coordinate: {c}"
            )
        (qe, te, ve), coeff = c.as_monomial()
        if te or ve:
            raise NormalFormError(
                f"diagonal entry {i} must involve q only: {c}"
            )
        out.append(QPower(rot=0 if coeff > 0 else Q(1, 2), qexp=qe, mag=abs(coeff)))
    return tuple(out)


def _block_classes(diag) -> list[int]:
    """Class label per index; same class iff the ratio is q^k, k integral."""
    labels = [-1] * len(diag)
    nxt = 0
    for i in range(len(diag)):
        if labels[i] >= 0:
            continue
        labels[i] = nxt
        for j in range(i + 1, len(diag)):
            if labels[j] < 0 and (diag[i] / diag[j]).integral_q_exponent() is not None:
                labels[j] = nxt
        nxt += 1
    return labels


def _block_order(h, diag, labels) -> tuple[int, ...]:
    """First index order making blocks contiguous with falling q-exponents.

    Index a must precede b when h[a][b] is nonzero, or when both share a
    class and a has the larger q-exponent.  A class starts once no index
    of another class must precede it, and runs to its end; each step takes
    the smallest index whose predecessors are all placed.  Every such step
    extends to a valid order if one exists, so the result is the
    lexicographically first valid order.
    """
    n = h.n
    preds = [
        {a for a in range(n) if a != b and not h.entry(a, b).is_zero()}
        | {a for a in range(n) if labels[a] == labels[b] and diag[a].qexp > diag[b].qexp}
        for b in range(n)
    ]
    order: list[int] = []
    left = set(range(n))
    while left:
        pool = [x for x in left if order and labels[x] == labels[order[-1]]]
        if not pool:
            blocked = {labels[b] for b in left for a in preds[b] & left if labels[a] != labels[b]}
            pool = [x for x in left if labels[x] not in blocked]
        ready = [x for x in pool if not preds[x] & left]
        if not ready:
            raise NormalFormError(
                "no ordering makes the loop upper-triangular with contiguous "
                "blocks and falling q-exponents"
            )
        order.append(min(ready))
        left.remove(order[-1])
    return tuple(order)


def _contiguous_blocks(labels) -> tuple[tuple[int, ...], ...]:
    blocks: list[list[int]] = []
    for i, lab in enumerate(labels):
        if blocks and labels[i - 1] == lab:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return tuple(tuple(b) for b in blocks)


def q_normal_form(
    h: MatrixLoop, basis: MatrixLoop | None = None
) -> tuple[QNormalForm, MatrixLoop]:
    """Normalize h to s*b and return the pair with its conjugator f.

    The input (after the optional basis change) must have constant
    monomial diagonal entries, and some index order must leave zeros
    below the diagonal, group the diagonal into contiguous classes whose
    ratios are integral powers of q, and sort each class by falling
    exponent; the lexicographically first such order is built directly,
    for any n.  Entries are then cleaned one superdiagonal at a time;
    inside a class the resonant coefficient is absorbed into b, across
    classes the twisted equation is always solvable.  The returned
    conjugator satisfies q_conjugate(f, h) = s*b exactly.
    """
    original = h
    pre = basis
    if pre is not None:
        h = q_conjugate(pre, h)
    diag0 = _diagonal_constants(h)
    labels0 = _block_classes(diag0)
    order = _block_order(h, diag0, labels0)
    p = MatrixLoop.permutation(order)
    h = q_conjugate(p, h)
    n = h.n
    d = [diag0[order[i]] for i in range(n)]
    ds = [x.as_scalar() for x in d]
    labels = [labels0[order[i]] for i in range(n)]

    f = [list(row) for row in MatrixLoop.identity(n).rows]
    b = [list(row) for row in MatrixLoop.identity(n).rows]
    a = [list(row) for row in MatrixLoop.diagonal(ds).rows]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            known = -h.entry(i, j)
            for k in range(i + 1, j):
                known = known + a[i][k] * f[k][j]
                known = known - f[i][k].at_qz() * h.entry(k, j)
            dj_inv = ds[j].inverse()
            l = (d[i] / d[j]).integral_q_exponent()
            if l is not None:
                beta = -(known.coeff(l) / ds[i])
                if not beta.is_zero():
                    b[i][j] = ZPoly({l: beta})
                    a[i][j] = ZPoly({l: ds[i] * beta})
                res = solve_shift_equation(l, (a[i][j] + known).scale(dj_inv))
                if not res.solvable:
                    raise NormalFormError(
                        f"resonant obstruction survived at entry ({i}, {j})"
                    )
                f[i][j] = res.solution
            else:
                rho = (d[i] / d[j]).as_scalar()
                f[i][j] = _twisted_inverse(known.scale(dj_inv), rho)
    f_loop = MatrixLoop(f)
    conjugator = f_loop * p
    if pre is not None:
        conjugator = conjugator * pre
    nf = QNormalForm(d, MatrixLoop(b), _contiguous_blocks(labels))
    if q_conjugate(conjugator, original) != nf.product():
        raise NormalFormError("conjugator does not reproduce the normal form")
    if not (nf.check_twist() and nf.check_position()):
        raise NormalFormError("normal form violates its defining conditions")
    return nf, conjugator


# -- invariants of the constant diagonal ------------------------------------


def q_centralizer_roots(system: RootSystem, coords) -> tuple:
    """Roots alpha with alpha(s) an integral power of q.

    The point s has coordinates on the simple coroots, so a root alpha
    with simple-root coordinates a_i evaluates to
    prod_j c_j^(sum_i a_i <alpha_i, alpha_j_vee>).  On the integer form of
    the values, such a root has rotation 0, q-exponent 0 mod den and
    magnitude 1.
    """
    n, a = system.rank, system.cartan
    point = Character(coords)
    _check_rank(n, point.rot)
    at_roots = point.pullback(
        [[sum(root[i] * a[i][j] for i in range(n)) for j in range(n)] for root in system.roots]
    )
    den = at_roots.den
    return tuple(
        sorted(
            root
            for root, rot, qexp, mag in zip(
                system.roots, at_roots.rot, at_roots.qexp, at_roots.mag
            )
            if rot == 0 and qexp % den == 0 and mag == 1
        )
    )


def character_on_x(pair: LatticePair, coords) -> Character:
    """Character values on the X basis of a point given on simple coroots:
    the basis vector with Cartan row a_i takes the value prod_j c_j^(a_ij)."""
    point = Character(coords)
    _check_rank(pair.rank, point.rot)
    return point if pair.kind == "weight" else point.pullback(pair.system.cartan)


def _reflection_closure(system: RootSystem, roots) -> tuple[WeylElement, ...]:
    """Subgroup generated by the reflections in the given roots."""
    gens = [system.reflection(r) for r in roots if system.is_positive_root(r)]
    group = {system.identity}
    frontier = [system.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                x = g * w
                if x not in group:
                    group.add(x)
                    nxt.append(x)
        frontier = nxt
    return tuple(sorted(group, key=lambda w: (w.length, w.word)))


class ComponentWeyl:
    """Isotropy group of a torus point with its reflection subgroup.

    The roots that evaluate on the point to integral powers of q form a
    root system R_lambda stable under the isotropy group W_lambda, and
    their reflections generate a normal subgroup W0.  W0 acts simply
    transitively on the positive systems of R_lambda (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.8), so the isotropy
    elements that keep its positive roots positive form a complement C
    and W_lambda = W0 x| C always splits.  C is the transversal of the
    component group, in isotropy order; |C| |W0| = |W_lambda| is checked.
    """

    __slots__ = (
        "pair",
        "point",
        "isotropy",
        "roots",
        "reflection_subgroup",
        "transversal",
    )

    is_split = True  # always: see the class docstring

    def __init__(self, pair: LatticePair, coords):
        coords = tuple(_as_qpower(c) for c in coords)
        self.pair = pair
        self.point = coords
        self.isotropy = isotropy_group(pair, character_on_x(pair, coords))
        self.roots = q_centralizer_roots(pair.system, coords)
        elements = self.isotropy.elements()
        root_set = set(self.roots)
        for w in elements:
            for r in self.roots:
                if tuple(w.act_root(r)) not in root_set:
                    raise NormalFormError(
                        "q-centralizer roots are not isotropy-stable"
                    )
        self.reflection_subgroup = _reflection_closure(pair.system, self.roots)
        if not all(u in self.isotropy for u in self.reflection_subgroup):
            raise NormalFormError(
                "reflection subgroup escapes the isotropy group"
            )
        positive = pair.system.is_positive_root
        pos = [r for r in self.roots if positive(r)]
        self.transversal = tuple(
            w for w in elements if all(positive(tuple(w.act_root(r))) for r in pos)
        )
        if len(self.transversal) * len(self.reflection_subgroup) != self.isotropy.order:
            raise NormalFormError(
                "positive-root stabilizer is no complement of the reflection subgroup"
            )

    @property
    def component_order(self) -> int:
        return len(self.transversal)

    def to_json(self) -> dict:
        return {
            "point": [c.to_json() for c in self.point],
            "isotropy_order": self.isotropy.order,
            "centralizer_roots": [list(r) for r in self.roots],
            "reflection_order": len(self.reflection_subgroup),
            "component_order": self.component_order,
            "is_split": self.is_split,
            "transversal_words": [
                [i + 1 for i in w.word] for w in self.transversal
            ],
        }


def component_weyl(pair: LatticePair, coords) -> ComponentWeyl:
    """Isotropy group, q-centralizer reflection subgroup, and quotient."""
    return ComponentWeyl(pair, coords)


class TorusWitness:
    """Result of the exact search for s2 = w(s1) * q^y."""

    __slots__ = ("equivalent", "w", "y")

    def __init__(self, equivalent: bool, w: WeylElement | None, y):
        self.equivalent = equivalent
        self.w = w
        self.y = None if y is None else tuple(int(x) for x in y)

    def __bool__(self) -> bool:
        return self.equivalent

    def __repr__(self) -> str:
        if not self.equivalent:
            return "TorusWitness(equivalent=False)"
        return f"TorusWitness(w={self.w.word}, y={self.y})"


def constants_equivalent(pair: LatticePair, s1, s2) -> TorusWitness:
    """Search W exhaustively and Y exactly for s2 = w(s1) * q^y."""
    lam1 = character_on_x(pair, s1)
    lam2 = character_on_x(pair, s2)
    for w in pair.system.elements:
        y = lam1.weyl_shift_to(pair, w, lam2)
        if y is not None:
            return TorusWitness(True, w, y)
    return TorusWitness(False, None, None)


# -- comparison of normalized loops -----------------------------------------


def _class_key(x: QPower) -> tuple:
    """Invariant of a torus coordinate modulo integral powers of q."""
    return (x.rot, x.mag, x.qexp % 1)


def diagonal_twist_match(d1, d2):
    """Match two constant diagonals up to permutation and integral q-shifts.

    Returns (perm, shifts) with d2[i] = d1[perm[i]] * q^shifts[i], or
    None when no matching exists.  Within a class the pairing takes the
    exponents in sorted order, so the result is deterministic.
    """
    d1 = tuple(_as_qpower(x) for x in d1)
    d2 = tuple(_as_qpower(x) for x in d2)
    if len(d1) != len(d2):
        return None
    groups1: dict[tuple, list[int]] = {}
    groups2: dict[tuple, list[int]] = {}
    for i, x in enumerate(d1):
        groups1.setdefault(_class_key(x), []).append(i)
    for i, x in enumerate(d2):
        groups2.setdefault(_class_key(x), []).append(i)
    if set(groups1) != set(groups2):
        return None
    perm = [0] * len(d1)
    shifts = [0] * len(d1)
    for key, idx2 in groups2.items():
        idx1 = groups1[key]
        if len(idx1) != len(idx2):
            return None
        idx1 = sorted(idx1, key=lambda i: d1[i].qexp)
        idx2 = sorted(idx2, key=lambda i: d2[i].qexp)
        for i2, i1 in zip(idx2, idx1):
            perm[i2] = i1
            shift = (d2[i2] / d1[i1]).integral_q_exponent()
            if shift is None:
                return None
            shifts[i2] = shift
    return tuple(perm), tuple(shifts)


def _jordan_type(u) -> tuple[int, ...]:
    """Rank sequence of the powers of u - 1, a complete unipotent invariant."""
    n = len(u)
    nil = [[u[i][j] - Scalar.one() if i == j else u[i][j] for j in range(n)] for i in range(n)]
    power = nil
    ranks = []
    for _ in range(n):
        r = rank(power, is_zero=lambda s: s.is_zero())
        ranks.append(r)
        if r == 0:
            break
        power = mat_mul(power, nil)
    while len(ranks) < n:
        ranks.append(0)
    return tuple(ranks)


def _block_types(nf: QNormalForm) -> dict[tuple, tuple]:
    """Per-block class key -> (size, rank sequence of the block at z = 1)."""
    u = nf.b.eval_z1()
    out = {}
    for block in nf.blocks:
        sub = [[u[i][j] for j in block] for i in block]
        key = _class_key(nf.s[block[0]])
        out[key] = (len(block), _jordan_type(sub))
    return out


def unipotent_parts_conjugate(nf1: QNormalForm, nf2: QNormalForm) -> bool:
    """Blockwise comparison of the twist-commuting parts at z = 1.

    Blocks correspond through the class of their diagonal modulo
    integral powers of q; within a matched block the rank sequence of
    (b(1) - 1)^k decides conjugacy inside the block's linear group.
    """
    return _block_types(nf1) == _block_types(nf2)
