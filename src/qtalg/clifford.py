"""Finite permutation groups, exact character tables, Clifford counting.

Groups are given by permutation generators and enumerated breadth-first
up to a configured bound.  Character tables are computed by Dixon's
method: the class-sum structure constants are diagonalized over a prime
field GF(p) with p = 1 mod exp(G), the joint eigenvectors are the
normalized characters mod p, and the true values are recovered as
cyclotomic integers from the eigenvalue multiplicities of each class
representative.  The arithmetic mod p is on plain ints: each class sum
M is kept as sparse integer rows, and an invariant subspace with basis B
splits into the kernels of M B - t B, found by one elimination mod p
each, until they span the subspace.  Only the eigenvalues t of M can
have a kernel, so t runs over the roots of the characteristic
polynomial of M mod p (Hessenberg reduction, then Horner's rule over
GF(p)), computed once per class sum.  Values live
in Q(zeta_N) represented by polynomials modulo the N-th cyclotomic
polynomial, with N the group exponent, so row and column orthogonality
can be verified exactly.

On top of the tables sits the counting layer for a group W_H with a
normal subgroup W0: the conjugation action phi^g(x) = phi(g x g^{-1})
partitions the irreducible characters of W0 into orbits with
stabilizers W^phi, and by the Clifford correspondence the characters of
W_H lying over an orbit correspond to the characters of W^phi lying over
its representative.  Those are read off the table of W^phi, so no
extension of phi is needed; whether phi extends is reported alongside.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, isqrt, lcm
from operator import mul

from .errors import EnumerationBoundError


# -- cyclotomic polynomials and numbers --------------------------------------

_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def _int_poly_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact quotient of integer polynomials with monic divisor."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    assert all(x == 0 for x in num), "division was not exact"
    return out


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div(poly, cyclotomic_poly(d))
    out = tuple(poly)
    _CYCLO_CACHE[n] = out
    return out


def _mod_phi(work: list, n: int) -> list:
    """The remainder of a coefficient list (ascending, at least phi(n)
    long, reduced in place) modulo Phi_n, over any ring holding the list."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for i in range(deg + 1):
                work[k - deg + i] -= c * phi[i]
    return work[:deg]


class Cyc:
    """Element of Q(zeta_n), a polynomial in zeta_n modulo Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        deg = len(cyclotomic_poly(n)) - 1
        work = list(coeffs) + [0] * (deg - len(coeffs))
        self.n = n
        self.coeffs = tuple(map(Q, _mod_phi(work, n)))

    @classmethod
    def const(cls, n: int, c) -> Cyc:
        return cls(n, [Q(c)])

    @classmethod
    def zero(cls, n: int) -> Cyc:
        return cls.const(n, 0)

    @classmethod
    def one(cls, n: int) -> Cyc:
        return cls.const(n, 1)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> Cyc:
        k %= n
        return cls(n, [0] * k + [1])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: Cyc) -> Cyc:
        other = self._match(other)
        return Cyc(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: Cyc) -> Cyc:
        other = self._match(other)
        return Cyc(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> Cyc:
        return Cyc(self.n, [-a for a in self.coeffs])

    def __mul__(self, other: Cyc) -> Cyc:
        other = self._match(other)
        out = [Q(0)] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Cyc(self.n, out)

    def _match(self, other) -> Cyc:
        if not isinstance(other, Cyc):
            return Cyc.const(self.n, other)
        if other.n != self.n:
            raise ValueError("cyclotomic orders differ; promote first")
        return other

    def galois(self, t: int) -> Cyc:
        """Apply zeta -> zeta^t (t coprime to the order)."""
        if gcd(t, self.n) != 1:
            raise ValueError("not a Galois substitution")
        out = [Q(0)] * self.n
        for k, c in enumerate(self.coeffs):
            if c:
                out[(k * t) % self.n] += c
        return Cyc(self.n, out)

    def conjugate(self) -> Cyc:
        return self.galois(self.n - 1) if self.n > 1 else self

    def promote(self, n2: int) -> Cyc:
        """Re-express in Q(zeta_n2) for a multiple n2 of the order."""
        if n2 % self.n:
            raise ValueError("target order must be a multiple")
        step = n2 // self.n
        out = [Q(0)] * n2
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return Cyc(n2, out)

    def rational(self) -> Q | None:
        """The value as a rational, or None when it is irrational."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Q)):
            other = Cyc.const(self.n, other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*zeta{self.n}" if c != 1 else f"zeta{self.n}")
            else:
                head = f"{c}*" if c != 1 else ""
                parts.append(f"{head}zeta{self.n}^{k}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        r = self.rational()
        if r is not None:
            return str(r)
        return {"order": self.n, "coeffs": [str(c) for c in self.coeffs]}


# -- permutation groups -------------------------------------------------------


def _compose(a: tuple, b: tuple) -> tuple:
    """a after b."""
    return tuple(a[x] for x in b)


def _invert(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _perm_order(a: tuple) -> int:
    seen = [False] * len(a)
    out = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        out = lcm(out, length)
    return out


def _closure(ident: tuple, gens, bound: int) -> list[tuple]:
    """The group generated, breadth-first from the identity."""
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _compose(g, x)
                if y not in seen:
                    if len(seen) >= bound:
                        raise EnumerationBoundError(
                            f"group enumeration exceeded the bound {bound}"
                        )
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def _check_perms(degree: int, perms) -> list[tuple]:
    perms = [tuple(g) for g in perms]
    for g in perms:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
    return perms


class PermGroup:
    """Finite permutation group enumerated breadth-first from generators."""

    __slots__ = (
        "degree",
        "generators",
        "elements",
        "index",
        "_classes",
        "_class_of",
        "_table",
    )

    def __init__(self, degree: int, generators, bound: int = 2000):
        gens = _check_perms(degree, generators)
        self._set(degree, gens, _closure(tuple(range(degree)), gens, bound))

    def _set(self, degree: int, gens, elements) -> None:
        self.degree = degree
        self.generators = tuple(gens)
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self._classes = None
        self._class_of = None
        self._table = None

    @classmethod
    def from_elements(cls, degree: int, elements, bound: int = 2000) -> PermGroup:
        """The group of the listed elements, the identity first and then the
        list in its order.

        A closed list keeps that order, and a greedy subset generates it:
        an element joins when it lies outside the span of those before it,
        so there are at most log2 of the order.  A list that is not closed
        generates the group, which is its breadth-first closure."""
        listed = _check_perms(degree, elements)
        ident = tuple(range(degree))
        distinct = list(dict.fromkeys([ident] + listed))
        gens, span = [], {ident}
        for x in distinct:
            if x not in span:
                gens.append(x)
                span = set(_closure(ident, gens, bound))
        if len(span) != len(distinct):
            return cls(degree, listed or [ident], bound=bound)
        group = cls.__new__(cls)
        group._set(degree, gens, distinct)
        return group

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> tuple:
        return self.elements[0]

    def __contains__(self, x) -> bool:
        return tuple(x) in self.index

    def exponent(self) -> int:
        out = 1
        for x in self.elements:
            out = lcm(out, _perm_order(x))
        return out

    def conjugacy_classes(self):
        """List of classes as (representative, members tuple), identity first."""
        if self._classes is not None:
            return self._classes
        unseen = set(self.elements)
        conjugators = [(g, _invert(g)) for g in self.generators]
        classes = []
        for x in self.elements:
            if x not in unseen:
                continue
            members = [x]
            unseen.discard(x)
            frontier = [x]
            while frontier:
                nxt = []
                for y in frontier:
                    for g, ginv in conjugators:
                        z = _compose(_compose(g, y), ginv)
                        if z in unseen:
                            unseen.discard(z)
                            members.append(z)
                            nxt.append(z)
                frontier = nxt
            classes.append((x, tuple(members)))
        self._classes = classes
        return classes

    def class_map(self) -> dict:
        """Element -> index of its conjugacy class, built once per group
        (a shared dict: callers read it and do not change it)."""
        if self._class_of is None:
            self._class_of = {
                y: i for i, (_, members) in enumerate(self.conjugacy_classes())
                for y in members
            }
        return self._class_of


def check_normal(group: PermGroup, normal: PermGroup) -> None:
    """Verify that the declared normal subgroup really is one."""
    if normal.degree != group.degree:
        raise ValueError("subgroup acts on a different set")
    gset = set(group.elements)
    nset = set(normal.elements)
    if not nset <= gset:
        raise ValueError("declared subgroup is not contained in the group")
    for g in group.generators:
        ginv = _invert(g)
        for x in normal.elements:
            if _compose(_compose(g, x), ginv) not in nset:
                raise ValueError("declared normal subgroup is not normal")


def coset_representatives(group: PermGroup, normal: PermGroup) -> list[tuple]:
    """Coset reps of the subgroup, in enumeration order, identity first."""
    reps = []
    covered = set()
    for x in group.elements:
        if x in covered:
            continue
        reps.append(x)
        covered.update(_compose(x, u) for u in normal.elements)
    return reps


# -- Dixon character tables ---------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _dixon_prime(order: int, exponent: int) -> int:
    p = exponent + 1
    while not (_is_prime(p) and p * p > 4 * order and order % p):
        p += exponent
    return p


def _primitive_root(p: int) -> int:
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root found")


class CharacterTable:
    """Exact character table: classes, cyclotomic rows, orthogonality."""

    __slots__ = ("group", "reps", "sizes", "conductor", "rows", "degrees")

    def __init__(self, group, reps, sizes, conductor, rows):
        self.group = group
        self.reps = tuple(reps)
        self.sizes = tuple(sizes)
        self.conductor = conductor
        self.rows = tuple(tuple(r) for r in rows)
        self.degrees = tuple(
            int(row[0].rational()) for row in self.rows
        )

    def restriction(self, row_index: int, subgroup: PermGroup) -> tuple:
        """The row restricted to the classes of a subgroup."""
        row, class_of = self.rows[row_index], self.group.class_map()
        return tuple(row[class_of[rep]] for rep, _ in subgroup.conjugacy_classes())

    def verify_orthogonality(self) -> bool:
        """Both orthogonality relations and the degree sum, exactly.

        The check runs in integers: the coordinates are scaled by their
        common denominator den, each value is conjugated once, and each
        inner product is summed as a polynomial in zeta with exponents
        mod n, reduced modulo Phi_n once and compared with order * den^2
        (rows) or (order / size) * den^2 (columns).  Every value must lie
        in Q(zeta_n) for the conductor n.
        """
        n = self.conductor
        if any(v.n != n for row in self.rows for v in row):
            raise ValueError("cyclotomic orders differ; promote first")
        den = lcm(
            *(c.denominator for row in self.rows for v in row for c in v.coeffs)
        )
        values = [
            [[(k, int(c * den)) for k, c in enumerate(v.coeffs) if c] for v in row]
            for row in self.rows
        ]
        conjugates = [[[(-k % n, c) for k, c in v] for v in row] for row in values]
        want = self.group.order * den * den

        def inner(xs, ys, weights) -> list[int]:
            acc = [0] * n
            for w, x, y in zip(weights, xs, ys):
                for i, a in x:
                    for k, b in y:
                        acc[(i + k) % n] += w * a * b
            return _mod_phi(acc, n)

        for a, xs in enumerate(values):
            for b, ys in enumerate(conjugates):
                got = inner(xs, ys, self.sizes)
                if got[0] != (want if a == b else 0) or any(got[1:]):
                    return False
        ones = [1] * len(self.rows)
        conjugate_columns = list(zip(*conjugates))
        for i, (xs, size) in enumerate(zip(zip(*values), self.sizes)):
            for j, ys in enumerate(conjugate_columns):
                got = inner(xs, ys, ones)
                constant_ok = got[0] * size == want if i == j else got[0] == 0
                if not constant_ok or any(got[1:]):
                    return False
        return sum(d * d for d in self.degrees) == self.group.order

    def to_json(self) -> dict:
        return {
            "order": self.group.order,
            "classes": [
                {"representative": list(rep), "size": size}
                for rep, size in zip(self.reps, self.sizes)
            ],
            "conductor": self.conductor,
            "degrees": list(self.degrees),
            "rows": [[v.to_json() for v in row] for row in self.rows],
        }


def _kernel_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel of a nonempty integer matrix mod a prime p,
    entries in 0..p-1: one vector per free column of the reduced row
    echelon form, 1 there and 0 at the other free columns."""
    m = [[x % p for x in row] for row in rows]
    ncols = len(m[0])
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        top = m[row] = [x * inv % p for x in m[row]]
        for i, other in enumerate(m):
            f = other[col]
            if f and i != row:
                m[i] = [(x - f * y) % p for x, y in zip(other, top)]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = 1
        for row, col in zip(m, pivots):
            vec[col] = -row[free] % p
        basis.append(vec)
    return basis


def _charpoly_mod(a: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial det(tI - A) of a square integer matrix
    mod a prime p, ascending coefficients in 0..p-1.

    A is reduced mod p to upper Hessenberg form H by similarity (each row
    operation is undone on the columns), and the polynomials p_m of the
    leading m x m blocks of H follow the recurrence
    p_m = (t - h_mm) p_(m-1) - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_(i-1)
    (Cohen, *A Course in Computational Algebraic Number Theory*, 2.2.9).
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for m in range(n):
        # t p_(m-1) - h_mm p_(m-1), then the terms of the rows above
        prev = polys[-1]
        new = [0] + prev
        for k, c in enumerate(prev):
            new[k] = (new[k] - h[m][m] * c) % p
        chain = 1
        for i in range(m - 1, -1, -1):
            chain = chain * h[i + 1][i] % p
            if not chain:
                break
            f = h[i][m] * chain % p
            for k, c in enumerate(polys[i]):
                new[k] = (new[k] - f * c) % p
        polys.append(new)
    return polys[-1]


def _roots_mod(poly: list[int], p: int) -> list[int]:
    """The t in 0..p-1 with poly(t) = 0 mod p, in rising order (Horner)."""
    roots = []
    for t in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * t + c) % p
        if not acc:
            roots.append(t)
    return roots


def character_table(group: PermGroup) -> CharacterTable:
    """Dixon's method: diagonalize the class algebra mod p, then lift."""
    if group._table is not None:
        return group._table
    classes = group.conjugacy_classes()
    r = len(classes)
    reps = [rep for rep, _ in classes]
    sizes = [len(members) for _, members in classes]
    class_of = group.class_map()
    e = group.exponent()
    p = _dixon_prime(group.order, e)

    # split GF(p)^r into the joint eigenlines of the class sums
    spaces = [[[int(i == j) for i in range(r)] for j in range(r)]]
    for _, members in classes[1:]:
        if all(len(s) == 1 for s in spaces):
            break
        # the class sum as sparse rows: entry (j, k) counts the x in the
        # class with x^-1 z_k in class j
        mat = [{} for _ in range(r)]
        for x in map(_invert, members):
            for k, zk in enumerate(reps):
                row = mat[class_of[_compose(x, zk)]]
                row[k] = row.get(k, 0) + 1
        dense = [[row.get(k, 0) for k in range(r)] for row in mat]
        eigenvalues = _roots_mod(_charpoly_mod(dense, p), p)
        mat = [list(row.items()) for row in mat]
        refined = []
        for basis in spaces:
            d = len(basis)
            if d == 1:
                refined.append(basis)
                continue
            images = [[sum(c * vec[k] for k, c in row) for row in mat] for vec in basis]
            coords = list(zip(zip(*basis), zip(*images)))
            # each kernel vector c of M B - t B gives an eigenvector B c for
            # t; eigenvectors for distinct t are independent, so kernels of
            # total dimension d show that B spans an invariant subspace.
            # Every t with a kernel is an eigenvalue of M, a root of its
            # characteristic polynomial, so only those are tried
            found = 0
            for t in eigenvalues:
                kern = _kernel_mod(
                    [[y - t * x for x, y in zip(xs, ys)] for xs, ys in coords], p
                )
                if kern:
                    refined.append(
                        [[sum(map(mul, c, col)) % p for col in zip(*basis)] for c in kern]
                    )
                    found += len(kern)
                    if found == d:
                        break
            if found != d:
                raise AssertionError("class-sum matrix failed to diagonalize")
        spaces = refined
    if not all(len(s) == 1 for s in spaces):
        raise AssertionError("class algebra did not split into lines")

    omegas = []
    for (vec,) in spaces:
        lead = pow(vec[0], -1, p)
        omegas.append([x * lead % p for x in vec])

    inv_class = [class_of[_invert(rep)] for rep in reps]
    rows_modp = []
    degrees = []
    for w in omegas:
        s = sum(
            w[j] * w[inv_class[j]] * pow(sizes[j], p - 2, p) for j in range(r)
        ) % p
        d2 = (group.order * pow(s, p - 2, p)) % p
        d = next(t for t in range(1, p // 2 + 1) if (t * t) % p == d2)
        degrees.append(d)
        rows_modp.append(
            [(d * w[j] * pow(sizes[j], p - 2, p)) % p for j in range(r)]
        )

    g0 = _primitive_root(p)
    z_e = pow(g0, (p - 1) // e, p)
    power_class = []
    for rep in reps:
        m = _perm_order(rep)
        chain = []
        cur = group.identity
        for _ in range(m):
            chain.append(class_of[cur])
            cur = _compose(rep, cur)
        power_class.append(chain)

    rows = []
    for d, chi in zip(degrees, rows_modp):
        row = []
        for j in range(r):
            m = len(power_class[j])
            w = pow(z_e, e // m, p)
            inv_m = pow(m, p - 2, p)
            coeffs = [0] * e
            total = 0
            for k in range(m):
                acc = 0
                for u in range(m):
                    acc += chi[power_class[j][u]] * pow(w, (-k * u) % m, p)
                mk = (acc * inv_m) % p
                if mk > d:
                    raise AssertionError("eigenvalue multiplicity escaped its bound")
                total += mk
                if mk:
                    coeffs[(k * (e // m)) % e] += mk
            if total != d:
                raise AssertionError("multiplicities do not sum to the degree")
            row.append(Cyc(e, coeffs))
        rows.append(row)

    rows.sort(key=lambda row: (int(row[0].rational()), [v.coeffs for v in row]))
    table = CharacterTable(group, reps, sizes, e, rows)
    if not table.verify_orthogonality():
        raise AssertionError("character table failed exact orthogonality")
    group._table = table
    return table


# -- Clifford orbits and counting ---------------------------------------------


class CliffordOrbit:
    """One orbit of the conjugation action on the characters of the subgroup."""

    __slots__ = ("members", "stabilizer")

    def __init__(self, members, stabilizer):
        self.members = tuple(members)
        self.stabilizer = stabilizer


def clifford_orbits(group: PermGroup, normal: PermGroup) -> list[CliffordOrbit]:
    """Orbits of the character rows of the subgroup under conjugation.

    A coset representative g sends a character phi to phi^g with
    phi^g(x) = phi(g x g^{-1}); the stabilizer of each orbit
    representative is returned as a subgroup containing the normal one.
    """
    check_normal(group, normal)
    table = character_table(normal)
    class_of = normal.class_map()
    row_index = {row: i for i, row in enumerate(table.rows)}
    reps = coset_representatives(group, normal)

    def act(g, row_i):
        ginv = _invert(g)
        moved = tuple(
            table.rows[row_i][class_of[_compose(_compose(g, rep), ginv)]]
            for rep, _ in normal.conjugacy_classes()
        )
        return row_index[moved]

    orbits = []
    assigned = set()
    for start in range(len(table.rows)):
        if start in assigned:
            continue
        members = []
        stab_cosets = []
        for g in reps:
            image = act(g, start)
            if image == start:
                stab_cosets.append(g)
            if image not in members:
                members.append(image)
        assigned.update(members)
        if len(stab_cosets) == len(reps):
            stabilizer = group
        elif len(stab_cosets) == 1:
            stabilizer = normal
        else:
            stabilizer = PermGroup.from_elements(
                group.degree,
                [_compose(g, u) for g in stab_cosets for u in normal.elements],
                bound=group.order + 1,
            )
        orbits.append(CliffordOrbit(sorted(members), stabilizer))
    return orbits


class CliffordCount:
    """Predicted character count over a normal subgroup, with the breakdown."""

    __slots__ = ("orbits", "breakdown", "predicted", "direct", "matches")

    def __init__(self, orbits, breakdown, predicted, direct):
        self.orbits = orbits
        self.breakdown = tuple(breakdown)
        self.predicted = predicted
        self.direct = direct
        self.matches = predicted == direct

    def to_json(self) -> dict:
        return {
            "predicted": self.predicted,
            "direct": self.direct,
            "matches": self.matches,
            "flagged_orbits": [
                pos for pos, b in enumerate(self.breakdown) if not b["extends"]
            ],
            "breakdown": [dict(b) for b in self.breakdown],
        }


def clifford_count(group: PermGroup, normal: PermGroup) -> CliffordCount:
    """Count the characters of the group from the orbits over the subgroup.

    By the Clifford correspondence (Isaacs, *Character Theory of Finite
    Groups*, Thm 6.11) induction is a bijection from the characters of
    the stabilizer T lying over an orbit representative phi to those of
    the group lying over its orbit.  T fixes phi, so psi in Irr(T) lies
    over phi exactly when phi(1) Res psi = psi(1) phi; the orbit
    contributes the number of such psi, and phi extends when one of them
    has degree phi(1).  The total is compared with the directly computed
    table of the full group.
    """
    orbits = clifford_orbits(group, normal)
    table_n = character_table(normal)
    predicted = 0
    breakdown = []
    for orbit in orbits:
        table_s = character_table(orbit.stabilizer)
        phi = orbit.members[0]
        d_phi = table_n.degrees[phi]
        target = [
            v.promote(table_s.conductor).coeffs
            for v in table_n.restriction(phi, normal)
        ]
        over = [
            d
            for i, d in enumerate(table_s.degrees)
            if all(
                [c * d_phi for c in v.coeffs] == [c * d for c in t]
                for v, t in zip(table_s.restriction(i, normal), target)
            )
        ]
        breakdown.append(
            {
                "orbit": list(orbit.members),
                "stabilizer_order": orbit.stabilizer.order,
                "extends": d_phi in over,
                "contribution": len(over),
            }
        )
        predicted += len(over)
    direct = len(character_table(group).rows)
    return CliffordCount(orbits, breakdown, predicted, direct)


def weyl_permutation_group(elements, system, bound: int = 2000) -> PermGroup:
    """Weyl elements of the system as permutations of its roots."""
    elements = list(elements)
    foreign = (w for w in elements if w.system is not system)
    if any(w.system.roots != system.roots for w in foreign):
        raise ValueError("Weyl elements do not act on the roots of this system")
    return PermGroup.from_elements(
        len(system.roots), [w.perm for w in elements], bound=bound
    )
