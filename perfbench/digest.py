"""Digests of task outputs that do not depend on how a value is stored.

Every scalar-valued quantity is evaluated exactly at fixed rational points
through the public ``specialize`` methods, and torus fractions through
their numerator monomials and ``pole_list()``.  A Weyl group element is
described by its action on the simple roots, and a cyclotomic number by its
coordinates over the smallest cyclotomic field that holds it.  Two outputs
that are equal as values give the same digest, whatever normal form the
library keeps; a wrong value changes it.  Collections whose order carries
no meaning are wrapped in ``Unordered`` by the workloads.

At each point q, every torus coordinate x_i and every root of them up to
the 12th is rational (q = (3/2)^12, x_i = r_i^12), so half-lattice
exponents and fractional q-powers evaluate exactly.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction as Q
from math import gcd

ROOT_INDEX = 12
POINTS = (
    {"q": Q(3, 2), "t": Q(5, 3), "v": Q(7, 11), "x": (Q(2, 3), Q(5, 4), Q(3, 7), Q(7, 5))},
    {"q": Q(4, 5), "t": Q(-3, 7), "v": Q(13, 5), "x": (Q(3, 2), Q(4, 7), Q(9, 5), Q(5, 11))},
)


class DigestError(ValueError):
    """An output could not be evaluated exactly at a digest point."""


class Unordered(list):
    """A collection whose order carries no meaning; digested as a multiset."""


def _root_pow(root: Q, exp: Q) -> Q:
    """(root^ROOT_INDEX) ** exp, exactly."""
    scaled = Q(exp) * ROOT_INDEX
    if scaled.denominator != 1:
        raise DigestError(f"exponent {exp} has a root index above {ROOT_INDEX}")
    return root ** int(scaled)


def _scalar(c, pt) -> Q:
    return c.specialize(pt["q"] ** ROOT_INDEX, pt["t"], pt["v"])


def _torus_fraction(f, pt) -> Q:
    num = Q(0)
    for x, c in f.num.items():
        mono = Q(1)
        for r, e in zip(pt["x"], x):
            mono *= _root_pow(r, e)
        num += _scalar(c, pt) * mono
    den = Q(1)
    for beta, c, mult in f.pole_list():
        mono = Q(1)
        for r, e in zip(pt["x"], beta):
            mono *= _root_pow(r, e)
        den *= (mono - _scalar(c, pt)) ** mult
    if den == 0:
        raise DigestError("output has a pole at a digest point")
    return num / den


def _qpower(x, pt):
    """A torus coordinate zeta * q^a * m as (angle of zeta, q^a * m at pt).

    The root of unity is kept by its angle, which QPower normalises to
    [0, 1); the rest is evaluated through the public ``specialize``."""
    from qtalg.scalars import QPower

    unit = QPower(rot=x.rot)
    return (str(x.rot), str((x / unit).specialize(pt["q"] ** ROOT_INDEX)))


def _solve(rows: list[list[Q]], rhs: list[Q]) -> list[Q] | None:
    """The solution of rows * c = rhs (full column rank), or None if none."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    cols, pivots, r = len(rows[0]), [], 0
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] for row in m[r:]):
        return None
    out = [Q(0)] * cols
    for i, c in enumerate(pivots):
        out[c] = m[i][-1]
    return out


def cyclotomic(x) -> tuple:
    """(d, coordinates) of a cyclotomic number over Q(zeta_d), d smallest.

    Q(zeta_d) for d dividing n is the subfield of Q(zeta_n) fixed by the
    substitutions zeta -> zeta^t with t = 1 mod d; the smallest such d whose
    field holds x does not depend on the n x is stored with."""
    from qtalg.clifford import Cyc

    n = x.n
    for d in (d for d in range(1, n + 1) if n % d == 0):
        subgroup = [t for t in range(1, n + 1) if gcd(t, n) == 1 and t % d == 1 % d]
        if all(x.galois(t) == x for t in subgroup):
            basis = [Cyc.zeta(d, k).promote(n).coeffs for k in range(len(Cyc.one(d).coeffs))]
            coords = _solve([list(col) for col in zip(*basis)], list(x.coeffs))
            if coords is None:
                raise DigestError(f"{x} is fixed by the subgroup but not in Q(zeta_{d})")
            return d, tuple(str(c) for c in coords)
    raise DigestError(f"no subfield found for {x}")


def _zpoly(p, pt) -> Q:
    z = pt["x"][0]
    return sum((_scalar(c, pt) * z**m for m, c in p.coeffs.items()), Q(0))


def canonical(obj, pt):
    """A plain, order-independent structure with every value evaluated at pt."""
    from qtalg import clifford, daha, loopjordan, rootdata, scalars, torusfn

    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Q):
        return str(obj)
    if isinstance(obj, scalars.Scalar):
        return str(_scalar(obj, pt))
    if isinstance(obj, scalars.QPower):
        return ("QPower",) + _qpower(obj, pt)
    if isinstance(obj, torusfn.TorusFraction):
        return str(_torus_fraction(obj, pt))
    if isinstance(obj, rootdata.WeylElement):
        rank = obj.system.rank
        unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        return ("W", tuple(tuple(obj.act_root(e)) for e in unit))
    if isinstance(obj, clifford.Cyc):
        return ("Cyc",) + cyclotomic(obj)
    if isinstance(obj, daha.DiffRefOperator):
        return sorted(
            (repr(canonical(w, pt)), repr(canonical(tuple(mu), pt)), canonical(f, pt))
            for (w, mu), f in obj.terms.items()
        )
    if isinstance(obj, loopjordan.ZPoly):
        return str(_zpoly(obj, pt))
    if isinstance(obj, loopjordan.MatrixLoop):
        return [[canonical(p, pt) for p in row] for row in obj.rows]
    if isinstance(obj, Unordered):
        return sorted((canonical(v, pt) for v in obj), key=repr)
    if isinstance(obj, dict):
        return sorted((repr(canonical(k, pt)), canonical(v, pt)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canonical(v, pt) for v in obj]
    raise DigestError(f"no digest rule for {type(obj).__name__}")


def digest(output) -> str:
    """Hex digest of an output, evaluated at every point of POINTS."""
    text = repr([canonical(output, pt) for pt in POINTS])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
