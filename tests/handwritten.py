"""Hand-written second implementations, kept as test oracles.

:mod:`qtalg` computes each of these objects once, through its general
code: the node-0 cocycle through ``TorusFraction.ratio``, the involution
Xi through ``HeckeExpression`` arithmetic, and every torus-point product
through ``Character.value``.  This is the earlier code, which built them
by hand: the cocycle over an explicit two-monomial denominator, Xi by
expanding each word atom by atom, and the point products as explicit
loops of coordinate powers.
"""

from fractions import Fraction as Q

from qtalg.daha import _as_v
from qtalg.mlambda import Character
from qtalg.scalars import QPower, Scalar, _as_scalar
from qtalg.spherical import HeckeExpression
from qtalg.torusfn import TorusFraction


def two_term_den(pair, num: dict, den: dict) -> TorusFraction:
    """num / den where den is an explicit two-monomial combination; the
    denominator is rewritten as unit * (e^beta - c)."""
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
    return TorusFraction.ratio(pair, num, [(beta, c)]) * TorusFraction(pair, inv_unit)


def node_zero_cocycle(pair, v) -> TorusFraction:
    """c_0 = v (t - 1/t) / (q^2 e^{-theta} - 1), over that two-term
    denominator."""
    v = _as_v(v)
    t = Scalar.t()
    top = v * (t - t.inverse())
    zero = (0,) * pair.rank
    minus_theta = tuple(-a for a in pair.theta_x())
    q2 = Scalar.q() * Scalar.q()
    return two_term_den(pair, {zero: top}, {minus_theta: q2, zero: Scalar.const(-1)})


def im_involution(expr: HeckeExpression) -> HeckeExpression:
    """T_i -> v(t - 1/t) - T_i, e^mu -> e^{-mu}, expanded atom by atom."""
    t = Scalar.t()
    d = expr.v * (t - t.inverse())
    minus_one = Scalar.const(-1)
    out: dict[tuple, Scalar] = {}
    for word, c in expr.terms.items():
        partial: dict[tuple, Scalar] = {(): c}
        for atom in word:
            kind, payload = atom
            if kind == "T":
                images = [((), d), ((atom,), minus_one)]
            else:
                flipped = ("X", tuple(-m for m in payload))
                images = [((flipped,), Scalar.one())]
            nxt: dict[tuple, Scalar] = {}
            for left, cl in partial.items():
                for right, cr in images:
                    key = left + right
                    cc = cl * cr
                    nxt[key] = nxt[key] + cc if key in nxt else cc
            partial = nxt
        for new_word, c2 in partial.items():
            out[new_word] = out[new_word] + c2 if new_word in out else c2
    return HeckeExpression(expr.v, out)


def _as_qpower(c) -> QPower:
    return c if isinstance(c, QPower) else QPower.of(c)


def weyl_act(lam: Character, pair, w) -> Character:
    """(w lambda)(x) = lambda(w^{-1} x), coordinate by coordinate."""
    m = pair.x_matrix(w.inverse())
    n = lam.rank
    vals = []
    for i in range(n):
        acc = QPower.one()
        for j in range(n):
            acc = acc * lam.values[j] ** m[j][i]
        vals.append(acc)
    return Character(tuple(vals))


def character_on_x(pair, coords) -> Character:
    """Character values on the X basis of a point given on simple coroots."""
    coords = tuple(_as_qpower(c) for c in coords)
    if pair.kind == "weight":
        return Character(coords)
    n = pair.system.rank
    cartan = pair.system.cartan
    vals = []
    for i in range(n):
        acc = QPower.one()
        for j in range(n):
            acc = acc * coords[j] ** int(cartan[i][j])
        vals.append(acc)
    return Character(tuple(vals))


def q_centralizer_roots(system, coords) -> tuple:
    """Roots alpha with alpha(s) an integral power of q."""
    coords = tuple(_as_qpower(c) for c in coords)
    n = system.rank
    cartan = system.cartan
    out = []
    for root in system.roots:
        val = QPower.one()
        for j in range(n):
            e = sum(root[i] * cartan[i][j] for i in range(n))
            val = val * coords[j] ** int(e)
        if val.integral_q_exponent() is not None:
            out.append(root)
    return tuple(sorted(out))
