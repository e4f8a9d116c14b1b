"""Hand-written second implementations, kept as test oracles.

:mod:`qtalg` computes each of these objects once, through its general
code: the node-0 cocycle through ``TorusFraction.ratio``, the involution
Xi through ``HeckeExpression`` arithmetic, the spherical idempotents
through Macdonald's product formula, every torus-point product,
isotropy shift and torus witness on the integer form of a ``Character``,
evaluations and residues on a divisor e^alpha = tau on the monomial
data of tau and of the stored factors, and the membership rules by zero
tests on unreduced restrictions.  This is the earlier code, which
built them by hand: the cocycle over an explicit two-monomial
denominator, Xi by expanding each word atom by atom, the idempotents as
sums of |W| generator words, each pushed through the operator products of
``HeckeExpression.to_operator``, the point products
as explicit loops of ``QPower`` powers, the shifts from ``QPower`` ratios
and the rational inverse of the pairing, the divisor code through
``Scalar`` powers, products and differences of tau and of each factor
value, membership by reduced residues and evaluations, and the
transversal of a component group by a search of the cosets of its
reflection subgroup.

The earlier operator product, one partial product per term pair
(:func:`plain_product`), and the earlier braid sides, each built on its
own (:func:`sequential_braid_sides`), are kept here too.  The evaluation
of operator coefficients at rational points from their JSON form by
``Scalar.specialize`` alone (:func:`specialize_operator`) has no library
counterpart: it checks symbolic-v operators against numeric-v builds.
The spherical check of v = 1 with its hard-coded right ratio R_i
(:func:`check_spherical_v1`) is the earlier form of ``check_spherical``,
which now takes the ratio of the product formula at any v.
"""

from fractions import Fraction as Q

from qtalg import torusfn
from qtalg.daha import DiffRefOperator, _as_v, _term_json, _violation, dl_operator
from qtalg.errors import PoleError
from qtalg.linalg import is_integral, mat_inv, mat_vec
from qtalg.mlambda import Character
from qtalg.scalars import LaurentPoly, QPower, Scalar, _as_scalar, _norm
from qtalg.spherical import (
    HeckeExpression,
    SphericalReport,
    _failure,
    deformed_y,
    poincare_sum,
)
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


def plain_product(a, b):
    """Composition with one partial product h1 * h2.transport(w1, m1) per
    term pair, summed per key: no equal factors collected."""
    pair = a.pair
    groups: dict = {}
    for (w1, m1), h1 in a.terms.items():
        for (w2, m2), h2 in b.terms.items():
            key = (w1 * w2, tuple(x + y for x, y in zip(m1, pair.act_y(w1, m2))))
            groups.setdefault(key, []).append(h1.mul_unreduced(h2.transport(w1, m1)))
    terms = {key: TorusFraction.sum(pair, parts) for key, parts in groups.items()}
    return DiffRefOperator(pair, terms)


def alternating_product(a, b, m: int):
    """a b a ... of m letters, one letter at a time from the identity."""
    out = DiffRefOperator.identity(a.pair)
    for k in range(m):
        out = plain_product(out, a if k % 2 == 0 else b)
    return out


def sequential_braid_sides(pair, i: int, j: int, v=None):
    """T_i T_j T_i ... and T_j T_i T_j ... of Coxeter length m(i, j), each
    side built on its own."""
    m = pair.system.affine_coxeter_m(i, j)
    a, b = dl_operator(pair, i, v), dl_operator(pair, j, v)
    return alternating_product(a, b, m), alternating_product(b, a, m)


def _torus_value(exponent, roots) -> Q:
    """e^x at the point e^{x_i} = roots[i]^2, x a half-lattice point."""
    out = Q(1)
    for e, r in zip(exponent, roots):
        out *= r ** int(2 * Q(e))
    return out


def specialize_operator(op, q0, t0, v0, roots) -> dict:
    """(word, mu) -> the value of each nonzero coefficient at q = q0,
    t = t0, v = v0 and e^{x_i} = roots[i]^2, read from the JSON form by
    Scalar.specialize: no torus fraction arithmetic."""
    out = {}
    for item in op.to_json():
        value = Q(0)
        for term in item["coeff"]["num"]:
            c = Scalar.from_json(term["coeff"]).specialize(q0, t0, v0)
            value += c * _torus_value(term["exponent"], roots)
        for f in item["coeff"]["den"]:
            c = Scalar.from_json(f["value"]).specialize(q0, t0, v0)
            value /= _torus_value(f["direction"], roots) - c
        if value:
            out[(tuple(item["w"]), tuple(item["mu"]))] = value
    return out


# two generic rational points; q0 = (2/3)^6 has exact square and cube roots
SPECIALIZATION_POINTS = [
    (Q(64, 729), Q(3, 5), (Q(5, 7), Q(11, 13), Q(17, 19))),
    (Q(729, 64), Q(-7, 4), (Q(-3, 2), Q(13, 5), Q(2, 9))),
]


def specialize_at_points(op, v0) -> list[dict]:
    """:func:`specialize_operator` at v = v0 and each of the two points."""
    return [
        specialize_operator(op, q0, t0, v0, roots)
        for q0, t0, roots in SPECIALIZATION_POINTS
    ]


def _idempotent_word(system, v, sign: bool) -> HeckeExpression:
    """e_v, or eps_v for sign=True, as a generator-word expression.

    The weight of w is y^{-l(w)} / W(t/y) for e_v and (-t)^{-l(w)} / W(y/t)
    for eps_v.  A vanishing normalization raises ValueError; for e_v a
    vanishing y raises ZeroDivisionError first, when it is inverted.
    """
    v = _as_v(v)
    y = deformed_y(v)
    if sign:
        norm = poincare_sum(system, y * Scalar.t().inverse())
        base = (Scalar.const(-1) * Scalar.t()).inverse()
    else:
        norm = poincare_sum(system, Scalar.t() * y.inverse())
        base = y.inverse()
    if norm.is_zero():
        raise ValueError("normalization vanishes")
    norm_inv = norm.inverse()
    terms = {
        tuple(("T", i + 1) for i in w.word): norm_inv * base**w.length
        for w in system.elements
    }
    return HeckeExpression(v, terms)


def symmetrizer_word(system, v=None) -> HeckeExpression:
    """e_v as a generator-word expression."""
    return _idempotent_word(system, v, sign=False)


def antisymmetrizer_word(system, v=None) -> HeckeExpression:
    """eps_v as a generator-word expression, normalized to be idempotent."""
    return _idempotent_word(system, v, sign=True)


def idempotent_e_v(pair, v=None):
    """e_v as the operator of its generator words."""
    return symmetrizer_word(pair.system, v).to_operator(pair)


def idempotent_eps_v(pair, v=None):
    """eps_v as the operator of its generator words."""
    return antisymmetrizer_word(pair.system, v).to_operator(pair)


# -- the spherical check at v = 1 -------------------------------------------------


def spherical_ratio_v1(pair, node: int) -> TorusFraction:
    """R_i = (t^2 e^{a_i} - 1)/(e^{a_i} - t^2), the right ratio of v = 1."""
    alpha = pair.simple_root_x(node - 1)
    t2 = Scalar.t() * Scalar.t()
    zero = (0,) * pair.rank
    return TorusFraction.ratio(pair, {alpha: t2, zero: Scalar.const(-1)}, [(alpha, t2)])


def check_spherical_v1(h) -> SphericalReport:
    """The spherical check of v = 1 as first written: the right ratio taken
    as the fraction R_i, compared term by term without cross-multiplying."""
    pair = h.pair
    system = pair.system
    zero = TorusFraction.zero(pair)
    failures = []
    checked = 0
    keys = sorted(h.terms, key=lambda key: (key[0].length, key[0].word, key[1]))
    for node in range(1, system.rank + 1):
        si = system.simple_reflection(node - 1)
        ratio = spherical_ratio_v1(pair, node)
        for w, mu in keys:
            coeff = h.terms[(w, mu)]
            checked += 1
            mirrored = h.terms.get((si * w, pair.act_y(si, mu)), zero)
            if mirrored != coeff.weyl_act(si):
                failures.append(_failure("left-equivariance", node, w, mu))
            right = h.terms.get((w * si, mu), zero)
            if right != coeff * ratio.transport(w, mu):
                failures.append(_failure("right-ratio", node, w, mu))
    return SphericalReport(failures, checked)


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


def times_q_y(lam: Character, pair, y) -> Character:
    """lambda * q^y: coordinate i times q^{<b_i, y>}."""
    n = lam.rank
    exps = [sum(pair.pairing[i][j] * y[j] for j in range(n)) for i in range(n)]
    return Character(tuple(v * QPower.q(e) for v, e in zip(lam.values, exps)))


def q_shift_to(pair, lam: Character, other: Character):
    """The y with other = lam * q^y: the coordinate ratios must be plain
    q-powers, and y solves <b_i, y> = d_i through the rational inverse of
    the pairing."""
    exps = []
    for new, old in zip(other.values, lam.values):
        e = (new / old).plain_q_exponent()
        if e is None:
            return None
        exps.append(e)
    y = mat_vec(mat_inv(pair.pairing), exps)
    return tuple(int(v) for v in y) if is_integral(y) else None


def isotropy_shifts(pair, lam: Character) -> dict:
    """w -> y_w for every w with w(lambda) = lambda * q^{y_w}."""
    shifts = {}
    for w in pair.system.elements:
        y = q_shift_to(pair, lam, weyl_act(lam, pair, w))
        if y is not None:
            shifts[w] = y
    return shifts


def constants_equivalent(pair, s1, s2):
    """The first (w, y) in W with s2 = w(s1) * q^y on the X basis, or None."""
    lam1, lam2 = character_on_x(pair, s1), character_on_x(pair, s2)
    for w in pair.system.elements:
        y = q_shift_to(pair, weyl_act(lam1, pair, w), lam2)
        if y is not None:
            return w, y
    return None


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


# -- divisors through Scalar arithmetic ------------------------------------------


def scalar_frac_power(tau: Scalar, k) -> Scalar:
    """tau^k for monomial tau; fractional k needs unit coefficient."""
    if k.denominator == 1:
        return tau ** int(k)
    (qe, te, ve), coeff = tau.as_monomial()
    texp, vexp = te * k, ve * k
    if texp.denominator != 1 or vexp.denominator != 1 or coeff != 1:
        raise ValueError(f"cannot take power {k} of the monomial {tau}")
    return Scalar.monomial(qexp=qe * k, texp=int(texp), vexp=int(vexp))


def divisor(alpha, tau, what: str) -> tuple[tuple[int, ...], Scalar]:
    """The divisor e^alpha = tau as given, checked: alpha a nonzero integer
    vector and tau a nonzero Scalar."""
    tau = tau if isinstance(tau, Scalar) else Scalar.const(tau)
    if tau.is_zero():
        raise ValueError("divisor value must be nonzero")
    alpha = tuple(int(a) for a in alpha)
    if not any(alpha):
        raise ValueError(f"{what} direction must be nonzero")
    return alpha, tau


def positive(alpha: tuple[int, ...], tau: Scalar) -> tuple[tuple[int, ...], Scalar]:
    """The same divisor with the first nonzero coordinate of alpha positive:
    e^-alpha = 1/tau is e^alpha = tau."""
    if next(a for a in alpha if a) > 0:
        return alpha, tau
    return tuple(-a for a in alpha), tau.inverse()


def matching_factors(f: TorusFraction, alpha, tau: Scalar) -> list:
    """(factor, k) for the factors e^{k alpha} - tau^k of f, k > 0, with
    (alpha, tau) turned positive, found by the ratios beta_i / alpha_i."""
    alpha, tau = positive(alpha, tau)
    out = []
    for g in f.factors:
        beta = g[0]
        ratios = {Q(b, a) for a, b in zip(alpha, beta) if a != 0}
        if len(ratios) != 1:
            continue
        k = ratios.pop()
        if k.denominator != 1 or k <= 0:
            continue
        k = int(k)
        if beta != tuple(k * a for a in alpha):
            continue
        if torusfn._factor_value(g) == tau**k:
            out.append((g, k))
    return out


def canonicalize_factor(f, unit: dict):
    """Flip e^beta - c so the first nonzero coordinate of beta is positive,
    and multiply the numerator unit by what the flip leaves:
    1/(e^beta - c) = (-c^{-1} e^{-beta}) / (e^{-beta} - c^{-1})."""
    beta, (qe, te, ve), coeff = f
    if next(v for v in beta if v) > 0:
        return f, unit
    neg = tuple(-b for b in beta)
    inv_key = (-qe, -te, -ve)
    flipped = (neg, inv_key, 1 / coeff)
    return flipped, torusfn._num_mul(unit, {neg: LaurentPoly.monomial(*inv_key, coeff=-1 / coeff)})


def evaluate_at(f: TorusFraction, alpha, tau) -> TorusFraction:
    """f on e^alpha = tau, each power of tau and each moved factor value a
    Scalar."""
    alpha, tau = divisor(alpha, tau, "evaluation")
    if matching_factors(f, alpha, tau):
        raise PoleError(f"pole on the divisor e^{list(alpha)} = {tau}")
    _, content, row = torusfn._beta_coordinate(alpha)
    if content != 1:
        raise ValueError("evaluation direction must be primitive")

    def coordinate(x):
        return _norm(sum(r * v for r, v in zip(row, x)))

    acc: dict = {}
    for x, p in f.polys.items():
        k = coordinate(x)
        key = tuple(_norm(v - k * a) for v, a in zip(x, alpha))
        power = scalar_frac_power(tau, k).as_monomial()
        torusfn._add_into(acc, key, torusfn._times_monomial(p, *power).terms)
    unit = {torusfn._xkey((0,) * f.pair.rank): torusfn._ONE}
    den = f.den
    factors = []
    for g in f.factors:
        beta, c = g[0], torusfn._factor_value(g)
        k = coordinate(beta)
        new_beta = tuple(b - k * a for b, a in zip(beta, alpha))
        if not any(new_beta):
            value = tau**k - c
            unit = {x: p * value.den for x, p in unit.items()}
            den = den * value.num
            continue
        shift = tau**-k
        key, coeff = shift.as_monomial()
        unit = {x: torusfn._times_monomial(p, key, coeff) for x, p in unit.items()}
        nf = torusfn._make_factor(new_beta, c * shift)
        nf, unit = canonicalize_factor(nf, unit)
        factors.append(nf)
    num = torusfn._num_mul(torusfn._collect(acc), unit)
    return TorusFraction(f.pair, (num, den), tuple(factors))


def residue(f: TorusFraction, alpha, tau) -> TorusFraction:
    """The value of (e^alpha - tau) f on e^alpha = tau, through Scalar
    powers of tau."""
    alpha, tau = divisor(alpha, tau, "residue")
    positive_divisor = positive(alpha, tau)
    if positive_divisor[0] != alpha:
        return residue(f, *positive_divisor).scale(-(tau**2))
    matching = matching_factors(f, alpha, tau)
    if not matching:
        return TorusFraction.zero(f.pair)
    if len(matching) > 1:
        raise PoleError(f"pole of order {len(matching)} on e^{list(alpha)} = {tau}")
    [(g, k)] = matching
    remaining = list(f.factors)
    remaining.remove(g)
    peeled = TorusFraction._stored(f.pair, f.polys, f.den, remaining)
    value = evaluate_at(peeled, alpha, tau)
    if k != 1:
        value = value.scale((Scalar.const(k) * tau ** (k - 1)).inverse())
    return value


def pole_order(f: TorusFraction, alpha, tau) -> int:
    return len(matching_factors(f, *divisor(alpha, tau, "pole")))


def pure_even_q_power(value: Scalar):
    """The exponent a when value = q^a with a an even integer, else None,
    read through the Scalar value of a pole."""
    if not value.is_monomial():
        return None
    (dq, dt, dv), coeff = value.as_monomial()
    if dt or dv or coeff != 1:
        return None
    if dq.denominator != 1 or int(dq) % 2:
        return None
    return int(dq)


def check_membership(op) -> dict:
    """The three membership rules, each residue and each value on a
    divisor a reduced fraction through the Scalar-path code above."""
    pair = op.pair
    system = pair.system
    violations: list[dict] = []
    pos_roots_x = pair.positive_roots_x()
    order = op.support()
    clean_poles: dict = {}
    for key in order:
        for beta, value, mult in op.terms[key].pole_list():
            a = pure_even_q_power(value)
            if beta not in pos_roots_x and tuple(-b for b in beta) not in pos_roots_x:
                detail = "pole direction is not a root"
            elif a is None:
                detail = "pole value is not an even power of q"
            elif mult > 1:
                detail = f"pole order {mult} > 1"
            else:
                clean_poles.setdefault((beta, a), []).append(key)
                continue
            violations.append(_violation("pole-location", detail, key, beta, value))
    zero_fn = TorusFraction.zero(pair)
    seen = set()
    for (alpha, a), keys in sorted(clean_poles.items()):
        k = -a // 2
        root = pair.x_to_root(alpha)
        s_alpha = system.reflection(root)
        coroot_y = pair.coroot_to_y(system.coroot_of(root))
        tau = Scalar.q(a)
        for key in keys:
            w, mu = key
            moved = pair.act_y(s_alpha, mu)
            partner = (s_alpha * w, tuple(k * c + m for c, m in zip(coroot_y, moved)))
            pair_id = (alpha, a, frozenset((key, partner)))
            if pair_id in seen:
                continue
            seen.add(pair_id)
            res = residue(op.terms[key], alpha, tau)
            other = residue(op.terms.get(partner, zero_fn), alpha, tau)
            if not (res + other).is_zero():
                violations.append(
                    {
                        "rule": "residue-sum",
                        "term": _term_json(key),
                        "partner": _term_json(partner),
                        "divisor": {"alpha": list(alpha), "value": f"q^{a}"},
                        "detail": "residues do not cancel",
                    }
                )
    for key in order:
        w, mu = key
        h = op.terms[key]
        for alpha in pos_roots_x:
            pairing = pair.pair(alpha, mu)
            moved = pair.x_to_root(pair.act_x(w.inverse(), alpha))
            eps = 0 if system.is_positive_root(moved) else 1
            if pairing >= 0:
                taus = [Scalar.monomial(-2 * k, -2) for k in range(pairing + eps)]
            else:
                taus = [Scalar.monomial(2 * k, 2) for k in range(1, -pairing - eps + 1)]
            for tau in taus:
                try:
                    if evaluate_at(h, alpha, tau).is_zero():
                        continue
                    detail = "coefficient does not vanish"
                except PoleError:
                    detail = "pole where vanishing is required"
                violations.append(_violation("forced-vanishing", detail, key, alpha, tau))
    return {"ok": not violations, "violations": violations}


def component_transversal(cw) -> tuple[bool, tuple]:
    """(is_split, transversal) of a component group by the coset search:
    the isotropy elements keeping the positive q-centralizer roots positive
    when they are closed under products and meet every coset of the
    reflection subgroup once, else the shortest element of each coset."""
    system = cw.pair.system
    sub = set(cw.reflection_subgroup)
    pos = [r for r in cw.roots if system.is_positive_root(r)]
    keepers = {
        w
        for w in cw.isotropy.elements()
        if all(system.is_positive_root(tuple(w.act_root(r))) for r in pos)
    }
    cosets = {}
    for w in sorted(cw.isotropy.elements(), key=lambda x: (x.length, x.word)):
        cosets.setdefault(frozenset(w * u for u in sub), w)
    closed = all(x * y in keepers for x in keepers for y in keepers)
    one_per_coset = all(len(keepers & coset) == 1 for coset in cosets)
    split = closed and one_per_coset
    chosen = keepers if split else cosets.values()
    return split, tuple(sorted(chosen, key=lambda w: (w.length, w.word)))
