"""End-to-end acceptance battery shared by the test suite and the CLI.

Each check is a pure function seed -> (ok, detail) exercising one headline
guarantee of the package; run_suite times them and merges the results by
check name, so the battery can be run whole or check by check.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from time import perf_counter

from .clifford import PermGroup, character_table, clifford_count, weyl_permutation_group
from .daha import (
    DiffRefOperator,
    check_membership,
    default_pair,
    dl_operator,
    relations_report,
)
from .errors import DegenerateFormError
from .loopjordan import (
    MatrixLoop,
    QNormalForm,
    ZPoly,
    component_weyl,
    diagonal_twist_match,
    q_conjugate,
    q_normal_form,
    solve_shift_equation,
    unipotent_parts_conjugate,
)
from .mlambda import (
    Character,
    WRep,
    WeightModule,
    Window,
    dimension_bookkeeping,
    vectors_equal,
)
from .qtorus import QuantumTorus, TorusElement, simplicity_witness
from .rootdata import LatticePair, RootSystem
from .scalars import QPower, Scalar
from .spherical import check_absorption, check_spherical, idempotent_e_v
from .torusfn import TorusFraction


class CheckResult:
    """Outcome of one acceptance check."""

    __slots__ = ("name", "ok", "seconds", "detail")

    def __init__(self, name: str, ok: bool, seconds: float, detail: str):
        self.name = name
        self.ok = ok
        self.seconds = seconds
        self.detail = detail

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"{verdict} {self.name} ({self.seconds:.2f}s): {self.detail}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


# -- 1: defining relations ------------------------------------------------------


def check_relations(seed: int):
    """Quadratic and braid identities, affine node included, symbolic v."""
    counts = []
    ok = True
    for label in ("A1", "A2", "B2"):
        rep = relations_report(default_pair(label))
        ok = ok and rep["ok"]
        counts.append(f"{label}: {len(rep['quadratic'])}q+{len(rep['braid'])}b")
    return ok, "symbolic-v operator identities " + ", ".join(counts)


# -- 2: symmetrizing idempotents -------------------------------------------------


def check_idempotents(seed: int):
    """e_v^2 = e_v and absorption symbolically; rank-one closed forms at v=1."""
    ok = True
    for label in ("A1", "A2"):
        pair = default_pair(label)
        e = idempotent_e_v(pair)
        ok = ok and e * e == e
        ok = ok and all(
            check_absorption(pair, node) for node in range(1, pair.rank + 1)
        )
    pair = default_pair("A1")
    e1 = idempotent_e_v(pair, 1)
    s = pair.system.simple_reflection(0)
    t2 = Scalar.t() ** 2
    norm = (Scalar.one() + t2).inverse()
    den = [((1,), Scalar.one())]
    a = TorusFraction.ratio(
        pair, {(1,): t2, (0,): Scalar.const(-1)}, den
    ).scale(norm)
    b = TorusFraction.ratio(pair, {(1,): Scalar.one(), (0,): -t2}, den).scale(norm)
    ok = ok and e1.terms[(s, (0,))] == a
    ok = ok and e1.terms[(pair.system.identity, (0,))] == b
    ok = ok and a.weyl_act(s) == b
    ok = ok and a == TorusFraction.one(pair) - b
    return ok, "e_v idempotent + absorption (A1, A2, symbolic v); rank-one a, b forms"


# -- 3: spherical sandwich round trip --------------------------------------------


def check_spherical_roundtrip(seed: int):
    """Sandwiches e h e pass both membership conditions and re-sandwich fixed."""
    rng = _rng(seed, "spherical-roundtrip")
    pair = default_pair("A1")
    e = idempotent_e_v(pair, 1)
    gens = [dl_operator(pair, n, 1) for n in (0, 1)]
    trials = 50
    for _ in range(trials):
        h = DiffRefOperator.identity(pair)
        for _ in range(rng.randint(1, 4)):
            h = h * rng.choice(gens)
        sandwich = e * h * e
        if not check_spherical(sandwich).ok:
            return False, "a sandwich failed the spherical conditions"
        if not e * sandwich * e == sandwich:
            return False, "a sandwich moved under re-sandwiching"
    bare = check_spherical(gens[1])
    if bare.ok or bare.first_witness() is None:
        return False, "a bare generator was not rejected with a witness"
    witness = bare.first_witness()
    return True, (
        f"{trials} random sandwiches spherical and e(ehe)e = ehe exactly; "
        f"bare generator rejected ({witness['condition']} at node {witness['node']})"
    )


# -- 4: operator-form membership --------------------------------------------------


def membership_violators(pair) -> list[tuple[str, DiffRefOperator]]:
    """Rank-one operators that each break one membership rule, by rule."""
    return [
        (
            "pole-location",
            DiffRefOperator.from_function(
                pair,
                TorusFraction.ratio(
                    pair, {(0,): Scalar.one()}, [((1,), Scalar.t() ** 4)]
                ),
            ),
        ),
        (
            "residue-sum",
            DiffRefOperator.from_function(
                pair,
                TorusFraction.ratio(pair, {(0,): Scalar.one()}, [((1,), Scalar.one())]),
            ),
        ),
        ("forced-vanishing", DiffRefOperator.shift_op(pair, (1,))),
    ]


def check_membership_suite(seed: int):
    """Generators and short products pass; violators fail the right clause."""
    pair = default_pair("A1")
    gens = [dl_operator(pair, n, 1) for n in (0, 1)]
    words = [[g] for g in gens]
    words += [[a, b] for a in gens for b in gens]
    words += [[a, b, c] for a in gens for b in gens for c in gens]
    passed = 0
    for word in words:
        op = DiffRefOperator.identity(pair)
        for g in word:
            op = op * g
        if not check_membership(op)["ok"]:
            return False, f"product of {len(word)} generators failed membership"
        passed += 1

    s = pair.system.simple_reflection(0)
    tt = Scalar.t() - Scalar.t().inverse()
    r_e = gens[1].terms[(pair.system.identity, (0,))].residue((1,), Scalar.one())
    r_s = gens[1].terms[(s, (0,))].residue((1,), Scalar.one())
    if r_e != TorusFraction.from_scalar(pair, -tt) or r_s != TorusFraction.from_scalar(
        pair, tt
    ):
        return False, "generator residues are not -(t - 1/t) and (t - 1/t)"
    if not (r_e + r_s).is_zero():
        return False, "generator residues do not cancel"

    for rule, bad in membership_violators(pair):
        rep = check_membership(bad)
        if rep["ok"] or rule not in {v["rule"] for v in rep["violations"]}:
            return False, f"constructed violator missed the {rule} clause"
    return True, (
        f"{passed} generator words pass pole/residue/vanishing rules; "
        "residue pair cancels exactly; 3 violators fail their clauses"
    )


# -- 5: the rank-four isotropy example --------------------------------------------


def check_isotropy_d4(seed: int):
    """Order-2 component group with no flagged roots at the split torus point."""
    pair = LatticePair(RootSystem("D4"), "weight")
    half = QPower.q(Q(1, 2))
    minus = QPower.of(-1)
    cw = component_weyl(pair, (minus, half, minus, minus * half))
    ok = cw.isotropy.order == 2 and cw.roots == () and cw.component_order == 2
    return ok, (
        f"D4 point (-1, q^1/2, -1, -q^1/2): isotropy order {cw.isotropy.order}, "
        f"{len(cw.roots)} flagged roots, component order {cw.component_order}"
    )


# -- 6: loop normal-form round trips ----------------------------------------------


def _rand_normal_pair(rng, n=3) -> QNormalForm:
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    bases = rng.sample(
        [
            QPower.of(2),
            QPower.of(3),
            QPower.of(-1),
            QPower.of(5) * QPower.q(Q(1, 2)),
        ],
        len(sizes),
    )
    s, blocks, start = [], [], 0
    for size, base in zip(sizes, bases):
        exps = sorted((rng.randint(-2, 2) for _ in range(size)), reverse=True)
        s.extend(base * QPower.q(e) for e in exps)
        blocks.append(tuple(range(start, start + size)))
        start += size
    rows = [
        [ZPoly.one() if i == j else ZPoly.zero() for j in range(n)]
        for i in range(n)
    ]
    for blk in blocks:
        for ai, i in enumerate(blk):
            for j in blk[ai + 1 :]:
                if rng.random() < 0.7:
                    l = (s[i] / s[j]).integral_q_exponent()
                    coeff = Q(rng.randint(1, 6), rng.randint(1, 3))
                    rows[i][j] = ZPoly({l: Scalar.const(rng.choice([-coeff, coeff]))})
    return QNormalForm(s, MatrixLoop(rows), blocks)


def _rand_unitriangular(rng, n=3, deg=3) -> MatrixLoop:
    rows = [
        [ZPoly.one() if i == j else ZPoly.zero() for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            degrees = rng.sample(range(deg + 1), rng.randint(1, deg + 1))
            rows[i][j] = ZPoly({d: Scalar.const(rng.randint(-3, 3)) for d in degrees})
    return MatrixLoop(rows)


def check_jordan_roundtrip(seed: int):
    """Randomized 3x3 normal forms survive twisted conjugation and return."""
    rng = _rng(seed, "jordan-roundtrip")
    trials = 100
    for _ in range(trials):
        nf0 = _rand_normal_pair(rng)
        if not (nf0.check_twist() and nf0.check_position()):
            return False, "a generated normal form violated its own laws"
        g = _rand_unitriangular(rng)
        h = q_conjugate(g, nf0.product())
        nf1, f1 = q_normal_form(h)
        if q_conjugate(f1, h) != nf1.product():
            return False, "returned conjugator does not reproduce the normal form"
        if diagonal_twist_match(nf0.s, nf1.s) is None:
            return False, "semisimple parts are not twist-equivalent"
        if not unipotent_parts_conjugate(nf0, nf1):
            return False, "unipotent parts disagree at z = 1"
    return True, (
        f"{trials} random 3x3 instances renormalized: semisimple parts "
        "twist-equivalent, unipotent parts conjugate at z = 1, zero failures"
    )


# -- 7: shift-equation solvability law ---------------------------------------------


def check_shift_equation(seed: int):
    """Solvable exactly when the resonant coefficient vanishes."""
    rng = _rng(seed, "shift-equation")
    trials = 1000
    solvable = 0
    for k in range(trials):
        l = rng.randint(-3, 3)
        coeffs = {}
        for _ in range(rng.randint(1, 5)):
            m = rng.randint(-4, 4)
            c = rng.randint(-5, 5)
            if c:
                coeffs[m] = Scalar.const(c) * Scalar.q(rng.randint(-1, 1))
        if k % 2 == 0:
            coeffs[l] = Scalar.const(rng.randint(1, 5))
        else:
            coeffs.pop(l, None)
        target = ZPoly(coeffs)
        res = solve_shift_equation(l, target)
        resonant = target.coeff(l)
        if res.solvable != resonant.is_zero():
            return False, f"solvability disagrees with the resonant coefficient at l={l}"
        if not res.solvable:
            if res.obstruction != resonant:
                return False, "reported obstruction is not the resonant coefficient"
            continue
        solvable += 1
        x = res.solution
        if x.at_qz() - x.scale(Scalar.q(l)) != target:
            return False, "solution fails substitution"
    return True, (
        f"{trials} random instances: solvable iff resonant coefficient vanishes "
        f"({solvable} solved and verified by substitution)"
    )


# -- 8: windowed weight modules ------------------------------------------------------


def check_module_weights(seed: int):
    """Distinct one-dimensional weight spaces, dot-action cocycle, bookkeeping."""
    a1 = LatticePair(RootSystem("A1"), "weight")
    a2 = LatticePair(RootSystem("A2"), "weight")
    lam1 = Character((QPower.q(Q(1, 2)),))
    lam2 = Character((QPower.q(Q(1, 2)), QPower.one()))

    mod1 = WeightModule(a1, lam1, Window.box(-3, 3, 1))
    weights = [mod1.weight_of(y) for y in mod1.window.points()]
    if len(set(weights)) != len(weights):
        return False, "windowed weights are not pairwise distinct"

    mod2 = WeightModule(a2, lam2, Window(((-3, 2), (0, 0))))
    iso = mod2.isotropy
    if iso.order != 2:
        return False, f"expected an order-2 isotropy group, got {iso.order}"
    probe = [mod2.basis_vector(y) for y in [(-1, 0), (0, 0), (2, 0)]]
    for w1 in iso.elements():
        for w2 in iso.elements():
            for v in probe:
                lhs = mod2.dot_act(w1, mod2.dot_act(w2, v))
                rhs = mod2.dot_act(w1 * w2, v)
                if not vectors_equal(lhs, rhs):
                    return False, "dot action violates the cocycle identity"

    report = dimension_bookkeeping(
        mod2, {"triv": WRep.trivial(iso), "sign": WRep.sign(iso)}
    )
    if not report["balanced"]:
        return False, "dimension bookkeeping does not balance"
    return True, (
        f"{len(weights)} distinct 1-dim weights; dot action is a group action "
        f"on the order-2 isotropy; bookkeeping balances "
        f"({report['window_dim']} = {' + '.join(map(str, report['per_chi'].values()))})"
    )


# -- 9: orbit counting versus direct tables --------------------------------------------


def _wreath_pair():
    gens_n = [
        (1, 0, 2, 3, 4, 5),
        (1, 2, 0, 3, 4, 5),
        (0, 1, 2, 4, 3, 5),
        (0, 1, 2, 4, 5, 3),
    ]
    swap = (3, 4, 5, 0, 1, 2)
    return PermGroup(6, gens_n + [swap]), PermGroup(6, gens_n)


def check_clifford_count(seed: int):
    """Orbit/stabilizer counting matches direct character-table counts."""
    pair = LatticePair(RootSystem("D4"), "weight")
    half = QPower.q(Q(1, 2))
    minus = QPower.of(-1)
    cw = component_weyl(pair, (minus, half, minus, minus * half))
    big = weyl_permutation_group(cw.isotropy.elements(), pair.system)
    small = weyl_permutation_group(cw.reflection_subgroup, pair.system)

    cases = [
        ("S3 over C3", PermGroup(3, [(1, 0, 2), (1, 2, 0)]), PermGroup(3, [(1, 2, 0)])),
        ("swap extension of S3 x S3", *_wreath_pair()),
        ("D4 component pair", big, small),
    ]
    details = []
    for label, group, normal in cases:
        out = clifford_count(group, normal)
        if not out.matches:
            return False, f"predicted and direct counts differ for {label}"
        for g in (group, normal):
            if not character_table(g).verify_orthogonality():
                return False, f"character table for {label} fails orthogonality"
        details.append(f"{label}: {out.predicted}")
    return True, "counts match direct tables with exact orthogonality; " + ", ".join(
        details
    )


# -- 10: simplicity certificates ----------------------------------------------------


def random_torus_element(torus: QuantumTorus, rng: random.Random) -> TorusElement:
    """A random element of 2-4 terms, exponents in [-2, 2] and coefficients
    c q^e with 1 <= c <= 5 and |e| <= 1; the term bound is redrawn after
    every term, so each draw of rng is part of the result."""
    terms = {}
    while len(terms) < rng.randint(2, 4):
        v = tuple(rng.randint(-2, 2) for _ in range(torus.dim))
        terms[v] = Scalar.const(rng.randint(1, 5)) * Scalar.q(rng.randint(-1, 1))
    return torus.element(terms)


def check_simplicity(seed: int):
    """Witnesses on random elements; clean error on a degenerate form."""
    rng = _rng(seed, "simplicity-witness")
    torus = QuantumTorus(pairing=[[1, 0], [0, 1]])
    trials = 100
    for _ in range(trials):
        witness = simplicity_witness(random_torus_element(torus, rng))
        if not (witness.verified and witness.verify()):
            return False, "a witness failed re-verification"
    degenerate = QuantumTorus(pairing=[[0]])
    h = degenerate.monomial((1, 0)) + degenerate.monomial((0, 1))
    try:
        simplicity_witness(h)
    except DegenerateFormError:
        pass
    else:
        return False, "degenerate form was not rejected"
    return True, (
        f"{trials} random 2-4 term elements certified and re-verified; "
        "degenerate form rejected cleanly"
    )


# -- the registry ------------------------------------------------------------------


CHECKS = {
    "relations": (check_relations, 300.0),
    "idempotents": (check_idempotents, None),
    "spherical-roundtrip": (check_spherical_roundtrip, None),
    "membership": (check_membership_suite, None),
    "isotropy-d4": (check_isotropy_d4, 10.0),
    "jordan-roundtrip": (check_jordan_roundtrip, None),
    "shift-equation": (check_shift_equation, None),
    "module-weights": (check_module_weights, None),
    "clifford-count": (check_clifford_count, None),
    "simplicity-witness": (check_simplicity, None),
}


def run_check(name: str, seed: int = 0) -> CheckResult:
    """Run one named check, enforcing its time budget when it has one."""
    fn, budget = CHECKS[name]
    start = perf_counter()
    ok, detail = fn(seed)
    seconds = perf_counter() - start
    if ok and budget is not None and seconds > budget:
        ok = False
        detail += f"; exceeded the {budget:.0f}s budget"
    return CheckResult(name, ok, seconds, detail)


def run_suite(names=None, seed: int = 0) -> list[CheckResult]:
    """Run the selected checks (default: all) and merge results by name."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return sorted((run_check(n, seed) for n in names), key=lambda r: _order(r.name))


def _order(name: str) -> int:
    return list(CHECKS).index(name)
