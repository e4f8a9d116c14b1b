"""The four benchmark workloads.

Each workload has a ``setup`` that builds what its tasks share (lattice
pairs, generators, idempotents, group generators), a ``round`` that draws
one round of tasks from a seeded ``random.Random``, and an ``inputs`` list
of every task a round can draw (used to record digests).

A task is ``Task(key, fn)``.  ``fn()`` runs the library calls, checks the
identity they exercise with the acceptance battery's predicates, and
returns ``(ok, output)``.  ``key`` names the input; the digest of
``output`` is compared with the value recorded for ``key``.

Library calls go through module attributes (``daha.dl_operator``), never
through names bound here at import time, so a traced run calls the
patched names.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from typing import Callable, NamedTuple

from digest import Unordered


class Task(NamedTuple):
    key: str
    fn: Callable[[], tuple]


def _words(alphabet: str, max_len: int) -> list[str]:
    """All words of length 1..max_len, shortest first."""
    level, words = [""], []
    for _ in range(max_len):
        level = [w + a for w in level for a in alphabet]
        words.extend(level)
    return words


# -- sandwich-a1 ---------------------------------------------------------------

# Words in T0 (affine node) and T1, written as node digits.  Cost is
# heavy-tailed by word: words holding T0 .. T1 .. T0 give a 10-term sandwich
# and take about 20 s, T1-only words give 2 terms and take about 0.1 s, the
# rest give 6 terms and take 1.5-3.5 s.  Drawing words at random would make
# a round's cost swing with the draw, so every round runs the same words:
# the heavy word T0 T1 T0, one mixed word of each length 2-4, and each
# T1-only word eight times, so that the median task is a T1-only word
# sampled across the whole round: single runs of one T1-only word varied by
# up to 2x, so the median needs many of them.  The seed sets the order.
SANDWICH_ROUND = ("010", "01", "001", "1001") + ("1", "11", "111", "1111") * 8


def sandwich_setup() -> dict:
    from qtalg import daha, spherical

    pair = daha.default_pair("A1")
    return {
        "pair": pair,
        "e": spherical.idempotent_e_v(pair, 1),
        "gens": [daha.dl_operator(pair, n, 1) for n in (0, 1)],
    }


def sandwich_task(ctx: dict, word: str) -> Task:
    def fn():
        from qtalg import daha, spherical

        e, gens = ctx["e"], ctx["gens"]
        h = daha.DiffRefOperator.identity(ctx["pair"])
        for node in word:
            h = h * gens[int(node)]
        sandwich = e * h * e
        ok = spherical.check_spherical(sandwich).ok and e * sandwich * e == sandwich
        return ok, sandwich

    return Task(f"sandwich/{word}", fn)


def sandwich_round(ctx: dict, rng: random.Random) -> list[Task]:
    words = list(SANDWICH_ROUND)
    rng.shuffle(words)
    return [sandwich_task(ctx, w) for w in words]


def sandwich_inputs(ctx: dict) -> list[Task]:
    return [sandwich_task(ctx, w) for w in dict.fromkeys(SANDWICH_ROUND)]


# -- membership-a2 ---------------------------------------------------------------

MEMBERSHIP_WORDS = tuple(_words("012", 4))  # 3 + 9 + 27 + 81 = 120 words


def membership_setup() -> dict:
    from qtalg import daha

    pair = daha.default_pair("A2")
    return {"pair": pair, "gens": [daha.dl_operator(pair, n, 1) for n in (0, 1, 2)]}


def membership_task(ctx: dict, word: str) -> Task:
    def fn():
        from qtalg import daha

        op = daha.DiffRefOperator.identity(ctx["pair"])
        for node in word:
            op = op * ctx["gens"][int(node)]
        return bool(daha.check_membership(op)["ok"]), op

    return Task(f"membership/{word}", fn)


def membership_round(ctx: dict, rng: random.Random) -> list[Task]:
    """Every word once, in a seeded order."""
    words = list(MEMBERSHIP_WORDS)
    rng.shuffle(words)
    return [membership_task(ctx, w) for w in words]


def membership_inputs(ctx: dict) -> list[Task]:
    return [membership_task(ctx, w) for w in MEMBERSHIP_WORDS]


# -- symbolic-v --------------------------------------------------------------------

RELATION_SYSTEMS = ("A1", "A2", "B2", "A3", "G2")
# The A1 tasks take about 0.05 s each and the others 0.3-16 s.  With every
# task once, the median task is a single run of one mid-sized task, whose
# time alone varied by 15% between identical calls on the shared machine;
# running each A1 task four times puts the median among sixteen A1 runs.
A1_REPEATS = 4


def symbolic_setup() -> dict:
    from qtalg import daha, spherical

    pairs = {label: daha.default_pair(label) for label in RELATION_SYSTEMS}
    idem = {
        label: {
            "e_v": spherical.idempotent_e_v(pairs[label]),
            "eps_v": spherical.idempotent_eps_v(pairs[label]),
        }
        for label in ("A1", "A2")
    }
    return {"pairs": pairs, "idem": idem}


def _relations_task(ctx: dict, label: str) -> Task:
    def fn():
        from qtalg import daha

        rep = daha.relations_report(ctx["pairs"][label])
        return bool(rep["ok"]), rep

    return Task(f"relations/{label}", fn)


def _square_task(ctx: dict, label: str, which: str) -> Task:
    def fn():
        x = ctx["idem"][label][which]
        sq = x * x
        return sq == x, sq

    return Task(f"square/{label}/{which}", fn)


def _absorption_task(ctx: dict, label: str, node: int) -> Task:
    def fn():
        from qtalg import spherical

        ok = bool(spherical.check_absorption(ctx["pairs"][label], node))
        return ok, ok

    return Task(f"absorption/{label}/{node}", fn)


def _idempotent_tasks(ctx: dict, label: str, squares) -> list[Task]:
    rank = ctx["pairs"][label].rank
    tasks = [_square_task(ctx, label, which) for which in squares]
    return tasks + [_absorption_task(ctx, label, node) for node in range(1, rank + 1)]


def _symbolic_tasks(ctx: dict, a2_squares, a1_repeats: int) -> list[Task]:
    a1 = [_relations_task(ctx, "A1")] + _idempotent_tasks(ctx, "A1", ("e_v", "eps_v"))
    tasks = a1 * a1_repeats
    tasks += [_relations_task(ctx, label) for label in RELATION_SYSTEMS if label != "A1"]
    return tasks + _idempotent_tasks(ctx, "A2", a2_squares)


def symbolic_round(ctx: dict, rng: random.Random) -> list[Task]:
    """Every task in a seeded order, the A1 tasks A1_REPEATS times, except
    that a round squares one of the two A2 idempotents, drawn from the seed:
    each square takes 13-16 s, and squaring both would make a run half as
    long again."""
    tasks = _symbolic_tasks(ctx, (rng.choice(("e_v", "eps_v")),), A1_REPEATS)
    rng.shuffle(tasks)
    return tasks


def symbolic_inputs(ctx: dict) -> list[Task]:
    return _symbolic_tasks(ctx, ("e_v", "eps_v"), 1)


# -- loops-groups --------------------------------------------------------------------

# Random inputs come from fixed pools indexed by an integer, so each one has
# a recorded digest; the seed picks which pool entries a round uses, and an
# entry is generated when a round draws it, outside the timed task.
JORDAN_POOL = 200
SHIFT_POOL = 1000
SIMPLICITY_POOL = 300
LOOPS_ROUND = {"jordan": 12, "shift": 30, "simplicity": 20}
WEYL_TABLE_SYSTEMS = ("A3", "B2", "G2")


def _pool_rng(kind: str, index: int) -> random.Random:
    return random.Random(f"perfbench:{kind}:{index}")


def _jordan_input(index: int, n: int = 3, deg: int = 3):
    """A random 3x3 loop normal form and a unitriangular conjugator, drawn
    as in the acceptance battery's jordan-roundtrip check."""
    from qtalg import loopjordan as lj, scalars

    rng = _pool_rng("jordan", index)
    QP = scalars.QPower
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    bases = rng.sample(
        [QP.of(2), QP.of(3), QP.of(-1), QP.of(5) * QP.q(Q(1, 2))], len(sizes)
    )
    s, blocks, start = [], [], 0
    for size, base in zip(sizes, bases):
        exps = sorted((rng.randint(-2, 2) for _ in range(size)), reverse=True)
        s.extend(base * QP.q(e) for e in exps)
        blocks.append(tuple(range(start, start + size)))
        start += size

    def unit_rows():
        return [[lj.ZPoly.one() if i == j else lj.ZPoly.zero() for j in range(n)] for i in range(n)]

    rows = unit_rows()
    for blk in blocks:
        for ai, i in enumerate(blk):
            for j in blk[ai + 1 :]:
                if rng.random() < 0.7:
                    l = (s[i] / s[j]).integral_q_exponent()
                    coeff = Q(rng.randint(1, 6), rng.randint(1, 3))
                    rows[i][j] = lj.ZPoly({l: scalars.Scalar.const(rng.choice([-coeff, coeff]))})
    nf0 = lj.QNormalForm(s, lj.MatrixLoop(rows), blocks)
    rows = unit_rows()
    for i in range(n):
        for j in range(i + 1, n):
            degrees = rng.sample(range(deg + 1), rng.randint(1, deg + 1))
            rows[i][j] = lj.ZPoly({d: scalars.Scalar.const(rng.randint(-3, 3)) for d in degrees})
    return nf0, lj.MatrixLoop(rows)


def _shift_input(index: int):
    from qtalg import loopjordan, scalars

    rng = _pool_rng("shift", index)
    l = rng.randint(-3, 3)
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        m, c = rng.randint(-4, 4), rng.randint(-5, 5)
        if c:
            coeffs[m] = scalars.Scalar.const(c) * scalars.Scalar.q(rng.randint(-1, 1))
    if index % 2 == 0:
        coeffs[l] = scalars.Scalar.const(rng.randint(1, 5))
    else:
        coeffs.pop(l, None)
    return l, loopjordan.ZPoly(coeffs)


def _simplicity_input(torus, index: int):
    from qtalg import scalars

    rng = _pool_rng("simplicity", index)
    size = rng.randint(2, 4)
    terms = {}
    while len(terms) < size:
        v = tuple(rng.randint(-2, 2) for _ in range(torus.dim))
        terms[v] = scalars.Scalar.const(rng.randint(1, 5)) * scalars.Scalar.q(
            rng.randint(-1, 1)
        )
    return torus.element(terms)


def _d4_split_point():
    from qtalg import scalars

    half, minus = scalars.QPower.q(Q(1, 2)), scalars.QPower.of(-1)
    return (minus, half, minus, minus * half)


def loops_setup() -> dict:
    from qtalg import loopjordan, qtorus, rootdata

    d4 = rootdata.LatticePair(rootdata.RootSystem("D4"), "weight")
    cw = loopjordan.component_weyl(d4, _d4_split_point())
    gens_n = [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)]
    return {
        "d4": d4,
        # group pairs of the acceptance battery, as generator lists (degree, gens)
        "perm_pairs": {
            "S3/C3": ((3, [(1, 0, 2), (1, 2, 0)]), (3, [(1, 2, 0)])),
            "wreath": ((6, gens_n + [(3, 4, 5, 0, 1, 2)]), (6, gens_n)),
        },
        "d4_elements": (tuple(cw.isotropy.elements()), tuple(cw.reflection_subgroup)),
        "weyl_systems": {label: rootdata.RootSystem(label) for label in WEYL_TABLE_SYSTEMS},
        "a1w": rootdata.LatticePair(rootdata.RootSystem("A1"), "weight"),
        "a2w": rootdata.LatticePair(rootdata.RootSystem("A2"), "weight"),
        "torus": qtorus.QuantumTorus(pairing=[[1, 0], [0, 1]]),
    }


def _jordan_task(ctx: dict, index: int) -> Task:
    nf0, g = _jordan_input(index)

    def fn():
        from qtalg import loopjordan as lj

        ok = nf0.check_twist() and nf0.check_position()
        h = lj.q_conjugate(g, nf0.product())
        nf1, f1 = lj.q_normal_form(h)
        ok = ok and lj.q_conjugate(f1, h) == nf1.product()
        ok = ok and lj.diagonal_twist_match(nf0.s, nf1.s) is not None
        ok = ok and lj.unipotent_parts_conjugate(nf0, nf1)
        return ok, {"s": nf1.s, "product": nf1.product(), "blocks": nf1.blocks}

    return Task(f"jordan/{index}", fn)


def _shift_task(ctx: dict, index: int) -> Task:
    l, target = _shift_input(index)

    def fn():
        from qtalg import loopjordan, scalars

        res = loopjordan.solve_shift_equation(l, target)
        resonant = target.coeff(l)
        ok = res.solvable == resonant.is_zero()
        if not res.solvable:
            ok = ok and res.obstruction == resonant
            return ok, {"obstruction": res.obstruction}
        x = res.solution
        ok = ok and x.at_qz() - x.scale(scalars.Scalar.q(l)) == target
        return ok, {"solution": x}

    return Task(f"shift/{index}", fn)


def _simplicity_task(ctx: dict, index: int) -> Task:
    element = _simplicity_input(ctx["torus"], index)

    def fn():
        from qtalg import qtorus

        w = qtorus.simplicity_witness(element)
        ok = bool(w.verified and w.verify())
        return ok, {"conjugator": w.conjugator, "z": w.z_exponents, "rows": w.rows}

    return Task(f"simplicity/{index}", fn)


def _group_pair(ctx: dict, name: str):
    """A fresh (group, normal subgroup) pair, so no table is cached."""
    from qtalg import clifford

    if name == "D4":
        big, small = ctx["d4_elements"]
        system = ctx["d4"].system
        return (
            clifford.weyl_permutation_group(big, system),
            clifford.weyl_permutation_group(small, system),
        )
    return tuple(clifford.PermGroup(degree, gens) for degree, gens in ctx["perm_pairs"][name])


def _table_output(table):
    """The table up to the order of its classes and characters."""
    rows = Unordered(Unordered(zip(table.sizes, row)) for row in table.rows)
    return {"order": table.group.order, "degrees": sorted(table.degrees), "rows": rows}


def _pair_table_task(ctx: dict, name: str) -> Task:
    def fn():
        from qtalg import clifford

        ok, out = True, []
        for group in _group_pair(ctx, name):
            table = clifford.character_table(group)
            ok = ok and table.verify_orthogonality()
            out.append(_table_output(table))
        return ok, out

    return Task(f"table/{name}", fn)


def _weyl_table_task(ctx: dict, label: str) -> Task:
    def fn():
        from qtalg import clifford

        system = ctx["weyl_systems"][label]
        group = clifford.weyl_permutation_group(system.elements, system)
        table = clifford.character_table(group)
        return table.verify_orthogonality(), _table_output(table)

    return Task(f"table/W({label})", fn)


def _clifford_task(ctx: dict, name: str) -> Task:
    def fn():
        from qtalg import clifford

        out = clifford.clifford_count(*_group_pair(ctx, name))
        return bool(out.matches), out.to_json()

    return Task(f"clifford/{name}", fn)


def _component_task(ctx: dict) -> Task:
    def fn():
        from qtalg import loopjordan

        cw = loopjordan.component_weyl(ctx["d4"], _d4_split_point())
        ok = cw.isotropy.order == 2 and cw.roots == () and cw.component_order == 2
        return ok, {
            "isotropy": cw.isotropy.order,
            "roots": cw.roots,
            "component": cw.component_order,
        }

    return Task("component/D4", fn)


def _module_task(ctx: dict) -> Task:
    def fn():
        from qtalg import mlambda, scalars

        half = scalars.QPower.q(Q(1, 2))
        mod1 = mlambda.WeightModule(
            ctx["a1w"], mlambda.Character((half,)), mlambda.Window.box(-3, 3, 1)
        )
        weights = [mod1.weight_of(y) for y in mod1.window.points()]
        ok = len(set(weights)) == len(weights)
        mod2 = mlambda.WeightModule(
            ctx["a2w"],
            mlambda.Character((half, scalars.QPower.one())),
            mlambda.Window(((-3, 2), (0, 0))),
        )
        iso = mod2.isotropy
        ok = ok and iso.order == 2
        probe = [mod2.basis_vector(y) for y in [(-1, 0), (0, 0), (2, 0)]]
        for w1 in iso.elements():
            for w2 in iso.elements():
                for v in probe:
                    lhs = mod2.dot_act(w1, mod2.dot_act(w2, v))
                    ok = ok and mlambda.vectors_equal(lhs, mod2.dot_act(w1 * w2, v))
        report = mlambda.dimension_bookkeeping(
            mod2, {"triv": mlambda.WRep.trivial(iso), "sign": mlambda.WRep.sign(iso)}
        )
        ok = ok and bool(report["balanced"])
        return ok, {
            "weights": [w.values for w in weights],
            "window_dim": report["window_dim"],
            "per_chi": report["per_chi"],
        }

    return Task("modules/A1-A2", fn)


PAIR_NAMES = ("S3/C3", "wreath", "D4")


def _fixed_loops_tasks(ctx: dict) -> list[Task]:
    tasks = [_pair_table_task(ctx, name) for name in PAIR_NAMES]
    tasks += [_weyl_table_task(ctx, label) for label in WEYL_TABLE_SYSTEMS]
    tasks += [_clifford_task(ctx, name) for name in PAIR_NAMES]
    tasks += [_component_task(ctx), _module_task(ctx)]
    return tasks


def loops_round(ctx: dict, rng: random.Random) -> list[Task]:
    tasks = _fixed_loops_tasks(ctx)
    tasks += [
        _jordan_task(ctx, i) for i in rng.sample(range(JORDAN_POOL), LOOPS_ROUND["jordan"])
    ]
    tasks += [
        _shift_task(ctx, i) for i in rng.sample(range(SHIFT_POOL), LOOPS_ROUND["shift"])
    ]
    tasks += [
        _simplicity_task(ctx, i)
        for i in rng.sample(range(SIMPLICITY_POOL), LOOPS_ROUND["simplicity"])
    ]
    rng.shuffle(tasks)
    return tasks


def loops_inputs(ctx: dict) -> list[Task]:
    tasks = _fixed_loops_tasks(ctx)
    tasks += [_jordan_task(ctx, i) for i in range(JORDAN_POOL)]
    tasks += [_shift_task(ctx, i) for i in range(SHIFT_POOL)]
    tasks += [_simplicity_task(ctx, i) for i in range(SIMPLICITY_POOL)]
    return tasks


class Workload(NamedTuple):
    setup: Callable[[], dict]
    round: Callable[[dict, random.Random], list]
    inputs: Callable[[dict], list]


WORKLOADS = {
    "sandwich-a1": Workload(sandwich_setup, sandwich_round, sandwich_inputs),
    "membership-a2": Workload(membership_setup, membership_round, membership_inputs),
    "symbolic-v": Workload(symbolic_setup, symbolic_round, symbolic_inputs),
    "loops-groups": Workload(loops_setup, loops_round, loops_inputs),
}
