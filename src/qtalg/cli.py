"""Command-line front end: thin JSON/text wrappers over the library.

Every subcommand parses its inputs, calls one library operation, and
prints either a human-readable transcript or (with --json) a
machine-readable document carrying a versioned "schema" field.  No
algebra happens here.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction as Q

from .acceptance import CHECKS, random_torus_element, run_suite
from .clifford import PermGroup, character_table, clifford_count
from .daha import DiffRefOperator, check_membership, dl_operator, relations_report
from .errors import QtalgError
from .loopjordan import MatrixLoop, component_weyl, q_conjugate, q_normal_form
from .mlambda import (
    Character,
    InducedModule,
    WRep,
    WeightModule,
    Window,
    invariants_basis,
    isotropy_group,
)
from .qtorus import QuantumTorus, is_w_invariant, simplicity_witness, w_project_invariants
from .rootdata import LatticePair, RootSystem
from .scalars import QPower, Scalar
from .spherical import HeckeExpression, check_spherical, idempotent_e_v, im_involution
from .torusfn import TorusFraction


class UsageError(Exception):
    """Bad command-line input (exit code 2)."""


# -- input parsing ---------------------------------------------------------------


def _load_json(text: str, what: str):
    """Parse inline JSON, or the contents of a file named by @path."""
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {what} file: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None


def _unwrap(data, *keys):
    """Accept either a bare payload or a full --json output document."""
    if isinstance(data, dict):
        for key in keys:
            if key in data:
                return data[key]
    return data


_COORD = re.compile(
    r"^(?P<sign>[+-])?(?P<mag>\d+(?:/\d+)?)?(?:\*?q(?:\^(?P<exp>[+-]?\d+(?:/\d+)?))?)?$"
)


def parse_point(text: str) -> tuple[QPower, ...]:
    """Torus point like "(-1, q^1/2, -1, -q^1/2)" as exact coordinates."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    coords = []
    for raw in s.split(","):
        tok = raw.strip().replace(" ", "")
        m = _COORD.match(tok)
        has_q = bool(m and "q" in tok)
        if not m or (m.group("mag") is None and not has_q):
            raise UsageError(f"cannot parse torus coordinate {raw.strip()!r}")
        mag = Q(m.group("mag")) if m.group("mag") else Q(1)
        if m.group("sign") == "-":
            mag = -mag
        if mag == 0:
            raise UsageError("torus coordinates must be nonzero")
        value = QPower.of(mag)
        if has_q:
            value = value * QPower.q(Q(m.group("exp") or 1))
        coords.append(value)
    return tuple(coords)


def parse_window(text: str, rank: int) -> Window:
    """Window like "(-3:2,0:0)" — one lo:hi range per lattice coordinate."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    ranges = []
    for part in text.split(","):
        try:
            lo, hi = part.split(":")
            ranges.append((int(lo), int(hi)))
        except ValueError:
            raise UsageError(f"bad window range {part!r}; expected lo:hi") from None
    if len(ranges) != rank:
        raise UsageError(f"window needs {rank} ranges, got {len(ranges)}")
    return Window(tuple(ranges))


def parse_word(text: str) -> list[int]:
    """Generator word like "T1 T0 T1" as a list of node numbers."""
    nodes = []
    for tok in text.split():
        if not re.fullmatch(r"T\d+", tok):
            raise UsageError(f"bad generator {tok!r}; expected T<node>")
        nodes.append(int(tok[1:]))
    return nodes


def _parse_v(text: str):
    if text == "symbolic":
        return None
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad --v value {text!r}; use 'symbolic' or a rational") from None


def _operator_at_v1(args, pair: LatticePair, check: str) -> DiffRefOperator:
    """The --op operator of a check stated at v = 1: a whole document whose
    config names another v is refused, a bare operator is taken as given."""
    data = _load_json(args.op, "--op")
    cfg = data.get("config") if isinstance(data, dict) else None
    v = cfg.get("v") if isinstance(cfg, dict) else None
    if v is not None and _parse_v(str(v)) != 1:
        raise QtalgError(f"{check} is stated at v = 1; the --op document has v = {v}")
    return DiffRefOperator.from_json(pair, _unwrap(data, "operator"))


def _coeff(data) -> Scalar:
    if isinstance(data, dict):
        return Scalar.from_json(data)
    if isinstance(data, (int, str)):
        try:
            return Scalar.const(Q(data))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad coefficient {data!r}") from None
    raise UsageError(f"bad coefficient {data!r}")


def _system(args) -> RootSystem:
    if args.cartan is not None:
        return RootSystem(_load_json(args.cartan, "--cartan"))
    if args.root_system is None:
        raise UsageError("one of --root-system or --cartan is required")
    return RootSystem(args.root_system)


def _pair(args) -> LatticePair:
    return LatticePair(_system(args), args.lattice)


def _point(args, pair: LatticePair) -> tuple[QPower, ...]:
    point = parse_point(args.lam)
    if len(point) != pair.rank:
        raise UsageError(f"point has {len(point)} coordinates; rank is {pair.rank}")
    return point


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    try:
        return int(os.environ.get("QTORUS_SEED", "0"))
    except ValueError:
        raise UsageError("QTORUS_SEED must be an integer") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _group(text: str, what: str, bound: int) -> PermGroup:
    data = _load_json(text, what)
    if not isinstance(data, dict):
        data = {}
    degree, gens = data.get("degree"), data.get("generators")
    if not (
        _is_int(degree)
        and degree >= 0
        and isinstance(gens, list)
        and all(isinstance(g, list) and all(map(_is_int, g)) for g in gens)
    ):
        raise UsageError(
            f'{what} must be {{"degree": n, "generators": [[...], ...]}} '
            "with n >= 0 and integer generator entries"
        )
    return PermGroup(degree, gens, bound=bound)


# -- torus element JSON (x/y split form) --------------------------------------------


def _element_from_json(torus: QuantumTorus, data, what: str):
    if not isinstance(data, list):
        raise UsageError(f"{what} must be a list of {{x, y, coeff}} terms")
    terms = {}
    for item in data:
        try:
            x = tuple(int(a) for a in item["x"])
            y = tuple(int(a) for a in item["y"])
        except (KeyError, TypeError):
            raise UsageError(f"{what} terms need x and y exponent lists") from None
        key = x + y
        c = _coeff(item["coeff"])
        terms[key] = terms[key] + c if key in terms else c
    return torus.element(terms)


def _element_to_json(torus: QuantumTorus, elem) -> list[dict]:
    n = torus.x_rank
    return [
        {"x": list(v[:n]), "y": list(v[n:]), "coeff": elem.terms[v].to_json()}
        for v in elem.support()
    ]


def _vector_from_json(data, what: str) -> dict:
    if not isinstance(data, list):
        raise UsageError(f"{what} must be a list of {{y, comp, coeff}} terms")
    vec = {}
    for item in data:
        try:
            y = tuple(int(a) for a in item["y"])
            comp = int(item.get("comp", 0))
        except (KeyError, TypeError):
            raise UsageError(f"{what} terms need a y exponent list") from None
        vec[(comp, y)] = _coeff(item["coeff"])
    return vec


def _vector_to_json(vec: dict) -> list[dict]:
    """Plain weight-module vector (keys are window points) to JSON."""
    return [
        {"y": list(y), "comp": 0, "coeff": vec[y].to_json()} for y in sorted(vec)
    ]


# -- subcommand handlers --------------------------------------------------------------
# each returns (schema kind, payload dict, text lines, exit code)


def _config_header(args, **extra) -> dict:
    cfg = {}
    if getattr(args, "root_system", None) is not None:
        cfg["root_system"] = args.root_system
    if getattr(args, "cartan", None) is not None:
        cfg["cartan"] = _load_json(args.cartan, "--cartan")
    if hasattr(args, "lattice"):
        cfg["lattice"] = args.lattice
    if hasattr(args, "v"):
        cfg["v"] = args.v
    cfg.update(extra)
    return cfg


def _header_line(cfg: dict) -> str:
    return ", ".join(f"{k.replace('_', ' ')} {v}" for k, v in cfg.items())


def cmd_relations_check(args):
    pair = _pair(args)
    rep = relations_report(pair, _parse_v(args.v))
    cfg = _config_header(args)
    payload = {
        "config": cfg,
        "quadratic": {str(n): ok for n, ok in sorted(rep["quadratic"].items())},
        "braid": {f"{i}-{j}": ok for (i, j), ok in sorted(rep["braid"].items())},
        "infinite_order_pairs": [f"{i}-{j}" for i, j in rep["infinite_order_pairs"]],
        "ok": rep["ok"],
    }
    lines = [_header_line(cfg)]
    for n, ok in sorted(rep["quadratic"].items()):
        lines.append(f"quadratic at node {n}: {'verified' if ok else 'FAILED'}")
    for (i, j), ok in sorted(rep["braid"].items()):
        lines.append(f"braid at nodes {i},{j}: {'verified' if ok else 'FAILED'}")
    for i, j in rep["infinite_order_pairs"]:
        lines.append(f"braid at nodes {i},{j}: skipped (infinite order)")
    lines.append("all identities verified" if rep["ok"] else "FAILURES found")
    return "relations", payload, lines, 0 if rep["ok"] else 1


def cmd_qtorus_mul(args):
    torus = QuantumTorus(pairing=_load_json(args.pairing, "--pairing"))
    a = _element_from_json(torus, _unwrap(_load_json(args.a, "--a"), "element", "product", "projection"), "--a")
    b = _element_from_json(torus, _unwrap(_load_json(args.b, "--b"), "element", "product", "projection"), "--b")
    product = a * b
    payload = {
        "pairing": [list(row) for row in torus.pairing],
        "product": _element_to_json(torus, product),
    }
    lines = [f"product: {product}"]
    return "torus-element", payload, lines, 0


def cmd_qtorus_invariant(args):
    pair = _pair(args)
    torus = QuantumTorus(pair=pair)
    elem = _element_from_json(torus, _unwrap(_load_json(args.element, "--element"), "element", "product", "projection"), "--element")
    invariant = is_w_invariant(elem)
    projection = w_project_invariants(elem)
    cfg = _config_header(args)
    payload = {
        "config": cfg,
        "invariant": invariant,
        "projection": _element_to_json(torus, projection),
    }
    lines = [
        _header_line(cfg),
        f"Weyl-invariant: {'yes' if invariant else 'no'}",
        f"projection: {projection}",
    ]
    return "invariant", payload, lines, 0 if invariant else 1


def cmd_qtorus_witness(args):
    torus = QuantumTorus(pairing=_load_json(args.pairing, "--pairing"))
    payload = {"pairing": [list(row) for row in torus.pairing]}
    if args.element is not None:
        elem = _element_from_json(
            torus, _unwrap(_load_json(args.element, "--element"), "element", "product", "projection"), "--element"
        )
        witness = simplicity_witness(elem)
        payload["element"] = _element_to_json(torus, elem)
        payload["witness"] = witness.to_json()
        ok = witness.verified
        lines = [
            f"element: {elem}",
            f"conjugator exponent: {list(witness.conjugator)}",
            f"verified: {'yes' if ok else 'no'}",
        ]
        return "witness", payload, lines, 0 if ok else 1
    if args.random < 1:
        raise UsageError("provide --element or a positive --random count")
    seed = _seed(args)
    rng = random.Random(seed)
    verified = 0
    sample = None
    for _ in range(args.random):
        witness = simplicity_witness(random_torus_element(torus, rng))
        if sample is None:
            sample = witness.to_json()
        verified += bool(witness.verified and witness.verify())
    ok = verified == args.random
    payload.update(
        {"seed": seed, "trials": args.random, "verified": verified, "sample": sample}
    )
    lines = [f"seed {seed}: {verified}/{args.random} witnesses verified"]
    return "witness", payload, lines, 0 if ok else 1


def cmd_module_isotropy(args):
    pair = _pair(args)
    point = _point(args, pair)
    iso = isotropy_group(pair, Character(point))
    cfg = _config_header(args, point=[str(c) for c in point])
    payload = {"config": cfg, "isotropy": iso.to_json()}
    lines = [_header_line(cfg), f"isotropy group order {iso.order}"]
    for entry in iso.to_json()["elements"]:
        word = "identity" if not entry["word"] else " ".join(
            f"s{i}" for i in entry["word"]
        )
        lines.append(f"  {word}  (shift {entry['shift']})")
    return "isotropy", payload, lines, 0


def cmd_module_act(args):
    pair = _pair(args)
    point = _point(args, pair)
    mod = WeightModule(pair, Character(point), parse_window(args.window, pair.rank))
    torus = QuantumTorus(pair=pair)
    elem = _element_from_json(torus, _unwrap(_load_json(args.element, "--element"), "element", "product", "projection"), "--element")
    vec_in = _vector_from_json(_unwrap(_load_json(args.vector, "--vector"), "vector"), "--vector")
    vec = {}
    for (comp, y), c in vec_in.items():
        if comp != 0:
            raise UsageError("plain weight-module vectors use comp 0")
        vec[y] = c
    out = mod.act(dict(elem.terms), vec)
    cfg = _config_header(args, point=[str(c) for c in point], window=args.window)
    payload = {"config": cfg, "vector": _vector_to_json(out)}
    lines = [_header_line(cfg)] + [
        f"  v[{list(y)}] = {c}" for y, c in sorted(out.items())
    ]
    return "vector", payload, lines, 0


def cmd_module_zchi(args):
    pair = _pair(args)
    point = _point(args, pair)
    iso = isotropy_group(pair, Character(point))
    chi = WRep.trivial(iso) if args.chi == "trivial" else WRep.sign(iso)
    mod = InducedModule(
        pair, Character(point), chi, parse_window(args.window, pair.rank), iso
    )
    basis = invariants_basis(mod)
    vectors = []
    for vec in basis:
        vectors.append(
            [
                {"y": list(y), "comp": j, "fiber": k, "coeff": c.to_json()}
                for (j, y, k), c in sorted(vec.items())
            ]
        )
    cfg = _config_header(
        args, point=[str(c) for c in point], window=args.window, chi=args.chi
    )
    payload = {"config": cfg, "dimension": len(basis), "vectors": vectors}
    lines = [
        _header_line(cfg),
        f"invariant subspace dimension {len(basis)} "
        f"(module dimension {mod.dim}, {len(mod.transversal)} components)",
    ]
    return "invariants", payload, lines, 0


def cmd_daha_op(args):
    pair = _pair(args)
    v = _parse_v(args.v)
    op = DiffRefOperator.identity(pair)
    for node in parse_word(args.word):
        if node > pair.rank:
            raise UsageError(f"node {node} out of range for rank {pair.rank}")
        op = op * dl_operator(pair, node, v)
    cfg = _config_header(args, word=args.word)
    payload = {"config": cfg, "operator": op.to_json()}
    lines = [_header_line(cfg), f"operator: {op}"]
    return "operator", payload, lines, 0


def cmd_daha_apply(args):
    pair = _pair(args)
    op = DiffRefOperator.from_json(pair, _unwrap(_load_json(args.op, "--op"), "operator"))
    f = TorusFraction.from_json(pair, _unwrap(_load_json(args.f, "--f"), "result"))
    out = op.apply(f)
    cfg = _config_header(args)
    payload = {"config": cfg, "result": out.to_json()}
    lines = [_header_line(cfg), f"result: {out}"]
    return "function", payload, lines, 0


def cmd_daha_member(args):
    pair = _pair(args)
    rep = check_membership(_operator_at_v1(args, pair, "membership"))
    cfg = _config_header(args)
    payload = {"config": cfg, "ok": rep["ok"], "violations": rep["violations"]}
    lines = [_header_line(cfg)]
    if rep["ok"]:
        lines.append("member: all pole-location, residue-sum and "
                      "forced-vanishing rules hold")
    else:
        lines.append(f"NOT a member: {len(rep['violations'])} violation(s)")
        for v in rep["violations"]:
            lines.append(f"  {v['rule']}: {v['detail']}")
    return "membership", payload, lines, 0 if rep["ok"] else 1


def cmd_spherical_e(args):
    pair = _pair(args)
    e = idempotent_e_v(pair, _parse_v(args.v))
    cfg = _config_header(args)
    payload = {"config": cfg, "operator": e.to_json()}
    lines = [_header_line(cfg), f"idempotent: {e}"]
    return "operator", payload, lines, 0


def cmd_spherical_check(args):
    pair = _pair(args)
    rep = check_spherical(_operator_at_v1(args, pair, "the spherical check"))
    cfg = _config_header(args)
    payload = {"config": cfg, "report": rep.to_json()}
    lines = [_header_line(cfg)]
    if rep.ok:
        lines.append(
            f"spherical: left-equivariance and right-ratio hold "
            f"({rep.terms_checked} term checks)"
        )
    else:
        lines.append(f"NOT spherical: {len(rep.failures)} failure(s)")
        for f in rep.failures:
            lines.append(f"  {f['condition']} at node {f['node']}, mu {f['mu']}")
    return "spherical-report", payload, lines, 0 if rep.ok else 1


def cmd_spherical_xi(args):
    expr = HeckeExpression.word(parse_word(args.word), _parse_v(args.v))
    image = im_involution(expr)
    cfg = _config_header(args, word=args.word)
    payload = {"config": cfg, "image": image.to_json()}
    lines = [_header_line(cfg), f"involution image: {image}"]
    return "expression", payload, lines, 0


def cmd_loop_nf(args):
    matrix = MatrixLoop.from_json(_load_json(args.matrix, "--matrix"))
    basis = None
    if args.basis is not None:
        basis = MatrixLoop.from_json(_load_json(args.basis, "--basis"))
    nf, f = q_normal_form(matrix, basis)
    transcript = {
        "conjugator_reproduces_normal_form": q_conjugate(f, matrix) == nf.product(),
        "twist_equivariance": nf.check_twist(),
        "position": nf.check_position(),
    }
    payload = {
        "normal_form": nf.to_json(),
        "conjugator": f.to_json(),
        "transcript": transcript,
    }
    lines = [
        f"s = ({', '.join(str(x) for x in nf.s)})",
        f"b = {nf.b}",
        f"f = {f}",
    ] + [f"{k.replace('_', ' ')}: {'yes' if ok else 'NO'}" for k, ok in transcript.items()]
    code = 0 if all(transcript.values()) else 1
    return "normal-form", payload, lines, code


def cmd_loop_centralizer(args):
    pair = _pair(args)
    point = _point(args, pair)
    cw = component_weyl(pair, point)
    cfg = _config_header(args, point=[str(c) for c in point])
    payload = {"config": cfg, "component": cw.to_json()}
    lines = [
        _header_line(cfg),
        f"isotropy order {cw.isotropy.order}",
        f"flagged roots: {[list(r) for r in cw.roots]}",
        f"reflection subgroup order {len(cw.reflection_subgroup)}",
        f"component order {cw.component_order} (split)",
    ]
    return "component", payload, lines, 0


def cmd_clifford_table(args):
    group = _group(args.group, "--group", args.bound)
    table = character_table(group)
    payload = {"table": table.to_json()}
    lines = [
        f"group order {group.order}, {len(table.rows)} irreducible characters",
        f"degrees: {sorted(table.degrees)}",
        f"conductor: {table.conductor}",
    ]
    return "character-table", payload, lines, 0


def cmd_clifford_count(args):
    group = _group(args.group, "--group", args.bound)
    normal = _group(args.normal, "--normal", args.bound)
    out = clifford_count(group, normal)
    payload = {"count": out.to_json()}
    lines = [
        f"group order {group.order} over normal subgroup order {normal.order}",
        f"predicted {out.predicted}, direct {out.direct}, "
        f"{'matches' if out.matches else 'MISMATCH'}",
    ]
    for entry in out.breakdown:
        lines.append(
            f"  orbit {entry['orbit']}: stabilizer order {entry['stabilizer_order']}, "
            f"contribution {entry['contribution']}"
        )
    return "clifford-count", payload, lines, 0 if out.matches else 1


def cmd_suite(args):
    names = args.checks.split(",") if args.checks else None
    seed = _seed(args)
    try:
        results = run_suite(names, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ok = all(r.ok for r in results)
    payload = {
        "seed": seed,
        "ok": ok,
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    lines = [r.line() for r in results]
    lines.append(
        f"suite: {sum(r.ok for r in results)}/{len(results)} checks passed (seed {seed})"
    )
    return "suite", payload, lines, 0 if ok else 1


# -- parser ---------------------------------------------------------------------


_SYSTEMS = ["A1", "A2", "A3", "A4", "B2", "C2", "D4", "G2"]


def _add_system(p: argparse.ArgumentParser, default_lattice: str) -> None:
    p.add_argument("--root-system", choices=_SYSTEMS, help="built-in root system")
    p.add_argument("--cartan", help="Cartan matrix as JSON rows (alternative)")
    p.add_argument(
        "--lattice",
        choices=["root", "weight"],
        default=default_lattice,
        help=f"X-lattice choice (default {default_lattice})",
    )


def _add_v(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v", default="symbolic", help="'symbolic' or a rational value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtalg", description="Exact quantum-torus and Hecke-operator toolkit"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    top = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )

    def sub(group, name: str, handler, help: str) -> argparse.ArgumentParser:
        p = group.add_parser(name, help=help, parents=[common])
        p.set_defaults(handler=handler)
        return p

    qtorus = top.add_parser("qtorus", help="quantum-torus arithmetic").add_subparsers(
        dest="action", required=True
    )
    p = sub(qtorus, "mul", cmd_qtorus_mul, "multiply two elements")
    p.add_argument("--pairing", required=True, help="pairing matrix as JSON rows")
    p.add_argument("--a", required=True, help="left factor (JSON or @file)")
    p.add_argument("--b", required=True, help="right factor (JSON or @file)")
    p = sub(qtorus, "invariant", cmd_qtorus_invariant, "Weyl-invariance check")
    _add_system(p, "root")
    p.add_argument("--element", required=True, help="element (JSON or @file)")
    p = sub(qtorus, "witness", cmd_qtorus_witness, "simplicity certificates")
    p.add_argument("--pairing", required=True, help="pairing matrix as JSON rows")
    p.add_argument("--element", help="element (JSON or @file)")
    p.add_argument("--random", type=int, default=0, help="number of random trials")
    p.add_argument("--seed", type=int, help="randomness seed (default QTORUS_SEED)")

    module = top.add_parser("module", help="windowed weight modules").add_subparsers(
        dest="action", required=True
    )
    p = sub(module, "isotropy", cmd_module_isotropy, "isotropy group of a point")
    _add_system(p, "weight")
    p.add_argument("--lambda", dest="lam", required=True, help='point, e.g. "(-1,q^1/2)"')
    p = sub(module, "act", cmd_module_act, "act on a module vector")
    _add_system(p, "weight")
    p.add_argument("--lambda", dest="lam", required=True, help="highest point")
    p.add_argument("--window", required=True, help="per-coordinate ranges lo:hi,...")
    p.add_argument("--element", required=True, help="algebra element (JSON or @file)")
    p.add_argument("--vector", required=True, help="module vector (JSON or @file)")
    p = sub(module, "zchi", cmd_module_zchi, "invariant vectors of an induced module")
    _add_system(p, "weight")
    p.add_argument("--lambda", dest="lam", required=True, help="highest point")
    p.add_argument("--window", required=True, help="per-coordinate ranges lo:hi,...")
    p.add_argument("--chi", choices=["trivial", "sign"], default="trivial")

    daha = top.add_parser(
        "daha", help="difference-reflection operators"
    ).add_subparsers(dest="action", required=True)
    p = sub(daha, "op", cmd_daha_op, "build an operator from a generator word")
    _add_system(p, "root")
    _add_v(p)
    p.add_argument("--word", required=True, help='generator word, e.g. "T1 T0 T1"')
    p = sub(daha, "apply", cmd_daha_apply, "apply an operator to a function")
    _add_system(p, "root")
    p.add_argument("--op", required=True, help="operator (JSON or @file)")
    p.add_argument("--f", required=True, help="function (JSON or @file)")
    p = sub(daha, "member", cmd_daha_member, "membership via residue conditions")
    _add_system(p, "root")
    p.add_argument("--op", required=True, help="operator (JSON or @file)")

    spherical = top.add_parser(
        "spherical", help="symmetrizers and spherical membership"
    ).add_subparsers(dest="action", required=True)
    p = sub(spherical, "e", cmd_spherical_e, "the symmetrizing idempotent")
    _add_system(p, "root")
    _add_v(p)
    p = sub(spherical, "check", cmd_spherical_check, "two-condition membership test")
    _add_system(p, "root")
    p.add_argument("--op", required=True, help="operator (JSON or @file)")
    p = sub(spherical, "xi", cmd_spherical_xi, "duality involution on a word")
    _add_v(p)
    p.add_argument("--word", required=True, help='finite generator word, e.g. "T1 T2"')

    loop = top.add_parser("loop", help="matrix loops and q-normal forms").add_subparsers(
        dest="action", required=True
    )
    p = sub(loop, "nf", cmd_loop_nf, "Jordan q-normal form of a loop")
    p.add_argument("--matrix", required=True, help="matrix loop (JSON or @file)")
    p.add_argument("--basis", help="optional basis change applied first")
    p = sub(loop, "centralizer", cmd_loop_centralizer, "flagged roots and components")
    _add_system(p, "weight")
    p.add_argument("--point", dest="lam", required=True, help="torus point")

    clifford = top.add_parser(
        "clifford", help="character tables and orbit counting"
    ).add_subparsers(dest="action", required=True)
    p = sub(clifford, "table", cmd_clifford_table, "exact character table")
    p.add_argument("--group", required=True, help="permutation group (JSON or @file)")
    p.add_argument("--bound", type=int, default=2000, help="enumeration bound")
    p = sub(clifford, "count", cmd_clifford_count, "orbit counting vs direct table")
    p.add_argument("--group", required=True, help="permutation group (JSON or @file)")
    p.add_argument("--normal", required=True, help="normal subgroup (JSON or @file)")
    p.add_argument("--bound", type=int, default=2000, help="enumeration bound")

    relations = top.add_parser(
        "relations", help="quadratic and braid identities"
    ).add_subparsers(dest="action", required=True)
    p = sub(relations, "check", cmd_relations_check, "verify the defining relations")
    _add_system(p, "root")
    _add_v(p)

    p = top.add_parser("suite", help="the full acceptance battery", parents=[common])
    p.set_defaults(handler=cmd_suite)
    p.add_argument(
        "--checks", help=f"comma-separated subset of: {', '.join(CHECKS)}"
    )
    p.add_argument("--seed", type=int, help="randomness seed (default QTORUS_SEED)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kind, payload, lines, code = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QtalgError, ValueError) as exc:
        if args.json:
            doc = {"schema": "qtalg/error/v1", "error": str(exc)}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        doc = {"schema": f"qtalg/{kind}/v1", **payload}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
