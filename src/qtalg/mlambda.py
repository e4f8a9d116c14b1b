"""Windowed weight modules over a quantum torus.

A point of the character torus has one exact coordinate
zeta^a q^b c (:class:`~qtalg.scalars.QPower`) per X-basis vector, and is
stored in integer form: the rotations a and q-exponents b scaled by one
common denominator d, plus the positive rational magnitudes c.  A Weyl
element acts by the integer matrix of its inverse on these vectors, and
w(lambda) = lambda q^y holds exactly when the rotations agree mod d, the
magnitudes agree, and y = adj(P) e / (d det P) is integral, where e is the
scaled q-exponent difference and P the pairing matrix; no coordinate
object is built per Weyl element.

The module with base point lambda has basis vectors v_y indexed by shift
exponents y in a finite window inside Y; the supported weights are
lambda*q^y.
Generators act in the normal order "evaluate X after shifting along Y":

    e^{y'} v_y = v_{y + y'},      e^x v_y = (lambda q^y)(x) v_y,

so e^x e^{y'} = q^{<x,y'>} e^{y'} e^x as operators.  Products of module
operators are formed in this normal order only; the module layer is
self-contained and is never multiplied against the quantum-torus layer.

The isotropy group of lambda consists of the w in W with w(lambda) =
lambda*q^{y_w}; its shifts satisfy the cocycle identity y_{w1 w2} =
y_{w1} + w1(y_{w2}) and feed the corrected dot action w.m =
e^{-y_w} w(m).  Induced modules with a fiber representation chi of the
isotropy group carry the full Weyl action.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm, prod
from operator import mul

from .errors import WindowOverflowError
from .linalg import nullspace
from .qtorus import HWElement, TorusElement
from .rootdata import LatticePair, WeylElement
from .scalars import QPower, Scalar, _as_scalar


def _as_qpower(c) -> QPower:
    return c if isinstance(c, QPower) else QPower.of(c)


def _check_rank(rank: int, coords, what: str = "point") -> None:
    if len(coords) != rank:
        raise ValueError(f"{what} has {len(coords)} coordinates; the rank is {rank}")


def _pullback(point, columns) -> tuple[tuple, tuple, tuple]:
    """The point's values at the integer X vectors ``columns``, in the
    integer form of ``point`` (rotations, q-exponents, magnitudes) over
    the same denominator; rotations are not reduced."""
    rot, qexp, mag = point
    moved = [j for j, m in enumerate(mag) if m != 1]
    rots, qexps, mags = [], [], []
    for col in columns:
        _check_rank(len(rot), col, "X vector")
        rots.append(sum(map(mul, rot, col)))
        qexps.append(sum(map(mul, qexp, col)))
        mags.append(prod([mag[j] ** col[j] for j in moved]))
    return tuple(rots), tuple(qexps), tuple(mags)


def _q_shift(pair: LatticePair, den: int, src, dst) -> tuple[int, ...] | None:
    """The y in Y with dst = src * q^y for two points in integer form over
    the denominator den, or None.  The rotations must agree mod den and
    the magnitudes exactly; the q-exponent difference e (scaled by den)
    must solve <b_i, y> = e_i / den integrally, so y = adj(P) e / (den
    det P) for the pairing matrix P must be integral."""
    (r1, e1, m1), (r2, e2, m2) = src, dst
    if any((a - b) % den for a, b in zip(r1, r2)) or m1 != m2:
        return None
    diff = [b - a for a, b in zip(e1, e2)]
    scale = den * pair.pairing_det
    y = []
    for row in pair.pairing_adj:
        v, rem = divmod(sum(map(mul, row, diff)), scale)
        if rem:
            return None
        y.append(v)
    return tuple(y)


class Character:
    """Point of the character torus of X, by coordinates on the X basis.

    Stored in integer form: coordinate i is zeta^(rot_i / den) *
    q^(qexp_i / den) * mag_i, where zeta = exp(2 pi i), den is the least
    common denominator of all rotations and q-exponents, 0 <= rot_i < den
    and mag_i is a positive rational.  The form is unique, so equality
    compares it.  ``values`` gives the coordinates as ``QPower``s.
    """

    __slots__ = ("den", "rot", "qexp", "mag")

    def __init__(self, values):
        values = [_as_qpower(v) for v in values]
        den = lcm(*(v.rot.denominator for v in values), *(v.qexp.denominator for v in values))
        self._set(
            den,
            [int(v.rot * den) for v in values],
            [int(v.qexp * den) for v in values],
            [v.mag for v in values],
        )

    def _set(self, den: int, rot, qexp, mag) -> None:
        g = gcd(den, *rot, *qexp)
        if g > 1:
            den //= g
            rot = [r // g for r in rot]
            qexp = [e // g for e in qexp]
        self.den = den
        self.rot = tuple(r % den for r in rot)
        self.qexp = tuple(qexp)
        self.mag = tuple(mag)

    @classmethod
    def _of(cls, den: int, rot, qexp, mag) -> Character:
        """The point with the integer form over den, in lowest terms."""
        out = cls.__new__(cls)
        out._set(den, rot, qexp, mag)
        return out

    @property
    def values(self) -> tuple[QPower, ...]:
        d = self.den
        return tuple(
            QPower(Q(r, d), Q(e, d), m) for r, e, m in zip(self.rot, self.qexp, self.mag)
        )

    @property
    def rank(self) -> int:
        return len(self.rot)

    def _over(self, den: int) -> tuple[tuple, tuple, tuple]:
        """The integer form over a multiple den of the own denominator."""
        k = den // self.den
        if k == 1:
            return self.rot, self.qexp, self.mag
        return tuple(r * k for r in self.rot), tuple(e * k for e in self.qexp), self.mag

    def value(self, x) -> QPower:
        """lambda(x) for integer X coordinates; a non-integral coordinate
        raises ValueError."""
        for e in x:
            if int(e) != e:
                raise ValueError(f"X coordinate {e} is not an integer")
        (rot,), (qexp,), (mag,) = _pullback(self._over(self.den), [[int(e) for e in x]])
        return QPower(Q(rot, self.den), Q(qexp, self.den), mag)

    def pullback(self, rows) -> Character:
        """The point whose i-th coordinate is lambda at the integer X
        vector rows[i]."""
        return Character._of(self.den, *_pullback(self._over(self.den), rows))

    def times_q_y(self, pair: LatticePair, y) -> Character:
        """The point lambda * q^y, i.e. coordinates scaled by q^{<b_i, y>}."""
        _check_rank(pair.rank, self.rot)
        _check_rank(pair.rank, y, "Y vector")
        d = self.den
        qexp = [e + d * sum(map(mul, row, y)) for e, row in zip(self.qexp, pair.pairing)]
        return Character._of(d, self.rot, qexp, self.mag)

    @staticmethod
    def _columns(pair: LatticePair, w: WeylElement):
        """(w lambda)(x) = lambda(w^{-1} x): coordinate i of w(lambda) is
        lambda at column i of the matrix of w^{-1}."""
        return zip(*pair.x_matrix(w.inverse()))

    def weyl_act(self, pair: LatticePair, w: WeylElement) -> Character:
        """The point w(lambda)."""
        return self.pullback(self._columns(pair, w))

    def weyl_shift_to(
        self, pair: LatticePair, w: WeylElement, other: Character
    ) -> tuple[int, ...] | None:
        """The y in Y with other = w(lambda) * q^y, or None when there is
        none; w(lambda) is formed in integers and not normalized."""
        _check_rank(self.rank, other.rot)
        den = lcm(self.den, other.den)
        moved = _pullback(self._over(den), self._columns(pair, w))
        return _q_shift(pair, den, moved, other._over(den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return (self.den, self.rot, self.qexp, self.mag) == (
            other.den, other.rot, other.qexp, other.mag
        )

    def __hash__(self) -> int:
        return hash((self.den, self.rot, self.qexp, self.mag))

    def __repr__(self) -> str:
        return "lambda(" + ", ".join(str(v) for v in self.values) + ")"

    def to_json(self) -> list[dict]:
        return [v.to_json() for v in self.values]


class IsotropyGroup:
    """The subgroup {w : w(lambda) = lambda q^{y_w}} with its shifts."""

    def __init__(self, pair: LatticePair, shifts: dict[WeylElement, tuple[int, ...]]):
        """Checks, through a generating set, that the elements form a group
        and that the shifts satisfy the cocycle identity.

        Each element not yet generated becomes a generator, and the
        products of the generated elements with the generators must stay
        in the set, so the set is the finite subgroup they generate.  Every
        element is a word in the generators, so y_{w g} = y_w + w(y_g) for
        every element w and generator g gives the identity for every
        pair; the identity element, which generates nothing, is checked on
        its own."""
        self.pair = pair
        self.shifts = shifts = dict(shifts)
        identity = pair.system.identity
        if any(shifts.get(identity, ())):
            raise ValueError("isotropy shifts violate the cocycle identity")
        gens: list[WeylElement] = []
        generated: set[WeylElement] = set()
        for w in shifts:
            if w in generated or w == identity:
                continue
            gens.append(w)
            generated.add(w)
            todo = list(generated)
            while todo:
                x = todo.pop()
                for g in gens:
                    y = x * g
                    if y not in generated:
                        if y not in shifts:
                            raise ValueError("isotropy set is not closed under products")
                        generated.add(y)
                        todo.append(y)
        for w1, y1 in shifts.items():
            rows = tuple(zip(y1, pair.y_matrix(w1)))
            for g in gens:
                # y_{w1 g} = y_{w1} + w1(y_g)
                if shifts[w1 * g] != tuple([a + sum(map(mul, row, shifts[g])) for a, row in rows]):
                    raise ValueError("isotropy shifts violate the cocycle identity")

    @property
    def order(self) -> int:
        return len(self.shifts)

    def __contains__(self, w: WeylElement) -> bool:
        return w in self.shifts

    def shift(self, w: WeylElement) -> tuple[int, ...]:
        return self.shifts[w]

    def elements(self) -> list[WeylElement]:
        return sorted(self.shifts, key=lambda w: (w.length, w.word))

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "elements": [
                {"word": [i + 1 for i in w.word], "shift": list(self.shifts[w])}
                for w in self.elements()
            ],
        }


def isotropy_group(pair: LatticePair, lam: Character) -> IsotropyGroup:
    """All w with w(lambda) = lambda * q^{y_w} for some y_w in Y, each
    shift found exactly on the integer form of the point."""
    _check_rank(pair.rank, lam.rot)
    shifts: dict[WeylElement, tuple[int, ...]] = {}
    for w in pair.system.elements:
        # lambda = w(lambda) q^y exactly when w(lambda) = lambda q^(-y)
        y = lam.weyl_shift_to(pair, w, lam)
        if y is not None:
            shifts[w] = tuple(-v for v in y)
    return IsotropyGroup(pair, shifts)


class Window:
    """Axis-aligned box of shift exponents in Y coordinates."""

    def __init__(self, bounds):
        self.bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
        if any(lo > hi for lo, hi in self.bounds):
            raise ValueError("window bounds must satisfy lo <= hi")

    @classmethod
    def box(cls, lo: int, hi: int, rank: int) -> Window:
        return cls(((lo, hi),) * rank)

    def __contains__(self, y) -> bool:
        return all(lo <= v <= hi for v, (lo, hi) in zip(y, self.bounds))

    def points(self) -> list[tuple[int, ...]]:
        from itertools import product

        ranges = [range(lo, hi + 1) for lo, hi in self.bounds]
        return sorted(product(*ranges))

    def __len__(self) -> int:
        total = 1
        for lo, hi in self.bounds:
            total *= hi - lo + 1
        return total

    def __repr__(self) -> str:
        return "Window" + repr(list(self.bounds))


def _vec_add(acc: dict, key, coeff: Scalar) -> None:
    if key in acc:
        s = acc[key] + coeff
        if s.is_zero():
            del acc[key]
        else:
            acc[key] = s
    elif not coeff.is_zero():
        acc[key] = coeff


def vectors_equal(a: dict, b: dict) -> bool:
    return a == b


class WeightModule:
    """Windowed module with basis v_y, y in the window."""

    def __init__(self, pair: LatticePair, lam: Character, window: Window):
        if lam.rank != pair.rank:
            raise ValueError("character rank does not match the lattice pair")
        self.pair = pair
        self.lam = lam
        self.window = window
        self._iso: IsotropyGroup | None = None

    @property
    def isotropy(self) -> IsotropyGroup:
        if self._iso is None:
            self._iso = isotropy_group(self.pair, self.lam)
        return self._iso

    def basis_vector(self, y, coeff=1) -> dict:
        y = tuple(int(v) for v in y)
        if y not in self.window:
            raise WindowOverflowError(y)
        return {y: _as_scalar(coeff)}

    def weight_of(self, y) -> Character:
        return self.lam.times_q_y(self.pair, y)

    def act_monomial(self, vec: dict, x=None, y=None, coeff=1) -> dict:
        """Apply coeff * e^x e^{y'} (normal order: shift, then evaluate)."""
        n = self.pair.rank
        x = tuple(int(v) for v in x) if x is not None else (0,) * n
        y = tuple(int(v) for v in y) if y is not None else (0,) * n
        coeff = _as_scalar(coeff)
        out: dict = {}
        for ykey, c in vec.items():
            target = tuple(a + b for a, b in zip(ykey, y))
            if target not in self.window:
                raise WindowOverflowError(target)
            value = self.weight_of(target).value(x).as_scalar()
            _vec_add(out, target, c * coeff * value)
        return out

    def act(self, elem, vec: dict) -> dict:
        """Apply a formal combination of torus monomials.

        Accepts a TorusElement, an HWElement whose only Weyl component is
        the identity, or a raw {(x..., y...): coeff} dict.  Monomials are
        read in the normal order e^x e^y.  Nonidentity Weyl components
        have no action on a bare weight module: use dot_act or an
        induced module.
        """
        if isinstance(elem, HWElement):
            for w in elem.terms:
                if not w.is_identity():
                    raise ValueError(
                        "Weyl components do not act on a bare weight module; "
                        "use dot_act or build an induced module"
                    )
            if not elem.terms:
                return {}
            ident = next(iter(elem.terms))
            terms = elem.terms[ident].terms
        elif isinstance(elem, TorusElement):
            terms = elem.terms
        else:
            terms = elem
        n = self.pair.rank
        out: dict = {}
        for full, coeff in terms.items():
            part = self.act_monomial(vec, full[:n], full[n:], coeff)
            for key, c in part.items():
                _vec_add(out, key, c)
        return out

    def w_act(self, w: WeylElement, vec: dict) -> dict:
        """The plain action: v_y -> v_{y_w + w(y)} (w in the isotropy group)."""
        if w not in self.isotropy:
            raise ValueError("plain Weyl action needs an isotropy element")
        yw = self.isotropy.shift(w)
        out: dict = {}
        for ykey, c in vec.items():
            target = tuple(a + b for a, b in zip(yw, self.pair.act_y(w, ykey)))
            if target not in self.window:
                raise WindowOverflowError(target)
            _vec_add(out, target, c)
        return out

    def dot_act(self, w: WeylElement, vec: dict) -> dict:
        """The corrected action w.m = e^{-y_w} w(m): v_y -> v_{w(y)}."""
        if w not in self.isotropy:
            raise ValueError("dot action is defined for isotropy elements only")
        out: dict = {}
        for ykey, c in vec.items():
            target = self.pair.act_y(w, ykey)
            if target not in self.window:
                raise WindowOverflowError(target)
            _vec_add(out, target, c)
        return out


class WRep:
    """Matrix representation of (a subgroup of) the Weyl group."""

    def __init__(self, matrices: dict[WeylElement, tuple]):
        self.matrices = {
            w: tuple(tuple(_as_scalar(x) for x in row) for row in m)
            for w, m in matrices.items()
        }
        dims = {len(m) for m in self.matrices.values()}
        if len(dims) != 1:
            raise ValueError("inconsistent representation dimensions")
        self.dim = dims.pop()

    @classmethod
    def trivial(cls, iso: IsotropyGroup) -> WRep:
        one = ((Scalar.one(),),)
        return cls({w: one for w in iso.shifts})

    @classmethod
    def sign(cls, iso: IsotropyGroup) -> WRep:
        return cls(
            {w: ((Scalar.const(w.sign()),),) for w in iso.shifts}
        )

    def matrix(self, w: WeylElement) -> tuple:
        return self.matrices[w]


class InducedModule:
    """Module induced from (lambda tensor chi) on the isotropy group to the
    full Weyl group: basis (coset j, window shift y, fiber index k)."""

    def __init__(
        self,
        pair: LatticePair,
        lam: Character,
        chi: WRep,
        window: Window,
        iso: IsotropyGroup | None = None,
    ):
        self.pair = pair
        self.lam = lam
        self.chi = chi
        self.window = window
        self.iso = iso if iso is not None else isotropy_group(pair, lam)
        for w in self.iso.shifts:
            if w not in chi.matrices:
                raise ValueError("chi is not defined on the whole isotropy group")
        system = pair.system
        transversal: list[WeylElement] = []
        for w in system.elements:
            if not any(
                (g.inverse() * w) in self.iso for g in transversal
            ):
                transversal.append(w)
        self.transversal = tuple(transversal)
        self.basis = [
            (j, y, k)
            for j in range(len(transversal))
            for y in window.points()
            for k in range(chi.dim)
        ]
        self._coset_cache: dict[tuple, tuple] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_vector(self, j: int, y, k: int = 0, coeff=1) -> dict:
        y = tuple(int(v) for v in y)
        if y not in self.window:
            raise WindowOverflowError(y)
        return {(j, y, k): _as_scalar(coeff)}

    def weight_of(self, j: int, y) -> Character:
        point = self.lam.times_q_y(self.pair, y)
        return point.weyl_act(self.pair, self.transversal[j])

    def act_ex(self, x, vec: dict) -> dict:
        """Diagonal action of e^x."""
        out: dict = {}
        for (j, y, k), c in vec.items():
            value = self.weight_of(j, y).value(x).as_scalar()
            _vec_add(out, (j, y, k), c * value)
        return out

    def act_ey(self, yprime, vec: dict) -> dict:
        """Shift action of e^{y'}: (j, y, k) -> (j, y + g_j^{-1} y', k)."""
        out: dict = {}
        for (j, y, k), c in vec.items():
            g = self.transversal[j]
            shift = self.pair.act_y(g.inverse(), yprime)
            target = tuple(a + b for a, b in zip(y, shift))
            if target not in self.window:
                raise WindowOverflowError(target)
            _vec_add(out, (j, target, k), c)
        return out

    def _coset_decompose(self, u: WeylElement, j: int):
        key = (u, j)
        if key not in self._coset_cache:
            w = u * self.transversal[j]
            for jp, g in enumerate(self.transversal):
                h = g.inverse() * w
                if h in self.iso:
                    self._coset_cache[key] = (jp, h)
                    break
            else:
                raise RuntimeError("transversal does not cover the group")
        return self._coset_cache[key]

    def act_w(self, u: WeylElement, vec: dict) -> dict:
        """The Weyl action: u (g_j ⊗ v_y ⊗ e_k) with u g_j = g_{j'} h."""
        out: dict = {}
        for (j, y, k), c in vec.items():
            jp, h = self._coset_decompose(u, j)
            yh = self.iso.shift(h)
            target = tuple(a + b for a, b in zip(yh, self.pair.act_y(h, y)))
            if target not in self.window:
                raise WindowOverflowError(target)
            mat = self.chi.matrix(h)
            for kp in range(self.chi.dim):
                entry = mat[kp][k]
                if not entry.is_zero():
                    _vec_add(out, (jp, target, kp), c * entry)
        return out

    def dot_act(self, w: WeylElement, vec: dict) -> dict:
        """w.m = e^{-y_w} w(m) for w in the isotropy group."""
        if w not in self.iso:
            raise ValueError("dot action is defined for isotropy elements only")
        moved = self.act_w(w, vec)
        return self.act_ey(tuple(-v for v in self.iso.shift(w)), moved)

    def lambda_line(self) -> list[tuple]:
        """Basis keys of the weight-lambda space: identity coset, zero shift."""
        zero = (0,) * self.pair.rank
        if zero not in self.window:
            raise WindowOverflowError(zero)
        return [(0, zero, k) for k in range(self.chi.dim)]

    def lambda_line_dot_matrix(self, w: WeylElement) -> tuple:
        """Matrix of the dot action on the lambda-weight line."""
        line = self.lambda_line()
        cols = []
        for key in line:
            image = self.dot_act(w, {key: Scalar.one()})
            cols.append([image.get(other, Scalar.zero()) for other in line])
            if len(image) != sum(1 for v in cols[-1] if not v.is_zero()):
                raise ValueError("dot action does not preserve the lambda line")
        return tuple(
            tuple(cols[c][r] for c in range(len(line))) for r in range(len(line))
        )


def _fixed_space(basis: list, group, image) -> list[dict]:
    """Basis of the vectors fixed by every g in group: the nullspace of the
    stacked matrices of g - 1, where image(g, key) is the image of the basis
    vector key as a dict.  A shift that leaves the window is reported as a
    saturation failure."""
    index = {key: i for i, key in enumerate(basis)}
    zero, one = Scalar.zero(), Scalar.one()
    rows: list[list[Scalar]] = []
    for g in group:
        block = [[zero] * len(basis) for _ in basis]
        for key in basis:
            try:
                moved = image(g, key)
            except WindowOverflowError as exc:
                raise WindowOverflowError(
                    exc.y, f"window is not saturated: shift leaves it at y = {exc.y}"
                ) from None
            for target, c in moved.items():
                block[index[target]][index[key]] = c
        for r, row in enumerate(block):
            row[r] = row[r] - one
            rows.append(row)
    if not rows:
        return [{key: one} for key in basis]
    kernel = nullspace(rows, zero, one, lambda x: x.is_zero())
    return [
        {basis[i]: c for i, c in enumerate(vec) if not c.is_zero()}
        for vec in kernel
    ]


def invariants_basis(module: InducedModule) -> list[dict]:
    """Basis of the subspace of W-fixed vectors of an induced module.

    Requires the window to be saturated: every generator image must stay
    inside, otherwise the overflow is reported as a saturation failure.
    """
    system = module.pair.system
    gens = [system.simple_reflection(i) for i in range(system.rank)]
    one = Scalar.one()
    return _fixed_space(module.basis, gens, lambda s, key: module.act_w(s, {key: one}))


def tensor_invariants_dim(module: WeightModule, chi: WRep) -> int:
    """dim (M_lambda ⊗ chi)^{W^lambda} on the module's window."""
    one = Scalar.one()

    def image(w: WeylElement, key) -> dict:
        y, k = key
        [target] = module.w_act(w, {y: one})
        mat = chi.matrix(w)
        return {(target, kp): mat[kp][k] for kp in range(chi.dim)}

    basis = [(y, k) for y in module.window.points() for k in range(chi.dim)]
    group = [w for w in module.isotropy.shifts if not w.is_identity()]
    return len(_fixed_space(basis, group, image))


def dimension_bookkeeping(module: WeightModule, chis: dict[str, WRep]) -> dict:
    """Both sides of the window-scale dimension identity
    dim M_lambda = sum_chi d_chi * dim (M_lambda ⊗ chi)^{W^lambda}."""
    per = {
        name: tensor_invariants_dim(module, chi) for name, chi in chis.items()
    }
    rhs = sum(chis[name].dim * d for name, d in per.items())
    return {
        "window_dim": len(module.window),
        "sum": rhs,
        "per_chi": per,
        "balanced": rhs == len(module.window),
    }
