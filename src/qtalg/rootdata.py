"""Finite root systems and their Weyl groups on explicit lattice pairs.

Roots are stored by their coordinates on the simple roots, coroots by
their coordinates on the simple coroots; ``cartan[i][j]`` is the pairing
of the i-th simple root with the j-th simple coroot.

A Weyl group element is stored as its permutation of ``roots``: W
permutes the root system, and a linear map is fixed by its values on a
basis, so the images of the simple roots determine the element.  The
system keeps a dict from those images (as root indices) to the element,
so a product needs ``rank`` lookups and an inverse one pass over the
permutation; no matrix is multiplied.  Enumeration builds each
permutation from its parent's with one more simple reflection.  The
integer matrices of both actions, read off the images of the simple
roots and coroots, and a reduced word come with each element.

A :class:`LatticePair` fixes which lattices (and hence which coordinate
charts) a computation runs on:

* ``"root"``    — X = root lattice (simple-root basis),
                  Y = coroot lattice (simple-coroot basis), pairing = Cartan;
* ``"weight"``  — X = weight lattice (fundamental-weight basis),
                  Y = coroot lattice, pairing = identity;
* ``"adjoint"`` — X = root lattice, Y = coweight lattice
                  (fundamental-coweight basis), pairing = identity.
"""

from __future__ import annotations

from fractions import Fraction as Q
from operator import mul

from .errors import EnumerationBoundError
from .linalg import mat_det, mat_inv, mat_mul

Coords = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]

WEYL_BOUND = 10_000

BUILTIN_CARTAN: dict[str, list[list[int]]] = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "G2": [[2, -1], [-3, 2]],
}

_COXETER_M = {0: 2, 1: 3, 2: 4, 3: 6}


def _unit(n: int, i: int) -> Coords:
    return tuple(1 if k == i else 0 for k in range(n))


def _identity_mat(n: int) -> Mat:
    return tuple(_unit(n, i) for i in range(n))


def _mat_vec_int(m: Mat, v) -> Coords:
    return tuple([sum(map(mul, row, v)) for row in m])


def validate_cartan(cartan: list[list[int]]) -> None:
    """Check the generalized Cartan conditions plus finite type
    (symmetrizable with positive definite symmetrization)."""
    n = len(cartan)
    if any(len(row) != n for row in cartan):
        raise ValueError("Cartan matrix must be square")
    for i in range(n):
        if cartan[i][i] != 2:
            raise ValueError("diagonal Cartan entries must equal 2")
        for j in range(n):
            if int(cartan[i][j]) != cartan[i][j]:
                raise ValueError("Cartan entries must be integers")
            if i != j and cartan[i][j] > 0:
                raise ValueError("off-diagonal Cartan entries must be <= 0")
            if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise ValueError("zero pattern must be symmetric")
    # symmetrizer by graph propagation
    d: list[Q | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Q(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0:
                    dj = d[i] * Q(cartan[i][j], cartan[j][i])
                    if d[j] is None:
                        d[j] = dj
                        stack.append(j)
                    elif d[j] != dj:
                        raise ValueError("Cartan matrix is not symmetrizable")
    sym = [[d[i] * cartan[i][j] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        minor = [row[:k] for row in sym[:k]]
        if mat_det(minor) <= 0:
            raise ValueError("Cartan matrix is not of finite type")


class WeylElement:
    """Group element, stored as its permutation of the system's roots.

    ``perm[k]`` is the index in ``system.roots`` of the image of the k-th
    root, and ``images`` lists the indices of the images of the simple
    roots, which fix the element.  Column j of ``mat_root`` is w(alpha_j)
    on simple roots, column j of ``mat_coroot`` is w(alpha_j^vee), the
    coroot of w(alpha_j), on simple coroots.
    """

    __slots__ = (
        "system",
        "perm",
        "images",
        "mat_root",
        "mat_coroot",
        "word",
        "length",
        "_hash",
        "_inverse",
    )

    def __init__(self, system, perm: tuple[int, ...], images: tuple[int, ...], word):
        self.system = system
        self.perm = perm
        self.images = images
        self.mat_root: Mat = tuple(zip(*[system.roots[k] for k in images]))
        self.mat_coroot: Mat = tuple(zip(*[system._coroots[k] for k in images]))
        self.word = word
        self.length = len(word)
        self._hash = hash(images)
        self._inverse = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.images == other.images and self.system.cartan == other.system.cartan

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: WeylElement) -> WeylElement:
        """Composition: (self * other) acts by other first, then self."""
        if not isinstance(other, WeylElement):
            return NotImplemented
        p = self.perm
        return self.system._by_images[tuple([p[k] for k in other.images])]

    def inverse(self) -> WeylElement:
        """The inverse: the simple roots' preimages under the permutation."""
        if self._inverse is None:
            images = tuple([self.perm.index(k) for k in self.system._simple_index])
            inv = self.system._by_images[images]
            self._inverse, inv._inverse = inv, self
        return self._inverse

    def is_identity(self) -> bool:
        return self.length == 0

    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def act_root(self, coords) -> Coords:
        return _mat_vec_int(self.mat_root, tuple(coords))

    def __repr__(self) -> str:
        return "s[" + " ".join(str(i + 1) for i in self.word) + "]" if self.word else "e"


class RootSystem:
    """A finite root system from a Cartan matrix (or a built-in name)."""

    def __init__(self, cartan, name: str | None = None):
        if isinstance(cartan, str):
            name = cartan
            try:
                cartan = BUILTIN_CARTAN[cartan]
            except KeyError:
                raise ValueError(
                    f"unknown root system {cartan!r}; "
                    f"known: {sorted(BUILTIN_CARTAN)}"
                ) from None
        validate_cartan(cartan)
        self.name = name
        self.cartan: Mat = tuple(tuple(int(x) for x in row) for row in cartan)
        self.rank = len(cartan)
        self._enumerate_roots()
        self._enumerate_weyl()

    # -- roots -------------------------------------------------------------

    def _reflect_root(self, j: int, r: Coords) -> Coords:
        pairing = sum(r[i] * self.cartan[i][j] for i in range(self.rank))
        return tuple(r[k] - (pairing if k == j else 0) for k in range(self.rank))

    def _reflect_coroot(self, j: int, c: Coords) -> Coords:
        pairing = sum(self.cartan[j][i] * c[i] for i in range(self.rank))
        return tuple(c[k] - (pairing if k == j else 0) for k in range(self.rank))

    def _enumerate_roots(self) -> None:
        n = self.rank
        coroot: dict[Coords, Coords] = {}
        frontier = [(_unit(n, i), _unit(n, i)) for i in range(n)]
        for r, c in frontier:
            coroot[r] = c
        while frontier:
            nxt = []
            for r, c in frontier:
                for j in range(n):
                    r2, c2 = self._reflect_root(j, r), self._reflect_coroot(j, c)
                    if r2 not in coroot:
                        coroot[r2] = c2
                        nxt.append((r2, c2))
                    elif coroot[r2] != c2:
                        raise ValueError("inconsistent root/coroot enumeration")
            frontier = nxt
        self._coroot_of = coroot
        self.roots: tuple[Coords, ...] = tuple(sorted(coroot))
        self.positive_roots: tuple[Coords, ...] = tuple(
            r for r in self.roots if min(r) >= 0
        )
        self.simple_roots: tuple[Coords, ...] = tuple(_unit(n, i) for i in range(n))
        self.highest_root: Coords = max(self.positive_roots, key=sum)
        self.highest_root_coroot: Coords = coroot[self.highest_root]

    def coroot_of(self, root) -> Coords:
        return self._coroot_of[tuple(root)]

    def is_positive_root(self, coords) -> bool:
        c = tuple(coords)
        return c in self._coroot_of and min(c) >= 0

    def root_coroot_pairing(self, root, coroot) -> int:
        """Pairing of a root-lattice vector with a coroot-lattice vector."""
        return sum(
            root[i] * self.cartan[i][j] * coroot[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    # -- Weyl group -----------------------------------------------------------

    def _enumerate_weyl(self) -> None:
        """Breadth-first over words: w s_i sends root k to w(s_i(root k)),
        so its permutation is the parent's composed with that of s_i."""
        n = self.rank
        index = {r: k for k, r in enumerate(self.roots)}
        self._root_index = index
        self._coroots = tuple(self._coroot_of[r] for r in self.roots)
        self._simple_index = simple_index = tuple(index[_unit(n, i)] for i in range(n))
        simple = [
            tuple(index[self._reflect_root(i, r)] for r in self.roots) for i in range(n)
        ]
        ident = WeylElement(self, tuple(range(len(self.roots))), simple_index, ())
        table: dict[tuple[int, ...], WeylElement] = {simple_index: ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                p = w.perm
                for i, s in enumerate(simple):
                    images = tuple([p[s[k]] for k in simple_index])
                    if images in table:
                        continue
                    elt = WeylElement(self, tuple([p[k] for k in s]), images, w.word + (i,))
                    table[images] = elt
                    nxt.append(elt)
                    if len(table) > WEYL_BOUND:
                        raise EnumerationBoundError(
                            f"Weyl group has more than {WEYL_BOUND} elements"
                        )
            frontier = nxt
        self._by_images = table
        self._simple_reflections = tuple(
            table[tuple([s[k] for k in simple_index])] for s in simple
        )
        self.elements: tuple[WeylElement, ...] = tuple(
            sorted(table.values(), key=lambda w: (w.length, w.word))
        )
        self.identity = ident
        self.longest_element = self.elements[-1]
        self.order = len(self.elements)

    def simple_reflection(self, i: int) -> WeylElement:
        return self._simple_reflections[i]

    def element_by_word(self, word) -> WeylElement:
        w = self.identity
        for i in word:
            w = w * self._simple_reflections[i]
        return w

    def reflection(self, root) -> WeylElement:
        """The reflection attached to any root, as a group element:
        s(alpha_j) = alpha_j - <alpha_j, root^vee> root."""
        root = self.roots[self._root_index[tuple(root)]]
        cor = self._coroot_of[root]
        n = self.rank
        images = []
        for j in range(n):
            c = sum(self.cartan[j][m] * cor[m] for m in range(n))
            images.append(
                self._root_index[tuple((k == j) - c * root[k] for k in range(n))]
            )
        return self._by_images[tuple(images)]

    # -- affinization -------------------------------------------------------

    def affine_coxeter_m(self, i: int, j: int) -> int | None:
        """Coxeter exponent m(i, j) of the affine diagram (node 0 affine);
        None means infinity."""
        if i == j:
            return 1

        def pairing(a: int, b: int) -> int:
            # <alpha_a, alpha_b^vee> with 0 the affine node (-theta part)
            if a == 0 and b == 0:
                return 2
            if a == 0:
                return -sum(
                    self.highest_root[k] * self.cartan[k][b - 1]
                    for k in range(self.rank)
                )
            if b == 0:
                return -sum(
                    self.cartan[a - 1][k] * self.highest_root_coroot[k]
                    for k in range(self.rank)
                )
            return self.cartan[a - 1][b - 1]

        c = pairing(i, j) * pairing(j, i)
        return _COXETER_M.get(c)


class LatticePair:
    """W-stable lattices (X, Y) with an integral pairing, in fixed bases.

    On the weight and coweight charts W acts through the dual basis.  The
    fundamental weights are dual to the simple coroots, so row i of the
    matrix of w on weight coordinates is w^-1(alpha_i^vee) on simple
    coroots; likewise row i on coweight coordinates is w^-1(alpha_i) on
    simple roots.  Both are read from the root permutation in integers.
    Conjugating the root (coroot) matrix by the change of basis gives the
    same matrices: both sides are homomorphisms of W, so they agree once
    they agree on the simple reflections, which generate W.  The
    constructor checks this on the simple reflections, and with it that
    the lattices are W-stable (the conjugates are integral).
    """

    KINDS = ("root", "weight", "adjoint")

    def __init__(self, system: RootSystem, kind: str = "root"):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}")
        self.system = system
        self.kind = kind
        n = system.rank
        a = system.cartan
        self.pairing = a if kind == "root" else _identity_mat(n)
        # the pairing inverted in integers, as adj(P) / det(P)
        self.pairing_det = int(mat_det(self.pairing))
        self.pairing_adj = tuple(
            tuple(int(self.pairing_det * x) for x in row) for row in mat_inv(self.pairing)
        )
        # coordinate change from root coords to X coords (c = A^T r) and from
        # coroot coords to Y coords (d = A m); None stands for the identity
        at = tuple(zip(*a))
        self._x_change = at if kind == "weight" else None
        self._x_change_inv = mat_inv(at) if kind == "weight" else None
        self._y_change = a if kind == "adjoint" else None
        for s in map(system.simple_reflection, range(n)):
            for change, mat, image in (
                (self._x_change, s.mat_root, self.x_matrix(s)),
                (self._y_change, s.mat_coroot, self.y_matrix(s)),
            ):
                if change is None:
                    continue
                conj = mat_mul(mat_mul(change, mat), mat_inv(change))
                if conj != [list(row) for row in image]:
                    raise ValueError("lattice is not stable under the action")

    @property
    def rank(self) -> int:
        return self.system.rank

    def x_matrix(self, w: WeylElement) -> Mat:
        """Matrix of w on X coordinates."""
        if self.kind != "weight":
            return w.mat_root
        coroots = self.system._coroots
        return tuple([coroots[k] for k in w.inverse().images])

    def y_matrix(self, w: WeylElement) -> Mat:
        """Matrix of w on Y coordinates."""
        if self.kind != "adjoint":
            return w.mat_coroot
        roots = self.system.roots
        return tuple([roots[k] for k in w.inverse().images])

    def act_x(self, w: WeylElement, coords) -> tuple:
        return _mat_vec_int(self.x_matrix(w), coords)

    def act_y(self, w: WeylElement, coords) -> tuple:
        return _mat_vec_int(self.y_matrix(w), coords)

    def pair(self, x, y):
        """The pairing <x, y> of X and Y coordinates."""
        n = self.rank
        return sum(
            x[i] * self.pairing[i][j] * y[j] for i in range(n) for j in range(n)
        )

    # -- distinguished vectors, in pair coordinates -------------------------

    def root_to_x(self, root_coords) -> tuple:
        """X coordinates of a root-lattice vector (given on simple roots)."""
        if self._x_change is None:
            return tuple(root_coords)
        n = self.rank
        return tuple(
            sum(self._x_change[i][k] * root_coords[k] for k in range(n))
            for i in range(n)
        )

    def x_to_root(self, x_coords) -> tuple:
        """Simple-root coordinates (possibly fractional) of an X vector."""
        if self._x_change is None:
            return tuple(x_coords)
        n = self.rank
        return tuple(
            sum(self._x_change_inv[i][k] * Q(x_coords[k]) for k in range(n))
            for i in range(n)
        )

    def coroot_to_y(self, coroot_coords) -> tuple:
        """Y coordinates of a coroot-lattice vector (given on simple coroots)."""
        if self._y_change is None:
            return tuple(coroot_coords)
        n = self.rank
        return tuple(
            sum(self._y_change[i][k] * coroot_coords[k] for k in range(n))
            for i in range(n)
        )

    def simple_root_x(self, i: int) -> tuple:
        return self.root_to_x(_unit(self.rank, i))

    def simple_coroot_y(self, i: int) -> tuple:
        return self.coroot_to_y(_unit(self.rank, i))

    def theta_x(self) -> tuple:
        return self.root_to_x(self.system.highest_root)

    def theta_coroot_y(self) -> tuple:
        return self.coroot_to_y(self.system.highest_root_coroot)

    def positive_roots_x(self) -> list[tuple]:
        return [self.root_to_x(r) for r in self.system.positive_roots]
