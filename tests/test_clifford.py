"""Tests for permutation groups, character tables and Clifford counting."""

import cmath
from fractions import Fraction as Q
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtalg.clifford import (
    CharacterTable,
    Cyc,
    PermGroup,
    character_table,
    check_normal,
    clifford_count,
    clifford_orbits,
    coset_representatives,
    cyclotomic_poly,
    quotient_group,
    weyl_permutation_group,
)
from qtalg.errors import EnumerationBoundError
from qtalg.loopjordan import component_weyl
from qtalg.rootdata import BUILTIN_CARTAN, LatticePair, RootSystem
from qtalg.scalars import QPower


def compose(a, b):
    return tuple(a[x] for x in b)


def invert(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def s3() -> PermGroup:
    return PermGroup(3, [(1, 0, 2), (1, 2, 0)])


def c3() -> PermGroup:
    return PermGroup(3, [(1, 2, 0)])


def wreath_pair():
    """The swap extension of two commuting copies of S3 on six points."""
    gens_n = [
        (1, 0, 2, 3, 4, 5),
        (1, 2, 0, 3, 4, 5),
        (0, 1, 2, 4, 3, 5),
        (0, 1, 2, 4, 5, 3),
    ]
    swap = (3, 4, 5, 0, 1, 2)
    return PermGroup(6, gens_n + [swap]), PermGroup(6, gens_n)


def quaternion_pair():
    """The eight-element quaternion group over its cyclic subgroup of order 4."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
        ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def split(x):
        return (-1 if x.startswith("-") else 1, x.lstrip("-"))

    def mul(a, b):
        sa, ua = split(a)
        sb, ub = split(b)
        sr, ur = split(base[(ua, ub)])
        return ("-" if sa * sb * sr < 0 else "") + ur

    idx = {n: i for i, n in enumerate(names)}

    def perm_of(g):
        return tuple(idx[mul(g, x)] for x in names)

    return PermGroup(8, [perm_of("i"), perm_of("j")]), PermGroup(8, [perm_of("i")])


# -- cyclotomic arithmetic ----------------------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_arithmetic():
    z = Cyc.zeta(3)
    assert z * z * z == Cyc.one(3)
    assert z + z.conjugate() == Cyc.const(3, -1)
    assert (z * z).conjugate() == z
    assert Cyc.zeta(3).promote(6) == Cyc.zeta(6, 2)
    assert Cyc.const(3, Q(5, 2)).rational() == Q(5, 2)
    assert Cyc.zeta(5).rational() is None


def test_cyclotomic_galois_requires_coprime_exponent():
    with pytest.raises(ValueError):
        Cyc.zeta(6).galois(2)


# -- permutation groups -------------------------------------------------------


def test_group_enumeration_and_classes():
    g = s3()
    assert g.order == 6
    assert g.exponent() == 6
    sizes = sorted(len(m) for _, m in g.conjugacy_classes())
    assert sizes == [1, 2, 3]
    assert g.conjugacy_classes()[0][0] == g.identity


def classes_by_orbit_search(group: PermGroup) -> list:
    """Conjugacy classes as orbits of conjugation by the generators, in
    enumeration order, each generator inverted where it is used."""
    unseen = set(group.elements)
    classes = []
    for x in group.elements:
        if x not in unseen:
            continue
        members, frontier = [x], [x]
        unseen.discard(x)
        while frontier:
            nxt = []
            for y in frontier:
                for g in group.generators:
                    z = compose(compose(g, y), invert(g))
                    if z in unseen:
                        unseen.discard(z)
                        members.append(z)
                        nxt.append(z)
            frontier = nxt
        classes.append((x, tuple(members)))
    return classes


@pytest.mark.parametrize("label, count", [("D4", 13), ("B2", 5)])
def test_weyl_conjugacy_classes_keep_representatives_members_and_order(label, count):
    system = RootSystem(label)
    group = weyl_permutation_group(system.elements, system)
    classes = group.conjugacy_classes()
    assert classes == classes_by_orbit_search(group)
    assert len(classes) == count
    assert sum(len(members) for _, members in classes) == group.order
    for rep, members in classes:
        for g in group.elements:
            assert compose(compose(g, rep), invert(g)) in members


def test_group_enumeration_bound():
    with pytest.raises(EnumerationBoundError):
        PermGroup(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], bound=100)


def test_coset_representatives_cover():
    g, n = s3(), c3()
    reps = coset_representatives(g, n)
    assert len(reps) == 2 and reps[0] == g.identity


def test_check_normal_rejects_non_normal():
    g = s3()
    c2 = PermGroup(3, [(1, 0, 2)])
    with pytest.raises(ValueError, match="not normal"):
        check_normal(g, c2)


def test_quotient_group():
    g, n = wreath_pair()
    q = quotient_group(g, n)
    assert q.order == 2


# -- character tables ---------------------------------------------------------


def test_character_table_c2():
    table = character_table(PermGroup(2, [(1, 0)]))
    values = sorted(tuple(v.rational() for v in row) for row in table.rows)
    assert values == [(1, -1), (1, 1)]
    assert table.verify_orthogonality()


def test_character_table_s3_degrees_match_counting_oracle():
    g = s3()
    # independent derivation: the linear characters are counted by the
    # commutator quotient, the rest is pinned by the class count and the
    # degree-square sum.
    commutators = [
        compose(compose(a, b), invert(compose(b, a)))
        for a, b in product(g.elements, repeat=2)
    ]
    derived = PermGroup.from_elements(3, commutators)
    linear = g.order // derived.order
    classes = len(g.conjugacy_classes())
    assert (linear, classes) == (2, 3)
    leftover = g.order - linear  # 1 + 1 + d^2 = 6 forces d = 2
    assert leftover == 4
    table = character_table(g)
    assert sorted(table.degrees) == [1, 1, 2]
    assert table.verify_orthogonality()


def test_character_table_c3_is_genuinely_cyclotomic():
    table = character_table(c3())
    assert table.conductor == 3
    assert sorted(table.degrees) == [1, 1, 1]
    irrational = [v for row in table.rows for v in row if v.rational() is None]
    assert irrational
    assert table.verify_orthogonality()


def test_character_table_weyl_d4():
    system = RootSystem("D4")
    group = weyl_permutation_group(system.elements, system)
    assert group.order == 192
    table = character_table(group)
    assert len(table.rows) == 13
    assert sum(d * d for d in table.degrees) == 192
    assert table.verify_orthogonality()


def test_character_table_is_cached():
    g = s3()
    assert character_table(g) is character_table(g)


# -- Clifford orbits and counting ----------------------------------------------


def test_orbits_of_the_group_over_itself_are_singletons():
    g = s3()
    orbits = clifford_orbits(g, g)
    assert sorted(o.members for o in orbits) == [(0,), (1,), (2,)]
    assert all(o.stabilizer.order == g.order for o in orbits)


def test_orbits_s3_over_c3():
    orbits = clifford_orbits(s3(), c3())
    shape = sorted((len(o.members), o.stabilizer.order) for o in orbits)
    assert shape == [(1, 6), (2, 3)]


def test_orbits_partition_and_stabilizer_divisibility():
    for group, normal in (
        (s3(), c3()),
        wreath_pair(),
        quaternion_pair(),
    ):
        orbits = clifford_orbits(group, normal)
        seen = sorted(i for o in orbits for i in o.members)
        assert seen == list(range(len(character_table(normal).rows)))
        for o in orbits:
            assert group.order % o.stabilizer.order == 0
            assert o.stabilizer.order % normal.order == 0


def test_orbits_wreath_swap():
    g, n = wreath_pair()
    orbits = clifford_orbits(g, n)
    fixed = [o for o in orbits if len(o.members) == 1]
    swapped = [o for o in orbits if len(o.members) == 2]
    assert len(fixed) == 3 and len(swapped) == 3
    assert all(o.stabilizer.order == 72 for o in fixed)
    assert all(o.stabilizer.order == 36 for o in swapped)


def test_clifford_count_trivial_pair():
    g = s3()
    out = clifford_count(g, g)
    assert out.predicted == out.direct == 3 and out.matches


def test_clifford_count_s3_over_c3():
    out = clifford_count(s3(), c3())
    assert out.predicted == out.direct == 3 and out.matches
    contributions = sorted(b["contribution"] for b in out.breakdown)
    assert contributions == [1, 2]


def test_clifford_count_wreath():
    g, n = wreath_pair()
    out = clifford_count(g, n)
    assert out.predicted == out.direct == 9 and out.matches
    assert not out.flagged


# -- the bridge from Weyl data --------------------------------------------------


def d4_component():
    pair = LatticePair(RootSystem("D4"), "weight")
    half = QPower.q(Q(1, 2))
    minus = QPower.of(-1)
    return pair, component_weyl(pair, (minus, half, minus, minus * half))


def test_clifford_count_on_the_d4_component_pair():
    pair, cw = d4_component()
    big = weyl_permutation_group(cw.isotropy.elements(), pair.system)
    small = weyl_permutation_group(cw.reflection_subgroup, pair.system)
    assert (big.order, small.order) == (2, 1)
    out = clifford_count(big, small)
    assert out.predicted == out.direct == 2 and out.matches


def test_transversal_conjugation_matches_root_transport():
    """Conjugating a flagged reflection moves its root the same way."""
    pair = LatticePair(RootSystem("B2"), "weight")
    cw = component_weyl(pair, (QPower.of(-1), QPower.one()))
    assert cw.roots
    pos = [r for r in cw.roots if pair.system.is_positive_root(r)]
    for t in cw.transversal:
        for root in pos:
            moved = tuple(t.act_root(root))
            if not pair.system.is_positive_root(moved):
                moved = tuple(-x for x in moved)
            lhs = t * pair.system.reflection(root) * t.inverse()
            assert lhs == pair.system.reflection(moved)


# -- small generating sets ------------------------------------------------------


def classes_as_sets(group: PermGroup) -> list:
    return [(rep, frozenset(members)) for rep, members in group.conjugacy_classes()]


def assert_same_group_data(group: PermGroup, reference: PermGroup):
    """Elements, classes and table agree with those of the group that every
    element generates, and the generators are a small subset."""
    assert group.elements == reference.elements
    assert classes_as_sets(group) == classes_as_sets(reference)
    assert character_table(group).to_json() == character_table(reference).to_json()
    assert set(group.generators) <= set(group.elements)
    assert 2 ** len(group.generators) <= group.order


def test_from_elements_keeps_identity_then_the_given_order():
    elements = list(reversed(s3().elements))  # the identity comes last
    group = PermGroup.from_elements(3, elements + elements[:2])
    assert group.elements == (group.identity,) + tuple(elements[:-1])
    assert group.order == 6


@pytest.mark.parametrize("label", sorted(BUILTIN_CARTAN))
def test_from_elements_matches_all_elements_as_generators_on_weyl_groups(label):
    system = RootSystem(label)
    group = weyl_permutation_group(system.elements, system)
    assert_same_group_data(group, PermGroup(group.degree, group.elements))


@pytest.mark.parametrize("label", sorted(BUILTIN_CARTAN))
def test_weyl_permutations_follow_the_root_action(label):
    system = RootSystem(label)
    where = {r: k for k, r in enumerate(system.roots)}
    expected = {tuple(where[w.act_root(r)] for r in system.roots) for w in system.elements}
    assert set(weyl_permutation_group(system.elements, system).elements) == expected


def test_weyl_permutations_reject_another_systems_elements():
    with pytest.raises(ValueError, match="roots of this system"):
        weyl_permutation_group(RootSystem("B2").elements, RootSystem("C2"))
    a2 = RootSystem("A2")
    assert weyl_permutation_group(a2.elements, RootSystem("A2")).order == 6


def test_from_elements_matches_all_elements_as_generators_on_stabilizers():
    group, normal = wreath_pair()
    for orbit in clifford_orbits(group, normal):
        stab = orbit.stabilizer
        assert_same_group_data(stab, PermGroup(stab.degree, stab.elements))


def test_from_elements_closes_a_list_that_is_not_closed():
    listed = [(1, 0, 2), (1, 2, 0)]
    group = PermGroup.from_elements(3, listed)
    assert group.order == 6
    assert group.elements == PermGroup(3, listed).elements
    assert group.elements[:3] == ((0, 1, 2), (1, 0, 2), (1, 2, 0))
    with pytest.raises(EnumerationBoundError):
        PermGroup.from_elements(3, listed, bound=5)


def test_from_elements_of_nothing_is_the_trivial_group():
    group = PermGroup.from_elements(4, [])
    assert group.elements == ((0, 1, 2, 3),)
    assert character_table(group).verify_orthogonality()


# -- the orthogonality check: wrong tables, an older route, complex numbers -----


def cyc_orthogonality(table: CharacterTable) -> bool:
    """Both orthogonality relations as sums of Cyc products with Fraction
    coefficients, each conjugate taken where it is used: an independent
    route to the integer check of CharacterTable.verify_orthogonality."""
    n = table.conductor
    order = Cyc.const(n, table.group.order)
    for a, ra in enumerate(table.rows):
        for b, rb in enumerate(table.rows):
            acc = Cyc.zero(n)
            for size, x, y in zip(table.sizes, ra, rb):
                acc = acc + Cyc.const(n, size) * x * y.conjugate()
            if acc != (order if a == b else Cyc.zero(n)):
                return False
    for i in range(len(table.reps)):
        for j in range(len(table.reps)):
            acc = Cyc.zero(n)
            for row in table.rows:
                acc = acc + row[i] * row[j].conjugate()
            want = Q(table.group.order, table.sizes[i]) if i == j else 0
            if acc != Cyc.const(n, want):
                return False
    return sum(d * d for d in table.degrees) == table.group.order


@cache
def builtin_table(name: str) -> CharacterTable:
    groups = {
        "C2": lambda: PermGroup(2, [(1, 0)]),
        "C3": c3,
        "S3": s3,
        "S3 wr S2": lambda: wreath_pair()[0],
        "S3 x S3": lambda: wreath_pair()[1],
        "Q8": lambda: quaternion_pair()[0],
        "C4": lambda: quaternion_pair()[1],
    }
    if name in groups:
        return character_table(groups[name]())
    system = RootSystem(name[2:-1])
    return character_table(weyl_permutation_group(system.elements, system))


BUILTIN_TABLES = ["C2", "C3", "S3", "S3 wr S2", "S3 x S3", "Q8", "C4"] + [
    f"W({label})" for label in sorted(BUILTIN_CARTAN)
]


def with_rows(
    table: CharacterTable, rows=None, sizes=None, conductor=None
) -> CharacterTable:
    return CharacterTable(
        table.group, table.reps, table.sizes if sizes is None else sizes,
        table.conductor if conductor is None else conductor,
        table.rows if rows is None else rows,
    )


def with_value(table: CharacterTable, a: int, j: int, value: Cyc) -> CharacterTable:
    rows = [list(row) for row in table.rows]
    rows[a][j] = value
    return with_rows(table, rows)


def first_nonzero(table: CharacterTable) -> tuple[int, int]:
    """A nonzero value off the identity class, whose change breaks the
    column relation with the identity class."""
    return next(
        (a, j) for a, row in enumerate(table.rows)
        for j, v in enumerate(row) if j and not v.is_zero()
    )


def swapped_values(table: CharacterTable):
    for a, row in enumerate(table.rows):
        for j, k in product(range(1, len(row)), repeat=2):
            if j < k and row[j] != row[k]:
                rows = [list(r) for r in table.rows]
                rows[a][j], rows[a][k] = row[k], row[j]
                return with_rows(table, rows)
    return None  # no two distinct values off the identity class


def times_zeta(table: CharacterTable):
    a, j = first_nonzero(table)
    return with_value(table, a, j, table.rows[a][j] * Cyc.zeta(table.conductor))


def non_integral(table: CharacterTable):
    a, j = first_nonzero(table)
    return with_value(table, a, j, table.rows[a][j] + Q(1, 2))


def size_off_by_one(table: CharacterTable):
    return with_rows(table, sizes=[s + (j == 1) for j, s in enumerate(table.sizes)])


CORRUPTIONS = [swapped_values, times_zeta, non_integral, size_off_by_one]


@pytest.mark.parametrize("name", BUILTIN_TABLES)
def test_builtin_tables_pass_both_checks(name):
    table = builtin_table(name)
    assert table.verify_orthogonality()
    assert cyc_orthogonality(table)


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", BUILTIN_TABLES)
def test_a_corrupted_table_fails_both_checks(name, corrupt):
    table = builtin_table(name)
    wrong = corrupt(table)
    if wrong is None:  # a group of order 2 has one value off the identity
        assert corrupt is swapped_values and table.group.order == 2
        return
    assert not wrong.verify_orthogonality()
    assert not cyc_orthogonality(wrong)


@pytest.mark.parametrize("name", BUILTIN_TABLES)
def test_relabelled_and_conjugated_tables_pass_both_checks(name):
    table = builtin_table(name)
    n = table.conductor
    variants = [
        with_rows(table, list(reversed(table.rows))),
        with_rows(table, [[v.galois(n - 1) for v in row] for row in table.rows]),
    ]
    for variant in variants:
        assert variant.verify_orthogonality()
        assert cyc_orthogonality(variant)


def test_orthogonal_rows_with_non_integral_values_pass_both_checks():
    """The relations alone admit values that are not algebraic integers:
    these rows of the Klein four group, twice a rational orthogonal matrix
    with first column 1/2, are no character table but satisfy both
    relations exactly, so both checks compare against order * den^2 with
    den = 25."""
    klein = PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    table = character_table(klein)
    values = [
        [1, -1, Q(31, 25), Q(-17, 25)],
        [1, 1, Q(-17, 25), Q(-31, 25)],
        [1, 1, Q(17, 25), Q(31, 25)],
        [1, -1, Q(-31, 25), Q(17, 25)],
    ]
    rows = [[Cyc.const(table.conductor, x) for x in row] for row in values]
    rotated = with_rows(table, rows)
    assert rotated.verify_orthogonality()
    assert cyc_orthogonality(rotated)


def test_orthogonality_check_rejects_values_of_another_order():
    table = builtin_table("C3")
    promoted = [[v.promote(6) for v in row] for row in table.rows]
    with pytest.raises(ValueError, match="promote first"):
        with_rows(table, promoted).verify_orthogonality()
    with pytest.raises(ValueError, match="promote first"):
        with_value(table, 0, 0, Cyc.const(1, 1)).verify_orthogonality()
    assert with_rows(table, promoted, conductor=6).verify_orthogonality()


def to_complex(v: Cyc) -> complex:
    z = cmath.exp(2j * cmath.pi / v.n)
    return sum(float(c) * z**k for k, c in enumerate(v.coeffs))


@pytest.mark.parametrize("name", ["W(A3)", "W(B2)", "W(G2)", "W(D4)", "S3 wr S2"])
def test_tables_are_orthogonal_in_complex_numbers(name):
    table = builtin_table(name)
    rows = [[to_complex(v) for v in row] for row in table.rows]
    order = table.group.order
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            got = sum(s * x * y.conjugate() for s, x, y in zip(table.sizes, ra, rb))
            assert abs(got - (order if a == b else 0)) < 1e-9
    for i, size in enumerate(table.sizes):
        for j in range(len(table.sizes)):
            got = sum(row[i] * row[j].conjugate() for row in rows)
            assert abs(got - (order / size if i == j else 0)) < 1e-9


orders = st.integers(min_value=1, max_value=12)
small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def cyclotomic_pairs(draw):
    n = draw(orders)
    x, y = (
        Cyc(n, draw(st.lists(small, max_size=n + 2))) for _ in range(2)
    )
    return x, y


@settings(max_examples=60, deadline=None)
@given(cyclotomic_pairs(), st.data())
def test_cyclotomic_arithmetic_matches_complex_evaluation(pair, data):
    x, y = pair
    n = x.n
    assert abs(to_complex(x + y) - (to_complex(x) + to_complex(y))) < 1e-9
    assert abs(to_complex(x * y) - to_complex(x) * to_complex(y)) < 1e-9
    units = [t for t in range(1, 2 * n + 1) if gcd(t, n) == 1]
    t = data.draw(st.sampled_from(units))
    z_t = cmath.exp(2j * cmath.pi * t / n)
    direct = sum(float(c) * z_t**k for k, c in enumerate(x.coeffs))
    assert abs(to_complex(x.galois(t)) - direct) < 1e-9
    m = data.draw(st.integers(min_value=1, max_value=4))
    assert abs(to_complex(x.promote(n * m)) - to_complex(x)) < 1e-9
