"""Tests for permutation groups, character tables and Clifford counting."""

from fractions import Fraction as Q
from itertools import product

import pytest

from qtalg.clifford import (
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
from qtalg.rootdata import LatticePair, RootSystem
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
