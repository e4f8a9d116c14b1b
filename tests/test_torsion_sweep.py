"""Every 2- and 3-torsion point of E = C*/q^Z on the weight lattice.

An n-torsion coordinate is zeta_n^a q^(b/n) with 0 <= a, b < n: for n = 2
one of 1, -1, q^(1/2), -q^(1/2).  A point's type is (|W_lambda|, |W0|,
number of irreducibles): its isotropy group, the reflection subgroup of
its q-centralizer roots, and the character count of W_lambda.  At every
point the Clifford count over W0 must match the direct character-table
count, |W_lambda| must be |W0| times the component order, the reflections
in W_lambda must be those of the q-centralizer roots, found root by root,
and a seeded conjugate point w(lambda) q^y must have the same type.

Tier-1 sweeps A2, B2, G2 and A3 at both orders.  The 256 2-torsion points
of D4 take about 20 s of CPU, so CI runs them as a step of their own through
``sweep``.
"""

import random
from collections import Counter
from fractions import Fraction as Q
from itertools import product

import pytest

from qtalg.clifford import clifford_count, weyl_permutation_group
from qtalg.loopjordan import component_weyl
from qtalg.mlambda import Character
from qtalg.rootdata import LatticePair, RootSystem
from qtalg.scalars import QPower


def torsion(n: int) -> list[QPower]:
    """The n-torsion coordinates zeta_n^a q^(b/n), a fastest."""
    return [QPower(Q(a, n), Q(b, n)) for b in range(n) for a in range(n)]


# how many points have each type, by torsion order
TYPES = {
    2: {
        "A2": {(1, 1, 1): 6, (2, 2, 2): 9, (6, 6, 3): 1},
        "B2": {(4, 4, 4): 12, (8, 8, 5): 4},
        "G2": {(2, 1, 2): 6, (4, 4, 4): 9, (12, 12, 6): 1},
        "A3": {(1, 1, 1): 24, (4, 4, 4): 36, (24, 24, 5): 4},
        "D4": {(2, 1, 2): 96, (16, 16, 16): 144, (192, 192, 13): 16},
    },
    3: {
        "A2": {(6, 6, 3): 9, (1, 1, 1): 72},
        "B2": {(8, 8, 5): 1, (2, 2, 2): 32, (1, 1, 1): 48},
        "G2": {(12, 12, 6): 1, (2, 2, 2): 24, (6, 6, 3): 8, (1, 1, 1): 48},
        "A3": {
            (24, 24, 5): 1,
            (2, 2, 2): 336,
            (6, 6, 3): 32,
            (1, 1, 1): 336,
            (4, 4, 4): 24,
        },
    },
}


def point_type(pair: LatticePair, coords) -> tuple[int, int, int]:
    """The type of the point, after checking its count and component order."""
    cw = component_weyl(pair, coords)
    count = clifford_count(
        weyl_permutation_group(cw.isotropy.elements(), pair.system),
        weyl_permutation_group(cw.reflection_subgroup, pair.system),
    )
    assert count.matches, f"Clifford and direct counts differ at {coords}"
    w0 = len(cw.reflection_subgroup)
    assert cw.isotropy.order == w0 * cw.component_order, f"component order at {coords}"
    # on the weight lattice, s_alpha fixes the point up to q^Y exactly when
    # the point takes a q-power on alpha
    system = pair.system
    inside = {r for r in system.positive_roots if system.reflection(r) in cw.isotropy}
    flagged = {r for r in cw.roots if system.is_positive_root(r)}
    assert inside == flagged, f"reflections in the isotropy group at {coords}"
    return cw.isotropy.order, w0, count.direct


def sweep(label: str, order: int = 2, seed: int = 0) -> Counter:
    """Check every torsion point of the order and a conjugate of it; count
    the types."""
    pair = LatticePair(RootSystem(label), "weight")
    rng = random.Random(f"{label}/{seed}")
    types = Counter()
    for coords in product(torsion(order), repeat=pair.rank):
        kind = point_type(pair, coords)
        w = rng.choice(pair.system.elements)
        y = tuple(rng.randint(-2, 2) for _ in range(pair.rank))
        moved = Character(coords).weyl_act(pair, w).times_q_y(pair, y)
        assert point_type(pair, moved.values) == kind, f"{coords} and its conjugate differ"
        types[kind] += 1
    assert types == TYPES[order][label]
    return types


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_two_torsion_sweep(label):
    sweep(label)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_three_torsion_sweep(label):
    sweep(label, 3)
