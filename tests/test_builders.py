from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from reference import acts_monoidally, check_compatibility, ggm_congruence_at
from sgmindeg import builders
from sgmindeg.builders import FamilySpec, build
from sgmindeg.core import check_associativity, compose_maps, greens, opposite, rees_coordinatize
from sgmindeg.errors import BadParameters, SizeLimitExceeded


def test_sizes():
    assert builders.binary_relations(2).semigroup.size == 16
    assert builders.matrix_monoid(2, 2).semigroup.size == 16
    assert builders.sigma_square(3, (1, 0, 2)).semigroup.size == 24  # 2 * 6 * 2
    for n in (1, 2, 3):
        assert builders.full_transformation(n).semigroup.size == n**n
        assert builders.partial_transformation(n).semigroup.size == (n + 1) ** n
        expected = sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
        assert builders.symmetric_inverse(n).semigroup.size == expected


def test_built_tables_are_associative():
    for b in [
        builders.partial_transformation(3),
        builders.matrix_monoid(2, 4),
        builders.matrix_monoid(2, 5),
        builders.rectangular_band(3, 2),
        builders.aggm_01(3, 5, [frozenset({0, 1}), frozenset({0, 1, 2})]),
        builders.rectangular_group(builders.symmetric_group(3).semigroup, 2, 2),
    ]:
        check_associativity(b.semigroup.table)


def test_identity_and_zero_detection():
    assert builders.full_transformation(3).semigroup.identity is not None
    assert builders.full_transformation(3).semigroup.zero is None
    pt = builders.partial_transformation(2).semigroup
    assert pt.identity is not None and pt.zero is not None  # the empty map
    assert builders.binary_relations(2).semigroup.zero == 0


def test_pt2_op_satisfies_aggm_hypotheses():
    s = opposite(builders.partial_transformation(2).semigroup)
    g = greens(s)
    # the rank-1 class: J-class of the lowest rank-1 partial map
    nonzero_regular = [
        j
        for j in g.regular_jclasses()
        if s.zero is not None and j != g.jclass_of[s.zero]
    ]
    j = min(
        nonzero_regular,
        key=lambda j2: (
            any(g.jorder_lt[j3, j2] for j3 in nonzero_regular if j3 != j2),
            j2,
        ),
    )
    r = rees_coordinatize(s, g, j)
    assert r.group_order == 1
    assert r.b_count == 3  # 2^2 - 1 L-classes in the opposite
    assert ggm_congruence_at(s, g, j).is_equality()


def test_matrix_monoid_field_tables():
    from sgmindeg.builders import _field_tables

    for q in (2, 3, 4, 5):
        add, mul = _field_tables(q)
        # field axioms on the table level
        assert (add == add.T).all() and (mul == mul.T).all()
        assert (add[0] == np.arange(q)).all()
        assert (mul[1] == np.arange(q)).all()
        assert (mul[0] == 0).all()
        for a in range(1, q):
            assert set(mul[a]) == set(range(q))  # invertibility of nonzero


def test_rees_validation():
    g = builders.cyclic(2).semigroup
    with pytest.raises(BadParameters):
        builders.rees_matrix(g, [[1, 0], [0, 1]], adjoin_zero=False)
    with pytest.raises(BadParameters):
        builders.rees_matrix(g, [[0, 0], [1, 1]], adjoin_zero=True)
    with pytest.raises(BadParameters):
        builders.rees_matrix(g, [[1, 3], [1, 1]], adjoin_zero=False)
    with pytest.raises(BadParameters, match="not invertible"):  # a monoid, not a group
        builders.rees_matrix(builders.chain_semilattice(2).semigroup, [[1]], adjoin_zero=False)
    trivial = builders.cyclic(1).semigroup
    with pytest.raises(SizeLimitExceeded, match="10201 elements exceeds the limit of 10000"):
        builders.rees_matrix(trivial, np.ones((101, 101)), False)  # checked before any allocation


def _rees_table_by_rows(group, sandwich, adjoin_zero):
    """Reference: the Rees matrix table one row at a time."""
    gt = group.table
    c = np.array(sandwich, dtype=np.int64)
    m = group.size
    nb, na = c.shape
    z = 1 if adjoin_zero else 0
    size = z + na * m * nb
    idx = np.arange(size - z)
    a_of, g_of, b_of = idx // (m * nb), (idx // nb) % m, idx % nb
    table = np.zeros((size, size), dtype=np.int32)
    for x in range(size - z):
        cvals = c[b_of[x], a_of]  # sandwich entry between x and every y
        nz = cvals > 0
        gall = gt[gt[g_of[x], cvals[nz] - 1], g_of[nz]]
        table[x + z, z:][nz] = z + a_of[x] * (m * nb) + gall * nb + b_of[nz]
    return table


@pytest.mark.parametrize(
    "group, sandwich, adjoin_zero",
    [
        (lambda: builders.cyclic(4).semigroup, [[1, 1, 1], [1, 3, 1], [1, 1, 3]], False),
        (lambda: builders.symmetric_group(3).semigroup, [[1, 0], [2, 4]], True),
    ],
    ids=["C4_3x3", "S3_zero"],
)
def test_rees_table_matches_row_by_row(group, sandwich, adjoin_zero):
    g = group()
    table = builders.rees_matrix(g, sandwich, adjoin_zero).semigroup.table
    ref = _rees_table_by_rows(g, sandwich, adjoin_zero)
    assert table.dtype == ref.dtype and table.tobytes() == ref.tobytes()


def test_sigma_square_is_the_rees_sandwich():
    for n, sigma in [(3, (1, 2, 0)), (4, (1, 0, 3, 2)), (5, (1, 2, 3, 4, 0))]:
        perms = list(itertools.permutations(range(n)))
        g = builders.symmetric_group(n).semigroup
        ref = _rees_table_by_rows(g, [[1, 1], [1, perms.index(sigma) + 1]], False)
        assert builders.sigma_square(n, sigma).semigroup.table.tobytes() == ref.tobytes()


def test_rees_zero_and_size():
    g = builders.symmetric_group(3).semigroup
    b = builders.rees_matrix(g, [[1, 1], [1, 2]], adjoin_zero=True)
    assert b.semigroup.size == 2 * 6 * 2 + 1
    assert b.semigroup.zero == 0


def test_aggm_01_validation():
    with pytest.raises(BadParameters):
        builders.aggm_01(2, 4, [frozenset({0, 1})])  # k mismatch
    with pytest.raises(BadParameters):
        builders.aggm_01(2, 3, [frozenset({0})])  # subset too small
    with pytest.raises(BadParameters):
        builders.aggm_01(3, 5, [frozenset({0, 1}), frozenset({0, 1})])  # repeat


def test_sigma_square_validation():
    with pytest.raises(BadParameters):
        builders.sigma_square(3, (0, 0, 1))


def test_family_dispatch():
    b = build(FamilySpec(family="sigma_square", params=("3", "1,0,2")))
    assert b.semigroup.size == 24
    b2 = build(FamilySpec(family="aggm_01", params=("2", "3", "0,1")))
    assert b2.semigroup.size == 7
    b3 = build(FamilySpec(family="rectangular_group", params=("S2", "2", "2")))
    assert b3.semigroup.size == 8
    with pytest.raises(BadParameters):
        build(FamilySpec(family="no_such_family", params=()))


def test_natural_actions_are_monoidal():
    for b in [builders.full_transformation(3), builders.symmetric_inverse(2)]:
        assert acts_monoidally(b.semigroup, b.natural_action)


def test_natural_actions_are_faithful():
    from sgmindeg.action import is_faithful

    for b in [
        builders.full_transformation(3),
        builders.partial_transformation(2),
        builders.symmetric_inverse(3),
        builders.symmetric_group(4),
    ]:
        assert is_faithful(b.semigroup, b.natural_action)[0]
        assert check_compatibility(b.semigroup, b.natural_action)


def _table_by_pairs(maps):
    index = {m: i for i, m in enumerate(maps)}
    return [[index[compose_maps(f, g)] for g in maps] for f in maps]


@pytest.mark.parametrize(
    "family, sizes",
    [
        (builders.full_transformation, (1, 2, 3, 4)),
        (builders.partial_transformation, (1, 2, 3, 4)),
        (builders.symmetric_inverse, (1, 2, 3, 4)),
        (builders.symmetric_group, (1, 2, 3, 4, 5, 6)),
    ],
)
def test_map_family_tables_match_pairwise_composition(family, sizes):
    for n in sizes:
        b = family(n)
        maps = [tuple(int(v) for v in row) for row in b.natural_action.maps]
        assert b.semigroup.table.tolist() == _table_by_pairs(maps), b.label
