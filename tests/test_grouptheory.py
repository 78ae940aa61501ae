from __future__ import annotations

import itertools

import numpy as np
import pytest

from sgmindeg import builders
from sgmindeg.errors import GroupTooLarge, NotSubgroup
from sgmindeg.grouptheory import (
    GroupTable,
    coset_action,
    min_degree_faithful_on,
    subgroup_classes,
)


def gt_of(semigroup):
    return GroupTable.from_table(semigroup.table)


def perm_indices(n, pred):
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    return tuple(i for i, p in enumerate(perms) if pred(p))


def parity(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]) % 2


def test_subgroups_c6():
    lat = subgroup_classes(gt_of(builders.cyclic(6).semigroup))
    assert sorted(len(c.rep) for c in lat.classes) == [1, 2, 3, 6]


def test_subgroups_s3():
    lat = subgroup_classes(gt_of(builders.symmetric_group(3).semigroup))
    assert sorted(len(c.rep) for c in lat.classes) == [1, 2, 3, 6]
    # exact subgroup counts: 1 trivial, 3 conjugate C_2, 1 C_3, 1 S_3
    for c in lat.classes:
        members = np.asarray(c.rep)
        g = lat.group
        # closure and inverses
        assert set(g.table[np.ix_(members, members)].ravel()) <= set(c.rep)
        assert set(g.inv[members]) <= set(c.rep)


def test_subgroups_klein_all_normal():
    klein = builders.direct_product(
        builders.cyclic(2).semigroup, builders.cyclic(2).semigroup
    )
    lat = subgroup_classes(GroupTable.from_table(klein.table))
    assert len(lat.classes) == 5  # abelian: classes = subgroups
    for c in lat.classes:
        assert c.core == c.rep  # every subgroup is its own core


def test_subgroups_s4_class_count():
    lat = subgroup_classes(gt_of(builders.symmetric_group(4).semigroup))
    assert len(lat.classes) == 11


def test_subgroups_s5_class_count():
    g = GroupTable.from_table(
        builders.symmetric_group(5).semigroup.table, validate=False
    )
    assert len(subgroup_classes(g).classes) == 19


def test_subgroups_cores_are_normal():
    lat = subgroup_classes(gt_of(builders.symmetric_group(4).semigroup))
    g = lat.group
    for c in lat.classes:
        core = np.asarray(c.core)
        for x in range(g.order):
            assert set(g.conjugate_set(core, x)) == set(c.core)


def test_subgroup_cap():
    with pytest.raises(GroupTooLarge):
        subgroup_classes(gt_of(builders.cyclic(1000).semigroup), cap=720)


def test_coset_action_whole_group_and_trivial():
    g = gt_of(builders.symmetric_group(3).semigroup)
    whole = coset_action(g, tuple(range(6)))
    assert whole.npoints == 1
    assert whole.kernel_mask().all()
    regular = coset_action(g, (0,))
    assert regular.npoints == 6
    assert regular.kernel_mask().sum() == 1  # faithful


def test_coset_action_s3_natural():
    g = gt_of(builders.symmetric_group(3).semigroup)
    lat = subgroup_classes(g)
    c2 = next(c for c in lat.classes if len(c.rep) == 2)
    act = coset_action(g, c2.rep)
    assert act.npoints == 3
    assert act.kernel_mask().sum() == 1
    # identity acts as identity, action is compatible
    assert np.array_equal(act.act[:, 0], np.arange(3))
    for a in range(6):
        for b in range(6):
            assert np.array_equal(act.act[act.act[:, a], b], act.act[:, g.table[a, b]])


def test_coset_action_rejects_non_subgroup():
    g = gt_of(builders.symmetric_group(3).semigroup)
    with pytest.raises(NotSubgroup):
        coset_action(g, (0, 3))  # identity plus a 3-cycle: not closed
    with pytest.raises(NotSubgroup):
        coset_action(g, (1, 2))  # no identity


def test_min_degree_c6_whole_group():
    g = gt_of(builders.cyclic(6).semigroup)
    lat = subgroup_classes(g)
    deg, wit = min_degree_faithful_on(g, tuple(range(6)), lat)
    assert deg == 5  # 2 + 3
    cores = [set(lat.classes[ci].core) for ci in wit]
    inter = set(range(6))
    for c in cores:
        inter &= c
    assert inter == {0}


def test_min_degree_trivial_subgroup_is_zero():
    g = gt_of(builders.cyclic(6).semigroup)
    lat = subgroup_classes(g)
    assert min_degree_faithful_on(g, (0,), lat) == (0, ())


def test_min_degree_s3_on_a3():
    g = gt_of(builders.symmetric_group(3).semigroup)
    lat = subgroup_classes(g)
    a3 = perm_indices(3, lambda p: parity(p) == 0)
    deg, wit = min_degree_faithful_on(g, a3, lat)
    assert deg == 3
    assert len(wit) == 1 and lat.classes[wit[0]].index == 3


def test_min_degree_matches_bruteforce_on_small_groups():
    # exhaustive subset check against the branch and bound, with the index
    # cost and with a cost that is not the index, on N = G and on a proper N
    for sg in [builders.cyclic(12).semigroup, builders.symmetric_group(4).semigroup]:
        g = GroupTable.from_table(sg.table)
        lat = subgroup_classes(g)
        k = len(lat.classes)
        proper = min(
            (c.rep for c in lat.classes if c.core == c.rep and 1 < len(c.rep) < g.order), key=len
        )
        index_cost = lambda ci: lat.classes[ci].index
        order_cost = lambda ci: len(lat.classes[ci].rep) + 1
        for n in (tuple(range(g.order)), proper):
            assert min_degree_faithful_on(g, n, lat) == min_degree_faithful_on(g, n, lat, index_cost)
            for cost in (index_cost, order_cost):
                deg, wit = min_degree_faithful_on(g, n, lat, cost)
                assert deg == sum(cost(ci) for ci in wit)
                best = None
                for mask in range(1, 1 << k):
                    chosen = [i for i in range(k) if mask >> i & 1]
                    inter = set(n)
                    for i in chosen:
                        inter &= set(lat.classes[i].core)
                    if inter == {0}:
                        total = sum(cost(i) for i in chosen)
                        best = total if best is None else min(best, total)
                assert deg == best


def test_min_degree_rejects_non_normal():
    g = gt_of(builders.symmetric_group(3).semigroup)
    lat = subgroup_classes(g)
    c2 = next(c for c in lat.classes if len(c.rep) == 2)
    with pytest.raises(NotSubgroup):
        min_degree_faithful_on(g, c2.rep, lat)
