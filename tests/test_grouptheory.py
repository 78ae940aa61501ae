from __future__ import annotations

import hashlib
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from reference import (
    coset_action_by_points,
    group_table,
    kernel_mask,
    min_degree_pricing_every_class,
    subgroup_classes_by_closures,
    tensor_pair_classes_by_entries,
)
from sgmindeg import builders
from sgmindeg.core import from_partial_maps, greens, rees_coordinatize
from sgmindeg.errors import GroupTooLarge, InvariantViolated, NotSubgroup
from sgmindeg.grouptheory import (
    GroupTable,
    coset_action,
    min_degree_faithful_on,
    subgroup_classes,
)
from sgmindeg.mindeg import tensor_pair_classes


def gt_of(semigroup):
    return group_table(semigroup.table)


def perm_indices(n, pred):
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    return tuple(i for i, p in enumerate(perms) if pred(p))


def perm_group(degree, gens):
    """The permutation group generated by gens, identity first."""
    s, _ = from_partial_maps(degree, [tuple(range(degree))] + list(gens))
    return group_table(s.table)


def by_index(lat):
    """The cost of a subgroup class is its index."""
    return lambda ci: lat.classes[ci].index


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
    lat = subgroup_classes(group_table(klein.table))
    assert len(lat.classes) == 5  # abelian: classes = subgroups
    for c in lat.classes:
        assert c.core == c.rep  # every subgroup is its own core


def test_subgroups_s4_class_count():
    lat = subgroup_classes(gt_of(builders.symmetric_group(4).semigroup))
    assert len(lat.classes) == 11


def test_subgroups_s5_class_count():
    g = group_table(
        builders.symmetric_group(5).semigroup.table, validate=False
    )
    assert len(subgroup_classes(g).classes) == 19


@pytest.mark.parametrize(
    "n, count, digest",
    [
        (4, 11, "5bec753815a487135e61745e2e060f4a9882af634b4f4f47184da77952979bc0"),
        (5, 19, "1eafe4abd61530a40057f6686f2a8ea69d456442b7d044d282c2a0c0e7081a08"),
        (6, 56, "17cf1900a2ab7e2d2cd76635f6c25c5064e09c4063a700d70511a9b56f5b0ec1"),
    ],
)
def test_symmetric_group_lattice_pinned(n, count, digest):
    # the classes as (rep, index, core) must not drift: the d_J search reads all three
    g = group_table(builders.symmetric_group(n).semigroup.table, validate=False)
    classes = subgroup_classes(g).classes
    assert len(classes) == count
    rows = repr([(c.rep, c.index, c.core) for c in classes])
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


def test_subgroup_classes_of_s6_peak_memory():
    # a queued class keeps only its own mask, not the m x m array of its
    # conjugates' masks: about 7 MB at the peak on S_6
    g = group_table(builders.symmetric_group(6).semigroup.table, validate=False)
    tracemalloc.start()
    try:
        subgroup_classes(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


C2 = builders.cyclic(2).semigroup
S3 = builders.symmetric_group(3).semigroup


def named_group(name):
    kind, _, n = name.partition("_")
    if kind == "S":
        return group_table(builders.symmetric_group(int(n)).semigroup.table, validate=False)
    if kind == "C":
        return group_table(builders.cyclic(int(n)).semigroup.table)
    s4 = builders.symmetric_group(4).semigroup
    return {
        "C2^3": lambda: group_table(builders.direct_product(builders.direct_product(C2, C2), C2).table),
        "D_8(order16)": lambda: perm_group(8, [tuple((i + 1) % 8 for i in range(8)), tuple(-i % 8 for i in range(8))]),
        "A_5": lambda: perm_group(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]),
        "S3xS3": lambda: group_table(builders.direct_product(S3, S3).table),
        "C3xS4": lambda: group_table(builders.direct_product(builders.cyclic(3).semigroup, s4).table),
    }[name]()


@pytest.mark.parametrize(
    "name, count",
    [("C2^3", 16), ("D_8(order16)", 11), ("A_5", 9), ("S3xS3", 22)],
    ids=["C2^3", "D_8(order16)", "A_5", "S3xS3"],
)
def test_subgroup_class_counts_and_cores(name, count):
    # published numbers of conjugacy classes of subgroups
    g = named_group(name)
    lat = subgroup_classes(g)
    assert len(lat.classes) == count
    every_x = np.arange(g.order)[:, None]
    for c in lat.classes:
        assert set(c.core) <= set(c.rep)
        assert (g.conjugate_set(np.asarray(c.core), every_x) == np.asarray(c.core)).all()


def test_subgroups_cores_are_normal():
    lat = subgroup_classes(gt_of(builders.symmetric_group(4).semigroup))
    g = lat.group
    for c in lat.classes:
        core = np.asarray(c.core)
        for x in range(g.order):
            assert set(g.conjugate_set(core, x)) == set(c.core)


def test_subgroup_cap():
    with pytest.raises(GroupTooLarge):
        subgroup_classes(gt_of(builders.cyclic(1000).semigroup))


def test_coset_action_whole_group_and_trivial():
    g = gt_of(builders.symmetric_group(3).semigroup)
    whole = coset_action(g, tuple(range(6)))
    assert whole.npoints == 1
    assert kernel_mask(whole).all()
    regular = coset_action(g, (0,))
    assert regular.npoints == 6
    assert kernel_mask(regular).sum() == 1  # faithful


def test_coset_action_s3_natural():
    g = gt_of(builders.symmetric_group(3).semigroup)
    lat = subgroup_classes(g)
    c2 = next(c for c in lat.classes if len(c.rep) == 2)
    act = coset_action(g, c2.rep)
    assert act.npoints == 3
    assert kernel_mask(act).sum() == 1
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
    deg, wit = min_degree_faithful_on(g, tuple(range(6)), lat, by_index(lat))
    assert deg == 5  # 2 + 3
    cores = [set(lat.classes[ci].core) for ci in wit]
    inter = set(range(6))
    for c in cores:
        inter &= c
    assert inter == {0}


def test_min_degree_trivial_subgroup_is_the_cheapest_class():
    # every G-set is faithful on 1, but the empty one is not admissible: the
    # search returns the least (cost, position) single class, pricing classes
    # in order of index only while the index is at most the best cost found
    for sg in [builders.cyclic(6).semigroup, builders.symmetric_group(4).semigroup]:
        g = gt_of(sg)
        lat = subgroup_classes(g)
        index = by_index(lat)
        for cost in (index, lambda ci: index(ci) + len(lat.classes[ci].rep) % 3):
            priced = []

            def counted(ci, cost=cost):
                priced.append(ci)
                return cost(ci)

            deg, wit = min_degree_faithful_on(g, (0,), lat, counted)
            best = min((cost(ci), ci) for ci in range(len(lat.classes)))
            assert (deg, wit) == (best[0], best[1:])
            assert priced == sorted(
                (ci for ci in range(len(lat.classes)) if index(ci) <= deg), key=lambda ci: (index(ci), ci)
            )
            assert len(priced) < len(lat.classes)


def test_min_degree_s3_on_a3():
    g = gt_of(builders.symmetric_group(3).semigroup)
    lat = subgroup_classes(g)
    a3 = perm_indices(3, lambda p: parity(p) == 0)
    deg, wit = min_degree_faithful_on(g, a3, lat, by_index(lat))
    assert deg == 3
    assert len(wit) == 1 and lat.classes[wit[0]].index == 3


def test_min_degree_matches_bruteforce_on_small_groups():
    # exhaustive check over nonempty subsets against the branch and bound,
    # with the index cost and with a cost above it, on N = G, on a proper N
    # and on N = 1
    for sg in [builders.cyclic(12).semigroup, builders.symmetric_group(4).semigroup]:
        g = group_table(sg.table)
        lat = subgroup_classes(g)
        k = len(lat.classes)
        proper = min(
            (c.rep for c in lat.classes if c.core == c.rep and 1 < len(c.rep) < g.order), key=len
        )
        index_cost = by_index(lat)
        above_index = lambda ci: lat.classes[ci].index + len(lat.classes[ci].rep)  # never below the index
        for n in (tuple(range(g.order)), proper, (0,)):
            for cost in (index_cost, above_index):
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


def test_min_degree_with_a_lower_bound_prices_only_what_can_matter():
    # the index bounds every cost from below, so the search prices a class
    # only while its index is at most the best cost found, yet returns the
    # cost and the witness of pricing and searching every class, ties included
    for sg in [
        builders.cyclic(12).semigroup,
        builders.symmetric_group(4).semigroup,
        builders.symmetric_group(5).semigroup,
    ]:
        g = group_table(sg.table)
        lat = subgroup_classes(g)
        index = by_index(lat)
        normals = [c.rep for c in lat.classes if c.core == c.rep]
        costs = [
            index,  # every class ties with its bound
            lambda ci: index(ci) + len(lat.classes[ci].rep) % 3,
            lambda ci: 2 * index(ci) - 1,
        ]
        for n in normals:
            for cost in costs:
                priced = []

                def counted(ci, cost=cost):
                    priced.append(ci)
                    return cost(ci)

                deg, wit = min_degree_faithful_on(g, n, lat, counted)
                assert wit and (deg, wit) == min_degree_pricing_every_class(g, n, lat, cost)
                assert len(set(priced)) == len(priced)
                assert all(index(ci) <= deg for ci in priced)
                assert set(priced) >= {
                    ci
                    for ci, c in enumerate(lat.classes)
                    if cost(ci) <= deg and (len(n) == 1 or not set(n) <= set(c.core))
                }


def test_min_degree_cost_below_its_index_raises():
    # the index bound is what lets classes go unpriced, so the search itself
    # refuses a cost below it, for a trivial N as for any other
    g = gt_of(builders.symmetric_group(3).semigroup)
    lat = subgroup_classes(g)
    a3 = perm_indices(3, lambda p: parity(p) == 0)
    for n in ((0,), a3, tuple(range(6))):
        with pytest.raises(InvariantViolated, match="below its index"):
            min_degree_faithful_on(g, n, lat, lambda ci: lat.classes[ci].index - 1)


def test_min_degree_accepts_normal_subgroups():
    # V_4 and A_4 are normal in S_4, and 1 and G are normal in every group;
    # the regular action of S_4 on the cosets of S_3 is faithful, at 4 points
    g = gt_of(builders.symmetric_group(4).semigroup)
    lat = subgroup_classes(g)
    v4 = perm_indices(4, lambda p: parity(p) == 0 and all(p[p[i]] == i for i in range(4)))
    a4 = perm_indices(4, lambda p: parity(p) == 0)
    assert (len(v4), len(a4)) == (4, 12)
    for n in (v4, a4, tuple(range(24))):
        deg, wit = min_degree_faithful_on(g, n, lat, by_index(lat))
        assert deg == 4 and [lat.classes[ci].index for ci in wit] == [4]
    assert min_degree_faithful_on(g, (0,), lat, by_index(lat))[0] == 1  # the trivial G-set


def test_min_degree_rejects_non_normal():
    g = gt_of(builders.symmetric_group(3).semigroup)
    lat = subgroup_classes(g)
    c2 = next(c for c in lat.classes if len(c.rep) == 2)
    with pytest.raises(NotSubgroup):
        min_degree_faithful_on(g, c2.rep, lat, by_index(lat))


# ---------------------------------------------------------------------------
# The batched lattice, the coset action and the tensor quotient against
# their one-at-a-time references


NAMED_GROUPS = [f"S_{n}" for n in range(1, 7)] + [f"C_{n}" for n in (1, 2, 5, 6, 8, 12)]
NAMED_GROUPS += ["C2^3", "D_8(order16)", "A_5", "S3xS3", "C3xS4"]


@pytest.fixture(scope="module")
def corpus_rees(random_corpus):
    """The Rees coordinates of every regular J-class of the random corpus."""
    out = []
    for s, _ in random_corpus:
        g = greens(s)
        out += [rees_coordinatize(s, g, j) for j in g.regular_jclasses()]
    return out


def classes_of(lattice):
    return [(c.rep, c.index, c.core) for c in lattice.classes]


def assert_same_actions(g, lattice, sandwiches):
    """coset_action and tensor_pair_classes on every class equal their references."""
    for c in lattice.classes:
        act = coset_action(g, c.rep)
        ref = coset_action_by_points(g, c.rep)
        assert act.npoints == ref.npoints
        assert act.act.dtype == ref.act.dtype == np.int32
        assert act.act.shape == ref.act.shape and act.act.tobytes() == ref.act.tobytes()
        for r in sandwiches:
            assert np.array_equal(tensor_pair_classes(act, r), tensor_pair_classes_by_entries(act, r))


@pytest.mark.parametrize("name", NAMED_GROUPS)
def test_lattice_and_actions_match_references(name):
    g = named_group(name)
    lattice = subgroup_classes(g)
    assert classes_of(lattice) == classes_of(subgroup_classes_by_closures(g))
    # tensor_pair_classes reads only the sandwich: a 1 x 1 one, and random
    # ones with entries 0 (zero) to |G|, about 30% zeros and a repeated row
    rng = np.random.default_rng(g.order)
    sandwiches = [np.array([[1]], dtype=np.int32)]
    for nb, na in [(2, 3), (3, 2), (4, 4)]:
        c = rng.integers(0, g.order + 1, size=(nb, na), dtype=np.int32)
        c[rng.random((nb, na)) < 0.3] = 0
        c[-1] = c[0]
        sandwiches.append(c)
    assert_same_actions(g, lattice, [SimpleNamespace(sandwich=c) for c in sandwiches])


def test_lattice_and_actions_match_references_on_corpus_maximal_subgroups(corpus_rees):
    assert len(corpus_rees) >= 300
    assert {r.group_order for r in corpus_rees} >= {1, 2, 3, 6}
    for r in corpus_rees:
        g = GroupTable.of_rees(r)
        lattice = subgroup_classes(g)
        assert classes_of(lattice) == classes_of(subgroup_classes_by_closures(g))
        assert_same_actions(g, lattice, [r])
