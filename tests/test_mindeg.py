from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

from reference import (
    check_compatibility,
    class_members,
    dj_pricing_every_class,
    is_inverse_semigroup,
    restriction_is_injective,
    schein_irreducibility_check,
)
from sgmindeg import builders
from sgmindeg.congruence import column_condition, rm_irreducible_classes
from sgmindeg.core import from_partial_maps, from_table, greens, rees_coordinatize
from sgmindeg.errors import InvariantViolated, NotIrreducible, NotRhodesSemisimple
from sgmindeg.grouptheory import (
    GroupTable,
    coproduct_group_actions,
    coset_action,
    min_degree_faithful_on,
    subgroup_classes,
)
from sgmindeg.mindeg import (
    dj,
    left_degrees,
    min_partial_degree,
    tensor_quotient_size,
)


def dj_of(s, j=None):
    g = greens(s)
    rep = rm_irreducible_classes(s, g)
    if j is None:
        (j,) = rep.irreducible_ids()
    r = rees_coordinatize(s, g, j)
    return dj(r, rep, subgroup_classes(GroupTable.of_rees(r)))


def test_dj_b2(b2):
    res = dj_of(b2)
    assert res.d == 3 and res.fast_path == "aggm"


def test_dj_m2f3():
    s = builders.matrix_monoid(2, 3).semigroup
    res = dj_of(s)
    assert res.d == 8 and res.fast_path == "column_condition"


def test_dj_sigma_transposition():
    s = builders.sigma_square(3, (1, 0, 2)).semigroup
    res = dj_of(s)
    assert res.d == 5 and res.fast_path == "general_search"


def test_dj_rejects_reducible(sim2):
    g = greens(sim2)
    rep = rm_irreducible_classes(sim2, g)
    reducible = [j for j in rep.per_class if not rep.per_class[j].rm_irreducible][0]
    r = rees_coordinatize(sim2, g, reducible)
    with pytest.raises(NotIrreducible):
        dj(r, rep, subgroup_classes(GroupTable.of_rees(r)))


def test_fast_path_consistency_with_general_search():
    # the column condition's formula, class by class: the Green's quotient of
    # X (x) R_J has b_count * [G:H] points for every coset action X of G_J,
    # which is what dj_pricing_every_class prices such a class by
    cases = [
        builders.binary_relations(2).semigroup,
        builders.matrix_monoid(2, 2).semigroup,
        builders.matrix_monoid(2, 3).semigroup,
        builders.symmetric_inverse(2).semigroup,
        builders.symmetric_inverse(3).semigroup,
        builders.rees_matrix(builders.symmetric_group(3).semigroup, np.eye(3, dtype=int), True).semigroup,
    ]
    for s in cases:
        g = greens(s)
        rep = rm_irreducible_classes(s, g)
        for j in rep.irreducible_ids():
            r = rees_coordinatize(s, g, j)
            lat = subgroup_classes(GroupTable.of_rees(r))
            assert column_condition(r)
            assert dj(r, rep, lat).fast_path == ("aggm" if r.group_order == 1 else "column_condition")
            for c in lat.classes:
                assert tensor_quotient_size(coset_action(lat.group, c.rep), r) == r.b_count * c.index


def test_dj_matches_multiset_search_on_tiny_instances():
    # unrestricted search allowing repeated orbit types never beats the set search
    cases = [
        builders.sigma_square(3, (1, 0, 2)).semigroup,
        builders.sigma_square(3, (1, 2, 0)).semigroup,
        builders.matrix_monoid(2, 3).semigroup,
    ]
    for s in cases:
        g = greens(s)
        rep = rm_irreducible_classes(s, g)
        (j,) = rep.irreducible_ids()
        r = rees_coordinatize(s, g, j)
        gt = GroupTable.of_rees(r)
        lat = subgroup_classes(gt)
        res = dj(r, rep, lat)
        gpos = {el: i for i, el in enumerate(r.group)}
        mpos = [gpos[el] for el in rep.per_class[j].mj]
        k = len(lat.classes)
        best = None
        for mult in itertools.product(range(3), repeat=k):  # multiplicities 0..2
            if not any(mult):
                continue
            inter = set(range(gt.order))
            for ci in range(k):
                if mult[ci]:
                    inter &= set(lat.classes[ci].core)
            if not (inter & set(mpos)) <= {0}:
                continue
            actions = []
            for ci in range(k):
                for _ in range(mult[ci]):
                    actions.append(coset_action(gt, lat.classes[ci].rep))
            cost = tensor_quotient_size(coproduct_group_actions(actions), r)
            best = cost if best is None else min(best, cost)
        assert res.d == best


def test_min_partial_degree_m2f2(m2f2):
    rep = min_partial_degree(m2f2)
    assert rep.m == 3
    assert rep.witness.degree == 3
    assert rep.total.exact == 4  # zero element


def test_min_partial_degree_sim2(sim2):
    rep = min_partial_degree(sim2)
    assert rep.m == 2
    # inverse semigroup: witness acts by partial bijections
    assert restriction_is_injective(rep.witness)


def test_min_partial_degree_chain3():
    s = builders.chain_semilattice(3).semigroup
    rep = min_partial_degree(s)
    assert rep.m == 2
    assert [c.d for c in rep.per_class] == [1, 1]


def test_min_partial_degree_rejects_non_semisimple(t2):
    with pytest.raises(NotRhodesSemisimple) as exc:
        min_partial_degree(t2)
    assert any(len(c) > 1 for c in exc.value.classes)


def test_min_partial_degree_trivial():
    s = from_table([[0]])
    rep = min_partial_degree(s)
    assert rep.m == 0
    assert rep.witness.degree == 0
    assert rep.total.exact == 0  # the empty action is total on zero points


def test_wrong_quotient_size_is_caught(monkeypatch):
    # a search cost that disagrees with the assembled quotient must not pass
    # silently, also under python -O
    import sgmindeg.mindeg as md

    true_size = md.tensor_quotient_size
    monkeypatch.setattr(md, "tensor_quotient_size", lambda x, r: true_size(x, r) + 1)
    s = builders.sigma_square(3, (1, 0, 2)).semigroup
    with pytest.raises(InvariantViolated):
        min_partial_degree(s)


def _partitions(n, most=None):
    """The partitions of n into parts of at most ``most``, largest part first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _cycle_type_sigmas(n):
    """One permutation of {0..n-1} per cycle type, cycles on consecutive points."""
    out = []
    for parts in _partitions(n):
        sigma: list[int] = []
        for k in parts:
            start = len(sigma)
            sigma += [start + (i + 1) % k for i in range(k)]
        out.append(tuple(sigma))
    return out


S6_CASES = [(1, 2, 3, 4, 5, 0), (1, 2, 0, 4, 5, 3), (1, 0, 3, 2, 5, 4)]


def _dj_lazy_and_eager(monkeypatch, s):
    """(lazy dj, dj pricing every class, [(index, cost)] of the classes the
    lazy one priced) for each RM-irreducible class of s."""
    import sgmindeg.mindeg as md

    priced = []
    true_size = md.tensor_quotient_size

    def counted(x, r):
        size = true_size(x, r)
        priced.append((x.npoints, size))  # a coset action has [G:H] points
        return size

    monkeypatch.setattr(md, "tensor_quotient_size", counted)
    g = greens(s)
    rep = rm_irreducible_classes(s, g)
    out = []
    for j in rep.irreducible_ids():
        r = rees_coordinatize(s, g, j)
        lat = subgroup_classes(GroupTable.of_rees(r))
        priced.clear()
        lazy = dj(r, rep, lat)
        out.append((lazy, dj_pricing_every_class(r, rep, lat), list(priced), lat))
    return out


def test_lazy_pricing_matches_pricing_every_class(monkeypatch, builder_corpus, random_corpus):
    # the same d_J, witness and fast path, and no class priced below its
    # index; on the column-condition path the reference prices each class by
    # the formula b_count * [G:H], and dj by the Green's quotient it builds
    pinned = [
        builders.binary_relations(3),
        builders.matrix_monoid(3, 2),
        builders.partial_transformation(4),
        builders.symmetric_inverse(4),
        builders.rees_matrix(builders.cyclic(3).semigroup, [[1, 1], [1, 2]], adjoin_zero=True),
    ]
    semigroups = [b.semigroup for b in pinned + list(builder_corpus.values())]
    semigroups += [s for s, _ in random_corpus]
    semigroups += [builders.sigma_square(n, p).semigroup for n in (4, 5) for p in _cycle_type_sigmas(n)]
    assert len(_cycle_type_sigmas(4)) == 5 and len(_cycle_type_sigmas(5)) == 7
    paths = Counter()
    for s in semigroups:
        for lazy, eager, priced, _ in _dj_lazy_and_eager(monkeypatch, s):
            assert lazy == eager
            assert all(size >= index for index, size in priced)
            paths[lazy.fast_path] += 1
    assert paths == {"aggm": 90, "column_condition": 40, "general_search": 27}


def test_each_priced_class_builds_its_coset_action_once(monkeypatch, builder_corpus):
    # dj prices the very G-set it builds, builds it once per class and J-class,
    # and min_partial_degree assembles each J-block from the witnesses' G-sets
    # without building any again
    import sgmindeg.mindeg as md

    built, priced = [], []
    true_coset, true_size = md.coset_action, md.tensor_quotient_size

    def coset(g, rep):
        built.append((tuple(rep), true_coset(g, rep)))
        return built[-1][1]

    def size(x, r):
        priced.append((r.jclass, x))
        return true_size(x, r)

    monkeypatch.setattr(md, "coset_action", coset)
    monkeypatch.setattr(md, "tensor_quotient_size", size)
    cases = [b.semigroup for b in builder_corpus.values()]
    cases += [builders.sigma_square(4, p).semigroup for p in _cycle_type_sigmas(4)]
    jclasses = 0
    for s in cases:
        built.clear()
        priced.clear()
        try:
            rep = min_partial_degree(s)
        except NotRhodesSemisimple:
            continue
        assert len(built) == len(priced)
        assert all(x is y for (_, x), (_, y) in zip(built, priced))
        keys = [(j, sub) for (j, _), (sub, _) in zip(priced, built)]
        assert len(set(keys)) == len(keys)
        assert {j for j, _ in keys} == {c.jclass for c in rep.per_class}
        jclasses += len(rep.per_class)
    assert jclasses == 20


def test_lazy_pricing_on_s6_prices_only_classes_within_d(monkeypatch):
    # pricing every class costs 55 tensor quotients per case; the index bound
    # leaves only classes of index <= d_J
    for sigma in S6_CASES:
        ((lazy, eager, priced, lat),) = _dj_lazy_and_eager(monkeypatch, builders.sigma_square(6, sigma).semigroup)
        assert lazy == eager and lazy.fast_path == "general_search"
        assert all(size >= index for index, size in priced)
        assert 0 < len(priced) <= sum(c.index <= lazy.d for c in lat.classes) < 55


def test_quotient_below_its_index_is_caught(monkeypatch):
    # the index bound is what lets classes go unpriced, so a cost below it raises
    import sgmindeg.mindeg as md

    monkeypatch.setattr(md, "tensor_quotient_size", lambda x, r: x.npoints - 1)
    s = builders.sigma_square(3, (1, 0, 2)).semigroup
    with pytest.raises(InvariantViolated, match="below its index"):
        min_partial_degree(s)


def test_left_degrees_aggm_example():
    s = builders.aggm_01(2, 3, [frozenset({0, 1})]).semigroup
    right_m = min_partial_degree(s).m
    assert right_m == 2
    assert left_degrees(s, right_m).m == 3


def test_left_degrees_inverse_symmetric(sim2):
    right_m = min_partial_degree(sim2).m
    assert left_degrees(sim2, right_m).m == right_m == 2


def test_left_degrees_commutative_identical():
    s = builders.cyclic(6).semigroup
    right = min_partial_degree(s)
    left = left_degrees(s, right.m)
    assert left.m == right.m == 5
    assert left.to_dict() == right.to_dict()


def test_left_degrees_bound_violation_raises():
    # a left degree above 2^m - 1 must not pass silently, also under python -O
    s = builders.aggm_01(2, 3, [frozenset({0, 1})]).semigroup
    with pytest.raises(InvariantViolated):
        left_degrees(s, 1)  # l(S) = 3 > 2^1 - 1


def test_left_degrees_oracle_fallback():
    # S_2 x RB(2,2) is not Rhodes semisimple on either side, so neither
    # min_partial_degree nor left_degrees applies and its left degree is the
    # oracle's alone: partial degree 3 is refuted for the opposite and 4 found
    from sgmindeg.core import opposite
    from sgmindeg.oracle import OracleQuery, brute_min_degree

    s = builders.rectangular_group(builders.cyclic(2).semigroup, 2, 2).semigroup
    with pytest.raises(NotRhodesSemisimple):
        min_partial_degree(s)
    sop = opposite(s)
    with pytest.raises(NotRhodesSemisimple):
        min_partial_degree(sop)
    refuted = brute_min_degree(OracleQuery(semigroup=sop, mode="partial", min_n=3, max_n=3))
    assert refuted.status == "not_found"
    found = brute_min_degree(OracleQuery(semigroup=sop, mode="partial", min_n=1, max_n=4))
    assert found.status == "found" and found.degree == 4


def test_clifford_chain_with_proper_invisible_subgroup(clifford_c4_c2):
    # the top class has M_J = ker(C_4 -> C_2), a proper nontrivial normal
    # subgroup: the C_2-stabilizer orbit is inadmissible (its core meets M_J)
    # and the regular orbit is forced, giving d = 4; the bottom group adds 2
    from sgmindeg.oracle import OracleQuery, brute_min_degree

    s = clifford_c4_c2
    g = greens(s)
    rep = rm_irreducible_classes(s, g)
    assert rep.irreducible_ids() == [0, 1]
    top = rep.per_class[0]
    assert len(top.mj) == 2 and len(class_members(g.hclass_of)[g.hclass_of[top.e]]) == 4
    r = min_partial_degree(s)
    assert r.m == 6
    assert [c.d for c in r.per_class] == [4, 2]
    res = brute_min_degree(OracleQuery(semigroup=s, mode="partial", min_n=1, max_n=6, budget_secs=200))
    assert res.status == "found" and res.degree == 6


def test_brandt_over_c2_theory_and_oracle_agree():
    # inverse semigroup with a nontrivial maximal subgroup in its irreducible
    # class: m = l_J * n_J = 2 * 2, confirmed by the oracle
    from sgmindeg.oracle import OracleQuery, brute_min_degree

    s = builders.rees_matrix(
        builders.cyclic(2).semigroup, [[1, 0], [0, 1]], adjoin_zero=True
    ).semigroup
    assert is_inverse_semigroup(s)
    rep = min_partial_degree(s)
    assert rep.m == 4
    assert rep.per_class[0].fast_path == "column_condition"
    assert restriction_is_injective(rep.witness)
    res = brute_min_degree(OracleQuery(semigroup=s, mode="partial", min_n=1, max_n=4))
    assert res.status == "found" and res.degree == 4


def test_total_degree_interval_and_oracle_resolution():
    # no zero, partial witness: the total degree is only bracketed by theory
    s = builders.direct_product(
        builders.cyclic(2).semigroup, builders.chain_semilattice(2).semigroup
    )
    rep = min_partial_degree(s)
    assert rep.m == 3
    assert rep.total.exact is None
    assert (rep.total.lower, rep.total.upper) == (3, 4)
    resolved = min_partial_degree(s, resolve_total_with_oracle=True)
    assert resolved.total.exact is not None


def test_witness_action_verified(builder_corpus):
    from sgmindeg.action import is_faithful

    for b in builder_corpus.values():
        s = b.semigroup
        try:
            rep = min_partial_degree(s)
        except NotRhodesSemisimple:
            continue
        assert rep.witness.degree == rep.m
        assert is_faithful(s, rep.witness)[0]
        assert check_compatibility(s, rep.witness)


def test_is_action_matches_compatibility_on_witnesses(builder_corpus):
    from sgmindeg.action import PartialAction, is_action

    checked = 0
    for b in builder_corpus.values():
        s = b.semigroup
        try:
            witness = min_partial_degree(s).witness
        except NotRhodesSemisimple:
            continue
        assert is_action(s, witness) == (True, None)
        assert check_compatibility(s, witness)
        if witness.degree == 0:
            continue
        # one entry of the last element's map moved to the next value, -1 after the last point
        maps = witness.maps.copy()
        maps[-1, 0] = (maps[-1, 0] + 2) % (witness.degree + 1) - 1
        bad = PartialAction(degree=witness.degree, maps=maps)
        acts, (x, g) = is_action(s, bad)
        assert not acts and not check_compatibility(s, bad)
        assert g in s.generators()
        assert not (maps[s.mul(x, g)] == np.append(maps[g], -1)[maps[x]]).all()
        checked += 1
    assert checked == 12


def test_witness_that_is_not_an_action_is_caught(monkeypatch):
    # a witness that is faithful but no homomorphism must not pass silently,
    # also under python -O: here two transpositions of S_3 swap their maps,
    # which no automorphism of S_3 does while fixing the 3-cycles
    import sgmindeg.mindeg as md
    from sgmindeg.action import PartialAction

    built = md.coproduct_actions

    def swap_two_maps(parts):
        w = built(parts)
        maps = w.maps.copy()
        maps[[1, 2]] = maps[[2, 1]]
        return PartialAction(degree=w.degree, maps=maps)

    monkeypatch.setattr(md, "coproduct_actions", swap_two_maps)
    s = builders.symmetric_group(3).semigroup
    with pytest.raises(InvariantViolated, match="not an action"):
        min_partial_degree(s)


def test_monotone_sanity_group_bound(builder_corpus):
    # m(S) >= classical minimal faithful degree of G_J whenever M_J = G_J
    for b in builder_corpus.values():
        s = b.semigroup
        try:
            rep = min_partial_degree(s)
        except NotRhodesSemisimple:
            continue
        g = greens(s)
        irr = rm_irreducible_classes(s, g)
        for j in irr.irreducible_ids():
            r = rees_coordinatize(s, g, j)
            if len(irr.per_class[j].mj) != r.group_order or r.group_order == 1:
                continue
            gt = GroupTable.of_rees(r)
            lat = subgroup_classes(gt)
            deg, _ = min_degree_faithful_on(
                gt, tuple(range(gt.order)), lat, lambda ci: lat.classes[ci].index
            )
            assert rep.m >= deg


def test_closed_forms_beyond_the_oracle():
    # sizes the oracle cannot reach, each with many regular J-classes: the
    # symmetric inverse monoid I_5, closed from its generators (make stops at
    # n = 4), the free semilattice on 8 generators (its nonempty subsets
    # under union) and a 64-element chain; on the inverse semigroups the
    # RM-irreducible classes and M_J are those of Schein's criterion
    i5, _ = from_partial_maps(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0), (-1, 1, 2, 3, 4)])
    assert i5.size == 1546
    subsets = np.arange(1, 256)
    free8 = from_table((subsets[:, None] | subsets) - 1)
    for s, m in ((i5, 5), (free8, 8), (builders.chain_semilattice(64).semigroup, 63)):
        assert min_partial_degree(s).m == m
    for s in (i5, builders.symmetric_inverse(4).semigroup):
        g = greens(s)
        rep = rm_irreducible_classes(s, g)
        schein = schein_irreducibility_check(s, g)
        assert sorted(rep.per_class) == g.regular_jclasses()
        for j, row in rep.per_class.items():
            assert schein[j].join_irreducible == row.rm_irreducible
            assert set(schein[j].mj) == set(row.mj)
