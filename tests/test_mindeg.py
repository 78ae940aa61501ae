from __future__ import annotations

import itertools

import pytest

from reference import check_compatibility, is_inverse_semigroup, restriction_is_injective
from sgmindeg import builders
from sgmindeg.congruence import rm_irreducible_classes
from sgmindeg.core import from_table, greens, rees_coordinatize
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


def general_search_d(r, report):
    """d_J with every subgroup class costed by its tensor quotient size; the
    empty G_J-set is not admissible, so a trivial M_J costs the cheapest orbit."""
    gt = GroupTable.of_rees(r)
    lat = subgroup_classes(gt)
    gpos = {el: i for i, el in enumerate(r.group)}
    mj_pos = tuple(sorted(gpos[el] for el in report.per_class[r.jclass].mj))

    def cost(ci):
        return tensor_quotient_size(coset_action(gt, lat.classes[ci].rep), r)

    d, wit = min_degree_faithful_on(gt, mj_pos, lat, cost=cost)
    return d if wit else min(cost(ci) for ci in range(len(lat.classes)))


def test_fast_path_consistency_with_general_search():
    cases = [
        builders.binary_relations(2).semigroup,
        builders.matrix_monoid(2, 2).semigroup,
        builders.matrix_monoid(2, 3).semigroup,
        builders.symmetric_inverse(2).semigroup,
        builders.symmetric_inverse(3).semigroup,
    ]
    for s in cases:
        g = greens(s)
        rep = rm_irreducible_classes(s, g)
        for j in rep.irreducible_ids():
            r = rees_coordinatize(s, g, j)
            fast = dj(r, rep, subgroup_classes(GroupTable.of_rees(r)))
            assert fast.fast_path in ("aggm", "column_condition")
            assert fast.d == general_search_d(r, rep)


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
    assert len(top.mj) == 2 and len(g.hclasses[g.hclass_of[top.e]]) == 4
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
