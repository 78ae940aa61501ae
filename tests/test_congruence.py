from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from reference import (
    class_members,
    column_condition_by_pairs,
    ggm_congruence_at,
    ggm_congruence_over_j,
    inverses_of,
    is_compatible,
    is_inverse_semigroup,
    is_rhodes_semisimple_over_j,
    meet,
    proportionality_flags,
    rm_congruence_over_j,
    rm_irreducible_classes_by_loop,
    rm_meet,
    schein_irreducibility_check,
)
from sgmindeg import builders
from sgmindeg.congruence import (
    column_condition,
    is_rhodes_semisimple,
    rm_congruence_at,
    rm_irreducible_classes,
)
from sgmindeg.core import (
    _partition_from_keys,
    from_table,
    greens,
    opposite,
    rees_coordinatize,
    schutzenberger_reps,
)
from sgmindeg.errors import NotRegular


def test_rm_group_is_equality():
    s = builders.symmetric_group(3).semigroup
    g = greens(s)
    assert rm_congruence_at(s, g, 0).is_equality()


def test_rm_t2_constants_is_equality(t2):
    g = greens(t2)
    consts = int(1 - g.jclass_of[t2.identity])
    assert rm_congruence_at(t2, g, consts).is_equality()


def test_rm_rectangular_group_has_four_classes(s2_rb22):
    g = greens(s2_rb22)
    assert len(class_members(g.jclass_of)) == 1
    cong = rm_congruence_at(s2_rb22, g, 0)
    assert len(class_members(cong.class_of)) == 4
    assert is_compatible(s2_rb22, cong)


def test_ggm_group_is_equality():
    s = builders.cyclic(4).semigroup
    g = greens(s)
    assert ggm_congruence_at(s, g, 0).is_equality()


def test_ggm_reading_pinned_by_matrix_monoid(m2f2):
    # the two-sided congruence at the rank-1 class of M_2(F_2) is equality;
    # this pins the xsy = xty reading of the defining condition
    g = greens(m2f2)
    assert ggm_congruence_at(m2f2, g, 1).is_equality()


def test_ggm_rectangular_group_has_two_classes(s2_rb22):
    g = greens(s2_rb22)
    cong = ggm_congruence_at(s2_rb22, g, 0)
    assert len(class_members(cong.class_of)) == 2
    assert is_compatible(s2_rb22, cong)


def test_rm_subset_of_ggm(random_corpus):
    for s, _ in random_corpus[:60]:
        g = greens(s)
        for j in g.regular_jclasses():
            rm = rm_congruence_at(s, g, j)
            gg = ggm_congruence_at(s, g, j)
            # rm refines ggm
            assert len(class_members(meet(rm, gg).class_of)) == len(class_members(rm.class_of))


def test_rhodes_semisimple_inverse(sim2):
    ok, _ = is_rhodes_semisimple(sim2, greens(sim2))
    assert ok


def test_rhodes_semisimple_t2_false(t2):
    ok, cong = is_rhodes_semisimple(t2, greens(t2))
    assert not ok
    # the congruence identifies exactly the two constant maps
    big = [c for c in class_members(cong.class_of) if len(c) > 1]
    assert len(big) == 1 and len(big[0]) == 2


def test_rhodes_semisimple_ones_sandwich_false():
    s = builders.sigma_square(3, (0, 1, 2)).semigroup  # C = [[1,1],[1,1]]
    ok, _ = is_rhodes_semisimple(s, greens(s))
    assert not ok


def test_irreducible_m2f2(m2f2):
    rep = rm_irreducible_classes(m2f2, greens(m2f2))
    assert rep.irreducible_ids() == [1]
    row = rep.per_class[1]
    assert len(row.mj) == 1  # G_J is trivial
    s, t = row.witness
    assert s != t


def test_irreducible_sim2(sim2):
    rep = rm_irreducible_classes(sim2, greens(sim2))
    assert rep.irreducible_ids() == [1]  # the rank-1 class only


def test_irreducible_simple_semigroup():
    b = builders.sigma_square(3, (1, 0, 2))
    rep = rm_irreducible_classes(b.semigroup, greens(b.semigroup))
    g = greens(b.semigroup)
    assert rep.irreducible_ids() == [0]
    row = rep.per_class[0]
    assert len(row.mj) == 6  # M_J = G_J = S_3


def test_mj_is_normal_subgroup(builder_corpus):
    for b in builder_corpus.values():
        s = b.semigroup
        if s.size > 200:
            continue
        g = greens(s)
        rep = rm_irreducible_classes(s, g)
        for j, row in rep.per_class.items():
            r = rees_coordinatize(s, g, j)
            gpos = {el: i for i, el in enumerate(r.group)}
            mpos = {gpos[el] for el in row.mj}
            gm, gi = r.group_mul, r.group_inv
            # subgroup
            assert 0 in mpos
            assert all(gm[a, b] in mpos for a in mpos for b in mpos)
            # normal in G_J
            assert all(
                gm[gm[gi[x], a], x] in mpos for a in mpos for x in range(r.group_order)
            )


def test_schein_chain():
    s = builders.chain_semilattice(3).semigroup
    rows = schein_irreducibility_check(s)
    g = greens(s)
    assert not rows[int(g.jclass_of[0])].join_irreducible  # bottom is a zero
    assert rows[int(g.jclass_of[1])].join_irreducible
    assert rows[int(g.jclass_of[2])].join_irreducible


def test_schein_matches_rm_on_sim2(sim2):
    rows = schein_irreducibility_check(sim2)
    rep = rm_irreducible_classes(sim2, greens(sim2))
    for j, row in rep.per_class.items():
        assert rows[j].join_irreducible == row.rm_irreducible
        assert set(rows[j].mj) == set(row.mj)


def test_schein_group_c2():
    s = builders.cyclic(2).semigroup
    rows = schein_irreducibility_check(s)
    assert rows[0].join_irreducible
    assert set(rows[0].mj) == {0, 1}  # M_J = G


def test_schein_rejects_non_inverse(t2):
    with pytest.raises(ValueError, match="not inverse"):
        schein_irreducibility_check(t2)


def test_inverse_detection(sim2, t2):
    assert is_inverse_semigroup(sim2)
    assert not is_inverse_semigroup(t2)
    inv = inverses_of(sim2)
    for a in range(sim2.size):
        b = inv[a]
        assert sim2.mul(sim2.mul(a, b), a) == a


def test_column_condition_identity_sandwich(sim2):
    g = greens(sim2)
    r = rees_coordinatize(sim2, g, 1)
    # principal factors of inverse semigroups have identity sandwich matrices
    nz = r.sandwich != 0
    assert (nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all()
    assert column_condition(r)


def test_column_condition_all_nonzero_false():
    b = builders.sigma_square(3, (1, 0, 2))
    g = greens(b.semigroup)
    r = rees_coordinatize(b.semigroup, g, 0)
    assert not column_condition(r)


def test_column_condition_m2f3_rank1():
    s = builders.matrix_monoid(2, 3).semigroup
    g = greens(s)
    r = rees_coordinatize(s, g, 1)
    assert column_condition(r)


def test_column_condition_matches_pairwise_definition():
    # column_condition reads only the sandwich; group entries 1, 2 stand for
    # any nonzero, so only the 0/1 pattern may matter
    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(600):
        nb, na = rng.integers(1, 7), rng.integers(1, 5)
        c = rng.integers(0, 3, size=(nb, na)) * rng.integers(0, 2, size=(nb, 1))
        r = SimpleNamespace(sandwich=c, b_count=nb)
        got = column_condition(r)
        assert got == column_condition_by_pairs(c), c
        seen.add(got)
    assert seen == {True, False}


def test_proportionality_single_nonidentity():
    b = builders.sigma_square(3, (1, 0, 2))
    r = rees_coordinatize(b.semigroup, greens(b.semigroup), 0)
    flags = proportionality_flags(r)
    assert flags.rm and flags.lm and flags.ggm


def test_proportionality_ones_matrix():
    b = builders.sigma_square(3, (0, 1, 2))
    r = rees_coordinatize(b.semigroup, greens(b.semigroup), 0)
    flags = proportionality_flags(r)
    assert not flags.rm and not flags.lm and not flags.ggm


def test_proportionality_aggm_example():
    b = builders.aggm_01(2, 3, [frozenset({0, 1})])
    s = b.semigroup
    g = greens(s)
    j = int(g.jclass_of[1])  # the nonzero class
    r = rees_coordinatize(s, g, j)
    flags = proportionality_flags(r)
    assert flags.rm and flags.lm and flags.ggm


def test_rm_meet_trivial_iff_faithful_schutz_union(sim2, t2):
    assert rm_meet(sim2).is_equality()
    assert rm_meet(t2).is_equality()  # T_n is right mapping
    ok, _ = is_rhodes_semisimple(t2, greens(t2))
    assert not ok  # right mapping but not GGM


def test_rhodes_semisimplicity_is_self_dual(random_corpus, all_tiny_semigroups, builder_corpus):
    # the two-sided condition is symmetric, so a semigroup and its opposite
    # are semisimple together; mindeg.left_degrees relies on this
    corpus = [s for s, _ in random_corpus[:60]] + all_tiny_semigroups
    corpus += [b.semigroup for b in builder_corpus.values()]
    def semisimple(s):
        return is_rhodes_semisimple(s, greens(s))[0]

    for s in corpus:
        assert semisimple(s) == semisimple(opposite(s))
    assert len({semisimple(s) for s in corpus}) == 2  # both answers occur


def test_congruences_require_regular_class():
    s = from_table([[0, 0], [0, 0]])
    g = greens(s)
    j_nonreg = int(g.jclass_of[1])
    with pytest.raises(NotRegular):
        rm_congruence_at(s, g, j_nonreg)
    with pytest.raises(NotRegular):
        ggm_congruence_at(s, g, j_nonreg)


def _assert_same_congruence(got, want):
    assert got.class_of.dtype == want.class_of.dtype
    assert np.array_equal(got.class_of, want.class_of)
    assert np.array_equal(got.class_of, _partition_from_keys(got.class_of)[0])  # ids by lowest member


def _assert_congruences_match_over_j(s):
    """The representative-based congruences equal the whole-J references, field by field."""
    g = greens(s)
    for j in g.regular_jclasses():
        _assert_same_congruence(rm_congruence_at(s, g, j), rm_congruence_over_j(s, g, j))
        _assert_same_congruence(ggm_congruence_at(s, g, j), ggm_congruence_over_j(s, g, j))
    (ok, cong), (ok_ref, cong_ref) = is_rhodes_semisimple(s, g), is_rhodes_semisimple_over_j(s, g)
    assert ok == ok_ref
    _assert_same_congruence(cong, cong_ref)
    rep, ref = rm_irreducible_classes(s, g), rm_irreducible_classes_by_loop(s, g)
    assert rep.per_class == ref.per_class  # jclass, e, flag, witness pair and M_J
    assert rep.rm_congruences.keys() == ref.rm_congruences.keys()
    for j, cong in rep.rm_congruences.items():
        _assert_same_congruence(cong, ref.rm_congruences[j])


@pytest.mark.parametrize(
    "build",
    [
        lambda: builders.binary_relations(3),
        lambda: builders.matrix_monoid(3, 2),
        lambda: builders.partial_transformation(4),
        lambda: builders.symmetric_inverse(4),
        lambda: builders.sigma_square(4, (1, 2, 3, 0)),
        lambda: builders.sigma_square(5, (1, 0, 3, 2, 4)),
        lambda: builders.sigma_square(6, (1, 2, 0, 4, 5, 3)),
    ],
    ids=["B_3", "M_3_F2", "PT_4", "SIM_4", "sigma_square_4", "sigma_square_5", "sigma_square_6"],
)
def test_congruences_match_whole_j_references(build):
    s = build().semigroup
    _assert_congruences_match_over_j(s)
    _assert_congruences_match_over_j(opposite(s))


def test_congruences_match_whole_j_references_on_small_semigroups(
    clifford_c4_c2, all_tiny_semigroups, random_corpus
):
    for s in [clifford_c4_c2, *all_tiny_semigroups, *(s for s, _ in random_corpus)]:
        _assert_congruences_match_over_j(s)
        _assert_congruences_match_over_j(opposite(s))


def test_schutzenberger_reps_are_the_lowest_h_class_members(builder_corpus, random_corpus):
    for s in [b.semigroup for b in builder_corpus.values()] + [s for s, _ in random_corpus]:
        g = greens(s)
        for j in g.regular_jclasses():
            e, r_reps, q_reps = schutzenberger_reps(g, j)
            assert s.is_idempotent(e) and e == min(x for x in g.idempotents if g.jclass_of[x] == j)
            for reps, same, other in [
                (r_reps, g.lclass_of, g.rclass_of),  # r_a: in L_e, one per R-class of J
                (q_reps, g.rclass_of, g.lclass_of),  # q_b: in R_e, one per L-class of J
            ]:
                jel = class_members(g.jclass_of)[j]
                want = sorted({int(other[x]) for x in jel} - {int(other[e])})
                assert reps[0] == e and [int(other[x]) for x in reps[1:]] == want
                for x in reps[1:]:
                    side = [y for y in jel if same[y] == same[e] and other[y] == other[x]]
                    assert x == min(side)
            assert schutzenberger_reps(g, j) is schutzenberger_reps(g, j)  # kept on g
            rc = rees_coordinatize(s, g, j)
            assert rc.e == e
            assert np.array_equal(rc.triple_to_elem[:, 0, 0], r_reps)
            assert np.array_equal(rc.triple_to_elem[0, 0, :], q_reps)


def test_schutzenberger_reps_require_regular_class():
    s = from_table([[0, 0], [0, 0]])
    g = greens(s)
    with pytest.raises(NotRegular):
        schutzenberger_reps(g, int(g.jclass_of[1]))
