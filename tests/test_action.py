from __future__ import annotations

import numpy as np
import pytest

from conftest import NULL2
from reference import (
    cayley_extended,
    check_compatibility,
    faithful_by_rows,
    greens_congruence_fixpoint,
    rm_meet,
    schutzenberger_right,
    semisimplify,
    strong_orbits_by_reachability,
)
from sgmindeg import builders
from sgmindeg.action import (
    PartialAction,
    coproduct_actions,
    faithful_by_criterion,
    greens_quotient,
    is_faithful,
    orbits,
    tensor_action,
)
from sgmindeg.congruence import rm_irreducible_classes
from sgmindeg.core import from_table, greens, opposite, rees_coordinatize
from sgmindeg.errors import NotIdempotent, NotRhodesSemisimple, NotSemisimpleAction
from sgmindeg.grouptheory import GroupAction, GroupTable, coset_action, subgroup_classes
from sgmindeg.mindeg import min_partial_degree


def test_schutzenberger_group_regular():
    s = builders.symmetric_group(3).semigroup
    g = greens(s)
    r = rees_coordinatize(s, g, 0)
    act = schutzenberger_right(s, r)[0]
    assert act.degree == 6 and act.is_total()
    assert is_faithful(s, act)[0]


def test_schutzenberger_b2_rank1(b2):
    g = greens(b2)
    r = rees_coordinatize(b2, g, 1)
    act = schutzenberger_right(b2, r)[0]
    # the R-class of e has |G| * l_J = 3 points (one per L-class)
    assert act.degree == 3
    assert not act.is_total()
    assert is_faithful(b2, act)[0]  # realized on the 0-minimal ideal
    dec = orbits(b2, act, g)
    assert len(dec.orbits) == 1 and dec.orbits[0].kind == "transitive"
    assert check_compatibility(b2, act)


def test_schutzenberger_is_right_multiplication_on_r_class_of_e(builder_corpus):
    for b in builder_corpus.values():
        s = b.semigroup
        g = greens(s)
        for j in g.regular_jclasses():
            r = rees_coordinatize(s, g, j)
            act, labels = schutzenberger_right(s, r)
            r_e = [y for y in range(s.size) if g.rclass_of[y] == g.rclass_of[r.e]]
            assert labels == tuple(r_e)  # ascending element indices
            for x in range(s.size):
                images = [int(s.table[y, x]) for y in r_e]
                assert act.maps[x].tolist() == [r_e.index(z) if z in r_e else -1 for z in images]


def test_schutzenberger_simple_total_degree12():
    b = builders.sigma_square(3, (1, 0, 2))
    s = b.semigroup
    g = greens(s)
    r = rees_coordinatize(s, g, 0)
    act = schutzenberger_right(s, r)[0]
    assert act.degree == 12  # |G| * b_count = 6 * 2
    assert act.is_total()


def test_orbits_group_on_itself():
    s = builders.cyclic(4).semigroup
    act = PartialAction(degree=4, maps=s.table.T.copy())
    dec = orbits(s, act)
    assert len(dec.orbits) == 1
    o = dec.orbits[0]
    assert o.kind == "transitive" and o.apex == 0 and o.invariant


def test_orbits_null_vs_fixed_point():
    s = from_table(NULL2)
    # trivial total action on one point: a transitive singleton
    total = PartialAction(degree=1, maps=np.zeros((2, 1), dtype=np.int32))
    dec = orbits(s, total)
    assert dec.orbits[0].kind == "transitive"
    # everything undefined: a null orbit
    empty = PartialAction(degree=1, maps=np.full((2, 1), -1, dtype=np.int32))
    dec2 = orbits(s, empty)
    assert dec2.orbits[0].kind == "null" and dec2.orbits[0].apex is None


def test_orbits_t2op_inverse_image():
    t2 = builders.full_transformation(2)
    s = opposite(t2.semigroup)
    nat = t2.natural_action.maps  # element -> total map on {0, 1}
    # subsets of {0,1} as bitmasks 0..3; X * f = f^{-1}(X) in the opposite
    maps = np.empty((4, 4), dtype=np.int32)
    for el in range(4):
        f = nat[el]
        for x in range(4):
            maps[el, x] = (((x >> f[0]) & 1) << 0) | (((x >> f[1]) & 1) << 1)
    act = PartialAction(degree=4, maps=maps)
    assert check_compatibility(s, act)
    dec = orbits(s, act)
    kinds = sorted((len(o.points), o.kind) for o in dec.orbits)
    # {empty set} is an invariant fixed point, {full set} likewise, {1},{2} merge
    assert kinds == [(1, "transitive"), (1, "transitive"), (2, "transitive")]
    assert is_faithful(s, act)[0]


def test_semisimplify_idempotent_on_semisimple(sim2):
    g = greens(sim2)
    r = rees_coordinatize(sim2, g, 1)
    act = schutzenberger_right(sim2, r)[0]
    ss = semisimplify(sim2, act, g)
    assert ss.degree == act.degree
    assert np.array_equal(ss.maps, act.maps)


def test_semisimplify_t2_natural_unchanged(t2):
    nat = builders.full_transformation(2).natural_action
    ss = semisimplify(t2, nat)
    assert ss.degree == 2
    assert np.array_equal(ss.maps, nat.maps)


def test_semisimplify_chain_cayley_preserves_faithfulness():
    s = builders.chain_semilattice(3).semigroup
    act = PartialAction(degree=3, maps=s.table.T.copy())
    assert is_faithful(s, act)[0]
    assert rm_meet(s).is_equality()
    ss = semisimplify(s, act)
    assert ss.degree == 3
    assert is_faithful(s, ss)[0]
    assert not ss.is_total()


def test_is_faithful_witness():
    s = builders.cyclic(2).semigroup
    act = PartialAction(degree=1, maps=np.zeros((2, 1), dtype=np.int32))
    ok, witness = is_faithful(s, act)
    assert not ok and witness == (0, 1)


def test_is_faithful_cayley(random_corpus):
    for s, _ in random_corpus[:30]:
        assert is_faithful(s, cayley_extended(s))[0]


def test_orbits_and_faithfulness_match_references(random_corpus, builder_corpus):
    # Cayley actions, natural actions and the witnesses, each also without its
    # last point (images of that point become undefined), which can make it
    # non-faithful
    cases = [(s, cayley_extended(s)) for s, _ in random_corpus[:40]]
    cases += [(s, act) for s, act in random_corpus[:40]]
    for b in builder_corpus.values():
        try:
            cases.append((b.semigroup, min_partial_degree(b.semigroup).witness))
        except NotRhodesSemisimple:
            pass
    cases += [
        (s, PartialAction(degree=a.degree - 1, maps=np.where(a.maps == a.degree - 1, -1, a.maps)[:, :-1]))
        for s, a in cases
        if a.degree
    ]
    assert any(not faithful_by_rows(s, a)[0] for s, a in cases)
    for s, act in cases:
        assert is_faithful(s, act) == faithful_by_rows(s, act)
        dec = orbits(s, act)
        assert dec.orbit_of.tolist() == strong_orbits_by_reachability(act).tolist()
        assert [o.points for o in dec.orbits] == [
            tuple(np.flatnonzero(dec.orbit_of == k).tolist()) for k in range(len(dec.orbits))
        ]


def test_criterion_on_schutzenberger_coproduct(sim2):
    g = greens(sim2)
    rep = rm_irreducible_classes(sim2, g)
    blocks = [
        schutzenberger_right(sim2, rees_coordinatize(sim2, g, j))[0]
        for j in g.regular_jclasses()
    ]
    omega = coproduct_actions(blocks)
    assert faithful_by_criterion(sim2, omega, g, rep)
    assert is_faithful(sim2, omega)[0]
    # dropping the irreducible class's component breaks faithfulness
    reduced = coproduct_actions(
        [
            schutzenberger_right(sim2, rees_coordinatize(sim2, g, j))[0]
            for j in g.regular_jclasses()
            if j not in rep.irreducible_ids()
        ]
    )
    assert not faithful_by_criterion(sim2, reduced, g, rep)
    assert not is_faithful(sim2, reduced)[0]


def test_criterion_on_natural_sim2(sim2):
    g = greens(sim2)
    rep = rm_irreducible_classes(sim2, g)
    nat = builders.symmetric_inverse(2).natural_action
    assert faithful_by_criterion(sim2, nat, g, rep)
    assert is_faithful(sim2, nat)[0]


def test_criterion_rejects_non_semisimple_action():
    s = builders.chain_semilattice(3).semigroup
    g = greens(s)
    rep = rm_irreducible_classes(s, g)
    act = PartialAction(degree=3, maps=s.table.T.copy())  # Cayley: not orbit-invariant
    with pytest.raises(NotSemisimpleAction):
        faithful_by_criterion(s, act, g, rep)


def test_tensor_one_point_gives_l_classes(sim2):
    g = greens(sim2)
    r = rees_coordinatize(sim2, g, 1)
    gt = GroupTable.of_rees(r)
    one = GroupAction(group=gt, npoints=1, act=np.zeros((1, 1), dtype=np.int32))
    t = tensor_action(one, r)
    assert t.degree == r.b_count == 2
    assert check_compatibility(sim2, t)


def test_tensor_natural_s3():
    b = builders.sigma_square(3, (1, 0, 2))
    s = b.semigroup
    g = greens(s)
    r = rees_coordinatize(s, g, 0)
    gt = GroupTable.of_rees(r)
    lat = subgroup_classes(gt)
    c2 = next(i for i, c in enumerate(lat.classes) if len(c.rep) == 2)
    nat = coset_action(gt, lat.classes[c2].rep)
    t = tensor_action(nat, r)
    assert t.degree == 6  # 3 points x 2 L-classes
    assert t.is_total()
    assert check_compatibility(s, t)


def test_tensor_regular_gset_is_schutzenberger():
    b = builders.sigma_square(3, (1, 0, 2))
    s = b.semigroup
    g = greens(s)
    r = rees_coordinatize(s, g, 0)
    gt = GroupTable.of_rees(r)
    lat = subgroup_classes(gt)
    reg = coset_action(gt, lat.classes[0].rep)  # trivial subgroup: regular G-set
    t = tensor_action(reg, r)
    schutz = schutzenberger_right(s, r)[0]
    assert t.degree == schutz.degree
    # equivariant bijection: match points by their full translation rows
    key_t = [tuple(t.maps[:, p]) for p in range(t.degree)]
    key_s = [tuple(schutz.maps[:, p]) for p in range(schutz.degree)]
    assert sorted(key_t) == sorted(key_s)


def test_tensor_action_matches_its_definition(builder_corpus):
    # point (p, b) moved by x: t_b x = (a0, h, b') in coordinates gives (p.h, b')
    for b in builder_corpus.values():
        s = b.semigroup
        g = greens(s)
        for j in g.regular_jclasses():
            r = rees_coordinatize(s, g, j)
            coords = {int(r.triple_to_elem[c]): c for c in np.ndindex(r.triple_to_elem.shape)}
            reg = GroupAction(group=GroupTable.of_rees(r), npoints=r.group_order, act=r.group_mul)
            t = tensor_action(reg, r)
            nb = r.b_count
            for x in range(s.size):
                for p in range(reg.npoints):
                    for tb in range(nb):
                        u = int(s.table[r.triple_to_elem[0, 0, tb], x])
                        a, h, b2 = coords.get(u, (-1, 0, 0))
                        want = reg.act[p, h] * nb + b2 if a == 0 else -1
                        assert t.maps[x, p * nb + tb] == want


def test_greens_quotient_equality_when_rows_separate(b2):
    g = greens(b2)
    r = rees_coordinatize(b2, g, 1)
    gt = GroupTable.of_rees(r)
    one = GroupAction(group=gt, npoints=1, act=np.zeros((1, 1), dtype=np.int32))
    t = tensor_action(one, r)
    quot, class_of = greens_quotient(b2, t, r.e)
    assert quot.degree == t.degree  # column condition holds: congruence trivial
    assert np.array_equal(class_of, np.arange(t.degree))


@pytest.mark.parametrize(
    "sigma,expected",
    [((1, 0, 2), 5), ((1, 2, 0), 6)],
)
def test_greens_quotient_sigma_square(sigma, expected):
    b = builders.sigma_square(3, sigma)
    s = b.semigroup
    g = greens(s)
    r = rees_coordinatize(s, g, 0)
    gt = GroupTable.of_rees(r)
    lat = subgroup_classes(gt)
    c2 = next(i for i, c in enumerate(lat.classes) if len(c.rep) == 2)
    nat = coset_action(gt, lat.classes[c2].rep)
    t = tensor_action(nat, r)
    quot, _ = greens_quotient(s, t, r.e)
    assert quot.degree == expected


def test_greens_quotient_methods_agree(sim2, b2):
    for s in (sim2, b2):
        g = greens(s)
        for j in g.regular_jclasses():
            r = rees_coordinatize(s, g, j)
            act = schutzenberger_right(s, r)[0]
            _, class_of = greens_quotient(s, act, r.e)
            assert np.array_equal(class_of, greens_congruence_fixpoint(s, act, r.e))


def test_greens_quotient_merges_all_undefined_points():
    # a point with an entirely undefined S^1 e signature collapses into the
    # sink; the generator fixpoint agrees
    s = builders.chain_semilattice(2).semigroup  # 0 = zero, 1 = identity
    maps = np.array(
        [
            [0, -1, 0],  # the zero: fixes p0, kills p1, sends p2 to p0
            [0, 1, 2],  # the identity
        ],
        dtype=np.int32,
    )
    omega = PartialAction(degree=3, maps=maps)
    assert check_compatibility(s, omega)
    quot, class_of = greens_quotient(s, omega, 0)
    assert class_of.tolist() == [0, -1, 0]
    assert quot.degree == 1
    assert greens_congruence_fixpoint(s, omega, 0).tolist() == [0, -1, 0]


def test_greens_quotient_requires_idempotent(sim2):
    nat = builders.symmetric_inverse(2).natural_action
    non_idem = next(x for x in range(sim2.size) if not sim2.is_idempotent(x))
    with pytest.raises(NotIdempotent):
        greens_quotient(sim2, nat, non_idem)
