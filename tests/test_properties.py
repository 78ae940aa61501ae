"""Randomized property battery over small semigroups plus the builders.

The helper functions below are shared with the acceptance suite, which runs
them over the full corpus; the tests here exercise slices for fast feedback.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from reference import (
    canonical_rep,
    cayley_extended,
    check_compatibility,
    class_members,
    faithful_by_criterion_by_loop,
    ggm_congruence_at,
    greens_congruence_fixpoint,
    is_compatible,
    meet,
    minimal_acting_jclasses_by_pairs,
    orbit_reps,
    rm_meet,
    schutzenberger_right,
    semisimplify,
    stabilizer,
)
from sgmindeg import builders
from sgmindeg.action import (
    coproduct_actions,
    faithful_by_criterion,
    greens_quotient,
    is_faithful,
    orbits,
    tensor_action,
)
from sgmindeg.congruence import (
    column_condition,
    is_rhodes_semisimple,
    rm_congruence_at,
    rm_irreducible_classes,
    universal_congruence,
)
from sgmindeg.core import check_associativity, greens, rees_coordinatize, small_generating_set
from sgmindeg.errors import NonAssociative
from sgmindeg.grouptheory import (
    GroupAction,
    GroupTable,
    coproduct_group_actions,
    coset_action,
    subgroup_classes,
)
from sgmindeg.mindeg import tensor_pair_classes


# ---------------------------------------------------------------------------
# Batteries (shared with the acceptance suite)


def battery_associativity(corpus):
    for s, _ in corpus:
        check_associativity(s.table, small_generating_set(s.table))  # raises on violation


def battery_rm_refines_ggm(corpus):
    for s, _ in corpus:
        g = greens(s)
        for cls in class_members(g.rclass_of) + class_members(g.lclass_of):
            assert len({int(g.jclass_of[x]) for x in cls}) == 1
        for j in g.regular_jclasses():
            rm = rm_congruence_at(s, g, j)
            gg = ggm_congruence_at(s, g, j)
            assert len(class_members(meet(rm, gg).class_of)) == len(class_members(rm.class_of))


def battery_congruences_compatible(corpus):
    for s, _ in corpus:
        g = greens(s)
        for j in g.regular_jclasses():
            assert is_compatible(s, rm_congruence_at(s, g, j))
            assert is_compatible(s, ggm_congruence_at(s, g, j))


def battery_column_condition_collapses_congruences(corpus):
    # when the sandwich rows are separated by idempotents, the two-sided and
    # the right-mapping congruence at that class coincide
    for s, _ in corpus:
        g = greens(s)
        for j in g.regular_jclasses():
            r = rees_coordinatize(s, g, j)
            if column_condition(r):
                rm = rm_congruence_at(s, g, j)
                gg = ggm_congruence_at(s, g, j)
                assert np.array_equal(rm.class_of, gg.class_of)


def battery_irredundant(corpus):
    for s, _ in corpus:
        g = greens(s)
        rep = rm_irreducible_classes(s, g)
        full = universal_congruence(s.size)
        for j in g.regular_jclasses():
            full = meet(full, rep.rm_congruences[j])
        reduced = universal_congruence(s.size)
        for j in rep.irreducible_ids():
            reduced = meet(reduced, rep.rm_congruences[j])
        assert np.array_equal(full.class_of, reduced.class_of)
        # non-omittability: translate the witness into a pair separated at J only
        for j in rep.irreducible_ids():
            s0, t0 = rep.per_class[j].witness
            jelems = class_members(g.jclass_of)[j]
            x = next(
                (
                    x0
                    for x0 in jelems
                    if (
                        g.jclass_of[s.mul(x0, s0)] == j
                        or g.jclass_of[s.mul(x0, t0)] == j
                    )
                    and s.mul(x0, s0) != s.mul(x0, t0)
                ),
                None,
            )
            assert x is not None
            xs, xt = s.mul(x, s0), s.mul(x, t0)
            ids = rep.rm_congruences[j].class_of
            assert ids[xs] != ids[xt]
            for j2 in g.regular_jclasses():
                if j2 != j:
                    ids = rep.rm_congruences[j2].class_of
                    assert ids[xs] == ids[xt]


def battery_apex_surjection(corpus):
    for s, act in corpus:
        g = greens(s)
        for omega in (act, cayley_extended(s)):
            if omega is None:
                continue
            dec = orbits(s, omega, g)
            for o in dec.orbits:
                if o.kind != "transitive":
                    continue
                assert minimal_acting_jclasses_by_pairs(g, omega, o.points) == [o.apex]
                _check_one_apex_surjection(s, g, omega, o)


def _check_one_apex_surjection(s, g, omega, o):
    pts = np.asarray(o.points)
    k = len(pts)
    posarr = np.full(omega.degree + 1, -1, dtype=np.int32)  # slot -1 stays -1
    posarr[pts] = np.arange(k)
    sub = posarr[omega.maps[:, pts]]  # restricted orbit action, -1 outside
    r = rees_coordinatize(s, g, o.apex)
    schutz, labels = schutzenberger_right(s, r)
    alphas = {int(v) for v in sub[r.e] if v >= 0}
    assert alphas, "e_J must not annihilate an apex-J orbit"
    alpha = min(alphas)
    phi = np.array([int(sub[elem, alpha]) for elem in labels], dtype=np.int32)
    assert (phi >= 0).all(), "phi must be defined on the whole R-class"
    assert set(int(v) for v in phi) == set(range(k)), "phi must be onto the orbit"
    ext = np.append(phi, -1)
    lhs = sub[:, phi]  # phi(r) . s
    rhs = ext[schutz.maps]  # phi(r s), -1 when rs leaves the R-class
    assert np.array_equal(lhs, rhs), "phi must be equivariant"


def battery_gotosemisimple(corpus):
    for s, act in corpus:
        if not rm_meet(s).is_equality():
            continue
        omega = cayley_extended(s)
        assert is_faithful(s, omega)[0]
        ss = semisimplify(s, omega, greens(s))
        assert is_faithful(s, ss)[0]
        assert ss.degree <= omega.degree
        if act is not None and is_faithful(s, act)[0]:
            assert is_faithful(s, semisimplify(s, act, greens(s)))[0]


def random_rees_inputs(count, seed=4242):
    """Random coordinatized Rees semigroups with a random G-set each."""
    rng = random.Random(seed)
    group_builders = [
        lambda: builders.cyclic(2).semigroup,
        lambda: builders.cyclic(3).semigroup,
        lambda: builders.cyclic(4).semigroup,
        lambda: builders.symmetric_group(3).semigroup,
        lambda: builders.direct_product(
            builders.cyclic(2).semigroup, builders.cyclic(2).semigroup
        ),
    ]
    out = []
    while len(out) < count:
        grp = rng.choice(group_builders)()
        m = grp.size
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        c = np.array(
            [[rng.randint(1, m) if rng.random() > 0.3 else 0 for _ in range(na)] for _ in range(nb)]
        )
        if not (c.any(axis=0).all() and c.any(axis=1).all()):
            continue
        zero = bool((c == 0).any())
        s = builders.rees_matrix(grp, c, adjoin_zero=zero).semigroup
        g = greens(s)
        j = int(g.jclass_of[1]) if zero else int(g.jclass_of[0])
        r = rees_coordinatize(s, g, j)
        gt = GroupTable.of_rees(r)
        lat = subgroup_classes(gt)
        picks = rng.sample(range(len(lat.classes)), k=rng.randint(1, min(2, len(lat.classes))))
        x = coproduct_group_actions([coset_action(gt, lat.classes[ci].rep) for ci in picks])
        out.append((s, r, gt, lat, x, picks))
    return out


def battery_pair_rule(rees_inputs):
    for s, r, gt, lat, x, _ in rees_inputs:
        t = tensor_action(x, r)
        quot, class_of = greens_quotient(s, t, r.e)
        assert (class_of >= 0).all(), "tensor actions have no sink points"
        pair = tensor_pair_classes(x, r)
        assert np.array_equal(class_of, pair)
        assert quot.degree == int(pair.max()) + 1
        # the e-image embeds injectively into the quotient
        e_img = np.unique(t.maps[r.e][t.maps[r.e] >= 0])
        assert len(np.unique(class_of[e_img])) == len(e_img)


def battery_quotient_additivity(rees_inputs):
    for s, r, gt, lat, x, picks in rees_inputs:
        if len(lat.classes) < 2:
            continue
        x1 = coset_action(gt, lat.classes[0].rep)
        x2 = coset_action(gt, lat.classes[-1].rep)
        q1 = greens_quotient(s, tensor_action(x1, r), r.e)[0].degree
        q2 = greens_quotient(s, tensor_action(x2, r), r.e)[0].degree
        q12 = greens_quotient(
            s, tensor_action(coproduct_group_actions([x1, x2]), r), r.e
        )[0].degree
        assert q12 == q1 + q2


def battery_column_condition_trivial_quotient(rees_inputs):
    seen = 0
    for s, r, gt, lat, x, _ in rees_inputs:
        if not column_condition(r):
            continue
        seen += 1
        t = tensor_action(x, r)
        quot, class_of = greens_quotient(s, t, r.e)
        assert quot.degree == t.degree
        assert np.array_equal(class_of, np.arange(t.degree))
    return seen


def battery_criterion_vs_direct(corpus):
    for s, _ in corpus:
        g = greens(s)
        ok, _ = is_rhodes_semisimple(s, g)
        if not ok:
            continue
        rep = rm_irreducible_classes(s, g)
        regs = g.regular_jclasses()
        blocks = {j: schutzenberger_right(s, rees_coordinatize(s, g, j))[0] for j in regs}
        rng = random.Random(s.size * 1000 + len(regs))
        subsets = [tuple(regs)] + [
            tuple(sorted(rng.sample(regs, k=rng.randint(1, len(regs)))))
            for _ in range(min(3, 2 ** len(regs)))
        ]
        for chosen in subsets:
            omega = coproduct_actions([blocks[j] for j in chosen])
            got = faithful_by_criterion(s, omega, g, rep)
            assert got == is_faithful(s, omega)[0]
            assert got == faithful_by_criterion_by_loop(s, omega, g, rep)


def battery_compatibility(corpus):
    for s, act in corpus[:40]:
        if act is not None:
            assert check_compatibility(s, act)
        assert check_compatibility(s, cayley_extended(s))


def battery_theory_vs_oracle(corpus, limit=60):
    # every corpus member embeds into PT_4 by construction, so the oracle
    # search is capped at 4 and must reproduce the theory value exactly
    from sgmindeg.mindeg import min_partial_degree
    from sgmindeg.oracle import OracleQuery, brute_min_degree
    from sgmindeg.errors import NotRhodesSemisimple

    checked = 0
    for s, act in corpus:
        if act is None or checked >= limit:
            continue
        try:
            theory = min_partial_degree(s).m
        except NotRhodesSemisimple:
            continue
        res = brute_min_degree(
            OracleQuery(semigroup=s, mode="partial", min_n=0, max_n=act.degree, budget_secs=60)
        )
        assert res.status == "found", "a natural representation bounds the degree"
        assert res.degree == theory
        checked += 1
    return checked


def battery_left_degree_bound(corpus, limit=25):
    from sgmindeg.mindeg import left_degrees, min_partial_degree
    from sgmindeg.errors import NotRhodesSemisimple

    checked = 0
    for s, _ in corpus:
        if checked >= limit:
            break
        try:
            right_m = min_partial_degree(s).m
        except NotRhodesSemisimple:
            continue
        assert left_degrees(s, right_m).m <= 2**right_m - 1
        checked += 1
    return checked


def battery_quotient_of_tensor(rees_inputs):
    for s, r, gt, lat, x, _ in rees_inputs:
        # a semisimple action with all orbits of apex J
        omega = greens_quotient(s, tensor_action(x, r), r.e)[0]
        fixed = _e_restriction_gset(s, r, gt, omega)
        t2 = tensor_action(fixed, r)
        quot2 = greens_quotient(s, t2, r.e)[0]
        assert quot2.degree <= omega.degree
        assert _gset_isomorphic(fixed, _e_restriction_gset(s, r, gt, quot2))


def _e_restriction_gset(s, r, gt, omega):
    imgs = omega.maps[r.e]
    pts = sorted({int(v) for v in imgs if v >= 0})
    pos = {p: i for i, p in enumerate(pts)}
    act = np.empty((len(pts), gt.order), dtype=np.int32)
    for i, p in enumerate(pts):
        for gi, el in enumerate(r.group):
            v = omega.maps[el, p]
            assert v >= 0 and v in pos, "the e-image must be a total G_J-set"
            act[i, gi] = pos[v]
    return GroupAction(group=gt, npoints=len(pts), act=act)


def _gset_isomorphic(x: GroupAction, y: GroupAction) -> bool:
    if x.npoints != y.npoints:
        return False

    def keys(a: GroupAction):
        ks = []
        for rep in orbit_reps(a):
            ks.append(canonical_rep(a.group, stabilizer(a, rep)))
        return sorted(ks)

    return keys(x) == keys(y)


# ---------------------------------------------------------------------------
# Individual tests on slices (fast feedback; acceptance runs the full corpus)


def test_associativity_slice(random_corpus):
    battery_associativity(random_corpus[:80])


def test_associativity_rejects_mutation(random_corpus):
    s, _ = next((s, a) for s, a in random_corpus if s.size >= 3)
    t = s.table.copy()
    t.setflags(write=True)
    rng = np.random.default_rng(0)
    for _ in range(50):
        t2 = t.copy()
        i, j = rng.integers(0, s.size, 2)
        t2[i, j] = (t2[i, j] + 1) % s.size
        try:
            check_associativity(t2, small_generating_set(t2))
        except NonAssociative:
            return
    pytest.skip("no mutation broke associativity (unlikely)")


def test_rm_refines_ggm_slice(random_corpus):
    battery_rm_refines_ggm(random_corpus[:80])


def test_congruences_compatible_slice(random_corpus):
    battery_congruences_compatible(random_corpus[:30])


def test_column_condition_collapses_congruences_slice(random_corpus):
    battery_column_condition_collapses_congruences(random_corpus[:60])


def test_irredundant_slice(random_corpus):
    battery_irredundant(random_corpus[:60])


def test_apex_surjection_slice(random_corpus):
    battery_apex_surjection(random_corpus[:40])


def test_gotosemisimple_slice(random_corpus):
    battery_gotosemisimple(random_corpus[:60])


@pytest.fixture(scope="session")
def rees_inputs():
    return random_rees_inputs(30)


def test_pair_rule(rees_inputs):
    battery_pair_rule(rees_inputs)


def test_quotient_additivity(rees_inputs):
    battery_quotient_additivity(rees_inputs)


def test_column_condition_trivial_quotient(rees_inputs):
    assert battery_column_condition_trivial_quotient(rees_inputs) >= 3


def test_criterion_vs_direct_slice(random_corpus):
    battery_criterion_vs_direct(random_corpus[:60])


def test_compatibility_slice(random_corpus):
    battery_compatibility(random_corpus)


def test_quotient_of_tensor(rees_inputs):
    battery_quotient_of_tensor(rees_inputs)


def test_theory_vs_oracle_slice(random_corpus):
    assert battery_theory_vs_oracle(random_corpus[:80], limit=25) >= 15


def test_left_degree_bound_slice(random_corpus):
    assert battery_left_degree_bound(random_corpus[:60], limit=15) >= 8


def test_quotient_methods_agree_on_random_tensors(rees_inputs):
    for s, r, gt, lat, x, _ in rees_inputs[:8]:
        t = tensor_action(x, r)
        _, class_of = greens_quotient(s, t, r.e)
        assert np.array_equal(class_of, greens_congruence_fixpoint(s, t, r.e))
