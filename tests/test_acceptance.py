"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`; the three S_6 exceptional
cases take about 9 s together on 2 cores.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

import test_properties as props
from reference import (
    ggm_congruence_at,
    group_table,
    proportionality_flags,
    schein_irreducibility_check,
)
from sgmindeg import builders
from sgmindeg.congruence import is_rhodes_semisimple, rm_congruence_at, rm_irreducible_classes
from sgmindeg.core import from_table, greens, opposite, rees_coordinatize
from sgmindeg.grouptheory import GroupTable, subgroup_classes
from sgmindeg.mindeg import dj, left_degrees, min_partial_degree
from sgmindeg.oracle import OracleQuery, brute_min_degree


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def oracle_partial(s, max_n, budget=110.0):
    res = brute_min_degree(
        OracleQuery(semigroup=s, mode="partial", min_n=1, max_n=max_n, budget_secs=budget)
    )
    assert res.status == "found", f"oracle did not resolve: {res.status}"
    return res.degree


def test_criterion_1_binary_relations():
    t0 = time.time()
    assert min_partial_degree(builders.binary_relations(2).semigroup).m == 3
    m3 = min_partial_degree(builders.binary_relations(3).semigroup).m
    elapsed = time.time() - t0
    assert m3 == 7
    assert elapsed < 120, f"B_3 budget exceeded: {elapsed:.1f}s"
    report(f"criterion 1 PASS: mindeg(B_2) = 3, mindeg(B_3) = 7 (in {elapsed:.1f}s)")


def test_criterion_2_matrix_monoids():
    assert min_partial_degree(builders.matrix_monoid(2, 2).semigroup).m == 3
    assert min_partial_degree(builders.matrix_monoid(2, 3).semigroup).m == 8
    assert min_partial_degree(builders.matrix_monoid(3, 2).semigroup).m == 7
    report("criterion 2 PASS: mindeg M_2(F_2) = 3, M_2(F_3) = 8, M_3(F_2) = 7")


def fixed_points(perm):
    return sum(1 for i, v in enumerate(perm) if v == i)


def test_criterion_3_diagonal_sandwich_family():
    for n in (3, 4):
        for perm in itertools.permutations(range(n)):
            if perm == tuple(range(n)):
                continue
            rep = min_partial_degree(builders.sigma_square(n, perm).semigroup)
            expected = 2 * n - fixed_points(perm)
            assert rep.m == expected, f"sigma={perm}: {rep.m} != {expected}"
            assert rep.total.exact == expected  # partial and total coincide here
    report("criterion 3 PASS: mindeg M(S_n,2,2,[[1,1],[1,s]]) = 2n - |Fix(s)| for all s != 1, n = 3, 4")


def test_criterion_3_s6_exceptional_cases():
    cases = [
        ((1, 2, 3, 4, 5, 0), 11),  # 6-cycle
        ((1, 2, 0, 4, 5, 3), 9),  # two disjoint 3-cycles
        ((1, 0, 3, 2, 5, 4), 8),  # three disjoint 2-cycles
    ]
    for perm, expected in cases:
        rep = min_partial_degree(builders.sigma_square(6, perm).semigroup)
        assert rep.m == expected, f"sigma={perm}: {rep.m} != {expected}"
        assert rep.total.exact == expected
    report("criterion 3 (extended) PASS: S_6 exceptional values 11, 9, 8")


def test_criterion_4_single_diagonal_spotcheck():
    # G = C_4, n = 3, second and third diagonal entries the order-2 element
    c4 = builders.cyclic(4).semigroup
    order2 = 2
    sandwich = [[1, 1, 1], [1, order2 + 1, 1], [1, 1, order2 + 1]]
    s = builders.rees_matrix(c4, sandwich, adjoin_zero=False).semigroup
    g = greens(s)
    rep = rm_irreducible_classes(s, g)
    (j,) = rep.irreducible_ids()
    r = rees_coordinatize(s, g, j)
    computed = dj(r, rep, subgroup_classes(GroupTable.of_rees(r))).d

    # independent enumeration of n|X| - sum_x |{i : g_i in G_x}| over C_4-sets
    gt = group_table(c4.table)
    lat = subgroup_classes(gt)
    n = 3
    best = None
    for mult in itertools.product(range(3), repeat=len(lat.classes)):
        if not any(mult):
            continue
        inter = set(range(4))
        for ci, m in enumerate(mult):
            if m:
                inter &= set(lat.classes[ci].rep)  # abelian: core = subgroup
        if inter != {0}:
            continue  # not faithful on M_J = G
        xsize = sum(m * lat.classes[ci].index for ci, m in enumerate(mult))
        collapse = sum(
            m * lat.classes[ci].index * (2 if order2 in lat.classes[ci].rep else 0)
            for ci, m in enumerate(mult)
        )
        val = n * xsize - collapse
        best = val if best is None else min(best, val)
    assert computed == best == 12
    assert min_partial_degree(s).m == 12
    report("criterion 4 PASS: single-diagonal formula spot check, d_J = 12 both ways")


def test_criterion_5_inverse_semigroups():
    assert min_partial_degree(builders.symmetric_inverse(2).semigroup).m == 2
    assert min_partial_degree(builders.chain_semilattice(3).semigroup).m == 2
    cases = [builders.symmetric_inverse(2).semigroup, builders.symmetric_inverse(3).semigroup]
    cases += [builders.chain_semilattice(k).semigroup for k in range(1, 6)]
    for s in cases:
        g = greens(s)
        rep = rm_irreducible_classes(s, g)
        schein = schein_irreducibility_check(s, g)
        for j, row in rep.per_class.items():
            assert schein[j].join_irreducible == row.rm_irreducible
            assert set(schein[j].mj) == set(row.mj)
    report("criterion 5 PASS: SIM_2 m = 2, chain_3 m = 2; Schein check agrees on SIM_2, SIM_3, chains k <= 5")


def test_criterion_6_oracle_agreement():
    corpus = [
        ("B_2", builders.binary_relations(2).semigroup, 4),
        ("M_2(F_2)", builders.matrix_monoid(2, 2).semigroup, 4),
        ("SIM_2", builders.symmetric_inverse(2).semigroup, 3),
        ("SIM_3", builders.symmetric_inverse(3).semigroup, 4),
        ("chain_2", builders.chain_semilattice(2).semigroup, 3),
        ("chain_3", builders.chain_semilattice(3).semigroup, 3),
        ("chain_4", builders.chain_semilattice(4).semigroup, 4),
        ("chain_5", builders.chain_semilattice(5).semigroup, 5),
        ("AGGM[I_2|X]", builders.aggm_01(2, 3, [frozenset({0, 1})]).semigroup, 3),
    ]
    for label, s, cap in corpus:
        assert s.size <= 50
        theory = min_partial_degree(s).m
        assert theory <= 4
        assert theory == oracle_partial(s, cap), f"{label}: theory != oracle"
    # the AGGM example also has l(S) = 3, resolved on the opposite side
    ag = builders.aggm_01(2, 3, [frozenset({0, 1})]).semigroup
    right_m = min_partial_degree(ag).m
    left_m = left_degrees(ag, right_m).m
    assert (right_m, left_m) == (2, 3)
    assert left_m == oracle_partial(opposite(ag), 4)
    report("criterion 6 PASS: oracle equals theory on the m <= 4 corpus (incl. AGGM m = 2, l = 3)")


def test_criterion_7_non_semisimple_by_oracle():
    def mu_total(s, cap):
        res = brute_min_degree(
            OracleQuery(semigroup=s, mode="total", min_n=1, max_n=cap, budget_secs=110)
        )
        assert res.status == "found"
        return res.degree

    assert mu_total(builders.rectangular_band(2, 2).semigroup, 5) == 4
    s2rb = builders.rectangular_group(builders.cyclic(2).semigroup, 2, 2).semigroup
    assert mu_total(s2rb, 5) == 4
    t2op = opposite(builders.full_transformation(2).semigroup)
    assert mu_total(t2op, 5) == 4  # 2^2, left total degree of T_2
    pt2op = opposite(builders.partial_transformation(2).semigroup)
    assert oracle_partial(pt2op, 4) == 3  # 2^2 - 1
    # these semigroups are outside the semisimple theory
    for s in (t2op, s2rb):
        assert not is_rhodes_semisimple(s)[0]
    report("criterion 7 PASS: mu(RB(2,2)) = 4, mu(S_2 x RB(2,2)) = 4, mu(T_2^op) = 4, m(PT_2^op) = 3 by oracle")


def test_criterion_8_property_suite(random_corpus, builder_corpus):
    corpus = list(random_corpus) + [
        (b.semigroup, b.natural_action) for b in builder_corpus.values()
    ]
    assert len(random_corpus) >= 200
    props.battery_associativity(corpus)
    props.battery_rm_refines_ggm(corpus)
    props.battery_congruences_compatible(random_corpus[:80])
    props.battery_column_condition_collapses_congruences(random_corpus)
    props.battery_irredundant(corpus)
    props.battery_apex_surjection(corpus)
    props.battery_gotosemisimple(corpus)
    rees_inputs = props.random_rees_inputs(40, seed=97531)
    props.battery_pair_rule(rees_inputs)
    props.battery_quotient_additivity(rees_inputs)
    assert props.battery_column_condition_trivial_quotient(rees_inputs) >= 3
    props.battery_criterion_vs_direct(corpus)
    props.battery_compatibility(corpus)
    props.battery_quotient_of_tensor(rees_inputs)
    assert props.battery_theory_vs_oracle(corpus, limit=60) >= 40
    assert props.battery_left_degree_bound(corpus, limit=20) >= 10
    # m <= mu <= m + 1 wherever the oracle resolves both sides
    checked = 0
    for s, _ in random_corpus:
        if s.size > 5 or checked >= 10:
            continue
        part = brute_min_degree(OracleQuery(semigroup=s, mode="partial", min_n=1, max_n=6, budget_secs=30))
        tot = brute_min_degree(OracleQuery(semigroup=s, mode="total", min_n=1, max_n=7, budget_secs=30))
        if part.status == "found" and tot.status == "found":
            assert part.degree <= tot.degree <= part.degree + 1
            checked += 1
    assert checked >= 6
    report(
        f"criterion 8 PASS: property batteries on {len(corpus)} semigroups "
        f"({len(random_corpus)} random + {len(builder_corpus)} builders), zero failures"
    )


def test_criterion_9_proportionality_vs_congruences():
    groups = {
        "1": from_table([[0]]),
        "C2": builders.cyclic(2).semigroup,
        "C3": builders.cyclic(3).semigroup,
        "C4": builders.cyclic(4).semigroup,
        "S3": builders.symmetric_group(3).semigroup,
    }
    cases = []
    for gname, grp in groups.items():
        m = grp.size
        cases.append((gname, grp, [[1, 1], [1, 1]], False))
        for gidx in range(1, m):
            cases.append((gname, grp, [[1, 1], [1, gidx + 1]], False))
        cases.append((gname, grp, np.eye(2, dtype=int), True))
        cases.append((gname, grp, [[1, 0, 1], [0, 1, 1]], True))
    import random as _random

    rng = _random.Random(777)
    while len(cases) < 40:
        gname = rng.choice(list(groups))
        grp = groups[gname]
        nb, na = rng.randint(1, 3), rng.randint(1, 3)
        c = np.array(
            [
                [rng.randint(1, grp.size) if rng.random() > 0.35 else 0 for _ in range(na)]
                for _ in range(nb)
            ]
        )
        if not (c.any(axis=0).all() and c.any(axis=1).all()):
            continue
        cases.append((gname, grp, c, bool((np.asarray(c) == 0).any())))

    for gname, grp, c, zero in cases:
        s = builders.rees_matrix(grp, np.asarray(c), adjoin_zero=zero).semigroup
        g = greens(s)
        j = int(g.jclass_of[1]) if zero else int(g.jclass_of[0])
        r = rees_coordinatize(s, g, j)
        flags = proportionality_flags(r)
        rm_status = rm_congruence_at(s, g, j).is_equality()
        sop = opposite(s)
        gop = greens(sop)
        lm_status = rm_congruence_at(sop, gop, j).is_equality()
        ggm_status = ggm_congruence_at(s, g, j).is_equality()
        assert flags.rm == rm_status, f"RM mismatch: G={gname} C={np.asarray(c).tolist()}"
        assert flags.lm == lm_status, f"LM mismatch: G={gname} C={np.asarray(c).tolist()}"
        assert flags.ggm == ggm_status, f"GGM mismatch: G={gname} C={np.asarray(c).tolist()}"
        assert flags.ggm == is_rhodes_semisimple(s, g)[0]
    report(f"criterion 9 PASS: proportionality flags match congruence status on {len(cases)} (0-)simple semigroups")
