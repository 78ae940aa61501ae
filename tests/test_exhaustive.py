"""Exhaustive cross-validation over every labeled semigroup of order <= 3, and
over every semigroup of order 4 up to isomorphism and its opposite.

There are 1 + 8 + 113 associative tables on 1..3 elements, and 3492 on 4
elements in 188 isomorphism classes (OEIS A023814 and A027851).  For each one
the theory value must match the brute-force oracle whenever the semigroup is
Rhodes semisimple, the total-degree bracket must contain the oracle's total
answer, and the non-semisimple ones must be refused with a diagnostic.  The
subsemigroups of PT_3 generated by one or two maps, and their opposites, are
checked against the oracle at m - 1 and m, and so are random Rees matrix
semigroups whose classes take the general search.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from reference import associative_tables, canonical_form
from sgmindeg import builders
from sgmindeg.congruence import is_rhodes_semisimple
from sgmindeg.core import from_partial_maps, from_table, greens, opposite
from sgmindeg.errors import NotRhodesSemisimple
from sgmindeg.mindeg import MinDegReport, min_partial_degree
from sgmindeg.oracle import OracleQuery, brute_min_degree


def theory_matches_oracle(s) -> MinDegReport | None:
    """The theory's report on s, checked against the oracle, or None when s is
    not Rhodes semisimple and the theory refuses it."""
    ok, _ = is_rhodes_semisimple(s, greens(s))
    if not ok:
        with pytest.raises(NotRhodesSemisimple):
            min_partial_degree(s)
        return None
    rep = min_partial_degree(s)
    part = brute_min_degree(
        OracleQuery(semigroup=s, mode="partial", min_n=0, max_n=s.size + 1, budget_secs=60)
    )
    assert part.status == "found" and part.degree == rep.m
    tot = brute_min_degree(
        OracleQuery(semigroup=s, mode="total", min_n=0, max_n=s.size + 2, budget_secs=60)
    )
    assert tot.status == "found"
    assert rep.total.lower <= tot.degree <= rep.total.upper
    assert part.degree <= tot.degree <= part.degree + 1
    return rep


def oracle_resolves(s) -> None:
    # the Cayley representation on S^1 bounds the degree by |S| + 1
    res = brute_min_degree(
        OracleQuery(semigroup=s, mode="partial", min_n=0, max_n=s.size + 1, budget_secs=60)
    )
    assert res.status == "found"
    assert res.degree <= s.size + 1


def test_theory_matches_oracle_exhaustively(all_tiny_semigroups):
    rss = sum(theory_matches_oracle(s) is not None for s in all_tiny_semigroups)
    assert rss == 29


def test_oracle_resolves_every_tiny_semigroup(all_tiny_semigroups):
    for s in all_tiny_semigroups:
        oracle_resolves(s)


def test_theory_matches_oracle_at_order_4(monkeypatch):
    from test_mindeg import _dj_lazy_and_eager

    tables = associative_tables(4)
    classes = sorted({canonical_form(t) for t in tables})
    assert (len(tables), len(classes)) == (3492, 188)
    reports = []
    for key in classes:
        t = np.array(key).reshape(4, 4)
        for table in (t, t.T):  # the semigroup and its opposite
            s = from_table(table)
            rep = theory_matches_oracle(s)
            if rep is None:
                oracle_resolves(s)
            else:
                reports.append(rep)
                for lazy, eager, _, _ in _dj_lazy_and_eager(monkeypatch, s):
                    assert lazy == eager
    assert len(reports) == 32
    # a trivial M_J is priced by the same search as any other
    assert sum(any(c.mj_order == 1 for c in rep.per_class) for rep in reports) == 24


def pt3_subsemigroups() -> list:
    """The distinct subsemigroups of PT_3 generated by one or two maps."""
    maps = [tuple(m) for m in builders.partial_transformation(3).natural_action.maps.tolist()]
    found = {}
    for a, b in itertools.combinations_with_replacement(maps, 2):
        s, elems = from_partial_maps(3, [a] if a == b else [a, b])
        found.setdefault(frozenset(elems), s)
    return list(found.values())


def test_theory_matches_oracle_on_small_subsemigroups_of_pt3(monkeypatch):
    # every irreducible class here has the column condition, a trivial or a
    # nontrivial G_J: dj prices it by its Green's quotient, the reference by
    # b_count * [G:H], and the oracle refutes m - 1 and finds m on both sides
    from test_mindeg import _dj_lazy_and_eager

    subs = pt3_subsemigroups()
    assert len(subs) == 1623
    for side in (subs, [opposite(s) for s in subs]):
        semisimple, paths = 0, Counter()
        for s in side:
            try:
                m = min_partial_degree(s).m
            except NotRhodesSemisimple:
                continue
            semisimple += 1
            for lazy, eager, _, _ in _dj_lazy_and_eager(monkeypatch, s):
                assert lazy == eager
                paths[lazy.fast_path] += 1
            res = brute_min_degree(OracleQuery(semigroup=s, mode="partial", min_n=max(m - 1, 0), max_n=m))
            assert res.status == "found" and res.degree == m
        assert semisimple == 430
        assert paths == {"aggm": 440, "column_condition": 51}


def rees_draws() -> list:
    """The distinct Rees matrix semigroups M0[G; A, B; C] of 400 seeded draws:
    G one of C_2, C_3, C_4, S_3 and C_2 x C_2, |A|, |B| <= 3, and each
    sandwich entry zero with probability 0.3; a draw with a zero row or
    column is skipped, and a zero is adjoined iff some entry is zero."""
    rng = random.Random(1)
    c2 = builders.cyclic(2).semigroup
    groups = [
        c2,
        builders.cyclic(3).semigroup,
        builders.cyclic(4).semigroup,
        builders.symmetric_group(3).semigroup,
        builders.direct_product(c2, c2),
    ]
    found = {}
    for _ in range(400):
        grp = rng.choice(groups)
        m = grp.size
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        c = np.array(
            [[rng.randint(1, m) if rng.random() > 0.3 else 0 for _ in range(na)] for _ in range(nb)]
        )
        if not (c.any(axis=0).all() and c.any(axis=1).all()):
            continue
        s = builders.rees_matrix(grp, c, adjoin_zero=bool((c == 0).any())).semigroup
        found.setdefault(s.table.tobytes(), s)
    return list(found.values())


def test_theory_matches_oracle_where_the_general_search_runs(monkeypatch):
    # the classes where the pair rule merges tensor points: on every side
    # with m <= 7 the oracle finds m and refutes m - 1, and dj agrees with the
    # reference that prices every class; the sides with m >= 8 are beyond
    # the oracle's reach in tier-1
    from test_mindeg import _dj_lazy_and_eager

    draws = rees_draws()
    assert len(draws) == 206
    kept = sides = general = below = 0
    for s in draws:
        try:
            reps = [(x, min_partial_degree(x)) for x in (s, opposite(s))]
        except NotRhodesSemisimple:
            continue
        if not any(c.fast_path == "general_search" for _, rep in reps for c in rep.per_class):
            continue
        kept += 1
        for x, rep in reps:
            if rep.m > 7:
                continue
            sides += 1
            for c in rep.per_class:
                if c.fast_path == "general_search":
                    general += 1
                    below += c.d < c.l_count * sum(w.index for w in c.witness_subgroups)
            for lazy, eager, _, _ in _dj_lazy_and_eager(monkeypatch, x):
                assert lazy == eager
            res = brute_min_degree(
                OracleQuery(semigroup=x, mode="partial", min_n=max(rep.m - 1, 0), max_n=rep.m)
            )
            assert res.status == "found" and res.degree == rep.m
    assert (kept, sides) == (34, 22)
    # general-search classes, and those priced below |B| times their summed index
    assert (general, below) == (14, 7)


def test_structural_batteries_exhaustively(all_tiny_semigroups):
    import test_properties as props

    corpus = [(s, None) for s in all_tiny_semigroups]
    props.battery_rm_refines_ggm(corpus)
    props.battery_irredundant(corpus)
    props.battery_apex_surjection(corpus)
    props.battery_gotosemisimple(corpus)
    props.battery_criterion_vs_direct(corpus)
    props.battery_column_condition_collapses_congruences(corpus)
