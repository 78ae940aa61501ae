"""Exhaustive cross-validation over every labeled semigroup of order <= 3, and
over every semigroup of order 4 up to isomorphism and its opposite.

There are 1 + 8 + 113 associative tables on 1..3 elements, and 3492 on 4
elements in 188 isomorphism classes (OEIS A023814 and A027851).  For each one
the theory value must match the brute-force oracle whenever the semigroup is
Rhodes semisimple, the total-degree bracket must contain the oracle's total
answer, and the non-semisimple ones must be refused with a diagnostic.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference import associative_tables, canonical_form
from sgmindeg.congruence import is_rhodes_semisimple
from sgmindeg.core import from_table, greens
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


def test_theory_matches_oracle_at_order_4():
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
    assert len(reports) == 32
    # a trivial M_J is priced by the same search as any other
    assert sum(any(c.mj_order == 1 for c in rep.per_class) for rep in reports) == 24


def test_structural_batteries_exhaustively(all_tiny_semigroups):
    import test_properties as props

    corpus = [(s, None) for s in all_tiny_semigroups]
    props.battery_rm_refines_ggm(corpus)
    props.battery_irredundant(corpus)
    props.battery_apex_surjection(corpus)
    props.battery_gotosemisimple(corpus)
    props.battery_criterion_vs_direct(corpus)
    props.battery_column_condition_collapses_congruences(corpus)
