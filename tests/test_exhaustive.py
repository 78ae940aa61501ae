"""Exhaustive cross-validation over every labeled semigroup of order <= 3.

There are 1 + 8 + 113 associative tables on 1..3 elements.  For each one the
theory value must match the brute-force oracle whenever the semigroup is
Rhodes semisimple, the total-degree bracket must contain the oracle's total
answer, and the non-semisimple ones must be refused with a diagnostic.
"""

from __future__ import annotations

import pytest

from sgmindeg.congruence import is_rhodes_semisimple
from sgmindeg.errors import NotRhodesSemisimple
from sgmindeg.mindeg import min_partial_degree
from sgmindeg.oracle import OracleQuery, brute_min_degree


def test_theory_matches_oracle_exhaustively(all_tiny_semigroups):
    rss = 0
    for s in all_tiny_semigroups:
        ok, _ = is_rhodes_semisimple(s)
        if not ok:
            with pytest.raises(NotRhodesSemisimple):
                min_partial_degree(s)
            continue
        rss += 1
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
    assert rss == 29


def test_oracle_resolves_every_tiny_semigroup(all_tiny_semigroups):
    # the Cayley representation on S^1 bounds the degree by |S| + 1
    for s in all_tiny_semigroups:
        res = brute_min_degree(
            OracleQuery(semigroup=s, mode="partial", min_n=0, max_n=s.size + 1, budget_secs=60)
        )
        assert res.status == "found"
        assert res.degree <= s.size + 1


def test_structural_batteries_exhaustively(all_tiny_semigroups):
    import test_properties as props

    corpus = [(s, None) for s in all_tiny_semigroups]
    props.battery_rm_refines_ggm(corpus)
    props.battery_irredundant(corpus)
    props.battery_apex_surjection(corpus)
    props.battery_gotosemisimple(corpus)
    props.battery_criterion_vs_direct(corpus)
    props.battery_column_condition_collapses_congruences(corpus)
