from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from reference import (
    close_embedding_from_scratch,
    compose_pointwise,
    least_conjugate_by_all_relabelings,
    maps_of_type,
    monogenic_type_of_map,
    oracle_search_from_scratch,
)
from sgmindeg import builders
from sgmindeg.action import is_action, is_faithful
from sgmindeg.core import closure_mask, compose_maps, from_partial_maps, opposite
from sgmindeg.errors import NotRhodesSemisimple, SemigroupError
from sgmindeg.mindeg import min_partial_degree
from sgmindeg.oracle import (
    OracleQuery,
    brute_min_degree,
    close_embedding,
    feasible,
    generating_set,
    is_least_conjugate,
    monogenic_type_of_element,
    prime_powers,
    verify_embedding,
)


def test_rb22_total_degree_4():
    s = builders.rectangular_band(2, 2).semigroup
    res = brute_min_degree(OracleQuery(semigroup=s, mode="total", min_n=1, max_n=5))
    assert res.status == "found" and res.degree == 4


def test_s2_rb22_total_degree_4(s2_rb22):
    res = brute_min_degree(OracleQuery(semigroup=s2_rb22, mode="total", min_n=1, max_n=5))
    assert res.status == "found" and res.degree == 4


def test_t2op_total_degree_4(t2):
    res = brute_min_degree(OracleQuery(semigroup=opposite(t2), mode="total", min_n=1, max_n=5))
    assert res.status == "found" and res.degree == 4


def test_pt2op_partial_degree_3():
    s = opposite(builders.partial_transformation(2).semigroup)
    res = brute_min_degree(OracleQuery(semigroup=s, mode="partial", min_n=1, max_n=4))
    assert res.status == "found" and res.degree == 3


def test_verify_embedding_rb22_paper_maps():
    f11 = (0, 1, 1, 0)
    f21 = (0, 2, 2, 0)
    f12 = (0, 1, 1, 1)
    f22 = (0, 2, 2, 2)
    s, maps = from_partial_maps(4, [f11, f21, f12, f22])
    images = {i: maps[i] for i in generating_set(s)}
    assert verify_embedding(s, images)


def test_verify_embedding_rejects_constants():
    # constants cannot carry a nontrivial group injectively
    s = builders.cyclic(2).semigroup
    assert not verify_embedding(s, {1: (0, 0)})


def test_witness_passes_verify(sim2):
    res = brute_min_degree(OracleQuery(semigroup=sim2, mode="partial", min_n=1, max_n=3))
    assert res.status == "found" and res.degree == 2
    assert verify_embedding(sim2, res.witness)


def test_not_found_below_minimum(sim2):
    res = brute_min_degree(OracleQuery(semigroup=sim2, mode="partial", min_n=1, max_n=1))
    assert res.status == "not_found" and res.searched_up_to == 1


def test_timeout_reported_distinctly():
    s = builders.binary_relations(2).semigroup
    res = brute_min_degree(
        OracleQuery(semigroup=s, mode="partial", min_n=3, max_n=3, budget_secs=0.0)
    )
    assert res.status == "timeout"


def test_partial_bijection_mode_matches_partial_for_inverse(sim2):
    chains = builders.chain_semilattice(3).semigroup
    for s in (sim2, chains):
        a = brute_min_degree(OracleQuery(semigroup=s, mode="partial", min_n=1, max_n=4))
        b = brute_min_degree(
            OracleQuery(semigroup=s, mode="partial_bijection", min_n=1, max_n=4)
        )
        assert a.status == b.status == "found"
        assert a.degree == b.degree


def test_mode_monotone_small(random_corpus):
    # m <= mu <= m + 1 on oracle-resolved instances
    checked = 0
    for s, _ in random_corpus:
        if s.size > 6 or checked >= 12:
            continue
        part = brute_min_degree(
            OracleQuery(semigroup=s, mode="partial", min_n=1, max_n=6, budget_secs=20)
        )
        tot = brute_min_degree(
            OracleQuery(semigroup=s, mode="total", min_n=1, max_n=7, budget_secs=20)
        )
        if part.status == "found" and tot.status == "found":
            assert part.degree <= tot.degree <= part.degree + 1
            checked += 1
    assert checked >= 8


def test_oracle_confirms_general_search_value():
    # the quotient-search path says 5 for the transposition sandwich over S_3;
    # the oracle reproduces it from nothing but the multiplication table
    s = builders.sigma_square(3, (1, 0, 2)).semigroup
    res = brute_min_degree(
        OracleQuery(semigroup=s, mode="partial", min_n=1, max_n=5, budget_secs=200)
    )
    assert res.status == "found" and res.degree == 5


def test_generating_set_minimality():
    s = builders.binary_relations(2).semigroup
    gens = generating_set(s)
    from sgmindeg.core import closure_mask

    assert closure_mask(s.table, gens).all()
    for g in gens:
        rest = [x for x in gens if x != g]
        assert not rest or not closure_mask(s.table, rest).all()


def test_monogenic_types_match():
    s = builders.full_transformation(3).semigroup
    nat = builders.full_transformation(3).natural_action
    for x in range(s.size):
        m = tuple(int(v) for v in nat.maps[x])
        assert monogenic_type_of_element(s, x) == monogenic_type_of_map(m)


def test_bad_mode_and_bad_generators(sim2):
    with pytest.raises(SemigroupError):
        brute_min_degree(OracleQuery(semigroup=sim2, mode="nonsense"))
    with pytest.raises(SemigroupError):
        brute_min_degree(OracleQuery(semigroup=sim2, generators=[0], max_n=2))


def test_close_embedding_detects_conflicts():
    s = builders.cyclic(4).semigroup
    gens = generating_set(s)
    assert gens == [1]
    # an order-2 image forces an action, but not an injective one: the order-4
    # generator is not represented faithfully
    omega = close_embedding(s, {1: (1, 0)})
    assert omega is not None and omega.maps.shape == (4, 2)
    assert not verify_embedding(s, {1: (1, 0)})
    omega = close_embedding(s, {1: (1, 2, 3, 0)})
    assert omega.degree == 4 and omega.maps.shape == (4, 4) and omega.maps.dtype == np.int32
    assert is_action(s, omega)[0] and is_faithful(s, omega)[0]
    assert verify_embedding(s, {1: (1, 2, 3, 0)})
    # empty images, mixed degrees and keys that do not generate force nothing
    assert close_embedding(s, {}) is None
    assert close_embedding(builders.cyclic(2).semigroup, {1: (1, 0), 0: (0,)}) is None
    assert close_embedding(s, {2: (1, 0)}) is None


@pytest.mark.parametrize(
    "low, counts", [(-1, [2, 6, 16, 45, 121]), (0, [1, 3, 7, 19, 47])], ids=["partial", "total"]
)
def test_is_least_conjugate_matches_all_relabelings(low, counts):
    # the least maps are one per conjugacy class of PT_n (partial) or T_n
    # (total), n = 1..5
    got = []
    for n in range(1, 6):
        least = 0
        for f in product(range(low, n), repeat=n):
            ok = is_least_conjugate(f)
            assert ok == (f == least_conjugate_by_all_relabelings(f)), f
            least += ok
        got.append(least)
    assert got == counts


def _all_maps_reference(n, mode, fresh_rule):
    """Every map on n points, undefined sorting first, under the fresh-point
    and partial-bijection rules: the enumeration the oracle filtered by type
    before it built maps of one type point by point."""
    cur = [0] * n

    def rec(pos, maxseen, used):
        if pos == n:
            yield tuple(cur)
            return
        ms = max(maxseen, pos)
        for v in ([-1] if mode != "total" else []) + list(range(n)):
            if v >= 0:
                if fresh_rule and v > ms + 1:
                    continue
                if mode == "partial_bijection" and v in used:
                    continue
                used.add(v)
            cur[pos] = v
            yield from rec(pos + 1, max(ms, v), used)
            if v >= 0:
                used.discard(v)

    yield from rec(0, -1, set())


def test_maps_of_type_equals_filtered_enumeration():
    ticks = []
    for n in range(6):
        for mode in ("partial", "total", "partial_bijection"):
            for fresh_rule in (False, True):
                every = list(_all_maps_reference(n, mode, fresh_rule))
                types = {monogenic_type_of_map(m) for m in every} | {(1, 7), (3, 2)}
                for t in sorted(types):
                    want = [m for m in every if monogenic_type_of_map(m) == t]
                    got = list(maps_of_type(n, mode, t, fresh_rule, lambda: ticks.append(1)))
                    assert got == want, (n, mode, fresh_rule, t)
    assert ticks


def test_feasible_decides_the_type_of_a_complete_map():
    # the search's only type check: on a complete map it must be exact
    pairs = 0
    for n in range(5):
        types = [(index, period) for index in range(1, n + 2) for period in range(1, 7)]
        for f in product(range(-1, n), repeat=n):
            want = monogenic_type_of_map(f)
            for t in types:
                assert feasible(list(f), n, t, prime_powers(t[1])) == (want == t), (f, t)
                pairs += 1
    assert pairs == 20478


# Answers of the full search from degree 1, recorded before the candidate maps
# were built by type; the search order is unchanged, so the witness is too.
PINNED = {
    "clifford_c4_c2": (6, {1: (1, 0, 3, 4, 5, 2), 4: (0, 1, -1, -1, -1, -1)}),
    "sigma_square_3_102": (
        5,
        {1: (1, 1, 2, 4, 4), 2: (0, 0, 3, 2, 2), 12: (0, 3, 2, 3, 0)},
    ),
    "sigma_square_2_10": (4, {1: (0, 0, 2, 2), 4: (3, 1, 1, 3)}),
    "C_7": (7, {1: (1, 2, 3, 4, 5, 6, 0)}),
}


@pytest.fixture(scope="module")
def pinned_inputs(clifford_c4_c2):
    return {
        "clifford_c4_c2": clifford_c4_c2,
        "sigma_square_3_102": builders.sigma_square(3, (1, 0, 2)).semigroup,
        "sigma_square_2_10": builders.sigma_square(2, (1, 0)).semigroup,
        "C_7": builders.cyclic(7).semigroup,
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_witnesses(pinned_inputs, name):
    m, witness = PINNED[name]
    res = brute_min_degree(
        OracleQuery(semigroup=pinned_inputs[name], mode="partial", min_n=1, max_n=m, budget_secs=200)
    )
    assert (res.status, res.degree, res.searched_up_to) == ("found", m, m)
    assert res.witness == witness


# Nodes of each degree searched on its own, from 1 to m: a change to the
# search order or to the symmetry break shows here.
PINNED_NODES = {
    "clifford_c4_c2": [2, 3, 3, 22, 103, 392],
    "sigma_square_3_102": [2, 12, 73, 518, 2032],
    "sigma_square_2_10": [4, 33, 207, 997],
    "C_7": [2, 3, 3, 3, 3, 3, 35],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_nodes_per_degree(pinned_inputs, name):
    s = pinned_inputs[name]
    nodes = [
        brute_min_degree(OracleQuery(semigroup=s, min_n=n, max_n=n, budget_secs=200)).nodes
        for n in range(1, PINNED[name][0] + 1)
    ]
    assert nodes == PINNED_NODES[name]


@pytest.mark.parametrize("name, lo, hi", [("sigma_square_3_102", 1, 4), ("sigma_square_2_10", 2, 4)])
def test_nodes_add_up_per_degree(pinned_inputs, name, lo, hi):
    s = pinned_inputs[name]
    whole = brute_min_degree(OracleQuery(semigroup=s, min_n=lo, max_n=hi, budget_secs=200))
    singles = [
        brute_min_degree(OracleQuery(semigroup=s, min_n=n, max_n=n, budget_secs=200))
        for n in range(lo, hi + 1)
    ]
    assert whole.nodes == sum(r.nodes for r in singles)
    assert [r.status for r in singles][:-1] == ["not_found"] * (hi - lo)
    assert singles[-1].status == whole.status


def test_m3f2_found_at_degree_7_within_default_budget():
    # the search by whole maps refuted degree 6 but needed about a minute for
    # degree 7, past the default budget
    s = builders.matrix_monoid(3, 2).semigroup
    res = brute_min_degree(OracleQuery(semigroup=s, mode="partial", min_n=6, max_n=7))
    assert (res.status, res.degree, res.searched_up_to) == ("found", 7, 7)


def test_b3_partial_degree_6_refuted():
    # the theory gives m(B_3) = 7 (test_acceptance.py); the oracle rules out 6
    # on its own, and CI finds 7 through the console script
    s = builders.binary_relations(3).semigroup
    res = brute_min_degree(OracleQuery(semigroup=s, mode="partial", min_n=6, max_n=6, budget_secs=600))
    assert (res.status, res.searched_up_to, res.nodes) == ("not_found", 6, 21369)


@pytest.fixture(scope="module")
def t3op():
    return opposite(builders.full_transformation(3).semigroup)


@pytest.mark.parametrize(
    "mode, n, status, nodes",
    [("partial", 6, "not_found", 33791), ("partial", 7, "found", 403185), ("total", 7, "not_found", 126008)],
)
def test_t3op_degrees(t3op, mode, n, status, nodes):
    # T_3^op is not Rhodes semisimple, so only the oracle certifies its
    # minimal partial degree 7 = 2^3 - 1; its total degree 8 = 2^3 is found in CI
    res = brute_min_degree(OracleQuery(semigroup=t3op, mode=mode, min_n=n, max_n=n, budget_secs=600))
    degree = n if status == "found" else None
    assert (res.status, res.degree, res.searched_up_to, res.nodes) == (status, degree, n, nodes)


def test_budget_stops_a_long_degree(clifford_c4_c2):
    res = brute_min_degree(
        OracleQuery(semigroup=clifford_c4_c2, mode="partial", min_n=6, max_n=6, budget_secs=0.0)
    )
    assert res.status == "timeout" and res.searched_up_to == 5


def _outcome(res):
    # node counts are left out: the reference tries whole maps, the search
    # single points
    return (res.status, res.degree, res.searched_up_to, res.witness)


@pytest.mark.parametrize("mode", ["partial", "total", "partial_bijection"])
def test_search_matches_from_scratch_reference(random_corpus, mode):
    # the point search with deduction has the constraints and the value order
    # of the search by whole maps, so it finds the same first solution
    for s, _ in random_corpus:
        query = OracleQuery(semigroup=s, mode=mode, min_n=0, max_n=4)
        assert _outcome(brute_min_degree(query)) == oracle_search_from_scratch(query)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_searches_match_from_scratch_reference(pinned_inputs, name):
    query = OracleQuery(
        semigroup=pinned_inputs[name], mode="partial", min_n=1, max_n=PINNED[name][0], budget_secs=200
    )
    assert _outcome(brute_min_degree(query)) == oracle_search_from_scratch(query)


def _prefix_cases(s, gens, witness, n, mode):
    """Image sets: every prefix of the witness extended by the witness's next
    image, by each of the first candidates of that generator's type, and
    by images of elements the prefix already covers, with their own map and
    with a wrong one."""
    for k in range(len(gens)):
        prefix = {g: witness[g] for g in gens[:k]}
        yield {**prefix, gens[k]: witness[gens[k]]}
        t = monogenic_type_of_element(s, gens[k])
        for i, cand in enumerate(maps_of_type(n, mode, t, False, lambda: None)):
            if i == 60:
                break
            yield {**prefix, gens[k]: cand}
        for x, m in (close_embedding_from_scratch(s, prefix) or {}).items():
            if x not in prefix:
                yield {**prefix, x: m}
                yield {**prefix, x: tuple(reversed(m))}


def test_close_embedding_extends_a_closed_prefix(random_corpus, pinned_inputs):
    cases = [(s, "partial") for s, _ in random_corpus]
    cases += [(s, "total") for s, _ in random_corpus[:60]]
    cases += [(s, "partial") for s in pinned_inputs.values()]
    cases.append((builders.chain_semilattice(1).semigroup, "partial"))  # degree 0
    accepted = rejected = 0
    for s, mode in cases:
        # the witness comes from the reference search, so that this test checks
        # close_embedding and verify_embedding alone
        status, degree, _, witness = oracle_search_from_scratch(
            OracleQuery(semigroup=s, mode=mode, min_n=0, max_n=7, budget_secs=200)
        )
        assert status == "found"
        gens = list(witness)
        for images in _prefix_cases(s, gens, witness, degree, mode):
            want = close_embedding_from_scratch(s, images)
            omega = close_embedding(s, images)
            generates = closure_mask(s.table, list(images)).all()
            assert (omega is not None) == generates
            if generates and want is not None:
                # the forced action is the reference's map, row by row
                assert [tuple(row) for row in omega.maps.tolist()] == [want[x] for x in range(s.size)]
            ok = verify_embedding(s, images)
            assert ok == (want is not None and len(want) == s.size)
            accepted += ok
            rejected += not ok
    assert accepted > 800 and rejected > 4000


def test_theory_witness_passes_the_oracle_checker(builder_corpus):
    # both sides' witnesses pass one checker: the theory's witness, restricted
    # to a generating set, is accepted by verify_embedding
    checked = 0
    for b in builder_corpus.values():
        s = b.semigroup
        try:
            witness = min_partial_degree(s).witness
        except NotRhodesSemisimple:
            continue
        images = {g: tuple(witness.maps[g].tolist()) for g in s.generators()}
        assert verify_embedding(s, images), b.label
        assert np.array_equal(close_embedding(s, images).maps, witness.maps), b.label
        checked += 1
    assert checked >= 10


def test_compose_maps_is_pointwise_composition():
    for n in range(4):
        maps = list(product(range(-1, n), repeat=n))
        for f in maps:
            for g in maps:
                assert compose_maps(f, g) == compose_pointwise(f, g)
