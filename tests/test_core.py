from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import NULL2
from reference import (
    associative_tables,
    class_members,
    greens_by_ideal_matrices,
    jorder_by_ideal_pairs,
    light_test_whole_table,
    scan_identity_zero_by_rows,
    table_by_composing_all_pairs,
    verify_rees_multiplication_over_j,
)
from sgmindeg import builders, core
from sgmindeg.core import (
    FiniteSemigroup,
    GreensStructure,
    _partition_from_keys,
    _verify_rees_multiplication,
    check_associativity,
    closure_mask,
    from_partial_maps,
    from_table,
    greens,
    opposite,
    rees_coordinatize,
    small_generating_set,
)
from sgmindeg.errors import (
    EmptyGeneratorSet,
    IndexOutOfRange,
    InvariantViolated,
    NonAssociative,
    NotRegular,
    SizeLimitExceeded,
)


def test_trivial_table():
    s = from_table([[0]])
    assert s.size == 1 and s.identity == 0 and s.zero == 0


def test_null_semigroup():
    s = from_table(NULL2)
    assert s.zero == 0 and s.identity is None
    assert [e for e in range(s.size) if s.is_idempotent(e)] == [0]


def test_non_associative_witness():
    with pytest.raises(NonAssociative) as exc:
        from_table([[1, 1], [1, 0]])
    x, a, y = exc.value.witness
    t = np.array([[1, 1], [1, 0]])
    assert t[t[x, a], y] != t[x, t[a, y]]


def test_out_of_range():
    with pytest.raises(IndexOutOfRange):
        from_table([[0, 2], [1, 0]])
    with pytest.raises(IndexOutOfRange):
        from_table([[0, 1]])
    # checked before narrowing to int32, so 2^32 cannot wrap to a valid 0
    for big in (2**31, 2**32, 2**63, 10**23):
        with pytest.raises(IndexOutOfRange):
            from_table([[0, 0], [0, big]])
    # an integer array is checked in its own dtype
    for big, dtype in ((2**32, np.int64), (2**63, np.uint64), (-1, np.int8), (2, np.uint8)):
        with pytest.raises(IndexOutOfRange):
            from_table(np.array([[0, 0], [0, big]], dtype=dtype))


def test_from_table_copies_integer_arrays():
    for dtype in (np.int32, np.int64, np.uint16):
        t = np.array(NULL2, dtype=dtype)
        s = from_table(t)
        assert s.table.dtype == np.int32 and not np.shares_memory(s.table, t)
        assert not s.table.flags.writeable and t.flags.writeable
        t[1, 1] = 1  # the caller's array stays the caller's
        assert s.table[1, 1] == 0
    # a transposed view comes back row-major
    s = from_table(np.array([[0, 1], [1, 1]], dtype=np.int32).T)
    assert s.table.flags.c_contiguous


def test_light_test_matches_full_scan():
    # random associative and non-associative tables agree with the cubic scan
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = rng.integers(2, 5)
        t = rng.integers(0, n, size=(n, n))
        full_ok = all(
            t[t[a, b], c] == t[a, t[b, c]] for a in range(n) for b in range(n) for c in range(n)
        )
        try:
            check_associativity(t, small_generating_set(t))
            light_ok = True
        except NonAssociative:
            light_ok = False
        assert light_ok == full_ok


def _light_witness(table, gens):
    try:
        check_associativity(table, gens)
    except NonAssociative as exc:
        return exc.witness
    return None


def test_light_test_in_blocks_matches_whole_table(all_tiny_semigroups, builder_corpus):
    # one block covers the tiny tables; RB(20, 20) has 400 elements and five blocks
    rb = builders.rectangular_band(20, 20).semigroup.table
    assert core._light_block_rows(400) * 2 < 400
    tables = [s.table for s in all_tiny_semigroups]
    tables += [b.semigroup.table for b in builder_corpus.values()] + [rb]
    for t in tables:
        gens = small_generating_set(t)
        assert _light_witness(t, gens) is None and light_test_whole_table(t, gens) is None
    # one planted entry in an associative table: the same verdict and the same
    # witness, also when the first mismatch lies past the first block or
    # under a later generator
    rng = np.random.default_rng(19)
    bases = [
        builders.full_transformation(3).semigroup.table,  # 27 elements, one block
        builders.full_transformation(4).semigroup.table,  # 256, two blocks
        builders.symmetric_inverse(4).semigroup.table,  # 209, two blocks
        rb,
    ]
    past_first_block = later_generator = 0
    for base in bases:
        n = base.shape[0]
        rows = core._light_block_rows(n)
        for _ in range(30):
            t = base.copy()
            x, y = rng.integers(n, size=2)
            t[x, y] = (t[x, y] + rng.integers(1, n)) % n
            gens = small_generating_set(t)
            want = light_test_whole_table(t, gens)
            assert _light_witness(t, gens) == want
            if want is not None:
                past_first_block += want[0] >= rows
                later_generator += want[1] != gens[0]
                with pytest.raises(NonAssociative) as exc:
                    from_table(t)
                assert exc.value.witness == want
    assert past_first_block and later_generator


def test_from_partial_maps_t2():
    s, maps = from_partial_maps(2, [(1, 0), (0, 0)])
    assert s.size == 4
    assert s.identity is not None
    assert all(all(v >= 0 for v in m) for m in maps)  # closure stays total: it is T_2
    assert sum(s.is_idempotent(e) for e in range(s.size)) == 3


def test_from_partial_maps_trivial():
    s, _ = from_partial_maps(1, [(0,)])
    assert s.size == 1


def test_from_partial_maps_rb22():
    # the four maps on 4 points: 14->1,23->2 / 14->1,23->3 / 1->1,234->2 / 1->1,234->3
    f11 = (0, 1, 1, 0)
    f21 = (0, 2, 2, 0)
    f12 = (0, 1, 1, 1)
    f22 = (0, 2, 2, 2)
    s, _ = from_partial_maps(4, [f11, f21, f12, f22])
    assert s.size == 4
    t = s.table
    # rectangular band laws: idempotent and x y z = x z
    assert all(t[x, x] == x for x in range(4))
    assert all(
        t[t[x, y], z] == t[x, z] for x in range(4) for y in range(4) for z in range(4)
    )


def test_from_partial_maps_table_matches_all_pairs_reference(random_corpus):
    cases = [(s, [tuple(int(v) for v in row) for row in act.maps]) for s, act in random_corpus]
    cases.append(from_partial_maps(4, [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)]))  # T_4
    assert cases[-1][0].size == 256
    for s, maps in cases:
        want = table_by_composing_all_pairs(maps)
        assert s.table.dtype == want.dtype and np.array_equal(s.table, want)


def test_from_partial_maps_errors():
    with pytest.raises(EmptyGeneratorSet):
        from_partial_maps(2, [])
    with pytest.raises(IndexOutOfRange):
        from_partial_maps(2, [(0, 5)])
    with pytest.raises(SizeLimitExceeded):
        from_partial_maps(4, [(1, 2, 3, 0), (0, 0, 1, 2), (2, 2, 3, 1)], max_size=10)


@pytest.mark.parametrize(
    "build",
    [
        lambda: builders.binary_relations(3),
        lambda: builders.matrix_monoid(3, 2),
        lambda: builders.partial_transformation(4),
        lambda: builders.symmetric_inverse(4),
        lambda: builders.sigma_square(5, (1, 2, 3, 4, 0)),
        lambda: builders.rees_matrix(builders.cyclic(3).semigroup, [[1, 1], [1, 2]], adjoin_zero=True),
    ],
    ids=["B_3", "M_3_F2", "PT_4", "SIM_4", "sigma_square_5", "rees_with_zero"],
)
def test_identity_and_zero_match_row_scan_on_pinned_semigroups(build):
    s = build().semigroup
    assert (s.identity, s.zero) == scan_identity_zero_by_rows(s.table)
    assert core._scan_identity_zero(opposite(s).table) == scan_identity_zero_by_rows(s.table.T)


def test_identity_and_zero_match_row_scan(clifford_c4_c2, all_tiny_semigroups, random_corpus):
    for s in [clifford_c4_c2, *all_tiny_semigroups, *(s for s, _ in random_corpus)]:
        assert (s.identity, s.zero) == scan_identity_zero_by_rows(s.table)
        assert core._scan_identity_zero(s.table.T) == scan_identity_zero_by_rows(s.table.T)
    # magmas, mostly non-associative, some with a planted identity or zero
    rng = np.random.default_rng(11)
    for _ in range(1500):
        n = int(rng.integers(1, 8))
        t = rng.integers(0, n, size=(n, n))
        if rng.random() < 0.4:
            e = rng.integers(n)
            t[e], t[:, e] = np.arange(n), np.arange(n)
        if rng.random() < 0.4:
            z = rng.integers(n)
            t[z], t[:, z] = z, z
        assert core._scan_identity_zero(t) == scan_identity_zero_by_rows(t)
    # more rows than one block
    n = 1100
    t = rng.integers(0, n, size=(n, n))
    t[700], t[:, 700] = np.arange(n), np.arange(n)
    t[1050], t[:, 1050] = 1050, 1050
    assert core._scan_identity_zero(t) == scan_identity_zero_by_rows(t) == (700, 1050)


def test_opposite_involution_and_identity():
    s = builders.full_transformation(2).semigroup
    assert np.array_equal(opposite(opposite(s)).table, s.table)
    op = opposite(s)
    assert op.identity == s.identity and op.zero == s.zero


def test_opposite_commutative_fixed():
    s = builders.cyclic(6).semigroup
    assert np.array_equal(opposite(s).table, s.table)


def test_greens_group():
    s = builders.symmetric_group(3).semigroup
    g = greens(s)
    assert len(class_members(g.jclass_of)) == 1 and g.regular[0]
    assert len(class_members(g.hclass_of)) == 1  # H is the whole group


def test_greens_t2():
    s = builders.full_transformation(2).semigroup
    g = greens(s)
    assert len(class_members(g.jclass_of)) == 2
    assert g.regular.all()
    units = g.jclass_of[s.identity]
    consts = 1 - units
    assert g.jorder_lt[consts, units] and not g.jorder_lt[units, consts]


def test_greens_null():
    g = greens(from_table(NULL2))
    assert len(class_members(g.jclass_of)) == 2
    assert g.regular[g.jclass_of[0]]
    assert not g.regular[g.jclass_of[1]]


def _assert_same_regular_classes(got, want, swap_sides=False):
    """``regular_classes`` entries agree: e_J, H_e and the members equal, and
    r_reps and q_reps equal, or swapped with ``swap_sides``."""
    assert got.keys() == want.keys()
    for j, ((e, r_reps, q_reps), h_e, members) in want.items():
        (e2, r2, q2), h_e2, members2 = got[j]
        if swap_sides:
            r2, q2 = q2, r2
        assert (e2, h_e2, members2) == (e, h_e, members), j
        assert np.array_equal(r2, r_reps) and np.array_equal(q2, q_reps), j


def test_greens_opposite_swaps_r_and_l(random_corpus, builder_corpus):
    # Green's data are self-dual: the analysis of the opposite, computed from
    # its own table, swaps R with L and r_a with q_b and keeps everything else
    corpus = [s for s, _ in random_corpus] + [b.semigroup for b in builder_corpus.values()]
    corpus += [from_table(t) for t in associative_tables(4)]
    for s in corpus:
        g, gop = greens(s), greens(opposite(s))
        assert np.array_equal(g.rclass_of, gop.lclass_of)
        assert np.array_equal(g.lclass_of, gop.rclass_of)
        for name in ("jclass_of", "hclass_of", "jorder_lt", "regular"):
            assert np.array_equal(getattr(g, name), getattr(gop, name)), name
        assert g.idempotents == gop.idempotents
        _assert_same_regular_classes(gop.regular_classes, g.regular_classes, swap_sides=True)


GREENS_FIELDS = [f.name for f in dataclasses.fields(GreensStructure)]


def _assert_greens_match_reference(s):
    g, ref = greens(s), greens_by_ideal_matrices(s)
    for name in GREENS_FIELDS:
        a, b = getattr(g, name), getattr(ref, name)
        if name == "regular_classes":
            _assert_same_regular_classes(a, b)
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


@pytest.mark.parametrize(
    "build",
    [
        lambda: builders.binary_relations(3),
        lambda: builders.matrix_monoid(3, 2),
        lambda: builders.partial_transformation(4),
        lambda: builders.symmetric_inverse(4),
        lambda: builders.sigma_square(4, (1, 2, 3, 0)),
        lambda: builders.sigma_square(5, (1, 2, 3, 4, 0)),
        lambda: builders.sigma_square(6, (1, 2, 3, 4, 5, 0)),
    ],
    ids=["B_3", "M_3_F2", "PT_4", "SIM_4", "sigma_square_4", "sigma_square_5", "sigma_square_6"],
)
def test_greens_matches_ideal_matrices(build):
    s = build().semigroup
    _assert_greens_match_reference(s)
    _assert_greens_match_reference(opposite(s))


def test_greens_matches_ideal_matrices_on_small_semigroups(clifford_c4_c2, all_tiny_semigroups, random_corpus):
    for s in [clifford_c4_c2, *all_tiny_semigroups, *(s for s, _ in random_corpus)]:
        _assert_greens_match_reference(s)
        _assert_greens_match_reference(opposite(s))


def test_greens_on_a_10000_element_band():
    # RB(100, 100): (i, j)(k, l) = (i, l), generated by its diagonal (i, i)
    m = 100
    e = np.arange(m * m, dtype=np.int32)
    table = np.add.outer(e // m * m, e % m)
    s = FiniteSemigroup(table=table, identity=None, zero=None, gens=tuple(range(0, m * m, m + 1)))
    g = greens(s)
    counts = [len(class_members(ids)) for ids in (g.rclass_of, g.lclass_of, g.jclass_of, g.hclass_of)]
    assert counts == [m, m, 1, m * m]
    assert g.regular.all() and not g.jorder_lt.any()
    assert np.array_equal(g.rclass_of, e // m) and np.array_equal(g.lclass_of, e % m)


def test_generating_set_is_kept_and_passed_on(monkeypatch):
    calls = []
    monkeypatch.setattr(core, "small_generating_set", lambda t: calls.append(1) or [0])
    s = from_table([[0]])
    assert s.gens == (0,) and len(calls) == 1
    assert opposite(s).gens == (0,) and s.generators() == (0,) and len(calls) == 1
    lazy = from_table([[0]], validate=False)
    assert lazy.gens is None
    assert lazy.generators() == (0,) and lazy.generators() == (0,) and len(calls) == 2
    assert opposite(from_table([[0]], validate=False)).gens is None
    t2, _ = from_partial_maps(2, [(1, 0), (0, 0), (1, 0)])
    assert t2.gens == (0, 1) and len(calls) == 2  # the generator maps, not a search


def _partition_by_unique(keys):
    """Reference: np.unique, then class ids relabelled by lowest member, and
    the lowest member of each class."""
    if keys.ndim == 1:
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    relabel = np.empty(len(first), dtype=np.int64)
    relabel[order] = np.arange(len(first))
    return relabel[inv.reshape(-1)], first[order]


def test_partition_from_keys_matches_unique_reference():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(60):
        n = int(rng.integers(1, 40))
        cases.append(rng.integers(0, 4, size=n))  # 1-D
        cases.append(rng.integers(-1, 3, size=(n, 3)).astype(np.int32))  # int32 with -1
        cases.append(np.packbits(rng.random((n, 11)) < 0.3, axis=1))  # packed uint8
        cases.append(rng.integers(0, 3, size=(n, 4))[:, ::2])  # non-contiguous view
        cases.append(rng.integers(-1, 3, size=(n, 2)))  # C-order int64 with -1
    cases += [np.array([[5, -1, 2]]), np.zeros((7, 3), dtype=np.int64), np.full(9, 3)]
    cases.append(np.zeros((5, 0), dtype=np.int64))  # zero-width keys: one class
    for keys in cases:
        class_of, first = _partition_from_keys(keys)
        ref_of, ref_first = _partition_by_unique(keys)
        assert class_of.dtype == np.int64 and np.array_equal(class_of, ref_of)
        assert np.array_equal(first, ref_first)


def _rees_tables_by_loops(s, g, j):
    """Reference: e, group, group_mul, group_inv, sandwich and triple_to_elem by per-entry loops.

    e is the lowest idempotent of J.  r_a (q_b) is e for the class of e and
    otherwise the lowest element of the a-th H-class in L_e (R_e), classes in
    lowest-element order; all of it is read off ``greens`` alone.
    """
    t = s.table
    jel = class_members(g.jclass_of)[j]
    e = min(x for x in g.idempotents if g.jclass_of[x] == j)
    group = [e] + [x for x in jel if x != e and g.hclass_of[x] == g.hclass_of[e]]

    def reps(class_of, side_of):
        classes = class_members(class_of)
        others = {int(class_of[x]) for x in jel} - {int(class_of[e])}
        return [e] + [
            min(x for x in jel if class_of[x] == c and side_of[x] == side_of[e])
            for c in sorted(others, key=lambda c: classes[c][0])
        ]

    r_reps = reps(g.rclass_of, g.lclass_of)  # in L_e
    q_reps = reps(g.lclass_of, g.rclass_of)  # in R_e
    gpos = {x: i for i, x in enumerate(group)}
    m = len(group)
    group_mul = np.array([[gpos[int(t[x, y])] for y in group] for x in group], dtype=np.int32)
    group_inv = np.array([list(row).index(0) for row in group_mul], dtype=np.int32)
    sandwich = np.zeros((len(q_reps), len(r_reps)), dtype=np.int32)
    for bi, q in enumerate(q_reps):
        for ai, r in enumerate(r_reps):
            if g.jclass_of[t[q, r]] == j:
                sandwich[bi, ai] = gpos[int(t[q, r])] + 1
    triple_to_elem = np.empty((len(r_reps), m, len(q_reps)), dtype=np.int32)
    for ai, r in enumerate(r_reps):
        for gi, x in enumerate(group):
            for bi, q in enumerate(q_reps):
                triple_to_elem[ai, gi, bi] = t[t[r, x], q]
    return e, tuple(group), group_mul, group_inv, sandwich, triple_to_elem


def test_rees_tables_match_loop_reference(builder_corpus, random_corpus):
    semigroups = [b.semigroup for b in builder_corpus.values()] + [s for s, _ in random_corpus]
    for s in semigroups:
        g = greens(s)
        for j in g.regular_jclasses():
            rc = rees_coordinatize(s, g, j)
            e, group, mul, inv, sandwich, triples = _rees_tables_by_loops(s, g, j)
            assert rc.e == e and rc.group == group
            for got, want in [
                (rc.group_mul, mul),
                (rc.group_inv, inv),
                (rc.sandwich, sandwich),
                (rc.triple_to_elem, triples),
            ]:
                assert got.dtype == want.dtype and np.array_equal(got, want)


def _corruptible_rees_classes():
    """(s, g, rc) for sigma_square(4, 4-cycle) and the nonzero class of an aggm_01."""
    out = []
    for b in (builders.sigma_square(4, (1, 2, 3, 0)), builders.aggm_01(2, 3, [frozenset({0, 1})])):
        s = b.semigroup
        g = greens(s)
        j = max(g.regular_jclasses(), key=lambda j: len(class_members(g.jclass_of)[j]))
        out.append((s, g, rees_coordinatize(s, g, j)))
    return out


def test_rees_law_rejects_swapped_coordinates():
    for s, g, rc in _corruptible_rees_classes():
        triples = rc.triple_to_elem.copy()
        last = (rc.a_count - 1, rc.group_order - 1, rc.b_count - 1)
        triples[0, 0, 0], triples[last] = triples[last], triples[0, 0, 0]
        bad = dataclasses.replace(rc, triple_to_elem=triples)
        with pytest.raises(InvariantViolated, match="coordinate product disagrees"):
            _verify_rees_multiplication(s, g, bad)


def test_rees_law_rejects_dropped_sandwich_entry():
    for s, g, rc in _corruptible_rees_classes():
        sandwich = rc.sandwich.copy()
        b, a = np.argwhere(sandwich != 0)[-1]
        assert (b, a) != (0, 0)
        sandwich[b, a] = 0
        bad = dataclasses.replace(rc, sandwich=sandwich)
        with pytest.raises(InvariantViolated, match="product with zero sandwich entry stayed in J"):
            _verify_rees_multiplication(s, g, bad)


def test_rees_law_rejects_swap_outside_generators():
    # (a, h, b) with a >= 1 and b >= 1 is none of the checked columns r_a =
    # (a, 1, 0), q_b = (0, 1, b) and (0, h, 0): the rows of J catch the swap
    for s, g, rc in _corruptible_rees_classes():
        triples = rc.triple_to_elem.copy()
        p, q = (1, 0, 1), (rc.a_count - 1, rc.group_order - 1, rc.b_count - 1)
        assert p != q
        triples[p], triples[q] = triples[q], triples[p]
        bad = dataclasses.replace(rc, triple_to_elem=triples)
        with pytest.raises(InvariantViolated, match="coordinate product disagrees"):
            _verify_rees_multiplication(s, g, bad)
        with pytest.raises(InvariantViolated):
            verify_rees_multiplication_over_j(s, g, bad)


def _rees_corruptions(rc, rng):
    """``rc`` itself, then copies with two triples swapped, a nonzero sandwich
    entry other than C[0][0] dropped or changed, and a zero entry filled."""
    out = [rc]
    flat = rc.triple_to_elem.ravel().copy()
    if len(flat) > 1:
        i, k = rng.choice(len(flat), size=2, replace=False)
        flat[[i, k]] = flat[[k, i]]
        out.append(dataclasses.replace(rc, triple_to_elem=flat.reshape(rc.triple_to_elem.shape)))
    nonzero = [tuple(p) for p in np.argwhere(rc.sandwich != 0) if tuple(p) != (0, 0)]
    zero = [tuple(p) for p in np.argwhere(rc.sandwich == 0)]
    m = rc.group_order
    edits = []
    if nonzero:
        p = nonzero[rng.integers(len(nonzero))]
        edits.append((p, 0))
        if m > 1:
            edits.append((p, 1 + (rc.sandwich[p] - 1 + rng.integers(1, m)) % m))
    if zero:
        edits.append((zero[rng.integers(len(zero))], 1 + rng.integers(m)))
    for p, value in edits:
        sandwich = rc.sandwich.copy()
        sandwich[p] = value
        out.append(dataclasses.replace(rc, sandwich=sandwich))
    return out


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except InvariantViolated:
        return False
    return True


def test_rees_check_on_generators_agrees_with_whole_j(builder_corpus, random_corpus):
    # J x Y accepts exactly what J x J accepts, on sound coordinates and on
    # corrupted ones that keep C[0][0] = 1 and the coordinates a bijection
    golden = [
        builders.binary_relations(2),
        builders.matrix_monoid(2, 3),
        builders.sigma_square(3, (1, 0, 2)),
        builders.sigma_square(4, (1, 2, 3, 0)),
        builders.chain_semilattice(3),
        builders.symmetric_inverse(3),
        builders.aggm_01(2, 3, [frozenset({0, 1})]),
    ]
    pinned = [
        builders.binary_relations(3),
        builders.matrix_monoid(3, 2),
        builders.partial_transformation(4),
        builders.symmetric_inverse(4),
        builders.sigma_square(5, (1, 2, 3, 4, 0)),
        builders.rees_matrix(builders.cyclic(3).semigroup, [[1, 1], [1, 2]], adjoin_zero=True),
    ]
    semigroups = [b.semigroup for b in golden + pinned + list(builder_corpus.values())]
    semigroups += [s for s, _ in random_corpus]
    rng = np.random.default_rng(27)
    verdicts = []
    for s in semigroups:
        g = greens(s)
        for j in g.regular_jclasses():
            for k, rc in enumerate(_rees_corruptions(rees_coordinatize(s, g, j), rng)):
                ok = _accepts(_verify_rees_multiplication, s, g, rc)
                assert ok == _accepts(verify_rees_multiplication_over_j, s, g, rc)
                verdicts.append((k == 0, ok))
    assert all(ok for sound, ok in verdicts if sound)
    assert sum(not ok for _, ok in verdicts) > 100


def test_rees_t2_constants():
    s = builders.full_transformation(2).semigroup
    g = greens(s)
    consts = 1 - g.jclass_of[s.identity]
    r = rees_coordinatize(s, g, int(consts))
    assert r.group_order == 1
    assert r.a_count == 1 and r.b_count == 2
    assert (r.sandwich != 0).all()


def test_rees_not_regular():
    s = from_table(NULL2)
    g = greens(s)
    j = int(g.jclass_of[1])
    with pytest.raises(NotRegular):
        rees_coordinatize(s, g, j)


def _normalize_2x2(r):
    """Scale a fully nonzero 2x2 sandwich to [[1,1],[1,x]]; return x's group position."""
    c = r.sandwich - 1
    gm, gi = r.group_mul, r.group_inv
    # row scaling kills column 0, then column scaling kills row 0
    c = np.array(
        [[gm[gi[c[b, 0]], c[b, a]] for a in range(2)] for b in range(2)]
    )
    c = np.array([[gm[c[b, a], gi[c[0, a]]] for a in range(2)] for b in range(2)])
    assert c[0, 0] == c[0, 1] == c[1, 0] == 0
    return int(c[1, 1])


def test_rees_sigma_square_recovers_sandwich():
    b = builders.sigma_square(3, (1, 0, 2))  # sigma a transposition
    s = b.semigroup
    g = greens(s)
    assert len(class_members(g.jclass_of)) == 1
    r = rees_coordinatize(s, g, 0)
    assert r.group_order == 6 and r.a_count == 2 and r.b_count == 2
    x = _normalize_2x2(r)
    # the normalized diagonal entry has order 2: conjugate to the input transposition
    assert x != 0 and r.group_mul[x, x] == 0


def test_rees_m2f2_rank1():
    s = builders.matrix_monoid(2, 2).semigroup
    g = greens(s)
    r = rees_coordinatize(s, g, 1)  # rank-1 class: lowest nonzero matrix lives there
    assert r.b_count == 3  # (2^2 - 1)/(2 - 1) L-classes
    assert r.group_order == 1


def test_rees_idempotent_count_equals_sandwich_support(builder_corpus):
    for b in builder_corpus.values():
        s = b.semigroup
        g = greens(s)
        for j in g.regular_jclasses():
            if len(class_members(g.jclass_of)[j]) > 600:
                continue
            r = rees_coordinatize(s, g, j)
            idem_in_j = sum(1 for e in g.idempotents if g.jclass_of[e] == j)
            assert idem_in_j == int((r.sandwich != 0).sum())


def test_jorder_matches_pairwise_ideal_reference(builder_corpus, random_corpus):
    semigroups = [b.semigroup for b in builder_corpus.values()] + [s for s, _ in random_corpus]
    semigroups.append(from_table(np.zeros((300, 300), dtype=np.int32)))  # null: 300 J-classes
    for s in semigroups:
        g = greens(s)
        assert np.array_equal(g.jorder_lt, jorder_by_ideal_pairs(s, g))


def test_jorder_is_a_strict_partial_order(builder_corpus):
    for b in builder_corpus.values():
        g = greens(b.semigroup)
        lt = g.jorder_lt
        assert not lt.diagonal().any()
        k = len(class_members(g.jclass_of))
        for i in range(k):
            for j in range(k):
                if lt[i, j]:
                    assert not lt[j, i]
                    for l in range(k):
                        if lt[j, l]:
                            assert lt[i, l]


def test_generating_set_is_irredundant_and_generates():
    for b in [builders.full_transformation(3), builders.binary_relations(2)]:
        t = b.semigroup.table
        gens = small_generating_set(t)
        assert closure_mask(t, gens).all()
        for g0 in gens:
            rest = [x for x in gens if x != g0]
            if rest:
                assert not closure_mask(t, rest).all()


@pytest.mark.parametrize(
    "built, gens",
    [
        (lambda: builders.symmetric_inverse(4), [92, 97, 116, 124]),
        (lambda: builders.binary_relations(3), [80, 84, 92, 98, 238]),
        (lambda: builders.matrix_monoid(3, 2), [83, 86, 92]),
        (lambda: builders.partial_transformation(4), [193, 198, 214, 269, 294]),
    ],
    ids=["SIM_4", "B_3", "M_3_F2", "PT_4"],
)
def test_generating_set_pinned(built, gens):
    # the oracle assigns images to exactly these generators, so the lists must not drift
    assert small_generating_set(built().semigroup.table) == gens


def _full_closure(t, seed):
    """Reference: multiply all members by all members until nothing is new."""
    mask = np.zeros(t.shape[0], dtype=bool)
    mask[list(seed)] = True
    while True:
        members = np.flatnonzero(mask)
        grown = mask.copy()
        grown[t[np.ix_(members, members)]] = True
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def _left_normed_closure(t, gens):
    """Reference: every ((g1 g2) ...) gk, by a breadth-first walk in Python."""
    seen = set(gens)
    todo = list(seen)
    while todo:
        x = todo.pop()
        for g in gens:
            y = int(t[x, g])
            if y not in seen:
                seen.add(y)
                todo.append(y)
    mask = np.zeros(t.shape[0], dtype=bool)
    mask[list(seen)] = True
    return mask


def _check_closure(t, a, s, reference, rng):
    base = reference(t, a)
    full = reference(t, a + s)
    assert np.array_equal(closure_mask(t, a + s), full)
    assert np.array_equal(closure_mask(t, a + s, base=base), full)
    g = int(rng.integers(t.shape[0]))
    assert closure_mask(t, a + s, stop=g)[g] == full[g]
    assert closure_mask(t, a + s, base=base, stop=g)[g] == full[g]


def test_closure_base_and_stop_match_full_closure(random_corpus):
    rng = np.random.default_rng(31)
    tables = [s.table for s, _ in random_corpus]
    tables += [
        b.semigroup.table
        for b in (
            builders.full_transformation(3),
            builders.partial_transformation(2),
            builders.symmetric_inverse(3),
            builders.symmetric_group(4),
        )
    ]
    for t in tables:
        n = t.shape[0]
        a = rng.choice(n, size=rng.integers(0, n + 1), replace=False).tolist()
        s = rng.choice(n, size=rng.integers(0, 3), replace=True).tolist()
        _check_closure(t, a, s, _full_closure, rng)
    # random magmas, mostly non-associative: the closure is the left-normed
    # one, and base must be the closure of exactly the generators it holds,
    # so the added ones are drawn from outside it
    for n in rng.integers(1, 10, size=300):
        t = rng.integers(0, n, size=(n, n))
        a = rng.choice(n, size=rng.integers(0, n + 1), replace=False).tolist()
        outside = np.flatnonzero(~_left_normed_closure(t, a))
        s = rng.choice(outside, size=min(len(outside), rng.integers(0, 3)), replace=False).tolist()
        _check_closure(t, a, s, _left_normed_closure, rng)


def test_generating_paths_never_call_np_unique(monkeypatch):
    # np.unique loads numpy's hash-based unique on its first call in a process
    from sgmindeg.oracle import generating_set

    s = builders.partial_transformation(3).semigroup

    def forbidden(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", forbidden)
    assert closure_mask(s.table, [1, 5, 9]).any()
    assert small_generating_set(s.table)
    assert generating_set(s)
    assert greens(s)
