"""Slow, independent reference implementations that the tests compare against,
and helpers that only the tests need.

None of these is on the library's computation path: each reference
recomputes, by a different or more literal method, something the library
computes or certifies, so that a test can check the two agree.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from sgmindeg.action import UNDEF, PartialAction, orbits
from sgmindeg.builders import _field_tables
from sgmindeg.congruence import (
    Congruence,
    column_condition,
    IrreducibilityReport,
    JClassIrreducibility,
    _ggm_signature,
    rm_congruence_at,
    universal_congruence,
)
from sgmindeg.core import (
    FiniteSemigroup,
    GreensStructure,
    PartialMap,
    ReesCoordinatization,
    _partition_from_keys,
    _regular_classes,
    check_associativity,
    closure_mask,
    compose_maps,
    greens,
    min_idempotent_of,
    rees_law,
    small_generating_set,
)
from sgmindeg.errors import InvariantViolated, NotRegular, NotSubgroup
from sgmindeg.grouptheory import (
    GroupAction,
    GroupTable,
    SubgroupClass,
    SubgroupLattice,
    _cheapest_set,
    _validate_subgroup,
    coset_action,
)
from sgmindeg.mindeg import DjResult, tensor_quotient_size
from sgmindeg.oracle import (
    DEFAULT_BUDGET_SECS,
    OracleQuery,
    _Budget,
    _Timeout,
    feasible,
    generating_set,
    monogenic_type_of_element,
    prime_powers,
)


# ---------------------------------------------------------------------------
# Text formats: the .sgt writer by row joins, and the formats that the
# library reads but does not write


def dump_sgt_by_row_joins(s: FiniteSemigroup, header: str | None = None) -> str:
    """An ``.sgt`` text, one ``" ".join`` per table row."""
    lines = [f"# {ln}" for ln in header.splitlines()] if header else []
    lines.append(str(s.size))
    lines.extend(" ".join(map(str, row)) for row in s.table.tolist())
    return "\n".join(lines) + "\n"


def dump_pgen(degree: int, gens: list) -> str:
    """A ``.pgen`` text: the degree, then one generator per line, '-' for undefined."""
    lines = [str(degree)]
    for m in gens:
        lines.append(" ".join("-" if v < 0 else str(int(v)) for v in m))
    return "\n".join(lines) + "\n"


def dump_rees(group: FiniteSemigroup, sandwich: np.ndarray, zero: bool) -> str:
    """A ``.rees`` text: the header, the group table, then the sandwich rows."""
    c = np.asarray(sandwich)
    nb, na = c.shape
    lines = [f"G={group.size} A={na} B={nb} zero={1 if zero else 0}"]
    for row in group.table:
        lines.append(" ".join(str(int(v)) for v in row))
    for row in c:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tables and Green's structure


def table_by_composing_all_pairs(maps: list[PartialMap]) -> np.ndarray:
    """Multiplication table of a closed list of partial maps, one composition per pair."""
    index = {h: i for i, h in enumerate(maps)}
    n = len(maps)
    table = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(n):
            table[a, b] = index[compose_maps(maps[a], maps[b])]
    return table


def binary_relations_table_by_einsum(n: int) -> np.ndarray:
    """The table of B_n, one einsum over all matrices per left factor."""
    count = 1 << (n * n)
    bits = ((np.arange(count)[:, None] >> np.arange(n * n)[None, :]) & 1).astype(bool)
    mats = bits.reshape(count, n, n)
    weights = (1 << np.arange(n * n)).reshape(n, n)
    table = np.empty((count, count), dtype=np.int32)
    for a in range(count):
        prods = np.einsum("ik,mkj->mij", mats[a], mats) > 0
        table[a] = (prods * weights).sum(axis=(1, 2))
    return table


def matrix_monoid_table_by_elements(n: int, q: int) -> np.ndarray:
    """The table of M_n(F_q), one pass of field-table lookups per left factor."""
    add, mul = _field_tables(q)
    count = q ** (n * n)
    digits = (np.arange(count)[:, None] // (q ** np.arange(n * n))[None, :]) % q
    mats = digits.reshape(count, n, n).astype(np.int8)
    weights = (q ** np.arange(n * n)).reshape(n, n)
    table = np.empty((count, count), dtype=np.int32)
    for a in range(count):
        acc = np.zeros((count, n, n), dtype=np.int8)
        x = mats[a]
        for k in range(n):
            term = mul[x[:, k][None, :, None], mats[:, k, :][:, None, :]]
            acc = add[acc, term]
        table[a] = (acc.astype(np.int64) * weights).sum(axis=(1, 2))
    return table


def light_test_whole_table(table: np.ndarray, gens: list[int]) -> tuple[int, int, int] | None:
    """Light's test with one n x n gather per generator: the witness (x, a, y)
    of the first generator a that fails, first in row-major order, or None."""
    for a in gens:
        lhs = table[table[:, a], :]  # (x, y) -> (x a) y
        rhs = table[:, table[a, :]]  # (x, y) -> x (a y)
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            return int(x), int(a), int(y)
    return None


def scan_identity_zero_by_rows(table: np.ndarray) -> tuple[int | None, int | None]:
    """The lowest e whose row and column are 0..n-1, and the lowest whose row
    and column are constant e, one element at a time."""
    n = table.shape[0]
    ar = np.arange(n)
    identity = None
    zero = None
    for e in range(n):
        if identity is None and np.array_equal(table[e], ar) and np.array_equal(table[:, e], ar):
            identity = e
        if zero is None and (table[e] == e).all() and (table[:, e] == e).all():
            zero = e
    return identity, zero


def associative_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every associative table on 0..n-1, by backtracking over the cells in
    row-major order: each cell takes every value in turn, and a branch is cut
    as soon as some (xy)z = x(yz) whose four products are all set fails."""
    t = [[-1] * n for _ in range(n)]
    cells = [(x, y) for x in range(n) for y in range(n)]
    triples = list(product(range(n), repeat=3))
    out = []

    def consistent() -> bool:
        for a, b, c in triples:
            ab, bc = t[a][b], t[b][c]
            if ab < 0 or bc < 0:
                continue
            left, right = t[ab][c], t[a][bc]
            if left >= 0 and right >= 0 and left != right:
                return False
        return True

    def rec(k: int) -> None:
        if k == len(cells):
            out.append(tuple(map(tuple, t)))
            return
        x, y = cells[k]
        for v in range(n):
            t[x][y] = v
            if consistent():
                rec(k + 1)
        t[x][y] = -1

    rec(0)
    return out


def canonical_form(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The least row-major relabeling of a table over all permutations of its
    elements: two tables are isomorphic iff their forms are equal."""
    n = len(table)
    best = None
    for p in permutations(range(n)):
        inv = [0] * n
        for x, px in enumerate(p):
            inv[px] = x
        key = tuple(p[table[inv[x]][inv[y]]] for x in range(n) for y in range(n))
        if best is None or key < best:
            best = key
    return best


def class_members(class_of: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The members of each class of a partition given as class ids, in
    ascending order, by class id."""
    out: list[list[int]] = [[] for _ in range(int(class_of.max()) + 1)]
    for x, c in enumerate(class_of.tolist()):
        out[c].append(x)
    return tuple(tuple(c) for c in out)


def greens_by_ideal_matrices(s: FiniteSemigroup) -> GreensStructure:
    """Green's relations from principal ideal equality, as n x n boolean
    matrices of the right, left and two-sided ideals."""
    t = s.table
    n = s.size
    rows = np.repeat(np.arange(n), n)
    diag = np.arange(n)

    right = np.zeros((n, n), dtype=bool)
    right[rows, t.ravel()] = True
    right[diag, diag] = True

    left = np.zeros((n, n), dtype=bool)
    left[rows, t.T.ravel()] = True
    left[diag, diag] = True

    # two-sided ideal of s: union of right ideals over the left ideal of s
    two = (left.astype(np.float32) @ right.astype(np.float32)) > 0.5

    rclass_of, _ = _partition_from_keys(np.packbits(right, axis=1))
    lclass_of, _ = _partition_from_keys(np.packbits(left, axis=1))
    jclass_of, reps = _partition_from_keys(np.packbits(two, axis=1))

    hkeys = rclass_of * (lclass_of.max() + 1) + lclass_of
    hclass_of, _ = _partition_from_keys(hkeys)

    # J_i < J_j iff i != j and rep_i, the lowest member of J_i, lies in the ideal of rep_j
    jorder_lt = two[reps[None, :], reps[:, None]]
    np.fill_diagonal(jorder_lt, False)

    idem = np.flatnonzero(t[diag, diag] == diag)
    regular = np.zeros(len(reps), dtype=bool)
    regular[jclass_of[idem]] = True

    jorder_lt.setflags(write=False)
    regular.setflags(write=False)
    idempotents = tuple(int(e) for e in idem)
    return GreensStructure(
        rclass_of=rclass_of,
        lclass_of=lclass_of,
        jclass_of=jclass_of,
        hclass_of=hclass_of,
        jorder_lt=jorder_lt,
        regular=regular,
        idempotents=idempotents,
        regular_classes=_regular_classes(jclass_of, rclass_of, lclass_of, idempotents),
    )


def jorder_by_ideal_pairs(s: FiniteSemigroup, g: GreensStructure) -> np.ndarray:
    """J_i < J_j iff the ideal S^1 x S^1 of J_i's lowest element is a proper
    subset of J_j's, compared pair by pair."""
    t = s.table
    ideals = []
    for c in class_members(g.jclass_of):
        x = c[0]
        mask = np.zeros(s.size, dtype=bool)
        mask[x] = True
        mask[t[x]] = True  # x t
        mask[t[:, x]] = True  # s x
        mask[t[t[:, x]]] = True  # (s x) t
        ideals.append(mask)
    k = len(ideals)
    lt = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(k):
            lt[i, j] = i != j and not np.any(ideals[i] & ~ideals[j])
    return lt


# ---------------------------------------------------------------------------
# Actions


def cayley_extended(s: FiniteSemigroup) -> PartialAction:
    """Right action on S u {1}: always total and faithful."""
    n = s.size
    maps = np.empty((n, n + 1), dtype=np.int32)
    maps[:, :n] = s.table.T
    maps[:, n] = np.arange(n)
    return PartialAction(degree=n + 1, maps=maps)


def check_compatibility(s: FiniteSemigroup, omega: PartialAction) -> bool:
    """p(st) = (ps)t for every pair (s, t), both sides undefined together."""
    m = omega.maps
    n = s.size
    ext = np.concatenate([m, np.full((n, 1), -1, dtype=m.dtype)], axis=1)  # column -1 is undefined
    composed = ext[np.arange(n)[None, :, None], m[:, None, :]]  # [s, t, p] = (p s) t
    return bool(np.array_equal(m[s.table], composed))


def acts_monoidally(s: FiniteSemigroup, omega: PartialAction) -> bool:
    if s.identity is None:
        return False
    return bool(np.array_equal(omega.maps[s.identity], np.arange(omega.degree)))


def restriction_is_injective(omega: PartialAction) -> bool:
    """Every element acts by a partial bijection."""
    for row in omega.maps:
        vals = row[row >= 0]
        if len(np.unique(vals)) != len(vals):
            return False
    return True


def strong_orbits_by_reachability(omega: PartialAction) -> np.ndarray:
    """Orbit id of each point, ids ordered by lowest member: points with the
    same forward-reachability set under S^1, the reflexive point graph squared
    until it stops changing."""
    d = omega.degree
    reach = np.eye(d, dtype=bool)
    rows = np.broadcast_to(np.arange(d), omega.maps.shape)
    defined = omega.maps >= 0
    reach[rows[defined], omega.maps[defined]] = True
    while True:
        nxt = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(nxt, reach):
            return _partition_from_keys(np.packbits(reach, axis=1))[0]
        reach = nxt


def faithful_by_rows(s: FiniteSemigroup, omega: PartialAction) -> tuple[bool, tuple[int, int] | None]:
    """``action.is_faithful`` by walking the elements in order: the first
    element whose partial map was already seen, paired with the one that had it."""
    seen: dict[bytes, int] = {}
    for x in range(s.size):
        key = omega.maps[x].tobytes()
        if key in seen:
            return False, (seen[key], x)
        seen[key] = x
    return True, None


def minimal_acting_jclasses_by_pairs(
    g: GreensStructure, omega: PartialAction, points: tuple[int, ...]
) -> list[int]:
    """The J-classes acting within the orbit ``points`` that lie above no other
    acting class, by a scan over pairs of acting classes: ``[apex]`` for a
    transitive orbit of ``action.orbits``."""
    pts = np.asarray(points)
    member = np.zeros(omega.degree + 1, dtype=bool)
    member[pts] = True
    sub = omega.maps[:, pts]
    acting = np.flatnonzero(((sub >= 0) & member[sub]).any(axis=1))
    jset = sorted(set(int(j) for j in g.jclass_of[acting]))
    return [j for j in jset if not any(g.jorder_lt[j2, j] for j2 in jset if j2 != j)]


def faithful_by_criterion_by_loop(
    s: FiniteSemigroup, omega: PartialAction, g: GreensStructure, report: IrreducibilityReport
) -> bool:
    """``action.faithful_by_criterion`` with one M_J element at a time: each
    nontrivial element must act totally on the e_J-image of the apex-J points
    and move some point of it."""
    dec = orbits(s, omega, g)
    for j in report.irreducible_ids():
        row = report.per_class[j]
        pts = [p for o in dec.orbits if o.apex == j for p in o.points]
        if not pts:
            return False
        imgs = omega.maps[row.e, pts]
        fixed = np.zeros(omega.degree, dtype=bool)
        fixed[imgs[imgs >= 0]] = True
        fixed = np.flatnonzero(fixed)
        for m in row.mj:
            if m == row.e:
                continue
            moved = omega.maps[m, fixed]
            if not (moved >= 0).all():
                raise InvariantViolated("group element must act totally on the e_J-image")
            if (moved == fixed).all():
                return False
    return True


def schutzenberger_right(
    s: FiniteSemigroup, r: ReesCoordinatization
) -> tuple[PartialAction, tuple[int, ...]]:
    """Action of S on the R-class of e_J by right multiplication, undefined
    when the product leaves the R-class, with the element of each point."""
    points = np.sort(r.triple_to_elem[0], axis=None)
    pos = np.full(s.size, UNDEF, dtype=np.int32)  # UNDEF outside the R-class
    pos[points] = np.arange(len(points))
    maps = pos[s.table[points, :]].T  # (s, point) -> point_elem * s
    return PartialAction(degree=len(points), maps=maps), tuple(int(x) for x in points)


def semisimplify(s: FiniteSemigroup, omega: PartialAction, g: GreensStructure) -> PartialAction:
    """Keep the points lying in transitive strong orbits and restrict the
    action within each orbit; images leaving the orbit become undefined."""
    dec = orbits(s, omega, g)
    keep: list[int] = []
    for o in dec.orbits:
        if o.kind == "transitive":
            keep.extend(o.points)
    keep.sort()
    keep_arr = np.asarray(keep, dtype=np.int64)
    newpos = np.full(omega.degree + 1, UNDEF, dtype=np.int32)
    newpos[keep_arr] = np.arange(len(keep))
    sub = omega.maps[:, keep_arr]
    same_orbit = np.zeros_like(sub, dtype=bool)
    valid = sub >= 0
    same_orbit[valid] = dec.orbit_of[sub[valid]] == dec.orbit_of[keep_arr][
        np.broadcast_to(np.arange(len(keep)), sub.shape)[valid]
    ]
    maps = np.where(valid & same_orbit, newpos[sub], UNDEF).astype(np.int32)
    return PartialAction(degree=len(keep), maps=maps)


def greens_congruence_classes(s: FiniteSemigroup, omega: PartialAction, e: int) -> np.ndarray:
    """Green's congruence classes at the idempotent e by a scan over the
    translators S^1 e: per-point class ids, or -1 for points equivalent to the
    undefined sink.

    Two points are equivalent when every t in S^1 e sends them to the same
    point (or leaves both undefined); class ids follow first occurrence, as
    ``action.greens_quotient`` takes them.  A point all of whose
    se-translates are undefined is identified with the sink.
    """
    translators = np.zeros(s.size, dtype=bool)
    translators[s.table[:, e]] = True
    translators[e] = True
    translators = np.flatnonzero(translators)
    sig = omega.maps[translators, :].T  # point rows over t in S^1 e
    class_of, _ = _partition_from_keys(sig)
    sink = (sig < 0).all(axis=1)  # these points form one class; drop its id
    sink_id = class_of[np.argmax(sink)] if sink.any() else omega.degree
    return np.where(sink, -1, class_of - (class_of > sink_id))


def greens_congruence_fixpoint(s: FiniteSemigroup, omega: PartialAction, e: int) -> np.ndarray:
    """Green's congruence classes at e by Moore-style refinement over a
    generating set, with an explicit sink point.

    Start from the partition by the value of p.e and refine until stable under
    every generator; the class containing the sink maps to -1 and the other
    class ids follow first occurrence, as in ``greens_congruence_classes``.
    """
    d = omega.degree
    gens = small_generating_set(s.table)
    ext = np.empty((len(gens), d + 1), dtype=np.int64)  # sink = point d
    for i, ge in enumerate(gens):
        row = omega.maps[ge]
        ext[i, :d] = np.where(row >= 0, row, d)
        ext[i, d] = d

    init = np.empty(d + 1, dtype=np.int64)
    row_e = omega.maps[e]
    init[:d] = np.where(row_e >= 0, row_e, d)
    init[d] = d
    class_of, _ = _partition_from_keys(init.reshape(-1, 1))
    while True:
        keys = np.concatenate([class_of.reshape(-1, 1), class_of[ext].T], axis=1)
        new_class, _ = _partition_from_keys(keys)
        if len(np.unique(new_class)) == len(np.unique(class_of)):
            break
        class_of = new_class

    out = np.full(d, -1, dtype=np.int64)
    relabel: dict[int, int] = {}
    for p in range(d):
        if class_of[p] != class_of[d]:
            out[p] = relabel.setdefault(int(class_of[p]), len(relabel))
    return out


# ---------------------------------------------------------------------------
# Congruences


def meet(a: Congruence, b: Congruence) -> Congruence:
    """The intersection of two congruences."""
    return Congruence(_partition_from_keys(np.stack([a.class_of, b.class_of], axis=1))[0])


def ggm_congruence_at(s: FiniteSemigroup, g: GreensStructure, j: int) -> Congruence:
    """s ~ t iff for all x, y in J: xsy in J <=> xty in J, with xsy = xty when in J.

    Decided on |B| x |A| entries per element (``congruence._ggm_signature``)."""
    return Congruence(_partition_from_keys(_ggm_signature(s, g, j))[0])


def is_compatible(s: FiniteSemigroup, cong: Congruence) -> bool:
    """Full-scan test that the partition is a two-sided congruence."""
    ids = cong.class_of
    t = s.table
    k = len(class_members(cong.class_of))
    for u in range(s.size):
        if len(np.unique(np.stack([ids, ids[t[u]]], axis=1), axis=0)) != k:
            return False
        if len(np.unique(np.stack([ids, ids[t[:, u]]], axis=1), axis=0)) != k:
            return False
    return True


def rm_meet(s: FiniteSemigroup, g: GreensStructure | None = None) -> Congruence:
    """Intersection of the right-mapping congruences over all regular J-classes."""
    if g is None:
        g = greens(s)
    cong = universal_congruence(s.size)
    for j in g.regular_jclasses():
        cong = meet(cong, rm_congruence_at(s, g, j))
    return cong


def rm_congruence_over_j(s: FiniteSemigroup, g: GreensStructure, j: int) -> Congruence:
    """The right-mapping congruence from the action on every x in J: one
    signature entry per element of J (xs, or -1 outside J)."""
    if not g.regular[j]:
        raise NotRegular(f"J-class {j} contains no idempotent")
    jelems = np.asarray(class_members(g.jclass_of)[j])
    prods = s.table[jelems, :]  # (x, s) -> x s
    sig = np.where(g.jclass_of[prods] == j, prods, -1).T
    return Congruence(_partition_from_keys(sig)[0])


def ggm_congruence_over_j(s: FiniteSemigroup, g: GreensStructure, j: int) -> Congruence:
    """The GGM congruence from xsy over all x, y in J: u's left-translate on J
    gets a row id, and s's signature is (row id of xs) over every x in J."""
    if not g.regular[j]:
        raise NotRegular(f"J-class {j} contains no idempotent")
    jelems = np.asarray(class_members(g.jclass_of)[j])
    right = s.table[:, jelems]  # (u, y) -> u y
    row_id, _ = _partition_from_keys(np.where(g.jclass_of[right] == j, right, -1))
    sig = row_id[s.table[jelems, :]].T  # (row id of x s) over x
    return Congruence(_partition_from_keys(sig)[0])


def is_rhodes_semisimple_over_j(s: FiniteSemigroup, g: GreensStructure) -> tuple[bool, Congruence]:
    """The meet of ``ggm_congruence_over_j`` over the regular J-classes, one
    ``meet`` at a time, stopping at equality."""
    cong = universal_congruence(s.size)
    for j in g.regular_jclasses():
        cong = meet(cong, ggm_congruence_over_j(s, g, j))
        if cong.is_equality():
            break
    return cong.is_equality(), cong


def rm_irreducible_classes_by_loop(s: FiniteSemigroup, g: GreensStructure) -> IrreducibilityReport:
    """``rm_irreducible_classes`` from ``rm_congruence_over_j``, with the
    witness found by walking the elements in order: the first x whose RM class
    differs from that of the first element met in its lower-meet class."""
    n = s.size
    regs = g.regular_jclasses()
    rm = {j: rm_congruence_over_j(s, g, j) for j in regs}
    per = {}
    for j in regs:
        lower = [rm[j2].class_of for j2 in regs if g.jorder_lt[j2, j]]
        keys = np.array(lower, dtype=np.int64).reshape(len(lower), n).T
        plow_ids, _ = _partition_from_keys(keys)
        witness = None
        first_by_class: dict[int, int] = {}
        rm_ids = rm[j].class_of
        for x in range(n):
            c = int(plow_ids[x])
            if c not in first_by_class:
                first_by_class[c] = x
            elif rm_ids[first_by_class[c]] != rm_ids[x]:
                witness = (first_by_class[c], x)
                break
        e = min(x for x in g.idempotents if g.jclass_of[x] == j)
        h_e = class_members(g.hclass_of)[g.hclass_of[e]]
        mj = tuple(x for x in h_e if plow_ids[x] == plow_ids[e])
        per[j] = JClassIrreducibility(
            jclass=j, e=e, rm_irreducible=witness is not None, witness=witness, mj=mj
        )
    return IrreducibilityReport(per_class=per, rm_congruences=rm)


# ---------------------------------------------------------------------------
# Inverse semigroups: join irreducibility in the natural partial order


def inverses_of(s: FiniteSemigroup) -> list[int] | None:
    """Per-element inverse (sts = s, tst = t), or None if some element has none."""
    t = s.table
    out: list[int] = []
    for a in range(s.size):
        found = -1
        for b in range(s.size):
            if t[t[a, b], a] == a and t[t[b, a], b] == b:
                found = b
                break
        if found < 0:
            return None
        out.append(found)
    return out


def is_inverse_semigroup(s: FiniteSemigroup) -> bool:
    """Every element has an inverse and idempotents commute."""
    inv = inverses_of(s)
    if inv is None:
        return False
    idem = [e for e in range(s.size) if s.is_idempotent(e)]
    t = s.table
    for i, e in enumerate(idem):
        for f in idem[i + 1 :]:
            if t[e, f] != t[f, e]:
                return False
    return True


def natural_order(s: FiniteSemigroup, inv: list[int]) -> np.ndarray:
    """Matrix leq[x, y] of the natural partial order x <= y (x = x x^-1 y)."""
    t = s.table
    n = s.size
    ff = t[np.arange(n), inv]  # x x^-1
    return t[ff, :] == np.arange(n)[:, None]


@dataclass(frozen=True)
class ScheinRow:
    jclass: int
    e: int
    join_irreducible: bool
    mj: tuple[int, ...]


def schein_irreducibility_check(
    s: FiniteSemigroup, g: GreensStructure | None = None
) -> dict[int, ScheinRow]:
    """Join-irreducibility of J-classes of an inverse semigroup, with the
    order-theoretic description of the invisible subgroup (Easdown-Schein).

    Agrees with ``rm_irreducible_classes`` on inverse semigroups; raises
    ValueError on any other semigroup."""
    inv = inverses_of(s)
    if inv is None or not is_inverse_semigroup(s):
        raise ValueError("semigroup is not inverse (missing inverses or non-commuting idempotents)")
    if g is None:
        g = greens(s)
    leq = natural_order(s, inv)
    n = s.size

    out: dict[int, ScheinRow] = {}
    for j in g.regular_jclasses():
        e = min_idempotent_of(g, j)
        below = [x for x in range(n) if leq[x, e] and x != e]
        if below:
            ub_mask = leq[below, :].all(axis=0)
        else:
            ub_mask = np.ones(n, dtype=bool)
        upper = np.flatnonzero(ub_mask)
        join_reducible = bool(leq[e, upper].all())

        h_e = g.hclass_of[e]
        if below:
            mj = tuple(x for x in class_members(g.hclass_of)[h_e] if leq[below, x].all())
        else:
            mj = class_members(g.hclass_of)[h_e]
        out[j] = ScheinRow(jclass=j, e=e, join_irreducible=not join_reducible, mj=mj)
    return out


# ---------------------------------------------------------------------------
# Sandwich matrix proportionality


@dataclass(frozen=True)
class ProportionalityFlags:
    rm: bool
    lm: bool

    @property
    def ggm(self) -> bool:
        return self.rm and self.lm


def proportionality_flags(r: ReesCoordinatization) -> ProportionalityFlags:
    """rm: no two sandwich columns are right proportional; lm: no two rows are
    left proportional.  For a (0-)simple semigroup these characterize the
    right-mapping / left-mapping / GGM properties in both directions."""
    c = r.sandwich
    gm, gi = r.group_mul, r.group_inv
    nz = c != 0

    def cols_proportional(a1: int, a2: int) -> bool:
        if not np.array_equal(nz[:, a1], nz[:, a2]):
            return False
        rows = np.flatnonzero(nz[:, a1])
        b0 = rows[0]
        g0 = gm[gi[c[b0, a1] - 1], c[b0, a2] - 1]  # C[b0,a1]^-1 C[b0,a2]
        return bool((gm[c[rows, a1] - 1, g0] == c[rows, a2] - 1).all())

    def rows_proportional(b1: int, b2: int) -> bool:
        if not np.array_equal(nz[b1], nz[b2]):
            return False
        cols = np.flatnonzero(nz[b1])
        a0 = cols[0]
        g0 = gm[c[b2, a0] - 1, gi[c[b1, a0] - 1]]  # C[b2,a0] C[b1,a0]^-1
        return bool((gm[g0, c[b1, cols] - 1] == c[b2, cols] - 1).all())

    rm = not any(
        cols_proportional(a1, a2) for a1 in range(r.a_count) for a2 in range(a1 + 1, r.a_count)
    )
    lm = not any(
        rows_proportional(b1, b2) for b1 in range(r.b_count) for b2 in range(b1 + 1, r.b_count)
    )
    return ProportionalityFlags(rm=rm, lm=lm)


def column_condition_by_pairs(sandwich: np.ndarray) -> bool:
    """``congruence.column_condition`` by its definition: for every pair of
    distinct rows, some column has exactly one nonzero entry of the two."""
    nz = sandwich != 0
    nb = len(nz)
    return all((nz[b1] ^ nz[b2]).any() for b1 in range(nb) for b2 in range(b1 + 1, nb))


def verify_rees_multiplication_over_j(
    s: FiniteSemigroup, g: GreensStructure, rc: ReesCoordinatization
) -> None:
    """``core._verify_rees_multiplication`` on all of J x J rather than Y x J:
    the table against ``rees_law``, a block of rows at a time."""
    elems = rc.triple_to_elem.ravel()
    for lo in range(0, len(elems), 512):
        rows = np.arange(lo, min(lo + 512, len(elems)))
        prods = s.table[np.ix_(elems[rows], elems)]
        law = rees_law(rc.group_mul, rc.sandwich, rows)
        zero = law < 0
        if ((elems[law] != prods) & ~zero).any():
            raise InvariantViolated("Rees law: coordinate product disagrees with the table")
        if (g.jclass_of[prods[zero]] == rc.jclass).any():
            raise InvariantViolated("Rees law: product with zero sandwich entry stayed in J")


def min_degree_pricing_every_class(
    g: GroupTable, normal: tuple[int, ...], lattice: SubgroupLattice, cost: Callable[[int], int]
) -> tuple[int, tuple[int, ...]]:
    """``grouptheory.min_degree_faithful_on`` with every subgroup class priced
    up front and searched, with no index bound and no candidate filter."""
    n_mask = np.zeros(g.order, dtype=bool)
    n_mask[list(normal)] = True
    costs, cores = {}, {}
    for ci, c in enumerate(lattice.classes):
        costs[ci] = cost(ci)
        cores[ci] = np.zeros(g.order, dtype=bool)
        cores[ci][list(c.core)] = True
    return _cheapest_set(costs, cores, n_mask)


def dj_pricing_every_class(
    r: ReesCoordinatization, report: IrreducibilityReport, lattice: SubgroupLattice
) -> DjResult:
    """``mindeg.dj`` with every subgroup class priced up front and searched,
    a trivial M_J included.  Under the column condition (pairwise distinct
    zero patterns of the sandwich rows) a class is priced by the paper's
    formula |B| [G:H] instead of by its tensor quotient, so comparing the two
    tests that formula."""
    row = report.per_class[r.jclass]
    gt = lattice.group
    gpos = {el: i for i, el in enumerate(r.group)}
    mj_pos = tuple(sorted(gpos[el] for el in row.mj))
    if column_condition(r):
        scale = r.b_count
        fast_path = "aggm" if gt.order == 1 else "column_condition"
        costs = [c.index for c in lattice.classes]
    else:
        scale, fast_path = 1, "general_search"
        costs = [tensor_quotient_size(coset_action(gt, c.rep), r) for c in lattice.classes]
    d, wit = min_degree_pricing_every_class(gt, mj_pos, lattice, costs.__getitem__)
    return DjResult(d=scale * d, witness_classes=wit, fast_path=fast_path)


# ---------------------------------------------------------------------------
# Group actions


def group_table(table: np.ndarray | list, validate: bool = True) -> GroupTable:
    """A GroupTable from a multiplication table with the identity at index 0."""
    arr = np.array(table, dtype=np.int32)
    m = arr.shape[0]
    if validate:
        check_associativity(arr, small_generating_set(arr))
        if not (np.array_equal(arr[0], np.arange(m)) and np.array_equal(arr[:, 0], np.arange(m))):
            raise NotSubgroup("identity must sit at index 0")
    inv = np.empty(m, dtype=np.int32)
    for i in range(m):
        hits = np.flatnonzero(arr[i] == 0)
        if len(hits) != 1:
            raise NotSubgroup(f"element {i} has no unique inverse")
        inv[i] = hits[0]
    return GroupTable(table=arr, inv=inv)



def subgroup_classes_by_closures(g: GroupTable) -> SubgroupLattice:
    """``subgroup_classes`` with one ``closure_mask`` per extension: every cyclic
    subgroup is closed on its own, and each queued class H is extended by the
    x's not yet marked, each x closed on its own and its double coset H x H
    then marked by one gather per x."""
    m = g.order
    t = g.table
    seen: set[bytes] = set()
    classes: list[SubgroupClass] = []
    queue: list[tuple[np.ndarray, np.ndarray]] = []

    def register(mask: np.ndarray, gens: np.ndarray) -> None:
        if np.packbits(mask).tobytes() in seen:
            return
        conj = g.conjugate_set(np.flatnonzero(mask), np.arange(m)[:, None])
        conj_masks = np.zeros((m, m), dtype=bool)
        conj_masks[np.arange(m)[:, None], conj] = True
        seen.update(row.tobytes() for row in np.packbits(conj_masks, axis=1))
        least = np.lexsort(conj.T[::-1])[0]
        core = np.flatnonzero(conj_masks.all(axis=0))
        rep = tuple(conj[least].tolist())
        classes.append(SubgroupClass(rep=rep, index=m // len(rep), core=tuple(core.tolist())))
        queue.append((conj_masks[least], t[t[g.inv[least], gens], least]))

    for x in range(m):
        register(closure_mask(t, [x]), np.array([x]))
    for in_h, gens in queue:
        if in_h.all():
            continue
        h = np.flatnonzero(in_h)
        used = in_h.copy()
        for x in range(m):
            if used[x]:
                continue
            gens_hx = np.append(gens, x)
            register(closure_mask(t, gens_hx, base=in_h), gens_hx)
            hx = t[h, x]
            used[t[np.ix_(hx, h)].ravel()] = True
            used[hx] = True
    classes.sort(key=lambda c: (len(c.rep), c.rep))
    return SubgroupLattice(group=g, classes=tuple(classes))


def coset_action_by_points(g: GroupTable, subgroup: tuple[int, ...]) -> GroupAction:
    """Right multiplication on the right cosets Hg, one point (coset) at a time."""
    members = np.asarray(sorted(subgroup), dtype=np.int64)
    _validate_subgroup(g, members)
    keys = g.table[members, :].min(axis=0)
    points = np.unique(keys)
    act = np.empty((len(points), g.order), dtype=np.int32)
    for p, rep in enumerate(points):
        act[p] = np.searchsorted(points, keys[g.table[rep, :]])
    return GroupAction(group=g, npoints=len(points), act=act)


def tensor_pair_classes_by_entries(x: GroupAction, r: ReesCoordinatization) -> np.ndarray:
    """``mindeg.tensor_pair_classes`` filling the signature of the tensor points
    one sandwich entry at a time."""
    c = r.sandwich
    nb, na = c.shape
    sig = np.empty((x.npoints * nb, na), dtype=np.int64)
    for b in range(nb):
        for a in range(na):
            entry = int(c[b, a])
            sig[b::nb, a] = 0 if entry == 0 else x.act[:, entry - 1] + 1
    return _partition_from_keys(sig)[0]


def canonical_rep(g: GroupTable, members: np.ndarray) -> tuple[int, ...]:
    """The least conjugate of a subgroup, as a sorted tuple of positions."""
    return min(tuple(g.conjugate_set(members, x).tolist()) for x in range(g.order))


def orbit_reps(a: GroupAction) -> list[int]:
    seen = np.zeros(a.npoints, dtype=bool)
    reps = []
    for p in range(a.npoints):
        if not seen[p]:
            reps.append(p)
            seen[np.unique(a.act[p])] = True
    return reps


def stabilizer(a: GroupAction, p: int) -> np.ndarray:
    return np.flatnonzero(a.act[p] == p)


def kernel_mask(a: GroupAction) -> np.ndarray:
    return (a.act == np.arange(a.npoints)[:, None]).all(axis=0)


# ---------------------------------------------------------------------------
# Oracle


def compose_pointwise(f: PartialMap, g: PartialMap) -> PartialMap:
    """Apply f, then g, one point at a time; undefined stays undefined."""
    return tuple(-1 if v < 0 else g[v] for v in f)


def least_conjugate_by_all_relabelings(f: PartialMap) -> PartialMap:
    """The least of the maps π f π⁻¹ over all n! permutations π of the points
    (undefined stays undefined), compared as tuples."""
    n = len(f)
    best = f
    for pi in permutations(range(n)):
        inv = [0] * n
        for p, q in enumerate(pi):
            inv[q] = p
        best = min(best, tuple(-1 if f[inv[x]] < 0 else pi[f[inv[x]]] for x in range(n)))
    return best


def close_embedding_from_scratch(
    s: FiniteSemigroup, images: dict[int, PartialMap]
) -> dict[int, PartialMap] | None:
    """The element -> map assignment on the subsemigroup generated by the
    image keys, built by a breadth-first walk from the generators; None when a
    product is forced to two maps or two elements to one map."""
    if not images:
        return None
    gen_items = list(images.items())
    hom: dict[int, PartialMap] = {}
    rev: dict[PartialMap, int] = {}
    queue: list[int] = []
    for el, m in gen_items:
        if m in rev:
            return None
        hom[el] = m
        rev[m] = el
        queue.append(el)
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for ge, gm in gen_items:
            y = s.mul(x, ge)
            my = compose_pointwise(hom[x], gm)
            if y in hom:
                if hom[y] != my:
                    return None
            else:
                if my in rev:
                    return None
                hom[y] = my
                rev[my] = y
                queue.append(y)
    return hom


def monogenic_type_of_map(m: PartialMap) -> tuple[int, int]:
    """(index, period) of the map's powers m, m², ..., by composing until one
    repeats: the exact type that ``oracle.feasible`` decides on a complete map."""
    seen: dict[PartialMap, int] = {}
    cur, k = m, 1
    while cur not in seen:
        seen[cur] = k
        cur = compose_maps(cur, m)
        k += 1
    return seen[cur], k - seen[cur]


def maps_of_type(
    n: int, mode: str, mtype: tuple[int, int], fresh_rule: bool, tick: Callable[[], None]
) -> Iterator[PartialMap]:
    """The maps on n points of monogenic type ``mtype`` = (index, period), in
    lexicographic order with undefined sorting first: the candidate images of
    one generator in ``oracle_search_from_scratch``.

    map[0], map[1], ... are assigned in turn.  With fresh_rule, a value may
    exceed by at most one the largest point index seen so far in the scan
    (positions up to the current one count as seen).  In partial_bijection
    mode no defined value repeats.  ``tick`` is called on every point
    assignment.  A prefix that ``oracle.feasible`` rules out is dropped, and
    every complete map is checked exactly."""
    powers = prime_powers(mtype[1])
    values = ([-1] if mode != "total" else []) + list(range(n))
    cur = [0] * n
    used = [False] * n

    def rec(pos: int, maxseen: int) -> Iterator[PartialMap]:
        if pos == n:
            m = tuple(cur)
            if monogenic_type_of_map(m) == mtype:
                yield m
            return
        ms = max(maxseen, pos)
        for v in values:
            if v >= 0:
                if fresh_rule and v > ms + 1:
                    break
                if mode == "partial_bijection" and used[v]:
                    continue
            tick()
            cur[pos] = v
            if pos + 1 < n and not feasible(cur[: pos + 1], n, mtype, powers):
                continue
            if v >= 0:
                used[v] = True
            yield from rec(pos + 1, max(ms, v))
            if v >= 0:
                used[v] = False

    return rec(0, -1)


def _replay(items: list[PartialMap], source: Iterator[PartialMap]) -> Iterator[PartialMap]:
    """Iterate ``items``, extending it from ``source`` once past its end."""
    k = 0
    while True:
        if k == len(items):
            nxt = next(source, None)
            if nxt is None:
                return
            items.append(nxt)
        yield items[k]
        k += 1


def oracle_search_from_scratch(query: OracleQuery) -> tuple:
    """``brute_min_degree`` by whole generator maps: each generator's
    candidates are the maps of its monogenic type (``maps_of_type``), tried in
    order, and every tried candidate re-closes the images of all assigned
    generators from scratch, and so does every leaf.  Its first solution is
    the least one in the search's order, as is the point-level search's.

    Returns (status, degree, searched_up_to, witness)."""
    s = query.semigroup
    gens = list(query.generators) if query.generators is not None else generating_set(s)
    types = {ge: monogenic_type_of_element(s, ge) for ge in gens}
    gens.sort(key=lambda ge: (-types[ge][1], -types[ge][0], ge))
    budget = _Budget(query.budget_secs if query.budget_secs is not None else DEFAULT_BUDGET_SECS)

    def search(n: int) -> dict[int, PartialMap] | None:
        pulled: dict = {}
        assigned: dict[int, PartialMap] = {}

        def candidates(i: int):
            if i == 0:
                return maps_of_type(n, query.mode, types[gens[0]], True, budget.tick)
            t = types[gens[i]]
            if t not in pulled:
                pulled[t] = ([], maps_of_type(n, query.mode, t, False, budget.tick))
            return _replay(*pulled[t])

        def rec(i: int) -> dict[int, PartialMap] | None:
            if i == len(gens):
                hom = close_embedding_from_scratch(s, assigned)
                if hom is not None and len(hom) == s.size:
                    return dict(assigned)
                return None
            for cand in candidates(i):
                budget.tick()
                assigned[gens[i]] = cand
                if close_embedding_from_scratch(s, assigned) is not None:
                    found = rec(i + 1)
                    if found is not None:
                        return found
                del assigned[gens[i]]
            return None

        return rec(0)

    for n in range(query.min_n, query.max_n + 1):
        try:
            witness = search(n)
        except _Timeout:
            return ("timeout", None, n - 1, None)
        if witness is not None:
            return ("found", n, n, witness)
    return ("not_found", None, query.max_n, None)
