"""Finite semigroups as dense multiplication tables.

Elements are 0-based indices into a size x size table with table[s][t] = st.
Everything downstream (Green's structure, Rees coordinates, actions) is
computed from this one representation and is immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyGeneratorSet,
    IndexOutOfRange,
    InvariantViolated,
    NonAssociative,
    NotRegular,
    SizeLimitExceeded,
)

PartialMap = tuple[int, ...]  # length = degree, entries are points or -1 for undefined

# Largest element count accepted from any input: the dense tables are n x n.
MAX_ELEMENTS = 10_000

# Rows of J per block when the Rees law is checked, so the temporaries stay small.
_REES_CHECK_ROWS = 512


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup given by its full multiplication table."""

    table: np.ndarray
    identity: int | None
    zero: int | None

    @property
    def size(self) -> int:
        return int(self.table.shape[0])

    def mul(self, s: int, t: int) -> int:
        return int(self.table[s, t])

    def elements(self) -> range:
        return range(self.size)

    def idempotents(self) -> list[int]:
        ar = np.arange(self.size)
        return np.flatnonzero(self.table[ar, ar] == ar).tolist()

    def is_idempotent(self, s: int) -> bool:
        return int(self.table[s, s]) == s


def closure_mask(
    table: np.ndarray,
    gens: Iterable[int],
    base: np.ndarray | None = None,
    stop: int | None = None,
) -> np.ndarray:
    """Boolean mask of the products g1 g2 ... gk of elements of ``gens``.

    The search only right-multiplies by generators: each round multiplies the
    elements new in the previous round by every generator, so a closure of K
    elements costs |K| * len(gens) lookups.  On an associative table the
    result is the subsemigroup generated by ``gens``; on a non-associative one
    it is the set of left-normed products ((g1 g2) ...) gk.

    ``base``, if given, must be the closure of the generators in ``gens`` that
    it already holds; the other generators and base times them seed the search.
    With ``stop``, the loop returns as soon as that element is in the mask,
    which may then be incomplete.  Products are deduplicated by marking a
    boolean array: ``np.unique`` would load numpy's hash-based unique on its
    first call in a process, a fixed cost paid by every short CLI run.
    """
    n = table.shape[0]
    gens = np.fromiter(gens, dtype=np.int64)
    mask = np.zeros(n, dtype=bool) if base is None else base.copy()
    new = gens[~mask[gens]]
    hit = np.zeros(n, dtype=bool)
    hit[new] = True
    if base is not None:
        hit[table[np.flatnonzero(base)[:, None], new]] = True
    frontier = np.flatnonzero(hit & ~mask)
    while len(frontier):
        mask[frontier] = True
        if stop is not None and mask[stop]:
            break
        hit[:] = False
        hit[table[frontier[:, None], gens]] = True
        frontier = np.flatnonzero(hit & ~mask)
    return mask


def small_generating_set(table: np.ndarray) -> list[int]:
    """Greedy irredundant generating set of the table's magma, lowest indices first.

    Every element is a product of the result under some bracketing: the first
    pass covers the table by left-normed products, and the second drops a
    generator only when it is a left-normed product of the others.
    """
    n = table.shape[0]
    gens: list[int] = []
    covered = np.zeros(n, dtype=bool)
    for e in range(n):
        if not covered[e]:
            gens.append(e)
            covered = closure_mask(table, gens, base=covered)
    # gens generates everything, so gens minus g still does when g lies in <rest>
    for g in list(gens):
        if len(gens) == 1:
            break
        rest = [x for x in gens if x != g]
        if closure_mask(table, rest, stop=g)[g]:
            gens = rest
    return gens


def check_associativity(table: np.ndarray) -> None:
    """Raise NonAssociative with a witness triple if the table is not associative.

    Uses Light's test over a generating set, which is equivalent to the full
    O(n^3) triple scan but far cheaper when few generators suffice.  It is
    sound on any magma: the elements a with (xa)y = x(ay) for all x, y are
    closed under products, so they are everything once the generators pass.
    """
    gens = small_generating_set(table)
    for a in gens:
        lhs = table[table[:, a], :]  # (x, y) -> (x a) y
        rhs = table[:, table[a, :]]  # (x, y) -> x (a y)
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            raise NonAssociative((int(x), int(a), int(y)))


def _scan_identity_zero(table: np.ndarray) -> tuple[int | None, int | None]:
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


def from_table(table: Sequence[Sequence[int]] | np.ndarray, validate: bool = True) -> FiniteSemigroup:
    """Build a semigroup from a square table of element indices."""
    try:
        arr = np.asarray(table, dtype=np.int64)
    except OverflowError as exc:
        raise IndexOutOfRange(f"table entry is out of range: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise IndexOutOfRange(f"table must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise IndexOutOfRange("table must have at least one element")
    if arr.min() < 0 or arr.max() >= n:
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise IndexOutOfRange(
            f"table entry at ({bad[0]}, {bad[1]}) = {arr[bad[0], bad[1]]} is out of range 0..{n - 1}"
        )
    arr = arr.astype(np.int32)  # in range 0..n-1, so narrowing cannot wrap
    if validate:
        check_associativity(arr)
    identity, zero = _scan_identity_zero(arr)
    arr.setflags(write=False)
    return FiniteSemigroup(table=arr, identity=identity, zero=zero)


def compose_maps(f: PartialMap, g: PartialMap) -> PartialMap:
    """Right-action composition: apply f first, then g."""
    return tuple(-1 if v < 0 else g[v] for v in f)


def normalize_partial_map(m: Sequence[int], degree: int) -> PartialMap:
    t = tuple(int(v) for v in m)
    if len(t) != degree:
        raise IndexOutOfRange(f"partial map has {len(t)} entries, expected {degree}")
    for v in t:
        if v < -1 or v >= degree:
            raise IndexOutOfRange(f"partial map value {v} is out of range for degree {degree}")
    return t


def from_partial_maps(
    degree: int,
    generators: Sequence[Sequence[int]],
    max_size: int = MAX_ELEMENTS,
) -> tuple[FiniteSemigroup, list[PartialMap]]:
    """Close a set of partial maps on {0..degree-1} under composition.

    Returns the generated subsemigroup of PT_degree as a table, together with
    the list mapping each element index to its partial map.  Composition acts
    on the right: the first map is applied first.
    """
    if degree < 1:
        raise IndexOutOfRange("degree must be positive")
    if not generators:
        raise EmptyGeneratorSet("at least one generator map is required")
    gens = [normalize_partial_map(g, degree) for g in generators]

    maps: list[PartialMap] = []
    index: dict[PartialMap, int] = {}
    for g in gens:
        if g not in index:
            index[g] = len(maps)
            maps.append(g)
    gen_maps = list(dict.fromkeys(gens))

    i = 0
    while i < len(maps):
        for g in gen_maps:
            h = compose_maps(maps[i], g)
            if h not in index:
                index[h] = len(maps)
                maps.append(h)
                if len(maps) > max_size:
                    raise SizeLimitExceeded(
                        f"closure exceeded {max_size} elements (raise max_size to override)"
                    )
        i += 1

    n = len(maps)
    table = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(n):
            table[a, b] = index[compose_maps(maps[a], maps[b])]
    # associativity holds by construction (map composition), skip revalidation
    return from_table(table, validate=False), maps


def opposite(s: FiniteSemigroup) -> FiniteSemigroup:
    """The opposite semigroup: table transposed, identity and zero preserved."""
    t = s.table.T.copy()
    t.setflags(write=False)
    return FiniteSemigroup(table=t, identity=s.identity, zero=s.zero)


# ---------------------------------------------------------------------------
# Green's structure


@dataclass(frozen=True)
class GreensStructure:
    """R/L/J/H partitions, the J-class order, regularity flags and idempotents."""

    rclass_of: np.ndarray
    lclass_of: np.ndarray
    jclass_of: np.ndarray
    hclass_of: np.ndarray
    rclasses: tuple[tuple[int, ...], ...]
    lclasses: tuple[tuple[int, ...], ...]
    jclasses: tuple[tuple[int, ...], ...]
    hclasses: tuple[tuple[int, ...], ...]
    jorder_lt: np.ndarray  # jorder_lt[i, j] True iff J_i < J_j strictly
    regular: np.ndarray  # per J-class
    idempotents: tuple[int, ...]

    def regular_jclasses(self) -> list[int]:
        return np.flatnonzero(self.regular).tolist()


def _partition_from_keys(keys: np.ndarray) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Group elements by identical key rows; class ids ordered by lowest member."""
    rows = np.ascontiguousarray(keys[:, None] if keys.ndim == 1 else keys)
    buf, width = rows.tobytes(), rows.shape[1] * rows.itemsize
    ids: dict[bytes, int] = {}
    class_of: list[int] = []
    classes: list[list[int]] = []
    for e in range(len(rows)):
        c = ids.setdefault(buf[e * width : (e + 1) * width], len(ids))
        if c == len(classes):
            classes.append([])
        classes[c].append(e)
        class_of.append(c)
    return np.array(class_of, dtype=np.int64), tuple(tuple(c) for c in classes)


def greens(s: FiniteSemigroup) -> GreensStructure:
    """Compute Green's relations from principal ideal equality."""
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

    rclass_of, rclasses = _partition_from_keys(np.packbits(right, axis=1))
    lclass_of, lclasses = _partition_from_keys(np.packbits(left, axis=1))
    jclass_of, jclasses = _partition_from_keys(np.packbits(two, axis=1))

    hkeys = rclass_of * (lclass_of.max() + 1) + lclass_of
    hclass_of, hclasses = _partition_from_keys(hkeys)

    nj = len(jclasses)
    jideals = np.packbits(two, axis=1)[[c[0] for c in jclasses]]
    jorder_lt = np.zeros((nj, nj), dtype=bool)
    for i in range(nj):
        for j in range(nj):
            if i != j and not np.any(jideals[i] & ~jideals[j]):
                jorder_lt[i, j] = True  # ideal_i proper subset of ideal_j

    idem = np.flatnonzero(t[diag, diag] == diag)
    regular = np.zeros(nj, dtype=bool)
    regular[jclass_of[idem]] = True

    jorder_lt.setflags(write=False)
    regular.setflags(write=False)
    return GreensStructure(
        rclass_of=rclass_of,
        lclass_of=lclass_of,
        jclass_of=jclass_of,
        hclass_of=hclass_of,
        rclasses=rclasses,
        lclasses=lclasses,
        jclasses=jclasses,
        hclasses=hclasses,
        jorder_lt=jorder_lt,
        regular=regular,
        idempotents=tuple(int(e) for e in idem),
    )


# ---------------------------------------------------------------------------
# Rees coordinates of a regular J-class


@dataclass(frozen=True)
class ReesCoordinatization:
    """Coordinates (a, g, b) for a regular J-class with sandwich matrix C: B x A -> G u {0}.

    ``sandwich`` entries are 0 for the zero of the principal factor, otherwise
    1 + (position of the group element in ``group``).  Position 0 of ``group``
    is the chosen idempotent, so sandwich entry 1 means the group identity.
    """

    semigroup: FiniteSemigroup
    jclass: int
    e: int
    group: tuple[int, ...]
    a_count: int
    b_count: int
    sandwich: np.ndarray
    r_reps: tuple[int, ...]  # representatives of R_a inside L_e
    q_reps: tuple[int, ...]  # representatives of L_b inside R_e
    triple_to_elem: np.ndarray  # shape (a_count, |G|, b_count)
    elem_to_triple: dict[int, tuple[int, int, int]]
    group_mul: np.ndarray  # |G| x |G| multiplication in group positions
    group_inv: np.ndarray  # |G| inverse positions
    in_r_e: np.ndarray  # size-n bool mask for the R-class of e

    @property
    def group_order(self) -> int:
        return len(self.group)

    def r_class_of_e(self) -> list[int]:
        """Elements of the R-class of e (sorted)."""
        return sorted(int(x) for x in self.triple_to_elem[0].ravel())


def rees_coordinatize(s: FiniteSemigroup, g: GreensStructure, j: int) -> ReesCoordinatization:
    """Coordinatize a regular J-class as a Rees matrix structure.

    The idempotent e is the lowest-index idempotent of J; A and B are listed
    with the classes of e first and then in lowest-element order, which makes
    the sandwich matrix normalized: C[b0][a0] is the group identity.  The
    coordinates are checked against the table by the Rees multiplication law.
    """
    if not g.regular[j]:
        raise NotRegular(f"J-class {j} contains no idempotent")
    t = s.table
    jelems = list(g.jclasses[j])
    e = min(x for x in g.idempotents if g.jclass_of[x] == j)
    rid = int(g.rclass_of[e])
    lid = int(g.lclass_of[e])

    a_ids = [rid] + sorted({int(g.rclass_of[x]) for x in jelems} - {rid})
    b_ids = [lid] + sorted({int(g.lclass_of[x]) for x in jelems} - {lid})

    def pick(r_class: int, l_class: int) -> int:
        xs = [x for x in jelems if g.rclass_of[x] == r_class and g.lclass_of[x] == l_class]
        if not xs:
            raise NotRegular(f"empty H-class ({r_class}, {l_class}) in regular J-class {j}")
        return min(xs)

    r_reps = [e] + [pick(a, lid) for a in a_ids[1:]]
    q_reps = [e] + [pick(rid, b) for b in b_ids[1:]]

    h_e = sorted(x for x in jelems if g.rclass_of[x] == rid and g.lclass_of[x] == lid)
    group = [e] + [x for x in h_e if x != e]
    m = len(group)
    # gpos[x] = position of x in group (-1 outside it)
    gpos = np.full(s.size, -1, dtype=np.int32)
    gpos[group] = np.arange(m, dtype=np.int32)

    group_mul = gpos[t[np.ix_(group, group)]]
    group_inv = np.argmax(group_mul == 0, axis=1).astype(np.int32)

    nb, na = len(b_ids), len(a_ids)
    prods = t[np.ix_(q_reps, r_reps)]
    sandwich = np.where(g.jclass_of[prods] == j, gpos[prods] + 1, 0).astype(np.int32)
    if not (sandwich.any(axis=0).all() and sandwich.any(axis=1).all()):
        raise NotRegular(f"sandwich matrix of J-class {j} has a zero row or column")
    if sandwich[0, 0] != 1:
        raise InvariantViolated("normalization C[b0][a0] = identity failed")

    # triple_to_elem[a, g, b] = r_a * group[g] * q_b
    triple_to_elem = t[t[np.ix_(r_reps, group)][:, :, None], np.asarray(q_reps)[None, None, :]]
    elem_to_triple = dict(
        zip(triple_to_elem.ravel().tolist(), itertools.product(range(na), range(m), range(nb)))
    )
    if len(elem_to_triple) != len(jelems) or set(elem_to_triple) != set(jelems):
        raise NotRegular(f"Rees coordinates of J-class {j} are not a bijection")

    in_r_e = np.zeros(s.size, dtype=bool)
    in_r_e[triple_to_elem[0].ravel()] = True

    rc = ReesCoordinatization(
        semigroup=s,
        jclass=j,
        e=int(e),
        group=tuple(int(x) for x in group),
        a_count=na,
        b_count=nb,
        sandwich=sandwich,
        r_reps=tuple(int(x) for x in r_reps),
        q_reps=tuple(int(x) for x in q_reps),
        triple_to_elem=triple_to_elem,
        elem_to_triple=elem_to_triple,
        group_mul=group_mul,
        group_inv=group_inv,
        in_r_e=in_r_e,
    )
    _verify_rees_multiplication(s, g, rc)
    return rc


def _verify_rees_multiplication(
    s: FiniteSemigroup, g: GreensStructure, rc: ReesCoordinatization
) -> None:
    """Check the Rees multiplication law against the full table on J x J."""
    t = s.table
    jelems = np.array(sorted(rc.elem_to_triple), dtype=np.int64)
    trip = np.array([rc.elem_to_triple[int(x)] for x in jelems], dtype=np.int64)
    a_arr, g_arr, b_arr = trip[:, 0], trip[:, 1], trip[:, 2]
    for lo in range(0, len(jelems), _REES_CHECK_ROWS):
        rows = slice(lo, lo + _REES_CHECK_ROWS)
        prods = t[np.ix_(jelems[rows], jelems)]
        c = rc.sandwich[b_arr[rows][:, None], a_arr[None, :]]
        nz = c != 0
        if not (g.jclass_of[prods[~nz]] != rc.jclass).all():
            raise InvariantViolated("Rees law: product with zero sandwich entry stayed in J")
        gx = np.broadcast_to(g_arr[rows][:, None], prods.shape)[nz]
        gy = np.broadcast_to(g_arr[None, :], prods.shape)[nz]
        gmid = rc.group_mul[gx, c[nz] - 1]
        gall = rc.group_mul[gmid, gy]
        ax = np.broadcast_to(a_arr[rows][:, None], prods.shape)[nz]
        by = np.broadcast_to(b_arr[None, :], prods.shape)[nz]
        expect = rc.triple_to_elem[ax, gall, by]
        if not np.array_equal(expect, prods[nz]):
            raise InvariantViolated("Rees law: coordinate product disagrees with the table")
