"""Finite semigroups as dense multiplication tables.

Elements are 0-based indices into a size x size table with table[s][t] = st.
Everything downstream (Green's structure, Rees coordinates, actions) is
computed from this one representation and is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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

# Rows per block when a whole table is scanned, so the temporaries stay small.
_BLOCK_ROWS = 512

# Entries per block of Light's test and of the Rees check: Light's two int32
# gathers and their comparison then take about 300 KB; B_3 has 8 blocks.
_LIGHT_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup given by its full multiplication table.

    ``gens``, if given, is a generating set of the table; ``generators()``
    otherwise computes one with ``small_generating_set`` and keeps it.
    """

    table: np.ndarray
    identity: int | None
    zero: int | None
    gens: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return int(self.table.shape[0])

    def mul(self, s: int, t: int) -> int:
        return int(self.table[s, t])

    def is_idempotent(self, s: int) -> bool:
        return int(self.table[s, s]) == s

    def generators(self) -> tuple[int, ...]:
        """A generating set of the semigroup, computed at most once."""
        if self.gens is None:
            object.__setattr__(self, "gens", tuple(small_generating_set(self.table)))
        return self.gens


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
        hit[table[base.nonzero()[0][:, None], new]] = True
    frontier = (hit > mask).nonzero()[0]  # hit and not yet in mask
    while len(frontier):
        mask[frontier] = True
        if stop is not None and mask[stop]:
            break
        hit[:] = False
        hit[table[frontier[:, None], gens]] = True
        frontier = (hit > mask).nonzero()[0]
    return mask


def small_generating_set(table: np.ndarray) -> list[int]:
    """Greedy irredundant generating set of the table's magma, lowest indices first.

    Every element is a product of the result under some bracketing: the first
    pass covers the table by left-normed products, and the second drops a
    generator only when it is a left-normed product of the others.
    """
    n = table.shape[0]
    gens = _greedy_generators(table, np.zeros(n, dtype=bool))
    # The second pass, in order, drops g_i when it lies in the closure of the
    # generators kept so far and all later ones, which holds <g_{i+1}, ...>.
    # So the suffix closures, grown from the end, settle every g_i inside its
    # suffix, and they are the whole test while nothing earlier is kept.
    # For j >= 1, x lies in <g_j, ...> iff j <= reach[x].
    reach = np.full(n, -1)
    suffix = np.zeros(n, dtype=bool)
    for i in range(len(gens) - 1, 0, -1):
        g = gens[i]
        if not suffix[g]:
            suffix = closure_mask(table, gens[i:], base=suffix)
        elif not suffix[table[suffix, g]].all():  # not closed under g: only in a magma
            suffix = closure_mask(table, gens[i:])
        reach[suffix & (reach < 0)] = i
    kept: list[int] = []
    for i, g in enumerate(gens):
        if reach[g] > i:
            continue
        # reach > i is <later>, and no kept generator lies in it, so it is a
        # valid base for the closure of later + kept
        later = gens[i + 1 :]
        if kept and closure_mask(table, later + kept, base=reach > i, stop=g)[g]:
            continue
        kept.append(g)
    return kept


def _greedy_generators(table: np.ndarray, covered: np.ndarray) -> list[int]:
    """Each lowest element outside ``covered`` and the closure of the elements
    picked before it.  ``covered`` is empty, or a group's identity alone."""
    gens: list[int] = []
    for e in range(table.shape[0]):
        if not covered[e]:
            gens.append(e)
            covered = closure_mask(table, gens, base=covered)
    return gens


def _light_block_rows(n: int) -> int:
    """Rows per block of n columns in Light's test and the Rees check."""
    return max(1, _LIGHT_BLOCK_ENTRIES // n)


def check_associativity(table: np.ndarray, gens: Sequence[int]) -> None:
    """Raise NonAssociative with a witness triple if the table is not associative.

    Uses Light's test over ``gens``, a generating set of the table's magma
    such as ``small_generating_set`` gives, which is equivalent to the full
    O(n^3) triple scan but far cheaper when few generators suffice.  It is
    sound on any magma: the elements a with (xa)y = x(ay) for all x, y are
    closed under products, so they are everything once the generators pass.
    Each generator's test runs over blocks of rows in ascending order, so the
    witness is the first failing (x, y) in row-major order of the first
    failing generator, and the temporaries stay O(block * n).
    """
    n = table.shape[0]
    rows = _light_block_rows(n)
    for a in gens:
        col_a, row_a = table[:, a], table[a]
        for lo in range(0, n, rows):
            lhs = table[col_a[lo : lo + rows]]  # (x, y) -> (x a) y
            rhs = np.take(table[lo : lo + rows], row_a, axis=1)  # (x, y) -> x (a y)
            differ = lhs != rhs
            if differ.any():
                x, y = np.argwhere(differ)[0]
                raise NonAssociative((lo + int(x), int(a), int(y)))


def _scan_identity_zero(table: np.ndarray) -> tuple[int | None, int | None]:
    """The identity and the zero of the table, or None.

    In any magma a left identity e equals every right identity f (ef is both),
    and a right zero z every left zero y (yz is both).  So one comparison of each
    entry with its column index finds the left identities (rows 0..n-1) and
    the right zeros (constant columns); the first of each is then the identity
    or the zero iff its column or row passes too.  Blocks of rows keep the
    temporaries small.
    """
    n = table.shape[0]
    ar = np.arange(n)
    left_identity = np.empty(n, dtype=bool)
    right_zero = np.ones(n, dtype=bool)
    for lo in range(0, n, _BLOCK_ROWS):
        by_col = table[lo : lo + _BLOCK_ROWS] == ar  # t[x, y] == y
        left_identity[lo : lo + len(by_col)] = by_col.all(axis=1)
        right_zero &= by_col.all(axis=0)
    identity = zero = None
    if left_identity.any():
        e = int(np.argmax(left_identity))
        identity = e if np.array_equal(table[:, e], ar) else None
    if right_zero.any():
        z = int(np.argmax(right_zero))
        zero = z if (table[z] == z).all() else None
    return identity, zero


def _check_table(arr: np.ndarray) -> None:
    """Raise IndexOutOfRange unless ``arr`` is a non-empty square table of
    entries 0..n-1."""
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


def _adopt_table(arr: np.ndarray, validate: bool = True) -> FiniteSemigroup:
    """Build a semigroup on ``arr``, a C-order int32 table that the caller made
    and hands over: no copy is made, and ``arr`` becomes read-only.

    The table is range-checked, validated (unless ``validate`` is False) and
    scanned for its identity and zero.  The generating set that validation
    finds is kept on the semigroup."""
    _check_table(arr)
    gens = None
    if validate:
        gens = tuple(small_generating_set(arr))
        check_associativity(arr, gens)
    identity, zero = _scan_identity_zero(arr)
    arr.setflags(write=False)
    return FiniteSemigroup(table=arr, identity=identity, zero=zero, gens=gens)


def from_table(table: Sequence[Sequence[int]] | np.ndarray, validate: bool = True) -> FiniteSemigroup:
    """Build a semigroup from a square table of element indices.

    The semigroup holds its own read-only int32 copy of the table.  An integer
    array is range-checked in its own dtype, so it is copied only once.  The
    generating set that validation finds is kept on the semigroup."""
    if isinstance(table, np.ndarray) and table.dtype.kind in "iu":
        arr = table
    else:
        try:
            arr = np.asarray(table, dtype=np.int64)
        except OverflowError as exc:
            raise IndexOutOfRange(f"table entry is out of range: {exc}") from None
    _check_table(arr)  # in its own dtype: narrowing would wrap 2**32 to 0
    return _adopt_table(arr.astype(np.int32, order="C"), validate)


def compose_maps(f: PartialMap, g: PartialMap) -> PartialMap:
    """Right-action composition: apply f first, then g."""
    return tuple(map((g + (-1,)).__getitem__, f))  # the appended -1 keeps undefined undefined


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

    gen_maps = list(dict.fromkeys(gens))  # element i is generator i
    k = len(gen_maps)
    maps: list[PartialMap] = list(gen_maps)
    index = {h: i for i, h in enumerate(maps)}
    right: list[list[int]] = []  # right[x][i] = x * generator i
    derivation: list[tuple[int, int]] = []  # element b >= k first found as x * generator i

    for x, f in enumerate(maps):  # maps grows while it is walked
        row = []
        for i, g in enumerate(gen_maps):
            h = compose_maps(f, g)
            if h not in index:
                if len(maps) >= max_size:
                    raise SizeLimitExceeded(
                        f"closure of the generators exceeds the limit of {max_size} elements"
                    )
                index[h] = len(maps)
                maps.append(h)
                derivation.append((x, i))
            row.append(index[h])
        right.append(row)

    # One C-order table, filled in closure order from entries already filled.
    # The generators' rows first, a column at a time: for y = x * generator i,
    # generator j * y = (generator j * x) * generator i, and x < y.  Then row
    # b = x * generator i is row x read at row i: b y = x (generator i * y).
    n = len(maps)
    right_arr = np.array(right, dtype=np.int32)  # right_arr[x, i] = x * generator i
    table = np.empty((n, n), dtype=np.int32)
    table[:k, :k] = right_arr[:k]
    for y, (x, i) in enumerate(derivation, start=k):
        table[:k, y] = right_arr[table[:k, x], i]
    for b, (x, i) in enumerate(derivation, start=k):
        table[b] = table[x][table[i]]
    # associativity holds by construction (map composition), skip revalidation;
    # elements 0..k-1 are the generators
    return replace(_adopt_table(table, validate=False), gens=tuple(range(k))), maps


def opposite(s: FiniteSemigroup) -> FiniteSemigroup:
    """The opposite semigroup: its table a transposed view of the read-only
    table of s, not a copy; identity, zero and a known generating set preserved."""
    return FiniteSemigroup(table=s.table.T, identity=s.identity, zero=s.zero, gens=s.gens)


# ---------------------------------------------------------------------------
# Green's structure


@dataclass(frozen=True)
class GreensStructure:
    """R/L/J/H partitions, the J-class order, regularity flags, idempotents and
    the data of each regular J-class: the one Green's analysis of a semigroup.

    Each partition is an array of class ids, numbered by lowest member.
    ``regular_classes[j]`` is, for a regular J-class j, the
    ``schutzenberger_reps`` triple (e, r_reps, q_reps), then H_e and then the
    members of j, both ascending."""

    rclass_of: np.ndarray
    lclass_of: np.ndarray
    jclass_of: np.ndarray
    hclass_of: np.ndarray
    jorder_lt: np.ndarray  # jorder_lt[i, j] True iff J_i < J_j strictly
    regular: np.ndarray  # per J-class
    idempotents: tuple[int, ...]
    regular_classes: dict[int, tuple]

    def regular_jclasses(self) -> list[int]:
        return np.flatnonzero(self.regular).tolist()


def _partition_from_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group elements by identical key rows: the class id of each row, ids
    numbered by lowest member, and ``first``, the lowest member of each class."""
    rows = np.ascontiguousarray(keys[:, None] if keys.ndim == 1 else keys)
    n, width = len(rows), rows.shape[1] * rows.itemsize
    if width == 0:  # all rows equal, and "V0" is not a valid view
        return np.zeros(n, dtype=np.int64), np.zeros(min(n, 1), dtype=np.int64)
    ids: dict[bytes, int] = {}
    row_bytes = rows.view(f"V{width}").ravel().tolist()  # each row read once, as one value
    class_of = np.array([ids.setdefault(k, len(ids)) for k in row_bytes], dtype=np.int64)
    # the running maximum of the ids first reaches c at the lowest member of c
    first = np.searchsorted(np.maximum.accumulate(class_of), np.arange(len(ids)))
    return class_of, first


def class_members(class_of: np.ndarray) -> list[list[int]]:
    """The ascending members of each class of a partition, by class id."""
    out: list[list[int]] = [[] for _ in range(int(class_of.max()) + 1)]
    for x, c in enumerate(class_of.tolist()):
        out[c].append(x)
    return out


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Component of each vertex of the graph v -> succ[v], by an iterative Tarjan.

    Components are numbered in the order they complete, so an edge between
    two components always leads to the lower number (sinks first).
    """
    n = len(succ)
    index = [0] * n  # discovery number from 1; 0 = not reached yet
    low = [0] * n
    comp = [-1] * n  # -1 until the vertex's component completes
    stack: list[int] = []
    count = ncomp = 0
    for root in range(n):
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if not index[w]:
                    count += 1
                    index[w] = low[w] = count
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w is still on the stack
                    low[v] = index[w]
            else:
                path.pop()
                if low[v] == index[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        comp[w] = ncomp
                    ncomp += 1
                elif low[v] < low[path[-1][0]]:  # v is not the root, so path is not empty
                    low[path[-1][0]] = low[v]
    return comp


def greens(s: FiniteSemigroup) -> GreensStructure:
    """Green's relations from the Cayley graphs over one generating set.

    x S^1 is what x reaches by right multiplications by generators, so the
    R-classes are the strongly connected components of the right Cayley graph
    x -> x g; the L-classes and J-classes are those of the left graph x -> g x
    and of the union of both.  J_i < J_j iff J_i is reachable from J_j.  Time
    and memory are O(n k) for n elements and k generators, and no n x n array
    is built.
    """
    t = s.table
    n = s.size
    gens = list(s.generators())
    right = t[:, gens]
    left = t[gens].T
    both = np.concatenate((right, left), axis=1)
    rcomp, lcomp, jcomp = (np.array(_strong_components(a.tolist())) for a in (right, left, both))
    rclass_of, _ = _partition_from_keys(rcomp)
    lclass_of, _ = _partition_from_keys(lcomp)
    jclass_of, jfirst = _partition_from_keys(jcomp)

    hkeys = rclass_of * (lclass_of.max() + 1) + lclass_of
    hclass_of, _ = _partition_from_keys(hkeys)

    # below[c]: bitset of the components strictly below component c.  Every
    # edge between components leads to a lower number, so one ascending pass
    # over the condensed edges completes each below[c] before it is read.
    nj = len(jfirst)
    edge = np.zeros((nj, nj), dtype=bool)
    edge[jcomp[:, None], jcomp[both]] = True
    np.fill_diagonal(edge, False)
    below = [0] * nj
    for c, d in zip(*(a.tolist() for a in np.nonzero(edge))):  # c ascending
        below[c] |= below[d] | 1 << d
    width = (nj + 7) // 8
    bits = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in below), dtype=np.uint8)
    reach = np.unpackbits(bits.reshape(nj, width), axis=1, count=nj, bitorder="little").view(bool)
    comp_of_j = jcomp[jfirst]
    jorder_lt = reach.T[comp_of_j[:, None], comp_of_j]  # J_i < J_j iff comp(J_i) is below comp(J_j)

    diag = np.arange(n)
    idem = np.flatnonzero(t[diag, diag] == diag)
    regular = np.zeros(nj, dtype=bool)
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


def _regular_classes(
    jclass_of: np.ndarray, rclass_of: np.ndarray, lclass_of: np.ndarray, idempotents: Sequence[int]
) -> dict[int, tuple]:
    """Per regular J-class: the ``schutzenberger_reps`` triple, H_e and J, both
    ascending.  Found for every class in one pass over the elements."""
    js, rs, ls = (a.tolist() for a in (jclass_of, rclass_of, lclass_of))
    own: dict[int, tuple[int, int, int]] = {}  # regular J-class -> e, its R- and L-class
    for e in idempotents:  # ascending
        own.setdefault(js[e], (e, rs[e], ls[e]))
    found = {j: ([], [], [e], [e]) for j, (e, _, _) in own.items()}  # J, H_e, r_a, q_b
    lowest: dict[tuple[int, int], int] = {}  # (0, R-class) in L_e, (1, L-class) in R_e
    for x, (j, rx, lx) in enumerate(zip(js, rs, ls)):
        if j in own:
            _, own_r, own_l = own[j]
            found[j][0].append(x)
            if lx == own_l and rx == own_r:
                found[j][1].append(x)
            elif lx == own_l or rx == own_r:
                lowest.setdefault((0, rx) if lx == own_l else (1, lx), x)
    for (side, _), x in sorted(lowest.items()):  # the classes of e first, then by id
        found[js[x]][2 + side].append(x)
    out = {}
    for j, (members, group, r_list, q_list) in found.items():
        if len(r_list) * len(q_list) * len(group) != len(members):
            raise NotRegular(f"regular J-class {j} has an empty H-class")
        both = np.array(r_list + q_list)
        both.setflags(write=False)
        out[j] = (r_list[0], both[: len(r_list)], both[len(r_list) :]), group, members
    return out


# ---------------------------------------------------------------------------
# Rees coordinates of a regular J-class


def min_idempotent_of(g: GreensStructure, j: int) -> int:
    """e_J, the lowest-index idempotent of J-class j."""
    return schutzenberger_reps(g, j)[0]


def rees_law(group_mul: np.ndarray, sandwich: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Products in M0(G, A, B, C) of the triples ``rows`` by every triple.

    Triple (a, g, b) has the flat index (a |G| + g) B + b, and ``sandwich`` is
    B x A with 0 for the zero and k >= 1 for the group element at position
    k - 1.  Row i holds (a, g, b)(a2, g2, b2) = (a, g C[b, a2] g2, b2) as a
    flat index for every flat (a2, g2, b2), or -1 where C[b, a2] = 0.
    """
    nb, na = sandwich.shape
    m = group_mul.shape[0]
    a, g, b = (v.astype(np.int32) for v in np.unravel_index(rows, (na, m, nb)))
    c = sandwich[b]  # (rows, A): C[b, a2]
    gc = group_mul[g[:, None], c - 1]  # g C[b, a2], meaningless where c == 0
    left = (a[:, None, None] * m + group_mul[gc]) * nb  # (rows, A, |G|): a and g C[b, a2] g2
    prods = left[..., None] + np.arange(nb, dtype=np.int32)  # (rows, A, |G|, B)
    prods[c == 0] = -1
    return prods.reshape(len(rows), -1)


@dataclass(frozen=True)
class ReesCoordinatization:
    """Coordinates (a, g, b) for a regular J-class with sandwich matrix C: B x A -> G u {0}.

    ``triple_to_elem[a, g, b]`` is r_a * group[g] * q_b, where r_a is the
    lowest element of the a-th H-class in the L-class of e and q_b that of the
    b-th H-class in the R-class of e (r_0 = q_0 = e).  So r_a and q_b are
    ``triple_to_elem[a, 0, 0]`` and ``triple_to_elem[0, 0, b]``, and the
    R-class of e is ``triple_to_elem[0]``.  ``sandwich`` entries are 0 for the
    zero of the principal factor, otherwise 1 + (position of the group element
    in ``group``).  Position 0 of ``group`` is e, so sandwich entry 1 means the
    group identity.
    """

    semigroup: FiniteSemigroup
    jclass: int
    e: int
    group: tuple[int, ...]
    sandwich: np.ndarray
    triple_to_elem: np.ndarray  # shape (a_count, |G|, b_count)
    group_mul: np.ndarray  # |G| x |G| multiplication in group positions
    group_inv: np.ndarray  # |G| inverse positions

    @property
    def a_count(self) -> int:
        return self.triple_to_elem.shape[0]

    @property
    def group_order(self) -> int:
        return self.triple_to_elem.shape[1]

    @property
    def b_count(self) -> int:
        return self.triple_to_elem.shape[2]


def schutzenberger_reps(g: GreensStructure, j: int) -> tuple[int, np.ndarray, np.ndarray]:
    """e = e_J and the H-class representatives r_a in L_e and q_b in R_e.

    ``r_reps[a]`` is the lowest element of L_e in the a-th R-class of J and
    ``q_reps[b]`` the lowest element of R_e in the b-th L-class of J.  The
    classes of e come first with r_0 = q_0 = e; the others follow in class-id
    order.  Every x in J is r_a h q_b for exactly one (a, h, b) with h in H_e.
    Read from ``g.regular_classes``, which ``greens`` fills.
    """
    if not g.regular[j]:
        raise NotRegular(f"J-class {j} contains no idempotent")
    return g.regular_classes[j][0]


def rees_coordinatize(s: FiniteSemigroup, g: GreensStructure, j: int) -> ReesCoordinatization:
    """Coordinatize a regular J-class as a Rees matrix structure.

    The idempotent e and the representatives r_a, q_b are those of
    ``schutzenberger_reps``, which lists A and B with the classes of e first;
    this makes the sandwich matrix normalized: C[b0][a0] is the group identity.
    The coordinates are checked against the table by the Rees multiplication law.
    """
    t = s.table
    e, r_reps, q_reps = schutzenberger_reps(g, j)
    _, h_e, members = g.regular_classes[j]
    group = np.array([e] + [x for x in h_e if x != e])
    m = len(group)
    # gpos[x] = position of x in group (-1 outside it)
    gpos = np.full(s.size, -1, dtype=np.int32)
    gpos[group] = np.arange(m, dtype=np.int32)

    group_mul = gpos[t[group[:, None], group]]
    group_inv = np.argmax(group_mul == 0, axis=1).astype(np.int32)

    prods = t[q_reps[:, None], r_reps]
    sandwich = np.where(g.jclass_of[prods] == j, gpos[prods] + 1, 0).astype(np.int32)
    if not (sandwich.any(axis=0).all() and sandwich.any(axis=1).all()):
        raise NotRegular(f"sandwich matrix of J-class {j} has a zero row or column")
    if sandwich[0, 0] != 1:
        raise InvariantViolated("normalization C[b0][a0] = identity failed")

    triple_to_elem = t[t[r_reps[:, None], group][:, :, None], q_reps]
    if not np.array_equal(np.sort(triple_to_elem, axis=None), members):
        raise NotRegular(f"Rees coordinates of J-class {j} are not a bijection")

    rc = ReesCoordinatization(
        semigroup=s,
        jclass=j,
        e=e,
        group=tuple(group.tolist()),
        sandwich=sandwich,
        triple_to_elem=triple_to_elem,
        group_mul=group_mul,
        group_inv=group_inv,
    )
    _verify_rees_multiplication(s, g, rc)
    return rc


def _verify_rees_multiplication(
    s: FiniteSemigroup, g: GreensStructure, rc: ReesCoordinatization
) -> None:
    """Check the table against the Rees law on Y x J, a block of rows of Y at a time.

    Y is the r_a, the q_b and a greedy generating set of H_e, and psi maps J
    to its coordinates in M0(G, A, B, C) and products that leave J to 0.  The
    check gives psi(y z) = psi(y) psi(z) for y in Y and z in J, and that is
    the law on J x J.  As C[0][0] is the identity, each x = (a, h_1 ... h_k, b)
    in J is the right-normed word r_a (h_1 (... (h_k q_b))) over Y, with q_0 =
    e = r_0, whose suffix products stay in J and follow the law.  For z in J,
    associativity gives x z = y_1 (... (y_k z)); by induction each step is a
    Y x J product, or multiplies a product that has left J and stays out,
    being J-below it.  So psi(x z) = psi(y_1) ... psi(y_k) psi(z) = psi(x)
    psi(z), as M0 is associative.  The table's associativity is proved by
    Light's test when it is loaded, or guaranteed by the builder that made it.
    """
    nb = rc.b_count
    m = rc.group_order
    hgens = _greedy_generators(rc.group_mul, np.arange(m) == 0)  # H_e's identity is in Y as e
    # Y as flat triples (a |G| + h) B + b: r_a = (a, 0, 0), then q_b = (0, 0, b)
    # for b >= 1, then (0, h, 0) for the generators h
    ys = np.array(
        [a * m * nb for a in range(rc.a_count)] + list(range(1, nb)) + [h * nb for h in hgens]
    )
    elems = rc.triple_to_elem.ravel()
    rows = _light_block_rows(len(elems))
    for lo in range(0, len(ys), rows):
        block = ys[lo : lo + rows]
        law = rees_law(rc.group_mul, rc.sandwich, block)
        prods = s.table[elems[block]][:, elems]
        zero = law < 0
        if ((elems[law] != prods) & ~zero).any():
            raise InvariantViolated("Rees law: coordinate product disagrees with the table")
        if (g.jclass_of[prods[zero]] == rc.jclass).any():
            raise InvariantViolated("Rees law: product with zero sandwich entry stayed in J")
