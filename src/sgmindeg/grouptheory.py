"""Subgroup machinery for maximal subgroups extracted from Rees coordinates.

Groups are abstract multiplication tables over positions 0..m-1 with the
identity at position 0.  No permutation-group algorithms are used; sizes in
scope are small (S_6 with 56 subgroup classes is the intended ceiling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ReesCoordinatization, check_associativity
from .errors import GroupTooLarge, InvariantViolated, NotSubgroup

SUBGROUP_ENUM_CAP = 720


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a multiplication table with identity at index 0."""

    table: np.ndarray
    inv: np.ndarray

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    @staticmethod
    def from_table(table: np.ndarray | list, validate: bool = True) -> "GroupTable":
        arr = np.array(table, dtype=np.int32)
        m = arr.shape[0]
        if validate:
            check_associativity(arr)
            if not (np.array_equal(arr[0], np.arange(m)) and np.array_equal(arr[:, 0], np.arange(m))):
                raise NotSubgroup("identity must sit at index 0")
        inv = np.empty(m, dtype=np.int32)
        for i in range(m):
            hits = np.flatnonzero(arr[i] == 0)
            if len(hits) != 1:
                raise NotSubgroup(f"element {i} has no unique inverse")
            inv[i] = hits[0]
        return GroupTable(table=arr, inv=inv)

    @staticmethod
    def of_rees(r: ReesCoordinatization) -> "GroupTable":
        return GroupTable(table=r.group_mul, inv=r.group_inv)

    def conjugate_set(self, members: np.ndarray, x: int | np.ndarray) -> np.ndarray:
        """x^-1 H x as a sorted array of positions; a column of x gives one row per x."""
        return np.sort(self.table[self.table[self.inv[x], members], x])


@dataclass(frozen=True)
class SubgroupClass:
    rep: tuple[int, ...]  # canonical representative, sorted positions
    index: int  # [G : H]
    core: tuple[int, ...]  # largest normal subgroup of G inside H


@dataclass(frozen=True)
class SubgroupLattice:
    group: GroupTable
    classes: tuple[SubgroupClass, ...]  # sorted by (order, canonical tuple)


def subgroup_classes(g: GroupTable) -> SubgroupLattice:
    """All subgroups up to conjugacy, by one-element extension from the trivial group.

    Every subgroup arises from a chain of single-generator extensions starting
    at the trivial group, whose extensions are the cyclic subgroups, and
    extending a class representative H by one element x of each double coset
    H x H covers all extensions of the class up to conjugacy.  A queued class
    costs a few numpy calls, not one closure per x: the x's are the least
    elements of their double cosets, found by two gathers, and all <H, x> are
    closed together (``_close_extensions``).  Every conjugate of a class is
    registered as a packed bitmask, so meeting any member of a known class
    again costs one set lookup, and only the masks not seen yet are registered.
    """
    m = g.order
    if m > SUBGROUP_ENUM_CAP:
        raise GroupTooLarge(f"group order {m} exceeds cap {SUBGROUP_ENUM_CAP}")
    t = g.table
    ident = np.arange(m)
    back = t[:, g.inv].T  # mask[back[y]] is the mask of the set times y

    seen: set[bytes] = set()
    classes: list[SubgroupClass] = []
    queue: list[tuple[np.ndarray, np.ndarray]] = []  # class representatives: mask, generators

    def register(mask: np.ndarray, gens: np.ndarray) -> None:
        conj = g.conjugate_set(np.flatnonzero(mask), ident[:, None])
        conj_masks = np.zeros((m, m), dtype=bool)
        conj_masks[ident[:, None], conj] = True
        seen.update(row.tobytes() for row in np.packbits(conj_masks, axis=1))
        least = np.lexsort(conj.T[::-1])[0]
        core = np.flatnonzero(conj_masks.all(axis=0))  # intersection of all conjugates
        rep = tuple(conj[least].tolist())
        classes.append(SubgroupClass(rep=rep, index=m // len(rep), core=tuple(core.tolist())))
        queue.append((conj_masks[least], t[t[g.inv[least], gens], least]))  # least^-1 gens least

    register(ident == 0, np.empty(0, dtype=np.int64))  # the trivial group, no generators
    for in_h, gens in queue:  # register() appends to the queue while it is walked
        h = np.flatnonzero(in_h)
        coset_min = t[h].min(axis=0)  # y -> least element of H y
        double_min = coset_min[t[:, h]].min(axis=1)  # x -> least element of H x H
        xs = np.flatnonzero((double_min == ident) & ~in_h)
        if not len(xs):
            continue
        masks = _close_extensions(back, in_h, gens, xs)
        for x, mask, key in zip(xs.tolist(), masks, np.packbits(masks, axis=1)):
            if key.tobytes() not in seen:
                register(mask, np.append(gens, x))

    classes.sort(key=lambda c: (len(c.rep), c.rep))
    return SubgroupLattice(group=g, classes=tuple(classes))


def _close_extensions(
    back: np.ndarray, in_h: np.ndarray, gens: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Row r is the mask of <H, xs[r]>, for the subgroup H = ``in_h`` generated by ``gens``.

    Right multiplication by y permutes a mask's columns by ``back[y]``, so one
    round extends every row at once, as ``core.closure_mask(base=H)`` does one:
    the elements new in the last round times H's generators and times the
    row's x.  The first round's new elements are the coset H x.  A row whose
    last round found nothing new is closed; the closed rows drop out of the
    batch once they are at least half of it, so the batch shrinks geometrically
    and is compacted only a logarithmic number of times.
    """
    by_x = back[xs]
    by_h = back[gens]
    front = in_h[by_x]  # H x, disjoint from H
    out = mask = front | in_h  # mask is out itself until the batch is first compacted
    rows = np.arange(len(xs))  # the row of ``out`` of each batch row
    at = np.arange(len(xs))[:, None]  # the position of each batch row
    while True:
        open_rows = front.any(axis=1)
        live = np.count_nonzero(open_rows)
        if 2 * live <= len(rows):
            if mask is not out:
                out[rows] = mask
            if not live:
                return out
            rows, front, mask, by_x = rows[open_rows], front[open_rows], mask[open_rows], by_x[open_rows]
            at = at[:live]
        hit = front[at, by_x] | front[:, by_h].any(axis=1)
        front = hit & ~mask
        mask |= front


# ---------------------------------------------------------------------------
# Coset actions


@dataclass(frozen=True)
class GroupAction:
    """A total right action of a group on points 0..npoints-1."""

    group: GroupTable
    npoints: int
    act: np.ndarray  # npoints x |G|


def _validate_subgroup(g: GroupTable, members: np.ndarray) -> None:
    mask = np.zeros(g.order, dtype=bool)
    mask[members] = True
    if not mask[0]:
        raise NotSubgroup("subset does not contain the identity")
    if not mask[g.table[np.ix_(members, members)]].all():
        raise NotSubgroup("subset is not closed under multiplication")
    if not mask[g.inv[members]].all():
        raise NotSubgroup("subset is not closed under inversion")


def coset_action(g: GroupTable, subgroup: tuple[int, ...] | np.ndarray) -> GroupAction:
    """Right multiplication on the right cosets Hg; the kernel is the core of H."""
    members = np.asarray(sorted(int(x) for x in subgroup), dtype=np.int64)
    _validate_subgroup(g, members)
    keys = g.table[members, :].min(axis=0)  # g -> min element of Hg
    least = keys == np.arange(g.order)  # the points: each coset's least element
    points = np.flatnonzero(least)
    rank = (np.cumsum(least) - 1).astype(np.int32)  # a point -> its position in points
    act = rank[keys[g.table[points, :]]]
    return GroupAction(group=g, npoints=len(points), act=act)


def coproduct_group_actions(actions: list[GroupAction]) -> GroupAction:
    if not actions:
        raise ValueError("need at least one action")
    grp = actions[0].group
    offs = 0
    rows = []
    for a in actions:
        rows.append(a.act + offs)
        offs += a.npoints
    return GroupAction(group=grp, npoints=offs, act=np.concatenate(rows, axis=0))


# ---------------------------------------------------------------------------
# Minimal degree of a permutation representation faithful on a normal subgroup


def min_degree_faithful_on(
    g: GroupTable,
    normal: tuple[int, ...] | np.ndarray,
    lattice: SubgroupLattice,
    cost: Callable[[int], int] | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Minimize the summed cost over sets of pairwise non-conjugate subgroup
    classes whose cores intersect the given normal subgroup trivially.

    ``cost`` maps a class position in the lattice to a positive cost; the
    default is the index [G:H].  It is called only for classes whose core does
    not contain the normal subgroup.  Returns (cost, class positions in the
    lattice).  A trivial normal subgroup gives cost 0 with the empty witness;
    callers decide whether an empty collection is admissible.
    """
    if cost is None:
        cost = lambda ci: lattice.classes[ci].index
    m = g.order
    n_mask = np.zeros(m, dtype=bool)
    n_mask[np.asarray(list(normal), dtype=np.int64)] = True
    if not n_mask[0]:
        raise NotSubgroup("normal subgroup must contain the identity")
    members = np.flatnonzero(n_mask)
    xs = np.arange(m)[:, None]
    if not n_mask[g.table[g.table[g.inv[xs], members], xs]].all():  # x^-1 N x <= N for all x
        raise NotSubgroup("subgroup is not normal")
    if n_mask.sum() == 1:
        return 0, ()

    costs = []
    cores = []
    ids = []
    for ci, cl in enumerate(lattice.classes):
        core_mask = np.zeros(m, dtype=bool)
        core_mask[np.asarray(cl.core, dtype=np.int64)] = True
        if (core_mask & n_mask).sum() == n_mask.sum():
            continue  # core contains N: can never shrink the residual
        costs.append(cost(ci))
        cores.append(core_mask)
        ids.append(ci)
    order = sorted(range(len(ids)), key=lambda i: (costs[i], ids[i]))
    costs = [costs[i] for i in order]
    cores = [cores[i] for i in order]
    ids = [ids[i] for i in order]

    k = len(ids)
    suffix = [None] * (k + 1)
    suffix[k] = np.ones(m, dtype=bool)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] & cores[i]

    best_cost = [sum(costs) + 1]
    best_set: list[tuple[int, ...] | None] = [None]

    def rec(i: int, residual: np.ndarray, spent: int, chosen: tuple[int, ...]) -> None:
        if residual.sum() == 1:
            if spent < best_cost[0]:
                best_cost[0] = spent
                best_set[0] = chosen
            return
        if i == k:
            return
        if spent + costs[i] >= best_cost[0]:
            return  # at least one more class is needed; costs are sorted
        if (residual & suffix[i]).sum() > 1:
            return  # remaining cores cannot finish the job
        shrunk = residual & cores[i]
        if shrunk.sum() < residual.sum():
            rec(i + 1, shrunk, spent + costs[i], chosen + (ids[i],))
        rec(i + 1, residual, spent, chosen)

    rec(0, n_mask.copy(), 0, ())
    if best_set[0] is None:
        raise InvariantViolated("no faithful collection found")
    return best_cost[0], tuple(sorted(best_set[0]))
