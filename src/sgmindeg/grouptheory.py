"""Subgroup machinery for maximal subgroups extracted from Rees coordinates.

Groups are abstract multiplication tables over positions 0..m-1 with the
identity at position 0.  No permutation-group algorithms are used; sizes in
scope are small (S_6 with 56 subgroup classes is the intended ceiling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ReesCoordinatization, check_associativity, closure_mask
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
    """All subgroups up to conjugacy, by cyclic seeding and one-element extension.

    Every subgroup arises from a chain of single-generator extensions starting
    at a cyclic subgroup, and extending a class representative H by double
    coset representatives of H covers all extensions of the class up to
    conjugacy.  Every conjugate of a class is registered as a packed bitmask,
    so meeting any member of a known class again costs one set lookup.  Each
    class keeps the generators of its representative, so <H, x> is closed by
    right-multiplying by those and x only.
    """
    m = g.order
    if m > SUBGROUP_ENUM_CAP:
        raise GroupTooLarge(f"group order {m} exceeds cap {SUBGROUP_ENUM_CAP}")
    t = g.table

    seen: set[bytes] = set()
    classes: list[SubgroupClass] = []
    queue: list[tuple[np.ndarray, np.ndarray]] = []  # class representatives: mask, generators

    def register(mask: np.ndarray, gens: np.ndarray) -> None:
        if np.packbits(mask).tobytes() in seen:
            return
        conj = g.conjugate_set(np.flatnonzero(mask), np.arange(m)[:, None])
        conj_masks = np.zeros((m, m), dtype=bool)
        conj_masks[np.arange(m)[:, None], conj] = True
        seen.update(row.tobytes() for row in np.packbits(conj_masks, axis=1))
        least = np.lexsort(conj.T[::-1])[0]
        core = np.flatnonzero(conj_masks.all(axis=0))  # intersection of all conjugates
        rep = tuple(conj[least].tolist())
        classes.append(SubgroupClass(rep=rep, index=m // len(rep), core=tuple(core.tolist())))
        queue.append((conj_masks[least], t[t[g.inv[least], gens], least]))  # least^-1 gens least

    for x in range(m):
        register(closure_mask(t, [x]), np.array([x]))

    for in_h, gens in queue:  # register() appends to the queue while it is walked
        if in_h.all():
            continue
        h = np.flatnonzero(in_h)
        used = in_h.copy()
        for x in range(m):
            if used[x]:
                continue
            gens_hx = np.append(gens, x)
            register(closure_mask(t, gens_hx, base=in_h), gens_hx)
            hx = t[h, x]  # H x
            used[t[np.ix_(hx, h)].ravel()] = True  # mark the double coset H x H
            used[hx] = True

    classes.sort(key=lambda c: (len(c.rep), c.rep))
    return SubgroupLattice(group=g, classes=tuple(classes))


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
    points = np.unique(keys)
    act = np.empty((len(points), g.order), dtype=np.int32)
    for p, rep in enumerate(points):
        act[p] = np.searchsorted(points, keys[g.table[rep, :]])
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
