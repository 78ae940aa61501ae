"""Subgroup machinery for maximal subgroups extracted from Rees coordinates.

Groups are abstract multiplication tables over positions 0..m-1 with the
identity at position 0.  No permutation-group algorithms are used; sizes in
scope are small (S_6 with 56 subgroup classes is the intended ceiling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ReesCoordinatization
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
        # a copy, as a row view would keep the whole m x m array alive in the
        # queue; the generators are least^-1 gens least
        queue.append((conj_masks[least].copy(), t[t[g.inv[least], gens], least]))

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
    cost: Callable[[int], int],
) -> tuple[int, tuple[int, ...]]:
    """Minimize the summed cost over nonempty sets of pairwise non-conjugate
    subgroup classes whose cores meet the normal subgroup N trivially.

    ``cost`` maps a class position in the lattice to a cost of at least the
    class's index [G:H]; a cost below it raises InvariantViolated.  The
    candidates are the classes whose core does not contain N, or every class
    when N is trivial.  They are priced in order of (index, position), and
    only while the index is at most the cheapest cost found so far: a dearer
    class cannot be in a cheapest set, and one that ties is priced so that
    ties break as if every class were.  The empty G-set is never admissible,
    so a trivial N costs the cheapest single class.  Returns (cost, class
    positions in the lattice).
    """
    m = g.order
    n_mask = np.zeros(m, dtype=bool)
    n_mask[np.asarray(list(normal), dtype=np.int64)] = True
    if not n_mask[0]:
        raise NotSubgroup("normal subgroup must contain the identity")
    members = np.flatnonzero(n_mask)
    if 1 < len(members) < m:  # 1 and G are always normal
        xs = np.arange(m)[:, None]
        if not n_mask[g.table[g.table[g.inv[xs], members], xs]].all():  # x^-1 N x <= N for all x
            raise NotSubgroup("subgroup is not normal")

    n_set = set(members.tolist())
    # a class whose core holds a nontrivial N never shrinks the residual
    candidates = [ci for ci, cl in enumerate(lattice.classes) if len(members) == 1 or not n_set <= set(cl.core)]
    costs: dict[int, int] = {}
    cores: dict[int, np.ndarray] = {}  # core masks of the classes priced
    meet = n_mask.copy()
    best, searched = None, 0  # the cheapest set among the first ``searched`` classes priced
    for ci in sorted(candidates, key=lambda ci: (lattice.classes[ci].index, ci)):
        index = lattice.classes[ci].index
        if best is not None and index > best[0]:
            break
        costs[ci] = cost(ci)
        if costs[ci] < index:
            raise InvariantViolated(f"subgroup class {ci}: cost {costs[ci]} below its index {index}")
        cores[ci] = np.zeros(m, dtype=bool)
        cores[ci][list(lattice.classes[ci].core)] = True
        meet &= cores[ci]
        if meet.sum() == 1 and (best is None or costs[ci] < best[0]):
            best, searched = _cheapest_set(costs, cores, n_mask), len(costs)
    if best is None:
        raise InvariantViolated("no faithful collection found")
    if searched < len(costs):  # a class priced since may tie, and change the witness
        best = _cheapest_set(costs, cores, n_mask)
    return best


def _cheapest_set(
    costs: dict[int, int], cores: dict[int, np.ndarray], n_mask: np.ndarray
) -> tuple[int, tuple[int, ...]]:
    """Branch and bound over the classes in ``costs``, cheapest first, for the
    cheapest nonempty set whose cores meet N trivially; one must exist.  A
    class joins a set only if it shrinks the residual, except the first,
    which a trivial N needs.  Of the sets that tie, the first in include-first
    search order wins."""
    ids = sorted(costs, key=lambda ci: (costs[ci], ci))
    cost_of = [costs[ci] for ci in ids]
    core_of = [cores[ci] for ci in ids]
    k = len(ids)
    suffix = [n_mask] * (k + 1)  # suffix[i]: N meet the cores of classes i, i + 1, ...
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] & core_of[i]

    best_cost = [sum(cost_of) + 1]
    best_set: list[tuple[int, ...]] = [()]

    def rec(i: int, residual: np.ndarray, spent: int, chosen: tuple[int, ...]) -> None:
        if chosen and residual.sum() == 1:
            if spent < best_cost[0]:
                best_cost[0] = spent
                best_set[0] = chosen
            return
        if i == k:
            return
        if spent + cost_of[i] >= best_cost[0]:
            return  # at least one more class is needed; costs are sorted
        if (residual & suffix[i]).sum() > 1:
            return  # remaining cores cannot finish the job
        shrunk = residual & core_of[i]
        if not chosen or shrunk.sum() < residual.sum():
            rec(i + 1, shrunk, spent + cost_of[i], chosen + (ids[i],))
        rec(i + 1, residual, spent, chosen)

    rec(0, n_mask, 0, ())
    return best_cost[0], tuple(sorted(best_set[0]))
