"""Slow, independent reference implementations that the tests compare against.

None of these is on the library's computation path: each one recomputes, by
a different or more literal method, something the library computes or
certifies, so that a test can check the two agree.
"""

from __future__ import annotations

import numpy as np

from sgmindeg.action import PartialAction
from sgmindeg.congruence import Congruence, rm_congruence_at, universal_congruence
from sgmindeg.core import (
    FiniteSemigroup,
    GreensStructure,
    _partition_from_keys,
    greens,
    small_generating_set,
)
from sgmindeg.grouptheory import GroupAction, GroupTable


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


def greens_congruence_fixpoint(s: FiniteSemigroup, omega: PartialAction, e: int) -> np.ndarray:
    """Green's congruence classes at e by Moore-style refinement over a
    generating set, with an explicit sink point.

    Start from the partition by the value of p.e and refine until stable under
    every generator; the class containing the sink maps to -1 and the other
    class ids follow first occurrence, as in ``action.greens_congruence_classes``.
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


def is_compatible(s: FiniteSemigroup, cong: Congruence) -> bool:
    """Full-scan test that the partition is a two-sided congruence."""
    ids = cong.class_of
    t = s.table
    for u in s.elements():
        if len(np.unique(np.stack([ids, ids[t[u]]], axis=1), axis=0)) != cong.num_classes:
            return False
        if len(np.unique(np.stack([ids, ids[t[:, u]]], axis=1), axis=0)) != cong.num_classes:
            return False
    return True


def rm_meet(s: FiniteSemigroup, g: GreensStructure | None = None) -> Congruence:
    """Intersection of the right-mapping congruences over all regular J-classes."""
    if g is None:
        g = greens(s)
    cong = universal_congruence(s.size)
    for j in g.regular_jclasses():
        cong = cong.meet(rm_congruence_at(s, g, j))
    return cong


# ---------------------------------------------------------------------------
# Group actions


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
