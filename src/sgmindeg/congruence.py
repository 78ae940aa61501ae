"""Congruences attached to regular J-classes and Rhodes semisimplicity.

Two congruences are associated to a regular J-class J: the right-mapping
congruence (elements acting identically on the right of J) and the
generalized-group-mapping congruence (elements acting identically through
both sides of J).  A semigroup is Rhodes semisimple when the intersection of
the latter over all regular J-classes is the equality relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteSemigroup, GreensStructure, ReesCoordinatization, _partition_from_keys, greens
from .errors import NotInverse, NotRegular


@dataclass(frozen=True)
class Congruence:
    """A partition of element indices that is compatible with multiplication."""

    class_of: np.ndarray
    classes: tuple[tuple[int, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def is_equality(self) -> bool:
        return len(self.classes) == len(self.class_of)

    def same(self, s: int, t: int) -> bool:
        return bool(self.class_of[s] == self.class_of[t])

    def meet(self, other: "Congruence") -> "Congruence":
        keys = np.stack([self.class_of, other.class_of], axis=1)
        class_of, classes = _partition_from_keys(keys)
        return Congruence(class_of=class_of, classes=classes)


def universal_congruence(n: int) -> Congruence:
    return Congruence(class_of=np.zeros(n, dtype=np.int64), classes=(tuple(range(n)),))


def rm_congruence_at(s: FiniteSemigroup, g: GreensStructure, j: int) -> Congruence:
    """s ~ t iff for all x in J: xs in J <=> xt in J, with xs = xt when both stay in J.

    Equivalently, s and t act the same in the right Schutzenberger
    representation on (any R-class of) J.
    """
    if not g.regular[j]:
        raise NotRegular(f"J-class {j} contains no idempotent")
    jelems = np.asarray(g.jclasses[j])
    prods = s.table[jelems, :]  # (x, s) -> x s
    sig = np.where(g.jclass_of[prods] == j, prods, -1).T  # one row per element s
    class_of, classes = _partition_from_keys(sig)
    return Congruence(class_of=class_of, classes=classes)


def ggm_congruence_at(s: FiniteSemigroup, g: GreensStructure, j: int) -> Congruence:
    """s ~ t iff for all x, y in J: xsy in J <=> xty in J, with xsy = xty when in J."""
    if not g.regular[j]:
        raise NotRegular(f"J-class {j} contains no idempotent")
    jelems = np.asarray(g.jclasses[j])
    # rowsig[u] encodes the map y -> uy restricted to J; two elements agree on J
    # through both sides iff the rows of their left-translates match.
    right = s.table[:, jelems]  # (u, y) -> u y
    rowsig = np.where(g.jclass_of[right] == j, right, -1)
    row_id, _ = _partition_from_keys(rowsig)
    prods = s.table[jelems, :]  # (x, s) -> x s
    sig = row_id[prods].T  # one row per element s: (row_id(x s))_x
    class_of, classes = _partition_from_keys(sig)
    return Congruence(class_of=class_of, classes=classes)


def is_rhodes_semisimple(
    s: FiniteSemigroup, g: GreensStructure | None = None
) -> tuple[bool, Congruence]:
    """Whether the GGM congruence (meet over all regular J-classes) is trivial."""
    if g is None:
        g = greens(s)
    cong = universal_congruence(s.size)
    for j in g.regular_jclasses():
        cong = cong.meet(ggm_congruence_at(s, g, j))
        if cong.is_equality():
            break
    return cong.is_equality(), cong


@dataclass(frozen=True)
class JClassIrreducibility:
    jclass: int
    e: int  # chosen idempotent of the class
    rm_irreducible: bool
    witness: tuple[int, int] | None  # (s, t) separated at J but at no lower class
    mj: tuple[int, ...]  # subgroup of G_J acting trivially below J (element indices)


@dataclass(frozen=True)
class IrreducibilityReport:
    per_class: dict[int, JClassIrreducibility]
    rm_congruences: dict[int, Congruence]

    def irreducible_ids(self) -> list[int]:
        return sorted(j for j, row in self.per_class.items() if row.rm_irreducible)


def min_idempotent_of(g: GreensStructure, j: int) -> int:
    return min(x for x in g.idempotents if g.jclass_of[x] == j)


def rm_irreducible_classes(
    s: FiniteSemigroup, g: GreensStructure | None = None
) -> IrreducibilityReport:
    """Decide, per regular J-class, whether its right-mapping congruence is
    implied by those of the strictly lower regular classes, and compute the
    subgroup of G_J that the lower classes cannot see."""
    if g is None:
        g = greens(s)
    n = s.size
    regs = g.regular_jclasses()
    rm = {j: rm_congruence_at(s, g, j) for j in regs}

    per: dict[int, JClassIrreducibility] = {}
    for j in regs:
        lower = [rm[j2].class_of for j2 in regs if g.jorder_lt[j2, j]]
        keys = np.array(lower, dtype=np.int64).reshape(len(lower), n).T  # a column per lower class
        plow_ids, _ = _partition_from_keys(keys)  # the meet of their RM congruences

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

        e = min_idempotent_of(g, j)
        h_e = g.hclass_of[e]
        mj = tuple(
            int(x)
            for x in g.hclasses[h_e]
            if plow_ids[x] == plow_ids[e]
        )
        per[j] = JClassIrreducibility(
            jclass=j,
            e=e,
            rm_irreducible=witness is not None,
            witness=witness,
            mj=mj,
        )
    return IrreducibilityReport(per_class=per, rm_congruences=rm)


# ---------------------------------------------------------------------------
# Inverse semigroups: join irreducibility in the natural partial order


def inverses_of(s: FiniteSemigroup) -> list[int] | None:
    """Per-element inverse (sts = s, tst = t), or None if some element has none."""
    t = s.table
    out: list[int] = []
    for a in s.elements():
        found = -1
        for b in s.elements():
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
    idem = s.idempotents()
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
    order-theoretic description of the invisible subgroup.

    Cross-check only; agrees with rm_irreducible_classes on inverse semigroups.
    """
    inv = inverses_of(s)
    if inv is None or not is_inverse_semigroup(s):
        raise NotInverse("semigroup is not inverse (missing inverses or non-commuting idempotents)")
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
            mj = tuple(int(x) for x in g.hclasses[h_e] if leq[below, x].all())
        else:
            mj = tuple(int(x) for x in g.hclasses[h_e])
        out[j] = ScheinRow(jclass=j, e=e, join_irreducible=not join_reducible, mj=mj)
    return out


# ---------------------------------------------------------------------------
# Sandwich matrix tests


def column_condition(r: ReesCoordinatization) -> bool:
    """For every pair of distinct sandwich rows, some column has exactly one
    nonzero entry of the two.  Equivalent to: for any two L-classes of J there
    is an R-class whose H-class meets exactly one of them in an idempotent."""
    nz = r.sandwich != 0
    nb = r.b_count
    for b1 in range(nb):
        for b2 in range(b1 + 1, nb):
            if not (nz[b1] ^ nz[b2]).any():
                return False
    return True


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
