"""Congruences attached to regular J-classes and Rhodes semisimplicity.

Two congruences are associated to a regular J-class J: the right-mapping
congruence (elements acting identically on the right of J) and the
generalized-group-mapping congruence (elements acting identically through
both sides of J).  A semigroup is Rhodes semisimple when the intersection of
the latter over all regular J-classes is the equality relation.  By Green's
lemma both are decided on the H-class representatives of J
(``core.schutzenberger_reps``): |B| entries per element for the first and
|B| x |A| for the second, instead of |J|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteSemigroup,
    GreensStructure,
    ReesCoordinatization,
    _partition_from_keys,
    greens,
    min_idempotent_of,
    schutzenberger_reps,
)
from .errors import NotInverse


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
    representation of J.  With e, r_a and q_b from ``schutzenberger_reps``,
    every x in J is r_a h q_b with h in H_e, and left multiplication by r_a h
    is injective on eS and maps R_e onto R_a (Green's lemma).  So xs = xt iff
    q_b s = q_b t, and xs stays in J iff q_b s does: the signature of s is
    (q_b s, or -1 outside J) over the |B| L-classes b, not over all of J.
    """
    _, _, q_reps = schutzenberger_reps(g, j)
    prods = s.table[q_reps].T  # (s, b) -> q_b s
    sig = np.where(g.jclass_of[prods] == j, prods, -1)
    class_of, classes = _partition_from_keys(sig)
    return Congruence(class_of=class_of, classes=classes)


def _ggm_signature(s: FiniteSemigroup, g: GreensStructure, j: int) -> np.ndarray:
    """One row per element s: the |B| x |A| matrix (q_b s r_a, or -1 outside J).

    Write x = r_a h q_b and y = r_a2 h2 q_b2 as in ``rm_congruence_at``.  Left
    multiplication by r_a h is injective on eS and right multiplication by
    h2 q_b2 on Se (Green's lemma, on both sides), and xsy stays in J iff
    q_b s r_a2 does, which then lies in H_e.  So xsy and xty agree for all x, y
    in J iff s and t have the same row.
    """
    _, r_reps, q_reps = schutzenberger_reps(g, j)
    prods = s.table[s.table[q_reps].T[:, :, None], r_reps]  # (s, b, a) -> q_b s r_a
    return np.where(g.jclass_of[prods] == j, prods, -1).reshape(s.size, -1)


def ggm_congruence_at(s: FiniteSemigroup, g: GreensStructure, j: int) -> Congruence:
    """s ~ t iff for all x, y in J: xsy in J <=> xty in J, with xsy = xty when in J.

    Decided on |B| x |A| entries per element (``_ggm_signature``), not |J| x |J|.
    """
    class_of, classes = _partition_from_keys(_ggm_signature(s, g, j))
    return Congruence(class_of=class_of, classes=classes)


def is_rhodes_semisimple(
    s: FiniteSemigroup, g: GreensStructure | None = None
) -> tuple[bool, Congruence]:
    """Whether the GGM congruence (meet over all regular J-classes) is trivial.

    The meet is refined one class at a time, each by one partition of the
    current class ids next to the class's GGM signature, until it is equality.
    """
    if g is None:
        g = greens(s)
    cong = universal_congruence(s.size)
    for j in g.regular_jclasses():
        keys = np.concatenate([cong.class_of[:, None], _ggm_signature(s, g, j)], axis=1)
        class_of, classes = _partition_from_keys(keys)
        cong = Congruence(class_of=class_of, classes=classes)
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
        plow_ids, plow_classes = _partition_from_keys(keys)  # the meet of their RM congruences

        # the first x whose RM class differs from that of the lowest member of
        # its plow class, paired with that member
        lowest = np.array([c[0] for c in plow_classes])[plow_ids]
        rm_ids = rm[j].class_of
        differs = rm_ids[lowest] != rm_ids
        first = int(differs.argmax())
        witness = (int(lowest[first]), first) if differs[first] else None

        e = schutzenberger_reps(g, j)[0]
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
