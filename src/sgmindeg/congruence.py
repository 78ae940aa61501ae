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
    min_idempotent_of,  # unused here, but bench/tracing.py wraps it under this module's name
    schutzenberger_reps,
)


@dataclass(frozen=True)
class Congruence:
    """A partition of element indices that is compatible with multiplication."""

    class_of: np.ndarray  # class ids, numbered by lowest member

    def is_equality(self) -> bool:
        # an id numbered by lowest member never exceeds its element, and the
        # last element's reaches n - 1 only when every class is a singleton
        return int(self.class_of[-1]) == len(self.class_of) - 1


def universal_congruence(n: int) -> Congruence:
    return Congruence(class_of=np.zeros(n, dtype=np.int64))


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
    return Congruence(class_of=_partition_from_keys(sig)[0])


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


def is_rhodes_semisimple(s: FiniteSemigroup, g: GreensStructure) -> tuple[bool, Congruence]:
    """Whether the GGM congruence (meet over all regular J-classes) is trivial.

    The meet is refined one class at a time, each by one partition of the
    current class ids next to the class's GGM signature, until it is equality.
    """
    cong = universal_congruence(s.size)
    for j in g.regular_jclasses():
        keys = np.concatenate([cong.class_of[:, None], _ggm_signature(s, g, j)], axis=1)
        cong = Congruence(class_of=_partition_from_keys(keys)[0])
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


def rm_irreducible_classes(s: FiniteSemigroup, g: GreensStructure) -> IrreducibilityReport:
    """Decide, per regular J-class, whether its right-mapping congruence is
    implied by those of the strictly lower regular classes, and compute the
    subgroup of G_J that the lower classes cannot see."""
    n = s.size
    regs = g.regular_jclasses()
    rm = {j: rm_congruence_at(s, g, j) for j in regs}

    per: dict[int, JClassIrreducibility] = {}
    for j in regs:
        lower = [rm[j2].class_of for j2 in regs if g.jorder_lt[j2, j]]
        keys = np.array(lower, dtype=np.int64).reshape(len(lower), n).T  # a column per lower class
        plow_ids, plow_first = _partition_from_keys(keys)  # the meet of their RM congruences

        # the first x whose RM class differs from that of the lowest member of
        # its plow class, paired with that member
        lowest = plow_first[plow_ids]
        rm_ids = rm[j].class_of
        differs = rm_ids[lowest] != rm_ids
        first = int(differs.argmax())
        witness = (int(lowest[first]), first) if differs[first] else None

        (e, _, _), h_e, _ = g.regular_classes[j]
        mj = tuple(x for x, p in zip(h_e, plow_ids[h_e].tolist()) if p == plow_ids[e])
        per[j] = JClassIrreducibility(
            jclass=j,
            e=e,
            rm_irreducible=witness is not None,
            witness=witness,
            mj=mj,
        )
    return IrreducibilityReport(per_class=per, rm_congruences=rm)


# ---------------------------------------------------------------------------
# Sandwich matrix tests


def column_condition(r: ReesCoordinatization) -> bool:
    """For every pair of distinct sandwich rows, some column has exactly one
    nonzero entry of the two, that is the rows' nonzero patterns are pairwise
    distinct.  Equivalent to: for any two L-classes of J there is an R-class
    whose H-class meets exactly one of them in an idempotent."""
    nz = r.sandwich != 0
    return len({row.tobytes() for row in nz}) == r.b_count
