"""Minimal faithful degree by partial transformations, per J-class and total.

For a Rhodes semisimple semigroup the minimal degree is the sum over the
RM-irreducible regular J-classes of the smallest Green's-quotient size of a
tensor X (x) R_J, where X ranges over G_J-sets faithful on the invisible
subgroup with pairwise non-isomorphic orbits.  The witness action is always
assembled from the G_J-sets and the pair classes that priced it and re-checked
for faithfulness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import (
    PartialAction,
    coproduct_actions,
    faithful_by_criterion,
    greens_quotient,
    is_action,
    is_faithful,
    tensor_action,
)
from .congruence import (
    IrreducibilityReport,
    column_condition,
    is_rhodes_semisimple,
    rm_irreducible_classes,
)
from .core import (
    FiniteSemigroup,
    ReesCoordinatization,
    class_members,
    greens,
    opposite,
    rees_coordinatize,
)
from .errors import InvariantViolated, NotIrreducible, NotRhodesSemisimple
from .grouptheory import (
    GroupAction,
    GroupTable,
    SubgroupLattice,
    coproduct_group_actions,
    coset_action,
    min_degree_faithful_on,
    subgroup_classes,
)


@dataclass(frozen=True)
class DjResult:
    d: int
    witness_classes: tuple[int, ...]  # positions in the subgroup lattice
    fast_path: str  # "aggm" | "column_condition" | "general_search"
    # the coset action of each witness class, as priced
    witness_gsets: tuple[GroupAction, ...] = field(default=(), compare=False, repr=False)


def tensor_pair_classes(x: GroupAction, r: ReesCoordinatization) -> np.ndarray:
    """Green's congruence classes of X (x) R_J via the coordinate pair rule:
    (p, b) ~ (p', b') iff p.C[b][a] = p'.C[b'][a] for every a, with a zero
    sandwich entry annihilating.  Class ids follow first occurrence and no
    point falls into the sink, as greens_quotient takes them."""
    from .core import _partition_from_keys

    c = r.sandwich
    # sig[p, b, a] = p.C[b][a] + 1, or 0 where C[b][a] is zero; row p * nb + b
    # of the reshape is tensor point (p, b)
    sig = np.where(c == 0, 0, x.act[:, c - 1] + 1)
    return _partition_from_keys(sig.reshape(-1, c.shape[1]))[0]


def tensor_quotient_size(x: GroupAction, r: ReesCoordinatization) -> int:
    return int(tensor_pair_classes(x, r).max()) + 1


def dj(r: ReesCoordinatization, report: IrreducibilityReport, lattice: SubgroupLattice) -> DjResult:
    """Minimum Green's-quotient size over admissible G_J-sets for one
    RM-irreducible J-class, given the subgroup lattice of G_J.

    Each orbit costs the tensor quotient size of its coset action, which is
    at least the orbit's index [G:H]: the points (p, b_0) of X (x) R_J stay
    apart in the quotient, as C[b_0][a_0] is the identity.  So
    ``min_degree_faithful_on`` prices classes in order of index, and only
    while the index is at most the best cost found.  The coset actions of the
    witness classes are returned with the result.  ``fast_path`` names the
    paper's case for J: under the column condition the quotient size is
    b_count times the number of points, and with a trivial G_J that is AGGM."""
    j = r.jclass
    row = report.per_class[j]
    if not row.rm_irreducible:
        raise NotIrreducible(f"J-class {j} is not RM-irreducible")
    gt = lattice.group
    gpos = {el: i for i, el in enumerate(r.group)}
    mj_pos = tuple(sorted(gpos[el] for el in row.mj))
    gsets: dict[int, GroupAction] = {}

    def cost(ci: int) -> int:
        gsets[ci] = coset_action(gt, lattice.classes[ci].rep)
        return tensor_quotient_size(gsets[ci], r)

    d, wit = min_degree_faithful_on(gt, mj_pos, lattice, cost)
    if not column_condition(r):
        fast_path = "general_search"
    else:
        fast_path = "aggm" if gt.order == 1 else "column_condition"
    return DjResult(d, wit, fast_path, witness_gsets=tuple(gsets[ci] for ci in wit))


# ---------------------------------------------------------------------------
# Report types


@dataclass(frozen=True)
class SubgroupWitness:
    order: int
    index: int


@dataclass(frozen=True)
class JClassDegree:
    jclass: int
    e: int
    l_count: int
    group_order: int
    mj_order: int
    fast_path: str
    d: int
    witness_subgroups: tuple[SubgroupWitness, ...]


@dataclass(frozen=True)
class TotalDegreeInfo:
    lower: int
    upper: int
    reason: str

    @property
    def exact(self) -> int | None:
        return self.lower if self.lower == self.upper else None


@dataclass(frozen=True)
class MinDegReport:
    size: int
    m: int
    per_class: tuple[JClassDegree, ...]
    witness: PartialAction
    total: TotalDegreeInfo

    def to_dict(self) -> dict:
        # "source" and "rhodes_semisimple" are constant, kept for schema stability
        return {
            "schema": "sgmindeg.mindeg-report.v1",
            "source": "theory",
            "size": self.size,
            "rhodes_semisimple": True,
            "m": self.m,
            "classes": [
                {
                    "jclass": c.jclass,
                    "idempotent": c.e,
                    "l_classes": c.l_count,
                    "group_order": c.group_order,
                    "mj_order": c.mj_order,
                    "fast_path": c.fast_path,
                    "d": c.d,
                    "witness_subgroups": [
                        {"order": w.order, "index": w.index} for w in c.witness_subgroups
                    ],
                }
                for c in self.per_class
            ],
            "witness_degree": self.witness.degree,
            "witness_total": bool(self.witness.is_total()),
            "total_degree": {
                "lower": self.total.lower,
                "upper": self.total.upper,
                "exact": self.total.exact,
                "reason": self.total.reason,
            },
        }


def _resolve_total(
    s: FiniteSemigroup,
    m: int,
    witness: PartialAction,
    resolve_with_oracle: bool,
    oracle_budget: float | None,
) -> TotalDegreeInfo:
    if witness.is_total():
        return TotalDegreeInfo(m, m, "the minimal partial witness already acts by total maps")
    if s.zero is not None:
        return TotalDegreeInfo(m + 1, m + 1, "a zero element must act as the empty map; a sink is added")
    if resolve_with_oracle:
        from .oracle import OracleQuery, brute_min_degree

        res = brute_min_degree(
            OracleQuery(semigroup=s, mode="total", min_n=m, max_n=m, budget_secs=oracle_budget)
        )
        if res.status == "found":
            return TotalDegreeInfo(m, m, "oracle found a total embedding at the partial degree")
        if res.status == "not_found":
            return TotalDegreeInfo(m + 1, m + 1, "oracle refuted a total embedding at the partial degree")
        return TotalDegreeInfo(m, m + 1, "unresolved: oracle budget exceeded")
    return TotalDegreeInfo(m, m + 1, "unresolved: no zero and the computed witness is partial")


def min_partial_degree(
    s: FiniteSemigroup,
    *,
    resolve_total_with_oracle: bool = False,
    oracle_budget: float | None = None,
) -> MinDegReport:
    """Exact minimal degree of a faithful action by partial transformations.

    Raises NotRhodesSemisimple (with the offending congruence classes) when
    the reduction does not apply; use the oracle for those semigroups."""
    g = greens(s)
    ok, cong = is_rhodes_semisimple(s, g)
    if not ok:
        raise NotRhodesSemisimple(class_members(cong.class_of))
    report = rm_irreducible_classes(s, g)

    per, blocks = [], []
    for j in report.irreducible_ids():
        r = rees_coordinatize(s, g, j)
        lattice = subgroup_classes(GroupTable.of_rees(r))
        res = dj(r, report, lattice)
        x = coproduct_group_actions(list(res.witness_gsets))
        quot = greens_quotient(tensor_action(x, r), tensor_pair_classes(x, r))
        if quot.degree != res.d:
            raise InvariantViolated(
                f"J-class {j}: d_J = {res.d} but the assembled quotient has degree {quot.degree}"
            )
        blocks.append(quot)
        per.append(
            JClassDegree(
                jclass=j,
                e=r.e,
                l_count=r.b_count,
                group_order=r.group_order,
                mj_order=len(report.per_class[j].mj),
                fast_path=res.fast_path,
                d=res.d,
                witness_subgroups=tuple(
                    SubgroupWitness(
                        order=len(lattice.classes[ci].rep), index=lattice.classes[ci].index
                    )
                    for ci in res.witness_classes
                ),
            )
        )

    if blocks:
        witness = coproduct_actions(blocks)
    else:
        witness = PartialAction(degree=0, maps=np.empty((s.size, 0), dtype=np.int32))
    acts, at = is_action(s, witness)
    if not acts:
        raise InvariantViolated(f"assembled witness is not an action: p(xg) != (px)g at (x, g) = {at}")
    faithful, pair = is_faithful(s, witness)
    if not faithful:
        raise InvariantViolated(f"assembled witness action is not faithful, offending pair {pair}")
    if not faithful_by_criterion(s, witness, g, report):
        raise InvariantViolated("assembled witness action fails the faithfulness criterion")

    m = sum(c.d for c in per)
    if m != witness.degree:
        raise InvariantViolated(f"sum of d_J is {m} but the witness has degree {witness.degree}")
    total = _resolve_total(s, m, witness, resolve_total_with_oracle, oracle_budget)
    return MinDegReport(size=s.size, m=m, per_class=tuple(per), witness=witness, total=total)


# ---------------------------------------------------------------------------
# Left degrees via the opposite semigroup


def left_degrees(s: FiniteSemigroup, right_m: int) -> MinDegReport:
    """Minimal degree report for the opposite semigroup (left actions of S),
    given m(S) as computed by min_partial_degree.

    Rhodes semisimplicity, i.e. a faithful completely reducible complex
    representation, is self-dual: transposing such a representation of S gives
    one of S^op.  So S^op is semisimple whenever m(S) exists, and the theory
    applies on both sides.  Raises InvariantViolated if l(S) <= 2^m(S) - 1 fails."""
    left = min_partial_degree(opposite(s))
    if left.m > 2**right_m - 1:
        raise InvariantViolated(f"left degree {left.m} violates the 2^m - 1 bound for m = {right_m}")
    return left
