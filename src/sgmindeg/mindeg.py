"""Minimal faithful degree by partial transformations, per J-class and total.

For a Rhodes semisimple semigroup the minimal degree is the sum over the
RM-irreducible regular J-classes of the smallest Green's-quotient size of a
tensor X (x) R_J, where X ranges over G_J-sets faithful on the invisible
subgroup with pairwise non-isomorphic orbits.  The witness action is always
assembled and re-checked for faithfulness; fast-path formulas are never
trusted blindly.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .action import (
    PartialAction,
    coproduct_actions,
    faithful_by_criterion,
    greens_quotient,
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
    greens,
    opposite,
    rees_coordinatize,
)
from .errors import InvariantViolated, NotIrreducible, NotRhodesSemisimple, SemigroupError
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


def tensor_pair_classes(x: GroupAction, r: ReesCoordinatization) -> np.ndarray:
    """Green's congruence classes of X (x) R_J via the coordinate pair rule:
    (p, b) ~ (p', b') iff p.C[b][a] = p'.C[b'][a] for every a, with a zero
    sandwich entry annihilating.  Class ids ordered by first occurrence, so
    they match greens_quotient on the tensor action."""
    from .core import _partition_from_keys

    c = r.sandwich
    nb, na = c.shape
    sig = np.empty((x.npoints * nb, na), dtype=np.int64)
    for b in range(nb):
        block = np.empty((x.npoints, na), dtype=np.int64)
        for a in range(na):
            entry = int(c[b, a])
            if entry == 0:
                block[:, a] = 0
            else:
                block[:, a] = x.act[:, entry - 1] + 1
        sig[b::nb, :] = block  # tensor point (p, b) sits at index p * nb + b
    return _partition_from_keys(sig)[0]


def tensor_quotient_size(x: GroupAction, r: ReesCoordinatization) -> int:
    return int(tensor_pair_classes(x, r).max()) + 1


def dj(
    r: ReesCoordinatization,
    report: IrreducibilityReport,
    lattice: SubgroupLattice | None = None,
) -> DjResult:
    """Minimum Green's-quotient size over admissible G_J-sets for one
    RM-irreducible J-class.

    Under the row-separation (column) condition the quotient size is b_count
    times the number of points of the G_J-set, so the search runs on subgroup
    indices; otherwise each orbit costs its own tensor quotient size.  The
    empty G_J-set is never admissible, so a trivial invisible subgroup still
    costs one orbit, the cheapest."""
    j = r.jclass
    row = report.per_class[j]
    if not row.rm_irreducible:
        raise NotIrreducible(f"J-class {j} is not RM-irreducible")
    gt = GroupTable.of_rees(r)
    gpos = {el: i for i, el in enumerate(r.group)}
    mj_pos = tuple(sorted(gpos[el] for el in row.mj))
    if lattice is None:
        lattice = subgroup_classes(gt)

    if column_condition(r):
        scale = r.b_count
        fast_path = "aggm" if gt.order == 1 else "column_condition"

        def cost(ci: int) -> int:
            return lattice.classes[ci].index

    else:
        scale = 1
        fast_path = "general_search"

        @functools.cache
        def cost(ci: int) -> int:
            return tensor_quotient_size(coset_action(gt, lattice.classes[ci].rep), r)

    d, wit = min_degree_faithful_on(gt, mj_pos, lattice, cost)
    if not wit:
        best = min(range(len(lattice.classes)), key=lambda ci: (cost(ci), ci))
        d, wit = cost(best), (best,)
    return DjResult(d=scale * d, witness_classes=wit, fast_path=fast_path)


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
    rhodes_semisimple: bool
    m: int
    per_class: tuple[JClassDegree, ...]
    witness: PartialAction
    total: TotalDegreeInfo
    source: str  # "theory" | "oracle"

    def to_dict(self) -> dict:
        return {
            "schema": "sgmindeg.mindeg-report.v1",
            "source": self.source,
            "size": self.size,
            "rhodes_semisimple": self.rhodes_semisimple,
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


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
        raise NotRhodesSemisimple([list(c) for c in cong.classes])
    report = rm_irreducible_classes(s, g)

    rows = []
    for j in report.irreducible_ids():
        r = rees_coordinatize(s, g, j)
        gt = GroupTable.of_rees(r)
        lattice = subgroup_classes(gt)
        res = dj(r, report, lattice)
        x = coproduct_group_actions(
            [coset_action(gt, lattice.classes[ci].rep) for ci in res.witness_classes]
        )
        tens = tensor_action(x, r)
        quot, _ = greens_quotient(s, tens, r.e)
        if quot.degree != res.d:
            raise InvariantViolated(
                f"J-class {j}: d_J = {res.d} but the assembled quotient has degree {quot.degree}"
            )
        rows.append((j, r, lattice, res, quot))

    blocks = [quot for _, _, _, _, quot in rows]
    if blocks:
        witness = coproduct_actions(blocks)
    else:
        witness = PartialAction(degree=0, maps=np.empty((s.size, 0), dtype=np.int32))
    faithful, pair = is_faithful(s, witness)
    if not faithful:
        raise InvariantViolated(f"assembled witness action is not faithful, offending pair {pair}")
    if not faithful_by_criterion(s, witness, g, report, check_preconditions=False):
        raise InvariantViolated("assembled witness action fails the faithfulness criterion")

    per = []
    for j, r, lattice, res, quot in rows:
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
    m = sum(c.d for c in per)
    if m != witness.degree:
        raise InvariantViolated(f"sum of d_J is {m} but the witness has degree {witness.degree}")
    total = _resolve_total(s, m, witness, resolve_total_with_oracle, oracle_budget)
    return MinDegReport(
        size=s.size,
        rhodes_semisimple=True,
        m=m,
        per_class=tuple(per),
        witness=witness,
        total=total,
        source="theory",
    )


# ---------------------------------------------------------------------------
# Left degrees via the opposite semigroup


@dataclass(frozen=True)
class LeftDegreeReport:
    left: MinDegReport
    right_m: int | None
    bound_ok: bool | None  # l(S) <= 2^m(S) - 1 when both sides are known


def _oracle_report(s: FiniteSemigroup, max_degree: int, budget: float | None) -> MinDegReport:
    from .oracle import OracleQuery, brute_min_degree, close_embedding

    res = brute_min_degree(
        OracleQuery(semigroup=s, mode="partial", min_n=1, max_n=max_degree, budget_secs=budget)
    )
    if res.status != "found":
        raise SemigroupError(
            f"oracle fallback did not resolve the degree: {res.status} up to {max_degree}"
        )
    hom = close_embedding(s, res.witness)
    if hom is None:
        raise InvariantViolated("oracle witness does not close to an embedding")
    maps = np.full((s.size, res.degree), -1, dtype=np.int32)
    for el, pm in hom.items():
        maps[el] = pm
    witness = PartialAction(degree=res.degree, maps=maps)
    m = res.degree
    total = _resolve_total(s, m, witness, False, None)
    return MinDegReport(
        size=s.size,
        rhodes_semisimple=False,
        m=m,
        per_class=(),
        witness=witness,
        total=total,
        source="oracle",
    )


def left_degrees(
    s: FiniteSemigroup,
    right_m: int | None,
    *,
    oracle_max_degree: int | None = None,
    oracle_budget: float | None = None,
) -> LeftDegreeReport:
    """Minimal degree report for the opposite semigroup (left actions of S).

    ``right_m`` is m(S) as computed by min_partial_degree, or None when S is
    not Rhodes semisimple.  Falls back to the brute-force oracle when the
    opposite semigroup is not Rhodes semisimple; the search is capped at
    2^m(S) - 1 when m(S) is known.  Checks the bound l(S) <= 2^m(S) - 1
    whenever both sides are known."""
    sop = opposite(s)
    try:
        left = min_partial_degree(sop)
    except NotRhodesSemisimple:
        cap = oracle_max_degree
        if cap is None and right_m is not None:
            cap = 2**right_m - 1
        if cap is None:
            raise
        left = _oracle_report(sop, cap, oracle_budget)

    bound_ok = None
    if right_m is not None:
        bound_ok = left.m <= 2**right_m - 1
        if not bound_ok:
            raise InvariantViolated(
                f"left degree {left.m} violates the 2^m - 1 bound for m = {right_m}"
            )
    return LeftDegreeReport(left=left, right_m=right_m, bound_ok=bound_ok)
