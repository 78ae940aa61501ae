"""Brute-force minimal-embedding search, independent of the theory path.

Searches for an injective homomorphism of an abstract semigroup into PT_n,
T_n, or the partial bijections on n points by assigning images to a small
generating set, one full map at a time.  Pruning comes from propagating the
multiplication table through the partially built homomorphism and from
matching the index/period of each generator.  Point-relabeling symmetry is
broken by a canonical fresh-point rule on the first assigned generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import FiniteSemigroup, PartialMap, closure_mask, compose_maps, small_generating_set
from .errors import EmptyGeneratorSet, InvariantViolated, SemigroupError

DEFAULT_BUDGET_SECS = 60.0
MODES = ("partial", "total", "partial_bijection")


@dataclass
class OracleQuery:
    semigroup: FiniteSemigroup
    mode: str = "partial"
    min_n: int = 1
    max_n: int = 8
    generators: list[int] | None = None  # auto-computed when None
    budget_secs: float | None = None


@dataclass
class OracleResult:
    status: str  # "found" | "not_found" | "timeout"
    degree: int | None
    witness: dict[int, PartialMap] | None  # generator element -> assigned map
    searched_up_to: int
    nodes: int
    elapsed: float


class _Budget:
    def __init__(self, secs: float):
        self.deadline = time.monotonic() + secs
        self.start = time.monotonic()
        self.nodes = 0

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            return False
        return True

    def elapsed(self) -> float:
        return time.monotonic() - self.start


class _Timeout(Exception):
    pass


def monogenic_type_of_element(s: FiniteSemigroup, x: int) -> tuple[int, int]:
    """(index, period) of the cyclic subsemigroup generated by x."""
    seen: dict[int, int] = {}
    cur, k = x, 1
    while cur not in seen:
        seen[cur] = k
        cur = s.mul(cur, x)
        k += 1
    return seen[cur], k - seen[cur]


def monogenic_type_of_map(m: PartialMap) -> tuple[int, int]:
    seen: dict[PartialMap, int] = {}
    cur, k = m, 1
    while cur not in seen:
        seen[cur] = k
        cur = compose_maps(cur, m)
        k += 1
    return seen[cur], k - seen[cur]


def generating_set(s: FiniteSemigroup) -> list[int]:
    """Greedy irredundant generating set, verified by closure."""
    gens = small_generating_set(s.table)
    if not closure_mask(s.table, gens).all():
        raise InvariantViolated("generating set does not generate the semigroup")
    return gens


def _candidate_maps(n: int, mode: str, fresh_rule: bool):
    """Lexicographic enumeration of maps on n points; undefined sorts first.

    With fresh_rule, a value may exceed by at most one the largest point index
    seen so far in the scan (positions up to the current one count as seen).
    Any embedding can be relabeled to satisfy the rule on its first generator,
    so applying it there is a sound symmetry break.
    """
    values_base = list(range(n))
    cur = [0] * n

    def rec(pos: int, maxseen: int, used: set[int]):
        if pos == n:
            yield tuple(cur)
            return
        ms = max(maxseen, pos)
        vals = ([-1] if mode != "total" else []) + values_base
        for v in vals:
            if v >= 0:
                if fresh_rule and v > ms + 1:
                    continue
                if mode == "partial_bijection" and v in used:
                    continue
                used.add(v)
            cur[pos] = v
            yield from rec(pos + 1, max(ms, v), used)
            if v >= 0:
                used.discard(v)

    yield from rec(0, -1, set())


def close_embedding(
    s: FiniteSemigroup, images: dict[int, PartialMap]
) -> dict[int, PartialMap] | None:
    """Propagate generator images through the table.

    Returns the element -> map assignment on the subsemigroup generated by the
    image keys, or None on any inconsistency (a product forced to two
    different maps, or two elements forced to one map)."""
    if not images:
        return None
    gen_items = list(images.items())
    hom: dict[int, PartialMap] = {}
    rev: dict[PartialMap, int] = {}
    queue: list[int] = []
    for el, m in gen_items:
        if el in hom:
            if hom[el] != m:
                return None
            continue
        if m in rev:
            return None
        hom[el] = m
        rev[m] = el
        queue.append(el)
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        mx = hom[x]
        for ge, gm in gen_items:
            y = s.mul(x, ge)
            my = compose_maps(mx, gm)
            if y in hom:
                if hom[y] != my:
                    return None
            else:
                if my in rev:
                    return None
                hom[y] = my
                rev[my] = y
                queue.append(y)
    return hom


def verify_embedding(s: FiniteSemigroup, images: dict[int, PartialMap]) -> bool:
    """True iff the images extend to an injective homomorphism defined on all of S."""
    if not images:
        return False
    degs = {len(m) for m in images.values()}
    if len(degs) != 1:
        return False
    if not closure_mask(s.table, images.keys()).all():
        return False
    hom = close_embedding(s, images)
    return hom is not None and len(hom) == s.size


def _search_degree(
    s: FiniteSemigroup,
    gens: list[int],
    n: int,
    mode: str,
    budget: _Budget,
) -> dict[int, PartialMap] | None:
    gen_types = [monogenic_type_of_element(s, g) for g in gens]
    assigned: dict[int, PartialMap] = {}

    def rec(i: int) -> dict[int, PartialMap] | None:
        if i == len(gens):
            hom = close_embedding(s, assigned)
            if hom is not None and len(hom) == s.size:
                return dict(assigned)
            return None
        for cand in _candidate_maps(n, mode, fresh_rule=(i == 0)):
            if not budget.tick():
                raise _Timeout
            if monogenic_type_of_map(cand) != gen_types[i]:
                continue
            assigned[gens[i]] = cand
            if close_embedding(s, assigned) is not None:
                found = rec(i + 1)
                if found is not None:
                    return found
            del assigned[gens[i]]
        return None

    return rec(0)


def brute_min_degree(query: OracleQuery) -> OracleResult:
    """Smallest n in [min_n, max_n] admitting an embedding in the chosen mode.

    Exhausts each degree (up to the sound symmetry break) before moving on, so
    a "found" answer is the exact minimum above min_n.  A budget overrun is
    reported as a distinct timeout status, never as "not found"."""
    s = query.semigroup
    if query.mode not in MODES:
        raise SemigroupError(f"unknown oracle mode {query.mode!r}")
    if query.generators is not None:
        gens = list(query.generators)
        if not gens:
            raise EmptyGeneratorSet("explicit generator list is empty")
        if not closure_mask(s.table, gens).all():
            raise SemigroupError("supplied generators do not generate the semigroup")
    else:
        gens = generating_set(s)
    # most-constrained generator first: fewer candidate images, earlier pruning
    gens = sorted(
        gens,
        key=lambda ge: (_candidate_count_hint(s, ge, query.mode), ge),
    )
    budget = _Budget(query.budget_secs if query.budget_secs is not None else DEFAULT_BUDGET_SECS)
    for n in range(query.min_n, query.max_n + 1):
        try:
            witness = _search_degree(s, gens, n, query.mode, budget)
        except _Timeout:
            return OracleResult(
                status="timeout",
                degree=None,
                witness=None,
                searched_up_to=n - 1,
                nodes=budget.nodes,
                elapsed=budget.elapsed(),
            )
        if witness is not None:
            if not verify_embedding(s, witness):
                raise InvariantViolated(f"degree-{n} witness is not an embedding")
            return OracleResult(
                status="found",
                degree=n,
                witness=witness,
                searched_up_to=n,
                nodes=budget.nodes,
                elapsed=budget.elapsed(),
            )
    return OracleResult(
        status="not_found",
        degree=None,
        witness=None,
        searched_up_to=query.max_n,
        nodes=budget.nodes,
        elapsed=budget.elapsed(),
    )


def _candidate_count_hint(s: FiniteSemigroup, ge: int, mode: str) -> tuple[int, int]:
    """Cheap constraint estimate: period then index, rarest types first."""
    idx, per = monogenic_type_of_element(s, ge)
    return (-per, -idx)
