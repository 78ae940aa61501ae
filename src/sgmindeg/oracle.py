"""Brute-force minimal-embedding search, independent of the theory path.

Searches for an injective homomorphism of an abstract semigroup into PT_n,
T_n, or the partial bijections on n points by assigning images to a small
generating set, one full map at a time.  A generator's candidate images are
only the maps of its monogenic type (index, period): they are built point by
point, and a partial map is dropped as soon as no completion of it can have
that type.  Each list of candidates is built once per degree and only as far
as the search reads it.  Point-relabeling symmetry is broken by a canonical
fresh-point rule on the first assigned generator.

Pruning between generators is semi-naive, as in ``core.closure_mask(base=)``.
Each level of the search keeps the homomorphism closed over the generators
assigned so far, and a candidate image of the next generator is tested by
extending it (``close_embedding(base=)``): the old elements are multiplied by
the new generator, then the newly reached elements by every generator, and
the first product forced to two maps (or two elements forced to one map)
rejects the candidate.  The extension by the last generator is the whole
embedding.  ``verify_embedding`` closes the witness again from scratch, so
the certificate does not rest on the incremental path.

The search's node count (``OracleResult.nodes``) is the number of point
assignments made while building candidate maps plus the number of candidate
maps tried as a generator's image.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import gcd
from operator import itemgetter

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

    def tick(self) -> None:
        """Count one node; raise _Timeout once the deadline has passed."""
        self.nodes += 1
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise _Timeout

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


def _prime_powers(p: int) -> list[int]:
    """The prime powers q^e exactly dividing p."""
    out, q = [], 2
    while p > 1:
        if p % q == 0:
            qe = 1
            while p % q == 0:
                p //= q
                qe *= q
            out.append(qe)
        q += 1
    return out


def _maps_of_type(
    n: int, mode: str, mtype: tuple[int, int], fresh_rule: bool, tick: Callable[[], None]
) -> Iterator[PartialMap]:
    """The maps on n points of monogenic type ``mtype`` = (index, period), in
    lexicographic order with undefined sorting first.

    map[0], map[1], ... are assigned in turn.  With fresh_rule, a value may
    exceed by at most one the largest point index seen so far in the scan
    (positions up to the current one count as seen).  Any embedding can be
    relabeled to satisfy the rule on its first generator, so applying it there
    is a sound symmetry break.  In partial_bijection mode no defined value
    repeats.  ``tick`` is called on every point assignment.

    Undefined acts as a fixed sink point.  A map's period is the lcm of its
    cycle lengths, and its index is max(1, largest height), a point's height
    being its number of steps to a cycle or the sink.  A prefix is dropped when
    it has closed a cycle whose length does not divide the period, when a
    point's height is known and exceeds the index, or when the prime powers of
    the period missing from the closed cycles' lcm sum to more than the points
    that could still lie on a new cycle.  Every complete map is checked
    exactly, so the output is the type's maps and nothing else.
    """
    index, period = mtype
    powers = _prime_powers(period)
    values = ([-1] if mode != "total" else []) + list(range(n))
    cur = [0] * n
    used = [False] * n

    def feasible(k: int) -> bool:
        """False when no completion of cur[:k] has type (index, period)."""
        # -2 unvisited, -3 on the current walk, -1 open (the walk ends at an
        # unassigned point), >= 0 the known height
        height = [-2] * k
        cycle_lcm, closed, known = 1, 0, 0
        for x in range(k):
            if height[x] != -2:
                continue
            path = []
            y = x
            while 0 <= y < k and height[y] == -2:
                height[y] = -3
                path.append(y)
                y = cur[y]
            if y < 0:
                base = 0
            elif y >= k:
                base = -1
            elif height[y] == -3:
                start = path.index(y)
                length = len(path) - start
                if period % length:
                    return False
                cycle_lcm = cycle_lcm * length // gcd(cycle_lcm, length)
                closed += length
                for z in path[start:]:
                    height[z] = 0
                del path[start:]
                base = 0
            else:
                base = height[y]
            for z in reversed(path):
                if base >= 0:
                    base += 1
                    if base > index:
                        return False
                    known += 1
                height[z] = base
        return sum(q for q in powers if cycle_lcm % q) <= n - closed - known

    def rec(pos: int, maxseen: int) -> Iterator[PartialMap]:
        if pos == n:
            m = tuple(cur)
            if monogenic_type_of_map(m) == mtype:
                yield m
            return
        ms = max(maxseen, pos)
        for v in values:
            if v >= 0:
                if fresh_rule and v > ms + 1:
                    break
                if mode == "partial_bijection" and used[v]:
                    continue
            tick()
            cur[pos] = v
            if pos + 1 < n and not feasible(pos + 1):
                continue
            if v >= 0:
                used[v] = True
            yield from rec(pos + 1, max(ms, v))
            if v >= 0:
                used[v] = False

    return rec(0, -1)


def close_embedding(
    s: FiniteSemigroup,
    images: dict[int, PartialMap],
    base: dict[int, PartialMap] | None = None,
    base_inv: dict[PartialMap, int] | None = None,
) -> dict[int, PartialMap] | None:
    """Propagate generator images through the table.

    Returns the element -> map assignment on the subsemigroup generated by the
    image keys, or None on any inconsistency (a product forced to two
    different maps, or two elements forced to one map).

    ``base``, when given, must be ``close_embedding(s, sub)`` for a sub-dict
    ``sub`` of ``images``: an injective homomorphism on a closed subsemigroup,
    whose products are already checked.  Only the products it lacks are then
    formed: its elements times each image whose element it does not cover, and
    every newly reached element times every image.  The result is the same as
    without ``base``.  ``base_inv``, the inverse of ``base`` (map -> element),
    spares rebuilding it when many calls share one base.  Neither is changed:
    the new assignments are kept in dicts of their own and merged with
    ``base`` only when the closure succeeds."""
    if not images:
        return None
    product = s.table.item
    hom = base or {}
    rev = dict(zip(hom.values(), hom)) if base_inv is None else base_inv
    new: dict[int, PartialMap] = {}
    new_rev: dict[PartialMap, int] = {}
    work = list(hom)  # base's elements, multiplied by the fresh images only
    old = len(work)
    # (element, map with -1 appended): itemgetter(*f)(that) is compose_maps(f, map)
    every: list[tuple[int, PartialMap]] = []
    fresh: list[tuple[int, PartialMap]] = []
    for el, m in images.items():
        gen = (el, m + (-1,))
        every.append(gen)
        if el in hom:
            if hom[el] != m:
                return None
        elif m in rev or m in new_rev:
            return None
        else:
            new[el] = m
            new_rev[m] = el
            work.append(el)
            fresh.append(gen)
    for i, x in enumerate(work):  # work grows while it is walked
        mx = hom[x] if i < old else new[x]
        # itemgetter of one index returns the entry, not a 1-tuple; of none, fails
        pick = itemgetter(*mx) if len(mx) > 1 else lambda gx, mx=mx: tuple(map(gx.__getitem__, mx))
        for el, gx in fresh if i < old else every:
            y = product(x, el)
            my = pick(gx)
            known = hom.get(y, new.get(y))
            if known is not None:
                if known != my:
                    return None
            elif my in rev or my in new_rev:
                return None
            else:
                new[y] = my
                new_rev[my] = y
                work.append(y)
    return {**hom, **new}


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


def _replay(items: list[PartialMap], source: Iterator[PartialMap]) -> Iterator[PartialMap]:
    """Iterate ``items``, extending it from ``source`` once past its end."""
    k = 0
    while True:
        if k == len(items):
            nxt = next(source, None)
            if nxt is None:
                return
            items.append(nxt)
        yield items[k]
        k += 1


def _search_degree(
    s: FiniteSemigroup,
    gens: list[int],
    gen_types: list[tuple[int, int]],
    n: int,
    mode: str,
    budget: _Budget,
) -> dict[int, PartialMap] | None:
    # Candidates of the later generators, by type: each map is built once per
    # degree, and only when the search first reads that far.
    pulled: dict[tuple[int, int], tuple[list[PartialMap], Iterator[PartialMap]]] = {}
    assigned: dict[int, PartialMap] = {}

    def candidates(i: int) -> Iterator[PartialMap]:
        if i == 0:
            return _maps_of_type(n, mode, gen_types[0], True, budget.tick)
        t = gen_types[i]
        if t not in pulled:
            pulled[t] = ([], _maps_of_type(n, mode, t, False, budget.tick))
        return _replay(*pulled[t])

    def rec(i: int, hom: dict[int, PartialMap] | None) -> dict[int, PartialMap] | None:
        """Extend ``hom``, the closed homomorphism of gens[:i], by gens[i]."""
        if i == len(gens):
            return dict(assigned) if len(hom) == s.size else None
        inv = dict(zip(hom.values(), hom)) if hom else None  # shared by every candidate
        for cand in candidates(i):
            budget.tick()
            assigned[gens[i]] = cand
            extended = close_embedding(s, assigned, base=hom, base_inv=inv)
            if extended is not None:
                found = rec(i + 1, extended)
                if found is not None:
                    return found
            del assigned[gens[i]]
        return None

    return rec(0, None)


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
    # most-constrained generator first (largest period, then index): fewer
    # candidate images, earlier pruning
    types = {ge: monogenic_type_of_element(s, ge) for ge in gens}
    gens.sort(key=lambda ge: (-types[ge][1], -types[ge][0], ge))
    gen_types = [types[ge] for ge in gens]
    budget = _Budget(query.budget_secs if query.budget_secs is not None else DEFAULT_BUDGET_SECS)
    for n in range(query.min_n, query.max_n + 1):
        try:
            witness = _search_degree(s, gens, gen_types, n, query.mode, budget)
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
