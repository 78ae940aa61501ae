"""Brute-force minimal-embedding search, independent of the theory path.

Searches for an injective homomorphism of an abstract semigroup into PT_n,
T_n, or the partial bijections on n points.  The unknowns are the points
f_i(p), the image of point p under generator gens[i], and one depth-first
search assigns them generator-major (all of f_0, then all of f_1, ...), each
trying undefined first and then 0..n-1.  Point-relabeling symmetry is broken
on the first generator: its map f_0 must be least among its conjugates
π f_0 π⁻¹ (``is_least_conjugate``), and the fresh-point rule drops the prefixes
of f_0 that no least conjugate has.

That break is sound and keeps the first solution.  Order solutions as
sequences (f_0, f_1, ...), each map as a tuple with undefined (-1) below 0.
Relabeling the points of an embedding by a permutation π gives an embedding
(π f_0 π⁻¹, π f_1 π⁻¹, ...), so if any exists, the least one has an f_0 that
no conjugate undercuts: else its relabeling would be smaller still.  In
particular f_0(p) exceeds by at most one both p and every earlier value of
f_0: otherwise f_0(p) and the point just above those are both unused so far,
and swapping the two keeps f_0 before p and lowers f_0(p).  Hence
the least embedding meets both rules, and the search, which finds the least
solution that meets them, finds it, or proves that none exists.

Every assignment is closed by deduction over the action table T[x][p] =
p·φ(x), one entry per element x and point p, as in the deduction step of
Todd–Coxeter coset enumeration: f_i(q) = v forces T[x·gens[i]][p] = v for
every (x, p) with T[x][p] = q, and an undefined T[x][p] forces T[x·g][p]
undefined for every generator g.  An entry forced to two values, or a column
of T that completes equal to another column (two elements on one map), makes
the search backtrack at once.  A generator's map must also have the monogenic
type (index, period) of its element: ``feasible`` drops a prefix of it that no
completion can give that type, and a complete map of another type.  Since the
constraints and the value order do not depend on the deduction, the first
solution is the least one in that order.  When every unknown is assigned, T
holds the whole embedding.  The certificate does not rest on the deduction:
``verify_embedding`` expands the generator maps along the right Cayley graph
and checks the result with ``action.is_action`` and ``action.is_faithful``,
the checks that certify the theory's witness.

The search's node count (``OracleResult.nodes``) is the number of values
tried for the unknowns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

import numpy as np

from .action import PartialAction, is_action, is_faithful
from .core import FiniteSemigroup, PartialMap, closure_mask, compose_maps
from .errors import BadParameters, EmptyGeneratorSet, InvariantViolated, SemigroupError

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


class _Budget:
    def __init__(self, secs: float):
        self.deadline = time.monotonic() + secs
        self.nodes = 0

    def tick(self) -> None:
        """Count one node; raise _Timeout once the deadline has passed.  The
        clock is read on the first node and on every 256th."""
        self.nodes += 1
        if (self.nodes % 256 == 0 or self.nodes == 1) and time.monotonic() > self.deadline:
            raise _Timeout


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


def generating_set(s: FiniteSemigroup) -> list[int]:
    """The semigroup's generating set (``FiniteSemigroup.generators``),
    verified by closure."""
    gens = list(s.generators())
    if not closure_mask(s.table, gens).all():
        raise InvariantViolated("generating set does not generate the semigroup")
    return gens


def prime_powers(p: int) -> list[int]:
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


def feasible(prefix: list[int], n: int, mtype: tuple[int, int], powers: list[int]) -> bool:
    """False when no map on n points that starts with ``prefix`` (undefined
    as -1) has monogenic type ``mtype`` = (index, period); ``powers`` is
    ``prime_powers(period)``.  On a complete map (all n points) the answer is
    exact: True iff the map has type ``mtype``.

    Undefined acts as a fixed sink point.  A map's period is the lcm of its
    cycle lengths, and its index is max(1, largest height), a point's height
    being its number of steps to a cycle or the sink.  A prefix is dropped when
    it has closed a cycle whose length does not divide the period, when a
    point's height is known and exceeds the index, or when the prime powers of
    the period missing from the closed cycles' lcm sum to more than the points
    that could still lie on a new cycle."""
    index, period = mtype
    k = len(prefix)
    # -2 unvisited, -3 on the current walk, -1 open (the walk ends at an
    # unassigned point), >= 0 the known height
    height = [-2] * k
    cycle_lcm, closed, known, top = 1, 0, 0, 0
    for x in range(k):
        if height[x] != -2:
            continue
        path = []
        y = x
        while 0 <= y < k and height[y] == -2:
            height[y] = -3
            path.append(y)
            y = prefix[y]
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
        top = max(top, base)
    if k == n:
        return cycle_lcm == period and max(1, top) == index
    return sum(q for q in powers if cycle_lcm % q) <= n - closed - known


def is_least_conjugate(f: PartialMap) -> bool:
    """True iff no point relabeling π makes π f π⁻¹ lexicographically smaller
    than f (undefined, -1, sorts first and every π fixes it).

    Builds a relabeled map g position by position.  Label x goes to an old
    point σ(x), chosen among the points without a label, unless x was already
    given to a point first reached as a value: such a point takes the next
    free label, which is how the least conjugate numbers its points (the
    fresh-point rule).  Then g(x) is the label of f(σ(x)), a branch stops once
    g(x) > f(x), and the search stops at the first g(x) < f(x).  Two unlabeled
    points a, b whose transposition commutes with f lead to the same g, so
    only one of them is tried; on the identity map this leaves one branch,
    not n!."""
    n = len(f)
    # twin[a]: the least b whose transposition (a b) commutes with f, that is
    # f(b) is f(a) with a and b swapped and no other point maps into {a, b}
    twin = list(range(n))
    for a in range(n):
        for b in range(a):
            if twin[b] == b and f[b] == {a: b, b: a}.get(f[a], f[a]) and all(
                f[x] != a and f[x] != b for x in range(n) if x != a and x != b
            ):
                twin[a] = b
                break
    label = [-1] * n  # old point -> new label
    point: list[int] = []  # new label -> old point

    def smaller(x: int) -> bool:
        """A conjugate below f, given the labels so far and g = f before x."""
        if x == n:
            return False
        if x < len(point):
            return step(x)
        tried = set()
        for a in range(n):
            if label[a] >= 0 or twin[a] in tried:
                continue
            tried.add(twin[a])
            label[a] = x
            point.append(a)
            found = step(x)
            point.pop()
            label[a] = -1
            if found:
                return True
        return False

    def step(x: int) -> bool:
        w = f[point[x]]
        fresh = w >= 0 and label[w] < 0
        gx = len(point) if fresh else w if w < 0 else label[w]
        if gx != f[x]:
            return gx < f[x]
        if not fresh:
            return smaller(x + 1)
        label[w] = gx
        point.append(w)
        found = smaller(x + 1)
        point.pop()
        label[w] = -1
        return found

    return not smaller(0)


def close_embedding(s: FiniteSemigroup, images: dict[int, PartialMap]) -> PartialAction | None:
    """The action that the generator images force: each key's row is its
    image, and row x·g is row x followed by ``images[g]``, assigned in
    breadth-first order over the right Cayley graph on the keys.

    None when the images are empty, differ in degree or their keys do not
    generate S; nothing else is checked."""
    if len({len(m) for m in images.values()}) != 1:
        return None
    rows: list[PartialMap | None] = [None] * s.size
    for g, m in images.items():
        rows[g] = m
    right = s.table[:, list(images)].tolist()  # right[x][i] = x · (i-th key)
    queue = list(images)  # every element with a row, in the order it got one
    for x in queue:  # queue grows while it is walked
        for y, m in zip(right[x], images.values()):
            if rows[y] is None:
                rows[y] = compose_maps(rows[x], m)
                queue.append(y)
    if len(queue) != s.size:
        return None
    maps = np.array(rows, dtype=np.int32)  # |S| x degree, even if the degree is 0
    return PartialAction(degree=maps.shape[1], maps=maps)


def verify_embedding(s: FiniteSemigroup, images: dict[int, PartialMap]) -> bool:
    """True iff the images extend to an injective homomorphism defined on all
    of S.  The action they force (``close_embedding``) is defined on all of S;
    ``is_action`` over a generating set proves it a homomorphism, and
    ``is_faithful`` proves it injective."""
    omega = close_embedding(s, images)
    return omega is not None and is_action(s, omega)[0] and is_faithful(s, omega)[0]


_UNKNOWN = -2


def _search_degree(
    s: FiniteSemigroup,
    gens: list[int],
    gen_types: list[tuple[int, int]],
    n: int,
    mode: str,
    budget: _Budget,
) -> dict[int, PartialMap] | None:
    if n == 0:
        # PT_0 has one element, the empty map
        return {g: () for g in gens} if s.size == 1 else None
    # succ[x][i] = (x · gens[i]) * n, the start of that element's column
    succ = (s.table[:, gens] * n).tolist()
    gen_of = [-1] * s.size
    for i, g in enumerate(gens):
        gen_of[g] = i
    gen_base = [g * n for g in gens]
    # The action table, flat: T[x * n + p] = p·φ(x), -1 undefined, _UNKNOWN not
    # yet deduced.  occ[q] lists the indices holding q and trail every index
    # set, each in the order they were set, so undoing the trail backwards pops
    # each occ list in reverse too.  A column's completion is checked
    # when an entry of it is processed, after it is set; ``added`` lists the
    # completed columns as (trail length, element, column).
    T = [_UNKNOWN] * (s.size * n)
    occ: list[list[int]] = [[] for _ in range(n)]
    trail: list[int] = []
    columns: set[tuple[int, ...]] = set()  # the complete columns
    in_columns = [False] * s.size
    added: list[tuple[int, int, tuple[int, ...]]] = []

    def deduce(j: int, v: int) -> bool:
        """Set the unknown T[j] = v and every entry that forces; False on a
        clash."""
        T[j] = v
        trail.append(j)
        if v >= 0:
            occ[v].append(j)
        stack = [j]  # set entries whose consequences are still to draw
        while stack:
            j = stack.pop()
            w = T[j]
            x = j // n
            p = j - x * n
            if not in_columns[x]:
                col = tuple(T[x * n : x * n + n])
                if _UNKNOWN not in col:
                    if col in columns:
                        return False
                    columns.add(col)
                    in_columns[x] = True
                    added.append((len(trail), x, col))
            # T[x·g][p] = f_g(w) for every generator g
            for t, b in zip(succ[x], gen_base):
                fw = -1 if w < 0 else T[b + w]
                if fw == _UNKNOWN:
                    continue
                t += p
                cur = T[t]
                if cur == _UNKNOWN:
                    T[t] = fw
                    trail.append(t)
                    if fw >= 0:
                        occ[fw].append(t)
                    stack.append(t)
                elif cur != fw:
                    return False
            i = gen_of[x]
            if i < 0:
                continue
            # the same rule seen from f_i(p) = w, for every T[x2][p2] = p
            for j2 in occ[p]:
                x2 = j2 // n
                t = succ[x2][i] + j2 - x2 * n
                cur = T[t]
                if cur == _UNKNOWN:
                    T[t] = w
                    trail.append(t)
                    if w >= 0:
                        occ[w].append(t)
                    stack.append(t)
                elif cur != w:
                    return False
        return True

    def undo(mark: int) -> None:
        """Reset every entry set since the trail had length ``mark``."""
        while added and added[-1][0] > mark:
            _, x, col = added.pop()
            columns.remove(col)
            in_columns[x] = False
        for j in reversed(trail[mark:]):
            v = T[j]
            if v >= 0:
                occ[v].pop()
            T[j] = _UNKNOWN
        del trail[mark:]

    values = ([-1] if mode != "total" else []) + list(range(n))
    injective = mode == "partial_bijection"
    powers = [prime_powers(t[1]) for t in gen_types]
    last = len(gens) * n

    def rec(u: int) -> bool:
        """Assign unknowns u, u + 1, ...: unknown u is f_i(p), u = i * n + p."""
        if u == last:
            return True
        i, p = divmod(u, n)
        j = gen_base[i] + p
        prefix = T[gen_base[i] : j]
        known = T[j]
        # the fresh-point rule, the prefix-level part of the symmetry break:
        # f_0(p) exceeds by at most one both p and every earlier value of f_0
        top = max(max(prefix, default=-1), p) + 1 if i == 0 else n
        for v in values if known == _UNKNOWN else (known,):
            if v > top:
                break
            if injective and v >= 0 and v in prefix:
                continue
            budget.tick()
            if not feasible(prefix + [v], n, gen_types[i], powers[i]):
                continue
            # the rest of the symmetry break, on the complete f_0
            if u == n - 1 and not is_least_conjugate((*prefix, v)):
                continue
            if known == _UNKNOWN:
                mark = len(trail)
                if deduce(j, v) and rec(u + 1):
                    return True
                undo(mark)
            elif rec(u + 1):
                return True
        return False

    if not rec(0):
        return None
    return {g: tuple(T[b : b + n]) for g, b in zip(gens, gen_base)}


def brute_min_degree(query: OracleQuery) -> OracleResult:
    """Smallest n in [min_n, max_n] admitting an embedding in the chosen mode.

    Exhausts each degree (up to the sound symmetry break) before moving on, so
    a "found" answer is the exact minimum above min_n.  A budget overrun is
    reported as a distinct timeout status, never as "not found"."""
    s = query.semigroup
    if query.mode not in MODES:
        raise SemigroupError(f"unknown oracle mode {query.mode!r}")
    if not 0 <= query.min_n <= query.max_n:
        raise BadParameters(
            f"oracle degrees must satisfy 0 <= min <= max, got min {query.min_n} and max {query.max_n}"
        )
    secs = query.budget_secs if query.budget_secs is not None else DEFAULT_BUDGET_SECS
    if not secs >= 0:  # also rejects nan
        raise BadParameters(f"oracle budget must be a non-negative number of seconds, got {secs!r}")
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
    budget = _Budget(secs)
    status, degree, witness, searched_up_to = "not_found", None, None, query.max_n
    for n in range(query.min_n, query.max_n + 1):
        try:
            witness = _search_degree(s, gens, gen_types, n, query.mode, budget)
        except _Timeout:
            status, searched_up_to = "timeout", n - 1
            break
        if witness is not None:
            if not verify_embedding(s, witness):
                raise InvariantViolated(f"degree-{n} witness is not an embedding")
            status, degree, searched_up_to = "found", n, n
            break
    return OracleResult(status, degree, witness, searched_up_to, budget.nodes)
