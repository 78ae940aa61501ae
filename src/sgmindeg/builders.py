"""Constructors for the standard example families used by tests and the CLI.

Transformation families come with their natural point action.  Matrix monoids
use explicit finite-field tables for q in {2, 3, 4, 5}; element indices are
the row-major base-q (or base-(n+1), or bit) encodings, so the numbering is
canonical and stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .action import PartialAction
from .core import MAX_ELEMENTS, FiniteSemigroup, PartialMap, from_table, rees_law
from .errors import BadParameters, InvariantViolated, SizeLimitExceeded


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple

    def label(self) -> str:
        return f"{self.family}({', '.join(str(p) for p in self.params)})"


@dataclass(frozen=True)
class BuiltSemigroup:
    semigroup: FiniteSemigroup
    natural_action: PartialAction | None
    label: str


# ---------------------------------------------------------------------------
# Transformation families


def _semigroup_from_all_maps(
    all_maps: list[PartialMap], degree: int, label: str
) -> BuiltSemigroup:
    n = len(all_maps)
    act = np.array(all_maps, dtype=np.int32).reshape(n, degree)
    # Undefined becomes the extra point `degree`, fixed by every map.
    ext = np.hstack([np.where(act < 0, degree, act), np.full((n, 1), degree, dtype=np.int32)])
    # products[a, b, p] = ext[b, ext[a, p]]: apply a first, then b
    products = ext[np.arange(n)[None, :, None], ext[:, None, :degree]]
    # a map is found by its images read as base-(degree + 1) digits
    weights = (degree + 1) ** np.arange(degree - 1, -1, -1, dtype=np.int64)
    lookup = np.full((degree + 1) ** degree, -1, dtype=np.int32)
    lookup[ext[:, :degree] @ weights] = np.arange(n, dtype=np.int32)
    table = lookup[products @ weights]
    if (table < 0).any():
        raise InvariantViolated(f"the maps of {label} are not closed under composition")
    s = from_table(table, validate=False)  # composition is associative
    return BuiltSemigroup(
        semigroup=s, natural_action=PartialAction(degree=degree, maps=act), label=label
    )


def full_transformation(n: int) -> BuiltSemigroup:
    """T_n, all total maps on n points (n^n elements)."""
    if not 1 <= n <= 4:
        raise BadParameters("full_transformation needs 1 <= n <= 4")
    maps = [tuple(m) for m in itertools.product(range(n), repeat=n)]
    return _semigroup_from_all_maps(maps, n, f"T_{n}")


def partial_transformation(n: int) -> BuiltSemigroup:
    """PT_n, all partial maps on n points ((n+1)^n elements)."""
    if not 1 <= n <= 4:
        raise BadParameters("partial_transformation needs 1 <= n <= 4")
    maps = [tuple(m) for m in itertools.product(range(-1, n), repeat=n)]
    return _semigroup_from_all_maps(maps, n, f"PT_{n}")


def symmetric_inverse(n: int) -> BuiltSemigroup:
    """SIM_n, all partial bijections on n points."""
    if not 1 <= n <= 4:
        raise BadParameters("symmetric_inverse needs 1 <= n <= 4")
    maps = []
    for m in itertools.product(range(-1, n), repeat=n):
        defined = [v for v in m if v >= 0]
        if len(defined) == len(set(defined)):
            maps.append(tuple(m))
    return _semigroup_from_all_maps(maps, n, f"SIM_{n}")


def symmetric_group(n: int) -> BuiltSemigroup:
    """S_n as a permutation semigroup; the identity permutation has index 0."""
    if not 1 <= n <= 6:
        raise BadParameters("symmetric_group needs 1 <= n <= 6")
    maps = [tuple(p) for p in itertools.permutations(range(n))]
    return _semigroup_from_all_maps(maps, n, f"S_{n}")


# ---------------------------------------------------------------------------
# Binary relations


def binary_relations(n: int) -> BuiltSemigroup:
    """B_n, all n x n Boolean matrices under Boolean product (2^(n^2) elements).

    Element index is the row-major bit encoding of the matrix."""
    if not 1 <= n <= 3:
        raise BadParameters("binary_relations needs 1 <= n <= 3")
    count = 1 << (n * n)
    bits = ((np.arange(count)[:, None] >> np.arange(n * n)[None, :]) & 1).astype(bool)
    mats = bits.reshape(count, n, n)
    weights = (1 << np.arange(n * n)).reshape(n, n)
    table = np.empty((count, count), dtype=np.int32)
    for a in range(count):
        prods = np.einsum("ik,mkj->mij", mats[a], mats) > 0
        table[a] = (prods * weights).sum(axis=(1, 2))
    return BuiltSemigroup(semigroup=from_table(table, validate=True), natural_action=None, label=f"B_{n}")


# ---------------------------------------------------------------------------
# Matrix monoids over small finite fields


def _field_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    if q in (2, 3, 5):
        a = np.arange(q)
        return (a[:, None] + a[None, :]) % q, (a[:, None] * a[None, :]) % q
    if q == 4:
        add = np.bitwise_xor(np.arange(4)[:, None], np.arange(4)[None, :])
        mul = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
        return add, mul
    raise BadParameters(f"unsupported field size {q} (supported: 2, 3, 4, 5)")


def matrix_monoid(n: int, q: int) -> BuiltSemigroup:
    """M_n(F_q), all n x n matrices over the q-element field.

    Element index is the row-major base-q encoding of the matrix."""
    if not 1 <= n <= 3:
        raise BadParameters("matrix_monoid needs 1 <= n <= 3")
    add, mul = _field_tables(q)
    count = q ** (n * n)
    if count > 4096:
        raise BadParameters(f"matrix_monoid({n}, {q}) has {count} elements, beyond desk scale")
    digits = (np.arange(count)[:, None] // (q ** np.arange(n * n))[None, :]) % q
    mats = digits.reshape(count, n, n).astype(np.int8)
    weights = (q ** np.arange(n * n)).reshape(n, n)
    table = np.empty((count, count), dtype=np.int32)
    for a in range(count):
        acc = np.zeros((count, n, n), dtype=np.int8)
        x = mats[a]
        for k in range(n):
            term = mul[x[:, k][None, :, None], mats[:, k, :][:, None, :]]
            acc = add[acc, term]
        table[a] = (acc.astype(np.int64) * weights).sum(axis=(1, 2))
    return BuiltSemigroup(
        semigroup=from_table(table, validate=True), natural_action=None, label=f"M_{n}(F_{q})"
    )


# ---------------------------------------------------------------------------
# Rees matrix semigroups


def _as_group(g: FiniteSemigroup) -> np.ndarray:
    if g.identity is None:
        raise BadParameters("Rees construction needs a group; no identity found")
    t = g.table
    if not (np.sort(t, axis=1) == np.arange(g.size)).all():  # every row a permutation
        raise BadParameters("Rees construction needs a group; an element is not invertible")
    return t


def rees_matrix(
    group: FiniteSemigroup,
    sandwich: np.ndarray | list,
    adjoin_zero: bool,
) -> BuiltSemigroup:
    """M(G, A, B, C) or M0(G, A, B, C) from a B x A sandwich matrix.

    Sandwich entries: 0 denotes the zero (only with adjoin_zero), and k >= 1
    denotes the group element with index k - 1.  Every row and column must
    contain a nonzero entry.  Element 0 is the adjoined zero when present;
    the triple (a, g, b) sits at index z + a*|G|*|B| + g*|B| + b."""
    c = np.array(sandwich, dtype=np.int64)
    if c.ndim != 2:
        raise BadParameters("sandwich matrix must be two-dimensional")
    m = group.size
    nb, na = c.shape
    z = 1 if adjoin_zero else 0
    size = z + na * m * nb
    if size > MAX_ELEMENTS:
        raise SizeLimitExceeded(
            f"Rees matrix semigroup of {size} elements exceeds the limit of {MAX_ELEMENTS}"
        )
    gt = _as_group(group)
    if c.min() < 0 or c.max() > m:
        raise BadParameters("sandwich entries must be 0 or 1-based group element indices")
    if not adjoin_zero and (c == 0).any():
        raise BadParameters("a zero sandwich entry requires adjoin_zero")
    if not (c.any(axis=0).all() and c.any(axis=1).all()):
        raise BadParameters("every sandwich row and column needs a nonzero entry")

    prods = rees_law(gt, c, np.arange(size - z))
    prods += z  # a zero product, -1, becomes element 0 (c has zeros only with adjoin_zero)
    table = np.zeros((size, size), dtype=np.int32)
    table[z:, z:] = prods
    label = f"M{'0' if adjoin_zero else ''}(|G|={m},{na}x{nb})"
    return BuiltSemigroup(semigroup=from_table(table, validate=True), natural_action=None, label=label)


def sigma_square(n: int, sigma: tuple[int, ...]) -> BuiltSemigroup:
    """The simple semigroup M(S_n, 2, 2, [[1, 1], [1, sigma]])."""
    g = symmetric_group(n)
    perm = tuple(int(v) for v in sigma)
    if sorted(perm) != list(range(n)):
        raise BadParameters(f"sigma must be a permutation of 0..{n - 1}")
    maps = [tuple(p) for p in itertools.permutations(range(n))]
    sidx = maps.index(perm)
    c = [[1, 1], [1, sidx + 1]]
    built = rees_matrix(g.semigroup, c, adjoin_zero=False)
    return BuiltSemigroup(
        semigroup=built.semigroup, natural_action=None, label=f"M(S_{n},2,2;sigma={perm})"
    )


def aggm_01(n: int, k: int, subsets: list[frozenset[int]] | list[set[int]]) -> BuiltSemigroup:
    """M0(1, [k], [n], [I_n | X]) where the extra columns are the characteristic
    vectors of the given subsets of {0..n-1}, each of size at least 2."""
    if n < 1 or k != n + len(subsets):
        raise BadParameters("need k = n + number of subsets")
    seen = set()
    cols = []
    for x in subsets:
        fs = frozenset(int(v) for v in x)
        if not fs <= set(range(n)) or len(fs) < 2:
            raise BadParameters("subsets must lie in 0..n-1 and have size >= 2")
        if fs in seen:
            raise BadParameters("subsets must be distinct")
        seen.add(fs)
        cols.append(fs)
    c = np.zeros((n, k), dtype=np.int64)
    for i in range(n):
        c[i, i] = 1
    for jcol, fs in enumerate(cols):
        for i in fs:
            c[i, n + jcol] = 1
    trivial = from_table([[0]])
    built = rees_matrix(trivial, c, adjoin_zero=True)
    return BuiltSemigroup(semigroup=built.semigroup, natural_action=None, label=f"AGGM[I_{n}|X] k={k}")


# ---------------------------------------------------------------------------
# Bands, products, chains, cyclic groups


def rectangular_band(m: int, n: int) -> BuiltSemigroup:
    """RB(m, n) on pairs (i, j) with (i, j)(k, l) = (i, l)."""
    if m < 1 or n < 1 or m * n > MAX_ELEMENTS:
        raise BadParameters(f"rectangular_band needs positive sizes with m*n <= {MAX_ELEMENTS}")
    size = m * n
    i = np.arange(size) // n
    j = np.arange(size) % n
    table = (i[:, None] * n + j[None, :]).astype(np.int32)
    return BuiltSemigroup(semigroup=from_table(table), natural_action=None, label=f"RB({m},{n})")


def direct_product(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteSemigroup:
    n1, n2 = s.size, t.size
    table = (
        s.table[:, None, :, None].astype(np.int64) * n2 + t.table[None, :, None, :]
    ).reshape(n1 * n2, n1 * n2)
    return from_table(table.astype(np.int32), validate=False)


def rectangular_group(group: FiniteSemigroup, m: int, n: int) -> BuiltSemigroup:
    """G x RB(m, n)."""
    rb = rectangular_band(m, n)
    _as_group(group)
    prod = direct_product(group, rb.semigroup)
    return BuiltSemigroup(semigroup=prod, natural_action=None, label=f"Gx{rb.label}")


def chain_semilattice(k: int) -> BuiltSemigroup:
    """k commuting idempotents in a chain; element 0 is the bottom (a zero)."""
    if not 1 <= k <= 64:
        raise BadParameters("chain_semilattice needs 1 <= k <= 64")
    i = np.arange(k)
    table = np.minimum(i[:, None], i[None, :]).astype(np.int32)
    return BuiltSemigroup(semigroup=from_table(table), natural_action=None, label=f"chain_{k}")


def cyclic(n: int) -> BuiltSemigroup:
    if not 1 <= n <= 2000:
        raise BadParameters("cyclic needs 1 <= n <= 2000")
    i = np.arange(n)
    table = ((i[:, None] + i[None, :]) % n).astype(np.int32)
    return BuiltSemigroup(semigroup=from_table(table, validate=False), natural_action=None, label=f"C_{n}")


# ---------------------------------------------------------------------------
# Family dispatch (shared by tests and the CLI)


def _group_from_name(name: str) -> FiniteSemigroup:
    name = name.strip()
    if name.startswith("S") and name[1:].isdigit():
        return symmetric_group(int(name[1:])).semigroup
    if name.startswith("C") and name[1:].isdigit():
        return cyclic(int(name[1:])).semigroup
    raise BadParameters(f"unknown group spec {name!r} (use S<n> or C<n>)")


def _ints(text) -> tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(","))


# family -> (parameter usage, constructor taking one argument per parameter)
BUILDERS = {
    "full_transformation": ("<n>", lambda n: full_transformation(int(n))),
    "partial_transformation": ("<n>", lambda n: partial_transformation(int(n))),
    "symmetric_inverse": ("<n>", lambda n: symmetric_inverse(int(n))),
    "symmetric_group": ("<n>", lambda n: symmetric_group(int(n))),
    "binary_relations": ("<n>", lambda n: binary_relations(int(n))),
    "matrix_monoid": ("<n> <q>", lambda n, q: matrix_monoid(int(n), int(q))),
    "rectangular_band": ("<m> <n>", lambda m, n: rectangular_band(int(m), int(n))),
    "rectangular_group": (
        "<S|C><k> <m> <n>",
        lambda grp, m, n: rectangular_group(_group_from_name(str(grp)), int(m), int(n)),
    ),
    "chain_semilattice": ("<k>", lambda k: chain_semilattice(int(k))),
    "cyclic": ("<n>", lambda n: cyclic(int(n))),
    "sigma_square": (
        "<n> <comma-separated images of sigma>",
        lambda n, sigma: sigma_square(int(n), _ints(sigma)),
    ),
    "aggm_01": (
        "<n> <k> <semicolon-separated subsets, each comma-separated>",
        lambda n, k, subsets: aggm_01(
            int(n), int(k), [frozenset(_ints(grp)) for grp in str(subsets).split(";")]
        ),
    ),
}
FAMILY_USAGE = {family: usage for family, (usage, _) in BUILDERS.items()}


def build(spec: FamilySpec) -> BuiltSemigroup:
    """The family member named by ``spec``; BadParameters names the usage when
    the parameter count is wrong."""
    if spec.family not in BUILDERS:
        raise BadParameters(f"unknown family {spec.family!r}")
    usage, make = BUILDERS[spec.family]
    want = make.__code__.co_argcount
    if len(spec.params) != want:
        raise BadParameters(
            f"{spec.family} takes {want} parameter{'s' if want > 1 else ''} "
            f"({spec.family} {usage}), got {len(spec.params)}"
        )
    return make(*spec.params)
