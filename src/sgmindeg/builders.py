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
from .core import (
    MAX_ELEMENTS,
    FiniteSemigroup,
    PartialMap,
    _adopt_table,
    check_associativity,
    from_table,
    rees_law,
)
from .errors import BadParameters, InvariantViolated, SizeLimitExceeded


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple


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
    """The semigroup of a list of partial maps closed under composition, with
    its natural action; element i is ``all_maps[i]``.

    A map's code reads its images as base-(degree + 1) digits, undefined being
    the digit ``degree``.  The code of ab (apply a first, then b) is built by
    Horner's rule over the points p, one row gather each:
    ``code = code * (degree + 1) + ext.T[ext[:, p]]``, where
    ``ext.T[ext[a, p], b]`` is the image of p under ab."""
    n = len(all_maps)
    act = np.array(all_maps, dtype=np.int32).reshape(n, degree)
    # Undefined becomes the extra point `degree`, fixed by every map.
    ext = np.hstack([np.where(act < 0, degree, act), np.full((n, 1), degree, dtype=np.int32)])
    ext_t = np.ascontiguousarray(ext.T)
    weights = (degree + 1) ** np.arange(degree - 1, -1, -1, dtype=np.int64)
    lookup = np.full((degree + 1) ** degree, -1, dtype=np.int32)
    lookup[ext[:, :degree] @ weights] = np.arange(n, dtype=np.int32)
    code = np.zeros((n, n), dtype=np.int32)  # codes stay below (degree + 1)^degree <= 7^6
    for p in range(degree):
        code *= degree + 1
        code += ext_t[ext[:, p]]
    table = lookup[code]
    if (table < 0).any():
        raise InvariantViolated(f"the maps of {label} are not closed under composition")
    s = _adopt_table(table, validate=False)  # composition is associative
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
# Matrix monoids: binary relations and matrices over small finite fields


def _matrix_table(n: int, add: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """The table of all n x n matrices over the semiring on 0..q-1 with the
    given addition and multiplication tables, each matrix numbered by its
    row-major base-q digits.

    Row i of ab is (row i of a)·b.  So ``rowprod[v, b]``, the code of row
    vector v times b, is computed once for all q^n row vectors v, and the
    table is n row gathers ``rowprod[row_i(a)]``, each shifted to row i's
    digits."""
    q = len(add)
    base = q**n  # a row's code is below base; row i sits at digits i*n .. i*n + n-1
    codes = np.arange(base**n)
    digits = codes[:, None] // q ** np.arange(n * n) % q
    mats = digits.reshape(-1, n, n)  # mats[b, k, j]: entry (k, j) of b
    vecs = digits[:base, :n]  # vecs[v, k]: entry k of row vector v
    acc = np.zeros((base, len(codes), n), dtype=np.int64)
    for k in range(n):
        acc = add[acc, mul[vecs[:, k, None, None], mats[None, :, k, :]]]
    rowprod = (acc @ q ** np.arange(n)).astype(np.int32)
    rows = codes // base ** np.arange(n)[:, None] % base  # rows[i, a]: code of row i of a
    table = rowprod[rows[0]]
    for i in range(1, n):
        table += rowprod[rows[i]] * base**i
    return table


def binary_relations(n: int) -> BuiltSemigroup:
    """B_n, all n x n Boolean matrices under Boolean product (2^(n^2) elements).

    Element index is the row-major bit encoding of the matrix.  Row i of ab is
    the union of the rows k of b with a[i, k] set, so the table is built from
    the codes of (row vector v)·b for all 2^n row vectors v."""
    if not 1 <= n <= 3:
        raise BadParameters("binary_relations needs 1 <= n <= 3")
    boolean_or, boolean_and = np.array([[0, 1], [1, 1]]), np.array([[0, 0], [0, 1]])
    table = _matrix_table(n, boolean_or, boolean_and)
    return BuiltSemigroup(semigroup=_adopt_table(table), natural_action=None, label=f"B_{n}")


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

    Element index is the row-major base-q encoding of the matrix.  Row i of ab
    is the sum over k of a[i, k] times row k of b, so the table is built from
    the codes of (row vector v)·b for all q^n row vectors v."""
    if not 1 <= n <= 3:
        raise BadParameters("matrix_monoid needs 1 <= n <= 3")
    add, mul = _field_tables(q)
    count = q ** (n * n)
    if count > 4096:
        raise BadParameters(f"matrix_monoid({n}, {q}) has {count} elements, beyond desk scale")
    table = _matrix_table(n, add, mul)
    return BuiltSemigroup(
        semigroup=_adopt_table(table), natural_action=None, label=f"M_{n}(F_{q})"
    )


# ---------------------------------------------------------------------------
# Rees matrix semigroups


def _as_group(g: FiniteSemigroup) -> np.ndarray:
    """The table of g, checked to be a group: an identity, every row a
    permutation (so every element has a right inverse) and Light's test."""
    if g.identity is None:
        raise BadParameters("Rees construction needs a group; no identity found")
    t = g.table
    if not (np.sort(t, axis=1) == np.arange(g.size)).all():  # every row a permutation
        raise BadParameters("Rees construction needs a group; an element is not invertible")
    check_associativity(t, g.generators())
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
    s = _adopt_table(table, validate=False)  # M0(G, A, B, C) is associative for every C
    return BuiltSemigroup(semigroup=s, natural_action=None, label=label)


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
    """RB(m, n) on pairs (i, j) with (i, j)(k, l) = (i, l); raises
    SizeLimitExceeded when m·n > MAX_ELEMENTS."""
    if m < 1 or n < 1:
        raise BadParameters("rectangular_band needs positive sizes")
    if m * n > MAX_ELEMENTS:
        raise SizeLimitExceeded(
            f"rectangular band of {m} x {n} = {m * n} elements exceeds the limit of {MAX_ELEMENTS}"
        )
    size = m * n
    i = np.arange(size) // n
    j = np.arange(size) % n
    table = (i[:, None] * n + j[None, :]).astype(np.int32)
    s = _adopt_table(table, validate=False)  # (i, j)(k, l) = (i, l) is associative
    return BuiltSemigroup(semigroup=s, natural_action=None, label=f"RB({m},{n})")


def direct_product(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteSemigroup:
    """S x T, (a, b) numbered a·|T| + b; raises SizeLimitExceeded before any
    table is allocated when |S|·|T| > MAX_ELEMENTS."""
    n1, n2 = s.size, t.size
    if n1 * n2 > MAX_ELEMENTS:
        raise SizeLimitExceeded(
            f"direct product of {n1} x {n2} = {n1 * n2} elements exceeds the limit of {MAX_ELEMENTS}"
        )
    # both tables are int32 and every entry is below n1·n2, so int32 holds it
    table = (s.table[:, None, :, None] * n2 + t.table[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    return _adopt_table(table, validate=False)


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
    return BuiltSemigroup(semigroup=_adopt_table(table), natural_action=None, label=f"chain_{k}")


def cyclic(n: int) -> BuiltSemigroup:
    if not 1 <= n <= 2000:
        raise BadParameters("cyclic needs 1 <= n <= 2000")
    i = np.arange(n)
    table = ((i[:, None] + i[None, :]) % n).astype(np.int32)
    return BuiltSemigroup(semigroup=_adopt_table(table, validate=False), natural_action=None, label=f"C_{n}")


# ---------------------------------------------------------------------------
# Family dispatch (shared by tests and the CLI)


class _NotAnInteger(BadParameters):
    """A family parameter that ``int()`` does not take; ``build`` names the usage."""


def _int(text) -> int:
    try:
        return int(text)
    except ValueError:
        raise _NotAnInteger(f"{str(text)!r} is not an integer") from None


def _group_from_name(name: str) -> FiniteSemigroup:
    name = name.strip()
    if name.startswith("S") and name[1:].isdigit():
        return symmetric_group(int(name[1:])).semigroup
    if name.startswith("C") and name[1:].isdigit():
        return cyclic(int(name[1:])).semigroup
    raise BadParameters(f"unknown group spec {name!r} (use S<n> or C<n>)")


def _ints(text) -> tuple[int, ...]:
    return tuple(_int(v) for v in str(text).split(","))


# family -> (parameter usage, constructor taking one argument per parameter)
BUILDERS = {
    "full_transformation": ("<n>", lambda n: full_transformation(_int(n))),
    "partial_transformation": ("<n>", lambda n: partial_transformation(_int(n))),
    "symmetric_inverse": ("<n>", lambda n: symmetric_inverse(_int(n))),
    "symmetric_group": ("<n>", lambda n: symmetric_group(_int(n))),
    "binary_relations": ("<n>", lambda n: binary_relations(_int(n))),
    "matrix_monoid": ("<n> <q>", lambda n, q: matrix_monoid(_int(n), _int(q))),
    "rectangular_band": ("<m> <n>", lambda m, n: rectangular_band(_int(m), _int(n))),
    "rectangular_group": (
        "<S|C><k> <m> <n>",
        lambda grp, m, n: rectangular_group(_group_from_name(str(grp)), _int(m), _int(n)),
    ),
    "chain_semilattice": ("<k>", lambda k: chain_semilattice(_int(k))),
    "cyclic": ("<n>", lambda n: cyclic(_int(n))),
    "sigma_square": (
        "<n> <comma-separated images of sigma>",
        lambda n, sigma: sigma_square(_int(n), _ints(sigma)),
    ),
    "aggm_01": (
        "<n> <k> <semicolon-separated subsets, each comma-separated>",
        lambda n, k, subsets: aggm_01(
            _int(n), _int(k), [frozenset(_ints(grp)) for grp in str(subsets).split(";")]
        ),
    ),
}
FAMILY_USAGE = {family: usage for family, (usage, _) in BUILDERS.items()}


def build(spec: FamilySpec) -> BuiltSemigroup:
    """The family member named by ``spec``; BadParameters names the usage when
    the parameter count is wrong or a parameter is not an integer."""
    if spec.family not in BUILDERS:
        raise BadParameters(f"unknown family {spec.family!r}")
    usage, make = BUILDERS[spec.family]
    want = make.__code__.co_argcount
    if len(spec.params) != want:
        raise BadParameters(
            f"{spec.family} takes {want} parameter{'s' if want > 1 else ''} "
            f"({spec.family} {usage}), got {len(spec.params)}"
        )
    try:
        return make(*spec.params)
    except _NotAnInteger as exc:
        raise BadParameters(f"{spec.family}: {exc} ({spec.family} {usage})") from None
