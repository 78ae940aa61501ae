"""Partial right actions of a finite semigroup on a finite point set.

An action is stored as an |S| x degree array of point indices with -1 for
undefined.  Compatibility means p(st) = (ps)t with both sides simultaneously
undefined or equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteSemigroup,
    GreensStructure,
    ReesCoordinatization,
    _partition_from_keys,
    _strong_components,
    greens,
    min_idempotent_of,
)
from .errors import InvariantViolated, NotIdempotent, NotSemisimpleAction
from .grouptheory import GroupAction

UNDEF = -1


@dataclass(frozen=True)
class PartialAction:
    degree: int
    maps: np.ndarray  # |S| x degree, entries in {-1} u {0..degree-1}

    def is_total(self) -> bool:
        return bool((self.maps >= 0).all())


def coproduct_actions(parts: list[PartialAction]) -> PartialAction:
    if not parts:
        raise ValueError("need at least one action")
    nelem = parts[0].maps.shape[0]
    offs = 0
    cols = []
    for p in parts:
        shifted = np.where(p.maps >= 0, p.maps + offs, UNDEF)
        cols.append(shifted)
        offs += p.degree
    maps = np.concatenate(cols, axis=1) if cols else np.empty((nelem, 0), dtype=np.int32)
    return PartialAction(degree=offs, maps=maps)


# ---------------------------------------------------------------------------
# Strong orbits and apexes


@dataclass(frozen=True)
class Orbit:
    points: tuple[int, ...]
    kind: str  # "transitive" | "null"
    apex: int | None  # J-class id, transitive orbits only
    invariant: bool


@dataclass(frozen=True)
class OrbitDecomposition:
    orbit_of: np.ndarray
    orbits: tuple[Orbit, ...]

    def is_semisimple(self) -> bool:
        return all(o.kind == "transitive" and o.invariant for o in self.orbits)


def orbits(
    s: FiniteSemigroup, omega: PartialAction, g: GreensStructure | None = None
) -> OrbitDecomposition:
    """Strong orbits (equal forward-reachability sets under S^1), their kinds,
    invariance flags, and the apex of each transitive orbit.

    The apex is the unique minimal J-class acting nonemptily on the orbit
    (with the action restricted to the orbit); uniqueness and regularity are
    checked, a violation indicates a bug."""
    if g is None:
        g = greens(s)
    d = omega.degree
    n = s.size
    if d == 0:
        return OrbitDecomposition(orbit_of=np.empty(0, dtype=np.int64), orbits=())

    adj = np.zeros((d, d), dtype=bool)
    pts = np.tile(np.arange(d), n)
    vals = omega.maps.ravel()
    ok = vals >= 0
    adj[pts[ok], vals[ok]] = True

    # a strong orbit is a strongly connected component of the point graph
    comp = _strong_components([[q for q, hit in enumerate(row) if hit] for row in adj.tolist()])
    orbit_of, classes = _partition_from_keys(np.array(comp))

    out: list[Orbit] = []
    for pts_tuple in classes:
        opts = np.asarray(pts_tuple)
        member = np.zeros(d + 1, dtype=bool)
        member[opts] = True
        sub = omega.maps[:, opts]  # n x |O|
        inside = (sub >= 0) & member[sub]
        invariant = bool(((sub < 0) | member[sub]).all())
        if len(opts) == 1 and not inside.any():
            out.append(Orbit(points=pts_tuple, kind="null", apex=None, invariant=invariant))
            continue
        acting = np.flatnonzero(inside.any(axis=1))
        jset = sorted(set(int(j) for j in g.jclass_of[acting]))
        minimal = [j for j in jset if not any(g.jorder_lt[j2, j] for j2 in jset if j2 != j)]
        if len(minimal) != 1:
            raise InvariantViolated(f"orbit has {len(minimal)} minimal acting J-classes")
        apex = minimal[0]
        if not g.regular[apex]:
            raise InvariantViolated("apex J-class must be regular")
        out.append(Orbit(points=pts_tuple, kind="transitive", apex=apex, invariant=invariant))
    return OrbitDecomposition(orbit_of=orbit_of, orbits=tuple(out))


# ---------------------------------------------------------------------------
# Faithfulness


def is_faithful(
    s: FiniteSemigroup, omega: PartialAction
) -> tuple[bool, tuple[int, int] | None]:
    """True iff distinct elements induce distinct partial maps; the witness is
    the lowest pair of elements acting identically."""
    class_of, classes = _partition_from_keys(omega.maps)
    if len(classes) == s.size:
        return True, None
    # the first element that differs from the lowest member of its class
    lowest = np.array([c[0] for c in classes])[class_of]
    first = int((lowest != np.arange(s.size)).argmax())
    return False, (int(lowest[first]), first)


def faithful_by_criterion(
    s: FiniteSemigroup,
    omega: PartialAction,
    g: GreensStructure,
    report,
) -> bool:
    """Faithfulness of a semisimple action of a Rhodes semisimple semigroup,
    decided per irreducible J-class: the points with apex J are nonempty and
    their e_J-image is moved by every nontrivial element of M_J.  Whether S is
    Rhodes semisimple is the caller's to establish."""
    dec = orbits(s, omega, g)
    if not dec.is_semisimple():
        raise NotSemisimpleAction("action has a null or non-invariant strong orbit")

    for j in report.irreducible_ids():
        row = report.per_class[j]
        pts: list[int] = []
        for o in dec.orbits:
            if o.apex == j:
                pts.extend(o.points)
        if not pts:
            return False
        e = min_idempotent_of(g, j)
        imgs = omega.maps[e, pts]
        fixed = np.zeros(omega.degree, dtype=bool)
        fixed[imgs[imgs >= 0]] = True
        fixed = np.flatnonzero(fixed)
        for m in row.mj:
            if m == e:
                continue
            moved = omega.maps[m, fixed]
            if not (moved >= 0).all():
                raise InvariantViolated("group element must act totally on the e_J-image")
            if (moved == fixed).all():
                return False
    return True


# ---------------------------------------------------------------------------
# Tensor with the Schutzenberger representation, in Rees coordinates


def tensor_action(x: GroupAction, r: ReesCoordinatization) -> PartialAction:
    """The partial S-set on X x B induced by a right G_J-set X.

    Point (p, b) moved by s: write t_b s in coordinates (a0, h, b') when it
    stays in the R-class of e (t_b the b-th H-class representative); the image
    is (p.h, b').  Degree is |X| * b_count."""
    s = r.semigroup
    n = s.size
    nb = r.b_count
    r_e = r.triple_to_elem[0]  # r_e[h, b] = (a0, h, b)
    g_of = np.full(n, UNDEF, dtype=np.int32)
    b_of = np.full(n, UNDEF, dtype=np.int32)
    g_of[r_e] = np.arange(r.group_order, dtype=np.int32)[:, None]
    b_of[r_e] = np.arange(nb, dtype=np.int32)
    u = s.table[r_e[0]].T  # u[s, b] = t_b s
    h = g_of[u]
    dest = np.where(h >= 0, x.act[:, h] * nb + b_of[u], UNDEF)  # dest[p, s, b] = (p.h, b')
    npts = x.npoints * nb
    maps = dest.transpose(1, 0, 2).reshape(n, npts).astype(np.int32)  # column p * nb + b
    return PartialAction(degree=npts, maps=maps)


# ---------------------------------------------------------------------------
# Green's congruence and quotient


def greens_congruence_classes(s: FiniteSemigroup, omega: PartialAction, e: int) -> np.ndarray:
    """Per-point class ids of the largest congruence restricting to equality
    on the e-image, or -1 for points equivalent to the undefined sink.

    Two points are equivalent when every t in S^1 e sends them to the same
    point (or leaves both undefined); class ids follow first occurrence.  A
    point all of whose se-translates are undefined is identified with the sink
    (the quotient deletes it); such points never occur in tensor actions.
    """
    if not s.is_idempotent(e):
        raise NotIdempotent(f"element {e} is not idempotent")
    translators = np.zeros(s.size, dtype=bool)
    translators[s.table[:, e]] = True
    translators[e] = True
    translators = np.flatnonzero(translators)
    sig = omega.maps[translators, :].T  # point rows over t in S^1 e
    class_of, _ = _partition_from_keys(sig)
    sink = (sig < 0).all(axis=1)  # these points form one class; drop its id
    sink_id = class_of[np.argmax(sink)] if sink.any() else omega.degree
    return np.where(sink, -1, class_of - (class_of > sink_id))


def greens_quotient(
    s: FiniteSemigroup, omega: PartialAction, e: int
) -> tuple[PartialAction, np.ndarray]:
    """Quotient of the action by the Green's congruence at the idempotent e.

    Returns the quotient action and the point -> class map (-1 for points
    collapsed into the sink).  The restriction to the e-image embeds
    injectively into the quotient."""
    class_of = greens_congruence_classes(s, omega, e)
    k = int(class_of.max()) + 1 if len(class_of) else 0
    reps = np.full(k, -1, dtype=np.int64)
    for p in range(omega.degree):
        c = class_of[p]
        if c >= 0 and reps[c] < 0:
            reps[c] = p

    n = s.size
    ext = np.append(class_of, UNDEF)  # index -1 lands on the appended sink slot
    qmaps = np.full((n, k), UNDEF, dtype=np.int32)
    if k:
        qmaps = ext[omega.maps[:, reps]].astype(np.int32)
    # well-definedness: every point of a class must track its representative
    mapped = ext[omega.maps]  # treats -1 action values as the sink
    for p in range(omega.degree):
        c = class_of[p]
        expected = qmaps[:, c] if c >= 0 else np.full(n, UNDEF, dtype=np.int32)
        if not np.array_equal(mapped[:, p], expected):
            raise InvariantViolated("Green's congruence is not an action congruence")
    return PartialAction(degree=k, maps=qmaps), class_of
