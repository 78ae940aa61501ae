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
    class_members,
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
    cols, offs = [], 0
    for p in parts:
        cols.append(np.where(p.maps >= 0, p.maps + offs, UNDEF))
        offs += p.degree
    return PartialAction(degree=offs, maps=np.concatenate(cols, axis=1))


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


def orbits(s: FiniteSemigroup, omega: PartialAction, g: GreensStructure) -> OrbitDecomposition:
    """Strong orbits (equal forward-reachability sets under S^1), their kinds,
    invariance flags, and the apex of each transitive orbit.

    The apex is the unique minimal J-class acting nonemptily on the orbit
    (with the action restricted to the orbit); uniqueness and regularity are
    checked, a violation indicates a bug."""
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
    orbit_of, _ = _partition_from_keys(np.array(comp))

    out: list[Orbit] = []
    for pts in class_members(orbit_of):
        opts = np.asarray(pts)
        member = np.zeros(d + 1, dtype=bool)
        member[opts] = True
        sub = omega.maps[:, opts]  # n x |O|
        inside = (sub >= 0) & member[sub]
        invariant = bool(((sub < 0) | member[sub]).all())
        if len(opts) == 1 and not inside.any():
            out.append(Orbit(points=tuple(pts), kind="null", apex=None, invariant=invariant))
            continue
        acts = np.zeros(len(g.regular), dtype=bool)  # per J-class: acts within the orbit
        acts[g.jclass_of[inside.any(axis=1)]] = True
        jset = np.flatnonzero(acts)
        minimal = jset[~g.jorder_lt[jset[:, None], jset].any(axis=0)]  # nothing acting below
        if len(minimal) != 1:
            raise InvariantViolated(f"orbit has {len(minimal)} minimal acting J-classes")
        apex = int(minimal[0])
        if not g.regular[apex]:
            raise InvariantViolated("apex J-class must be regular")
        out.append(Orbit(points=tuple(pts), kind="transitive", apex=apex, invariant=invariant))
    return OrbitDecomposition(orbit_of=orbit_of, orbits=tuple(out))


# ---------------------------------------------------------------------------
# Compatibility and faithfulness


def is_action(s: FiniteSemigroup, omega: PartialAction) -> tuple[bool, tuple[int, int] | None]:
    """True iff p(xy) = (px)y for all elements x, y and points p, both sides
    undefined together; the witness is the first (x, g), g a generator, where
    it fails.

    Generators suffice: if it holds for y and for g, then p(x(yg)) =
    (p(xy))g = ((px)y)g = (px)(yg), so by induction on the length of y as a
    word in the generators it holds for every y."""
    maps = omega.maps
    for g in s.generators():
        # row x: the map of x·g, and the map of x followed by that of g (an
        # undefined point, -1, picks the appended UNDEF); kept in maps' dtype
        ext = np.append(maps[g], np.array([UNDEF], dtype=maps.dtype))
        bad = (maps[s.table[:, g]] != ext[maps]).any(axis=1)
        if bad.any():
            return False, (int(bad.argmax()), int(g))
    return True, None


def is_faithful(
    s: FiniteSemigroup, omega: PartialAction
) -> tuple[bool, tuple[int, int] | None]:
    """True iff distinct elements induce distinct partial maps; the witness is
    the lowest pair of elements acting identically."""
    class_of, first = _partition_from_keys(omega.maps)
    if len(first) == s.size:
        return True, None
    # the first element that differs from the lowest member of its class
    lowest = first[class_of]
    x = int((lowest != np.arange(s.size)).argmax())
    return False, (int(lowest[x]), x)


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
        e = row.e
        imgs = omega.maps[e, pts]
        fixed = np.zeros(omega.degree, dtype=bool)
        fixed[imgs[imgs >= 0]] = True
        fixed = np.flatnonzero(fixed)
        mj = np.array(row.mj)
        moved = omega.maps[mj[mj != e, None], fixed]  # a row per nontrivial element of M_J
        if not (moved >= 0).all():
            raise InvariantViolated("group element must act totally on the e_J-image")
        if (moved == fixed).all(axis=1).any():
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
    # class ids follow first occurrence: a representative's id exceeds every earlier one
    reps = np.flatnonzero(class_of > np.maximum.accumulate(np.append(-1, class_of[:-1])))
    ext = np.append(class_of, UNDEF)  # index -1 lands on the appended sink slot
    qmaps = ext[omega.maps[:, reps]].astype(np.int32)
    # well-definedness: every point of a class must track its representative,
    # and a point collapsed into the sink the appended UNDEF column
    qext = np.append(qmaps, np.full((s.size, 1), UNDEF, dtype=np.int32), axis=1)
    if not np.array_equal(ext[omega.maps], qext[:, class_of]):
        raise InvariantViolated("Green's congruence is not an action congruence")
    return PartialAction(degree=len(reps), maps=qmaps), class_of
