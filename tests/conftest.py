from __future__ import annotations

import random

import numpy as np
import pytest

from reference import associative_tables
from sgmindeg import builders
from sgmindeg.action import PartialAction
from sgmindeg.core import from_partial_maps, from_table


NULL2 = [[0, 0], [0, 0]]  # two-element null semigroup {0, a}, a^2 = 0


def random_small_semigroups(count: int, max_order: int = 8, seed: int = 20240817):
    """Closures of random partial maps on up to 4 points, capped at max_order.

    Deterministic given the seed; mixes monoids, semigroups with zero, and
    semigroups with non-regular classes."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 60:
        attempts += 1
        degree = rng.randint(2, 4)
        k = rng.randint(1, 2)
        gens = [
            tuple(rng.randrange(-1, degree) for _ in range(degree)) for _ in range(k)
        ]
        try:
            s, maps = from_partial_maps(degree, gens, max_size=200)
        except Exception:
            continue
        if s.size > max_order:
            continue
        act = PartialAction(
            degree=degree, maps=np.array([list(m) for m in maps], dtype=np.int32)
        )
        out.append((s, act))
    assert len(out) >= count
    return out


@pytest.fixture(scope="session")
def random_corpus():
    return random_small_semigroups(205)


@pytest.fixture(scope="session")
def all_tiny_semigroups():
    """Every associative table on 1, 2 or 3 labelled elements: 1 + 8 + 113."""
    tables = [associative_tables(n) for n in (1, 2, 3)]
    assert [len(t) for t in tables] == [1, 8, 113]
    return [from_table(t) for by_order in tables for t in by_order]


@pytest.fixture(scope="session")
def builder_corpus():
    """The builder families at desk scale, keyed by label."""
    items = [
        builders.full_transformation(2),
        builders.full_transformation(3),
        builders.partial_transformation(2),
        builders.symmetric_inverse(2),
        builders.symmetric_inverse(3),
        builders.binary_relations(2),
        builders.matrix_monoid(2, 2),
        builders.matrix_monoid(2, 3),
        builders.rectangular_band(2, 2),
        builders.rectangular_band(1, 3),
        builders.chain_semilattice(3),
        builders.chain_semilattice(5),
        builders.cyclic(6),
        builders.symmetric_group(3),
        builders.sigma_square(3, (1, 0, 2)),
        builders.sigma_square(3, (0, 1, 2)),
        builders.aggm_01(2, 3, [frozenset({0, 1})]),
    ]
    return {b.label: b for b in items}


@pytest.fixture(scope="session")
def sim2():
    return builders.symmetric_inverse(2).semigroup


@pytest.fixture(scope="session")
def t2():
    return builders.full_transformation(2).semigroup


@pytest.fixture(scope="session")
def m2f2():
    return builders.matrix_monoid(2, 2).semigroup


@pytest.fixture(scope="session")
def b2():
    return builders.binary_relations(2).semigroup


@pytest.fixture(scope="session")
def s2_rb22():
    return builders.rectangular_group(builders.cyclic(2).semigroup, 2, 2).semigroup


@pytest.fixture(scope="session")
def clifford_c4_c2():
    """Chain of groups C_4 -> C_2 with linking map a -> a mod 2 (m = 6)."""
    n = 6
    t = np.zeros((n, n), dtype=int)
    for a in range(4):
        for b in range(4):
            t[a, b] = (a + b) % 4
        for h in range(2):
            t[a, 4 + h] = 4 + (a + h) % 2
            t[4 + h, a] = 4 + (h + a) % 2
    for h in range(2):
        for k in range(2):
            t[4 + h, 4 + k] = 4 + (h + k) % 2
    return from_table(t)
