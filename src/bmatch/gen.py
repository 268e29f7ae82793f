"""Seeded random instance generation with gap-free degree sets.

Degree sets are built constructively as unions of adjacent parity intervals
(random walks with steps of 1 or 2 from a random start), never by rejection,
so multi-interval vertices occur at a controlled rate and no set ever has a
gap longer than 1.
"""

from __future__ import annotations

import random

from bmatch.core import BInstance, DegreeSet, MultiGraph

PROFILES = ("interval", "parity", "mixed")


def random_degree_set(
    rng: random.Random, max_degree: int, profile: str = "mixed"
) -> DegreeSet:
    """A nonempty subset of [0, max_degree] whose sorted gaps are all <= 2.

    profile selects the step distribution of the constructive walk:
    'interval' uses steps of 1 (one dense run), 'parity' steps of 2 (one
    parity class run), 'mixed' picks each step at random (several adjacent
    parity intervals).
    """
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    start = rng.randint(0, max_degree)
    values = [start]
    while values[-1] < max_degree and rng.random() < 0.55:
        if profile == "interval":
            step = 1
        elif profile == "parity":
            step = 2
        else:
            step = rng.choice((1, 2))
        if values[-1] + step > max_degree:
            break
        values.append(values[-1] + step)
    return DegreeSet(tuple(values))


def random_instance(
    seed: int,
    n: int,
    m: int,
    *,
    profile: str = "mixed",
    weights: tuple[int, int] = (1, 1),
    loops: bool = True,
    objective: str = "max-card",
) -> BInstance:
    """A reproducible random instance: same arguments, same instance.

    Raises ValueError when m > 0 edges have no two (or, with loops, one) vertices.
    """
    if m > 0 and n < (1 if loops else 2):
        raise ValueError(f"cannot place {m} edges with n={n}{'' if loops else ' and no loops'}")
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if not loops:
            while v == u:
                v = rng.randrange(n)
        edges.append((u, v, rng.randint(weights[0], weights[1])))
    graph = MultiGraph(n, tuple(edges))
    sets = tuple(
        random_degree_set(rng, graph.degree(v), profile) for v in range(n)
    )
    return BInstance(graph, sets, objective)
