"""Planted-feasible instances: feasible by construction at any size.

A random multigraph is drawn, then a random edge subset F is kept aside as
the plant.  Each degree set B(v) is grown around deg_F(v) by two walks with
steps of 1 or 2, one downwards and one upwards, the same constructive idea
as `bmatch.gen.random_degree_set`.  Every set therefore has no gap longer
than one and contains deg_F(v), so F is a feasible B-matching and the
instance is feasible for all four objectives.
"""

from __future__ import annotations

import random

from bmatch.core import BInstance, DegreeSet, MultiGraph
from bmatch.gen import PROFILES


def _step(rng: random.Random, profile: str) -> int:
    if profile == "interval":
        return 1
    if profile == "parity":
        return 2
    return rng.choice((1, 2))


def planted_degree_set(
    rng: random.Random, target: int, max_degree: int, profile: str
) -> DegreeSet:
    """A gap-free subset of [0, max_degree] that contains target."""
    values = [target]
    while rng.random() < 0.55:
        nxt = values[0] - _step(rng, profile)
        if nxt < 0:
            break
        values.insert(0, nxt)
    while rng.random() < 0.55:
        nxt = values[-1] + _step(rng, profile)
        if nxt > max_degree:
            break
        values.append(nxt)
    return DegreeSet(tuple(values))


def planted_instance(
    seed: int,
    n: int,
    m: int,
    *,
    profile: str = "mixed",
    weights: tuple[int, int] = (1, 1),
    objective: str = "max-card",
) -> tuple[BInstance, frozenset[int]]:
    """A reproducible planted instance and its plant F (edge indices).

    Each edge joins F with probability 1/2.  Loops are allowed and count two
    towards the degree, as in the rest of the package.
    """
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        edges.append((rng.randrange(n), rng.randrange(n), rng.randint(*weights)))
    graph = MultiGraph(n, tuple(edges))
    plant = frozenset(e for e in range(m) if rng.random() < 0.5)
    deg_f = [0] * n
    for e in plant:
        u, v, _w = edges[e]
        deg_f[u] += 1
        deg_f[v] += 1
    sets = tuple(
        planted_degree_set(rng, deg_f[v], graph.degree(v), profile) for v in range(n)
    )
    return BInstance(graph, sets, objective), plant
