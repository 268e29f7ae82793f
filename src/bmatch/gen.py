"""Seeded random instance generation with gap-free degree sets.

Degree sets are built constructively as unions of adjacent parity intervals
(random walks with steps of 1 or 2 from a random start), never by rejection,
so multi-interval vertices occur at a controlled rate and no set ever has a
gap longer than 1.

Every integer is drawn as `Random._randbelow` draws it: k = bit_length(n)
bits from `getrandbits`, drawn again while they read n or more.  So each
value, and the state the stream is left in, equals what `randrange(n)`,
`randint(lo, hi)` and `choice((1, 2))` give on CPython 3.10-3.13, without
their per-call argument checks; `tests/test_gen.py` pins both generators
by digest.
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
    parity intervals).  A negative max_degree raises ValueError.
    """
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    getrandbits = rng.getrandbits
    bits = (max_degree + 1).bit_length()
    start = getrandbits(bits)
    while start > max_degree:
        start = getrandbits(bits)
    values = [start]
    top = start
    while top < max_degree and rng.random() < 0.55:
        if profile == "interval":
            step = 1
        elif profile == "parity":
            step = 2
        else:
            step = getrandbits(2)  # choice((1, 2)): an index below 2
            while step > 1:
                step = getrandbits(2)
            step += 1
        top += step
        if top > max_degree:
            break
        values.append(top)
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

    Raises ValueError when m > 0 edges have no two (or, with loops, one)
    vertices, when m > 0 and weights is an empty range, and when n > 0 and
    profile is unknown.
    """
    if m > 0 and n < (1 if loops else 2):
        raise ValueError(f"cannot place {m} edges with n={n}{'' if loops else ' and no loops'}")
    lo, hi = weights
    if m > 0 and hi < lo:
        raise ValueError(f"empty weight range {weights}")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    vertex_bits = n.bit_length()
    span = hi - lo + 1
    weight_bits = span.bit_length()
    edges = []
    for _ in range(m):
        u = getrandbits(vertex_bits)
        while u >= n:
            u = getrandbits(vertex_bits)
        v = getrandbits(vertex_bits)
        while v >= n or (v == u and not loops):
            v = getrandbits(vertex_bits)
        w = getrandbits(weight_bits)
        while w >= span:
            w = getrandbits(weight_bits)
        edges.append((u, v, lo + w))
    graph = MultiGraph(n, tuple(edges))
    sets = tuple(
        random_degree_set(rng, graph.degree(v), profile) for v in range(n)
    )
    return BInstance(graph, sets, objective)
