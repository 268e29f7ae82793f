import random
from itertools import combinations

import pytest

from bmatch.blossom import max_weight_perfect_matching
from bmatch.core import (
    Matching,
    MultiGraph,
    matching_weight,
)
from bmatch.reduce import (
    ABInstance,
    BadSpec,
    BoundsError,
    ab_to_pm,
    embed_ab_matching,
    lift,
    uniform_to_ab,
)


def all_ab_matchings(ab: ABInstance):
    g = ab.graph
    for k in range(g.edge_count + 1):
        for combo in combinations(range(g.edge_count), k):
            deg = [0] * g.vertex_count
            for e in combo:
                u, v, _w = g.edges[e]
                deg[u] += 1 if u != v else 2
                deg[v] += 1 if u != v else 0
            if all(ab.a[v] <= deg[v] <= ab.b[v] for v in range(g.vertex_count)):
                yield Matching(frozenset(combo))


def all_perfect_matchings(g):
    incident = [[] for _ in range(g.vertex_count)]
    for e, (u, v, _w) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)

    def walk(v, used, chosen):
        while v < g.vertex_count and v in used:
            v += 1
        if v == g.vertex_count:
            yield frozenset(chosen)
            return
        for e in incident[v]:
            a, b, _w = g.edges[e]
            other = b if a == v else a
            if other in used:
                continue
            used.update((v, other))
            chosen.append(e)
            yield from walk(v + 1, used, chosen)
            chosen.pop()
            used.difference_update((v, other))

    yield from walk(0, set(), [])


def random_ab(rng: random.Random, n: int, m: int) -> ABInstance:
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v, rng.randint(-4, 4)))
    g = MultiGraph(n, tuple(edges))
    a = []
    b = []
    for v in range(n):
        lo = rng.randint(0, max(0, g.degree(v) // 2))
        hi = rng.randint(lo, g.degree(v))
        a.append(lo)
        b.append(hi)
    return ABInstance(g, tuple(a), tuple(b))


# -- specs --------------------------------------------------------------------


def test_uniform_to_ab_checks_each_run_at_its_bounds():
    # vertex 0 has degree 5 (a loop and three edges), vertex 1 degree 1
    g = MultiGraph(4, ((0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1)))
    rest = (range(0, 2),) * 3
    for bad in (range(3, 3), range(-1, 2), range(0, 6, 3), range(1, 7), range(2, 7, 2)):
        with pytest.raises(BadSpec):
            uniform_to_ab(g, (bad, *rest))
    for good in (range(0, 6), range(1, 6, 2), range(5, 6)):
        assert uniform_to_ab(g, (good, *rest)).b[0] == 5
    for k in range(6):
        assert uniform_to_ab(g, (range(k, k + 1), *rest)) == uniform_to_ab(
            g, (range(k, k + 1, 2), *rest)
        )


def test_uniform_to_ab_rejects_mismatched_spec():
    g = MultiGraph(2, ((0, 1, 1),))
    with pytest.raises(BadSpec):
        uniform_to_ab(g, (range(0, 2),))
    with pytest.raises(BadSpec):
        uniform_to_ab(g, (range(0, 3), range(0, 2)))
    with pytest.raises(BadSpec):
        uniform_to_ab(g, (range(0, 3, 2), range(0, 2)))


def test_uniform_to_ab_interval_is_identity():
    g = MultiGraph(2, ((0, 1, 3),))
    ab = uniform_to_ab(g, (range(0, 2), range(1, 2)))
    assert ab.graph.edges == g.edges
    assert ab.a == (0, 1) and ab.b == (1, 1)


def test_uniform_to_ab_parity_pins_to_hi_with_loops():
    g = MultiGraph(1, ((0, 0, 5), (0, 0, 2)))
    ab = uniform_to_ab(g, (range(0, 5, 2),))
    assert ab.a == (4,) and ab.b == (4,)
    assert ab.graph.edge_count == 4  # two originals + (4 - 0) / 2 gadget loops
    gadgets = range(g.edge_count, ab.graph.edge_count)
    assert len(gadgets) == 2
    assert all(ab.graph.edges[e] == (0, 0, 0) for e in gadgets)


def test_lift_drops_gadget_edges():
    g = MultiGraph(1, ((0, 0, 5),))
    ab = uniform_to_ab(g, (range(0, 3, 2),))
    # selecting the original loop and no gadget loop lifts to {0}
    for sel in all_ab_matchings(ab):
        lifted = lift(g.edge_count, sel)
        assert lifted.selected <= {0}


# -- perfect-matching gadget ---------------------------------------------------


def test_path_with_exact_degree_one_everywhere_is_infeasible():
    g = MultiGraph(3, ((0, 1, 1), (1, 2, 1)))
    ab = ABInstance(g, (1, 1, 1), (1, 1, 1))
    assert list(all_ab_matchings(ab)) == []
    reduced, _source_edges = ab_to_pm(ab)
    assert max_weight_perfect_matching(reduced) is None


def test_single_edge_exact_matching():
    g = MultiGraph(2, ((0, 1, 9),))
    ab = ABInstance(g, (1, 1), (1, 1))
    reduced, source_edges = ab_to_pm(ab)
    pm = max_weight_perfect_matching(reduced)
    assert pm is not None
    assert lift(source_edges, pm.selected) == Matching(frozenset({0}))


def test_source_edges_keep_their_indices():
    g = MultiGraph(3, ((0, 1, 4), (1, 2, -2), (0, 2, 1)))
    ab = ABInstance(g, (0, 0, 0), (1, 2, 1))
    reduced, source_edges = ab_to_pm(ab)
    assert source_edges == g.edge_count
    for e in range(g.edge_count):
        u2, v2, w = reduced.edges[e]
        assert (u2, v2) == (2 * e, 2 * e + 1)
        assert w == g.edges[e][2]


def test_gadget_layout_bounds_check():
    g = MultiGraph(2, ((0, 1, 1),))
    with pytest.raises(BoundsError):
        ABInstance(g, (0, 0), (2, 1))


def test_gadget_edge_count_and_pool_path():
    # Source edges, the vertex gadgets' (d - a) * d, two spokes from each of
    # the C pool-connected internals, and a pool path of L - 1 edges over
    # L = 2C + pad pool nodes, pad = (C + sum(b)) mod 2.
    rng = random.Random(5)
    long_pools = 0
    for _ in range(100):
        ab = random_ab(rng, rng.randint(1, 6), rng.randint(0, 12))
        g = ab.graph
        reduced, _source_edges = ab_to_pm(ab)
        pool = ab.layout.pool
        connected = ab.layout.pool_connected
        c = sum(b - a for a, b in zip(ab.a, ab.b))
        assert len(connected) == c
        assert len(pool) == 2 * c + (c + sum(ab.b)) % 2
        vertex_gadgets = sum(
            (g.degree(v) - ab.a[v]) * g.degree(v) for v in range(g.vertex_count)
        )
        path = max(len(pool) - 1, 0)
        assert len(reduced.edges) == g.edge_count + vertex_gadgets + 2 * c + path
        spokes = reduced.edges[g.edge_count + vertex_gadgets :][: 2 * c]
        assert spokes == tuple(
            (i, pool[2 * t + k], 0) for t, i in enumerate(connected) for k in (0, 1)
        )
        tail = reduced.edges[len(reduced.edges) - path :]
        assert tail == tuple((p, q, 0) for p, q in zip(pool, pool[1:]))
        long_pools += len(pool) >= 3
    assert long_pools > 20


@pytest.mark.parametrize("pad", [0, 1])
def test_chain_pairs_up_exactly_at_the_pad_parity(pad):
    # Vertex 0 has C pool-connected internals; vertex 1 has none.  The pool
    # with the escapees S ⊆ {0..C-1} left in, every other internal taken
    # by its own vertex gadget, has a perfect matching iff |S| = pad mod 2.
    for c in range(7):
        g = MultiGraph(2, ((0, 1, 0),) * (c + 1))
        ab = ABInstance(g, (pad, 0), (pad + c, 0))
        assert len(ab.layout.pool) == 2 * c + pad
        reduced, _source_edges = ab_to_pm(ab)
        pool = set(ab.layout.pool)
        chain = [(u, v) for u, v, _w in reduced.edges if u in pool or v in pool]
        for k in range(c + 1):
            for escapees in combinations(ab.layout.pool_connected, k):
                index = {x: i for i, x in enumerate(sorted(pool | set(escapees)))}
                left = MultiGraph(len(index), tuple(
                    (index[u], index[v], 0) for u, v in chain if u in index and v in index
                ))
                found = next(all_perfect_matchings(left), None) is not None
                assert found == (k % 2 == pad)


def test_embed_then_lift_roundtrip():
    rng = random.Random(7)
    for _ in range(60):
        ab = random_ab(rng, rng.randint(1, 4), rng.randint(0, 5))
        for matching in all_ab_matchings(ab):
            embedded = embed_ab_matching(ab, matching)
            reduced, source_edges = ab_to_pm(ab)
            ends = [0] * reduced.vertex_count
            for e in embedded:
                u, v, _w = reduced.edges[e]
                ends[u] += 1
                ends[v] += 1
            assert all(c == 1 for c in ends), "embedding must be a perfect matching"
            assert lift(source_edges, embedded) == matching


def test_tolerant_embedding_exposes_only_what_the_bounds_force():
    rng = random.Random(17)
    for _ in range(200):
        ab = random_ab(rng, rng.randint(1, 5), rng.randint(0, 7))
        g = ab.graph
        reduced, source_edges = ab_to_pm(ab)
        for _ in range(5):
            matching = Matching(
                frozenset(e for e in range(g.edge_count) if rng.random() < 0.5)
            )
            embedded = embed_ab_matching(ab, matching)
            ends = [0] * reduced.vertex_count
            for e in embedded:
                u, v, _w = reduced.edges[e]
                ends[u] += 1
                ends[v] += 1
            assert max(ends, default=0) <= 1, "must be a matching of the gadget"
            lifted = lift(source_edges, embedded)
            assert matching.selected <= lifted.selected
            for e in lifted.selected - matching.selected:
                assert g.edges[e][0] == g.edges[e][1], "only loops are added"
            # One exposed node per unit of bound violation, plus a pool node
            # to make the count even.
            deg = [0] * g.vertex_count
            for e in lifted.selected:
                u, v, _w = g.edges[e]
                deg[u] += 1
                deg[v] += 1
            missed = sum(
                max(ab.a[v] - d, d - ab.b[v], 0) for v, d in enumerate(deg)
            )
            assert ends.count(0) == missed + missed % 2


def test_reduced_optimum_matches_ab_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        ab = random_ab(rng, rng.randint(1, 4), rng.randint(0, 5))
        reduced, source_edges = ab_to_pm(ab)
        pm = max_weight_perfect_matching(reduced)
        feasible = list(all_ab_matchings(ab))
        if not feasible:
            assert pm is None
            continue
        assert pm is not None
        best = max(matching_weight(ab.graph, f) for f in feasible)
        lifted = lift(source_edges, pm.selected)
        assert lifted in feasible
        assert matching_weight(ab.graph, lifted) == best == matching_weight(reduced, pm)


def test_pool_parity_invariant_exhaustive():
    rng = random.Random(13)
    done = 0
    while done < 12:
        ab = random_ab(rng, rng.randint(1, 3), rng.randint(1, 3))
        reduced, _source_edges = ab_to_pm(ab)
        if reduced.vertex_count > 14:
            continue
        pool = set(ab.layout.pool)
        internals = {x for group in ab.layout.internals_at for x in group}
        pms = list(all_perfect_matchings(reduced))
        if not pms:
            continue
        done += 1
        for pm in pms:
            crossing = 0
            for e in pm:
                u, v, _w = reduced.edges[e]
                if (u in pool) != (v in pool):
                    assert (u in internals) or (v in internals)
                    crossing += 1
            assert crossing % 2 == sum(ab.a) % 2


def test_lifted_matchings_partition_perfect_matchings():
    # one-to-one on classes: every PM lifts to a feasible matching, and every
    # feasible matching is the lift of at least one PM
    g = MultiGraph(2, ((0, 1, 1), (0, 1, 1)))
    ab = ABInstance(g, (0, 0), (1, 1))
    reduced, source_edges = ab_to_pm(ab)
    lifted = {lift(source_edges, pm) for pm in all_perfect_matchings(reduced)}
    assert lifted == set(all_ab_matchings(ab))
