import random
from itertools import combinations, product

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
    ab_to_pm,
    lift,
    uniform_to_ab,
)

from conftest import ab_degrees, degree_subsets


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
    step = []
    for v in range(n):
        lo = rng.randint(0, max(0, g.degree(v) // 2))
        hi = rng.randint(lo, g.degree(v))
        a.append(lo)
        b.append(hi)
        step.append(2 if (hi - lo) % 2 == 0 and rng.random() < 0.5 else 1)
    return ABInstance(g, tuple(a), tuple(b), tuple(step))


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


def test_uniform_to_ab_keeps_a_parity_run_as_bounds_and_a_step():
    g = MultiGraph(1, ((0, 0, 5), (0, 0, 2)))
    ab = uniform_to_ab(g, (range(0, 5, 2),))
    assert ab.graph == g
    assert (ab.a, ab.b, ab.step) == ((0,), (4,), (2,))
    with pytest.raises(ValueError):
        ABInstance(g, (0,), (3,), (2,))


def test_lift_drops_gadget_edges():
    g = MultiGraph(2, ((0, 0, 5), (0, 1, 1), (0, 1, 2)))
    ab = uniform_to_ab(g, (range(0, 5, 2), range(0, 3)))
    reduced, source_edges = ab_to_pm(ab)
    assert source_edges == g.edge_count < reduced.edge_count
    lifted = {lift(source_edges, pm) for pm in all_perfect_matchings(reduced)}
    assert lifted == set(degree_subsets(ab.graph, ab_degrees(ab)))


# -- perfect-matching gadget ---------------------------------------------------


def test_path_with_exact_degree_one_everywhere_is_infeasible():
    g = MultiGraph(3, ((0, 1, 1), (1, 2, 1)))
    ab = ABInstance(g, (1, 1, 1), (1, 1, 1))
    assert list(degree_subsets(ab.graph, ab_degrees(ab))) == []
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
    with pytest.raises(BadSpec, match="upper bound 2 exceeds degree 1 at vertex 0"):
        ABInstance(g, (0, 0), (2, 1))


def band_width(j: int, a: int, b: int) -> int:
    """Externals joined to internal j of a vertex with bounds (a, b):
    positions j - (b - a), or 0, through j + a."""
    return j + a + 1 - max(0, j - (b - a))


def test_gadget_edge_count_and_pool_path():
    # Source edges, then per vertex its band edges, a pair edge per two of
    # its b - a optional internals and, for a dense vertex with b > a, two
    # spokes from each even-indexed optional internal to its own pool
    # pair; last a pool path of L - 1 edges over L = 2D + pad pool nodes,
    # D such dense vertices and pad = sum(a) mod 2.
    rng = random.Random(5)
    long_pools = parity_vertices = 0
    for _ in range(100):
        ab = random_ab(rng, rng.randint(1, 6), rng.randint(0, 12))
        g = ab.graph
        layout = ab.layout
        reduced, _source_edges = ab_to_pm(ab)
        pool = layout.pool
        dense = [v for v in range(g.vertex_count) if ab.step[v] == 1 and ab.a[v] < ab.b[v]]
        assert len(pool) == 2 * len(dense) + sum(ab.a) % 2
        optional = [layout.internals_at[v][: ab.b[v] - ab.a[v]] for v in range(g.vertex_count)]
        pairs = [(x, y) for o in optional for x, y in zip(o[::2], o[1::2])]
        spokes = [
            (x, q)
            for t, v in enumerate(dense)
            for x in optional[v][::2]
            for q in pool[2 * t : 2 * t + 2]
        ]
        bands = sum(
            band_width(j, ab.a[v], ab.b[v])
            for v in range(g.vertex_count)
            for j in range(g.degree(v) - ab.a[v])
        )
        path = max(len(pool) - 1, 0)
        assert len(reduced.edges) == g.edge_count + bands + len(pairs) + len(spokes) + path
        internal = {x for group in layout.internals_at for x in group}
        assert [(u, v) for u, v, _w in reduced.edges if u in internal and v in internal] == pairs
        assert [(u, v) for u, v, _w in reduced.edges if (u in pool) != (v in pool)] == spokes
        tail = reduced.edges[len(reduced.edges) - path :]
        assert tail == tuple((p, q, 0) for p, q in zip(pool, pool[1:]))
        long_pools += len(pool) >= 3
        parity_vertices += sum(step == 2 and a < b for a, b, step in zip(ab.a, ab.b, ab.step))
    assert long_pools > 20 and parity_vertices > 20


def star(d: int, a: int, b: int, step: int = 1) -> ABInstance:
    """Vertex 0 of degree d with bounds (a, b) and step `step`, joined to d
    leaves that each take degree 0 or 1."""
    g = MultiGraph(d + 1, tuple((0, leaf, 1) for leaf in range(1, d + 1)))
    return ABInstance(g, (a,) + (0,) * d, (b,) + (1,) * d, (step,) + (1,) * d)


def vertex_block(ab: ABInstance, v: int) -> list[range]:
    """Per internal of v, in order, the positions among v's externals that
    ab_to_pm joins it to; each must be one run, listed in order."""
    reduced, _source_edges = ab_to_pm(ab)
    position = {x: p for p, x in enumerate(ab.layout.externals_at[v])}
    joined = {i: [] for i in ab.layout.internals_at[v]}
    for u, x, _w in reduced.edges:
        if u in joined and x in position:
            joined[u].append(position[x])
    block = []
    for i in ab.layout.internals_at[v]:
        run = range(joined[i][0], joined[i][-1] + 1) if joined[i] else range(0)
        assert joined[i] == list(run)
        block.append(run)
    return block


def block_completes(block: list[range], d: int, a: int, b: int, selected) -> bool:
    """Whether the internals of one vertex block can absorb every external
    outside `selected` while len(selected) - a of the first b - a internals
    leave the band instead: a perfect bipartite matching of the free
    externals plus that many escape slots against the internals."""
    free = [p for p in range(d) if p not in selected]
    escapes = len(selected) - a
    reach = [[j for j, run in enumerate(block) if p in run] for p in free]
    reach += [list(range(b - a))] * escapes
    if len(reach) != len(block):
        return False
    owner: dict[int, int] = {}

    def augment(k: int, seen: set[int]) -> bool:
        for j in reach[k]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = k
                    return True
        return False

    return all(augment(k, set()) for k in range(len(reach)))


def blocks_complete(narrow=lambda run, d: run) -> bool:
    """The exhaustive check: for every degree d <= 8, every 0 <= a <= b <= d
    and every selection of between a and b of the d edge ends, ab_to_pm's
    vertex block, each band passed through `narrow`, completes."""
    for d in range(9):
        for a in range(d + 1):
            for b in range(a, d + 1):
                block = [narrow(run, d) for run in vertex_block(star(d, a, b), 0)]
                assert len(block) == d - a
                for k in range(a, b + 1):
                    for selected in combinations(range(d), k):
                        if not block_completes(block, d, a, b, set(selected)):
                            return False
    return True


def test_banded_vertex_block_completes_every_degree_in_bounds():
    # Internal j joins externals j - (b - a) .. j + a: with k in [a, b] ends
    # selected, the first k - a internals escape and the i-th free external
    # p_i goes to the i-th staying internal k - a + i, because i <= p_i <=
    # k + i puts p_i - (k - a + i) in [a - b, a].
    assert blocks_complete()


@pytest.mark.parametrize(
    "narrow",
    [
        lambda run, d: range(run.start + 1, run.stop) if run.start > 0 else run,
        lambda run, d: range(run.start, run.stop - 1) if run.stop < d else run,
    ],
    ids=["first-external-dropped", "last-external-dropped"],
)
def test_a_band_one_external_narrower_fails_to_complete(narrow):
    # Each band loses its first (or last) external wherever that is not the
    # vertex's first (or last) one: some degree in bounds is then lost.
    assert not blocks_complete(narrow)


def gadget_block(d: int, a: int, b: int, step: int):
    """Vertex 0's block in the star gadget: its externals, its nodes (with
    its own pool pair, if it has one), the edges among them and that pair."""
    ab = star(d, a, b, step)
    reduced, _source_edges = ab_to_pm(ab)
    layout = ab.layout
    pair = layout.pool[:2] if step == 1 and a < b else ()
    externals = layout.externals_at[0]
    nodes = set(externals) | set(layout.internals_at[0]) | set(pair)
    edges = [(u, v) for u, v, _w in reduced.edges if u in nodes and v in nodes]
    return externals, nodes, edges, pair


def without_first(block, kind):
    """The block less its first pair edge (kind "pair") or spoke ("spoke")."""
    externals, nodes, edges, pair = block
    inner = nodes - set(externals) - set(pair)
    if kind == "pair":
        chosen = [e for e in edges if e[0] in inner and e[1] in inner]
    else:
        chosen = [e for e in edges if (e[0] in pair) != (e[1] in pair)]
    return externals, nodes, [e for e in edges if e not in chosen[:1]], pair


def has_perfect_matching(nodes, edges) -> bool:
    """Whether the graph on `nodes` with the `edges` among them has one."""
    index = {x: i for i, x in enumerate(sorted(nodes))}
    g = MultiGraph(len(index), tuple(
        (index[u], index[v], 0) for u, v in edges if u in index and v in index
    ))
    return next(all_perfect_matchings(g), None) is not None


def blocks_fit(block_of=gadget_block) -> int:
    """The exhaustive check: for every degree d <= 8, every dense and parity
    run a..b in [0, d] and every selection S of vertex 0's edge ends, the
    block of `block_of` less S, with its pool pair and a pad node that
    continues the chain when the count is odd, has a perfect matching iff
    |S| lies in the run.  Returns the number of cases, or 0 on a miss."""
    cases = 0
    for d in range(9):
        for a in range(d + 1):
            for b in range(a, d + 1):
                for step in (1, 2) if b - a >= 2 and (b - a) % 2 == 0 else (1,):
                    externals, nodes, edges, pair = block_of(d, a, b, step)
                    for selected in range(1 << d):
                        gone = {x for p, x in enumerate(externals) if selected >> p & 1}
                        left = nodes - gone
                        joined = list(edges)
                        if len(left) % 2:
                            left = left | {-1}
                            joined += [(-1, pair[-1])] if pair else []
                        want = bin(selected).count("1") in range(a, b + 1, step)
                        if has_perfect_matching(left, joined) != want:
                            return 0
                        cases += 1
    return cases


def test_vertex_block_fits_exactly_the_degrees_of_its_run():
    # Dense and parity runs share the bands and the pairs (o0, o1), (o2,
    # o3), ... of their b - a optional internals; only a dense run with
    # b > a has a pool pair, reached from o0, o2, ...
    assert blocks_fit() == 25_427


@pytest.mark.parametrize(
    "block_of",
    [
        lambda d, a, b, step: without_first(gadget_block(d, a, b, step), "pair"),
        lambda d, a, b, step: without_first(gadget_block(d, a, b, step), "spoke"),
        lambda d, a, b, step: gadget_block(d, a, b, 1),
    ],
    ids=["pair-edge-dropped", "spoke-dropped", "parity-vertex-with-pool-pair"],
)
def test_a_vertex_block_with_a_pair_or_spoke_too_few_or_too_many_fails(block_of):
    assert blocks_fit(block_of) == 0


@pytest.mark.parametrize("pad", [0, 1])
def test_chain_pairs_up_exactly_at_the_pad_parity(pad):
    # Vertices 1..c each have three edges to vertex 0, whose bounds (pad,
    # pad) set the pad, and bounds (0, 3): each owns a pool pair, reached
    # from its optional internals o0 and o2.  With one of those two left in
    # at each vertex of a set T, every other internal taken by its own
    # vertex gadget, the pool has a perfect matching iff |T| = pad mod 2.
    for c in range(1, 5):
        g = MultiGraph(c + 1, tuple((0, t, 0) for t in range(1, c + 1) for _ in range(3)))
        ab = ABInstance(g, (pad,) + (0,) * c, (pad,) + (3,) * c)
        pool = ab.layout.pool
        assert len(pool) == 2 * c + pad
        reduced, _source_edges = ab_to_pm(ab)
        chain = [(u, v) for u, v, _w in reduced.edges if u in pool or v in pool]
        evens = [(None, *ab.layout.internals_at[t][0:3:2]) for t in range(1, c + 1)]
        for choice in product(*evens):
            left_in = {x for x in choice if x is not None}
            found = has_perfect_matching(set(pool) | left_in, chain)
            assert found == (len(left_in) % 2 == pad)


def test_reduced_optimum_matches_ab_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        ab = random_ab(rng, rng.randint(1, 4), rng.randint(0, 5))
        reduced, source_edges = ab_to_pm(ab)
        pm = max_weight_perfect_matching(reduced)
        feasible = list(degree_subsets(ab.graph, ab_degrees(ab)))
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
    assert lifted == set(degree_subsets(ab.graph, ab_degrees(ab)))
