import hashlib
import random
import subprocess
import sys
from itertools import combinations

import pytest

import bmatch.blossom as blossom
from bmatch.blossom import _check_barrier, _check_optimum, max_weight_perfect_matching
from bmatch.core import Matching, MultiGraph, degrees, matching_weight
from bmatch.gen import PROFILES, random_instance
from bmatch.reduce import ABInstance, uniform_to_ab

from conftest import FIXTURES, relaxation, src_env


def brute_force_pm(g: MultiGraph) -> Matching | None:
    if g.vertex_count % 2:
        return None
    best = None
    for combo in combinations(range(len(g.edges)), g.vertex_count // 2):
        seen = set()
        for e in combo:
            u, v, _w = g.edges[e]
            seen.update((u, v))
        if len(seen) != g.vertex_count:
            continue
        found = Matching(frozenset(combo))
        if best is None or matching_weight(g, found) > matching_weight(g, best):
            best = found
    return best


def random_simple_graph(rng: random.Random, n: int) -> MultiGraph:
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    keep = pairs[: rng.randint(0, len(pairs))]
    return MultiGraph(n, tuple((u, v, rng.randint(-8, 8)) for u, v in keep))


def test_rejects_loops_and_accepts_parallels():
    with pytest.raises(ValueError):
        max_weight_perfect_matching(MultiGraph(2, ((0, 0, 1),)))
    got = max_weight_perfect_matching(MultiGraph(2, ((0, 1, 1), (1, 0, 2))))
    assert got == Matching(frozenset({1}))


@pytest.mark.parametrize(
    "edges, message",
    [
        # The second edge is the first bad one; the third fails another check.
        # The solver names a loop; MultiGraph names the other faults.
        (((0, 1, 1), (2, 2, 1), (3, 3, 1)), "loop at vertex 2 is not allowed"),
        (((0, 1, 1), (1, 4, 1), (3, 3, 1)), "edge (1, 4, 1) has an endpoint outside 0..3"),
        (((0, 1, 1), (1, 2, 1.5), (0, 9, 1)), "edge (1, 2, 1.5) must contain integers"),
    ],
    ids=["loop", "range", "weight"],
)
def test_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError) as err:
        max_weight_perfect_matching(MultiGraph(4, edges))
    assert str(err.value) == message


def test_triangle_has_no_perfect_matching():
    g = MultiGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
    assert max_weight_perfect_matching(g) is None


def test_empty_graph_has_the_empty_matching():
    got = max_weight_perfect_matching(MultiGraph(0, ()))
    assert got == Matching(frozenset())


def test_single_edge():
    g = MultiGraph(2, ((0, 1, 7),))
    got = max_weight_perfect_matching(g)
    assert got == Matching(frozenset({0}))
    assert matching_weight(g, got) == 7


def test_square_picks_heavier_pairing():
    g = MultiGraph(
        4, ((0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 0, 1), (0, 2, 3), (1, 3, 3))
    )
    got = max_weight_perfect_matching(g)
    assert matching_weight(g, got) == 10
    assert got.selected == frozenset({0, 2})


def test_blossom_forces_odd_cycle_handling():
    # two triangles joined by a bridge: the bridge must be used
    g = MultiGraph(
        6,
        (
            (0, 1, 4), (1, 2, 4), (0, 2, 4),
            (3, 4, 4), (4, 5, 4), (3, 5, 4),
            (2, 3, 1),
        ),
    )
    got = max_weight_perfect_matching(g)
    assert got is not None
    assert 6 in got.selected
    assert matching_weight(g, got) == 9


def test_negative_weights_still_perfect():
    g = MultiGraph(4, ((0, 1, -5), (2, 3, -7), (1, 2, 100)))
    got = max_weight_perfect_matching(g)
    assert got == Matching(frozenset({0, 1}))
    assert matching_weight(g, got) == -12


def seeded_graphs() -> list[MultiGraph]:
    rng = random.Random(20240901)
    return [random_simple_graph(rng, rng.randint(2, 8)) for _ in range(120)]


def test_matches_brute_force_on_seeded_graphs():
    for g in seeded_graphs():
        got = max_weight_perfect_matching(g)
        want = brute_force_pm(g)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert matching_weight(g, got) == matching_weight(g, want)


def seeded_multigraphs():
    """300 loopless multigraphs with weights -5..5, each with a vertex to
    put a loop at."""
    rng = random.Random(20261020)
    for _ in range(300):
        n = rng.randint(2, 8)
        edges = tuple(
            (*rng.sample(range(n), 2), rng.randint(-5, 5))
            for _ in range(rng.randint(0, 14))
        )
        yield MultiGraph(n, edges), rng.randrange(n)


def has_parallel_edges(g: MultiGraph) -> bool:
    return len({frozenset(e[:2]) for e in g.edges}) < len(g.edges)


def test_matches_brute_force_on_seeded_multigraphs():
    # Parallel edges are legal input, each its own edge; a loop is not.
    parallel = 0
    for g, v in seeded_multigraphs():
        n = g.vertex_count
        parallel += has_parallel_edges(g)
        got = max_weight_perfect_matching(g)
        want = brute_force_pm(g)
        assert (got is None) == (want is None)
        if got is not None:
            assert degrees(g, got) == [1] * n
            assert matching_weight(g, got) == matching_weight(g, want)
        looped = MultiGraph(n, g.edges + ((v, v, 0),))
        with pytest.raises(ValueError, match=f"^loop at vertex {v} is not allowed$"):
            max_weight_perfect_matching(looped)
    assert parallel > 150


def networkx_cases():
    # Beyond brute force: even n from 10 to 40, average degree about 5.
    rng = random.Random(20261019)
    for _ in range(300):
        n = 2 * rng.randint(5, 20)
        edges = tuple(
            (u, v, rng.randint(-4, 9))
            for u, v in combinations(range(n), 2)
            if rng.random() < 5 / n
        )
        yield MultiGraph(n, edges)


def test_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    without = 0
    for g in networkx_cases():
        G = nx.Graph()
        G.add_nodes_from(range(g.vertex_count))
        G.add_weighted_edges_from(g.edges)
        want = nx.max_weight_matching(G, maxcardinality=True)
        got = max_weight_perfect_matching(g)
        if 2 * len(want) < g.vertex_count:
            assert got is None
            without += 1
        else:
            assert got is not None
            assert matching_weight(g, got) == sum(G[u][v]["weight"] for u, v in want)
    assert without > 20


def test_deterministic_for_fixed_input():
    rng = random.Random(5)
    g = random_simple_graph(rng, 8)
    first = max_weight_perfect_matching(g)
    again = max_weight_perfect_matching(g)
    assert first == again


def selection_digest(graphs) -> str:
    digest = hashlib.sha256()
    for g in graphs:
        got = max_weight_perfect_matching(g)
        digest.update(repr(None if got is None else sorted(got.selected)).encode())
    return digest.hexdigest()


def zero_one_graphs():
    # 0/1 weights make many optima tie.
    rng = random.Random(20261018)
    for _ in range(200):
        n = 2 * rng.randint(1, 12)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        keep = pairs[: rng.randint(n // 2, len(pairs))]
        yield MultiGraph(n, tuple((u, v, rng.randint(0, 1)) for u, v in keep))


def relaxation_gadgets():
    # The full-spoke gadgets of the relaxations `solve` solves, in both
    # senses: weights
    # -3..9 on the source edges, many weight-0 gadget edges.  Among the 156
    # that have a perfect matching, the weighted solves shrink 888 blossoms
    # that hold an inner blossom and expand 119 T-blossoms mid-stage.
    for seed in range(200):
        n = 4 + seed % 9
        inst = random_instance(
            seed, n, n + seed % 11, profile=PROFILES[seed % 3], weights=(-3, 9)
        )
        graph = full_spoke_gadget(uniform_to_ab(inst.graph, relaxation(inst)))
        yield graph
        yield MultiGraph(graph.vertex_count, tuple((u, v, -w) for u, v, w in graph.edges))


ZERO_ONE_DIGEST = "74d20fa0a5ca50c10f8f573159b35758808953e67398a4589acba5437786e541"
GADGET_DIGEST = "5eea320da58dad8cc0238b79c76a02369674d5847820d05fab5370e1721e7e46"


def test_tie_breaks_are_pinned():
    # The digest pins which of the tied optima is chosen.
    assert selection_digest(zero_one_graphs()) == ZERO_ONE_DIGEST


def test_gadget_tie_breaks_are_pinned():
    assert selection_digest(relaxation_gadgets()) == GADGET_DIGEST


def full_spoke_gadget(ab, clique: bool = False) -> MultiGraph:
    """The gadget the digests here were recorded on.  It first rebuilds the
    loop stage that parity runs once went through: (b - a)/2 weight-0 loops
    appended at each parity vertex, in vertex order, and bounds (b, b)
    there.  Then come the source and loop edges, per vertex each internal
    joined to every external of its vertex (internal-major), a pool of
    C + (sum(b) mod 2) nodes for the first b - a internals of each vertex,
    C in all, a spoke from each of them to every pool node, and the pool
    path; with clique=True, the lexicographic clique over the pool instead
    of the path.  Built here so that the digests keep pinning the same
    solver runs whatever stages ab_to_pm and uniform_to_ab build."""
    n = ab.graph.vertex_count
    loops = tuple(
        (v, v, 0) for v in range(n) if ab.step[v] == 2 for _ in range(0, ab.b[v] - ab.a[v], 2)
    )
    pinned = tuple(b if step == 2 else a for a, b, step in zip(ab.a, ab.b, ab.step))
    ab = ABInstance(MultiGraph(n, ab.graph.edges + loops), pinned, ab.b)
    layout = ab.layout
    source = tuple(
        (2 * e, 2 * e + 1, w) for e, (_u, _v, w) in enumerate(ab.graph.edges)
    )
    blocks = tuple(
        (i, x, 0)
        for internals, externals in zip(layout.internals_at, layout.externals_at)
        for i in internals
        for x in externals
    )
    first = 2 * ab.graph.edge_count + sum(len(i) for i in layout.internals_at)
    connected = [
        i
        for internals, a, b in zip(layout.internals_at, ab.a, ab.b)
        for i in internals[: b - a]
    ]
    pool = range(first, first + len(connected) + sum(ab.b) % 2)
    spokes = tuple((i, q, 0) for i in connected for q in pool)
    joins = combinations(pool, 2) if clique else zip(pool, pool[1:])
    edges = source + blocks + spokes
    return MultiGraph(first + len(pool), edges + tuple((p, q, 0) for p, q in joins))


def test_full_spoke_gadget_adds_the_old_loops_itself():
    # The digest of the graphs themselves, the relaxation gadgets and the
    # seed-11849 case below, as they were when uniform_to_ab still
    # turned parity runs into loops: the solver digests pin the same graphs.
    digest = hashlib.sha256()
    for graph in relaxation_gadgets():
        digest.update(repr((graph.vertex_count, graph.edges)).encode())
    assert digest.hexdigest() == (
        "7bc00628c6fbc38f5a2488526e89befdd3beb6c74aaa74d687193a8523aa5eb2"
    )
    inst = random_instance(11849, 9, 20, profile="mixed", weights=(-3, 9))
    graph = full_spoke_gadget(uniform_to_ab(inst.graph, relaxation(inst)), clique=True)
    assert hashlib.sha256(repr((graph.vertex_count, graph.edges)).encode()).hexdigest() == (
        "707ca036021fb0409918d22c88e838216a1bb9617b66cfd22ff19d0283de93db"
    )


@pytest.mark.parametrize(
    "seed, n, m, profile, weights, sign, weight, digest",
    [
        # Found when a stage took its roots one at a time, for a root taken
        # after a mid-stage rebuild whose blossom had dual 0.  Every root
        # is labelled at the stage start now, and this instance discards a
        # zero-dual S-blossom made in an earlier stage, after a stage of
        # mid-stage rebuilds; later stage ends also discard ones in trees
        # that did not augment.
        (204520, 11, 31, "interval", (-2, 3), 1, 13,
         "0ef577a14732ae31d9cf3db24e0f71def9068f105f0bd49b47aa0b660fb6af2d"),
        # Found for a zero-dual S-blossom made in an earlier stage.  Now a
        # stage augments along two paths and discards a zero-dual S-blossom
        # of one of the two frozen trees.
        (11849, 9, 20, "mixed", (-3, 9), -1, -47,
         "857b1c9882b4d19630bb6477faa345dd3fc12ab00c4c6dff139c5121286815b3"),
    ],
    ids=["untaken-root", "earlier-s-blossom"],
)
def test_stage_end_discards_every_zero_dual_s_blossom(
    seed, n, m, profile, weights, sign, weight, digest
):
    inst = random_instance(seed, n, m, profile=profile, weights=weights)
    graph = full_spoke_gadget(uniform_to_ab(inst.graph, relaxation(inst)), clique=True)
    graph = MultiGraph(
        graph.vertex_count, tuple((u, v, sign * w) for u, v, w in graph.edges)
    )
    got = max_weight_perfect_matching(graph)
    assert got is not None and matching_weight(graph, got) == weight
    assert hashlib.sha256(repr(sorted(got.selected)).encode()).hexdigest() == digest


def two_paths_and_a_blocked_pair() -> MultiGraph:
    """Zero weights, so every edge is tight and the start matches the six
    "=" edges, which come first.  Roots 0..5 label S first, in vertex
    order.  The first forest holds two augmenting paths,
        0 - 6 = 7 - 8 = 9 - 1   and   2 - 10 = 11 - 12 = 13 - 3,
    found from 7 and 11.  Trees 4 (4 - 14 = 15) and 5 (5 - 16 = 17) reach
    each other only through tree 0 (edge 15-7) and tree 1 (edge 17-8),
    which are frozen by then.  Their path
        4 - 14 = 15 - 7 = 8 - 17 = 16 - 5
    runs through the matching that the first path left, in the next stage.
    The perfect matching is unique."""
    matched = ((6, 7), (8, 9), (10, 11), (12, 13), (14, 15), (16, 17))
    rest = (
        (0, 6), (7, 8), (9, 1), (2, 10), (11, 12), (13, 3),
        (4, 14), (15, 7), (5, 16), (17, 8),
    )
    return MultiGraph(18, tuple((u, v, 0) for u, v in matched + rest))


def test_a_stage_augments_along_disjoint_paths_and_skips_frozen_trees():
    g = two_paths_and_a_blocked_pair()
    endpoint, neighbend = adjacency(g)
    mate, _dual = blossom._jump_start([0] * len(g.edges), endpoint, neighbend)
    assert [v for v, p in enumerate(mate) if p == -1] == [0, 1, 2, 3, 4, 5]
    got = max_weight_perfect_matching(g)
    assert got is not None and got == brute_force_pm(g)


def several_root_graphs():
    """120 graphs of 8 or 10 vertices with a planted perfect matching and
    n/2..n more edges, weights 0..2, each left with at least four roots
    by the start, so that a forest has several trees to augment."""
    rng = random.Random(20261021)
    kept = 0
    while kept < 120:
        n = 2 * rng.randint(4, 5)
        order = rng.sample(range(n), n)
        pairs = [order[i:i + 2] for i in range(0, n, 2)]
        pairs += [rng.sample(range(n), 2) for _ in range(rng.randint(n // 2, n))]
        rng.shuffle(pairs)
        g = MultiGraph(n, tuple((u, v, rng.randint(0, 2)) for u, v in pairs))
        endpoint, neighbend = adjacency(g)
        mate, _dual = blossom._jump_start([w for _u, _v, w in g.edges], endpoint, neighbend)
        if mate.count(-1) >= 4:
            kept += 1
            yield g


def test_matches_brute_force_from_several_roots():
    for g in several_root_graphs():
        got = max_weight_perfect_matching(g)
        assert got is not None
        assert degrees(g, got) == [1] * g.vertex_count
        assert matching_weight(g, got) == matching_weight(g, brute_force_pm(g))


def test_tie_breaks_hold_under_optimize():
    # No solver bookkeeping may live inside an assert.
    proc = run_optimized(
        f"import sys\n"
        f"sys.path.insert(0, {str(FIXTURES.parent / 'tests')!r})\n"
        f"from test_blossom import *\n"
        f"print(selection_digest(zero_one_graphs()))\n"
        f"print(selection_digest(relaxation_gadgets()))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [ZERO_ONE_DIGEST, GADGET_DIGEST]


def test_solving_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(_limit):
        raise AssertionError("the solver changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    for g in seeded_graphs():
        got = max_weight_perfect_matching(g)
        want = brute_force_pm(g)
        assert (got is None) == (want is None)
        assert got is None or matching_weight(g, got) == matching_weight(g, want)


# -- the start ----------------------------------------------------------------------


def adjacency(g: MultiGraph) -> tuple[list[int], list[list[int]]]:
    """The solver's endpoint encoding: edge k owns endpoints 2k and 2k+1,
    and neighbend[v] lists the remote endpoints of the edges at v."""
    endpoint = [x for u, v, _w in g.edges for x in (u, v)]
    neighbend: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for k, (u, v, _w) in enumerate(g.edges):
        neighbend[u].append(2 * k + 1)
        neighbend[v].append(2 * k)
    return endpoint, neighbend


def uniform_start_roots(g: MultiGraph) -> int:
    """The exposed vertices a start from the uniform duals P[v] = max w
    leaves: only the heaviest edges are tight, matched greedily in edge
    order."""
    max_w = max((w for _u, _v, w in g.edges), default=0)
    free = [True] * g.vertex_count
    for u, v, w in g.edges:
        if free[u] and free[v] and w == max_w:
            free[u] = free[v] = False
    return sum(free)


def test_jump_start_duals_are_feasible_even_and_tight_at_every_vertex():
    gadgets = list(relaxation_gadgets())
    graphs = seeded_graphs() + [g for g, _v in seeded_multigraphs()] + gadgets
    seen = {"isolated": 0, "parallel": 0, "odd negative": 0}
    for g in graphs:
        n = g.vertex_count
        endpoint, neighbend = adjacency(g)
        weight = [w for _u, _v, w in g.edges]
        seen["isolated"] += sum(not ends for ends in neighbend)
        seen["parallel"] += has_parallel_edges(g)
        seen["odd negative"] += sum(w < 0 and w % 2 for w in weight)
        mate, dual = blossom._jump_start(weight, endpoint, neighbend)
        assert len(mate) == len(dual) == n and all(p % 2 == 0 for p in dual)
        ends = [(u, v) for u, v, _w in g.edges]
        slack = [dual[u] + dual[v] - 2 * w for (u, v), w in zip(ends, weight)]
        assert all(s >= 0 for s in slack)
        tight = [e for e, s in zip(ends, slack) if s == 0]
        assert {x for e in tight for x in e} == {x for e in ends for x in e}
        for v, p in enumerate(mate):
            if p != -1:
                assert endpoint[p ^ 1] == v and mate[endpoint[p]] == p ^ 1
                assert slack[p >> 1] == 0
    assert all(seen.values()), seen

    roots = uniform = 0
    for g in gadgets:
        endpoint, neighbend = adjacency(g)
        weight = [w for _u, _v, w in g.edges]
        mate, _dual = blossom._jump_start(weight, endpoint, neighbend)
        roots += mate.count(-1)
        uniform += uniform_start_roots(g)
    assert roots < uniform


def test_every_none_has_a_checked_barrier(monkeypatch):
    # Random graphs and real gadgets in both senses: each solve is one run
    # on the real weights, and each None is a barrier of that run that has
    # passed the check.
    runs = []
    checked = []
    real = blossom._solve

    def recording_solve(weight, endpoint, neighbend):
        runs.append(weight)
        return real(weight, endpoint, neighbend)

    def recording(graph, barrier):
        barrier = list(barrier)
        _check_barrier(graph, barrier)
        checked.append(graph)

    monkeypatch.setattr(blossom, "_solve", recording_solve)
    monkeypatch.setattr(blossom, "_check_barrier", recording)
    nones = {"seeded": [], "gadget": []}
    for kind, graphs in (("seeded", seeded_graphs()), ("gadget", relaxation_gadgets())):
        for g in graphs:
            runs.clear()
            if max_weight_perfect_matching(g) is None:
                nones[kind].append(g)
            assert runs == [[w for _u, _v, w in g.edges]]
    assert len(nones["seeded"]) > 20 and len(nones["gadget"]) > 200
    assert checked == nones["seeded"] + nones["gadget"]


# -- the barrier check --------------------------------------------------------------


def star_with_three_leaves() -> MultiGraph:
    return MultiGraph(4, ((0, 1, 0), (0, 2, 0), (0, 3, 0)))


def test_barrier_check_accepts_a_tutte_barrier():
    # Deleting the centre leaves three odd components, more than one.
    _check_barrier(star_with_three_leaves(), [0])
    # An odd vertex count is its own certificate: the empty barrier.
    _check_barrier(MultiGraph(3, ((0, 1, 0), (1, 2, 0))), [])


def test_barrier_check_rejects_a_false_barrier():
    with pytest.raises(AssertionError, match="barrier of 1 vertices leaves only 1 odd"):
        _check_barrier(star_with_three_leaves(), [1])
    g = MultiGraph(4, ((0, 1, 0), (1, 2, 0), (2, 3, 0)))
    with pytest.raises(AssertionError, match="barrier of 0 vertices leaves only 0 odd"):
        _check_barrier(g, [])


def run_optimized(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )


def test_barrier_check_raises_under_optimize():
    proc = run_optimized(
        "from bmatch.blossom import _check_barrier\n"
        "from bmatch.core import MultiGraph\n"
        "g = MultiGraph(4, ((0, 1, 0), (0, 2, 0), (0, 3, 0)))\n"
        "_check_barrier(g, [1])\n"
    )
    assert proc.returncode == 1
    assert (
        "AssertionError: barrier of 1 vertices leaves only 1 odd components"
        in proc.stderr.splitlines()[-1]
    )


# -- the optimality check -----------------------------------------------------------
# State is (graph, mate, dual, blossomparent) as the solver leaves it: mate[v]
# is the remote endpoint (2k or 2k+1) of v's matched edge k, duals 0..n-1 are
# doubled vertex duals, and ids n..2n-1 are blossoms.


def triangle_with_tail():
    """Triangle 0-1-2 (weight 2) plus edge 2-3 (weight 1), matched {01, 23},
    with the triangle shrunk into blossom 4 of dual 1: every edge is tight."""
    g = MultiGraph(4, ((0, 1, 2), (1, 2, 2), (0, 2, 2), (2, 3, 1)))
    mate = [1, 0, 7, 6]
    dual = [1, 1, 1, 1, 1, 0, 0, 0]
    blossomparent = [4, 4, 4, -1, -1, -1, -1, -1]
    return g, mate, dual, blossomparent


def test_check_accepts_a_certified_optimum():
    _check_optimum(*triangle_with_tail())


def test_check_rejects_matched_edge_that_is_not_tight():
    g, mate, dual, parent = triangle_with_tail()
    dual[3] = 3
    with pytest.raises(AssertionError, match="matched edge 3 is not tight"):
        _check_optimum(g, mate, dual, parent)


def test_check_rejects_negative_slack():
    g, mate, dual, parent = triangle_with_tail()
    dual[2], dual[3] = 0, 2
    with pytest.raises(AssertionError, match="edge 1 has negative slack -1"):
        _check_optimum(g, mate, dual, parent)


def test_check_rejects_positive_dual_blossom_that_is_not_full():
    # Triangle 0-1-2 with pendants 3, 4, 5, matched to the pendants: the
    # blossom {0, 1, 2} holds no matched edge but has dual 1.
    g = MultiGraph(
        6, ((0, 1, 0), (1, 2, 0), (0, 2, 0), (0, 3, 0), (1, 4, 0), (2, 5, 0))
    )
    mate = [7, 9, 11, 6, 8, 10]
    dual = [0] * 12
    dual[6] = 1
    parent = [6, 6, 6] + [-1] * 9
    with pytest.raises(AssertionError, match="blossom 6 has a positive dual"):
        _check_optimum(g, mate, dual, parent)


def test_check_rejects_inconsistent_mate():
    g, mate, dual, parent = triangle_with_tail()
    mate[3] = -1
    with pytest.raises(AssertionError, match="vertex 2 has inconsistent mate 7"):
        _check_optimum(g, mate, dual, parent)


def test_check_rejects_even_blossom():
    g = MultiGraph(2, ((0, 1, 0),))
    with pytest.raises(AssertionError, match="blossom 2 has dual 0 and size 2"):
        _check_optimum(g, [1, 0], [0, 0, 0, 0], [2, 2, -1, -1])


def test_check_raises_under_optimize():
    proc = run_optimized(
        "from bmatch.blossom import _check_optimum\n"
        "from bmatch.core import MultiGraph\n"
        "g = MultiGraph(2, ((0, 1, 3),))\n"
        "_check_optimum(g, [1, 0], [4, 4, 0, 0], [-1, -1, -1, -1])\n"
    )
    assert proc.returncode == 1
    assert (
        "AssertionError: matched edge 0 is not tight (slack 2)"
        in proc.stderr.splitlines()[-1]
    )
