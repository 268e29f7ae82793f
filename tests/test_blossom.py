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
from bmatch.neighbourhood import _relaxation
from bmatch.reduce import ab_to_pm, uniform_to_ab

from conftest import FIXTURES, src_env


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


def test_matches_brute_force_on_seeded_multigraphs():
    # Parallel edges are legal input, each its own edge; a loop is not.
    rng = random.Random(20261020)
    parallel = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        edges = tuple(
            (*rng.sample(range(n), 2), rng.randint(-5, 5))
            for _ in range(rng.randint(0, 14))
        )
        g = MultiGraph(n, edges)
        parallel += len({frozenset(e[:2]) for e in edges}) < len(edges)
        got = max_weight_perfect_matching(g)
        want = brute_force_pm(g)
        assert (got is None) == (want is None)
        if got is not None:
            assert degrees(g, got) == [1] * n
            assert matching_weight(g, got) == matching_weight(g, want)
        v = rng.randrange(n)
        looped = MultiGraph(n, edges + ((v, v, 0),))
        with pytest.raises(ValueError, match=f"^loop at vertex {v} is not allowed$"):
            max_weight_perfect_matching(looped)
    assert parallel > 150


def networkx_cases():
    # Beyond brute force: even n from 10 to 40, average degree about 5, and a
    # random start matching for each graph.
    rng = random.Random(20261019)
    for _ in range(300):
        n = 2 * rng.randint(5, 20)
        edges = tuple(
            (u, v, rng.randint(-4, 9))
            for u, v in combinations(range(n), 2)
            if rng.random() < 5 / n
        )
        used: set[int] = set()
        start = []
        for k in rng.sample(range(len(edges)), len(edges)):
            u, v, _w = edges[k]
            if u not in used and v not in used and rng.random() < 0.5:
                used.update((u, v))
                start.append(k)
        yield MultiGraph(n, edges), start


def test_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    without = 0
    for g, start in networkx_cases():
        G = nx.Graph()
        G.add_nodes_from(range(g.vertex_count))
        G.add_weighted_edges_from(g.edges)
        want = nx.max_weight_matching(G, maxcardinality=True)
        got = max_weight_perfect_matching(g, start)
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
    # that have a perfect matching, the weighted solves shrink 1011 blossoms
    # around an inner blossom and expand 215 T-blossoms mid-stage.
    for seed in range(200):
        n = 4 + seed % 9
        inst = random_instance(
            seed, n, n + seed % 11, profile=PROFILES[seed % 3], weights=(-3, 9)
        )
        graph = full_spoke_gadget(uniform_to_ab(inst.graph, _relaxation(inst)))
        yield graph
        yield MultiGraph(graph.vertex_count, tuple((u, v, -w) for u, v, w in graph.edges))


ZERO_ONE_DIGEST = "9335d8da71657cec62e50678dbacf64bac482409f5755f2aea9781122a18b0f6"
GADGET_DIGEST = "675c108e26ba5006cc422201dfab9dba6ce7b9c27c73bef6ca773544b30df1c3"


def test_tie_breaks_are_pinned():
    # The digest pins which of the tied optima is chosen.
    assert selection_digest(zero_one_graphs()) == ZERO_ONE_DIGEST


def test_gadget_tie_breaks_are_pinned():
    assert selection_digest(relaxation_gadgets()) == GADGET_DIGEST


def full_spoke_gadget(ab, clique: bool = False) -> MultiGraph:
    """The gadget the digests here were recorded on: ab_to_pm's source edges
    and vertex gadgets, then a pool of C + (sum(b) mod 2) nodes for the C
    pool-connected internals, a spoke from each of them to every pool node,
    and the pool path; with clique=True, the lexicographic clique over the
    pool instead of the path.  Built here so that the digests keep pinning
    the same solver runs whatever pool ab_to_pm builds."""
    layout = ab.layout
    graph, _lift = ab_to_pm(ab)
    gadgets = sum(
        len(i) * len(x) for i, x in zip(layout.internals_at, layout.externals_at)
    )
    first = 2 * ab.graph.edge_count + sum(len(i) for i in layout.internals_at)
    connected = layout.pool_connected
    pool = range(first, first + len(connected) + sum(ab.b) % 2)
    spokes = tuple((i, q, 0) for i in connected for q in pool)
    joins = combinations(pool, 2) if clique else zip(pool, pool[1:])
    edges = graph.edges[: ab.graph.edge_count + gadgets] + spokes
    return MultiGraph(first + len(pool), edges + tuple((p, q, 0) for p, q in joins))


@pytest.mark.parametrize(
    "seed, n, m, profile, weights, sign, weight, digest",
    [
        # A stage augments after a mid-stage rebuild, before it takes a
        # root whose blossom has dual 0: that root counts as S.
        (323176420, 11, 31, "interval", (-2, 3), 1, 17,
         "87b61060c411f0ca744f207d8c04f71966f784a8bbe5beb091b5c68b2de68444"),
        # A zero-dual S-blossom made in an earlier stage.
        (4514, 9, 20, "mixed", (-3, 9), -1, -43,
         "5af52d3b8388c990efce0233c41f458397bf4fc63fa2e9395bcf35570b02d0a3"),
    ],
)
def test_stage_end_discards_every_zero_dual_s_blossom(
    seed, n, m, profile, weights, sign, weight, digest
):
    inst = random_instance(seed, n, m, profile=profile, weights=weights)
    graph = full_spoke_gadget(uniform_to_ab(inst.graph, _relaxation(inst)), clique=True)
    graph = MultiGraph(
        graph.vertex_count, tuple((u, v, sign * w) for u, v, w in graph.edges)
    )
    got = max_weight_perfect_matching(graph)
    assert got is not None and matching_weight(graph, got) == weight
    assert hashlib.sha256(repr(sorted(got.selected)).encode()).hexdigest() == digest


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


def random_matching(rng: random.Random, g: MultiGraph) -> list[int]:
    used: set[int] = set()
    out = []
    for k, (u, v, _w) in enumerate(g.edges):
        if u not in used and v not in used and rng.random() < 0.5:
            used.update((u, v))
            out.append(k)
    return out


def test_start_matching_does_not_change_the_answer():
    rng = random.Random(99)
    for g in seeded_graphs():
        assert max_weight_perfect_matching(
            g, random_matching(rng, g)
        ) == max_weight_perfect_matching(g)


def test_start_must_be_a_matching():
    g = MultiGraph(3, ((0, 1, 1), (1, 2, 1)))
    with pytest.raises(ValueError, match="start edge 1 shares an end"):
        max_weight_perfect_matching(g, (0, 1))


def test_start_must_name_edges_of_the_graph():
    # A negative index must not wrap around to an edge from the end, and an
    # index past the last edge must not surface as an IndexError.
    g = MultiGraph(4, ((0, 1, 1), (2, 3, 1), (1, 2, 5)))
    assert max_weight_perfect_matching(g) == Matching(frozenset({0, 1}))
    for k in (-1, -3, 3):
        with pytest.raises(ValueError, match=f"start edge {k} is not an edge"):
            max_weight_perfect_matching(g, [k])


def test_every_none_has_a_checked_barrier(monkeypatch):
    checked = []

    def recording(graph, barrier):
        barrier = list(barrier)
        _check_barrier(graph, barrier)
        checked.append((graph, barrier))

    monkeypatch.setattr(blossom, "_check_barrier", recording)
    nones = [g for g in seeded_graphs() if max_weight_perfect_matching(g) is None]
    assert len(nones) > 20
    assert [g for g, _barrier in checked] == nones


def test_weighted_solve_raises_if_the_search_was_wrong(monkeypatch):
    # Pretend the zero-weight search completed a perfect matching of a graph
    # that has none: the weighted search must not answer None on its own.
    real = blossom._solve

    def existence_says_yes(weight, endpoint, neighbend, mate):
        if any(weight):
            return real(weight, endpoint, neighbend, mate)
        return mate, [], []

    monkeypatch.setattr(blossom, "_solve", existence_says_yes)
    g = MultiGraph(4, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
    with pytest.raises(AssertionError, match="dual update is unbounded"):
        max_weight_perfect_matching(g)


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
