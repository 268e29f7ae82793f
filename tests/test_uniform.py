import os
import pathlib
import random
import subprocess
import sys

from bmatch.core import MultiGraph, matching_weight
from bmatch.uniform import solve_uniform

from conftest import degree_subsets


def negated(g: MultiGraph) -> MultiGraph:
    """g with every weight negated: solve_uniform maximizes, so its answer
    on the result is a minimum-weight matching of g."""
    return MultiGraph(g.vertex_count, tuple((u, v, -w) for u, v, w in g.edges))


def random_uniform(rng: random.Random, n: int, m: int):
    edges = tuple(
        (rng.randrange(n), rng.randrange(n), rng.randint(-5, 5)) for _ in range(m)
    )
    graph = MultiGraph(n, edges)
    per_vertex = []
    for v in range(n):
        d = graph.degree(v)
        if rng.random() < 0.5:
            a = rng.randint(0, d)
            per_vertex.append(range(a, rng.randint(a, d) + 1))
        else:
            lo = rng.randint(0, d)
            hi = rng.randrange(lo, d + 1)
            hi -= (hi - lo) % 2
            per_vertex.append(range(lo, hi + 1, 2))
    return graph, tuple(per_vertex)


def test_triangle_exact_degree_one_infeasible():
    g = MultiGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
    spec = tuple(range(1, 2) for _ in range(3))
    assert solve_uniform(g, spec) is None


def test_square_perfect_matching_weights():
    g = MultiGraph(4, ((0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 0, 1)))
    spec = tuple(range(1, 2) for _ in range(4))
    best = solve_uniform(g, spec)
    worst = solve_uniform(negated(g), spec)
    assert matching_weight(g, best) == 10
    assert matching_weight(g, worst) == 2


def test_parity_spec_walks_the_class():
    g = MultiGraph(2, ((0, 1, 3), (0, 1, 4), (0, 1, -2)))
    spec = (range(0, 3, 2), range(0, 3, 2))
    best = solve_uniform(g, spec)
    assert matching_weight(g, best) == 7
    assert len(best) == 2
    worst = solve_uniform(negated(g), spec)
    assert matching_weight(g, worst) == 0
    assert len(worst) == 0


def test_solution_degrees_satisfy_spec():
    rng = random.Random(99)
    for _ in range(40):
        g, spec = random_uniform(rng, rng.randint(1, 5), rng.randint(0, 7))
        got = solve_uniform(g, spec)
        if got is None:
            continue
        deg = [0] * g.vertex_count
        for e in got:
            u, v, _w = g.edges[e]
            deg[u] += 1 if u != v else 2
            deg[v] += 1 if u != v else 0
        assert all(deg[v] in spec[v] for v in range(g.vertex_count))


def test_matches_brute_force_both_senses():
    rng = random.Random(4242)
    for _ in range(80):
        g, spec = random_uniform(rng, rng.randint(1, 5), rng.randint(0, 7))
        feasible = list(degree_subsets(g, spec))
        for best_of, work in ((max, g), (min, negated(g))):
            got = solve_uniform(work, spec)
            if not feasible:
                assert got is None
                continue
            weights = [matching_weight(g, f) for f in feasible]
            want = best_of(weights)
            assert got is not None
            assert matching_weight(g, got) == want


def test_lifted_degree_check_raises_under_optimize():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    code = (
        "import bmatch.uniform as uniform\n"
        "from bmatch.core import Matching, MultiGraph\n"
        "uniform.lift = lambda *_args: Matching(frozenset())\n"
        "g = MultiGraph(2, ((0, 1, 1),))\n"
        "uniform.solve_uniform(g, (range(1, 2), range(1, 2)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert (
        "AssertionError: lifted matching has degree 0 at vertex 0, outside its spec"
        in proc.stderr.splitlines()[-1]
    )
