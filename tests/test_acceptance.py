"""The eleven acceptance runs, one test per criterion.

Each test prints a single summary line (visible with -s); the pass/fail
verdict per criterion is the pytest line itself, so
`pytest tests/test_acceptance.py -v` shows one line per criterion.
"""

import dataclasses
import random
import time
from itertools import combinations

from bmatch.blossom import max_weight_perfect_matching
from bmatch.cli import main
from bmatch.core import (
    OBJECTIVES,
    MultiGraph,
    check_certificate,
    current_type,
    degrees,
    is_b_matching,
    matching_weight,
    parse_certificate,
    parse_instance,
)
from bmatch.gen import PROFILES, random_instance
from bmatch.neighbourhood import (
    enumerate_candidates,
    find_feasible,
    improvement_step,
    solve,
)
from bmatch.oracle import (
    enumerate_b_matchings,
    oracle_optimum,
    run_verification_suite,
    verify_improvement_theorem,
)
from bmatch.reduce import (
    ABInstance,
    ab_to_pm,
    lift,
    uniform_to_ab,
)
from bmatch.structure import (
    apply,
    classify,
    extract_canonical_sequence,
    is_basic,
    make_basic,
)
from bmatch.uniform import solve_uniform

from conftest import FIXTURES, ab_degrees, degree_subsets


def random_uniform_instance(rng: random.Random, n: int, m: int):
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


def random_ab_instance(rng: random.Random, n: int, m: int) -> ABInstance:
    edges = tuple(
        (rng.randrange(n), rng.randrange(n), rng.randint(-4, 4)) for _ in range(m)
    )
    g = MultiGraph(n, edges)
    a, b = [], []
    for v in range(n):
        lo = rng.randint(0, max(0, g.degree(v) // 2))
        a.append(lo)
        b.append(rng.randint(lo, g.degree(v)))
    return ABInstance(g, tuple(a), tuple(b))


def perfect_matchings(g, cap=4000):
    incident = [[] for _ in range(g.vertex_count)]
    for e, (u, v, _w) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)
    out = []

    def walk(v, used, chosen):
        if len(out) >= cap:
            return
        while v < g.vertex_count and v in used:
            v += 1
        if v == g.vertex_count:
            out.append(frozenset(chosen))
            return
        for e in incident[v]:
            a, b, _w = g.edges[e]
            other = b if a == v else a
            if other in used:
                continue
            used.update((v, other))
            chosen.append(e)
            walk(v + 1, used, chosen)
            chosen.pop()
            used.difference_update((v, other))

    walk(0, set(), [])
    return out, len(out) < cap


def harness_pairs(seed: int, count: int, per_instance: int = 4):
    """Feasible (instance, M, N) pairs drawn like the verification suites."""
    rng = random.Random(seed)
    for index in range(count):
        instance = random_instance(
            seed * 10_007 + index,
            n=3 + index % 4,
            m=6 + index % 5,
            profile=PROFILES[index % len(PROFILES)],
            weights=(-5, 5),
            objective=OBJECTIVES[index % len(OBJECTIVES)],
        )
        ms = list(enumerate_b_matchings(instance))
        if len(ms) < 2:
            continue
        for _ in range(per_instance):
            yield (instance, *rng.sample(ms, 2))


def test_criterion_01_cardinality_matches_oracle_on_500_instances():
    started = time.perf_counter()
    feasible = 0
    for i in range(500):
        inst = random_instance(
            i, n=2 + i % 7, m=3 + i % 10, profile=PROFILES[i % 3], weights=(1, 1)
        )
        for objective in ("max-card", "min-card"):
            run = dataclasses.replace(inst, objective=objective)
            got = solve(run)
            want = oracle_optimum(run)
            assert (got is None) == (want is None)
            if got is not None:
                assert len(got) == want[0]
                feasible += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(
        f"criterion 01 PASS: 500 instances x both cardinality senses equal the "
        f"oracle ({feasible} feasible runs, {elapsed:.1f}s)"
    )


def test_criterion_02_weighted_uniform_matches_brute_force_on_300():
    rng = random.Random(224)
    checked = 0
    for i in range(300):
        graph, spec = random_uniform_instance(rng, 1 + i % 5, i % 8)
        negated = MultiGraph(
            graph.vertex_count, tuple((u, v, -w) for u, v, w in graph.edges)
        )
        feasible = list(degree_subsets(graph, spec))
        # The solver maximizes; the min optimum is the max on negated weights.
        for best_of, work in ((max, graph), (min, negated)):
            got = solve_uniform(work, spec)
            if not feasible:
                assert got is None
                continue
            weights = [matching_weight(graph, f) for f in feasible]
            want = best_of(weights)
            assert got is not None and matching_weight(graph, got) == want
            checked += 1
    print(f"criterion 02 PASS: 300 uniform instances, both senses exact ({checked} feasible runs)")


def test_criterion_03_reduction_chain_lifts_exact_optima_on_200():
    rng = random.Random(310)
    feasible_count = 0
    for i in range(200):
        graph, spec = random_uniform_instance(rng, 1 + i % 5, i % 11)
        ab = uniform_to_ab(graph, spec)
        reduced, _ab_edges = ab_to_pm(ab)
        pm = max_weight_perfect_matching(reduced)
        best = None
        for f in degree_subsets(graph, spec):
            w = matching_weight(graph, f)
            if best is None or w > best:
                best = w
        if best is None:
            assert pm is None
            continue
        assert pm is not None
        lifted = lift(graph.edge_count, pm.selected)
        deg = degrees(graph, lifted)
        assert all(deg[v] in spec[v] for v in range(graph.vertex_count))
        assert matching_weight(graph, lifted) == best
        feasible_count += 1
    print(
        f"criterion 03 PASS: 200 reduction chains lift to exact optima "
        f"({feasible_count} feasible)"
    )


def test_criterion_04_gadget_soundness_and_pool_parity_on_200():
    rng = random.Random(41)
    exhaustive = 0
    for i in range(200):
        ab = random_ab_instance(rng, 1 + i % 6, i % 9)
        reduced, source_edges = ab_to_pm(ab)
        pm = max_weight_perfect_matching(reduced)
        feasible = list(degree_subsets(ab.graph, ab_degrees(ab)))
        if not feasible:
            assert pm is None
            continue
        assert pm is not None
        best = max(matching_weight(ab.graph, f) for f in feasible)
        assert matching_weight(reduced, pm) == best
        assert lift(source_edges, pm.selected) in feasible
        pool = set(ab.layout.pool)
        pms_to_check = [pm.selected]
        if reduced.vertex_count <= 24:
            found, complete = perfect_matchings(reduced)
            if complete:
                pms_to_check = found
                exhaustive += 1
        for sel in pms_to_check:
            crossing = sum(
                1
                for e in sel
                if (reduced.edges[e][0] in pool) != (reduced.edges[e][1] in pool)
            )
            assert crossing % 2 == sum(ab.a) % 2
    assert exhaustive >= 100
    print(
        f"criterion 04 PASS: 200 gadgets optimal and pool parity holds "
        f"({exhaustive} checked over every perfect matching)"
    )


def test_criterion_05_figure_instance_end_to_end_under_one_second():
    started = time.perf_counter()
    inst = parse_instance((FIXTURES / "fig2.bm").read_text(), "max-card")
    cert = parse_certificate((FIXTURES / "fig2_m7.cert").read_text())
    assert find_feasible(inst) is not None
    assert check_certificate(inst, cert) == []
    assert enumerate_candidates(inst, cert.matching)[0] == ()
    t = current_type(inst, cert.matching)
    same = tuple(inst.intervals(v)[i] for v, i in enumerate(t))
    assert len(solve_uniform(inst.graph, same)) == 7
    better = improvement_step(inst, cert.matching)
    assert better is not None and len(better) >= 8
    best = solve(inst)
    assert len(best) == 9
    assert oracle_optimum(inst)[0] == 9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 05 PASS: figure fixture end-to-end in {elapsed * 1000:.0f}ms")


def test_criterion_06_canonical_sequence_contract_on_200_pairs():
    checked = 0
    rounds = 0
    while checked < 200:
        report = run_verification_suite("lemma2", seed=7 + rounds, count=120)
        assert report.ok, report.failures
        checked += report.checked
        rounds += 1
    print(f"criterion 06 PASS: canonical-sequence contract on {checked} pairs")


def test_criterion_07_improvement_theorem_on_200_instances():
    for i in range(200):
        inst = random_instance(
            9_000 + i,
            n=3 + i % 4,
            m=4 + i % 7,
            profile=PROFILES[i % 3],
            weights=(-4, 4),
            objective=OBJECTIVES[i % len(OBJECTIVES)],
        )
        assert verify_improvement_theorem(inst) is None
    print("criterion 07 PASS: near-type improvement exists on 200 instances")


def test_criterion_08_exchange_property_on_harness_pairs():
    checked = 0
    rounds = 0
    while checked < 200:
        report = run_verification_suite("exchange", seed=7 + rounds, count=120)
        assert report.ok, report.failures
        checked += report.checked
        rounds += 1
    print(f"criterion 08 PASS: exchange property on {checked} harness pairs")


def test_criterion_09_classification_clean_on_basic_paths():
    processed = 0
    for instance, m, n in harness_pairs(seed=17, count=400):
        cycles, steps = extract_canonical_sequence(instance, m, n)
        running = m
        for cycle in cycles:
            running = apply(running, frozenset(cycle.edges))
        for step in steps:
            if len(step.edge_set) <= 12:
                refined = make_basic(instance, running, step, granularity="edges")
                assert is_basic(instance, running, refined, granularity="edges")
                report = classify(instance, running, refined)
                assert report.ok, report.violations
                processed += 1
            running = apply(running, step.edge_set)
        assert running.selected == n.selected
    assert processed >= 100
    print(f"criterion 09 PASS: {processed} basic paths classified with zero violations")


def test_criterion_10_blossom_equals_brute_force_on_300_graphs():
    rng = random.Random(1010)
    feasible = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        keep = pairs[: rng.randint(0, len(pairs))]
        g = MultiGraph(n, tuple((u, v, rng.randint(-8, 8)) for u, v in keep))
        got = max_weight_perfect_matching(g)
        found, complete = perfect_matchings(g, cap=100_000)
        assert complete
        if not found:
            assert got is None
            continue
        best = max(sum(g.edges[e][2] for e in sel) for sel in found)
        assert got is not None and matching_weight(g, got) == best
        feasible += 1
    print(f"criterion 10 PASS: blossom exact on 300 graphs ({feasible} with perfect matchings)")


def test_criterion_11_scale_smoke_test(tmp_path, capsys):
    instance_path = str(FIXTURES / "scale60.bm")
    cert_path = str(tmp_path / "scale60.cert")
    inst = parse_instance((FIXTURES / "scale60.bm").read_text(), "max-card")
    assert inst.graph.vertex_count == 60 and inst.graph.edge_count == 150

    started = time.perf_counter()
    stats: dict = {}
    best = solve(inst, stats=stats)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert best is not None and is_b_matching(inst, best)
    assert improvement_step(inst, best) is None

    code = main(["solve", "--input", instance_path, "--output", cert_path])
    assert code == 0
    code = main(
        ["check", "--input", instance_path, "--certificate", cert_path, "--assert-optimal"]
    )
    assert code == 0
    capsys.readouterr()
    print(
        f"criterion 11 PASS: 60-vertex 150-edge instance solved to size "
        f"{len(best)} in {elapsed:.2f}s and certified"
    )
