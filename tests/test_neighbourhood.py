import dataclasses
import hashlib
import random
import subprocess
import sys
from itertools import combinations, product

import pytest

import bmatch.neighbourhood as neighbourhood

from bmatch.core import (
    OBJECTIVES,
    BInstance,
    DegreeSet,
    Matching,
    MultiGraph,
    current_type,
    degrees,
    is_b_matching,
    matching_weight,
)
from bmatch.neighbourhood import (
    _as_max_weight,
    _bound,
    _candidate_spec,
    _pin_values,
    _rounded,
    enumerate_candidates,
    find_feasible,
    improvement_step,
    solve,
)
from bmatch.gen import random_instance
from bmatch.oracle import enumerate_b_matchings
from bmatch.reduce import ab_to_pm, uniform_to_ab
from bmatch.structure import (
    is_neighbouring_type,
    is_same_uniform_type,
    neighbouring_types,
)
from bmatch.uniform import solve_uniform

from conftest import relaxation, src_env


def triangle(degree_values) -> BInstance:
    g = MultiGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
    return BInstance(g, tuple(DegreeSet(degree_values) for _ in range(3)), "max-card")


# -- find_feasible -----------------------------------------------------------------


def test_find_feasible_triangle_all_one_is_infeasible():
    assert find_feasible(triangle((1,))) is None


def test_find_feasible_fig2(fig2):
    got = find_feasible(fig2)
    assert got is not None
    assert is_b_matching(fig2, got)


def test_find_feasible_propagates_forced_chains():
    # every vertex demands full degree: all edges forced, zero branching
    g = MultiGraph(5, tuple((i, i + 1, 1) for i in range(4)))
    sets = (DegreeSet((1,)), DegreeSet((2,)), DegreeSet((2,)), DegreeSet((2,)), DegreeSet((1,)))
    inst = BInstance(g, sets, "max-card")
    got = find_feasible(inst)
    assert got is not None and got.selected == frozenset(range(4))


def test_find_feasible_detects_forced_contradiction():
    # middle vertex needs 2 but its neighbours allow at most one end each
    g = MultiGraph(3, ((0, 1, 1), (1, 2, 1)))
    inst = BInstance(g, (DegreeSet((0,)), DegreeSet((1, 2)), DegreeSet((0,))), "max-card")
    assert find_feasible(inst) is None


def test_find_feasible_deep_search_needs_no_recursion():
    # 300 vertices and 1500 edges: the search must not grow the stack.
    g = random_instance(0, 300, 1500, profile="interval").graph
    sets = tuple(DegreeSet(tuple(range(g.degree(v) + 1))) for v in range(300))
    inst = BInstance(g, sets, "min-card")
    assert is_b_matching(inst, find_feasible(inst))


def test_find_feasible_answers_are_pinned():
    # The verdict on 900 seeded instances, hashed (275 feasible); every
    # answer is a B-matching.
    profiles = ("interval", "parity", "mixed")
    verdicts = []
    for seed in range(900):
        inst = random_instance(seed, 5 + seed % 8, 6 + seed % 17, profile=profiles[seed % 3])
        got = find_feasible(inst)
        assert got is None or is_b_matching(inst, got), seed
        verdicts.append("none" if got is None else "some")
    assert verdicts.count("some") == 275
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    assert digest == "8d211d746fd12a17280ed8b1dd5523ded4a6873a9f4948b22634d2c5d96dfd5a"


def test_find_feasible_verdicts_match_the_oracle():
    # 2,000 seeded tiny instances: "none" exactly when the oracle has no
    # B-matching, and every answer is one.
    profiles = ("interval", "parity", "mixed")
    feasible = 0
    for seed in range(2000):
        inst = random_instance(seed, 2 + seed % 5, seed % 9, profile=profiles[seed % 3])
        got = find_feasible(inst)
        exists = next(iter(enumerate_b_matchings(inst)), None) is not None
        assert (got is not None) == exists, seed
        assert got is None or is_b_matching(inst, got), seed
        feasible += exists
    assert feasible == 1147


def test_find_feasible_refutes_where_backtracking_overran():
    # An edge-by-edge backtracking search passed 1M nodes here.
    assert find_feasible(random_instance(256, 40, 100, profile="parity")) is None


# -- candidate types ---------------------------------------------------------------


def test_current_type_fig2(fig2, fig2_m7):
    ct = current_type(fig2, fig2_m7)
    assert ct[0] == 1  # degree 1 in {0} | {1}
    assert ct[7] == 0  # degree 0 in {0} | {1, 3, 5}
    assert all(ct[v] == 0 for v in range(15) if v not in (0, 7))


def test_enumerate_candidates_fig2(fig2, fig2_m7):
    cands = enumerate_candidates(fig2, fig2_m7)
    assert cands[0] == ()  # same-type candidate always first
    assert list(cands[1:]) == [((0, -1), (7, 1))]


def test_candidate_enumeration_is_deterministic(fig2, fig2_m7):
    first = enumerate_candidates(fig2, fig2_m7)
    again = enumerate_candidates(fig2, fig2_m7)
    assert first == again
    specs = [candidate_spec(fig2, fig2_m7, moves) for moves in first]
    assert specs == [candidate_spec(fig2, fig2_m7, moves) for moves in again]


def test_candidates_are_exactly_the_neighbouring_types(fig2, fig2_m7):
    # Along seeded walks, t + moves runs once through every in-range type u
    # that neighbouring_types(t, u) admits, found here by trying every
    # in-range type, and through nothing else.
    walks = [(fig2, fig2_m7)]
    for seed in range(60):
        n = 4 + seed % 5
        walks.append(planted(seed, n, 2 * n + seed % 5, OBJECTIVES[seed % 4]))
    steps = 0
    for inst, matching in walks:
        sizes = [len(inst.intervals(v)) for v in range(inst.graph.vertex_count)]
        while matching is not None:
            t = current_type(inst, matching)
            got = []
            for moves in enumerate_candidates(inst, matching):
                u = list(t)
                for v, off in moves:
                    u[v] += off
                got.append(tuple(u))
            every = product(*(range(k) for k in sizes))
            assert sorted(got) == [u for u in every if neighbouring_types(t, u)]
            steps += 1
            matching = improvement_step(inst, matching)
    assert steps > len(walks)


def candidate_spec(inst: BInstance, matching: Matching, moves) -> tuple[range, ...]:
    """The spec improvement_step builds for the candidate `moves` of its
    step from `matching`."""
    t = current_type(inst, matching)
    base = tuple(inst.intervals(v)[i] for v, i in enumerate(t))
    return _candidate_spec(inst, t, base, moves)


def _step_bound(inst: BInstance, matching: Matching):
    """The bound of improvement_step's step from `matching`, as a function
    of the candidate's moves."""
    t = current_type(inst, matching)
    values = _pin_values(inst, _as_max_weight(inst)[0])
    base_total = sum(values[v][i] for v, i in enumerate(t))
    return lambda moves: _bound(moves, t, values, base_total)


def test_incremental_bound_matches_the_full_sum():
    # Seed 3 draws a loop and negative weights.
    inst, plant = planted(3, 6, 12, "max-card", weights=(-4, 6))
    assert any(u == v for u, v, _w in inst.graph.edges)
    assert any(w < 0 for _u, _v, w in inst.graph.edges)
    for objective in OBJECTIVES:
        inst = dataclasses.replace(inst, objective=objective)
        work = _as_max_weight(inst)[0]
        pin_value = {}  # (v, pin) -> best end-weight sum over subsets of its size
        bound = _step_bound(inst, plant)
        for moves in enumerate_candidates(inst, plant):
            full = 0
            for v, pin in enumerate(candidate_spec(inst, plant, moves)):
                if (v, pin) not in pin_value:
                    ends = [w for a, b, w in work.edges for x in (a, b) if x == v]
                    pin_value[v, pin] = max(
                        sum(chosen)
                        for d in range(len(ends) + 1)
                        if d in pin
                        for chosen in combinations(ends, d)
                    )
                full += pin_value[v, pin]
            assert bound(moves) == full // 2, (objective, moves)


def test_bound_holds_every_candidate_optimum():
    # At every step of every walk, each candidate's optimum lies within its
    # bound.  Top-hi sums would not: with negative (or, for the min
    # objectives, negated) weights a lower degree can carry more weight.
    solved = 0
    for seed in range(80):
        objective = OBJECTIVES[seed % 4]
        n = 4 + seed % 5
        inst, matching = planted(seed, n, n + seed % 13, objective, weights=(-4, 6))
        work, _sign = _as_max_weight(inst)
        while matching is not None:
            bound = _step_bound(inst, matching)
            for moves in enumerate_candidates(inst, matching):
                spec = candidate_spec(inst, matching, moves)
                found = solve_uniform(work, spec)
                if found is None:
                    continue
                solved += 1
                value = matching_weight(work, found)
                assert value <= bound(moves), (seed, moves)
            matching = improvement_step(inst, matching)
    assert solved == 461


def _pinned_instances():
    """400 planted instances with weights -4..6 and loops, all four
    objectives."""
    for seed in range(400):
        objective = OBJECTIVES[seed % 4]
        n = 4 + seed % 5
        yield seed, planted(seed, n, n + seed % 13, objective, weights=(-4, 6))[0]


def _pinned_walks() -> tuple[list[str], list[str], list[str]]:
    """solve's answers, its solve counts and its objective values on the
    pinned instances."""
    answers, counters, values = [], [], []
    for _seed, inst in _pinned_instances():
        stats = {}
        got = solve(inst, stats=stats)
        line = "none" if got is None else " ".join(map(str, sorted(got.selected)))
        answers.append(line)
        counters.append(str(stats["solved"]))
        if got is None:
            values.append("none")
        elif inst.objective.endswith("card"):
            values.append(str(len(got)))
        else:
            values.append(str(matching_weight(inst.graph, got)))
    return answers, counters, values


def test_solve_answers_are_pinned():
    # Hashed as recorded before weight objectives were pruned, before
    # candidates were tried in bound order, before solve answered from the
    # relaxation, which may pick another optimum among ties, again before
    # a search that overruns 2|E| nodes asked the relaxation first, and
    # again before the gadget's pool became a path (seed 293, min-card, now
    # answers with other edges of the same count), and again before solve
    # rounded the relaxation's answer, whose solve may pick another optimum
    # among ties or start the walk elsewhere, and again before the pool
    # became a parity chain, whose gadgets tie-break differently, and again
    # when the weighted blossom run began from per-vertex duals, which
    # resolve ties differently, and again when the vertex gadget became
    # banded (55 walks answer with other edges of the same value), and
    # again when parity runs stopped becoming loops, optional internals
    # were paired and a dual update began to resume the scan only at its
    # new tight edges (26 walks), and again when a blossom stage began to
    # augment along every disjoint path it finds (45 walks), and again when
    # solve stopped taking the feasibility search's matching as a start or
    # as an answer at the degree-sum bound (29 walks answer with another
    # optimum: that of the relaxation or of its rounding), and again when a
    # best-first search over slices of B(v) replaced the certifying walk
    # (seeds 10, 115, 179, 211, 314, 347, 374 and 397 answer with another
    # optimum of the same value), and again when the weighted blossom run
    # began on doubled unit weights, from half-integral duals (43 runs of
    # the cardinality objectives answer with another optimum of the same
    # value).
    answers, _counters, _values = _pinned_walks()
    digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
    assert digest == "d26c3e69f101bdec41ada5736495252a74c41637ad60f505ecc126f338f0e227"


def test_solve_counters_are_pinned():
    # The solve count per run of the same instances: each search node,
    # the relaxation at its root among them, counts as one solve, and so
    # does the solve of the relaxation's rounding.
    # Re-recorded when the pool became a parity chain (other ties, other
    # walks) and the walk began to count candidates inside the rounding as
    # cached, and again when the weighted blossom run began from per-vertex
    # duals (other ties: three walks move between ending at the relaxation
    # and ending at its rounding), and again when the vertex gadget became
    # banded (other ties: two walks move from the relaxation to its
    # rounding, one walk now makes an iteration, one prunes 10 for 13), and
    # again with the paired gadget and the resume at new tight edges (other
    # ties: three walks move from the relaxation to its rounding, three
    # back, and one walk of an iteration now ends at the relaxation), and
    # again when the degree-sum rung went (68 runs that ended there with no
    # solve end at the relaxation, one at its rounding, and a walk that
    # started from the search's matching on a tie starts from the rounding's
    # answer and prunes 3 for 4), and again when the search replaced the
    # certifying walk (42 runs: each search node counts as one solve, no
    # run walks, and the weight objectives round after the first split).
    # Re-recorded when solve lost the walk: each line holds the solve count
    # alone (with the iterations, cached and pruned counts, still 0, the
    # same runs hashed to c8e15342...a4ca).  Re-recorded when the weighted
    # run began on doubled unit weights (other ties: seed 288 ends at the
    # relaxation's duals with 1 solve, not at its rounding with 2).
    _answers, counters, _values = _pinned_walks()
    digest = hashlib.sha256("\n".join(counters).encode()).hexdigest()
    assert digest == "f5a05ebe4b6d84a6a2f3c8a444e85cb786c651c2808fbe153a6e91c0f255d32a"


def test_solve_values_are_pinned():
    # The optimum values alone, recorded before solve answered from the
    # relaxation: which certificate ends a run must not move them.
    _answers, _counters, values = _pinned_walks()
    digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
    assert digest == "e70d96029def4e0e27a6d46e1277d605f68c2069a7d2d3c0ae9bb0825ca52279"


def _certified(inst: BInstance) -> tuple[Matching | None, str]:
    """solve's answer and the trace line of the certificate that ended it."""
    lines = []
    got = solve(inst, trace=lines.append)
    return got, lines[-1]


def _full_walk(inst: BInstance) -> Matching | None:
    """The type walk with no bound exit, no relaxation and no stop at its
    bound: from `find_feasible`'s matching until a step finds nothing."""
    matching = find_feasible(inst)
    while matching is not None:
        improved = improvement_step(inst, matching)
        if improved is None:
            return matching
        matching = improved
    return None


def test_relaxation_answers_are_optimal():
    # An answer taken straight from the relaxation, or from the solve of its
    # rounding, lets no candidate type improve on it: the walk's own
    # certificate holds for it too.
    direct = {ending: dict.fromkeys(OBJECTIVES, 0) for ending in ("duals", "rounded")}
    for seed, inst in _pinned_instances():
        got, certificate = _certified(inst)
        if "relaxation's duals" in certificate:
            ending = "duals"
        elif "from the rounded relaxation" in certificate:
            ending = "rounded"
        else:
            continue
        assert is_b_matching(inst, got), seed
        assert improvement_step(inst, got) is None, seed
        direct[ending][inst.objective] += 1
    assert min(direct["duals"].values()) > 0, direct
    assert sum(direct["rounded"].values()) > 0, direct


def test_walk_answers_match_the_full_walk():
    # Wherever solve does not end at the relaxation's duals, by the rounding
    # or by the search, its answer reaches the value of the walk without a
    # UB stop, and no candidate type improves on it.
    endings = dict.fromkeys(("from the rounded relaxation", "no open node of the search"), 0)
    for seed, inst in _pinned_instances():
        got, certificate = _certified(inst)
        if "relaxation's duals" in certificate:
            continue
        work, _sign = _as_max_weight(inst)
        assert matching_weight(work, got) == matching_weight(work, _full_walk(inst)), seed
        assert improvement_step(inst, got) is None, seed
        endings[next(e for e in endings if e in certificate)] += 1
    assert endings == {"from the rounded relaxation": 8, "no open node of the search": 43}


def _enumeration_order_step(inst: BInstance, matching: Matching) -> Matching | None:
    """improvement_step before it tried candidates in bound order:
    candidates in enumeration order, each pruned when its bound cannot
    strictly beat the best weight so far and solved otherwise, keeping the
    first strictly heavier result."""
    work, _sign = _as_max_weight(inst)
    bound = _step_bound(inst, matching)
    best, best_value = None, matching_weight(work, matching)
    for moves in enumerate_candidates(inst, matching):
        if bound(moves) <= best_value:
            continue
        result = solve_uniform(work, candidate_spec(inst, matching, moves))
        if result is None:
            continue
        value = matching_weight(work, result)
        if value > best_value:
            best, best_value = result, value
    return best


def test_bound_order_keeps_the_enumeration_order_answer():
    # Each step reaches the weight of the enumeration-order step, or None
    # where it does; on a tie it may return another maximizer.  The walks
    # make 306 improving steps, as many as when ties went to the earliest
    # candidate.
    steps = other_maximizers = 0
    for seed in range(400):
        objective = OBJECTIVES[seed % 4]
        n = 4 + seed % 5
        inst, matching = planted(seed, n, n + seed % 13, objective, weights=(-4, 6))
        work, _sign = _as_max_weight(inst)
        while matching is not None:
            expected = _enumeration_order_step(inst, matching)
            stats = {}
            got = improvement_step(inst, matching, stats=stats)
            got_weight, expected_weight = (
                None if m is None else matching_weight(work, m) for m in (got, expected)
            )
            assert got_weight == expected_weight, seed
            candidates = len(enumerate_candidates(inst, matching))
            assert sum(stats.values()) == candidates, seed
            steps += got is not None
            other_maximizers += got != expected
            matching = got
    assert steps == 306 and other_maximizers > 0


def count_spec_builds(monkeypatch) -> list:
    """Record the moves of every candidate spec built from here on."""
    built = []
    build = neighbourhood._candidate_spec

    def counting(instance, t, base, moves):
        built.append(moves)
        return build(instance, t, base, moves)

    monkeypatch.setattr(neighbourhood, "_candidate_spec", counting)
    return built


def test_pruned_candidates_build_no_spec(monkeypatch):
    built = count_spec_builds(monkeypatch)
    # Every B(v) holds 0, so the empty matching is optimal for min-card and
    # every candidate is pruned.
    g = random_instance(0, 40, 100, profile="interval").graph
    sets = tuple(DegreeSet(tuple(range(g.degree(v) + 1))) for v in range(40))
    stats = {}
    assert improvement_step(
        BInstance(g, sets, "min-card"), Matching(frozenset()), stats=stats
    ) is None
    assert stats["pruned"] > 700 and stats["solved"] == 0
    assert built == []
    # The count does see the specs of the candidates a step visits.
    stats = {}
    improvement_step(BInstance(g, sets, "max-card"), Matching(frozenset()), stats=stats)
    assert len(built) == stats["solved"] > 0


def test_pruned_weight_candidates_build_no_spec(monkeypatch):
    built = count_spec_builds(monkeypatch)
    # Positive weights and 0 in every B(v): the empty matching is optimal for
    # min-weight, and every candidate's bound is at least its value 0.
    g = random_instance(0, 40, 100, profile="interval", weights=(1, 9)).graph
    sets = tuple(DegreeSet(tuple(range(g.degree(v) + 1))) for v in range(40))
    stats = {}
    assert improvement_step(
        BInstance(g, sets, "min-weight"), Matching(frozenset()), stats=stats
    ) is None
    assert stats["pruned"] > 700 and stats["solved"] == 0
    assert built == []


# -- improvement step ---------------------------------------------------------------


def test_same_type_candidate_cannot_leave_seven(fig2, fig2_m7):
    same = enumerate_candidates(fig2, fig2_m7)[0]
    best = solve_uniform(fig2.graph, candidate_spec(fig2, fig2_m7, same))
    assert len(best) == 7
    assert is_same_uniform_type(fig2, fig2_m7, best)


def test_improvement_step_finds_neighbouring_type(fig2, fig2_m7):
    better = improvement_step(fig2, fig2_m7)
    assert better is not None and len(better) >= 8
    assert is_b_matching(fig2, better)
    assert is_neighbouring_type(fig2, fig2_m7, better)


def test_improvement_step_none_at_optimum(fig2):
    best = solve(fig2)
    assert improvement_step(fig2, best) is None


def test_improvement_step_respects_sense(fig2, fig2_m7):
    worse = improvement_step(dataclasses.replace(fig2, objective="min-card"), fig2_m7)
    assert worse is not None and len(worse) < 7


def test_stats_accumulate_across_calls(fig2, fig2_m7):
    stats = {}
    improvement_step(fig2, fig2_m7, stats=stats)
    first_solved = stats["solved"]
    improvement_step(fig2, fig2_m7, stats=stats)
    assert stats["solved"] == 2 * first_solved
    assert set(stats) == {"solved", "pruned"}


@pytest.mark.parametrize(
    "fixture, objective, steps, value, solved, pruned",
    [
        ("fig2", "max-card", 1, 9, 2, 2),
        ("fig2", "min-card", 1, 6, 1, 3),
        ("fig2", "max-weight", 1, 9, 2, 2),
        ("fig2", "min-weight", 1, 6, 1, 3),
        ("scale60", "max-card", 9, 88, 185, 3837),
        ("scale60", "min-card", 9, 79, 327, 4187),
        ("scale60", "max-weight", 9, 88, 185, 3837),
        ("scale60", "min-weight", 9, 79, 327, 4187),
    ],
)
def test_fixture_walks_are_pinned(request, fixture, objective, steps, value, solved, pruned):
    # The walk of scripts/improvement_trace.py: from the optimum of the
    # opposite objective to a step that finds nothing.  Recorded when each
    # walk still skipped the specs its earlier steps had solved, which
    # counted them as cached: fig2's max walks then made 1 solve and 1
    # cached, the others none cached.
    inst = dataclasses.replace(request.getfixturevalue(fixture), objective=objective)
    direction, kind = objective.split("-")
    opposite = f"{'min' if direction == 'max' else 'max'}-{kind}"
    matching = solve(dataclasses.replace(inst, objective=opposite))
    stats = {}
    walked = 0
    while (better := improvement_step(inst, matching, stats=stats)) is not None:
        matching = better
        walked += 1
    assert walked == steps
    assert matching_weight(inst.graph, matching) == value
    assert stats == {"solved": solved, "pruned": pruned}


# -- full solve ---------------------------------------------------------------------


def test_solve_fig2_max_card(fig2):
    best = solve(fig2)
    assert len(best) == 9
    assert is_b_matching(fig2, best)
    assert degrees(fig2.graph, best)[7] == 5


def test_solve_fig2_min_card(fig2):
    inst = dataclasses.replace(fig2, objective="min-card")
    best = solve(inst)
    assert best is not None
    assert len(best) == 6
    assert is_b_matching(inst, best)


def test_solve_weight_senses():
    g = MultiGraph(2, ((0, 1, 5), (0, 1, -3)))
    sets = (DegreeSet((0, 1, 2)), DegreeSet((0, 1, 2)))
    hi = solve(BInstance(g, sets, "max-weight"))
    lo = solve(BInstance(g, sets, "min-weight"))
    assert matching_weight(g, hi) == 5
    assert matching_weight(g, lo) == -3


def test_solve_ends_a_wide_hull_at_the_relaxation():
    # B(v) = [0, d(v)]: the relaxation is B itself, so its answer, the empty
    # matching of min-card, is a B-matching, optimal by its duals after one
    # solve of the banded gadget.
    g = random_instance(0, 300, 1500, profile="interval").graph
    sets = tuple(DegreeSet(tuple(range(g.degree(v) + 1))) for v in range(300))
    stats, lines = {}, []
    got = solve(BInstance(g, sets, "min-card"), trace=lines.append, stats=stats)
    assert got == Matching(frozenset())
    assert lines == [DUALS.format(0)]
    assert stats == {"solved": 1}


def test_solve_infeasible_returns_none():
    assert solve(triangle((1,))) is None


def _spy_on_searches(monkeypatch) -> list[BInstance]:
    """Route calls of `find_feasible` through a spy; the list it returns
    receives each call's instance."""
    calls = []
    real = neighbourhood.find_feasible

    def spy(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(neighbourhood, "find_feasible", spy)
    return calls


@pytest.mark.parametrize("seed,n,m", [(256, 40, 100), (939575606, 20, 50), (939575602, 20, 50)])
def test_relaxation_refutes_once_the_search_backtracks(monkeypatch, seed, n, m):
    # Seed 256 overran an edge-by-edge backtracking search of 1M nodes; the
    # two n=20 instances took it 18k and 105k nodes.  Propagation alone
    # decides none of them, and the relaxation's barrier decides each.
    calls = _spy_on_searches(monkeypatch)
    inst = random_instance(seed, n, m, profile="parity")
    stats, lines = {}, []
    assert solve(inst, trace=lines.append, stats=stats) is None
    assert lines[-1] == "solve: infeasible, the relaxation has a Tutte barrier"
    assert calls == []
    assert stats == {"solved": 1}


def test_relaxation_barrier_is_checked_under_optimize():
    # With asserts off, the seed-256 "no" still passes through the barrier
    # check, and a barrier that proves nothing, returned in place of the one
    # weighted run, still raises.
    code = (
        "import bmatch.blossom as blossom\n"
        "from bmatch.gen import random_instance\n"
        "from bmatch.neighbourhood import solve\n"
        "inst = random_instance(256, 40, 100, profile='parity')\n"
        "checked = []\n"
        "real = blossom._check_barrier\n"
        "blossom._check_barrier = lambda g, x: checked.append(real(g, x))\n"
        "print(solve(inst), len(checked))\n"
        "blossom._check_barrier = real\n"
        "def false_barrier(weight, endpoint, neighbend):\n"
        "    return list(range(len(neighbend)))\n"
        "blossom._solve = false_barrier\n"
        "solve(inst)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == "None 1\n"
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("AssertionError: barrier of ")
    assert last.endswith(" vertices leaves only 0 odd components")


def test_relaxation_first_keeps_the_values(monkeypatch):
    # The relaxation and the search over its slices decide every instance
    # that propagation alone does not: solve never calls find_feasible.
    calls = _spy_on_searches(monkeypatch)
    for _seed, inst in _pinned_instances():
        solve(inst)
    assert calls == []


def test_search_refutes_where_the_relaxation_has_an_answer(monkeypatch):
    # U(u) = [0, 3] admits the single edge that B(u) = {0, 2, 3} does not,
    # so the relaxation has a solution and its rounding has none.  The
    # search splits U(u) at 1 into {0} and {2, 3}, and each child's barrier
    # closes it.
    calls = _spy_on_searches(monkeypatch)
    g = MultiGraph(2, ((0, 1, 1), (0, 1, 1), (0, 1, 1)))
    inst = BInstance(g, (DegreeSet((0, 2, 3)), DegreeSet((1,))), "max-card")
    lines, stats = [], {}
    assert solve(inst, trace=lines.append, stats=stats) is None
    assert lines == [
        "search: bound 1, vertex 0 splits at degree 1",
        "solve: infeasible, every node of the search has a Tutte barrier",
    ]
    assert calls == []
    assert stats == {"solved": 4}


def _gadgets_then_a_dead_pair(k: int) -> BInstance:
    """k gadgets, each a vertex a with B(a) = {0, 1, 3} and pendant edges
    of weight 5, 5 and -1 to vertices with B = {0, 1}, then the pair of
    the test above, which has no B-matching: its vertices come last and
    its edges first."""
    n = 4 * k + 2
    edges = [(n - 2, n - 1, 1)] * 3
    sets = []
    for i in range(k):
        edges += [(4 * i, 4 * i + 1, 5), (4 * i, 4 * i + 2, 5), (4 * i, 4 * i + 3, -1)]
        sets += [DegreeSet((0, 1, 3))] + [DegreeSet((0, 1))] * 3
    sets += [DegreeSet((0, 2, 3)), DegreeSet((1,))]
    return BInstance(MultiGraph(n, tuple(edges)), tuple(sets), "max-weight")


def test_search_doubles_its_solves_with_each_gap_vertex_before_a_dead_pair():
    # The search's worst case, bounded here: every node's answer puts each
    # unsplit gadget's a at degree 2, and a is split before the dead pair,
    # so every gadget doubles the nodes and only the pair's split closes
    # them.
    for k in range(1, 5):
        inst = _gadgets_then_a_dead_pair(k)
        lines, stats = [], {}
        assert solve(inst, trace=lines.append, stats=stats) is None
        assert lines[-1] == "solve: infeasible, every node of the search has a Tutte barrier"
        assert stats == {"solved": 2 ** (k + 2)}


def test_find_feasible_refutes_gadgets_before_a_dead_pair(monkeypatch):
    # On zero weights no gadget vertex leaves b(v) in a node's answer, so
    # the search splits only at the dead pair: four solves at every k.
    solves = []
    real = neighbourhood.solve_uniform

    def counted(graph, spec):
        solves.append(spec)
        return real(graph, spec)

    monkeypatch.setattr(neighbourhood, "solve_uniform", counted)
    for k in range(1, 21):
        solves.clear()
        assert find_feasible(_gadgets_then_a_dead_pair(k)) is None
        assert len(solves) == 4, k


def test_rounding_picks_runs_next_to_the_relaxed_degrees():
    # R selects edges 0-4: degrees 3, 1, 4 and, from a loop alone, 2.
    g = MultiGraph(4, (
        (0, 1, 1), (0, 2, 1), (0, 2, 1), (2, 2, 1), (3, 3, 1),
        (0, 1, 1), (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 3, 1),
    ))
    sets = ((0, 2, 4, 5), (0, 1, 2, 4), (1, 2, 4, 6), (0, 2, 3))
    inst = BInstance(g, tuple(DegreeSet(b) for b in sets), "max-card")
    assert degrees(g, Matching(frozenset(range(5)))) == [3, 1, 4, 2]
    assert _rounded(inst, Matching(frozenset(range(5)))) == (
        range(0, 5, 2),  # 3 is a gap: the parity run through 2 and 4
        range(0, 3),  # dense run {0, 1, 2} is longer than parity run {1}
        range(2, 7, 2),  # parity run {2, 4, 6} is longer than dense run {4}
        range(2, 4),  # the loop counts 2; runs {2, 3} and {0, 2} tie
    )


def test_rounding_stays_inside_the_degree_sets():
    missed = 0
    for seed, inst in _pinned_instances():
        work, _sign = _as_max_weight(inst)
        relaxed = solve_uniform(work, relaxation(inst))
        if relaxed is None or is_b_matching(inst, relaxed):
            continue
        missed += 1
        for v, run in enumerate(_rounded(inst, relaxed)):
            assert all(d in inst.b(v) for d in run), seed
    assert missed > 0


def planted_mixed(
    seed: int, n: int, m: int, weights: tuple[int, int], objective: str
) -> BInstance:
    """A planted instance as the benchmark draws it with profile "mixed": a
    random multigraph, a plant that keeps each edge with probability 1/2,
    and per vertex a degree set grown from the plant's degree, first down
    and then up, by steps of 1 or 2 while a 0.55 coin allows and the
    degrees stay in [0, d(v)]."""
    rng = random.Random(seed)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n), rng.randint(*weights)) for _ in range(m)
    )
    g = MultiGraph(n, edges)
    deg = degrees(g, Matching(frozenset(e for e in range(m) if rng.random() < 0.5)))
    sets = []
    for v in range(n):
        values = [deg[v]]
        while rng.random() < 0.55:
            lower = values[0] - rng.choice((1, 2))
            if lower < 0:
                break
            values.insert(0, lower)
        while rng.random() < 0.55:
            higher = values[-1] + rng.choice((1, 2))
            if higher > g.degree(v):
                break
            values.append(higher)
        sets.append(DegreeSet(tuple(values)))
    return BInstance(g, tuple(sets), objective)


ROUNDED = "solve: optimal, value from the rounded relaxation reached the relaxation bound {}"
DUALS = "solve: optimal, value {} by the relaxation's duals, its answer is a B-matching"


@pytest.mark.parametrize(
    "objective,value,ending",
    [("min-weight", 230, ROUNDED), ("max-card", 117, DUALS)],
    ids=["min-weight-230", "max-card-117"],
)
def test_rounding_answers_where_the_full_search_overruns(objective, value, ending):
    # The full feasibility search passes its 1M nodes on this instance, so
    # solve does not need it.  Under min-weight the
    # relaxation's answer is not a B-matching, and the rounding's answer
    # reaches the relaxation bound.  Under max-card the relaxation's answer
    # is one of its tied optima.  It was a B-matching before the weighted
    # blossom run began from per-vertex duals and again once the vertex
    # gadget became banded.  While parity runs no longer became loops and
    # optional internals were paired, it was not, and the rounding reached
    # the bound as under min-weight.  Since a blossom stage augments along
    # every disjoint path it finds, it is a B-matching again.
    inst = planted_mixed(1, 80, 200, (1, 9), objective)
    lines = []
    got = solve(inst, trace=lines.append)
    assert is_b_matching(inst, got)
    got_value = len(got) if objective.endswith("card") else matching_weight(inst.graph, got)
    assert got_value == value
    assert lines[-1] == ending.format(value)


def test_wide_hull_relaxation_gadget_is_linear():
    # B(v) = [0, d(v)] at every vertex: the relaxation is B itself, with
    # 800 optional internals.  A pool with a spoke from each of them to
    # each pool node had 646,029 edges here; a parity chain with two spokes
    # per optional internal had 3,200 nodes.  Internals joined to all
    # externals of their vertex had 8,429 edges, the banded vertex gadget
    # 6,414; with the optional internals paired and one pool pair per
    # vertex, which only o0, o2, ... reach, it has 1,918 nodes and 4,771
    # edges.
    g = random_instance(0, 160, 400, profile="interval").graph
    sets = tuple(DegreeSet(tuple(range(g.degree(v) + 1))) for v in range(160))
    inst = BInstance(g, sets, "max-card")
    ab = uniform_to_ab(inst.graph, relaxation(inst))
    reduced, _source_edges = ab_to_pm(ab)
    assert sum(ab.b) - sum(ab.a) == 800 and len(ab.layout.pool) == 318
    assert (reduced.vertex_count, len(reduced.edges)) == (1918, 4771)
    lines = []
    got = solve(inst, trace=lines.append)
    assert len(got) == 400
    assert lines[-1] == DUALS.format(400)


def test_rounding_check_raises_under_optimize():
    # A rounding that returns the relaxation itself gives an answer that is
    # not a B-matching; with asserts off, solve still refuses it.
    code = (
        "import bmatch.neighbourhood as neighbourhood\n"
        "from bmatch.gen import random_instance\n"
        "neighbourhood._rounded = lambda inst, _r: neighbourhood._spec(\n"
        "    tuple(inst.b(v).values for v in range(inst.graph.vertex_count)))\n"
        "neighbourhood.solve(random_instance(131, 8, 20, profile='mixed'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 1
    last = proc.stderr.splitlines()[-1]
    assert last == "AssertionError: the rounding's answer is not a B-matching"


def test_solve_records_stats():
    # The rounded relaxation has no solution here, so the search splits
    # three times: six node solves after the relaxation's and its
    # rounding's.
    stats = {}
    best = solve(random_instance(131, 8, 20, profile="mixed"), stats=stats)
    assert len(best) == 10
    assert stats == {"solved": 8}


BASELINE_ROWS = [
    # (n, seed, objective, optimum value)
    (40, 1, "max-weight", 374),
    (40, 2, "max-weight", 306),
    (80, 1, "max-weight", 640),
    (100, 14, "min-card", 76),
    (100, 24, "min-card", 88),
    (100, 26, "max-card", 162),
    (100, 28, "max-card", 162),
]


@pytest.mark.parametrize(
    "n,seed,objective,value", BASELINE_ROWS, ids=[f"n{r[0]}-s{r[1]}-{r[2]}" for r in BASELINE_ROWS]
)
def test_search_answers_the_planted_rows(n, seed, objective, value):
    # Planted mixed instances with m = 2.5n, on which the rounded
    # relaxation's answer was already optimal and the walk's certifying
    # step took 160 to 1,400 candidate solves.  The search closes each
    # within 25 solves.
    weights = (1, 9) if objective.endswith("weight") else (1, 1)
    inst = planted_mixed(seed, n, int(2.5 * n), weights, objective)
    stats = {}
    got = solve(inst, stats=stats)
    assert is_b_matching(inst, got)
    assert (len(got) if objective.endswith("card") else matching_weight(inst.graph, got)) == value
    assert stats["solved"] <= 25


def test_search_ends_where_many_vertices_sit_on_a_gap():
    # Weights -9..9 and B(v) = {0, 1, 3, 5, 6} up to d(v): many vertices
    # sit on a gap, and the search splits again and again after its first
    # incumbent.  It runs until no open node bounds more, and no candidate
    # type improves on its answer.
    rng = random.Random(0)
    g = MultiGraph(20, tuple(
        (rng.randrange(20), rng.randrange(20), rng.randint(-9, 9)) for _ in range(60)
    ))
    sets = tuple(DegreeSet(tuple(d for d in (0, 1, 3, 5, 6) if d <= g.degree(v))) for v in range(20))
    inst = BInstance(g, sets, "min-weight")
    lines, stats = [], {}
    got = solve(inst, trace=lines.append, stats=stats)
    assert is_b_matching(inst, got) and matching_weight(g, got) == -162
    assert lines[-1] == "solve: optimal, value -162, no open node of the search bounds more"
    assert stats == {"solved": 106}
    assert improvement_step(inst, got) is None


# A B-matching of fig2 with 6 of the 9 edges of its max-card optimum, so
# the max walks from it take steps.
FIG2_START = Matching(frozenset({1, 3, 6, 9, 11, 14}))


def test_every_intermediate_is_feasible(fig2):
    # drive the loop by hand, checking feasibility after each step
    m = FIG2_START
    seen = 0
    while True:
        assert is_b_matching(fig2, m)
        nxt = improvement_step(fig2, m)
        if nxt is None:
            break
        assert len(nxt) > len(m)
        m = nxt
        seen += 1
    assert len(m) == 9 and seen >= 1


# -- candidate verdicts along planted walks ----------------------------------------


def planted(
    seed: int, n: int, m: int, objective: str, weights: tuple[int, int] = (1, 5)
) -> tuple[BInstance, Matching]:
    """A random multigraph (loops and parallel edges allowed) whose degree
    sets are grown around a random edge subset, which is therefore a
    feasible start."""
    rng = random.Random(seed)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n), rng.randint(*weights)) for _ in range(m)
    )
    g = MultiGraph(n, edges)
    plant = Matching(frozenset(e for e in range(m) if rng.random() < 0.5))
    deg = degrees(g, plant)
    sets = []
    for v in range(n):
        values = [deg[v]]
        while values[0] >= 2 and rng.random() < 0.55:
            values.insert(0, values[0] - rng.choice((1, 2)))
        while values[-1] + 2 <= g.degree(v) and rng.random() < 0.55:
            values.append(values[-1] + rng.choice((1, 2)))
        sets.append(DegreeSet(tuple(values)))
    return BInstance(g, tuple(sets), objective), plant


# Verdicts of the cold weighted blossom solve for every candidate of every
# step of each walk in enumeration order (1: some matching has the
# candidate's type).  Walk 12 was re-recorded when a step began to stop at
# the first bound that cannot strictly win: one of its steps now takes
# another maximizer of the same weight, and the walk goes on from there.
COLD_VERDICTS = {
    "fig2 max-card": "1111",
    "fig2 min-card": "11",
    "fig2 max-weight": "1111",
    "fig2 min-weight": "11",
    0: "1111111",
    1: "100100",
    2: "11",
    3: "110101011111111110111011",
    4: "11000011100001",
    5: "10111011",
    6: "1",
    7: "1111",
    8: "11111111111111",
    9: "1111111111111111",
    10: "111111",
    11: "1111111111",
    12: "111011010111111111111011110110101",
    13: "11",
    14: "1111",
    15: "110",
    16: "1110101110",
    17: "1111",
    18: "11110001110000",
    19: "11111111",
    20: "110110",
    21: "1111",
    22: "1",
    23: "10001011000110",
}


def test_candidate_verdicts_match_the_cold_verdicts(fig2):
    walks = []
    for objective in ("max-card", "min-card", "max-weight", "min-weight"):
        inst = dataclasses.replace(fig2, objective=objective)
        walks.append((f"fig2 {objective}", inst, FIG2_START))
    for seed in range(24):
        objective = ("max-card", "min-card", "max-weight")[seed % 3]
        walks.append((seed, *planted(seed, 10, 16, objective)))
    for name, inst, matching in walks:
        work, _sign = _as_max_weight(inst)
        verdicts = ""
        while matching is not None:
            deg = degrees(inst.graph, matching)
            for moves in enumerate_candidates(inst, matching):
                spec = candidate_spec(inst, matching, moves)
                # Only the moved vertices leave their current degree.
                distance = [
                    min(abs(deg[v] - d) for d in inst.b(v) if d in spec[v])
                    for v in range(inst.graph.vertex_count)
                ]
                assert sum(distance) == sum(distance[v] for v, _off in moves)
                found = solve_uniform(work, spec)
                verdicts += "0" if found is None else "1"
            matching = improvement_step(inst, matching)
        assert verdicts == COLD_VERDICTS[name], name
