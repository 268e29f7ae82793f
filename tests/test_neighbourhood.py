import dataclasses

import pytest

from bmatch.core import (
    BInstance,
    DegreeSet,
    Matching,
    MultiGraph,
    degrees,
    is_b_matching,
    matching_weight,
)
from bmatch.neighbourhood import (
    SearchBudgetExceeded,
    current_type,
    enumerate_candidates,
    find_feasible,
    improvement_step,
    solve,
)
from bmatch.structure import is_neighbouring_type, is_same_uniform_type
from bmatch.uniform import solve_uniform


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


def test_find_feasible_is_lexicographically_first(fig2):
    got = find_feasible(fig2)
    # excluding before including: no feasible matching is lexicographically
    # smaller, so flipping any chosen edge to excluded (keeping the prefix)
    # must break feasibility of every completion; spot-check the head edge
    smallest = min(got.selected)
    for e in range(smallest):
        assert e not in got.selected


def test_find_feasible_respects_budget():
    g = MultiGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)))
    inst = BInstance(g, tuple(DegreeSet((0, 1)) for _ in range(4)), "max-card")
    with pytest.raises(SearchBudgetExceeded):
        find_feasible(inst, node_budget=0)
    assert find_feasible(inst, node_budget=100) is not None


def test_find_feasible_propagates_forced_chains():
    # every vertex demands full degree: all edges forced, zero branching
    g = MultiGraph(5, tuple((i, i + 1, 1) for i in range(4)))
    sets = (DegreeSet((1,)), DegreeSet((2,)), DegreeSet((2,)), DegreeSet((2,)), DegreeSet((1,)))
    inst = BInstance(g, sets, "max-card")
    got = find_feasible(inst, node_budget=1)
    assert got is not None and got.selected == frozenset(range(4))


def test_find_feasible_detects_forced_contradiction():
    # middle vertex needs 2 but its neighbours allow at most one end each
    g = MultiGraph(3, ((0, 1, 1), (1, 2, 1)))
    inst = BInstance(g, (DegreeSet((0,)), DegreeSet((1, 2)), DegreeSet((0,))), "max-card")
    assert find_feasible(inst, node_budget=5) is None


# -- candidate types ---------------------------------------------------------------


def test_current_type_fig2(fig2, fig2_m7):
    ct = current_type(fig2, fig2_m7)
    assert ct.indices[0] == 1  # degree 1 in {0} | {1}
    assert ct.indices[7] == 0  # degree 0 in {0} | {1, 3, 5}
    assert all(ct.indices[v] == 0 for v in range(15) if v not in (0, 7))


def test_enumerate_candidates_fig2(fig2, fig2_m7):
    cands = enumerate_candidates(fig2, fig2_m7)
    assert cands[0].moves == ()  # same-type candidate always first
    assert [c.moves for c in cands[1:]] == [((0, -1), (7, 1))]


def test_candidate_enumeration_is_deterministic(fig2, fig2_m7):
    first = enumerate_candidates(fig2, fig2_m7)
    again = enumerate_candidates(fig2, fig2_m7)
    assert [c.moves for c in first] == [c.moves for c in again]
    assert [c.spec for c in first] == [c.spec for c in again]


# -- improvement step ---------------------------------------------------------------


def test_same_type_candidate_cannot_leave_seven(fig2, fig2_m7):
    same = enumerate_candidates(fig2, fig2_m7)[0]
    best = solve_uniform(fig2, same.spec, "max")
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
    worse = improvement_step(fig2, fig2_m7, "min-card")
    assert worse is not None and len(worse) < 7


def test_stats_accumulate_across_calls(fig2, fig2_m7):
    stats = {}
    improvement_step(fig2, fig2_m7, stats=stats)
    first_solved = stats["solved"]
    improvement_step(fig2, fig2_m7, stats=stats)
    assert stats["solved"] == 2 * first_solved
    assert set(stats) >= {"solved", "cached", "pruned"}


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


def test_solve_infeasible_returns_none():
    assert solve(triangle((1,))) is None


def test_solve_records_stats(fig2):
    stats = {}
    best = solve(fig2, stats=stats)
    assert len(best) == 9
    assert stats["iterations"] >= 1
    assert stats["solved"] >= 1


def test_every_intermediate_is_feasible(fig2):
    # drive the loop by hand, checking feasibility after each step
    m = find_feasible(fig2)
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
