import dataclasses
from itertools import combinations

import pytest

from bmatch.core import (
    BInstance,
    DegreeSet,
    Matching,
    MultiGraph,
    is_b_matching,
    matching_weight,
)
from bmatch.gen import random_instance
from bmatch.oracle import (
    EDGE_CAP,
    SUITE_NAMES,
    TooLarge,
    enumerate_b_matchings,
    oracle_optimum,
    run_verification_suite,
    verify_canonical_decomposition,
    verify_exchange_lemma,
    verify_improvement_theorem,
)

M7 = Matching(frozenset({0, 2, 4, 5, 9, 11, 14}))
M9 = Matching(frozenset({1, 3, 6, 7, 8, 10, 12, 13, 15}))


def naive_enumeration(instance):
    g = instance.graph
    for k in range(g.edge_count + 1):
        for combo in combinations(range(g.edge_count), k):
            m = Matching(frozenset(combo))
            if is_b_matching(instance, m):
                yield m


def exchange_regression_instance():
    """The difference of M and N below is one alternating cycle, so subsets
    that are canonical only in isolation (like the single loop) must not be
    admitted into the exchange tables."""
    g = MultiGraph(
        3,
        (
            (1, 2, -4), (1, 0, -3), (1, 0, -5), (0, 0, -3), (0, 2, -5),
            (0, 2, 1), (1, 1, 1), (1, 2, 1), (0, 1, -3),
        ),
    )
    sets = (DegreeSet((1,)), DegreeSet((1, 2, 3)), DegreeSet((2,)))
    return BInstance(g, sets, "max-weight")


# -- enumeration ---------------------------------------------------------------


def test_enumerates_exactly_the_feasible_sets():
    for seed in range(40):
        inst = random_instance(seed, n=2 + seed % 4, m=3 + seed % 5, weights=(-3, 3))
        got = [m.selected for m in enumerate_b_matchings(inst)]
        want = {m.selected for m in naive_enumeration(inst)}
        assert set(got) == want
        assert len(got) == len(want)


def test_enumeration_order_is_increasing_bitmask():
    for seed in range(25):
        inst = random_instance(seed, n=3, m=6, weights=(1, 1))
        masks = [
            sum(1 << e for e in m.selected) for m in enumerate_b_matchings(inst)
        ]
        assert masks == sorted(masks)


def test_fig2_has_exactly_five_feasible_matchings(fig2, fig2_m7):
    ms = list(enumerate_b_matchings(fig2))
    assert len(ms) == 5
    assert sorted(len(m) for m in ms) == [6, 7, 7, 8, 9]
    assert fig2_m7 in ms
    assert M9 in ms


def test_enumeration_respects_cap():
    inst = random_instance(3, n=6, m=EDGE_CAP + 1, weights=(1, 1))
    with pytest.raises(TooLarge):
        list(enumerate_b_matchings(inst))
    assert list(enumerate_b_matchings(inst, limit=EDGE_CAP + 1)) is not None


def test_empty_degree_set_yields_nothing():
    g = MultiGraph(1, ((0, 0, 1),))
    inst = BInstance(g, (DegreeSet((5,)),), "max-card")  # effective set empty
    assert list(enumerate_b_matchings(inst)) == []


# -- optimum -------------------------------------------------------------------


def test_oracle_optimum_fig2_senses(fig2):
    def under(objective):
        return oracle_optimum(dataclasses.replace(fig2, objective=objective))

    value, witness = under("max-card")
    assert value == 9 and witness == M9
    value, witness = under("min-card")
    assert value == 6
    assert under("max-weight")[0] == 9
    assert under("min-weight")[0] == 6


def test_oracle_optimum_uses_instance_objective(fig2):
    inst = dataclasses.replace(fig2, objective="min-card")
    assert oracle_optimum(inst)[0] == 6


def long_path_instance(n: int) -> BInstance:
    """A path on n vertices where B(v) = {d(v)}: only all edges is feasible."""
    g = MultiGraph(n, tuple((v, v + 1, 1) for v in range(n - 1)))
    return BInstance(g, tuple(DegreeSet((g.degree(v),)) for v in range(n)), "max-card")


def test_oracle_optimum_walks_more_edges_than_the_recursion_limit():
    value, witness = oracle_optimum(long_path_instance(1500), limit=5000)
    assert value == 1499 and witness.selected == frozenset(range(1499))


def test_oracle_optimum_infeasible_is_none():
    g = MultiGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
    inst = BInstance(g, tuple(DegreeSet((1,)) for _ in range(3)), "max-card")
    assert oracle_optimum(inst) is None


def test_oracle_matches_solver_on_weighted_instances():
    from bmatch.neighbourhood import solve

    for seed in range(40):
        inst = random_instance(
            seed, n=3 + seed % 4, m=4 + seed % 6, weights=(-5, 5), objective="max-weight"
        )
        got = solve(inst)
        want = oracle_optimum(inst)
        assert (got is None) == (want is None)
        if got is not None:
            assert matching_weight(inst.graph, got) == want[0]


# -- property verifiers -----------------------------------------------------------


def test_improvement_theorem_on_seeded_instances():
    for seed in range(30):
        inst = random_instance(seed, n=3 + seed % 3, m=4 + seed % 5, weights=(-4, 4))
        assert verify_improvement_theorem(inst) is None


def test_exchange_lemma_regression_single_cycle_difference():
    inst = exchange_regression_instance()
    m = Matching(frozenset({0, 4, 6}))
    n = Matching(frozenset({0, 7, 8}))
    assert is_b_matching(inst, m) and is_b_matching(inst, n)
    assert matching_weight(inst.graph, m) < matching_weight(inst.graph, n)
    assert verify_exchange_lemma(inst, m, n) is None


def test_exchange_lemma_requires_strict_improvement(fig2, fig2_m7):
    with pytest.raises(ValueError):
        verify_exchange_lemma(fig2, fig2_m7, fig2_m7)


def test_exchange_lemma_caps_difference_size(fig2, fig2_m7):
    with pytest.raises(TooLarge):
        verify_exchange_lemma(fig2, fig2_m7, M9)  # 16 difference edges


def test_exchange_lemma_on_fig2_small_pairs(fig2):
    ms = list(enumerate_b_matchings(fig2))
    checked = 0
    for a in ms:
        for b in ms:
            wa = matching_weight(fig2.graph, a)
            wb = matching_weight(fig2.graph, b)
            if wa >= wb or len(a.selected ^ b.selected) > 12:
                continue
            assert verify_exchange_lemma(fig2, a, b) is None
            checked += 1
    assert checked >= 5


def test_canonical_decomposition_verifier(fig2, fig2_m7):
    assert verify_canonical_decomposition(fig2, fig2_m7, M9) is None
    assert verify_canonical_decomposition(fig2, M9, fig2_m7) is None


# -- suites -----------------------------------------------------------------------


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_pass_safely(name):
    report = run_verification_suite(name, seed=7, count=6)
    assert report.ok, report.failures
    assert report.name == name
    assert report.checked + report.skipped == 6
    assert report.checked > 0


def test_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_verification_suite("nonsense", seed=0, count=1)


def test_suite_rejects_negative_count():
    with pytest.raises(ValueError, match="count must be nonnegative"):
        run_verification_suite("lemma2", seed=0, count=-3)
    assert run_verification_suite("lemma2", seed=0, count=0).checked == 0
