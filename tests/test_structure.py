import os
import pathlib
import subprocess
import sys

import pytest

from bmatch.core import (
    EMPTY_MATCHING,
    BInstance,
    DegreeSet,
    Matching,
    MultiGraph,
    degrees,
    is_b_matching,
)
from bmatch.structure import (
    AlternatingWalk,
    NotBasic,
    apply,
    canonical_structure,
    classify,
    decompose_symmetric_difference,
    extract_canonical_sequence,
    is_basic,
    is_canonical,
    is_neighbouring_type,
    is_same_uniform_type,
    make_basic,
    shifts_within,
    walk_problems,
    weight_of,
)

M9 = Matching(frozenset({1, 3, 6, 7, 8, 10, 12, 13, 15}))
FULL = frozenset(range(16))


def escape_instance():
    """Hub with two parallel edges to one neighbour and leaves on each side.

    Extracting the difference with the all-edges matching cannot keep the
    parallel pair attached to the growing path (the hub would pass through
    an inadmissible degree), so the pair must be emitted as its own
    single-cycle canonical path first.
    """
    g = MultiGraph(4, ((0, 1, 1), (2, 0, 1), (2, 0, 1), (0, 3, 1)))
    sets = (DegreeSet((0, 2, 4)), DegreeSet((0, 1)), DegreeSet((0, 2)), DegreeSet((0, 1)))
    return BInstance(g, sets, "max-card")


# -- walks ---------------------------------------------------------------------


def test_walk_shape_validation():
    with pytest.raises(ValueError):
        AlternatingWalk("trail", (0,), (0, 1))
    with pytest.raises(ValueError):
        AlternatingWalk("path", (0, 1), (0, 1))
    with pytest.raises(ValueError):
        AlternatingWalk("cycle", (0, 1), (0, 1, 2))  # must close


def test_walk_problems_accepts_closed_path(fig2, fig2_m7):
    # the triangle traversed as an open path returning to vertex 7: both
    # ending edges lie on the same side, so this is a path, not a cycle
    triangle = AlternatingWalk("path", (7, 9, 8), (7, 8, 9, 7))
    assert walk_problems(fig2, fig2_m7, triangle) == []


def test_walk_problems_flags_non_alternation(fig2, fig2_m7):
    # edges 7 and 8 are both unmatched in M7, so the walk fails to alternate
    broken = AlternatingWalk("path", (7, 8), (8, 7, 9))
    assert walk_problems(fig2, fig2_m7, broken)


def test_decompose_fig2_difference(fig2, fig2_m7):
    paths, cycles = decompose_symmetric_difference(fig2, fig2_m7, M9)
    assert cycles == ()
    assert [p.edges for p in paths] == [
        (0, 1, 2, 3, 4),
        (5, 6),
        (7, 9, 8),
        (10, 11, 12),
        (13, 14, 15),
    ]
    covered = sorted(e for p in paths for e in p.edges)
    assert covered == sorted(fig2_m7.selected ^ M9.selected)


def test_decompose_emits_cycles_for_degree_preserving_swaps():
    g = MultiGraph(2, ((0, 1, 1), (0, 1, 1)))
    inst = BInstance(g, (DegreeSet((1,)), DegreeSet((1,))), "max-card")
    a = Matching(frozenset({0}))
    b = Matching(frozenset({1}))
    paths, cycles = decompose_symmetric_difference(inst, a, b)
    assert paths == ()
    assert len(cycles) == 1 and cycles[0].kind == "cycle"
    assert set(cycles[0].edges) == {0, 1}


# -- apply / weights / shifts -----------------------------------------------------


def test_apply_is_symmetric_difference(fig2, fig2_m7):
    assert apply(fig2_m7, FULL) == M9
    assert apply(M9, FULL) == fig2_m7


def test_weight_of_counts_gain(fig2, fig2_m7):
    assert weight_of(fig2, fig2_m7, FULL) == 2  # 9 enter, 7 leave
    assert weight_of(fig2, M9, FULL) == -2


def test_shifts_within_whole_difference(fig2, fig2_m7):
    assert shifts_within(fig2, fig2_m7, M9, FULL)
    assert shifts_within(fig2, fig2_m7, M9, frozenset({0, 1, 2, 3, 4, 5, 6}))


def test_shifts_within_rejects_overshoot_and_wrong_direction():
    g = MultiGraph(2, ((0, 1, 1), (0, 1, 1), (0, 1, 1)))
    inst = BInstance(g, (DegreeSet((0, 1, 2, 3)),) * 2, "max-card")
    m = Matching(frozenset({0}))
    n = Matching(frozenset({0, 1}))
    assert shifts_within(inst, m, n, frozenset({1}))
    # adding edge 2 on top of n overshoots the target degree
    assert not shifts_within(inst, m, n, frozenset({1, 2}))
    # removing edge 0 moves away from the target
    assert not shifts_within(inst, m, n, frozenset({0}))


# -- canonical recognition ----------------------------------------------------------


def test_full_fig2_witness_is_canonical(fig2, fig2_m7):
    s = canonical_structure(fig2, fig2_m7, FULL)
    assert s is not None and is_canonical(fig2, fig2_m7, FULL)
    assert (s.v_first, s.v_last) == (0, 7)
    assert [w.edges for w in s.meta_path.walks] == [(0, 1, 2, 3, 4), (5, 6)]
    assert s.meta_path.junctions == (0, 5, 7)
    assert s.cycles_first == ()
    assert [len(c.walks) for c in s.cycles_last] == [1, 2]
    triangle, hexagon = s.cycles_last
    assert triangle.walks[0].edges == (7, 9, 8)
    assert hexagon.junctions == (7, 12)


def test_hexagon_alone_is_not_canonical_from_m7(fig2, fig2_m7):
    # applying only the hexagon drives vertex 7 to degree 2, outside its set
    assert canonical_structure(fig2, fig2_m7, frozenset({10, 11, 12, 13, 14, 15})) is None


def test_meta_path_alone_is_canonical(fig2, fig2_m7):
    piece = frozenset({0, 1, 2, 3, 4, 5, 6})
    s = canonical_structure(fig2, fig2_m7, piece)
    assert s is not None and (s.v_first, s.v_last) == (0, 7)


def test_figure_eight_splits_into_two_meta_cycles():
    # two parallel pairs through vertex 1: S(1, 1) holds two meta-cycles,
    # each with pairwise distinct junctions of its own
    g = MultiGraph(3, ((0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)))
    inst = BInstance(g, (DegreeSet((0, 2)), DegreeSet((0, 2, 4)), DegreeSet((0, 2))), "max-card")
    s = canonical_structure(inst, EMPTY_MATCHING, frozenset({0, 1, 2, 3}))
    assert s is not None
    assert s.v_first == s.v_last == 1
    assert s.meta_path is None
    cycles = s.cycles_first + s.cycles_last
    assert len(cycles) == 2
    for c in cycles:
        assert len(c.junctions) == len(set(c.junctions))


# -- extraction (canonical sequences) ----------------------------------------------


def test_extract_fig2_sequence(fig2, fig2_m7):
    cycles, steps = extract_canonical_sequence(fig2, fig2_m7, M9)
    assert cycles == []
    assert [(s.v_first, s.v_last, tuple(sorted(s.edge_set))) for s in steps] == [
        (0, 7, (0, 1, 2, 3, 4, 5, 6)),
        (7, 7, (7, 8, 9)),
        (7, 7, (10, 11, 12, 13, 14, 15)),
    ]


def test_extract_contract_properties(fig2, fig2_m7):
    cycles, steps = extract_canonical_sequence(fig2, fig2_m7, M9)
    running = fig2_m7
    pieces = [w.edge_set for w in cycles] + [s.edge_set for s in steps]
    union = frozenset().union(*pieces) if pieces else frozenset()
    assert union == fig2_m7.selected ^ M9.selected
    assert sum(len(p) for p in pieces) == len(union)  # pairwise disjoint
    dist = len(union)
    for piece in pieces:
        running = apply(running, piece)
        assert is_b_matching(fig2, running)
        remaining = len(running.selected ^ M9.selected)
        assert remaining < dist
        dist = remaining
    assert running == M9


def test_extract_escape_emits_cycle_step_first():
    inst = escape_instance()
    n = Matching(frozenset({0, 1, 2, 3}))
    assert is_b_matching(inst, n)
    cycles, steps = extract_canonical_sequence(inst, EMPTY_MATCHING, n)
    assert cycles == []
    assert [(s.v_first, s.v_last, tuple(sorted(s.edge_set))) for s in steps] == [
        (0, 0, (1, 2)),
        (1, 3, (0, 3)),
    ]
    first = steps[0]
    assert len(first.cycles_first) == 1 and first.meta_path is None


def test_extract_requires_feasible_endpoints(fig2, fig2_m7):
    from bmatch.core import NotFeasible

    bad = Matching(frozenset({0, 1}))
    with pytest.raises(NotFeasible):
        extract_canonical_sequence(fig2, fig2_m7, bad)


# -- type predicates -----------------------------------------------------------------


def test_same_uniform_type(fig2, fig2_m7):
    paths, _ = decompose_symmetric_difference(fig2, fig2_m7, M9)
    assert is_same_uniform_type(fig2, fig2_m7, fig2_m7)
    assert not is_same_uniform_type(fig2, fig2_m7, M9)


def test_neighbouring_type_fig2(fig2, fig2_m7):
    # W = {0, 7}, both moving to an adjacent parity interval
    assert is_neighbouring_type(fig2, fig2_m7, M9)
    assert is_neighbouring_type(fig2, M9, fig2_m7)


def test_neighbouring_type_rejects_three_deviators():
    g = MultiGraph(6, ((0, 1, 1), (2, 3, 1), (4, 5, 1)))
    inst = BInstance(g, tuple(DegreeSet((0, 1)) for _ in range(6)), "max-card")
    m = Matching(frozenset())
    n = Matching(frozenset({0, 1, 2}))
    assert not is_neighbouring_type(inst, m, n)
    assert is_neighbouring_type(inst, m, Matching(frozenset({0})))


# -- basic paths and classification ---------------------------------------------------


def test_full_witness_is_not_basic(fig2, fig2_m7):
    s = canonical_structure(fig2, fig2_m7, FULL)
    assert not is_basic(fig2, fig2_m7, s)
    with pytest.raises(NotBasic):
        classify(fig2, fig2_m7, s)


def test_make_basic_drops_positive_cycle(fig2, fig2_m7):
    s = canonical_structure(fig2, fig2_m7, FULL)
    basic = make_basic(fig2, fig2_m7, s)
    assert basic.edge_set == frozenset({0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14, 15})
    assert is_basic(fig2, fig2_m7, basic)


def test_classify_basic_fig2_path(fig2, fig2_m7):
    s = make_basic(fig2, fig2_m7, canonical_structure(fig2, fig2_m7, FULL))
    report = classify(fig2, fig2_m7, s)
    assert report.ok and report.violations == ()
    assert (report.v_first, report.v_last) == (0, 7)
    assert report.odd_first and report.odd_last


def test_edge_granularity_basic_agrees_on_small_paths(fig2, fig2_m7):
    _, steps = extract_canonical_sequence(fig2, fig2_m7, M9)
    running = fig2_m7
    for s in steps:
        if len(s.edge_set) <= 12:
            refined = make_basic(fig2, running, s, granularity="edges")
            assert is_basic(fig2, running, refined, granularity="edges")
            report = classify(fig2, running, refined)
            assert report.ok, report.violations
        running = apply(running, s.edge_set)


def test_edge_granularity_rejects_oversized(fig2, fig2_m7):
    # the 13-edge basic witness is past the edge-subset search limit
    s = make_basic(fig2, fig2_m7, canonical_structure(fig2, fig2_m7, FULL))
    assert len(s.edge_set) == 13
    with pytest.raises(ValueError):
        is_basic(fig2, fig2_m7, s, granularity="edges")


def test_granularity_name_checked(fig2, fig2_m7):
    s = canonical_structure(fig2, fig2_m7, frozenset({0, 1, 2, 3, 4, 5, 6}))
    with pytest.raises(ValueError):
        is_basic(fig2, fig2_m7, s, granularity="bogus")


def test_stuck_extraction_raises_under_optimize():
    # Seed 628708120 reaches a candidate that can neither be emitted nor
    # grown.  The growth loop must stop there with python -O as well.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    code = (
        "from bmatch.oracle import run_verification_suite\n"
        "run_verification_suite('lemma2', 628708120, 100)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert (
        "AssertionError: candidate is not canonical and cannot grow"
        in proc.stderr.splitlines()[-1]
    )
