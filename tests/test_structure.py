import hashlib
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from bmatch.core import (
    EMPTY_MATCHING,
    OBJECTIVES,
    BInstance,
    DegreeSet,
    Matching,
    MultiGraph,
    degrees,
    is_b_matching,
)
from bmatch.gen import random_instance
from bmatch.neighbourhood import find_feasible, solve
from bmatch.oracle import (
    _sample_pair,
    enumerate_b_matchings,
    run_verification_suite,
    verify_canonical_decomposition,
)
from bmatch import structure
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

from conftest import src_env

M9 = Matching(frozenset({1, 3, 6, 7, 8, 10, 12, 13, 15}))
FULL = frozenset(range(16))


def escape_instance():
    """Hub with two parallel edges to one neighbour and leaves on each side.

    The difference with the all-edges matching is four single-edge walks.
    The seed (edge 0, a leaf edge) leaves the hub at degree 1, outside
    {0, 2, 4}; the smallest union that holds it and arranges joins the
    other leaf edge, a path through the hub.  The parallel pair follows as
    a single-cycle canonical path at the hub.
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


def test_long_alternating_path_is_one_meta_path_of_one_walk():
    # Recognising it picks one pairing of edge ends at each of its 1,202
    # vertices, more vertices than the recursion limit.
    k = 1201
    g = MultiGraph(k + 1, tuple((v, v + 1, 1) for v in range(k)))
    sets = tuple(DegreeSet((0, 1) if v in (0, k) else (1,)) for v in range(k + 1))
    inst = BInstance(g, sets, "max-card")
    s = canonical_structure(inst, Matching(frozenset(range(0, k, 2))), frozenset(range(k)))
    assert s is not None and s.cycles == ()
    assert [w.edges for w in s.meta_path.walks] == [tuple(range(k))]
    assert s.meta_path.junctions == (0, k)


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


def test_extract_escape_emits_leaf_path_then_hub_cycle():
    inst = escape_instance()
    n = Matching(frozenset({0, 1, 2, 3}))
    assert is_b_matching(inst, n)
    cycles, steps = extract_canonical_sequence(inst, EMPTY_MATCHING, n)
    assert cycles == []
    assert [(s.v_first, s.v_last, tuple(sorted(s.edge_set))) for s in steps] == [
        (1, 3, (0, 3)),
        (0, 0, (1, 2)),
    ]
    path, cycle = steps
    assert path.cycles == () and path.meta_path.junctions == (1, 0, 3)
    assert len(cycle.cycles_first) == 1 and cycle.meta_path is None


@pytest.mark.parametrize("k", [60, 1000])
def test_extract_grows_a_union_only_at_its_outside_vertex(monkeypatch, k):
    # A path of k single-edge walks whose inner vertices take {0, 2}: only
    # the whole path is canonical, and each proper prefix from the seed
    # leaves one inner vertex at degree 1, so each grows by one walk.  At
    # k = 1000 the path search runs deeper than the recursion limit.
    g = MultiGraph(k + 1, tuple((v, v + 1, 1) for v in range(k)))
    sets = tuple(DegreeSet((0, 1) if v in (0, k) else (0, 2)) for v in range(k + 1))
    inst = BInstance(g, sets, "max-card")
    calls = []
    witness = structure._pool_witness

    def counted(*args):
        calls.append(args)
        return witness(*args)

    monkeypatch.setattr(structure, "_pool_witness", counted)
    cycles, steps = extract_canonical_sequence(inst, EMPTY_MATCHING, Matching(frozenset(range(k))))
    assert cycles == [] and len(steps) == 1
    assert steps[0].edge_set == frozenset(range(k))
    assert len(calls) <= 2 * k


@pytest.mark.parametrize("n, seed", [(10, 50), (12, 11), (12, 179), (16, 57)])
def test_extract_decomposes_max_card_optimum_against_search_start(n, seed):
    inst = random_instance(seed, n, round(2.5 * n), profile="mixed")
    m = find_feasible(inst)
    assert m is not None
    assert verify_canonical_decomposition(inst, m, solve(inst)) is None


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


def type_pairs():
    """Seeded (instance, M, N) triples: three feasible M per instance, each
    against up to 20 feasible N and 5 random edge subsets, which are
    mostly infeasible."""
    profiles = ("mixed", "parity", "interval")
    for seed in range(150):
        instance = random_instance(
            seed, n=4 + seed % 4, m=6 + seed % 7, profile=profiles[seed % 3]
        )
        feasible = list(enumerate_b_matchings(instance))
        rng = random.Random(seed)
        edges = range(instance.graph.edge_count)
        for m in rng.sample(feasible, min(3, len(feasible))):
            drawn = [
                Matching(frozenset(e for e in edges if rng.random() < 0.5))
                for _ in range(5)
            ]
            for n in rng.sample(feasible, min(20, len(feasible))) + drawn:
                yield instance, m, n


def test_type_predicate_verdicts_are_pinned():
    verdicts = [
        (is_same_uniform_type(inst, m, n), is_neighbouring_type(inst, m, n))
        for inst, m, n in type_pairs()
    ]
    # 717 of the 1870 pairs have an infeasible N.
    assert Counter(verdicts) == {(False, False): 847, (True, True): 635, (False, True): 388}
    digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
    assert digest == "dfb4c65ddc6a02a4a4ec83005d3057f25864e363ea839bc9e0fbf5ccfe077bff"


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


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_lemma2_seed_628708120_reports_no_failures(flags):
    # Index 31 of this seed is a 6-vertex, 4-walk pair whose canonical
    # sequence needs a union of whole walks that is not grown one wrong
    # endpoint at a time.
    code = (
        "from bmatch.oracle import run_verification_suite\n"
        "report = run_verification_suite('lemma2', 628708120, 100)\n"
        "print(report.checked, len(report.failures))\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "92 0\n")


ESCAPE_SETUP = (
    "from bmatch import structure\n"
    "from bmatch.core import EMPTY_MATCHING, Matching\n"
    "from test_structure import escape_instance\n"
    "decompose = structure.decompose_symmetric_difference\n"
    "component = structure._next_component\n"
)

# Each patch breaks one part of the extraction of escape_instance(): the
# first peels a leaf path as if it were a cycle, the second loses the
# parallel pair, the third claims a union whose edges the emitted component
# only partly covers.
WRONG_PARTS = {
    "cycle peeling must preserve degrees": (
        "structure.decompose_symmetric_difference = "
        "lambda *a: ((), decompose(*a)[0][:1])\n"
    ),
    "extraction must land on the target": (
        "structure.decompose_symmetric_difference = lambda *a: "
        "(tuple(w for w in decompose(*a)[0] if w.edges[0] in (0, 3)), ())\n"
    ),
    "emitted component must split the union along whole walks": (
        "def wrong(*a):\n"
        "    union, emitted = component(*a)\n"
        "    cut = structure.AlternatingWalk('path', (min(emitted.edge_set), 1), (0, 1, 2))\n"
        "    return union + [cut], emitted\n"
        "structure._next_component = wrong\n"
    ),
}


@pytest.mark.parametrize("message", list(WRONG_PARTS), ids=["peel", "target", "split"])
def test_extraction_checks_hold_under_python_O(message):
    code = (
        ESCAPE_SETUP + WRONG_PARTS[message]
        + "structure.extract_canonical_sequence(\n"
        "    escape_instance(), EMPTY_MATCHING, Matching(frozenset(range(4))))\n"
    )
    env = src_env()
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(__file__)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == f"AssertionError: {message}"


# -- pinned outputs ---------------------------------------------------------------


def pinned_pairs():
    """About 140 seeded feasible pairs, drawn as the verification suites draw
    them but on instances large enough to need meta-cycle arcs and
    subset shrinking, plus the escape instance, whose first union to
    arrange is not the seed's own walk."""
    profiles = ("mixed", "parity", "interval")
    count = 50
    for seed in range(3):
        rng = random.Random(seed)
        for index in range(count):
            for attempt in range(6):
                instance = random_instance(
                    seed * 10_007 + index + (count + 1) * attempt,
                    n=4 + index % 4,
                    m=10 + index % 7,
                    profile=profiles[index % len(profiles)],
                    weights=(-5, 5),
                    objective=OBJECTIVES[index % len(OBJECTIVES)],
                )
                pair = _sample_pair(instance, rng)
                if pair is not None:
                    yield instance, pair
                    break
    yield escape_instance(), (EMPTY_MATCHING, Matching(frozenset({0, 1, 2, 3})))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (AssertionError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def structure_outputs():
    for instance, (m, n) in pinned_pairs():
        yield decompose_symmetric_difference(instance, m, n)
        extracted = outcome(extract_canonical_sequence, instance, m, n)
        yield extracted
        if isinstance(extracted, str):
            continue
        cycles, steps = extracted
        running = m
        for c in cycles:
            running = apply(running, c.edge_set)
        for s in steps:
            yield canonical_structure(instance, running, s.edge_set)
            small = len(s.edge_set) <= 12
            for granularity in ("meta", "edges") if small else ("meta",):
                yield is_basic(instance, running, s, granularity)
                basic = make_basic(instance, running, s, granularity)
                yield basic
                yield outcome(classify, instance, running, basic)
            yield outcome(classify, instance, running, s)
            running = apply(running, s.edge_set)


def test_structure_outputs_are_pinned():
    digest = hashlib.sha256()
    for out in structure_outputs():
        digest.update(repr(out).encode() + b"\n")
    assert digest.hexdigest() == STRUCTURE_SHA256


def test_verification_suite_reports_are_pinned():
    digest = hashlib.sha256()
    for name in ("theorem", "exchange", "lemma2"):
        for seed in range(4):
            digest.update(repr(run_verification_suite(name, seed, 60)).encode() + b"\n")
    assert digest.hexdigest() == SUITES_SHA256


STRUCTURE_SHA256 = "c22385c024cc734b037ac05d195b8bc38c299c0a975af78645af556a682aa9bd"
SUITES_SHA256 = "14df3785480b9edadd87c7b990ffdc453f3d1b2999a3ea8ce0999e6458401a7e"
