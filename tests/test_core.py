import pytest
from hypothesis import given, settings, strategies as st

from bmatch.core import (
    EMPTY_MATCHING,
    BInstance,
    Certificate,
    DegreeSet,
    EmptyDegreeSet,
    GapTooLong,
    Matching,
    MultiGraph,
    NotFeasible,
    ParseError,
    check_certificate,
    current_type,
    degrees,
    format_certificate,
    format_instance,
    is_b_matching,
    matching_weight,
    parity_intervals,
    parse_certificate,
    parse_instance,
    validate,
)


# -- degree sets ---------------------------------------------------------------


def test_degree_set_rejects_unsorted_and_negative():
    with pytest.raises(ValueError):
        DegreeSet((2, 1))
    with pytest.raises(ValueError):
        DegreeSet((1, 1))
    with pytest.raises(ValueError):
        DegreeSet((-1, 0))


def test_degree_set_membership_and_restrict():
    b = DegreeSet((0, 2, 3))
    assert 2 in b and 1 not in b
    assert list(b) == [0, 2, 3]
    assert b.restrict(2).values == (0, 2)
    assert b.restrict(10).values == (0, 2, 3)


def test_parity_intervals_fixed_cases():
    assert parity_intervals(DegreeSet((0, 2, 4))) == (range(0, 5, 2),)
    assert parity_intervals(DegreeSet((2, 3, 4, 5))) == (
        range(2, 3, 2),
        range(3, 4, 2),
        range(4, 5, 2),
        range(5, 6, 2),
    )
    assert parity_intervals(DegreeSet((0, 1, 3, 5))) == (
        range(0, 1, 2),
        range(1, 6, 2),
    )
    assert parity_intervals(DegreeSet(())) == ()


def test_parity_intervals_rejects_long_gap():
    with pytest.raises(ValueError):
        parity_intervals(DegreeSet((0, 3)))


@st.composite
def gap_free_sets(draw):
    start = draw(st.integers(0, 4))
    steps = draw(st.lists(st.sampled_from((1, 2)), max_size=6))
    values = [start]
    for s in steps:
        values.append(values[-1] + s)
    return DegreeSet(tuple(values))


@given(gap_free_sets())
def test_parity_intervals_partition(b):
    runs = parity_intervals(b)
    covered = [x for r in runs for x in r]
    assert tuple(covered) == b.values
    assert all(r and r.step == 2 for r in runs)
    for left, right in zip(runs, runs[1:]):
        assert left[-1] + 1 == right[0]


def star_pair(b: DegreeSet) -> BInstance:
    """Vertex 0 with degree set b, joined to an unconstrained vertex 1 by
    max(b) parallel edges, so taking the first k edges gives d(0) = k."""
    top = b.values[-1]
    g = MultiGraph(2, tuple((0, 1, 1) for _ in range(top)))
    return BInstance(g, (b, DegreeSet(tuple(range(top + 1)))))


@given(gap_free_sets())
def test_current_type_indexes_every_member(b):
    instance = star_pair(b)
    assert instance.intervals(0) == parity_intervals(b)
    for k in b.values:
        (i, _j) = current_type(instance, Matching(frozenset(range(k))))
        iv = parity_intervals(b)[i]
        assert k in iv and iv.step == 2


def test_current_type_rejects_non_member():
    with pytest.raises(NotFeasible):
        current_type(star_pair(DegreeSet((0, 1, 3))), Matching(frozenset({0, 1})))


# -- graphs and matchings --------------------------------------------------------


def test_loop_counts_two_toward_degree():
    g = MultiGraph(2, ((0, 0, 1), (0, 1, 1)))
    m = Matching(frozenset({0, 1}))
    assert degrees(g, m) == [3, 1]
    assert degrees(g, EMPTY_MATCHING) == [0, 0]


def test_is_b_matching_and_weight():
    g = MultiGraph(2, ((0, 1, 3), (0, 1, -1)))
    inst = BInstance(g, (DegreeSet((1,)), DegreeSet((1,))), "max-weight")
    assert is_b_matching(inst, Matching(frozenset({0})))
    assert not is_b_matching(inst, Matching(frozenset({0, 1})))
    assert matching_weight(g, Matching(frozenset({0, 1}))) == 2


# -- validation -------------------------------------------------------------------


def test_validate_flags_empty_effective_set():
    g = MultiGraph(2, ((0, 1, 1),))
    inst = BInstance(g, (DegreeSet(()), DegreeSet((0, 1))), "max-card")
    assert validate(inst) == [EmptyDegreeSet(0)]


def test_validate_checks_gap_on_effective_set():
    g = MultiGraph(2, ((0, 1, 1), (0, 1, 1)))
    # raw set {0, 3} has a long gap, but 3 > d_G(v) = 2 so only {0} remains
    inst = BInstance(g, (DegreeSet((0, 3)), DegreeSet((0, 1))), "max-card")
    assert validate(inst) == []
    loops = MultiGraph(1, ((0, 0, 1), (0, 0, 1)))
    gapped = BInstance(loops, (DegreeSet((0, 3)),), "max-card")
    assert validate(gapped) == [GapTooLong(0)]


def test_multigraph_rejects_out_of_range_endpoint():
    # caught at construction, so no instance can index past its vertices
    for edge in ((0, 5, 1), (2, 0, 1), (-1, 1, 1)):
        with pytest.raises(ValueError, match=r"endpoint outside 0\.\.1"):
            MultiGraph(2, ((0, 1, 1), edge))


@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, 2), "edge (1, 2) must be (u, v, w)"),
        ([1, 2, 3, 4], "edge (1, 2, 3, 4) must be (u, v, w)"),
        ((1, 2.0, 3), "edge (1, 2.0, 3) must contain integers"),
        ((1, 2, "3"), "edge (1, 2, '3') must contain integers"),
        ((-1, 2, 3), "edge (-1, 2, 3) has an endpoint outside 0..3"),
        ((1, 4, 3), "edge (1, 4, 3) has an endpoint outside 0..3"),
    ],
    ids=["short", "long-list", "float", "str", "negative", "n"],
)
def test_multigraph_names_the_first_bad_edge(bad, message):
    # A bad edge between good ones must fail the whole-list pass, and the
    # walk after it names that edge, also before a later one that is bad in
    # every way.
    for later in ((), ((9, -1, 0.5, 1),)):
        with pytest.raises(ValueError) as err:
            MultiGraph(4, ((0, 1, 1), bad, (3, 3, -2)) + later)
        assert str(err.value) == message


def test_multigraph_accepts_bool_endpoints_and_list_edges():
    g = MultiGraph(3, [[0, 1, 2], (True, 2, False), [2, 2, -1]])
    assert g.edges == ((0, 1, 2), (1, 2, 0), (2, 2, -1))
    assert all(type(e) is tuple for e in g.edges)
    assert g.edges[1][0] is True
    assert [g.degree(v) for v in range(3)] == [1, 2, 3]


def first_bad_edge(n: int, edges) -> str | None:
    """The message of the first bad edge, checked one edge at a time."""
    for e in map(tuple, edges):
        if len(e) != 3:
            return f"edge {e!r} must be (u, v, w)"
        if not all(isinstance(x, int) for x in e):
            return f"edge {e!r} must contain integers"
        if not (0 <= e[0] < n and 0 <= e[1] < n):
            return f"edge {e!r} has an endpoint outside 0..{n - 1}"
    return None


ENTRY = st.one_of(
    st.integers(-1, 4), st.booleans(), st.just(1.0), st.just("1"), st.just(None)
)


@settings(max_examples=300)
@given(
    st.integers(0, 4),
    st.lists(
        st.one_of(
            st.tuples(st.integers(-1, 4), st.integers(-1, 4), st.integers(-5, 5)),
            st.lists(ENTRY, min_size=2, max_size=4),
        ),
        max_size=6,
    ),
)
def test_multigraph_checks_as_one_edge_at_a_time(n, edges):
    want = first_bad_edge(n, edges)
    if want is None:
        assert MultiGraph(n, edges).edges == tuple(map(tuple, edges))
    else:
        with pytest.raises(ValueError) as err:
            MultiGraph(n, edges)
        assert str(err.value) == want


def test_effective_set_caps_at_degree():
    g = MultiGraph(1, ((0, 0, 1),))
    inst = BInstance(g, (DegreeSet((0, 2, 4)),), "max-card")
    assert inst.b(0).values == (0, 2)


# -- instance format ---------------------------------------------------------------


def test_parse_instance_fig2(fig2):
    assert fig2.graph.vertex_count == 15
    assert fig2.graph.edge_count == 16
    assert fig2.b(7).values == (0, 1, 3, 5)
    assert fig2.objective == "max-card"
    assert validate(fig2) == []


def test_parse_instance_default_weight_and_comments():
    inst = parse_instance("# hi\np bm 2 2\ne 0 1\ne 1 0 -3\nb 0 0 1\nb 1 0 1 2\n")
    assert inst.graph.edges == ((0, 1, 1), (1, 0, -3))
    assert inst.b(1).values == (0, 1, 2)


INSTANCE_ERRORS = [
    ("e 0 1 1\n", 1, "expected problem line 'p bm <n> <m>'"),
    ("p bm x 1\n", 1, "vertex count 'x' is not an integer"),
    ("p bm 2 1\nq 0 1\n", 2, "unknown line type 'q'"),
    ("p bm 2 1\ne 0 1 1\nb 5 0\n", 3, "vertex out of range 0..1"),
    ("p bm 2 2\ne 0 1 1\nb 0 0\nb 1 0\n", 4, "expected 2 edge lines, got 1"),
    ("p bm 2 1\ne 0 3 1\nb 0 0\nb 1 0\n", 2, "endpoint out of range 0..1"),
    ("", 1, "missing problem line 'p bm <n> <m>'"),
    ("p bm 2 -1\n", 1, "counts must be nonnegative"),
    ("p bm 2 1\ne 0\n", 2, "expected 'e <u> <v> [<w>]'"),
    ("p bm 2 1\ne 0 1 1 1 1\n", 2, "expected 'e <u> <v> [<w>]'"),
    ("p bm 2 1\ne 0 1 1\nb\n", 3, "expected 'b <v> <d1> ...'"),
    ("p bm 2 1\ne 0 1 1\ne 1 0 1\n", 3, "more than 1 edge lines"),
    ("p bm 2 1\ne 0 1 1\nb 0 0\nb 0 1\n", 4, "second degree set for vertex 0"),
    ("p bm 2 1\ne 0 1 1\nb 0 -1 0\n", 3, "degrees must be nonnegative"),
    ("p bm 2 1\ne 0 1 1\nb 0 1 1\n", 3, "degrees must be strictly increasing"),
]


@pytest.mark.parametrize(
    "text,line_no,message",
    INSTANCE_ERRORS,
    ids=[f"{text}-{line_no}" for text, line_no, _message in INSTANCE_ERRORS],
)
def test_parse_instance_errors_carry_line_numbers(text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line_no, err.value.message) == (line_no, message)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MultiGraph(-1, ()), "vertex_count must be nonnegative"),
        (
            lambda: BInstance(MultiGraph(2, ()), (DegreeSet((0,)),)),
            "need exactly one degree set per vertex",
        ),
        (
            lambda: BInstance(MultiGraph(1, ()), (DegreeSet((0,)),), "max-size"),
            "unknown objective 'max-size'",
        ),
    ],
    ids=["negative-vertex-count", "degree-set-count", "objective"],
)
def test_constructors_reject_bad_arguments(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_format_parse_roundtrip(fig2, fig2_text):
    assert parse_instance(format_instance(fig2), "max-card") == fig2
    comments = ["alpha", "beta"]
    dumped = format_instance(fig2, comments)
    assert dumped.startswith("# alpha\n# beta\n")
    assert parse_instance(dumped, "max-card") == fig2


@given(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-9, 9)), max_size=6),
)
def test_format_roundtrip_random(n, raw_edges):
    edges = tuple((u % n, v % n, w) for u, v, w in raw_edges)
    g = MultiGraph(n, edges)
    inst = BInstance(g, tuple(DegreeSet((0, 1)) for _ in range(n)), "max-card")
    assert parse_instance(format_instance(inst), "max-card") == inst


# -- certificates ------------------------------------------------------------------


def test_certificate_roundtrip(fig2, fig2_m7):
    text = format_certificate(fig2.graph, fig2_m7)
    cert = parse_certificate(text)
    assert cert.matching == fig2_m7
    assert cert.size == 7 and cert.weight == 7


def test_check_certificate_flags_problems(fig2, fig2_m7):
    ok = Certificate(7, 7, fig2_m7)
    assert check_certificate(fig2, ok) == []
    assert check_certificate(fig2, Certificate(8, 7, fig2_m7))
    assert check_certificate(fig2, Certificate(7, 9, fig2_m7))
    infeasible = Certificate(2, 2, Matching(frozenset({0, 1})))
    assert check_certificate(fig2, infeasible)
    out_of_range = Certificate(1, 1, Matching(frozenset({99})))
    assert check_certificate(fig2, out_of_range)


def test_parse_certificate_errors():
    for text, line_no, message in [
        ("m 0 1\n", 1, "'m' line before 's' line"),
        ("s 1 1\nm x\n", 2, "edge index 'x' is not an integer"),
        ("s 1 1\ns 1 1\nm 0\n", 2, "second 's' line"),
        ("s 1\nm 0\n", 1, "expected 's <size> <weight>'"),
        ("s 1 1\nx 0\n", 2, "unknown line type 'x'"),
        ("# no lines\n", 1, "missing 's <size> <weight>' line"),
        ("s 0 0\n", 1, "missing 'm' line"),
        ("s 2 2\nm 0\nm 0\n", 1, "duplicate edge index in certificate"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_certificate(text)
        assert (err.value.line_no, err.value.message) == (line_no, message), text