import argparse
import hashlib
import inspect
import json
import re
import subprocess
import sys

import pytest

from bmatch.cli import build_parser, main
from bmatch.core import (
    OBJECTIVES,
    format_certificate,
    format_instance,
    matching_weight,
    parse_instance,
    validate,
)
from bmatch.gen import random_instance
from bmatch.neighbourhood import find_feasible, solve

from conftest import FIXTURES, src_env

FIG2 = str(FIXTURES / "fig2.bm")
FIG2_M7 = str(FIXTURES / "fig2_m7.cert")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def normalize(text: str) -> str:
    return re.sub(r'("wall_time_ms": |wall_time_ms )\d+', r"\g<1>T", text)


@pytest.fixture()
def uniform_file(tmp_path):
    path = tmp_path / "uniform.bm"
    code = main(["gen", "--seed", "5", "--n", "4", "--m", "7",
                 "--profile", "parity", "--output", str(path)])
    assert code == 0
    return str(path)


# -- solve ------------------------------------------------------------------------


def test_solve_text_report(capsys):
    code, out, _err = run(capsys, "solve", "--input", FIG2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status optimal"
    assert "size 9" in lines
    assert "weight 9" in lines
    assert "edges 1 3 6 7 8 10 12 13 15" in lines
    assert any(l.startswith("wall_time_ms ") for l in lines)


def test_solve_structured_report(capsys, tmp_path):
    # An instance where solve searches: the rounded relaxation has no
    # solution, and three splits make six node solves after the
    # relaxation's and its rounding's.
    path = tmp_path / "mixed131.bm"
    assert main(["gen", "--seed", "131", "--n", "8", "--m", "20",
                 "--profile", "mixed", "--output", str(path)]) == 0
    code, out, _err = run(capsys, "solve", "--input", str(path), "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["size"] == 10 == len(payload["edges"])
    assert payload["weight"] == 10
    assert payload["iterations"] == 0
    assert payload["candidates_solved"] == 8
    assert isinstance(payload["wall_time_ms"], int)


def test_solve_report_invariants(capsys, fig2):
    _code, out, _err = run(capsys, "solve", "--input", FIG2, "--format", "structured")
    payload = json.loads(out)
    assert payload["size"] == len(payload["edges"])
    from bmatch.core import Matching, degrees

    recomputed = degrees(fig2.graph, Matching(frozenset(payload["edges"])))
    assert recomputed == payload["degrees"]


def test_solve_is_deterministic_up_to_wall_time(capsys):
    _c, first, _e = run(capsys, "solve", "--input", FIG2, "--format", "structured")
    _c, second, _e = run(capsys, "solve", "--input", FIG2, "--format", "structured")
    assert normalize(first) == normalize(second)


# Answered straight from the relaxation: the same size as the walk's answer
# (88), other edges among the ties, chosen again when the gadget's pool
# became a parity chain, when the weighted blossom run began from
# per-vertex duals, when the vertex gadget became banded, when a
# blossom stage began to augment along every disjoint path it finds, and
# when the weighted run began on doubled weights, from half-integral duals.
SCALE60_REPORT = [
    "status optimal",
    "size 88",
    "weight 88",
    "edges "
    "0 1 2 4 5 6 7 8 9 12 13 14 17 20 23 26 27 28 29 30 "
    "31 32 33 34 37 38 40 43 44 46 49 52 53 57 58 59 61 62 63 64 "
    "66 67 68 69 70 71 72 73 75 85 90 91 92 94 95 96 97 100 101 104 "
    "105 106 107 108 111 113 114 115 117 118 120 124 127 129 130 132 133 135 136 137 "
    "138 139 141 142 143 144 146 147",
    "degrees "
    "3 1 0 4 1 4 9 1 5 1 3 1 1 2 1 7 3 2 1 1 3 1 1 6 3 1 5 0 4 2 "
    "4 0 6 6 3 5 5 5 1 1 1 1 4 1 7 3 2 1 6 5 6 2 2 1 1 5 5 1 5 4",
    "iterations 0",
    "candidates_solved 1",
    "wall_time_ms T",
]


def test_solve_pins_scale60_report(capsys):
    code, out, _err = run(capsys, "solve", "--input", str(FIXTURES / "scale60.bm"))
    assert code == 0
    assert normalize(out).splitlines() == SCALE60_REPORT


def test_solve_writes_certificate_that_check_accepts(capsys, tmp_path):
    cert = tmp_path / "out.cert"
    code, _out, _err = run(capsys, "solve", "--input", FIG2, "--output", str(cert))
    assert code == 0
    code, out, _err = run(capsys, "check", "--input", FIG2,
                          "--certificate", str(cert), "--assert-optimal")
    assert code == 0
    assert "valid true" in out and "optimal true" in out


def test_solve_infeasible_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.bm"
    path.write_text("p bm 3 3\ne 0 1 1\ne 1 2 1\ne 0 2 1\nb 0 1\nb 1 1\nb 2 1\n")
    code, out, _err = run(capsys, "solve", "--input", str(path))
    assert code == 2
    assert out.splitlines()[0] == "status infeasible"


def test_solve_trace_names_the_relaxation_barrier(capsys, tmp_path):
    # Seed 256 overran the feasibility search's 1M-node budget; the
    # relaxation's Tutte barrier decides it, and counts as one solve.
    path = tmp_path / "parity256.bm"
    assert main(["gen", "--seed", "256", "--n", "40", "--m", "100",
                 "--profile", "parity", "--output", str(path)]) == 0
    code, out, err = run(capsys, "solve", "--input", str(path), "--trace")
    assert code == 2
    assert out.splitlines()[0] == "status infeasible"
    assert "candidates_solved 1" in out.splitlines()
    assert err.splitlines()[-1] == "solve: infeasible, the relaxation has a Tutte barrier"


def test_solve_trace_goes_to_stderr(capsys):
    code, out, err = run(capsys, "solve", "--input", FIG2, "--trace")
    assert code == 0
    assert "search:" in err
    assert "search:" not in out


def test_solve_trace_is_pinned(capsys):
    # The --trace lines of fig2 under every objective and of scale60 under
    # both cardinality objectives, hashed as recorded before the walk ran
    # every objective as max-weight on signed weights, again before solve
    # tried the relaxation first and named its final certificate, again
    # before fig2's walks started from the rounded relaxation's answer, and
    # again before the walks counted candidates inside the rounding as
    # cached (fig2 max-card and max-weight: 1 solved -> 1 cached), and
    # again when the degree-sum rung went (fig2 min-card and min-weight end
    # at the relaxation's duals instead), and again when a search over
    # slices of B(v) replaced fig2's walks (max-card and max-weight: one
    # split, then no open node bounds more than the rounding's answer).
    runs = [("fig2.bm", objective) for objective in OBJECTIVES]
    runs += [("scale60.bm", "max-card"), ("scale60.bm", "min-card")]
    traces = []
    for name, objective in runs:
        code, _out, err = run(capsys, "solve", "--input", str(FIXTURES / name),
                              "--objective", objective, "--trace")
        assert code == 0
        traces.append(err)
    digest = hashlib.sha256("\n".join(traces).encode()).hexdigest()
    assert digest == "ed72be9650fec3351b973fb866b7fa72966455cbd0e8114c67c4c53efd1ea741"


def test_solve_min_card(capsys):
    code, out, _err = run(capsys, "solve", "--input", FIG2, "--objective", "min-card")
    assert code == 0
    assert "size 6" in out.splitlines()


# -- check ------------------------------------------------------------------------


def test_check_valid_certificate(capsys):
    code, out, _err = run(capsys, "check", "--input", FIG2, "--certificate", FIG2_M7)
    assert code == 0
    assert out.splitlines()[0] == "valid true"


def test_check_not_optimal_exits_two(capsys):
    code, out, _err = run(capsys, "check", "--input", FIG2,
                          "--certificate", FIG2_M7, "--assert-optimal")
    assert code == 2
    assert "optimal false" in out


def test_check_flags_wrong_claims(capsys, tmp_path):
    lying = tmp_path / "lie.cert"
    lying.write_text("s 8 7\nm 0 2 4 5 9 11 14\n")
    code, out, _err = run(capsys, "check", "--input", FIG2, "--certificate", str(lying))
    assert code == 2
    assert "valid false" in out
    assert "claimed size 8" in out


def test_check_flags_infeasible_matching(capsys, tmp_path):
    bad = tmp_path / "bad.cert"
    bad.write_text("s 2 2\nm 0 1\n")
    code, out, _err = run(capsys, "check", "--input", FIG2, "--certificate", str(bad))
    assert code == 2
    assert "not admissible" in out


def test_check_structured(capsys):
    code, out, _err = run(capsys, "check", "--input", FIG2,
                          "--certificate", FIG2_M7, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"valid": True, "problems": [], "size": 7, "weight": 7}


# The exact check reports, pinned so that they stay byte-identical.  A liar
# about size and weight (true size 7, weight 7), and a matching whose
# degrees fail at vertices 1, 3, 4, ... (only the first is named).
LIAR = "s 8 9\nm 0 2 4 5 9 11 14\n"
SEVERAL_BAD = "s 8 9\nm 0 1\n"


def check_file(capsys, tmp_path, text, *flags):
    cert = tmp_path / "pinned.cert"
    cert.write_text(text)
    return run(capsys, "check", "--input", FIG2, "--certificate", str(cert), *flags)


@pytest.mark.parametrize(
    "text, fmt, expected",
    [
        (
            LIAR,
            "text",
            "valid false\n"
            "problem claimed size 8 but 7 edges listed\n"
            "problem claimed weight 9 but edges weigh 7\n"
            "size 7\n"
            "weight 7\n",
        ),
        (
            LIAR,
            "structured",
            '{"problems": ["claimed size 8 but 7 edges listed", '
            '"claimed weight 9 but edges weigh 7"], '
            '"size": 7, "valid": false, "weight": 7}\n',
        ),
        (
            SEVERAL_BAD,
            "text",
            "valid false\n"
            "problem claimed size 8 but 2 edges listed\n"
            "problem claimed weight 9 but edges weigh 2\n"
            "problem degree 2 at vertex 1 is not admissible\n"
            "size 2\n"
            "weight 2\n",
        ),
        (
            SEVERAL_BAD,
            "structured",
            '{"problems": ["claimed size 8 but 2 edges listed", '
            '"claimed weight 9 but edges weigh 2", '
            '"degree 2 at vertex 1 is not admissible"], '
            '"size": 2, "valid": false, "weight": 2}\n',
        ),
    ],
    ids=["liar-text", "liar-structured", "inadmissible-text", "inadmissible-structured"],
)
def test_check_pins_report(capsys, tmp_path, text, fmt, expected):
    code, out, _err = check_file(capsys, tmp_path, text, "--format", fmt)
    assert code == 2
    assert out == expected


def test_check_out_of_range_edge_is_a_problem(capsys, tmp_path):
    code, out, err = check_file(capsys, tmp_path, "s 1 1\nm 99 98\n")
    assert code == 2
    assert err == ""
    assert out == (
        "valid false\n"
        "problem edge index 98 out of range 0..15\n"
        "size 2\n"
        "weight 0\n"
    )


def test_check_out_of_range_weight_counts_in_range_edges(capsys, tmp_path):
    code, out, _err = check_file(
        capsys, tmp_path, "s 2 1\nm 3 16\n", "--format", "structured"
    )
    assert code == 2
    assert json.loads(out) == {
        "valid": False,
        "problems": ["edge index 16 out of range 0..15"],
        "size": 2,
        "weight": 1,
    }


# -- oracle -----------------------------------------------------------------------


def test_oracle_optimum(capsys):
    code, out, _err = run(capsys, "oracle", "--input", FIG2)
    assert code == 0
    assert "value 9" in out.splitlines()


def test_oracle_answers_on_a_path_longer_than_the_recursion_limit(capsys, tmp_path):
    n = 1500
    path = tmp_path / "path.bm"
    lines = [f"p bm {n} {n - 1}"] + [f"e {v} {v + 1} 1" for v in range(n - 1)]
    lines += [f"b {v} {1 if v in (0, n - 1) else 2}" for v in range(n)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _err = run(capsys, "oracle", "--input", str(path), "--oracle-limit", "5000")
    assert code == 0
    assert "value 1499" in out.splitlines()


def test_oracle_needs_exactly_one_mode(capsys):
    code, _out, err = run(capsys, "oracle")
    assert code == 1 and "exactly one" in err
    code, _out, err = run(capsys, "oracle", "--input", FIG2, "--verify", "theorem")
    assert code == 1


def test_oracle_infeasible_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.bm"
    path.write_text("p bm 3 3\ne 0 1 1\ne 1 2 1\ne 0 2 1\nb 0 1\nb 1 1\nb 2 1\n")
    code, out, _err = run(capsys, "oracle", "--input", str(path))
    assert code == 2
    assert "status infeasible" in out


def test_oracle_verify_suite(capsys):
    code, out, _err = run(capsys, "oracle", "--verify", "theorem",
                          "--seed", "3", "--count", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite theorem"
    assert "failures 0" in lines


def test_oracle_verify_structured(capsys):
    code, out, _err = run(capsys, "oracle", "--verify", "lemma2",
                          "--seed", "3", "--count", "3", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "lemma2" and payload["failures"] == []


def test_oracle_negative_count_is_a_usage_error(capsys):
    code, out, err = run(capsys, "oracle", "--verify", "lemma2", "--count", "-3")
    assert code == 1 and out == ""
    assert err == "error: --count must be nonnegative\n"


def test_oracle_negative_limit_is_a_usage_error(capsys, tmp_path):
    # an edgeless instance is within any nonnegative limit
    path = tmp_path / "z.bm"
    path.write_text("p bm 1 0\nb 0 0\n")
    code, out, err = run(capsys, "oracle", "--input", str(path), "--oracle-limit", "-1")
    assert code == 1 and out == ""
    assert err == "error: --oracle-limit must be nonnegative\n"


def test_oracle_limit_exceeded_is_an_error(capsys):
    code, _out, err = run(capsys, "oracle", "--input", FIG2, "--oracle-limit", "10")
    assert code == 1
    assert "exceed" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--input", FIG2, "--seed", "9", "--count", "1"], "--seed, --count not allowed with --input"),
        (["--input", FIG2, "--seed", "0"], "--seed not allowed with --input"),
        (["--verify", "theorem", "--objective", "max-card"], "--objective not allowed with --verify"),
        (["--verify", "theorem", "--oracle-limit", "20"], "--oracle-limit not allowed with --verify"),
    ],
    ids=["input-seed-count", "input-default-seed", "verify-objective", "verify-limit"],
)
def test_oracle_rejects_the_flags_of_the_other_mode(capsys, argv, message):
    # Even a flag given its default value would be ignored, so it is an error.
    code, out, err = run(capsys, "oracle", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


# -- decompose ---------------------------------------------------------------------


def test_decompose_fig2(capsys, tmp_path):
    target = tmp_path / "m9.cert"
    run(capsys, "solve", "--input", FIG2, "--output", str(target))
    code, out, _err = run(capsys, "decompose", "--input", FIG2,
                          "--matching-a", FIG2_M7, "--matching-b", str(target))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cycles 0"
    assert lines[1] == "steps 3"
    assert lines[2].startswith("step 0 endpoints 0 7 ")
    assert lines[3].startswith("step 1 endpoints 7 7 ")
    assert lines[4].startswith("step 2 endpoints 7 7 ")


def test_decompose_structured_weights_sum_to_gap(capsys, tmp_path):
    target = tmp_path / "m9.cert"
    run(capsys, "solve", "--input", FIG2, "--output", str(target))
    code, out, _err = run(capsys, "decompose", "--input", FIG2, "--format", "structured",
                          "--matching-a", FIG2_M7, "--matching-b", str(target))
    assert code == 0
    payload = json.loads(out)
    total = sum(row["weight"] for row in payload["cycles"] + payload["steps"])
    assert total == 9 - 7


def test_decompose_max_card_optimum_against_search_start(capsys, tmp_path):
    # A pair whose canonical sequence needs a union of several whole walks.
    instance = random_instance(50, 10, 25, profile="mixed")
    m = find_feasible(instance)
    n = solve(instance)
    files = {"in.bm": format_instance(instance),
             "m.cert": format_certificate(instance.graph, m),
             "n.cert": format_certificate(instance.graph, n)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, _err = run(capsys, "decompose", "--input", str(tmp_path / "in.bm"),
                          "--format", "structured",
                          "--matching-a", str(tmp_path / "m.cert"),
                          "--matching-b", str(tmp_path / "n.cert"))
    assert code == 0
    payload = json.loads(out)
    total = sum(row["weight"] for row in payload["cycles"] + payload["steps"])
    assert total == matching_weight(instance.graph, n) - matching_weight(instance.graph, m)


def test_decompose_rejects_invalid_certificate(capsys, tmp_path):
    bad = tmp_path / "bad.cert"
    bad.write_text("s 2 2\nm 0 1\n")
    code, _out, err = run(capsys, "decompose", "--input", FIG2,
                          "--matching-a", str(bad), "--matching-b", FIG2_M7)
    assert code == 2
    assert "matching-a invalid" in err


def test_decompose_pins_invalid_certificate_line(capsys, tmp_path):
    bad = tmp_path / "bad.cert"
    bad.write_text(SEVERAL_BAD)
    code, out, err = run(capsys, "decompose", "--input", FIG2,
                         "--matching-a", str(bad), "--matching-b", FIG2_M7)
    assert code == 2
    assert out == ""
    assert err == "matching-a invalid: claimed size 8 but 2 edges listed\n"


# -- degree sets with a long gap ------------------------------------------------------

# B(0) = {0, 3} skips 1 and 2: parse_instance takes it and the oracle answers
# it, but the solver and the decomposition assume gaps of at most one.
LONG_GAP_STAR = """p bm 4 3
e 0 1
e 0 2
e 0 3
b 0 0 3
b 1 0 1
b 2 0 1
b 3 0 1
"""
LONG_GAP_ERROR = "error: degree set of vertex 0 has a gap longer than 1\n"


@pytest.fixture()
def long_gap(tmp_path):
    (tmp_path / "star.bm").write_text(LONG_GAP_STAR)
    (tmp_path / "empty.cert").write_text("s 0 0\nm\n")
    (tmp_path / "full.cert").write_text("s 3 3\nm 0 1 2\n")
    return lambda name: str(tmp_path / name)


def test_solve_rejects_long_gap(capsys, long_gap):
    code, out, err = run(capsys, "solve", "--input", long_gap("star.bm"))
    assert (code, out, err) == (1, "", LONG_GAP_ERROR)


def test_check_assert_optimal_rejects_long_gap(capsys, long_gap):
    argv = ("check", "--input", long_gap("star.bm"), "--certificate", long_gap("empty.cert"))
    code, out, err = run(capsys, *argv, "--assert-optimal")
    assert (code, out, err) == (1, "", LONG_GAP_ERROR)
    # plain checking and the oracle still take the instance
    code, out, _err = run(capsys, *argv)
    assert code == 0 and out.startswith("valid true\n")
    code, out, _err = run(capsys, "oracle", "--input", long_gap("star.bm"))
    assert code == 0 and "value 3\n" in out


def test_decompose_rejects_long_gap(capsys, long_gap):
    code, out, err = run(capsys, "decompose", "--input", long_gap("star.bm"),
                         "--matching-a", long_gap("empty.cert"),
                         "--matching-b", long_gap("full.cert"))
    assert (code, out, err) == (1, "", LONG_GAP_ERROR)


# -- gadget ------------------------------------------------------------------------


def test_gadget_requires_uniform_instance(capsys):
    code, _out, err = run(capsys, "gadget", "--input", FIG2, "--stage", "ab")
    assert code == 1
    assert "neither a dense interval nor a single parity run" in err


def test_gadget_uniform_stage_roundtrips(capsys, uniform_file):
    code, out, _err = run(capsys, "gadget", "--input", uniform_file, "--stage", "uniform")
    assert code == 0
    inst = parse_instance(out)
    assert validate(inst) == []
    assert out.startswith("# stage uniform\n")


def test_gadget_ab_stage_marks_provenance(capsys, uniform_file):
    code, out, _err = run(capsys, "gadget", "--input", uniform_file, "--stage", "ab")
    assert code == 0
    assert "# edge 0 <- original 0" in out
    assert "# edge 6 <- original 6" in out
    # the stage invents no edge: a parity run stays a run on its own vertex
    assert "<- gadget" not in out
    inst = parse_instance(out)
    with open(uniform_file) as f:
        source = parse_instance(f.read())
    assert inst.graph == source.graph
    assert inst.degree_sets == source.degree_sets


def test_gadget_pm_stage_is_all_degree_one(capsys, uniform_file):
    code, out, _err = run(capsys, "gadget", "--input", uniform_file, "--stage", "pm")
    assert code == 0
    assert "# 'original' indices refer to the ab stage" in out
    inst = parse_instance(out)
    assert all(inst.degree_sets[v].values == (1,) for v in range(inst.graph.vertex_count))


def test_gadget_output_is_byte_identical(capsys, uniform_file, tmp_path):
    for stage in ("uniform", "ab", "pm"):
        a = tmp_path / f"{stage}_a.bm"
        b = tmp_path / f"{stage}_b.bm"
        run(capsys, "gadget", "--input", uniform_file, "--stage", stage, "--output", str(a))
        run(capsys, "gadget", "--input", uniform_file, "--stage", stage, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


# The ab and pm dumps.  The interval pm dumps were re-recorded when the pool
# became a parity chain.  All four pm dumps were re-recorded when each
# internal began to join only its band of externals, and again when the
# optional internals were paired and only dense vertices kept a pool pair;
# the parity ab dumps then lost their loops and keep each parity run.
GADGET_SHA256 = {
    ("parity", 1, 4, 7): (
        "f706d01c5d303f7468d9a2b10e545fd256322c2dbcdc7be461fa38a67b3bd3b0",
        "578189216e814acc09fcc4e76017c431fc899d7b09c4b158b273bdc4984f9aed",
    ),
    ("parity", 3, 6, 12): (
        "1745a84e8b9184f6f0f28ef5e54e407250afc0089449f103cdde9cebc813b3f3",
        "c45035646e23633f0dfe6d497468b5a478041c3f15b751010b8033f527c95a38",
    ),
    ("interval", 2, 5, 9): (
        "7fe87253ec19c260e0b350ba563d5ff2503dbf8cddb54a0bcd8503d2d8262c3e",
        "d8a883e79f200c46076c7a3fc7cce28db4396aaf2bba8c05acc6aeb8b50606d2",
    ),
    ("interval", 4, 8, 20): (
        "d4f84a69aa283b8836a9394567ecb3c2b937859cea4d9cd864a16ab8747d3683",
        "e385619db75e92b97e70390aa34f71384e1b62fd68f0189b7db4f90736183f17",
    ),
}


@pytest.mark.parametrize("profile, seed, n, m", list(GADGET_SHA256))
def test_gadget_ab_and_pm_output_is_pinned(capsys, tmp_path, profile, seed, n, m):
    path = tmp_path / "in.bm"
    run(capsys, "gen", "--seed", str(seed), "--n", str(n), "--m", str(m),
        "--profile", profile, "--max-weight", "5", "--output", str(path))
    for stage, expected in zip(("ab", "pm"), GADGET_SHA256[profile, seed, n, m]):
        code, out, _err = run(capsys, "gadget", "--input", str(path), "--stage", stage)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, stage


# -- gen ---------------------------------------------------------------------------


def test_gen_is_byte_identical(capsys):
    _c, first, _e = run(capsys, "gen", "--seed", "9", "--n", "5", "--m", "8")
    _c, second, _e = run(capsys, "gen", "--seed", "9", "--n", "5", "--m", "8")
    assert first == second
    assert first.startswith("# generated: seed=9 n=5 m=8 ")


def test_gen_output_parses_and_validates(capsys):
    for seed in range(12):
        _c, out, _e = run(capsys, "gen", "--seed", str(seed), "--n", "6", "--m", "9",
                          "--profile", "mixed", "--min-weight", "-4", "--max-weight", "4")
        inst = parse_instance(out)
        assert validate(inst) == []
        assert inst.graph.vertex_count == 6 and inst.graph.edge_count == 9


def test_gen_rejects_bad_ranges(capsys):
    code, _out, err = run(capsys, "gen", "--seed", "1", "--n", "2", "--m", "2",
                          "--min-weight", "5", "--max-weight", "1")
    assert code == 1 and "min-weight" in err


def test_gen_rejects_sizes_with_no_room_for_edges():
    # in a subprocess with a timeout: redrawing a loop-free endpoint on one
    # vertex would never end
    for sizes, message in (
        (("--n", "1", "--m", "2", "--no-loops"), "cannot place 2 edges with n=1 and no loops"),
        (("--n", "0", "--m", "3"), "cannot place 3 edges with n=0"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "bmatch.cli", "gen", "--seed", "1", *sizes],
            capture_output=True, text=True, env=src_env(), timeout=30,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


# -- flags, errors and entry point --------------------------------------------------


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def flags(sub: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in sub._actions if a.option_strings and a.dest != "help"]


def test_every_flag_is_read_by_its_handler():
    unread = [
        f"{name} {action.option_strings[0]}"
        for name, sub in subcommands().items()
        for action in flags(sub)
        if f"args.{action.dest}" not in inspect.getsource(sub.get_default("handler"))
    ]
    assert unread == []


def test_objective_and_format_go_only_where_they_matter():
    taking = {
        flag: sorted(name for name, sub in subcommands().items()
                     if any(flag in a.option_strings for a in flags(sub)))
        for flag in ("--objective", "--format")
    }
    assert taking == {
        "--objective": ["check", "oracle", "solve"],
        "--format": ["check", "decompose", "oracle", "solve"],
    }
    assert sum(len(flags(sub)) for sub in subcommands().values()) == 32


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--seed", "1", "--n", "3", "--m", "3", "--objective", "max-weight"],
        ["gen", "--seed", "1", "--n", "3", "--m", "3", "--format", "text"],
        ["gadget", "--input", FIG2, "--stage", "uniform", "--objective", "max-weight"],
        ["gadget", "--input", FIG2, "--stage", "uniform", "--format", "text"],
        ["decompose", "--input", FIG2, "--matching-a", FIG2_M7,
         "--matching-b", FIG2_M7, "--objective", "max-weight"],
        ["oracle", "--input", FIG2, "--sense", "max-weight"],
    ],
    ids=["gen-objective", "gen-format", "gadget-objective", "gadget-format",
         "decompose-objective", "oracle-sense"],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"error: unrecognized arguments: {argv[-2]} {argv[-1]}\n" in err


def test_usage_error_exits_one(capsys):
    # argparse's own code would be 2, which reads as a negative verdict
    code, out, err = run(capsys, "solve", "--bogus")
    assert (code, out) == (1, "")
    assert "bmatch solve: error: " in err


def test_help_exits_zero(capsys):
    code, out, _err = run(capsys, "solve", "--help")
    assert code == 0
    assert out.startswith("usage: ")



def test_parse_error_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.bm"
    path.write_text("p bm nope\n")
    code, _out, err = run(capsys, "solve", "--input", str(path))
    assert code == 1
    assert "error: line 1" in err


def test_missing_degree_set_exits_one(capsys, tmp_path):
    # Every vertex needs a b line; there is no "any degree" default.
    path = tmp_path / "unconstrained.bm"
    path.write_text("p bm 2 1\ne 0 1\nb 0 0 1\n")
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert code == 1 and out == ""
    assert err == "error: line 3: missing degree set for vertex 1\n"


def test_missing_file_exits_one(capsys):
    code, _out, err = run(capsys, "solve", "--input", "no/such/file.bm")
    assert code == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bmatch.cli", "solve", "--input", FIG2],
        capture_output=True, text=True, cwd=str(FIXTURES.parent),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "status optimal"
