import json
import re
import subprocess
import sys

import pytest

from bmatch.cli import main
from bmatch.core import parse_instance, validate

from conftest import FIXTURES

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


def test_solve_structured_report(capsys):
    code, out, _err = run(capsys, "solve", "--input", FIG2, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["size"] == 9 == len(payload["edges"])
    assert payload["weight"] == 9
    assert payload["iterations"] >= 1
    assert payload["candidates_solved"] >= 1
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


def test_solve_trace_goes_to_stderr(capsys):
    code, out, err = run(capsys, "solve", "--input", FIG2, "--trace")
    assert code == 0
    assert "improvement_step:" in err
    assert "improvement_step:" not in out


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


def test_oracle_limit_exceeded_is_an_error(capsys):
    code, _out, err = run(capsys, "oracle", "--input", FIG2, "--oracle-limit", "10")
    assert code == 1
    assert "exceed" in err


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
    assert "# edge 7 <- gadget" in out
    inst = parse_instance(out)
    # plain bounds: every degree set is a dense interval after this stage
    for v in range(inst.graph.vertex_count):
        values = inst.b(v).values
        assert all(b - a == 1 for a, b in zip(values, values[1:]))


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


# -- errors and entry point ---------------------------------------------------------


def test_parse_error_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.bm"
    path.write_text("p bm nope\n")
    code, _out, err = run(capsys, "solve", "--input", str(path))
    assert code == 1
    assert "error: line 1" in err


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
