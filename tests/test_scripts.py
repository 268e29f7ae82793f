import importlib.util

import pytest

from conftest import FIXTURES


def load_script(name: str):
    path = FIXTURES.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_improvement_trace_default_walks_to_the_optimum(capsys):
    assert load_script("improvement_trace").main([]) == 0
    out = capsys.readouterr().out
    assert "optimal after 5 steps" in out
    assert [line.split()[:2] for line in out.splitlines()[:-1]] == [
        ["step", str(k)] for k in range(6)
    ]


def test_gadget_growth_prints_its_table(capsys):
    script = load_script("gadget_growth")
    assert script.main(["--sizes", "6:12", "--per-size", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "m", "pm", "vertices", "pm", "edges", "pool", "edge", "ratio"]
    assert lines[2].split()[:2] == ["6", "12"]
    assert len(lines) == 3


def test_improvement_trace_rejects_an_unknown_objective(capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("improvement_trace").main(["--objective", "bogus"])
    assert exc.value.code == 2
    assert "argument --objective: invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("per_size", ["0", "-1"])
def test_gadget_growth_rejects_an_empty_sample(capsys, per_size):
    with pytest.raises(SystemExit) as exc:
        load_script("gadget_growth").main(["--sizes", "6:12", "--per-size", per_size])
    assert exc.value.code == 2
    assert "error: --per-size must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["6", "6:x", "0:5"])
def test_gadget_growth_rejects_a_bad_size(capsys, size):
    with pytest.raises(SystemExit) as exc:
        load_script("gadget_growth").main(["--sizes", size])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: --sizes takes N:M with N >= 1 and M >= 0, got '{size}'" in err


def test_improvement_trace_rejects_edges_without_vertices(capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("improvement_trace").main(["--n", "0", "--m", "3"])
    assert exc.value.code == 2
    assert "error: cannot place 3 edges with n=0" in capsys.readouterr().err
