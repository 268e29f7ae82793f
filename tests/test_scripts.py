import importlib.util

from conftest import FIXTURES


def test_improvement_trace_default_walks_to_the_optimum(capsys):
    path = FIXTURES.parent / "scripts" / "improvement_trace.py"
    spec = importlib.util.spec_from_file_location("improvement_trace", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main([]) == 0
    out = capsys.readouterr().out
    assert "optimal after 4 steps" in out
    assert [line.split()[:2] for line in out.splitlines()[:-1]] == [
        ["step", str(k)] for k in range(5)
    ]
