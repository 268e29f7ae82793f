"""The package root exports exactly what the README's Python API shows, and
every function the benchmark tracer wraps still exists where it looks."""

import importlib
import importlib.util
import re

import bmatch
import bmatch.neighbourhood as neighbourhood

from conftest import FIXTURES

README = FIXTURES.parent / "README.md"


def api_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Python API", 1)[1].split("\n## ", 1)[0]


def test_readme_python_snippet_runs():
    snippet = re.search(r"```python\n(.*?)```", api_section(), re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})


def test_every_exported_name_resolves():
    for name in bmatch.__all__:
        assert getattr(bmatch, name) is not None, name


def test_exports_match_the_readme():
    section = api_section()
    imported = re.search(r"from bmatch import ([\w, ]+)", section).group(1)
    named = set(re.findall(r"`(\w+)[`(]", section)) - {"None"}
    assert set(bmatch.__all__) == named | set(imported.replace(" ", "").split(","))


def load_tracer():
    path = FIXTURES.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_resolves():
    for module, attr, *_rest in load_tracer().PATCHES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_tracer_observers_read_the_solver_results(fig2):
    # The observers read what the wrapped functions return: ab_to_pm's
    # (graph, source edge count) pair, the candidates' count and each
    # solver's None.  On fig2 max-card the relaxation, its rounding and the
    # two children of one search split are the only solves; the step that
    # certifies the answer solves one candidate and prunes the other.
    stats, step = {}, {}
    with load_tracer().Tracer() as tracer:
        got = neighbourhood.solve(fig2, stats=stats)
        assert len(got) == 9
        assert neighbourhood.improvement_step(fig2, got, stats=step) is None
    counts = tracer.counts
    assert (
        counts["solve_uniform.calls"]
        == counts["blossom.calls"]
        == counts["ab_to_pm.calls"]
        == stats["solved"] + step["solved"]
        == 5
    )
    assert counts["gadget.nodes"] == 220 + 52
    assert counts["candidates.count"] == step["solved"] + step["pruned"] == 2
