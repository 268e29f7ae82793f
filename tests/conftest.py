import os
import pathlib
from itertools import combinations

import pytest

from bmatch.core import Matching, MultiGraph, parse_certificate, parse_instance
from bmatch.neighbourhood import _spec

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def src_env() -> dict:
    """Environment for a subprocess that imports bmatch from this checkout."""
    src = str(FIXTURES.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))


def degree_subsets(graph: MultiGraph, allowed):
    """Brute force: every edge subset of graph, smallest first, whose
    degree at each vertex v lies in allowed[v]; a loop counts 2."""
    for k in range(graph.edge_count + 1):
        for combo in combinations(range(graph.edge_count), k):
            deg = [0] * graph.vertex_count
            for e in combo:
                u, v, _w = graph.edges[e]
                deg[u] += 1
                deg[v] += 1
            if all(d in allowed[v] for v, d in enumerate(deg)):
                yield Matching(frozenset(combo))


def relaxation(instance) -> tuple[range, ...]:
    """The spec of solve's root node, the relaxation: every b(v) read as
    one dense or parity run, else as its dense hull."""
    return _spec(tuple(instance.b(v).values for v in range(instance.graph.vertex_count)))


def ab_degrees(ab) -> tuple[range, ...]:
    """Per vertex, the degrees an ABInstance admits."""
    return tuple(range(a, b + 1, step) for a, b, step in zip(ab.a, ab.b, ab.step))


@pytest.fixture(scope="session")
def fig2_text() -> str:
    return (FIXTURES / "fig2.bm").read_text()


@pytest.fixture(scope="session")
def fig2(fig2_text):
    return parse_instance(fig2_text, "max-card")


@pytest.fixture(scope="session")
def fig2_m7(fig2):
    cert = parse_certificate((FIXTURES / "fig2_m7.cert").read_text())
    return cert.matching


@pytest.fixture(scope="session")
def scale60():
    return parse_instance((FIXTURES / "scale60.bm").read_text(), "max-card")
