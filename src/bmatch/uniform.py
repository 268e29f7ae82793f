"""Exact uniform B-matching solver: compose the two reductions and the
perfect-matching solver.  It takes a signed MultiGraph and a spec, a tuple
of one range per vertex, each a dense run (step 1) or a parity run (step
2).  Every stage reads and returns core's types: the reduced graphs are
MultiGraphs and the perfect matching is a Matching of the last one.  It
maximizes weight; a caller that minimizes negates the weights first.

Existence and optimality are decided apart.  Given a start matching, its
image in the gadget (`embed_ab_matching`) leaves exposed only the nodes
where the start misses the spec, and the perfect-matching solver's
augmenting-path search from there decides whether the spec admits any
matching, certifying a "no" by a Tutte barrier.  Only a spec that admits
one goes on to the weighted blossom solve, whose duals certify the
optimum.
"""

from __future__ import annotations

from bmatch.blossom import max_weight_perfect_matching
from bmatch.core import BInstance, Matching, MultiGraph, degrees
from bmatch.reduce import (
    BadSpec,
    UniformSpec,
    ab_to_pm,
    embed_ab_matching,
    lift,
    uniform_to_ab,
)


def shape_of(values: tuple[int, ...]) -> range | None:
    """A nonempty increasing degree list as one dense run (step 1) or one
    parity run (step 2), or None when it is neither."""
    gaps = {b - a for a, b in zip(values, values[1:])}
    if gaps <= {1}:
        return range(values[0], values[-1] + 1)
    if gaps == {2}:
        return range(values[0], values[-1] + 1, 2)
    return None


def spec_of_instance(instance: BInstance) -> UniformSpec:
    """Read each effective degree set as one dense interval or one parity run.

    Raises BadSpec when a vertex fits neither shape; such instances need the
    full neighbouring-type solver rather than a single reduction pass.
    """
    spec: list[range] = []
    for v in range(instance.graph.vertex_count):
        values = instance.b(v).values
        if not values:
            raise BadSpec(f"vertex {v} has an empty effective degree set")
        shape = shape_of(values)
        if shape is None:
            raise BadSpec(
                f"vertex {v} has degree set {values}, which is neither a "
                f"dense interval nor a single parity run"
            )
        spec.append(shape)
    return tuple(spec)


def solve_uniform(
    g: MultiGraph,
    spec: UniformSpec,
    start: Matching | None = None,
) -> Matching | None:
    """Maximum-weight matching with d_F(v) in spec(v) for every v, or None.

    `start`, any matching of g, only speeds up the verdict: the closer its
    degrees lie to the spec, the shorter the existence search.
    Deterministic: ties are broken by the perfect-matching solver's fixed
    edge scan order, which the reductions preserve (source edges keep their
    indices in both reduced graphs).
    """
    ab = uniform_to_ab(g, spec)
    reduced = ab_to_pm(ab)[0]
    warm = () if start is None else embed_ab_matching(ab, start)
    pm = max_weight_perfect_matching(reduced, warm)
    if pm is None:
        return None
    result = lift(g.edge_count, pm.selected)
    deg = degrees(g, result)
    for v in range(g.vertex_count):
        if deg[v] not in spec[v]:
            raise AssertionError(
                f"lifted matching has degree {deg[v]} at vertex {v}, outside its spec"
            )
    return result
