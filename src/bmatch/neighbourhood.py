"""The improvement algorithm: enumerate candidate types, solve each as a
uniform instance, keep the best strict improvement, repeat.

A feasible matching M induces one parity interval of B(v) per vertex (its
type).  A single improvement step may move at most two vertices to an
adjacent interval, or one vertex two intervals over; all other degrees stay
inside their current intervals.  Optimality is certified when no candidate
type admits a better matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable

from bmatch.core import (
    BInstance,
    Matching,
    MultiGraph,
    NotFeasible,
    OBJECTIVES,
    ParityInterval,
    degrees,
    matching_weight,
    parity_intervals,
)
from bmatch.reduce import Parity, UniformSpec
from bmatch.uniform import solve_uniform

TraceFn = Callable[[str], None]


class SearchBudgetExceeded(RuntimeError):
    """The feasibility search hit its node cap before reaching a verdict."""


@dataclass(frozen=True)
class TypeAssignment:
    """Per vertex, the index of the parity interval of B(v) holding d_M(v)."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))


@dataclass(frozen=True)
class CandidateType:
    """A type the next matching is allowed to have.

    moves lists (vertex, interval offset) for the deviating vertices W:
    empty for the same-type candidate, one (w, ±2) move, or two (w, ±1)
    moves.  spec pins every vertex to one parity interval of its B(v), the
    current one outside W.
    """

    moves: tuple[tuple[int, int], ...]
    spec: UniformSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "moves", tuple(self.moves))

    @property
    def deviating(self) -> frozenset[int]:
        return frozenset(v for v, _off in self.moves)


def _instance_intervals(instance: BInstance) -> list[list[ParityInterval]]:
    return [
        parity_intervals(instance.b(v)) for v in range(instance.graph.vertex_count)
    ]


def current_type(instance: BInstance, matching: Matching) -> TypeAssignment:
    """Interval index of d_M(v) in B(v) for every vertex."""
    deg = degrees(instance.graph, matching)
    out = []
    for v, intervals in enumerate(_instance_intervals(instance)):
        for i, iv in enumerate(intervals):
            if deg[v] in iv:
                out.append(i)
                break
        else:
            raise NotFeasible(
                f"degree {deg[v]} at vertex {v} is outside its degree set"
            )
    return TypeAssignment(tuple(out))


def enumerate_candidates(
    instance: BInstance, matching: Matching
) -> tuple[CandidateType, ...]:
    """All candidate types, in a fixed order.

    First the same-type candidate, then single-vertex double steps (vertex
    ascending, -2 before +2), then vertex pairs (lexicographic) with
    direction pairs (-,-), (-,+), (+,-), (+,+).  Offsets that run off the
    interval list are skipped.  The count is O(n^2).
    """
    n = instance.graph.vertex_count
    t = current_type(instance, matching).indices
    intervals = _instance_intervals(instance)

    def pin(v: int, index: int) -> Parity:
        iv = intervals[v][index]
        return Parity(iv.lo, iv.hi)

    base = tuple(pin(v, t[v]) for v in range(n))
    out = [CandidateType((), UniformSpec(base))]
    for v in range(n):
        for off in (-2, 2):
            j = t[v] + off
            if 0 <= j < len(intervals[v]):
                spec = base[:v] + (pin(v, j),) + base[v + 1 :]
                out.append(CandidateType(((v, off),), UniformSpec(spec)))
    for u in range(n):
        for v in range(u + 1, n):
            for du, dv in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
                ju, jv = t[u] + du, t[v] + dv
                if 0 <= ju < len(intervals[u]) and 0 <= jv < len(intervals[v]):
                    spec = list(base)
                    spec[u] = pin(u, ju)
                    spec[v] = pin(v, jv)
                    out.append(
                        CandidateType(((u, du), (v, dv)), UniformSpec(tuple(spec)))
                    )
    return tuple(out)


def _objective_parts(sense: str) -> tuple[bool, str]:
    if sense not in OBJECTIVES:
        raise ValueError(f"sense must be one of {OBJECTIVES}, got {sense!r}")
    kind, direction = sense.split("-")[1], sense.split("-")[0]
    return kind == "card", direction


def _work_instance(instance: BInstance, cardinality: bool) -> BInstance:
    if not cardinality:
        return instance
    g = instance.graph
    unit = MultiGraph(g.vertex_count, tuple((u, v, 1) for u, v, _w in g.edges))
    return BInstance(unit, instance.degree_sets, instance.objective)


def _value(instance: BInstance, matching: Matching, cardinality: bool) -> int:
    return len(matching) if cardinality else matching_weight(instance.graph, matching)


def _cardinality_bound(spec: UniformSpec, direction: str) -> int:
    """Largest (max) or smallest (min) conceivable |F| under spec."""
    if direction == "max":
        return sum(s.degrees()[-1] for s in spec.per_vertex) // 2
    return ceil(sum(s.degrees()[0] for s in spec.per_vertex) / 2)


def improvement_step(
    instance: BInstance,
    matching: Matching,
    sense: str | None = None,
    *,
    cache: dict | None = None,
    trace: TraceFn | None = None,
    stats: dict | None = None,
) -> Matching | None:
    """Best strictly-improving matching over all candidate types, or None.

    None certifies that `matching` is optimal for the instance.  Ties go to
    the earliest candidate in enumeration order, then to the solver's own
    determinism.  A shared `cache` (keyed by spec and direction) answers a
    candidate whose spec an earlier sweep already solved.  Every spec holds
    the moved vertices of its step, so only some recur: on seeded planted
    walks the cache answered 41% of lookups for dense weight objectives and
    5% for sparse cardinality ones, and none on fixtures/scale60.bm.  A
    caller-owned `stats` dict accumulates 'solved', 'cached' and 'pruned'
    counts.
    """
    if sense is None:
        sense = instance.objective
    cardinality, direction = _objective_parts(sense)
    work = _work_instance(instance, cardinality)
    candidates = enumerate_candidates(instance, matching)
    if __debug__:
        for cand in candidates:
            for v, _off in cand.moves:
                allowed = instance.b(v)
                assert all(d in allowed for d in cand.spec.per_vertex[v].degrees())
    best: Matching | None = None
    best_value = _value(instance, matching, cardinality)
    better = (lambda a, b: a > b) if direction == "max" else (lambda a, b: a < b)
    if stats is None:
        stats = {}
    for key in ("solved", "cached", "pruned"):
        stats.setdefault(key, 0)
    seen_before = tuple(stats[key] for key in ("solved", "cached", "pruned"))

    for cand in candidates:
        if cardinality and not better(
            _cardinality_bound(cand.spec, direction), best_value
        ):
            stats["pruned"] += 1
            continue
        key = (cand.spec, direction, cardinality)
        if cache is not None and key in cache:
            stats["cached"] += 1
            result = cache[key]
        else:
            result = solve_uniform(work, cand.spec, direction)
            stats["solved"] += 1
            if cache is not None:
                cache[key] = result
        if result is None:
            continue
        val = _value(instance, result, cardinality)
        if better(val, best_value):
            best, best_value = result, val
    if trace is not None:
        solved, cached, pruned = (
            stats[key] - old
            for key, old in zip(("solved", "cached", "pruned"), seen_before)
        )
        trace(
            f"improvement_step: {len(candidates)} candidates, "
            f"{solved} solved, {cached} cached, "
            f"{pruned} pruned, best value {best_value}"
        )
    return best


def find_feasible(
    instance: BInstance, *, node_budget: int = 1_000_000
) -> Matching | None:
    """Some feasible B-matching, or None if none exists.

    Backtracking over edges in index order, excluding before including, so
    the result is the lexicographically first feasible selection.  A partial
    selection survives at v iff some admissible degree lies in the window
    [cur(v), cur(v) + undecided_ends(v)]; when the window admits only its
    own endpoint, every undecided edge at v is forced and propagated before
    branching (which cannot change the lexicographic answer).  Exact but
    exponential in the worst case; `node_budget` caps the branch count and
    overrunning it raises SearchBudgetExceeded, which is not an
    infeasibility verdict.
    """
    g = instance.graph
    n = g.vertex_count
    sets = [instance.b(v) for v in range(n)]
    cur = [0] * n
    undecided = [g.degree(v) for v in range(n)]
    decided: list[bool | None] = [None] * g.edge_count
    trail: list[int] = []
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v, _w) in enumerate(g.edges):
        incident[u].append(e)
        if v != u:
            incident[v].append(e)
    nodes = 0

    def ends(e: int) -> tuple[int, ...]:
        u, v, _w = g.edges[e]
        return (u,) if u == v else (u, v)

    def set_edge(e: int, include: bool) -> tuple[int, ...]:
        decided[e] = include
        trail.append(e)
        unit = 2 if len(ends(e)) == 1 else 1
        for x in ends(e):
            undecided[x] -= unit
            if include:
                cur[x] += unit
        return ends(e)

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            unit = 2 if len(ends(e)) == 1 else 1
            for x in ends(e):
                undecided[x] += unit
                if decided[e]:
                    cur[x] -= unit
            decided[e] = None

    def propagate(queue: list[int]) -> bool:
        """Apply forced decisions until a fixpoint; False on a dead end."""
        while queue:
            v = queue.pop()
            lo, hi = cur[v], cur[v] + undecided[v]
            admissible = [d for d in sets[v].values if lo <= d <= hi]
            if not admissible:
                return False
            if undecided[v] == 0 or len(admissible) > 1:
                continue
            if admissible[0] == hi:
                forced = True
            elif admissible[0] == lo:
                forced = False
            else:
                continue
            for e in incident[v]:
                if decided[e] is None:
                    queue.extend(set_edge(e, forced))
        return True

    def step(start: int) -> Matching | None:
        nonlocal nodes
        e = start
        while e < g.edge_count and decided[e] is not None:
            e += 1
        if e == g.edge_count:
            return Matching(frozenset(i for i, d in enumerate(decided) if d))
        for include in (False, True):
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(
                    f"feasibility search passed {node_budget} nodes"
                )
            mark = len(trail)
            if propagate(list(set_edge(e, include))):
                found = step(e + 1)
                if found is not None:
                    return found
            undo_to(mark)
        return None

    if not propagate(list(range(n))):
        return None
    return step(0)


def solve(
    instance: BInstance,
    *,
    trace: TraceFn | None = None,
    node_budget: int = 1_000_000,
    stats: dict | None = None,
) -> Matching | None:
    """Find a feasible matching, then improve until no candidate type helps.

    The final matching is optimal for instance.objective.  For cardinality
    objectives the loop runs at most |E| iterations; for weight objectives
    the count is only bounded by the weight gap (pseudo-polynomial).  A
    caller-owned `stats` dict receives 'iterations' plus the accumulated
    improvement_step counters.
    """
    if stats is None:
        stats = {}
    stats.setdefault("iterations", 0)
    matching = find_feasible(instance, node_budget=node_budget)
    if matching is None:
        if trace is not None:
            trace("solve: infeasible")
        return None
    cardinality, direction = _objective_parts(instance.objective)
    cache: dict = {}
    iteration = 0
    while True:
        if trace is not None:
            trace(
                f"solve: iteration {iteration}, value "
                f"{_value(instance, matching, cardinality)}"
            )
        improved = improvement_step(
            instance,
            matching,
            instance.objective,
            cache=cache,
            trace=trace,
            stats=stats,
        )
        if improved is None:
            return matching
        if __debug__:
            old = _value(instance, matching, cardinality)
            new = _value(instance, improved, cardinality)
            assert (new > old) if direction == "max" else (new < old)
        matching = improved
        iteration += 1
        stats["iterations"] = iteration
