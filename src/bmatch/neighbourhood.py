"""The improvement algorithm: enumerate candidate types, solve them as
uniform instances in order of their bound until no bound can win, keep the
best strict improvement, repeat.

A feasible matching M induces one parity interval of B(v) per vertex (its
type).  A single improvement step may move at most two vertices to an
adjacent interval, or one vertex two intervals over; all other degrees stay
inside their current intervals.  Optimality is certified when no candidate
type admits a better matching.

All four objectives run as one max-weight problem: each edge weighs its
objective value (1 or w), negated for the min objectives.  A walk skips the
specs it solved at earlier steps, and those inside the rounded relaxation
below, whose optima cannot beat where it stands.

`solve` walks only when it must.  One uniform relaxation of the instance,
whose degree sets contain every B(v), is solved before any walk: when its
answer is a B-matching it is the optimum, and otherwise its weight bounds
the walk.  That answer, rounded to a spec inside B, is solved once more:
a B-matching of the relaxation's weight is the optimum, and a lighter one
may start the walk nearer to it.  The feasibility search, exponential in
the worst case, first gets only the 2|E| branch nodes of a search that
never backtracks.  Past them the relaxation is solved before the search
goes on: no solution means no B-matching, proved by the relaxation's
checked Tutte barrier, and a B-matching answer is the optimum.  The full
search runs only when the rounding has no solution either.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Callable

from bmatch.core import (
    BInstance,
    Matching,
    MultiGraph,
    current_type,
    degrees,
    is_b_matching,
    matching_weight,
)
from bmatch.reduce import UniformSpec
from bmatch.uniform import shape_of, solve_uniform

TraceFn = Callable[[str], None]


class SearchBudgetExceeded(RuntimeError):
    """The feasibility search hit its node cap before reaching a verdict."""


Moves = tuple[tuple[int, int], ...]


def enumerate_candidates(instance: BInstance, matching: Matching) -> tuple[Moves, ...]:
    """All candidate types, in a fixed order, each given by its moves: the
    (vertex, interval offset) pairs of the deviating vertices W, offsets
    counted from the intervals of the matching's type t.

    First the same-type candidate (), then single-vertex double steps
    ((w, -2),) and ((w, 2),), vertex ascending, then vertex pairs
    ((u, du), (v, dv)), lexicographic, with (du, dv) running through
    (-1, -1), (-1, 1), (1, -1), (1, 1).  Offsets that run off the interval
    list are skipped.  The count is O(n^2).
    """
    t = current_type(instance, matching)
    sizes = [len(instance.intervals(v)) for v in range(len(t))]
    out: list[Moves] = [()]
    for v, i in enumerate(t):
        out.extend(((v, off),) for off in (-2, 2) if 0 <= i + off < sizes[v])
    for u, v in combinations(range(len(t)), 2):
        for du, dv in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            if 0 <= t[u] + du < sizes[u] and 0 <= t[v] + dv < sizes[v]:
                out.append(((u, du), (v, dv)))
    return tuple(out)


def _candidate_spec(
    instance: BInstance, t: tuple[int, ...], base: UniformSpec, moves: Moves
) -> UniformSpec:
    """The spec of type t + moves: per vertex one parity interval of its
    B(v), the current one in `base` outside W."""
    spec = list(base)
    for v, off in moves:
        spec[v] = instance.intervals(v)[t[v] + off]
    return tuple(spec)


def _as_max_weight(instance: BInstance) -> tuple[MultiGraph, int]:
    """(work, sign): the instance's graph with each edge weighing sign
    times its objective value (1 for cardinality, w for weight), sign -1
    for the min objectives.  Every objective is then one max-weight
    problem on work."""
    direction, kind = instance.objective.split("-")
    sign = -1 if direction == "min" else 1
    g = instance.graph
    edges = tuple((u, v, sign * (1 if kind == "card" else w)) for u, v, w in g.edges)
    return MultiGraph(g.vertex_count, edges), sign


def _pin_values(instance: BInstance, work: MultiGraph) -> list[list[int]]:
    """Per vertex v and parity interval of b(v), the largest sum of d
    edge-end weights of work at v over the degrees d the interval holds:
    the best top-d prefix sum of v's end weights.  A loop counts at both of
    its ends.  Every matching counts each of its edges at two ends, so half
    the sum of one value per vertex bounds the weight of every matching
    whose degrees lie in those intervals."""
    ends: list[list[int]] = [[] for _ in range(work.vertex_count)]
    for u, v, w in work.edges:
        ends[u].append(w)
        ends[v].append(w)
    out = []
    for v, weights in enumerate(ends):
        weights.sort(reverse=True)
        prefix = list(accumulate(weights, initial=0))
        out.append([max(prefix[p.start : p.stop : 2]) for p in instance.intervals(v)])
    return out


def _bound(
    moves: Moves, t: tuple[int, ...], values: list[list[int]], base_total: int
) -> int:
    """Largest weight any matching of type t + moves can reach: half the
    pin-value sum, from base_total (one value per vertex at its current
    type t) and the change at the moved vertices, rounded down."""
    total = base_total
    for v, off in moves:
        total += values[v][t[v] + off] - values[v][t[v]]
    return total // 2


def improvement_step(
    instance: BInstance,
    matching: Matching,
    *,
    seen: set[UniformSpec] | None = None,
    rounded: UniformSpec | None = None,
    stats: dict | None = None,
) -> Matching | None:
    """Best strictly-improving matching over all candidate types, or None.

    None certifies that `matching` is optimal for instance.objective.  The
    step runs as max-weight on the graph `_as_max_weight` signs, and the
    best candidate is the one with the largest optimum, ties going to the
    earliest in enumeration order, then to the solver's own determinism.
    A candidate is its moves from the current type t.  Candidates are tried
    in order of their `_bound`, largest first and ties by enumeration
    index.  The step stops, unsolved, at the first candidate that cannot
    beat the best so far: a bound below the best weight (at first, the
    current matching's), or equal to it at a later index.  No candidate
    from there on can either, since its optimum is at most its bound, so
    the order changes no answer.  Only a visited candidate builds its spec,
    from t's intervals, and hands it with the signed graph to
    `solve_uniform`; `matching` starts the existence search of every
    solved candidate.

    Each solved spec is added to `seen`, and a spec already in it counts as
    cached and is skipped unsolved.  That is exact when one set is passed
    to every step of a walk that always moves to the returned matching, as
    `solve` does: a spec solved at an earlier step has an optimum of at
    most the weight that step reached, the walk's current matching weighs
    at least that much, and only a strictly heavier matching is taken.
    With the default None, nothing is skipped.  A candidate whose spec lies
    inside the spec `rounded` at every vertex counts as cached too, and is
    skipped unsolved: each of its matchings is one of `rounded`, so its
    optimum is at most `rounded`'s.  That is exact when `matching` weighs at
    least `rounded`'s optimum, as on `solve`'s walk once the rounded
    relaxation has an answer, and also when `rounded` has no solution at
    all: then no candidate inside it has one either.  A caller-owned
    `stats` dict accumulates 'solved', 'cached' and 'pruned' counts; every
    candidate adds to exactly one of them, the unvisited ones to 'pruned'.
    """
    work, _sign = _as_max_weight(instance)
    t = current_type(instance, matching)
    base = tuple(instance.intervals(v)[i] for v, i in enumerate(t))
    values = _pin_values(instance, work)
    base_total = sum(values[v][i] for v, i in enumerate(t))
    if seen is None:
        seen = set()
    if stats is None:
        stats = {}
    for key in ("solved", "cached", "pruned"):
        stats.setdefault(key, 0)

    # Keys (weight, -index) order results as the tie rule ranks them, and
    # a candidate's cap (bound, -index) is at least the key of any result
    # it can give.  The start key (weight, 1) ranks above every result of
    # the current weight, so only a strictly heavier matching is taken,
    # and a bound at most the current weight is dropped before the sort.
    current = matching_weight(work, matching)
    candidates = enumerate_candidates(instance, matching)
    bounds = (_bound(c, t, values, base_total) for c in candidates)
    caps = sorted(((b, -i) for i, b in enumerate(bounds) if b > current), reverse=True)
    best: Matching | None = None
    best_key = (current, 1)
    visited = 0
    for cap in caps:
        if cap <= best_key:
            break
        visited += 1
        spec = _candidate_spec(instance, t, base, candidates[-cap[1]])
        if spec in seen or (
            rounded is not None
            and all(s[0] in r and s[-1] in r for s, r in zip(spec, rounded))
        ):
            stats["cached"] += 1
            continue
        seen.add(spec)
        result = solve_uniform(work, spec, matching)
        stats["solved"] += 1
        if result is None:
            continue
        found = (matching_weight(work, result), cap[1])
        if found > best_key:
            best, best_key = result, found
    stats["pruned"] += len(candidates) - visited
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
    infeasibility verdict.  A search that never backtracks branches at most
    twice per edge, so `solve` first runs it with a budget of 2|E| and asks
    the uniform relaxation before searching further.  The search path
    lives on an explicit stack, so its depth (up to |E|) is not bounded by
    the recursion limit.
    """
    g = instance.graph
    n = g.vertex_count
    m = g.edge_count
    sets = [instance.b(v) for v in range(n)]
    cur = [0] * n
    undecided = [g.degree(v) for v in range(n)]
    decided: list[bool | None] = [None] * m
    trail: list[int] = []
    # Per edge, its distinct ends and what it adds to each end's degree.
    ends: list[tuple[int, ...]] = []
    unit: list[int] = []
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v, _w) in enumerate(g.edges):
        ends.append((u,) if u == v else (u, v))
        unit.append(2 if u == v else 1)
        for x in ends[e]:
            incident[x].append(e)

    def set_edge(e: int, include: bool) -> tuple[int, ...]:
        decided[e] = include
        trail.append(e)
        k = unit[e]
        for x in ends[e]:
            undecided[x] -= k
            if include:
                cur[x] += k
        return ends[e]

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            k = unit[e]
            for x in ends[e]:
                undecided[x] += k
                if decided[e]:
                    cur[x] -= k
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

    if not propagate(list(range(n))):
        return None
    branches: list[tuple[int, int, bool]] = []  # (edge, trail mark, include)
    e, include = 0, False
    nodes = 0
    while True:
        while e < m and decided[e] is not None:
            e += 1
        if e == m:
            return Matching(frozenset(i for i, d in enumerate(decided) if d))
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"feasibility search passed {node_budget} nodes"
            )
        mark = len(trail)
        if propagate(list(set_edge(e, include))):
            branches.append((e, mark, include))
            e, include = e + 1, False
            continue
        undo_to(mark)
        while include:
            if not branches:
                return None
            e, mark, include = branches.pop()
            undo_to(mark)
        include = True


def _relaxation(instance: BInstance) -> UniformSpec:
    """U: per vertex, b(v) itself when it is one dense interval or one
    parity run, else its dense hull [min b(v), max b(v)].  b(v) lies in
    U(v), so U's optimum weighs at least as much as every B-matching.
    Every b(v) must be nonempty."""
    spec = []
    for v in range(instance.graph.vertex_count):
        values = instance.b(v).values
        shape = shape_of(values)
        spec.append(range(values[0], values[-1] + 1) if shape is None else shape)
    return tuple(spec)


def _rounded(instance: BInstance, relaxed: Matching) -> UniformSpec:
    """R': per vertex v, a run of b(v) next to d = deg_R(v) in the
    relaxation's answer R, loops counting 2.  Where d lies in b(v), the
    longer of b(v)'s maximal dense run and maximal parity run through d,
    the dense run on a tie; where it does not, d sits on a gap of length
    one and R'(v) is the maximal parity run through d - 1 and d + 1.  Every
    R'(v) lies in b(v), so every matching of R' is a B-matching."""
    spec: list[range] = []
    for v, d in enumerate(degrees(instance.graph, relaxed)):
        values = set(instance.b(v).values)
        if d in values:
            dense = _run(values, d, d, 1)
            parity = _run(values, d, d, 2)
            spec.append(parity if len(parity) > len(dense) else dense)
        else:
            spec.append(_run(values, d - 1, d + 1, 2))
    return tuple(spec)


def _run(values: set[int], lo: int, hi: int, step: int) -> range:
    """The longest run lo - k*step, ..., hi + k*step of values through lo
    and hi."""
    assert lo in values and hi in values
    while lo - step in values:
        lo -= step
    while hi + step in values:
        hi += step
    return range(lo, hi + 1, step)


def solve(
    instance: BInstance,
    *,
    trace: TraceFn = lambda message: None,
    stats: dict | None = None,
) -> Matching | None:
    """An optimal B-matching for instance.objective, or None if none exists.

    `find_feasible` first runs with a budget of 2|E| branch nodes, the most
    a search that never backtracks can use: every edge is tried excluded,
    then at most once included.  Inside that budget it gives a start M or
    a "no", and the first certificate that holds ends the run:
    - M reaches the degree-sum bound of every B-matching (`_pin_values`);
    - one solve of the relaxation `_relaxation` gives an answer R that is
      a B-matching, optimal by the relaxation's checked blossom duals;
    - otherwise R's weight UB bounds the optimum, and one solve of R's
      rounding `_rounded`, started from R, gives a B-matching S of weight
      UB;
    - otherwise the walk improves the heavier of S and M (M on a tie) step
      by step until its value reaches UB or a step finds no improving
      candidate type.  A candidate inside R's rounding at every vertex
      counts as cached: its optimum is at most S's weight, or it has no
      solution when the rounding has none.
    A search that overruns the budget has begun to backtrack, and the
    relaxation is solved before it goes on.  No solution means no
    B-matching, certified by the blossom solver's checked Tutte barrier;
    a B-matching is the optimum as above, and otherwise S ends the run or
    starts the walk.  Only when the rounding has no solution either does
    `find_feasible` run in full, with its own budget, and the walk start
    from its answer.
    The walk's answers do not depend on the UB stop: at UB, the step it
    skips would find nothing.  For cardinality objectives the walk runs at
    most |E| iterations; for weight objectives the count is only bounded by
    the weight gap (pseudo-polynomial).  A caller-owned `stats` dict
    receives 'iterations' plus the 'solved', 'cached' and 'pruned'
    counters; the relaxation and its rounding count as one solved
    candidate each.
    """
    if stats is None:
        stats = {}
    counts = ("solved", "cached", "pruned")
    for key in ("iterations", *counts):
        stats.setdefault(key, 0)
    try:
        matching = find_feasible(instance, node_budget=2 * instance.graph.edge_count)
        in_budget = True
    except SearchBudgetExceeded:
        matching, in_budget = None, False
    if in_budget and matching is None:
        trace("solve: infeasible")
        return None
    work, sign = _as_max_weight(instance)
    if in_budget:
        value = matching_weight(work, matching)
        if value == sum(max(vals) for vals in _pin_values(instance, work)) // 2:
            trace(f"solve: optimal, value {sign * value} reached the degree-sum bound")
            return matching
    relaxed = solve_uniform(work, _relaxation(instance), matching)
    stats["solved"] += 1
    if relaxed is None:
        if in_budget:
            raise AssertionError("the relaxation has no solution, yet a B-matching exists")
        trace("solve: infeasible, the relaxation has a Tutte barrier")
        return None
    bound = matching_weight(work, relaxed)
    if is_b_matching(instance, relaxed):
        trace(
            f"solve: optimal, value {sign * bound} by the relaxation's duals, "
            f"its answer is a B-matching"
        )
        return relaxed
    rounding = _rounded(instance, relaxed)
    rounded = solve_uniform(work, rounding, relaxed)
    stats["solved"] += 1
    if rounded is not None:
        if not is_b_matching(instance, rounded):
            raise AssertionError("the rounding's answer is not a B-matching")
        value = matching_weight(work, rounded)
        if value == bound:
            trace(
                f"solve: optimal, value from the rounded relaxation reached "
                f"the relaxation bound {sign * bound}"
            )
            return rounded
        if matching is None or value > matching_weight(work, matching):
            matching = rounded
    if matching is None:
        matching = find_feasible(instance)
        if matching is None:
            trace("solve: infeasible")
            return None
    seen: set[UniformSpec] = set()
    iteration = 0
    while True:
        value = matching_weight(work, matching)
        trace(f"solve: iteration {iteration}, value {sign * value}")
        if value == bound:
            trace(f"solve: optimal, value reached the relaxation bound {sign * bound}")
            return matching
        before = [stats[key] for key in counts]
        improved = improvement_step(
            instance, matching, seen=seen, rounded=rounding, stats=stats
        )
        solved, cached, pruned = (stats[k] - b for k, b in zip(counts, before))
        best = value if improved is None else matching_weight(work, improved)
        trace(
            f"improvement_step: {solved + cached + pruned} candidates, "
            f"{solved} solved, {cached} cached, "
            f"{pruned} pruned, best value {sign * best}"
        )
        if improved is None:
            trace(
                f"solve: optimal, final step found nothing "
                f"(relaxation bound {sign * bound})"
            )
            return matching
        assert best > value
        matching = improved
        iteration += 1
        stats["iterations"] = iteration
