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
specs it solved at earlier steps, whose optima cannot beat where it stands.
`solve` does not walk: it finds the optimum by a best-first search over
slices of B(v), and the walk's step stays as an independent certificate.
"""

from __future__ import annotations

from heapq import heappop, heappush
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
    the order changes no answer.  Only a visited candidate builds its spec
    and hands it with the signed graph to `solve_uniform`.

    Each solved spec is added to `seen`, and a spec already in it counts as
    cached and is skipped unsolved.  That is exact when one set is passed
    to every step of a walk that always moves to the returned matching: a
    spec solved at an earlier step has an optimum of at most the weight
    that step reached, the walk's current matching weighs at least that
    much, and only a strictly heavier matching is taken.
    With the default None, nothing is skipped.  A caller-owned `stats` dict
    accumulates 'solved', 'cached' and 'pruned' counts; every candidate
    adds to exactly one of them, the unvisited ones to 'pruned'.
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
        if spec in seen:
            stats["cached"] += 1
            continue
        seen.add(spec)
        result = solve_uniform(work, spec)
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
    infeasibility verdict; a budget of 0 runs the propagation alone.  The
    search path lives on an explicit stack, so its depth (up to |E|) is not
    bounded by the recursion limit.
    """
    g = instance.graph
    n = g.vertex_count
    m = g.edge_count
    sets = [instance.b(v) for v in range(n)]
    cur = [0] * n
    undecided = [g.degree(v) for v in range(n)]
    decided: list[bool | None] = [None] * m
    trail: list[int] = []
    # Per edge, its two ends, each adding one to its vertex's degree; a loop
    # has both at one vertex, and appears twice in its incidence list.
    ends = [(u, v) for u, v, _w in g.edges]
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(ends):
        incident[u].append(e)
        incident[v].append(e)

    def set_edge(e: int, include: bool) -> tuple[int, int]:
        decided[e] = include
        trail.append(e)
        for x in ends[e]:
            undecided[x] -= 1
            if include:
                cur[x] += 1
        return ends[e]

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            for x in ends[e]:
                undecided[x] += 1
                if decided[e]:
                    cur[x] -= 1
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


def _spec(node: tuple[tuple[int, ...], ...]) -> UniformSpec:
    """Per vertex, its nonempty slice of b(v) itself when it is one dense
    interval or one parity run, else its dense hull [min, max]."""
    spec = []
    for values in node:
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

    Propagation alone (`find_feasible` with no branch node) may say "no".
    Otherwise a best-first search (Land & Doig) runs over nodes of one
    slice of b(v) per vertex, each solved as the spec `_spec` reads; the
    root, the relaxation, holds every b(v).  A node's checked optimum
    bounds every B-matching in it.  A node with no solution closes by its
    checked Tutte barrier, one whose answer is a B-matching closes with it
    as an incumbent, and any other splits at its answer's first vertex
    whose degree d is outside b(v), into the values below d and those
    above.  The root's answer, rounded into B by `_rounded`, gives an
    incumbent: before the first split when every edge weighs the same,
    as it then usually reaches the root's bound, else after that split.
    The search ends when no open bound exceeds the incumbent, which is
    optimal, or every node is closed without one: none exists.  Each split
    removes a degree from a slice, so the search ends, but its node count
    is exponential in the worst case.  A caller-owned `stats` dict
    receives 'solved', one per node and one for the rounding.
    """
    if stats is None:
        stats = {}
    stats.setdefault("solved", 0)
    try:
        refuted = find_feasible(instance, node_budget=0) is None
    except SearchBudgetExceeded:
        refuted = False
    if refuted:
        trace("solve: infeasible")
        return None
    work, sign = _as_max_weight(instance)
    # Open nodes as (-bound, solves so far, node, answer): best first, then oldest.
    open_nodes: list = []
    best = value = None

    def take(found: Matching) -> None:
        nonlocal best, value
        weight = matching_weight(work, found)
        if value is None or weight > value:
            best, value = found, weight

    def visit(node: tuple[tuple[int, ...], ...]) -> None:
        stats["solved"] += 1
        found = solve_uniform(work, _spec(node))
        if found is not None and is_b_matching(instance, found):
            take(found)
        elif found is not None:
            weight = matching_weight(work, found)
            heappush(open_nodes, (-weight, stats["solved"], node, found))

    visit(tuple(instance.b(v).values for v in range(instance.graph.vertex_count)))
    rounding = bound = None
    if open_nodes:
        bound = -open_nodes[0][0]
        rounding = _rounded(instance, open_nodes[0][3])
    round_after = 0 if len({w for _u, _v, w in work.edges}) == 1 else 1  # splits
    splits = 0
    while open_nodes and (value is None or -open_nodes[0][0] > value):
        if rounding is not None and splits == round_after:
            stats["solved"] += 1
            found, rounding = solve_uniform(work, rounding), None
            if found is None:
                continue
            if not is_b_matching(instance, found):
                raise AssertionError("the rounding's answer is not a B-matching")
            if matching_weight(work, found) == bound:
                trace(
                    f"solve: optimal, value from the rounded relaxation reached "
                    f"the relaxation bound {sign * bound}"
                )
                return found
            take(found)
            continue
        key, _index, node, answer = heappop(open_nodes)
        splits += 1
        deg = degrees(instance.graph, answer)
        v = next(v for v, d in enumerate(deg) if d not in instance.b(v))
        trace(f"search: bound {-sign * key}, vertex {v} splits at degree {deg[v]}")
        visit((*node[:v], tuple(x for x in node[v] if x < deg[v]), *node[v + 1 :]))
        visit((*node[:v], tuple(x for x in node[v] if x > deg[v]), *node[v + 1 :]))
    if best is None:
        closed = "every node of the search" if splits else "the relaxation"
        trace(f"solve: infeasible, {closed} has a Tutte barrier")
    elif bound is None:
        trace(
            f"solve: optimal, value {sign * value} by the relaxation's duals, "
            f"its answer is a B-matching"
        )
    else:
        trace(
            f"solve: optimal, value {sign * value}, no open node of the search "
            f"bounds more"
        )
    return best
