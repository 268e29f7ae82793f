"""The improvement algorithm: enumerate candidate types, solve them as
uniform instances in order of their bound until no bound can win, keep the
best strict improvement, repeat.

A feasible matching M induces one parity interval of B(v) per vertex (its
type).  A single improvement step may move at most two vertices to an
adjacent interval, or one vertex two intervals over; all other degrees stay
inside their current intervals.  Optimality is certified when no candidate
type admits a better matching.

All four objectives run as one max-weight problem: each edge weighs its
objective value (1 or w), negated for the min objectives.  `solve` does not
walk: it finds the optimum by a best-first search over slices of B(v), and
the walk's step stays as an independent certificate.  `find_feasible` is
`solve` with every edge weighing 0.
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
    stats: dict | None = None,
) -> Matching | None:
    """A matching of largest weight over all candidate types if it is
    strictly heavier than `matching`, else None.

    None certifies that `matching` is optimal for instance.objective.  The
    step runs as max-weight on the graph `_as_max_weight` signs, and any
    maximizer will do.  A candidate is its moves from the current type t.
    The candidates whose `_bound` exceeds the current weight are tried in
    order of bound, largest first, equal bounds in enumeration order.  The
    step stops, unsolved, at the first bound not above the best weight so
    far, as no candidate from there on can beat it.  Only a visited
    candidate builds its spec and hands it with the signed graph to
    `solve_uniform`, and its result is kept only when strictly heavier.

    A caller-owned `stats` dict accumulates 'solved' and 'pruned' counts;
    every candidate adds to exactly one of them, the unvisited ones to
    'pruned'.
    """
    work, _sign = _as_max_weight(instance)
    t = current_type(instance, matching)
    base = tuple(instance.intervals(v)[i] for v, i in enumerate(t))
    values = _pin_values(instance, work)
    base_total = sum(values[v][i] for v, i in enumerate(t))
    if stats is None:
        stats = {}
    for key in ("solved", "pruned"):
        stats.setdefault(key, 0)

    best, best_weight = None, matching_weight(work, matching)
    candidates = enumerate_candidates(instance, matching)
    bounds = [_bound(c, t, values, base_total) for c in candidates]
    kept = [i for i, b in enumerate(bounds) if b > best_weight]
    visited = 0
    for i in sorted(kept, key=lambda i: -bounds[i]):  # stable: ties keep their order
        if bounds[i] <= best_weight:
            break
        visited += 1
        result = solve_uniform(work, _candidate_spec(instance, t, base, candidates[i]))
        if result is None:
            continue
        weight = matching_weight(work, result)
        if weight > best_weight:
            best, best_weight = result, weight
    stats["solved"] += visited
    stats["pruned"] += len(candidates) - visited
    return best


def _refuted(instance: BInstance) -> bool:
    """True when propagation alone proves that no B-matching exists.

    An edge is decided when some end forces it: at v the window
    [cur(v), cur(v) + undecided_ends(v)] of still reachable degrees must hold
    a value of b(v), and when it holds exactly one, at an end of the window,
    every undecided edge at v is included (upper end) or excluded (lower
    end).  Forced edges are propagated to a fixpoint; an empty window is a
    proof of infeasibility.  False proves nothing.
    """
    g = instance.graph
    n = g.vertex_count
    sets = [instance.b(v) for v in range(n)]
    cur = [0] * n
    undecided = [g.degree(v) for v in range(n)]
    decided = [False] * g.edge_count
    # Per edge, its two ends, each adding one to its vertex's degree; a loop
    # has both at one vertex, and appears twice in its incidence list.
    ends = [(u, v) for u, v, _w in g.edges]
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(ends):
        incident[u].append(e)
        incident[v].append(e)

    queue = list(range(n))
    while queue:
        v = queue.pop()
        lo, hi = cur[v], cur[v] + undecided[v]
        admissible = [d for d in sets[v].values if lo <= d <= hi]
        if not admissible:
            return True
        if undecided[v] == 0 or len(admissible) > 1:
            continue
        if admissible[0] == hi:
            include = True
        elif admissible[0] == lo:
            include = False
        else:
            continue
        for e in incident[v]:
            if decided[e]:
                continue
            decided[e] = True
            for x in ends[e]:
                undecided[x] -= 1
                if include:
                    cur[x] += 1
            queue.extend(ends[e])
    return False


def find_feasible(instance: BInstance) -> Matching | None:
    """Some feasible B-matching, or None if none exists.

    `solve` on a copy of the instance whose edges all weigh 0 under
    max-weight: the first B-matching its search meets ends it, and every
    node it closes without one closes by a checked Tutte barrier.  Exact,
    but the search's node count is exponential in the worst case.
    """
    g = instance.graph
    zero = MultiGraph(g.vertex_count, tuple((u, v, 0) for u, v, _w in g.edges))
    return solve(BInstance(zero, instance.degree_sets, "max-weight"))


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

    Propagation alone (`_refuted`) may say "no".  Otherwise a best-first
    search (Land & Doig) runs on the graph `_as_max_weight` signs, over
    nodes of one slice of b(v) per vertex, each solved as the spec `_spec`
    reads; the root, the relaxation, holds every b(v).  A node's checked
    optimum bounds every B-matching in it.  A node with no solution closes
    by its checked Tutte barrier, one whose answer is a B-matching closes
    with it as an incumbent, and any other splits at its answer's first
    vertex whose degree d is outside b(v), into the values below d and
    those above.  The root's answer, rounded into B by `_rounded`, gives an
    incumbent: before the first split when every edge weighs the same, as
    it then usually reaches the root's bound, else after that split.  The
    search ends when no open bound exceeds the incumbent, which is optimal,
    or every node is closed without one: none exists.  Each split removes a
    degree from a slice, so the search ends, but its node count is
    exponential in the worst case.  trace reports values in the objective's
    own sign.  A caller-owned `stats` dict receives 'solved', one per node
    of the search and one for its rounding.
    """
    if stats is None:
        stats = {}
    stats.setdefault("solved", 0)
    if _refuted(instance):
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
