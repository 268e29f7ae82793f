"""Structural machinery for B-matchings: alternating-walk decompositions of
symmetric differences, meta-paths and meta-cycles, canonical paths, basic-ness
and the classification checks over basic canonical paths.

Conventions.  An alternating walk is an edge sequence alternating between
matched and unmatched edges; vertices may repeat, edges may not.  A walk is a
"cycle" only if the alternation also holds around the wrap (first edge
matched, closing edge unmatched), which preserves every degree.  A closed
walk whose two ending edges lie on the same side is a path P(v, v), not a
cycle; it shifts the degree of v by 2.

In any maximal decomposition, all walk ends at a vertex lie on the same side
(otherwise two walks would concatenate), so walk ends sit exactly where the
two matchings disagree, on the majority side.  Canonical paths are built
from such walks: meta-cycles attached at one or two endpoint vertices plus a
connecting meta-path, whose joint application lands on a matching of
neighbouring type.

Recognising a canonical path is one arrangement step, run either over
every pairing of edge ends (canonical_structure, one product over the
per-vertex pairings) or over a fixed set of walks.  The arrangement search
builds what it finds: its paths and cycles carry their junctions, so the
meta-paths and meta-cycles come straight out of it.  It is one depth-first
search, a meta-path and then meta-cycles, whose frames (like its path
search's) sit on an explicit stack, so nothing here recurses.  One rule,
`_shift`, says how applying an edge set moves each degree.  The sequence
extraction keeps walks whole: it searches unions of whole walks, smallest
first and exactly pruned, so it never gives up on a valid pair.  Shrinking
to a basic path is one loop over the best disqualifying subset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product

from bmatch.core import (
    BInstance,
    Matching,
    NotFeasible,
    current_type,
    degrees,
    is_b_matching,
)


class NotBasic(ValueError):
    """A canonical path failed a cheap necessary condition of basic-ness."""


# -- walks and meta-structures -------------------------------------------------


@dataclass(frozen=True)
class AlternatingWalk:
    """An alternating edge sequence: kind 'path' or 'cycle'.

    vertices spells out the traversal (len(edges) + 1 entries, first == last
    for cycles and for closed paths P(v, v)).
    """

    kind: str
    edges: tuple[int, ...]
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("path", "cycle"):
            raise ValueError(f"bad walk kind {self.kind!r}")
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("vertex sequence must have one more entry than edges")
        if self.kind == "cycle" and self.vertices[0] != self.vertices[-1]:
            raise ValueError("cycle must return to its starting vertex")

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)


def walk_problems(instance: BInstance, matching: Matching, walk: AlternatingWalk) -> list[str]:
    """Violations of the alternating-walk invariants; empty when valid."""
    g = instance.graph
    out = []
    if len(set(walk.edges)) != len(walk.edges):
        out.append("an edge occurs more than once")
    for i, e in enumerate(walk.edges):
        u, v, _w = g.edges[e]
        a, b = walk.vertices[i], walk.vertices[i + 1]
        if {u, v} != {a, b}:
            out.append(f"edge {e} does not join step vertices {a}, {b}")
    sides = [e in matching for e in walk.edges]
    for i in range(len(sides) - 1):
        if sides[i] == sides[i + 1]:
            out.append(f"edges {walk.edges[i]} and {walk.edges[i + 1]} do not alternate")
    if walk.kind == "cycle":
        if not sides or not sides[0] or sides[-1]:
            out.append("cycle must start in the matching and close outside it")
    elif walk.vertices[0] == walk.vertices[-1] and sides and sides[0] != sides[-1]:
        out.append("closed path must have both ending edges on the same side")
    return out


class _WalkUnion:
    """Edge set of a structure made of alternating walks."""

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(e for w in self.walks for e in w.edges)


@dataclass(frozen=True)
class MetaCycle(_WalkUnion):
    """Walks P(v1,v2), ..., P(vk,v1) with pairwise distinct junctions."""

    walks: tuple[AlternatingWalk, ...]
    junctions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.walks) != len(self.junctions):
            raise ValueError("one junction per constituent walk")
        if len(set(self.junctions)) != len(self.junctions):
            raise ValueError("meta-cycle junctions must be pairwise distinct")


@dataclass(frozen=True)
class MetaPath(_WalkUnion):
    """Walks P(v1,v2), ..., P(vk,vk+1) with pairwise distinct junctions."""

    walks: tuple[AlternatingWalk, ...]
    junctions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.junctions) != len(self.walks) + 1:
            raise ValueError("a meta-path on k walks has k + 1 junctions")
        if len(set(self.junctions)) != len(self.junctions):
            raise ValueError("meta-path junctions must be pairwise distinct")


@dataclass(frozen=True)
class CanonicalPath(_WalkUnion):
    """Meta-cycles at the two endpoints plus a meta-path between them.

    The meta-path is absent exactly when the endpoints coincide.
    """

    v_first: int
    v_last: int
    cycles_first: tuple[MetaCycle, ...]
    cycles_last: tuple[MetaCycle, ...]
    meta_path: MetaPath | None

    def __post_init__(self) -> None:
        if (self.meta_path is None) != (self.v_first == self.v_last):
            raise ValueError("meta-path present iff the endpoints differ")
        if self.meta_path is not None:
            if self.meta_path.junctions[0] != self.v_first:
                raise ValueError("meta-path must start at v_first")
            if self.meta_path.junctions[-1] != self.v_last:
                raise ValueError("meta-path must end at v_last")
        for c in self.cycles_first:
            if self.v_first not in c.junctions:
                raise ValueError("cycle not incident to v_first")
        for c in self.cycles_last:
            if self.v_last not in c.junctions:
                raise ValueError("cycle not incident to v_last")

    @property
    def cycles(self) -> tuple[MetaCycle, ...]:
        return self.cycles_first + self.cycles_last

    @property
    def walks(self) -> tuple[AlternatingWalk, ...]:
        out = [w for c in self.cycles for w in c.walks]
        if self.meta_path is not None:
            out.extend(self.meta_path.walks)
        return tuple(out)


# -- apply / weight ------------------------------------------------------------


def apply(matching: Matching, edges: frozenset[int]) -> Matching:
    """Symmetric difference of a matching with an edge set (an involution)."""
    return Matching(matching.selected ^ edges)


def weight_of(instance: BInstance, matching: Matching, edges: frozenset[int]) -> int:
    """Weight effect of applying: added edges count +, removed edges count -."""
    g = instance.graph
    total = 0
    for e in edges:
        w = g.edges[e][2]
        total += -w if e in matching else w
    return total


def shifts_within(
    instance: BInstance, m: Matching, n: Matching, edges: frozenset[int]
) -> bool:
    """Whether `edges` moves every degree toward n without overshooting.

    Holds exactly when `edges` is a union of whole alternating paths of
    some maximal decomposition of M (+) N, so it is the subset relation
    under which canonical paths of the pair (M, N) live: a canonical
    component of the pair must never shift a degree against the overall
    direction or past the target.
    """
    g = instance.graph
    full = _shift(g, m, m.selected ^ n.selected)
    for v, k in _shift(g, m, edges).items():
        lo, hi = sorted((0, full.get(v, 0)))
        if not lo <= k <= hi:
            return False
    return True


def _shift(g, m: Matching, edges) -> dict[int, int]:
    """Per vertex, the nonzero change of its degree when `edges` is applied
    to m: +1 per end of an added edge, -1 per end of a removed one."""
    out: dict[int, int] = {}
    for e in edges:
        u, v, _w = g.edges[e]
        k = -1 if e in m.selected else 1
        out[u] = out.get(u, 0) + k
        out[v] = out.get(v, 0) + k
    return {v: k for v, k in out.items() if k}


# -- maximal decomposition -----------------------------------------------------


def _ends_at(g, edges) -> dict[int, list[tuple[int, int]]]:
    """Per vertex, the end slots of the edges in ascending edge order.

    Edge e has slot (e, 0) at its first endpoint and (e, 1) at its second,
    so the vertex of a slot (e, s) is g.edges[e][s].
    """
    at: dict[int, list[tuple[int, int]]] = {}
    for e in sorted(edges):
        u, v, _w = g.edges[e]
        at.setdefault(u, []).append((e, 0))
        at.setdefault(v, []).append((e, 1))
    return at


def _follow(g, link: dict, start: tuple[int, int], used: set[int]) -> AlternatingWalk:
    """The walk that enters through slot `start` and follows the links.

    It is a path when it leaves through an unlinked slot and a cycle when
    the links lead back to `start`.  Every traversed edge is added to used.
    """
    edges: list[int] = []
    verts = [g.edges[start[0]][start[1]]]
    slot = start
    while True:
        e, s = slot
        used.add(e)
        edges.append(e)
        verts.append(g.edges[e][1 - s])
        slot = link.get((e, 1 - s))
        if slot is None:
            return AlternatingWalk("path", tuple(edges), tuple(verts))
        if slot == start:
            return AlternatingWalk("cycle", tuple(edges), tuple(verts))


def _link(pairings) -> dict:
    """Slot to slot, both ways, over every pair of the pairings."""
    return {x: y for pairing in pairings for a, b in pairing for x, y in ((a, b), (b, a))}


def _open_walks(g, at: dict, link: dict, used: set[int]) -> list[AlternatingWalk]:
    """The walks `_follow` takes from the unlinked slots in ascending order,
    skipping a slot whose edge an earlier walk already traversed."""
    free = sorted(s for slots in at.values() for s in slots if s not in link)
    return [_follow(g, link, s, used) for s in free if s[0] not in used]


def decompose_symmetric_difference(
    instance: BInstance, m_one: Matching, m_two: Matching
) -> tuple[tuple[AlternatingWalk, ...], tuple[AlternatingWalk, ...]]:
    """A deterministic maximal decomposition of the symmetric difference.

    At each vertex, matched and unmatched difference-edge ends are paired in
    ascending edge order; leftover ends (the degree imbalance, all on one
    side) become walk ends.  Following the pairings yields open alternating
    paths (started from free ends in ascending order) and alternating cycles
    (started from the smallest unused matched edge).  No two output paths
    concatenate, since all free ends at a vertex lie on the same side.
    """
    for m in (m_one, m_two):
        if not is_b_matching(instance, m):
            raise NotFeasible("decomposition requires feasible B-matchings")
    g = instance.graph
    diff = sorted(m_one.selected ^ m_two.selected)
    at = _ends_at(g, diff)
    link = _link(next(_pairings(slots, m_one)) for slots in at.values())
    used: set[int] = set()
    paths = _open_walks(g, at, link, used)
    cycles = [
        _follow(g, link, (e, 0), used) for e in diff if e not in used and e in m_one
    ]
    if not used.issuperset(diff):
        raise AssertionError("the walks must cover the symmetric difference")
    if __debug__:
        for w in paths + cycles:
            assert not walk_problems(instance, m_one, w), walk_problems(
                instance, m_one, w
            )
        # maximality: all free ends at a vertex share their side exactly
        # when there are as many of them as the vertex's degree shift
        ends = Counter(v for p in paths for v in p.endpoints)
        assert ends == {v: abs(k) for v, k in _shift(g, m_one, diff).items()}
    return tuple(paths), tuple(cycles)


# -- type predicates -----------------------------------------------------------


def neighbouring_types(t: tuple[int, ...], u: tuple[int, ...]) -> bool:
    """Do types t and u differ at W = no vertex, one vertex by two interval
    indices, or two vertices by one index each?

    Comparing indices is exact: consecutive parity intervals of a set with
    no gap longer than 1 satisfy hi + 1 == next lo, so "adjacent" means
    "index one apart".
    """
    return sorted(abs(i - j) for i, j in zip(t, u) if i != j) in ([], [2], [1, 1])


def is_same_uniform_type(instance: BInstance, m: Matching, n: Matching) -> bool:
    """Does every d_N(v) stay in the interval of B(v) holding d_M(v)?
    M must be feasible."""
    if not is_b_matching(instance, n):
        return False
    return current_type(instance, m) == current_type(instance, n)


def is_neighbouring_type(instance: BInstance, m: Matching, n: Matching) -> bool:
    """Is N feasible and of a type neighbouring M's (`neighbouring_types`)?
    M must be feasible."""
    if not is_b_matching(instance, n):
        return False
    return neighbouring_types(current_type(instance, m), current_type(instance, n))


# -- canonical-path recognition ------------------------------------------------


def _end_profile(
    instance: BInstance, m: Matching, edges: frozenset[int]
) -> dict[int, int] | None:
    """The degree shift `_shift` of the edge set: shift k at v forces |k|
    walk ends there, on matched edges when k < 0 (applying lowers the
    degree).  Returns None if some connected component of the edge set is
    balanced everywhere, because such a component only decomposes into
    alternating cycles, which no canonical path may contain.
    """
    g = instance.graph
    profile = _shift(g, m, edges)
    # balanced-component test
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        u, v, _w = g.edges[e]
        parent[find(u)] = find(v)
    live = {find(v) for v in profile}
    for e in edges:
        if find(g.edges[e][0]) not in live:
            return None
    return profile


def _pairings(slots: list, m: Matching):
    """All ways to pair a vertex's matched slots with its unmatched ones, as
    many as the shorter side has; the first pairs both in ascending order."""
    ms = tuple(s for s in slots if s[0] in m)
    ns = tuple(s for s in slots if s[0] not in m)
    if len(ms) >= len(ns):
        return (tuple(zip(p, ns)) for p in permutations(ms, len(ns)))
    return (tuple(zip(ms, p)) for p in permutations(ns, len(ms)))


def _walk_decompositions(instance: BInstance, m: Matching, edges: frozenset[int]):
    """Yield open-walk decompositions of the edge set, one per distinct
    multiset of walk endpoint pairs.

    Every maximal decomposition pairs matched with unmatched edge ends at
    each vertex, leaving the imbalance free; enumerating the pairings
    enumerates the decompositions, one pick per vertex in sorted vertex
    order.  Pairings that close a trail are skipped (a canonical path
    contains no alternating cycles).  Yields tuples of AlternatingWalk.
    """
    g = instance.graph
    at = _ends_at(g, edges)
    seen = set()
    for pick in product(*(_pairings(at[v], m) for v in sorted(at))):
        used: set[int] = set()
        walks = _open_walks(g, at, _link(pick), used)
        if len(used) != len(edges):
            continue  # a closed trail remained
        key = tuple(sorted(tuple(sorted(w.endpoints)) for w in walks))
        if key not in seen:
            seen.add(key)
            yield tuple(walks)


def _shape_partition(walk_edges: tuple, v_first: int, v_last: int):
    """Partition walk-graph edges into simple cycles through v_first or
    v_last plus (for distinct endpoints) one simple path between them.

    walk_edges is a tuple of (a, b) endpoint pairs.  Returns a pair
    (path, cycle_groups), or None.  path is (indices, junctions) into
    walk_edges, or None when the endpoints coincide; cycle_groups is a
    tuple of (anchor, indices, junctions) with anchor in {v_first, v_last}.
    Depth first on one stack: the bottom frame offers the paths (only "no
    path" when the endpoints coincide), each frame above the cycles through
    an anchor that hold the smallest remaining walk.
    """

    def cycles(remaining: frozenset):
        for anchor in dict.fromkeys((v_first, v_last)):
            for cyc, junctions in _simple_cycles_through(
                walk_edges, remaining, min(remaining), anchor
            ):
                yield cyc, (anchor, cyc, junctions)

    everything = frozenset(range(len(walk_edges)))
    if v_first == v_last:
        paths = iter([((), None)])
    else:
        paths = ((p[0], p) for p in _simple_paths(walk_edges, everything, v_first, v_last))
    stack = [(paths, everything, ())]
    while stack:
        options, remaining, parts = stack[-1]
        for used, part in options:
            rest = remaining - frozenset(used)
            found = parts + (part,)
            if not rest:
                return found[0], found[1:]
            stack.append((cycles(rest), rest, found))
            break
        else:
            stack.pop()
    return None


def _simple_paths(walk_edges, allowed: frozenset, src: int, dst: int):
    """Simple paths src -> dst != src (distinct junctions) over the walk graph.

    Yields (walk indices, junctions from src to dst), depth first with the
    walks out of each junction tried in index order.  Each stack frame holds
    an iterator over its sorted remaining walks, so a long path costs no
    recursion.
    """
    stack = [(iter(sorted(allowed)), allowed, (), (src,))]
    while stack:
        options, remaining, path, junctions = stack[-1]
        cur = junctions[-1]
        for i in options:
            a, b = walk_edges[i]
            if cur not in (a, b) or a == b:
                continue
            nxt = b if a == cur else a
            if nxt in junctions:
                continue
            if nxt == dst:
                yield path + (i,), junctions + (nxt,)
                continue
            rest = remaining - {i}
            stack.append((iter(sorted(rest)), rest, path + (i,), junctions + (nxt,)))
            break
        else:
            stack.pop()


def _simple_cycles_through(walk_edges, allowed: frozenset, must_use: int, anchor: int):
    """Simple cycles (distinct junctions) through anchor using edge must_use.

    Yields (walk indices, junctions), starting at must_use; junction i is
    the vertex that walk i shares with walk i - 1.  A 2-cycle of parallel
    walks takes must_use's own (a, b) orientation.
    """
    a, b = walk_edges[must_use]
    if a == b:
        if a == anchor:
            yield (must_use,), (a,)
        return
    remaining = allowed - {must_use}
    if anchor in (a, b):
        start, goal = (b, a) if anchor == a else (a, b)
        # close with a simple path back to the anchor; the path's distinct
        # junctions together with the closing edge keep all junctions distinct
        for path, junctions in _simple_paths(walk_edges, remaining, start, goal):
            ring = (a, b) if len(path) == 1 else (goal,) + junctions[:-1]
            yield (must_use,) + path, ring
        return
    # anchor elsewhere on the cycle: go a -> anchor -> b, junctions distinct
    for first, there in _simple_paths(walk_edges, remaining, a, anchor):
        behind = frozenset(there[:-1])
        for second, back in _simple_paths(walk_edges, remaining - frozenset(first), anchor, b):
            if behind.isdisjoint(back):
                yield (must_use,) + first + second, (b,) + there + back[1:-1]


def _structure_from(
    walks: tuple[AlternatingWalk, ...], v_first: int, v_last: int, partition
) -> CanonicalPath:
    path, cycle_groups = partition
    cycles_first = []
    cycles_last = []
    for anchor, cyc, junctions in cycle_groups:
        meta = MetaCycle(tuple(walks[i] for i in cyc), junctions)
        (cycles_first if anchor == v_first else cycles_last).append(meta)
    meta_path = None
    if path is not None:
        indices, junctions = path
        meta_path = MetaPath(tuple(walks[i] for i in indices), junctions)
    return CanonicalPath(
        v_first, v_last, tuple(cycles_first), tuple(cycles_last), meta_path
    )


def _arrange(
    instance: BInstance, matching: Matching, edges: frozenset[int], decompositions
) -> CanonicalPath | None:
    """Arrange the first fitting decomposition of the edge set into a
    canonical path: meta-cycles at the endpoints plus a connecting
    meta-path, or None when the edge set is empty, its application is
    infeasible or not of neighbouring type, it has more than two odd walk
    ends, or no decomposition (an iterable of walk tuples) arranges.
    """
    if not edges:
        return None
    after = apply(matching, edges)
    if not is_neighbouring_type(instance, matching, after):
        return None
    profile = _end_profile(instance, matching, edges)
    if profile is None:
        return None
    odd = sorted(v for v, k in profile.items() if k % 2)
    if len(odd) > 2:
        return None
    if len(odd) == 2:
        anchors = [(odd[0], odd[1])]
    else:
        anchors = [(v, v) for v in sorted(profile)]
    for walks in decompositions:
        pairs = tuple(w.endpoints for w in walks)
        for v_first, v_last in anchors:
            partition = _shape_partition(pairs, v_first, v_last)
            if partition is not None:
                return _structure_from(walks, v_first, v_last, partition)
    return None


def canonical_structure(
    instance: BInstance, matching: Matching, edges: frozenset[int]
) -> CanonicalPath | None:
    """A canonical-path structure over the edge set, or None.

    None means the edge set is not a canonical path w.r.t. the matching:
    its application is infeasible or not of neighbouring type, or no
    decomposition into open alternating walks arranges as meta-cycles at the
    endpoints plus a connecting meta-path.
    """
    return _arrange(
        instance, matching, edges, _walk_decompositions(instance, matching, edges)
    )


def is_canonical(instance: BInstance, matching: Matching, edges: frozenset[int]) -> bool:
    """Whether the edge set admits a canonical-path structure whose
    application yields a B-matching of neighbouring type."""
    if not edges:
        return True
    return canonical_structure(instance, matching, edges) is not None


# -- canonical-sequence extraction ----------------------------------------------


def _pool_witness(instance, matching, walks) -> CanonicalPath | None:
    """Canonical-path structure whose constituents are exactly these walks.

    Unlike canonical_structure this never re-pairs edge ends; the walks are
    kept whole, which the sequence extraction relies on to keep the unused
    remainder of a maximal decomposition maximal.
    """
    walks = tuple(walks)
    edges = frozenset(e for w in walks for e in w.edges)
    return _arrange(instance, matching, edges, [walks])


def _meta_options(s: CanonicalPath) -> list[tuple[frozenset[int], ...]]:
    """Per-component edge-set choices for the meta-granularity subset search.

    Each component contributes the empty set (leave it out) and its full
    edge set; a cycle through both endpoints additionally contributes its
    two arcs between them, each a chain of whole walks.
    """
    empty: frozenset[int] = frozenset()
    options: list[tuple[frozenset[int], ...]] = []
    if s.meta_path is not None:
        options.append((empty, s.meta_path.edge_set))
    for c in s.cycles:
        choice = [empty, c.edge_set]
        if (
            s.v_first != s.v_last
            and s.v_first in c.junctions
            and s.v_last in c.junctions
        ):
            p, q = c.junctions.index(s.v_first), c.junctions.index(s.v_last)
            k = len(c.walks)
            arc = [c.walks[i % k] for i in range(p, q if p < q else q + k)]
            other = [w for w in c.walks if w not in arc]
            for part in (arc, other):
                choice.append(frozenset(e for w in part for e in w.edges))
        options.append(tuple(choice))
    return options


def _meta_subsets(s: CanonicalPath) -> list[frozenset[int]]:
    """Proper nonempty component-union subsets of the canonical path."""
    full = s.edge_set
    out: set[frozenset[int]] = set()
    for pick in product(*_meta_options(s)):
        edges = frozenset().union(*pick) if pick else frozenset()
        if edges and edges != full:
            out.add(edges)
    return sorted(out, key=lambda e: (len(e), tuple(sorted(e))))


def _pool_basic(instance, matching, witness: CanonicalPath) -> CanonicalPath:
    """Meta-granularity basic subset, rebuilt from whole constituent walks
    (every meta subset is a union of whole walks of the structure)."""

    def step(s: CanonicalPath) -> CanonicalPath | None:
        def build(edges):
            return _pool_witness(instance, matching, [w for w in s.walks if w.edge_set <= edges])

        return _best_subset(instance, matching, s, _meta_subsets(s), build)

    return _shrink(witness, step)


def extract_canonical_sequence(
    instance: BInstance, m: Matching, n: Matching
) -> tuple[list[AlternatingWalk], list[CanonicalPath]]:
    """Decompose M (+) N into peeled alternating cycles and a sequence of
    canonical paths, each canonical for the running matching.

    Follows the constructive argument: peel the cycles of a maximal
    decomposition, then repeatedly take the smallest union of whole pool
    walks that holds the walk with the smallest edge and arranges as a
    canonical path (`_next_component`).  Its meta-granularity basic subset
    is applied and the union's other walks return to the pool.  The search
    is exact, so a valid pair never makes it give up.
    """
    paths, cycles = decompose_symmetric_difference(instance, m, n)
    m_cur = m
    for c in cycles:
        m_cur = apply(m_cur, c.edge_set)
    # the checks here are raised, not asserted, so they hold under python -O
    if not is_b_matching(instance, m_cur):
        raise AssertionError("cycle peeling must preserve degrees")
    pool = list(paths)
    seq: list[CanonicalPath] = []
    while pool:
        union, emitted = _next_component(instance, m_cur, pool)
        seq.append(emitted)
        m_cur = apply(m_cur, emitted.edge_set)
        leftover = frozenset(e for w in union for e in w.edges) - emitted.edge_set
        back = [w for w in union if w.edge_set <= leftover]
        if frozenset(e for w in back for e in w.edges) != leftover:
            raise AssertionError("emitted component must split the union along whole walks")
        taken = set(union)
        pool = [w for w in pool if w not in taken] + back
    if m_cur.selected != n.selected:
        raise AssertionError("extraction must land on the target")
    return list(cycles), seq


def _next_component(instance, m_cur, pool):
    """The first union of whole pool walks holding the seed (the walk with
    the smallest edge) that arranges, with its basic subset.

    Unions are tried by fewest walks, then fewest edges, then sorted edge
    list.  The growth is pruned exactly: a union that puts some v outside
    B(v) grows only by walks that end at the smallest such v (a walk
    through v leaves its degree alone, so every canonical superset holds
    one); any other union grows by walks that share an endpoint with it (a
    canonical path is connected through its junctions).
    """
    g = instance.graph
    deg = degrees(g, m_cur)

    def key(union):
        edges = sorted(e for w in union for e in w.edges)
        return len(edges), edges

    by_end: dict[int, list] = {}  # the pool walks at each endpoint
    for w in pool:
        for v in set(w.endpoints):
            by_end.setdefault(v, []).append(w)
    seed = min(pool, key=lambda w: min(w.edges))
    level = {frozenset([seed])}
    while level:
        grown = set()
        for union in sorted(level, key=key):
            walks = sorted(union, key=lambda w: min(w.edges))
            shift = _shift(g, m_cur, (e for w in walks for e in w.edges))
            bad = [v for v, k in shift.items() if deg[v] + k not in instance.b(v)]
            if bad:
                ends = {min(bad)}
            else:
                witness = _pool_witness(instance, m_cur, walks)
                if witness is not None:
                    return walks, _pool_basic(instance, m_cur, witness)
                ends = {v for w in walks for v in w.endpoints}
            grown.update(
                union | {w} for v in ends for w in by_end.get(v, ()) if w not in union
            )
        level = grown
    # raised, not asserted, so that the check holds under python -O as well
    raise AssertionError("no union of pool walks holding the seed is canonical")


# -- basic-ness ------------------------------------------------------------------

GRANULARITIES = ("meta", "edges")

_EDGE_SEARCH_LIMIT = 12


def _subset_pool(instance, m: Matching, s: CanonicalPath, granularity: str):
    """Proper nonempty subsets of s to search at the granularity.

    At edge granularity a subset only counts when its degree shifts stay
    within the shifts of s itself; meta subsets are unions of whole walks
    of s and satisfy that by construction.
    """
    if granularity == "meta":
        return _meta_subsets(s)
    if granularity == "edges":
        full = sorted(s.edge_set)
        if len(full) > _EDGE_SEARCH_LIMIT:
            raise ValueError(
                f"edge-granularity subset search handles at most "
                f"{_EDGE_SEARCH_LIMIT} edges, got {len(full)}"
            )
        target = apply(m, s.edge_set)
        subsets = (frozenset(c) for r in range(1, len(full)) for c in combinations(full, r))
        return [e for e in subsets if shifts_within(instance, m, target, e)]
    raise ValueError(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")


def _best_subset(instance, m: Matching, s: CanonicalPath, subsets, build):
    """Structure of the best disqualifying subset of s, or None.

    A subset disqualifies s when its weight is >= w(s) or positive and
    build(subset) gives it a structure; the best has the largest key
    (weight, -size, sorted edges), so only a subset that would beat the
    best so far is built.
    """
    w_s = weight_of(instance, m, s.edge_set)
    best = None
    for edges in subsets:
        wt = weight_of(instance, m, edges)
        key = (wt, -len(edges), tuple(sorted(edges)))
        if (wt >= w_s or wt > 0) and (best is None or key > best[0]):
            rebuilt = build(edges)
            if rebuilt is not None:
                best = (key, rebuilt)
    return None if best is None else best[1]


def _shrink(s: CanonicalPath, step) -> CanonicalPath:
    """Replace s by step(s) until that is None; terminates because every
    replacement is a proper subset."""
    while (smaller := step(s)) is not None:
        s = smaller
    return s


def _disqualifier(instance, m: Matching, s: CanonicalPath, granularity: str):
    """Best proper nonempty canonical subset with weight >= w(S) or > 0."""

    def build(edges):
        return canonical_structure(instance, m, edges)

    return _best_subset(instance, m, s, _subset_pool(instance, m, s, granularity), build)


def is_basic(
    instance: BInstance, m: Matching, s: CanonicalPath, granularity: str = "meta"
) -> bool:
    """No proper nonempty canonical subset disqualifies s (weight >= w(s) or
    positive), at the requested search granularity."""
    return _disqualifier(instance, m, s, granularity) is None


def make_basic(
    instance: BInstance, m: Matching, s: CanonicalPath, granularity: str = "meta"
) -> CanonicalPath:
    """Shrink a canonical path to a basic one by repeatedly replacing it
    with its best disqualifying subset."""
    return _shrink(s, lambda s: _disqualifier(instance, m, s, granularity))


# -- classification of basic canonical paths -------------------------------------


@dataclass(frozen=True)
class ClassifyReport:
    """Endpoint parity labels and any violated structural rule."""

    v_first: int
    v_last: int
    odd_first: bool
    odd_last: bool
    sigma_first: int
    sigma_last: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def classify(instance: BInstance, m: Matching, s: CanonicalPath) -> ClassifyReport:
    """Check a basic canonical path against the endpoint-parity rules.

    Labels each endpoint odd or even (degree one step further in the shift
    direction allowed or not) and verifies the degree-set containments and
    cycle-sign rules that every basic canonical path must satisfy.  Raises
    NotBasic when a cheap necessary condition of basic-ness already fails;
    full basic-ness is the caller's responsibility.
    """
    edges = s.edge_set
    profile = _end_profile(instance, m, edges)
    assert profile is not None, "canonical paths decompose into open walks"
    w_s = weight_of(instance, m, edges)

    for c in s.cycles:
        ce = c.edge_set
        wc = weight_of(instance, m, ce)
        if ce != edges and wc > 0 and is_canonical(instance, m, ce):
            raise NotBasic(
                f"meta-cycle at {c.junctions[0]} alone is canonical with "
                f"positive weight {wc}"
            )
        rest = edges - ce
        if rest and is_canonical(instance, m, rest):
            wr = weight_of(instance, m, rest)
            if wr >= w_s or wr > 0:
                raise NotBasic(
                    f"dropping the meta-cycle at {c.junctions[0]} leaves a "
                    f"canonical path of weight {wr} (>= {w_s} or positive)"
                )

    deg_m = degrees(instance.graph, m)

    def sigma_of(v: int) -> int:
        return -1 if profile.get(v, 0) < 0 else 1

    def d_s(v: int) -> int:
        return abs(profile.get(v, 0))

    def contains(v: int, k: int) -> bool:
        return deg_m[v] + sigma_of(v) * k in instance.b(v)

    def is_odd(v: int) -> bool:
        return contains(v, 1)

    u, v = s.v_first, s.v_last
    violations: list[str] = []

    for x in sorted(profile):
        if x in (u, v):
            continue
        for k in range(0, d_s(x) + 1, 2):
            if not contains(x, k):
                violations.append(
                    f"non-endpoint {x}: relative degree {k} not allowed"
                )

    if u != v:
        for x in (u, v):
            d = d_s(x)
            if is_odd(x):
                need = [0] + list(range(1, d + 1, 2))
            else:
                need = list(range(0, d, 2)) + [d]
            for k in need:
                if not contains(x, k):
                    violations.append(
                        f"{'odd' if is_odd(x) else 'even'} endpoint {x}: "
                        f"relative degree {k} not allowed"
                    )
        for c in s.cycles:
            inc_u = u in c.junctions
            inc_v = v in c.junctions
            wc = weight_of(instance, m, c.edge_set)
            if inc_u and inc_v:
                if is_odd(u) == is_odd(v):
                    violations.append(
                        f"cycle through both endpoints but {u} and {v} have "
                        f"equal parity"
                    )
            else:
                anchor = u if inc_u else v
                if is_odd(anchor) and wc <= 0:
                    violations.append(
                        f"cycle only at odd endpoint {anchor} has weight {wc} <= 0"
                    )
                if not is_odd(anchor) and wc > 0:
                    violations.append(
                        f"cycle only at even endpoint {anchor} has weight {wc} > 0"
                    )
    else:
        d = d_s(u)
        single = len(s.cycles) == 1 and s.meta_path is None
        option_a = single and contains(u, 0) and contains(u, 2)
        need = [0] + list(range(1, d, 2)) + [d]
        option_b = all(contains(u, k) for k in need)
        if not (option_a or option_b):
            violations.append(
                f"coinciding endpoint {u}: neither the single-cycle rule nor "
                f"the full odd ladder holds"
            )

    return ClassifyReport(
        v_first=u,
        v_last=v,
        odd_first=is_odd(u),
        odd_last=is_odd(v),
        sigma_first=sigma_of(u),
        sigma_last=sigma_of(v),
        violations=tuple(violations),
    )
