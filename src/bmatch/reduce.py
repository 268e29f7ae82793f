"""Gadget reductions: uniform degree specs to (a,b)-matching, and (a,b)-matching
to perfect matching on a loopless graph.

A uniform spec is a tuple with one range per vertex: a dense run
range(a, b + 1) or a parity run range(lo, hi + 1, 2).  The reduction reads
a run by its step, never by equality: a one-element run is both.  The
first stage turns a parity run into plain bounds by attaching (hi-lo)/2
weight-0 loops at the vertex and pinning its degree to hi; selecting k
loops lowers the effective original degree by 2k, which walks the parity
class.

The second stage is a vertex gadget.  Every edge end becomes an external
node and each edge joins its two externals, carrying the original weight.
A vertex v of degree d contributes d - a(v) internal nodes joined to all of
its externals: unselected ends must be absorbed by internals, so at least
a(v) ends stay on original edges.  b(v) - a(v) of the internals may instead
escape into a global pool, letting the degree rise up to b(v).  The pool
absorbs global slack.  It is a parity chain: with C pool-connected
internals, its L = 2C + pad nodes q0 - q1 - ... - q(L-1) lie on one weight-0
path, and pool-connected internal t has two spokes, to q(2t) and q(2t+1).
pad = (C + sum(b)) mod 2 keeps the gadget's node count even.  Reading the
pairs (q(2t), q(2t+1)) from left to right, at most one pool node is
pending: an escapee flips that state, taking q(2t) when nothing is pending
and q(2t+1) when q(2t-1) is, and a non-escapee keeps it.  So the pool nodes
left over pair up along the path exactly when the number of escapees has
the parity of pad, the escape counts a perfect matching of the gadget can
have at all.  The chain has 2C spokes and L - 1 path edges, linear in C.

Both stages list the source edges first, each at its own index, and append
only edges they invent.  That order is the lift: a reduced solution
restricted to the indices below the source edge count is the source
solution.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from bmatch.core import Matching, MultiGraph


class BadSpec(ValueError):
    """A uniform spec does not fit the graph or instance it was given for."""


class BoundsError(ValueError):
    """An (a,b) bound exceeds what the vertex degree can support."""


UniformSpec = tuple[range, ...]


@dataclass(frozen=True)
class GadgetLayout:
    """Node ids of each role in the perfect-matching gadget."""

    externals_at: tuple[tuple[int, ...], ...]  # per source vertex
    internals_at: tuple[tuple[int, ...], ...]
    pool_connected: tuple[int, ...]
    pool: tuple[int, ...]
    node_count: int


@dataclass(frozen=True)
class ABInstance:
    """Multigraph with per-vertex degree bounds a(v) <= d_F(v) <= b(v)."""

    graph: MultiGraph
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        g = self.graph
        n = g.vertex_count
        if len(self.a) != n or len(self.b) != n:
            raise ValueError("need one (a, b) pair per vertex")
        for v in range(n):
            if not 0 <= self.a[v] <= self.b[v]:
                raise ValueError(f"bad bounds a={self.a[v]}, b={self.b[v]} at vertex {v}")
            if self.b[v] > g.degree(v):
                raise BoundsError(
                    f"upper bound {self.b[v]} exceeds degree {g.degree(v)} at vertex {v}"
                )

    @cached_property
    def layout(self) -> GadgetLayout:
        """Node ids of ab_to_pm's gadget, built once per instance."""
        g = self.graph
        n = g.vertex_count
        # Externals: ids 2e and 2e+1 for edge e; grouped per vertex for the gadget.
        externals: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v, _w) in enumerate(g.edges):
            externals[u].append(2 * e)
            externals[v].append(2 * e + 1)
        next_id = 2 * g.edge_count
        internals: list[list[int]] = [[] for _ in range(n)]
        pool_connected: list[int] = []
        for v in range(n):
            count = g.degree(v) - self.a[v]
            internals[v] = list(range(next_id, next_id + count))
            next_id += count
            pool_connected.extend(internals[v][: self.b[v] - self.a[v]])
        connected = len(pool_connected)
        pool_size = 2 * connected + (connected + sum(self.b)) % 2
        pool = list(range(next_id, next_id + pool_size))
        next_id += pool_size
        return GadgetLayout(
            externals_at=tuple(tuple(x) for x in externals),
            internals_at=tuple(tuple(x) for x in internals),
            pool_connected=tuple(pool_connected),
            pool=tuple(pool),
            node_count=next_id,
        )


def lift(source_edges: int, solution: Iterable[int]) -> Matching:
    """Restrict a reduced solution, given by its edge indices, to the edges
    that carry source edges: the first `source_edges` reduced edges, index
    for index.  Both reductions keep that prefix, so one lift undoes both.
    """
    return Matching(frozenset(e for e in solution if e < source_edges))


def uniform_to_ab(g: MultiGraph, spec: UniformSpec) -> ABInstance:
    """Loop construction: parity runs become degree-pinned vertices with
    weight-0 loops; dense runs turn into bounds directly.  Raises BadSpec
    unless each run is nonempty, has step 1 or 2 and lies in [0, d(v)]."""
    n = g.vertex_count
    if len(spec) != n:
        raise BadSpec("spec size does not match the graph")
    a = [0] * n
    b = [0] * n
    loops: list[tuple[int, int, int]] = []
    for v in range(n):
        s = spec[v]
        if not s or s.step not in (1, 2) or s[0] < 0 or s[-1] > g.degree(v):
            raise BadSpec(f"run {s} does not fit vertex {v} of degree {g.degree(v)}")
        if s.step == 1:
            a[v], b[v] = s[0], s[-1]
        else:
            loops.extend((v, v, 0) for _ in range(len(s) - 1))
            a[v] = b[v] = s[-1]
    reduced = MultiGraph(n, g.edges + tuple(loops))
    return ABInstance(reduced, tuple(a), tuple(b))


def ab_to_pm(ab: ABInstance) -> tuple[MultiGraph, int]:
    """Vertex gadget from (a,b)-matching to maximum-weight perfect matching.

    Reduced edge order: one edge per source edge first (same index, carrying
    the weight), then the vertex gadgets in vertex order (internal-major),
    then the pool spokes, two per pool-connected internal t (to pool nodes
    2t and 2t+1, in that order), then the pool path, whose edge i joins
    pool nodes i and i+1.  The reduced graph is simple, so it has no loop
    for the blossom to reject; a source loop contributes two distinct
    external nodes at its vertex.
    Node ids follow `ab.layout`.
    """
    layout = ab.layout
    g = ab.graph
    edges = [(2 * e, 2 * e + 1, w) for e, (_u, _v, w) in enumerate(g.edges)]
    for v in range(g.vertex_count):
        for i in layout.internals_at[v]:
            for x in layout.externals_at[v]:
                edges.append((i, x, 0))
    pool = layout.pool
    for t, i in enumerate(layout.pool_connected):
        edges.append((i, pool[2 * t], 0))
        edges.append((i, pool[2 * t + 1], 0))
    edges.extend((p, q, 0) for p, q in zip(pool, pool[1:]))
    graph = MultiGraph(layout.node_count, tuple(edges))
    return graph, g.edge_count


def embed_ab_matching(ab: ABInstance, matching: Matching) -> frozenset[int]:
    """Map an edge subset of the (a,b)-instance onto a matching of
    ab_to_pm's graph, leaving exposed only the nodes where it misses the
    bounds.

    A vertex below a(v) first takes unselected loops while its degree d
    stays within b(v).  Then a(v) - d externals stay exposed at a vertex
    below its bounds, d - b(v) internals at one above them, and one pool
    node if the number of escapees misses the parity of the pool's pad.
    Escapees take their pool nodes by the chain's left-to-right state walk,
    and the pool nodes left over pair along the path, the last one staying
    exposed if they are odd in number.  So a feasible
    (a,b)-matching maps onto a perfect matching whose lift is `matching`,
    and any other subset onto a start for the perfect-matching solver's
    existence search.  Edge indices follow ab_to_pm's order.
    """
    layout = ab.layout
    g = ab.graph
    n = g.vertex_count
    selected = set(matching.selected)
    deg = [0] * n
    for e in selected:
        u, v, _w = g.edges[e]
        deg[u] += 1
        deg[v] += 1
    for e, (u, v, _w) in enumerate(g.edges):
        if u == v and e not in selected and deg[v] < min(ab.a[v], ab.b[v] - 1):
            selected.add(e)
            deg[v] += 2
    out = sorted(selected)  # source edge e is reduced edge e
    block = g.edge_count  # first edge of vertex v's gadget
    connected = 0  # position of v's first internal in layout.pool_connected
    escapes: list[int] = []  # pool_connected positions that escape, in order
    for v in range(n):
        externals = layout.externals_at[v]
        free = [j for j, x in enumerate(externals) if x >> 1 not in selected]
        # The first deg - a(v) internals, all pool-connected, escape to the
        # pool; the others absorb the free externals in order.
        up = min(max(deg[v] - ab.a[v], 0), ab.b[v] - ab.a[v])
        escapes.extend(range(connected, connected + up))
        staying = range(up, len(layout.internals_at[v]))
        out.extend(block + i * len(externals) + j for i, j in zip(staying, free))
        block += len(layout.internals_at[v]) * len(externals)
        connected += ab.b[v] - ab.a[v]
    # Escapee t takes pool node 2t while no pool node is pending and 2t+1
    # while one is, and flips that state; the nodes left over pair up in
    # order, each pair adjacent on the path, whose edge (i, i+1) has index
    # path + i.
    taken = set()
    pending = 0
    for t in escapes:
        out.append(block + 2 * t + pending)
        taken.add(2 * t + pending)
        pending ^= 1
    path = block + 2 * connected
    left = [i for i in range(len(layout.pool)) if i not in taken]
    out.extend(path + i for i in left[:-1:2])
    return frozenset(out)
