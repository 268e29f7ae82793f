"""Gadget reductions: uniform degree specs to (a,b)-matching, and (a,b)-matching
to perfect matching on a loopless graph.

A uniform spec is a tuple with one range per vertex: a dense run
range(a, b + 1) or a parity run range(a, b + 1, 2).  The first stage keeps
the graph and reads each run into bounds a <= b and a step, 1 or 2.  It
reads a run by its step, never by equality: a one-element run is both, and
it gets step 1.

The second stage is a vertex gadget.  Every edge end becomes an external
node and each edge joins its two externals, carrying the original weight.
A vertex v of degree d contributes d - a internal nodes, a = a(v) and
b = b(v): unselected ends must be absorbed by internals, so at least a
ends stay on original edges.  The first b - a internals o0, o1, ... are
optional: they may instead leave the band, so the degree can rise to b.
Internal j (0-based) is joined only to the band of externals j - (b - a)
(or 0) through j + a, so the vertex costs at most (d - a)(b + 1) band
edges, not (d - a)d.  The optional internals are joined in pairs (o0, o1),
(o2, o3), ...; a dense vertex with b > a also has one pair of pool nodes,
and each even-indexed optional internal has a spoke to both of them.

Every degree k of the run fits.  The first k - a optional internals leave
the band, paired; when k - a is odd, which a parity run never allows,
the last of them, o(k - a - 1), has an even index and takes a pool node
instead.  The i-th free external p_i goes to the i-th staying internal
k - a + i, because i <= p_i <= k + i puts p_i - (k - a + i) in
[-(b - a), a].  No other degree fits: only optional internals have edges
off the band, and those that take no pool node are paired, so a parity
vertex, which has no pool nodes, keeps k - a even.

The pool takes those odd ones out.  It is a parity chain: its L = 2D + pad
nodes q0 - q1 - ... - q(L-1) lie on one weight-0 path, where D counts the
dense vertices with b > a and the t-th of them owns the pair
(q(2t), q(2t+1)).  pad = sum(a) mod 2 keeps the gadget's node count even.
Reading the pairs from left to right, at most one pool node is pending: a
pair that one spoke reaches flips that state, taking q(2t) when nothing is
pending and q(2t+1) when q(2t-1) is, and a pair that none reaches keeps
it.  The number of vertices with k - a odd has the parity of sum(k - a),
which is that of sum(a) because the degrees k sum to twice the matching
size; so the pool nodes those vertices leave pair up along the path.
Conversely, in any perfect matching the path
pairs the pool nodes that no spoke takes, so the spokes used have the
parity of pad.  The pool costs two spokes per even-indexed optional
internal and L - 1 path edges, linear in the degree.

Both stages list the source edges first, each at its own index, and the
second appends only edges it invents.  That order is the lift: a reduced
solution restricted to the indices below the source edge count is the
source solution.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from bmatch.core import Matching, MultiGraph, cached_property


class BadSpec(ValueError):
    """A uniform spec, or the degree bounds read from it, does not fit the
    graph or instance it was given for."""


UniformSpec = tuple[range, ...]


@dataclass(frozen=True)
class GadgetLayout:
    """Node ids of each role in the perfect-matching gadget."""

    externals_at: tuple[tuple[int, ...], ...]  # per source vertex
    internals_at: tuple[tuple[int, ...], ...]
    pool: tuple[int, ...]  # a pair per dense vertex with b > a, then the pad
    node_count: int


@dataclass(frozen=True)
class ABInstance:
    """Multigraph with per-vertex degree bounds a(v) <= d_F(v) <= b(v);
    where step(v) is 2, d_F(v) must also have the parity of a(v).  Raises
    BadSpec unless there is one bound pair and step per vertex, 0 <= a <= b,
    the step is 1 or 2 and divides b - a, and b is at most the degree."""

    graph: MultiGraph
    a: tuple[int, ...]
    b: tuple[int, ...]
    step: tuple[int, ...]

    def __post_init__(self) -> None:
        g = self.graph
        n = g.vertex_count
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "step", tuple(self.step))
        if len(self.a) != n or len(self.b) != n or len(self.step) != n:
            raise BadSpec("need one (a, b) pair and one step per vertex")
        for v in range(n):
            a, b, step = self.a[v], self.b[v], self.step[v]
            if not 0 <= a <= b or step not in (1, 2) or (b - a) % step:
                raise BadSpec(f"bad bounds a={a}, b={b}, step={step} at vertex {v}")
            if b > g.degree(v):
                raise BadSpec(
                    f"upper bound {b} exceeds degree {g.degree(v)} at vertex {v}"
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
        for v in range(n):
            count = g.degree(v) - self.a[v]
            internals[v] = list(range(next_id, next_id + count))
            next_id += count
        dense = sum(s == 1 and a < b for s, a, b in zip(self.step, self.a, self.b))
        pool_size = 2 * dense + sum(self.a) % 2
        pool = range(next_id, next_id + pool_size)
        return GadgetLayout(
            externals_at=tuple(tuple(x) for x in externals),
            internals_at=tuple(tuple(x) for x in internals),
            pool=tuple(pool),
            node_count=next_id + pool_size,
        )


def _band(j: int, a: int, b: int) -> range:
    """The externals, by position at their vertex, that internal j of a
    vertex with bounds (a, b) is joined to.  A vertex of degree d has d - a
    internals, so the band ends at j + a <= d - 1."""
    return range(max(0, j - (b - a)), j + a + 1)


def lift(source_edges: int, solution: Iterable[int]) -> Matching:
    """Restrict a reduced solution, given by its edge indices, to the edges
    that carry source edges: the first `source_edges` reduced edges, index
    for index.  Both reductions keep that prefix, so one lift undoes both.
    """
    return Matching(frozenset(e for e in solution if e < source_edges))


def uniform_to_ab(g: MultiGraph, spec: UniformSpec) -> ABInstance:
    """Read each run as bounds and a step on the same graph.  Raises BadSpec
    on an empty run, and ABInstance raises it for a spec of the wrong size
    or a run outside [0, d(v)] or with a step other than 1 or 2."""
    for v, s in enumerate(spec):
        if not s:
            raise BadSpec(f"run {s} at vertex {v} is empty")
    return ABInstance(
        g,
        tuple(s[0] for s in spec),
        tuple(s[-1] for s in spec),
        tuple(s.step if len(s) > 1 else 1 for s in spec),
    )


def ab_to_pm(ab: ABInstance) -> tuple[MultiGraph, int]:
    """Vertex gadget from (a,b)-matching to maximum-weight perfect matching.

    Reduced edge order: one edge per source edge first (same index, carrying
    the weight), then the vertex gadgets in vertex order.  A vertex lists
    its band edges (internal-major, internal j joined to its externals
    max(0, j - (b - a)) through j + a in order), then its pair edges
    (o0, o1), (o2, o3), ..., then, for a dense vertex with b > a, the
    spokes of o0, o2, ... to its two pool nodes, in that order.  Last comes
    the pool path, whose edge i joins pool nodes i and i+1.  The reduced
    graph is simple, so it has no loop for the blossom to reject; a source
    loop contributes two distinct external nodes at its vertex.
    Node ids follow `ab.layout`.
    """
    layout = ab.layout
    g = ab.graph
    pool = layout.pool
    pairs = zip(pool[::2], pool[1::2])
    edges = [(2 * e, 2 * e + 1, w) for e, (_u, _v, w) in enumerate(g.edges)]
    for v in range(g.vertex_count):
        a, b = ab.a[v], ab.b[v]
        externals = layout.externals_at[v]
        internals = layout.internals_at[v]
        for j, i in enumerate(internals):
            edges.extend((i, externals[p], 0) for p in _band(j, a, b))
        optional = internals[: b - a]
        edges.extend((x, y, 0) for x, y in zip(optional[::2], optional[1::2]))
        if ab.step[v] == 1 and a < b:
            ends = next(pairs)
            edges.extend((x, q, 0) for x in optional[::2] for q in ends)
    edges.extend((p, q, 0) for p, q in zip(pool, pool[1:]))
    graph = MultiGraph(layout.node_count, tuple(edges))
    return graph, g.edge_count
