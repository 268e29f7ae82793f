"""Exact maximum-weight perfect matching on simple weighted graphs.

A solve has two steps.  First Edmonds' cardinality search decides whether a
perfect matching exists: it completes a given start matching (extended
greedily in edge order) by one alternating-tree search per exposed vertex.
A tree that gets stuck yields a Tutte barrier, its odd vertices X, and the
solver returns None only after `_check_barrier` has counted more than |X|
odd components in G - X.  A start that is close to perfect, such as the
embedding of the current matching of a type walk, leaves few roots.

Only graphs that have a perfect matching reach the second step, the
primal-dual blossom algorithm specialised to perfect matchings: vertex
duals are unconstrained in sign, so there is no "dual hits zero" stopping
rule and every stage ends in an augmentation.  A dual update without bound
would mean no perfect matching exists, which the first step has ruled out,
so it raises as an internal-consistency error.

All arithmetic is exact.  Vertex duals are stored doubled (P[v] = 2*y_v) so
that every dual update is integral for integer edge weights; the only halved
quantity is the slack of an edge between two S-blossoms, which is always even
(all duals start from one shared value and stay parity-synchronised through
tight edges).  Both facts are asserted at runtime.  Every perfect matching
returned has passed `_check_optimum`, a complementary-slackness check on the
final duals that raises instead of asserting, so it also runs under -O; the
barrier check raises the same way.

The implementation favours simple invariants over asymptotic records: dual
updates rescan all edges, and expanding a blossom mid-stage rebuilds the
alternating forest from scratch instead of surgically relabelling.  Solves
are deterministic for a fixed input edge order; scans and minimum searches
run in edge-index order, so ties fall to the smallest edge index.  The
weighted step starts cold, whatever the start matching, so its answer
depends on the graph alone.  Nested blossoms are expanded and rematched on
an explicit stack, not by recursion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional


@dataclass(frozen=True)
class SimpleWeightedGraph:
    """Simple undirected graph with integer weights; no loops, no parallel edges."""

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        seen: set[tuple[int, int]] = set()
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) endpoint out of range")
            if not isinstance(w, int):
                raise ValueError(f"edge weight {w!r} must be an integer")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"parallel edge between {u} and {v}")
            seen.add(key)


@dataclass(frozen=True)
class PerfectMatching:
    """A perfect matching as a set of edge indices plus its total weight."""

    selected: frozenset[int]
    weight: int


def max_weight_perfect_matching(
    graph: SimpleWeightedGraph, start: Iterable[int] = ()
) -> Optional[PerfectMatching]:
    """Return a maximum-weight perfect matching, or None if none exists.

    `start` is a matching of `graph` given by edge indices; the existence
    search grows it into a perfect matching, so a start close to perfect
    makes a "no" cheap.  The optimum found does not depend on `start`.
    """
    n = graph.vertex_count
    edges = graph.edges
    # Endpoint encoding: edge k owns endpoints 2k (at u) and 2k+1 (at v).
    # neighbend[v] lists the remote endpoints of edges at v, in edge order.
    endpoint = [0] * (2 * len(edges))
    neighbend: list[list[int]] = [[] for _ in range(n)]
    for k, (u, v, _w) in enumerate(edges):
        endpoint[2 * k] = u
        endpoint[2 * k + 1] = v
        neighbend[u].append(2 * k + 1)
        neighbend[v].append(2 * k)
    partner = [-1] * n
    for k in start:
        u, v, _w = edges[k]
        if partner[u] != -1 or partner[v] != -1:
            raise ValueError(f"start edge {k} shares an end with another start edge")
        partner[u], partner[v] = v, u
    for u, v, _w in edges:
        if partner[u] == -1 and partner[v] == -1:
            partner[u], partner[v] = v, u
    barrier = _complete_or_barrier(endpoint, neighbend, partner)
    if barrier is not None:
        _check_barrier(graph, barrier)
        return None
    mate = _solve(graph, endpoint, neighbend)
    selected = frozenset(p // 2 for p in mate)
    weight = sum(edges[e][2] for e in selected)
    return PerfectMatching(selected, weight)


def _complete_or_barrier(
    endpoint: list[int], neighbend: list[list[int]], partner: list[int]
) -> Optional[list[int]]:
    """Grow `partner` (matched vertex per vertex, or -1) into a perfect
    matching by Edmonds' augmenting-path search, one alternating tree per
    exposed vertex.  Return None once every vertex is matched, or else the
    odd vertices of the first tree that gets stuck: a Tutte barrier.

    Within a tree, base[x] is the base of x's shrunken blossom and even[x]
    marks the even vertices.  parent[x] is the vertex an odd x was reached
    from; shrinking a cycle also sets it at the cycle's even vertices, to
    their cycle neighbour other than their partner, so that a path can be
    traced through the blossom by alternating parent and partner steps.
    Arrays are reset only at the vertices a tree touched.
    """
    n = len(neighbend)
    parent = [-1] * n
    base = list(range(n))
    even = [False] * n

    def common_base(v: int, w: int) -> int:
        path = set()
        while True:
            v = base[v]
            path.add(v)
            if partner[v] == -1:
                break  # the root
            v = parent[partner[v]]
        while base[w] not in path:
            w = parent[partner[base[w]]]
        return base[w]

    def link_path(v: int, b: int, child: int, shrunk: set[int]) -> None:
        while base[v] != b:
            shrunk.add(base[v])
            shrunk.add(base[partner[v]])
            parent[v] = child
            child = partner[v]
            v = parent[child]

    for root in range(n):
        if partner[root] != -1:
            continue
        even[root] = True
        tree = [root]
        queue = deque(tree)
        end = -1
        while queue and end == -1:
            v = queue.popleft()
            for p in neighbend[v]:
                w = endpoint[p]
                if base[v] == base[w] or partner[v] == w:
                    continue
                if w == root or (partner[w] != -1 and parent[partner[w]] != -1):
                    # Even-even edge: shrink the cycle through it.
                    b = common_base(v, w)
                    shrunk: set[int] = set()
                    link_path(v, b, w, shrunk)
                    link_path(w, b, v, shrunk)
                    for x in tree:
                        if base[x] in shrunk:
                            base[x] = b
                            if not even[x]:
                                even[x] = True
                                queue.append(x)
                elif parent[w] == -1:
                    parent[w] = v
                    tree.append(w)
                    if partner[w] == -1:
                        end = w
                        break
                    x = partner[w]
                    even[x] = True
                    tree.append(x)
                    queue.append(x)
        if end == -1:
            return [x for x in tree if not even[x]]
        while end != -1:
            v = parent[end]
            nxt = partner[v]
            partner[end], partner[v] = v, end
            end = nxt
        for x in tree:
            parent[x], base[x], even[x] = -1, x, False
    return None


def _check_barrier(graph: SimpleWeightedGraph, barrier: Iterable[int]) -> None:
    """Raise AssertionError unless deleting the vertex set `barrier` leaves
    more odd components than it has vertices, which by Tutte's theorem
    proves that `graph` has no perfect matching.  Costs O(n + m)."""
    n = graph.vertex_count
    removed = [False] * n
    for x in barrier:
        removed[x] = True
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v, _w in graph.edges:
        if not (removed[u] or removed[v]):
            root[find(u)] = find(v)
    size = [0] * n
    for v in range(n):
        if not removed[v]:
            size[find(v)] += 1
    odd = sum(s % 2 for s in size)
    if odd <= sum(removed):
        raise AssertionError(
            f"barrier of {sum(removed)} vertices leaves only {odd} odd components"
        )


def _solve(
    graph: SimpleWeightedGraph, endpoint: list[int], neighbend: list[list[int]]
) -> list[int]:
    """Maximum-weight perfect matching of a graph that has one, as the
    matched remote endpoint of every vertex."""
    n = graph.vertex_count
    m = len(graph.edges)
    edges = graph.edges

    # P[v] = 2 * vertex dual; all equal at the start so that parities stay
    # synchronised (makes every S-S slack even).
    max_w = max((w for _u, _v, w in edges), default=0)
    dual = [max_w] * n + [0] * n  # slots n..2n-1 hold blossom duals Z
    # slack(k) = P[u] + P[v] - 2*w(k); tight edges have slack 0.

    mate = [-1] * n  # matched remote endpoint per vertex, or -1

    # Greedy start: match tight edges while both ends are free (edge order).
    for k, (u, v, w) in enumerate(edges):
        if mate[u] == -1 and mate[v] == -1 and dual[u] + dual[v] - 2 * w == 0:
            mate[u] = 2 * k + 1
            mate[v] = 2 * k

    # Blossom bookkeeping, ids n..2n-1.
    label = [0] * (2 * n)  # 0 free, 1 S, 2 T (plus 5 as a scan breadcrumb)
    labelend = [-1] * (2 * n)  # endpoint through which the label arrived
    inblossom = list(range(n))  # top-level blossom of each vertex
    blossomparent = [-1] * (2 * n)
    blossomchilds: list[Optional[list[int]]] = [None] * (2 * n)
    blossombase = list(range(n)) + [-1] * n
    blossomendps: list[Optional[list[int]]] = [None] * (2 * n)
    unusedblossoms = list(range(2 * n - 1, n - 1, -1))  # pop() gives n first
    allowedge = [False] * m
    queue: deque[int] = deque()

    def blossom_leaves(b: int) -> list[int]:
        if b < n:
            return [b]
        out: list[int] = []
        stack = [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(blossomchilds[t])  # type: ignore[arg-type]
        return out

    def assign_label(w: int, t: int, p: int) -> None:
        """Label w's blossom t via endpoint p; a T label passes S to its base's mate."""
        while True:
            b = inblossom[w]
            assert label[w] == 0 and label[b] == 0
            label[w] = label[b] = t
            labelend[w] = labelend[b] = p
            if t == 1:
                queue.extend(blossom_leaves(b))
                return
            base = blossombase[b]
            assert mate[base] >= 0
            w, t, p = endpoint[mate[base]], 1, mate[base] ^ 1

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from both ends of a tight S-S edge; return the common
        ancestor base vertex, or -1 if the trails reach different roots."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            assert labelend[b] == mate[blossombase[b]]
            if labelend[b] == -1:
                v = -1  # reached a root
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                assert label[b] == 2
                assert labelend[b] >= 0
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, k: int) -> None:
        """Shrink the circuit through the tight S-S edge k and base into a
        fresh S-blossom."""
        v, w, _wt = edges[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path = []
        endps = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labelend[bv] == mate[blossombase[bv]]
            )
            assert labelend[bv] >= 0
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            assert label[bw] == 2 or (
                label[bw] == 1 and labelend[bw] == mate[blossombase[bw]]
            )
            assert labelend[bw] >= 0
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        blossomchilds[b] = path
        blossomendps[b] = endps
        assert label[bb] == 1
        label[b] = 1
        labelend[b] = labelend[bb]
        dual[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                # Former T-vertex turned S; it still has to be scanned.
                queue.append(leaf)
            inblossom[leaf] = b

    def expand_blossom(b: int, endstage: bool) -> Iterator[tuple[int, bool]]:
        """Dissolve blossom b (its dual is zero).  Mid-stage the caller
        rebuilds the whole forest afterwards, so no relabelling here."""
        for s in blossomchilds[b]:  # type: ignore[union-attr]
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dual[s] == 0:
                yield s, endstage
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        label[b] = 0
        labelend[b] = -1
        blossomchilds[b] = None
        blossomendps[b] = None
        blossombase[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> Iterator[tuple[int, int]]:
        """Rematch the interior of blossom b so that vertex v becomes the base."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            yield t, v
        i = j = blossomchilds[b].index(t)  # type: ignore[union-attr]
        childs = blossomchilds[b]
        endps = blossomendps[b]
        length = len(childs)  # type: ignore[arg-type]
        if i & 1:
            j -= length
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = childs[j]  # type: ignore[index]
            p = endps[j] if jstep == 1 else endps[j - 1] ^ 1  # type: ignore[index]
            if t >= n:
                yield t, endpoint[p]
            j += jstep
            t = childs[j]  # type: ignore[index]
            if t >= n:
                yield t, endpoint[p ^ 1]
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = childs[i:] + childs[:i]  # type: ignore[index]
        blossomendps[b] = endps[i:] + endps[:i]  # type: ignore[index]
        blossombase[b] = blossombase[blossomchilds[b][0]]  # type: ignore[index]
        assert blossombase[b] == v

    def nested(frames: Callable[..., Iterator[tuple]], *args: object) -> None:
        """Run expand/augment_blossom, and the nested calls it yields, on a stack."""
        stack = [frames(*args)]
        while stack:
            for inner in stack[-1]:
                stack.append(frames(*inner))
                break
            else:
                stack.pop()

    def augment_matching(k: int) -> None:
        """Flip the matching along the augmenting path through tight edge k."""
        v, w, _wt = edges[k]
        for s, p in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert labelend[bs] == mate[blossombase[bs]]
                if bs >= n:
                    nested(augment_blossom, bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # root of the tree
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                assert label[bt] == 2
                assert labelend[bt] >= 0
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                assert blossombase[bt] == t
                if bt >= n:
                    nested(augment_blossom, bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    def start_forest() -> None:
        for i in range(2 * n):
            label[i] = 0
            labelend[i] = -1
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

    while True:
        if all(x >= 0 for x in mate):
            break  # perfect; optimal by the dual stopping rule below

        for k in range(m):
            allowedge[k] = False
        start_forest()

        augmented = False
        while True:
            # Scan: grow trees, shrink blossoms, stop on an augmenting path.
            while queue and not augmented:
                v = queue.popleft()
                if label[inblossom[v]] != 1:
                    continue  # stale entry
                for p in neighbend[v]:
                    k = p // 2
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue
                    if not allowedge[k]:
                        eu, ev, ew = edges[k]
                        if dual[eu] + dual[ev] - 2 * ew == 0:
                            allowedge[k] = True
                    if allowedge[k]:
                        bw = inblossom[w]
                        if label[bw] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[bw] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            # Vertex inside a T-blossom, seen from outside.
                            assert label[bw] == 2
                            label[w] = 2
                            labelend[w] = p ^ 1
            if augmented:
                break

            # Dual update: minimum over the three delta kinds.
            delta = -1
            delta_type = 0
            delta_extra = -1
            for k in range(m):
                u, v, wt = edges[k]
                bu = inblossom[u]
                bv = inblossom[v]
                if bu == bv:
                    continue
                lu = label[bu]
                lv = label[bv]
                if lu == 1 and lv == 1:
                    sl = dual[u] + dual[v] - 2 * wt
                    assert sl % 2 == 0, "S-S slack lost parity"
                    d = sl // 2
                    if delta == -1 or d < delta:
                        delta, delta_type, delta_extra = d, 3, k
                elif (lu == 1 and lv == 0) or (lu == 0 and lv == 1):
                    d = dual[u] + dual[v] - 2 * wt
                    if delta == -1 or d < delta:
                        delta, delta_type, delta_extra = d, 2, k
            for b in range(n, 2 * n):
                if blossomparent[b] == -1 and blossomchilds[b] is not None:
                    if label[b] == 2:
                        d = dual[b]
                        if delta == -1 or d < delta:
                            delta, delta_type, delta_extra = d, 4, b
            if delta_type == 0:
                raise AssertionError(
                    "dual update is unbounded although a perfect matching exists"
                )
            # A zero delta only happens for a zero-dual blossom that got
            # relabelled T after a forest rebuild; expanding it is progress.
            assert delta > 0 or delta_type == 4, "scan left a tight edge unprocessed"

            for v in range(n):
                lb = label[inblossom[v]]
                if lb == 1:
                    dual[v] -= delta
                elif lb == 2:
                    dual[v] += delta
            for b in range(n, 2 * n):
                if blossomparent[b] == -1 and blossomchilds[b] is not None:
                    if label[b] == 1:
                        dual[b] += delta
                    elif label[b] == 2:
                        dual[b] -= delta

            if delta_type == 4:
                # A T-blossom dual hit zero: dissolve it and rebuild the
                # forest; labels are derived state, so this is safe.
                nested(expand_blossom, delta_extra, False)
                start_forest()
            else:
                # A new tight edge appeared; resume scanning from every
                # S-leaf so it gets picked up wherever it is.
                for v in range(n):
                    if label[inblossom[v]] == 1:
                        queue.append(v)

        # Stage end: discard exhausted S-blossoms, keep paid-for ones.
        for b in range(n, 2 * n):
            if (
                blossomchilds[b] is not None
                and blossomparent[b] == -1
                and label[b] == 1
                and dual[b] == 0
            ):
                nested(expand_blossom, b, True)

    _check_optimum(graph, mate, dual, blossomparent)
    return mate


def _check_optimum(
    graph: SimpleWeightedGraph, mate: list[int], dual: list[int], parent: list[int]
) -> None:
    """Raise AssertionError unless the duals prove `mate` (remote endpoint per
    vertex) a maximum-weight perfect matching, by complementary slackness.

    Blossom b >= n, with dual z = dual[b], holds the vertices whose `parent`
    chain passes through it.  Every blossom is odd with z >= 0; every edge
    has P[u] + P[v] + 2 * (z of the blossoms holding both ends) - 2w >= 0,
    with equality when matched; every blossom with z > 0 is full.  Those
    blossoms are the common prefix of the ends' top-down chains, so the
    check costs O(m * blossom depth).
    """
    n = graph.vertex_count
    edges = graph.edges
    for v, p in enumerate(mate):
        if not (
            0 <= p < 2 * len(edges)
            and edges[p >> 1][1 - (p & 1)] == v
            and mate[edges[p >> 1][p & 1]] == p ^ 1
        ):
            raise AssertionError(f"vertex {v} has inconsistent mate {p}")
    size = [0] * (2 * n)
    chains: list[list[int]] = []
    for v in range(n):
        chain = []
        b = parent[v]
        while b != -1:
            chain.append(b)
            size[b] += 1
            b = parent[b]
        chains.append(chain[::-1])
    inside = [0] * (2 * n)
    for k, (u, v, w) in enumerate(edges):
        sl = dual[u] + dual[v] - 2 * w
        common = 0
        for a, b in zip(chains[u], chains[v]):
            if a != b:
                break
            sl += 2 * dual[a]
            common += 1
        if sl < 0:
            raise AssertionError(f"edge {k} has negative slack {sl}")
        if mate[u] == 2 * k + 1:
            if sl != 0:
                raise AssertionError(f"matched edge {k} is not tight (slack {sl})")
            for b in chains[u][:common]:
                inside[b] += 1
    for b in range(n, 2 * n):
        if not size[b]:
            continue
        if dual[b] < 0 or size[b] % 2 == 0:
            raise AssertionError(f"blossom {b} has dual {dual[b]} and size {size[b]}")
        if dual[b] > 0 and 2 * inside[b] != size[b] - 1:
            raise AssertionError(f"blossom {b} has a positive dual but is not full")
