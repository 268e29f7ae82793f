"""Exact maximum-weight perfect matching on simple weighted graphs.

Primal-dual blossom algorithm specialised to perfect matchings: vertex duals
are unconstrained in sign, so there is no "dual hits zero" stopping rule;
either every vertex gets matched or some dual update is unbounded, which
proves that no perfect matching exists.

All arithmetic is exact.  Vertex duals are stored doubled (P[v] = 2*y_v) so
that every dual update is integral for integer edge weights; the only halved
quantity is the slack of an edge between two S-blossoms, which is always even
(all duals start from one shared value and stay parity-synchronised through
tight edges).  Both facts are asserted at runtime.

The implementation favours simple invariants over asymptotic records: dual
updates rescan all edges, and expanding a blossom mid-stage rebuilds the
alternating forest from scratch instead of surgically relabelling.  Solves
are deterministic for a fixed input edge order; scans and minimum searches
run in edge-index order, so ties fall to the smallest edge index.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Optional


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


# Dual verification is cheap on small graphs and priceless while debugging.
# The duals are checked when the graph has at most this many vertices; None
# checks every graph.
VERIFY_LIMIT = 200


def max_weight_perfect_matching(
    graph: SimpleWeightedGraph,
) -> Optional[PerfectMatching]:
    """Return a maximum-weight perfect matching, or None if none exists."""
    n = graph.vertex_count
    if n == 0:
        return PerfectMatching(frozenset(), 0)
    if n % 2 == 1:
        return None
    mate = _solve(graph)
    if mate is None:
        return None
    selected = frozenset(p // 2 for p in mate)
    weight = sum(graph.edges[e][2] for e in selected)
    return PerfectMatching(selected, weight)


def _solve(graph: SimpleWeightedGraph) -> Optional[list[int]]:
    n = graph.vertex_count
    m = len(graph.edges)
    edges = graph.edges

    # Endpoint encoding: edge k owns endpoints 2k (at u) and 2k+1 (at v).
    endpoint = [0] * (2 * m)
    for k, (u, v, _w) in enumerate(edges):
        endpoint[2 * k] = u
        endpoint[2 * k + 1] = v
    # neighbend[v] lists the remote endpoints of edges at v, in edge order.
    neighbend: list[list[int]] = [[] for _ in range(n)]
    for k, (u, v, _w) in enumerate(edges):
        neighbend[u].append(2 * k + 1)
        neighbend[v].append(2 * k)

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

    def slack(k: int) -> int:
        u, v, w = edges[k]
        return dual[u] + dual[v] - 2 * w

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
        b = inblossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        if t == 1:
            queue.extend(blossom_leaves(b))
        else:
            base = blossombase[b]
            assert mate[base] >= 0
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

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

    def expand_blossom(b: int, endstage: bool) -> None:
        """Dissolve blossom b (its dual is zero).  Mid-stage the caller
        rebuilds the whole forest afterwards, so no relabelling here."""
        for s in blossomchilds[b]:  # type: ignore[union-attr]
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dual[s] == 0:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        label[b] = 0
        labelend[b] = -1
        blossomchilds[b] = None
        blossomendps[b] = None
        blossombase[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Rematch the interior of blossom b so that vertex v becomes the base."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
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
                augment_blossom(t, endpoint[p])
            j += jstep
            t = childs[j]  # type: ignore[index]
            if t >= n:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = childs[i:] + childs[:i]  # type: ignore[index]
        blossomendps[b] = endps[i:] + endps[:i]  # type: ignore[index]
        blossombase[b] = blossombase[blossomchilds[b][0]]  # type: ignore[index]
        assert blossombase[b] == v

    def augment_matching(k: int) -> None:
        """Flip the matching along the augmenting path through tight edge k."""
        v, w, _wt = edges[k]
        for s, p in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert labelend[bs] == mate[blossombase[bs]]
                if bs >= n:
                    augment_blossom(bs, s)
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
                    augment_blossom(bt, j)
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

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n + 100))
    try:
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
                            if slack(k) == 0:
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
                    u, v, _wt = edges[k]
                    bu = inblossom[u]
                    bv = inblossom[v]
                    if bu == bv:
                        continue
                    lu = label[bu]
                    lv = label[bv]
                    if lu == 1 and lv == 1:
                        sl = slack(k)
                        assert sl % 2 == 0, "S-S slack lost parity"
                        d = sl // 2
                        if delta == -1 or d < delta:
                            delta, delta_type, delta_extra = d, 3, k
                    elif (lu == 1 and lv == 0) or (lu == 0 and lv == 1):
                        d = slack(k)
                        if delta == -1 or d < delta:
                            delta, delta_type, delta_extra = d, 2, k
                for b in range(n, 2 * n):
                    if blossomparent[b] == -1 and blossomchilds[b] is not None:
                        if label[b] == 2:
                            d = dual[b]
                            if delta == -1 or d < delta:
                                delta, delta_type, delta_extra = d, 4, b
                if delta_type == 0:
                    return None  # dual unbounded: no perfect matching
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
                    expand_blossom(delta_extra, False)
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
                    expand_blossom(b, True)
    finally:
        sys.setrecursionlimit(limit)

    _check_mate_consistency(graph, mate)
    do_verify = VERIFY_LIMIT is None or n <= VERIFY_LIMIT
    if do_verify:
        _verify_optimum(graph, mate, dual, blossomparent, blossomchilds, n)
    return mate


def _check_mate_consistency(graph: SimpleWeightedGraph, mate: list[int]) -> None:
    for v, p in enumerate(mate):
        assert p >= 0
        u, w, _ = graph.edges[p // 2]
        assert v in (u, w)
        other = w if v == u else u
        assert mate[other] == (p ^ 1)


def _verify_optimum(
    graph: SimpleWeightedGraph,
    mate: list[int],
    dual: list[int],
    blossomparent: list[int],
    blossomchilds: list[Optional[list[int]]],
    n: int,
) -> None:
    """Complementary slackness check with exact integers.

    For every edge: P[u] + P[v] + 2*sum of duals of blossoms containing both
    endpoints - 2w >= 0, with equality on matched edges.  Every blossom with
    positive dual must be full (floor(size/2) matched edges inside).
    """
    # vertex -> chain of enclosing blossoms
    chains: list[list[int]] = [[] for _ in range(n)]
    leaves: dict[int, list[int]] = {}
    for b in range(n, 2 * n):
        if blossomchilds[b] is None:
            continue
        members: list[int] = []
        stack = list(blossomchilds[b])  # type: ignore[arg-type]
        while stack:
            t = stack.pop()
            if t < n:
                members.append(t)
            else:
                stack.extend(blossomchilds[t])  # type: ignore[arg-type]
        leaves[b] = members
        for v in members:
            chains[v].append(b)
    for b in range(n, 2 * n):
        if blossomchilds[b] is not None:
            assert dual[b] >= 0, "negative blossom dual"
    matched_edges = set()
    for v, p in enumerate(mate):
        matched_edges.add(p // 2)
    for k, (u, v, w) in enumerate(graph.edges):
        common = set(chains[u]) & set(chains[v])
        sl = dual[u] + dual[v] - 2 * w + 2 * sum(dual[b] for b in common)
        assert sl >= 0, f"edge {k} has negative slack {sl}"
        if k in matched_edges:
            assert sl == 0, f"matched edge {k} is not tight (slack {sl})"
    for b, members in leaves.items():
        if dual[b] > 0:
            inside = sum(
                1
                for k in matched_edges
                if graph.edges[k][0] in members and graph.edges[k][1] in members
            )
            assert inside == (len(members) - 1) // 2, "paid blossom is not full"
