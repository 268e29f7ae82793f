"""Exact maximum-weight perfect matching on loopless multigraphs.

There is one blossom search, `_solve`: the primal-dual blossom algorithm
specialised to perfect matchings.  Vertex duals are unconstrained in sign,
so there is no "dual hits zero" stopping rule and every stage ends in an
augmentation; a dual update without bound yields a Tutte barrier instead,
its T-vertices X.  A solve runs the search once, on the real weights, so
the one run decides both existence and optimality.

The run starts in `_jump_start`.  Each vertex's dual starts from the
heaviest edge at it, lowered in vertex order until an edge there is
tight, so every vertex with an edge has a tight edge.  A matching is then
grown over the tight edges greedily in edge order and by one pass of
length-3 augmenting paths, which leaves far fewer roots than duals that
make only the heaviest edges tight.  That start depends on the graph
alone, so the answer does too.  A run that ends in a barrier makes the
solver return None only after `_check_barrier` has counted more than |X|
odd components in G - X.

The input is a core.MultiGraph, whose construction has checked endpoints
and integer weights.  Parallel edges are fine: each is its own edge index
with its own endpoints.  Loops are not, since no perfect matching can use
one, and the solver rejects them.

All arithmetic is exact.  Vertex duals are stored doubled (P[v] = 2*y_v) so
that every dual update is integral for integer edge weights; the only halved
quantity is the slack of an edge between two S-blossoms, which is always even
(all vertex duals start even, so every root has the same parity, a dual
update moves every tree vertex by the same delta, and tight edges join
equal parities).  Both facts are asserted at runtime.  Every perfect matching
returned has passed `_check_optimum`, a complementary-slackness check on the
final duals that raises instead of asserting, so it also runs under -O; the
barrier check raises the same way.

The implementation favours simple invariants over asymptotic records:
expanding a blossom mid-stage rebuilds the alternating forest instead of
surgically relabelling, and a dual update keeps no least-slack edges.  It
costs only the forest, though.  Every edge that can bound delta has an end
at an S-leaf, so the update reads the edges at the stage's S-leaves, the
T-leaves and the blossom ids labelled in the stage, nothing else.  The
edges at delta are the only ones that become tight, so the scan then
resumes only from their S-leaf ends, in vertex order.  A stage restart
costs only what the stage touched, too.  The edges it marked allowed, the
ids it labelled and the blossoms whose dual may be 0 are listed, and the
next stage start, a rebuild and the stage end visit only those lists.
Tree roots come from a sorted list of exposed vertices and are labelled S
lazily: when the scan takes them, in vertex order and before any vertex a
growing tree queued, or when a tight edge first reaches one.  That is the
scan order of labelling every root up front, so the lazy roots change no
answer.  Solves are deterministic for a fixed input edge order: a vertex
scans its edges in edge-index order, and a tie between T-blossoms at
delta falls to the smallest id.  Nested blossoms are expanded and
rematched on an explicit stack, not by recursion.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Optional

from bmatch.core import Matching, MultiGraph


def max_weight_perfect_matching(graph: MultiGraph) -> Optional[Matching]:
    """Return a maximum-weight perfect matching, or None if none exists.

    One weighted blossom run decides both: a returned matching has passed
    `_check_optimum`, and a None comes from a Tutte barrier that has passed
    `_check_barrier`.  Raises ValueError if `graph` has a loop.
    """
    n = graph.vertex_count
    edges = graph.edges
    # Endpoint encoding: edge k owns endpoints 2k (at u) and 2k+1 (at v).
    # neighbend[v] lists the remote endpoints of edges at v, in edge order.
    endpoint = [0] * (2 * len(edges))
    neighbend: list[list[int]] = [[] for _ in range(n)]
    for k, (u, v, _w) in enumerate(edges):
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        endpoint[2 * k] = u
        endpoint[2 * k + 1] = v
        neighbend[u].append(2 * k + 1)
        neighbend[v].append(2 * k)
    found = _solve([w for _u, _v, w in edges], endpoint, neighbend)
    if isinstance(found, list):
        _check_barrier(graph, found)
        return None
    mate, dual, blossomparent = found
    _check_optimum(graph, mate, dual, blossomparent)
    return Matching(frozenset(p // 2 for p in mate))


def _check_barrier(graph: MultiGraph, barrier: Iterable[int]) -> None:
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
    weight: list[int], endpoint: list[int], neighbend: list[list[int]]
) -> tuple[list[int], list[int], list[int]] | list[int]:
    """A maximum-weight perfect matching for the edge weights `weight`,
    grown from the duals and the matching of `_jump_start`.  Return (mate,
    dual, blossomparent), with mate the matched remote endpoint per vertex,
    the certificate `_check_optimum` reads; or a Tutte barrier if there is
    no perfect matching.

    The barrier is the set X of vertices whose top-level blossom is labelled
    T when a dual update has no bound.  There is then no S-free edge, no edge
    between two S-blossoms and no top-level T-blossom, since each would give
    a delta.  So each S-blossom is closed except towards T-vertices, and is
    an odd component of G - X.  Each tree has one more S-blossom than
    T-vertices, so X leaves more than |X| odd components.
    """
    n = len(neighbend)
    m = len(weight)

    # P[v] = 2 * vertex dual, all even at the start so that every root has
    # the same parity (makes every S-S slack even); slots n..2n-1 hold the
    # blossom duals Z.  slack(k) = P[u] + P[v] - 2*w(k); tight edges have
    # slack 0.
    mate, dual = _jump_start(weight, endpoint, neighbend)
    dual += [0] * n
    exposed = [v for v in range(n) if mate[v] == -1]  # the tree roots, sorted

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
    # What a stage touched, so that the next one resets only that: the
    # edges marked allowed and the ids labelled.  zero_dual holds every
    # blossom whose dual may be 0: each new one and each T-blossom whose
    # dual fell to 0; the stage end keeps those still at 0.
    allowed: list[int] = []
    labelled: list[int] = []
    zero_dual: list[int] = []
    # The forest's vertices: each S-leaf once, when first queued as S, and
    # the leaves of each T-blossom, when labelled (a T-leaf may turn S).
    sleaves: list[int] = []
    tleaves: list[int] = []
    # Scan order: the leaves of each root's blossom, roots taken lazily in
    # vertex order, then `queue`, as if every root had been queued first.
    rootq: deque[int] = deque()
    next_root = 0
    queue: deque[int] = deque()

    def blossom_leaves(b: int) -> list[int]:
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
            labelled.append(w)
            labelled.append(b)
            if t == 1:
                scan = rootq if p == -1 else queue
                if b < n:
                    scan.append(b)
                    sleaves.append(b)
                else:
                    leaves = blossom_leaves(b)
                    scan.extend(leaves)
                    sleaves.extend(leaves)
                return
            if b < n:
                tleaves.append(b)
            else:
                tleaves.extend(blossom_leaves(b))
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
        v = endpoint[2 * k]
        w = endpoint[2 * k + 1]
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
        labelled.append(b)
        dual[b] = 0
        zero_dual.append(b)
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                # Former T-vertex turned S; it still has to be scanned.
                queue.append(leaf)
                sleaves.append(leaf)
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
        for s, p in ((endpoint[2 * k], 2 * k + 1), (endpoint[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert labelend[bs] == mate[blossombase[bs]]
                if labelend[bs] == -1:
                    exposed.remove(blossombase[bs])
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
        nonlocal next_root
        for i in labelled:
            label[i] = 0
            labelend[i] = -1
        labelled.clear()
        sleaves.clear()
        tleaves.clear()
        rootq.clear()
        queue.clear()
        next_root = 0

    while exposed:
        for k in allowed:
            allowedge[k] = False
        allowed.clear()
        start_forest()

        augmented = False
        while True:
            # Scan: grow trees, shrink blossoms, stop on an augmenting path.
            while not augmented:
                if rootq:
                    v = rootq.popleft()
                elif next_root < len(exposed):
                    assign_label(exposed[next_root], 1, -1)  # fills rootq
                    next_root += 1
                    continue
                elif queue:
                    v = queue.popleft()
                else:
                    break
                if label[inblossom[v]] != 1:
                    continue  # stale entry
                for p in neighbend[v]:
                    k = p // 2
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue
                    if not allowedge[k]:
                        if dual[v] + dual[w] == 2 * weight[k]:
                            allowedge[k] = True
                            allowed.append(k)
                    if allowedge[k]:
                        bw = inblossom[w]
                        if label[bw] == 0 and mate[blossombase[bw]] == -1:
                            # A root not taken yet counts as S: label it now.
                            assign_label(blossombase[bw], 1, -1)
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
                            labelled.append(w)
            if augmented:
                break

            # Dual update: delta is the least slack of an S-free edge, half
            # that of an edge between two S-blossoms, or the least dual of
            # a top-level T-blossom, which is then expanded; an edge wins a
            # tie.  Every such edge has an S-leaf end, and every such
            # blossom was labelled in this stage.
            delta = -1
            expand = -1
            at_min: list[int] = []  # S-leaves with an edge at delta
            for v in sleaves:
                bv = inblossom[v]
                pv = dual[v]
                for p in neighbend[v]:
                    w = endpoint[p]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    lw = label[bw]
                    if lw == 1:
                        sl = pv + dual[w] - 2 * weight[p >> 1]
                        assert sl % 2 == 0, "S-S slack lost parity"
                        d = sl // 2
                    elif lw == 0:
                        d = pv + dual[w] - 2 * weight[p >> 1]
                    else:
                        continue
                    if delta == -1 or d < delta:
                        delta = d
                        at_min = [v]
                    elif d == delta and at_min[-1] != v:
                        at_min.append(v)
            for b in labelled:
                if b >= n and label[b] == 2 and blossomparent[b] == -1:
                    d = dual[b]
                    if delta == -1 or d < delta or (d == delta and b < expand):
                        delta, expand = d, b
            if delta == -1:
                return [v for v in range(n) if label[inblossom[v]] == 2]
            # A zero delta only happens for a zero-dual blossom that got
            # relabelled T after a forest rebuild; expanding it is progress.
            assert delta > 0 or expand != -1, "scan left a tight edge unprocessed"

            for v in sleaves:
                dual[v] -= delta
            for v in tleaves:
                if label[inblossom[v]] == 2:
                    dual[v] += delta
            for b in labelled:
                if b >= n and blossomparent[b] == -1:
                    if label[b] == 1:
                        dual[b] += delta
                    elif label[b] == 2:
                        dual[b] -= delta
                        if dual[b] == 0:
                            zero_dual.append(b)

            if expand != -1:
                # A T-blossom dual hit zero: dissolve it and rebuild the
                # forest; labels are derived state, so this is safe.
                nested(expand_blossom, expand, False)
                start_forest()
            else:
                # The edges at delta are now tight, and no other edge became
                # tight: resume the scan only from their S-leaf ends.
                queue.extend(sorted(at_min))

        if not exposed:
            break  # perfect, and optimal by the dual rule; no stage follows
        # Stage end: discard exhausted S-blossoms, keep paid-for ones.  A
        # root not taken yet counts as S.
        zero_dual[:] = sorted(set(zero_dual))
        for b in zero_dual:
            if (
                blossomchilds[b] is not None
                and blossomparent[b] == -1
                and (label[b] == 1 or mate[blossombase[b]] == -1)
                and dual[b] == 0
            ):
                nested(expand_blossom, b, True)
        zero_dual[:] = [
            b for b in zero_dual if blossomchilds[b] is not None and dual[b] == 0
        ]

    return mate, dual, blossomparent


def _jump_start(
    weight: list[int], endpoint: list[int], neighbend: list[list[int]]
) -> tuple[list[int], list[int]]:
    """Return a starting matching `mate` (matched remote endpoint per
    vertex, or -1) and vertex duals P (doubled, so P[v] = 2 * y_v) for the
    edge weights `weight`, every edge of `mate` tight.

    y_v starts at the largest ceil(w/2) over the edges at v, so no slack
    is negative.  Then, in vertex order, y_v drops by its least slack, to
    the largest w - y_x over its edges vx (0 for an isolated vertex): that
    edge becomes tight and every slack stays >= 0, so every vertex with an
    edge has a tight edge.  Every P is even, so all roots share a parity,
    and tight edges join equal parities.

    The matching takes tight edges greedily in edge order, then grows by
    one pass in vertex order over length-3 augmenting paths of tight
    edges: u exposed, a matched to b, and b tight to an exposed z other
    than u.
    """
    n = len(neighbend)
    ceil = [-(-w // 2) for w in weight]
    half = [min(ceil, default=0)] * n  # y_v, at most each vertex's largest ceiling
    for c, u, v in zip(ceil, endpoint[::2], endpoint[1::2]):
        if half[u] < c:
            half[u] = c
        if half[v] < c:
            half[v] = c
    for v, ends in enumerate(neighbend):
        lows = [half[endpoint[p]] - weight[p >> 1] for p in ends]
        half[v] = -min(lows, default=0)

    mate = [-1] * n
    for k, w in enumerate(weight):
        u = endpoint[2 * k]
        v = endpoint[2 * k + 1]
        if mate[u] == -1 and mate[v] == -1 and half[u] + half[v] == w:
            mate[u] = 2 * k + 1
            mate[v] = 2 * k

    for u in range(n):
        if mate[u] != -1:
            continue
        for p in neighbend[u]:
            a = endpoint[p]
            if half[u] + half[a] != weight[p >> 1]:
                continue
            # The greedy left no tight edge between two exposed vertices.
            b = endpoint[mate[a]]
            for q in neighbend[b]:
                z = endpoint[q]
                if mate[z] == -1 and z != u and half[b] + half[z] == weight[q >> 1]:
                    mate[u], mate[a] = p, p ^ 1
                    mate[b], mate[z] = q, q ^ 1
                    break
            else:
                continue
            break
    return mate, [2 * y for y in half]


def _check_optimum(
    graph: MultiGraph, mate: list[int], dual: list[int], parent: list[int]
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
