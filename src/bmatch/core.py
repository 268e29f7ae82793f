"""Instance model: multigraphs, degree sets, parity intervals, matchings, file I/O.

Degree sets are arbitrary sets of admissible vertex degrees subject to one
structural restriction: they contain no gap longer than 1 (between two
consecutive admissible values the difference is at most 2).  Such a set
splits into maximal runs of same-parity values, the parity intervals, and
all higher layers of the solver reason in terms of those intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

OBJECTIVES = ("max-card", "min-card", "max-weight", "min-weight")


class ParseError(ValueError):
    """Malformed instance or certificate text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


class NotInSet(ValueError):
    """Raised when a degree is looked up in a degree set that lacks it."""


class NotFeasible(ValueError):
    """Raised when an operation requires a feasible matching and got none."""


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph with integer edge weights.

    Edges are identified by their position in `edges`; that order is stable
    and meaningful (certificates refer to it).  Loops (u == v) and parallel
    edges are permitted.  A loop contributes 2 to the degree of its vertex.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        for e in self.edges:
            if len(e) != 3:
                raise ValueError(f"edge {e!r} must be (u, v, w)")
            u, v, w = e
            if not (isinstance(u, int) and isinstance(v, int) and isinstance(w, int)):
                raise ValueError(f"edge {e!r} must contain integers")
            if u < 0 or v < 0:
                raise ValueError(f"edge {e!r} has a negative endpoint")

    @staticmethod
    def build(vertex_count: int, edges: Iterable[tuple]) -> "MultiGraph":
        """Build from (u, v) or (u, v, w) tuples; omitted weights default to 1."""
        norm = []
        for e in edges:
            if len(e) == 2:
                norm.append((e[0], e[1], 1))
            else:
                norm.append((e[0], e[1], e[2]))
        return MultiGraph(vertex_count, tuple(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        d = [0] * self.vertex_count
        for u, v, _w in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d)

    def degree(self, v: int) -> int:
        """Number of edge ends at v; a loop counts twice."""
        return self._degrees[v]

    @cached_property
    def _incident(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v, _w) in enumerate(self.edges):
            inc[u].append(i)
            if v != u:
                inc[v].append(i)
        return tuple(tuple(x) for x in inc)

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge indices touching v, in index order; a loop appears once."""
        return self._incident[v]

    def is_loop(self, e: int) -> bool:
        u, v, _w = self.edges[e]
        return u == v


@dataclass(frozen=True)
class DegreeSet:
    """Strictly increasing tuple of admissible degrees for one vertex."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        for x in self.values:
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"degree set value {x!r} must be a nonnegative integer")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"degree set {self.values} is not strictly increasing")

    def __contains__(self, k: int) -> bool:
        return k in self.values

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def restrict(self, max_degree: int) -> "DegreeSet":
        """Drop values that no vertex degree can attain."""
        return DegreeSet(tuple(x for x in self.values if x <= max_degree))


@dataclass(frozen=True)
class ParityInterval:
    """The set {lo, lo+2, ..., hi}; lo and hi share parity."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo <= self.hi):
            raise ValueError(f"bad parity interval [{self.lo}, {self.hi}]")
        if (self.hi - self.lo) % 2 != 0:
            raise ValueError(f"parity interval ends {self.lo}, {self.hi} differ in parity")

    def __contains__(self, k: int) -> bool:
        return self.lo <= k <= self.hi and (k - self.lo) % 2 == 0

    def members(self) -> range:
        return range(self.lo, self.hi + 1, 2)


@dataclass(frozen=True)
class BInstance:
    """A multigraph, one degree set per vertex, and an objective sense."""

    graph: MultiGraph
    degree_sets: tuple[DegreeSet, ...]
    objective: str = "max-card"

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree_sets", tuple(self.degree_sets))
        if len(self.degree_sets) != self.graph.vertex_count:
            raise ValueError("need exactly one degree set per vertex")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")

    @cached_property
    def _effective(self) -> tuple[DegreeSet, ...]:
        return tuple(
            ds.restrict(self.graph.degree(v)) for v, ds in enumerate(self.degree_sets)
        )

    def b(self, v: int) -> DegreeSet:
        """Degree set of v intersected with the attainable range [0, d_G(v)]."""
        return self._effective[v]


@dataclass(frozen=True)
class Matching:
    """A set of selected edge indices."""

    selected: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", frozenset(self.selected))

    @staticmethod
    def of(indices: Iterable[int]) -> "Matching":
        return Matching(frozenset(indices))

    def __contains__(self, e: int) -> bool:
        return e in self.selected

    def __len__(self) -> int:
        return len(self.selected)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.selected))


EMPTY_MATCHING = Matching(frozenset())


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class GapTooLong:
    vertex: int


@dataclass(frozen=True)
class EmptyDegreeSet:
    vertex: int


@dataclass(frozen=True)
class BadEndpoint:
    edge: int


ValidationIssue = GapTooLong | EmptyDegreeSet | BadEndpoint


def validate(instance: BInstance) -> list[ValidationIssue]:
    """Check instance well-formedness; an empty list means ok.

    Degree-set values above d_G(v) are unattainable and ignored; the gap
    condition is checked on what remains.
    """
    issues: list[ValidationIssue] = []
    n = instance.graph.vertex_count
    for i, (u, v, _w) in enumerate(instance.graph.edges):
        if u >= n or v >= n:
            issues.append(BadEndpoint(i))
    if any(isinstance(x, BadEndpoint) for x in issues):
        return issues  # degrees are meaningless past this point
    for v in range(n):
        eff = instance.b(v)
        if len(eff) == 0:
            issues.append(EmptyDegreeSet(v))
            continue
        if any(b - a > 2 for a, b in zip(eff.values, eff.values[1:])):
            issues.append(GapTooLong(v))
    return issues


# -- parity intervals ----------------------------------------------------------


def parity_intervals(b: DegreeSet) -> tuple[ParityInterval, ...]:
    """Split a gap-free degree set into maximal same-parity runs.

    A run extends while consecutive values differ by exactly 2; a difference
    of 1 starts a new run.  For valid sets (gap at most 1) these runs
    partition the set and consecutive runs satisfy hi + 1 == next lo.
    """
    if len(b) == 0:
        return ()
    out: list[ParityInterval] = []
    lo = hi = b.values[0]
    for x in b.values[1:]:
        if x - hi > 2:
            raise ValueError(f"degree set {b.values} has a gap longer than 1")
        if x - hi == 2:
            hi = x
        else:
            out.append(ParityInterval(lo, hi))
            lo = hi = x
    out.append(ParityInterval(lo, hi))
    return tuple(out)


def interval_of(b: DegreeSet, k: int) -> ParityInterval:
    """The unique parity interval of b containing k."""
    if k not in b:
        raise NotInSet(f"{k} is not in the degree set {b.values}")
    for iv in parity_intervals(b):
        if k in iv:
            return iv
    raise AssertionError("parity intervals failed to cover a member")


# -- matching arithmetic -------------------------------------------------------


def degree(graph: MultiGraph, matching: Matching, v: int) -> int:
    """Number of selected edge ends at v; a selected loop counts twice."""
    d = 0
    for e in graph.incident(v):
        if e in matching.selected:
            d += 2 if graph.is_loop(e) else 1
    return d


def degrees(graph: MultiGraph, matching: Matching) -> list[int]:
    d = [0] * graph.vertex_count
    for e in matching.selected:
        u, v, _w = graph.edges[e]
        d[u] += 1
        d[v] += 1
    return d


def is_b_matching(instance: BInstance, matching: Matching) -> bool:
    degs = degrees(instance.graph, matching)
    return all(degs[v] in instance.b(v) for v in range(instance.graph.vertex_count))


def symmetric_difference(m: Matching, n: Matching) -> Matching:
    return Matching(m.selected ^ n.selected)


def matching_weight(graph: MultiGraph, matching: Matching) -> int:
    return sum(graph.edges[e][2] for e in matching.selected)


# -- file formats --------------------------------------------------------------
#
# Instance (text, line oriented, lines starting with '#' are comments):
#   p bm <n> <m>
#   e <u> <v> [<w>]        m lines, 0-based vertex ids, omitted weight is 1
#   b <v> <d1> ... <dk>    n lines, strictly increasing degrees
# Certificate:
#   s <size> <weight>
#   m <e1> <e2> ...        0-based edge indices in input order


def _significant_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped.split()


def _parse_int(tok: str, line_no: int, what: str) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise ParseError(line_no, f"{what} {tok!r} is not an integer") from None


def parse_instance(text: str, objective: str = "max-card") -> BInstance:
    """Parse the instance format; malformed lines raise ParseError."""
    lines = _significant_lines(text)
    try:
        line_no, toks = next(lines)
    except StopIteration:
        raise ParseError(1, "missing problem line 'p bm <n> <m>'") from None
    if toks[:2] != ["p", "bm"] or len(toks) != 4:
        raise ParseError(line_no, "expected problem line 'p bm <n> <m>'")
    n = _parse_int(toks[2], line_no, "vertex count")
    m = _parse_int(toks[3], line_no, "edge count")
    if n < 0 or m < 0:
        raise ParseError(line_no, "counts must be nonnegative")

    edges: list[tuple[int, int, int]] = []
    seen_b: dict[int, DegreeSet] = {}
    for line_no, toks in lines:
        kind = toks[0]
        if kind == "e":
            if len(toks) not in (3, 4):
                raise ParseError(line_no, "expected 'e <u> <v> [<w>]'")
            if len(edges) >= m:
                raise ParseError(line_no, f"more than {m} edge lines")
            u = _parse_int(toks[1], line_no, "endpoint")
            v = _parse_int(toks[2], line_no, "endpoint")
            w = _parse_int(toks[3], line_no, "weight") if len(toks) == 4 else 1
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(line_no, f"endpoint out of range 0..{n - 1}")
            edges.append((u, v, w))
        elif kind == "b":
            if len(toks) < 2:
                raise ParseError(line_no, "expected 'b <v> <d1> ...'")
            v = _parse_int(toks[1], line_no, "vertex")
            if not 0 <= v < n:
                raise ParseError(line_no, f"vertex out of range 0..{n - 1}")
            if v in seen_b:
                raise ParseError(line_no, f"second degree set for vertex {v}")
            vals = [_parse_int(t, line_no, "degree") for t in toks[2:]]
            if any(x < 0 for x in vals):
                raise ParseError(line_no, "degrees must be nonnegative")
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise ParseError(line_no, "degrees must be strictly increasing")
            seen_b[v] = DegreeSet(tuple(vals))
        else:
            raise ParseError(line_no, f"unknown line type {kind!r}")

    if len(edges) != m:
        raise ParseError(line_no if m else 1, f"expected {m} edge lines, got {len(edges)}")
    missing = [v for v in range(n) if v not in seen_b]
    if missing:
        raise ParseError(line_no if n else 1, f"missing degree set for vertex {missing[0]}")
    graph = MultiGraph(n, tuple(edges))
    return BInstance(graph, tuple(seen_b[v] for v in range(n)), objective)


def format_instance(instance: BInstance, comments: Iterable[str] = ()) -> str:
    """Serialize an instance; inverse of parse_instance up to comments."""
    g = instance.graph
    out = [f"# {c}" for c in comments]
    out.append(f"p bm {g.vertex_count} {g.edge_count}")
    for u, v, w in g.edges:
        out.append(f"e {u} {v} {w}")
    for v in range(g.vertex_count):
        vals = " ".join(str(x) for x in instance.degree_sets[v].values)
        out.append(f"b {v} {vals}".rstrip())
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Certificate:
    """Parsed matching certificate: claimed size and weight plus the edges."""

    size: int
    weight: int
    matching: Matching


def parse_certificate(text: str) -> Certificate:
    size = weight = None
    indices: list[int] = []
    saw_m = False
    for line_no, toks in _significant_lines(text):
        kind = toks[0]
        if kind == "s":
            if size is not None:
                raise ParseError(line_no, "second 's' line")
            if len(toks) != 3:
                raise ParseError(line_no, "expected 's <size> <weight>'")
            size = _parse_int(toks[1], line_no, "size")
            weight = _parse_int(toks[2], line_no, "weight")
        elif kind == "m":
            if size is None:
                raise ParseError(line_no, "'m' line before 's' line")
            saw_m = True
            for t in toks[1:]:
                indices.append(_parse_int(t, line_no, "edge index"))
        else:
            raise ParseError(line_no, f"unknown line type {kind!r}")
    if size is None:
        raise ParseError(1, "missing 's <size> <weight>' line")
    if not saw_m:
        raise ParseError(1, "missing 'm' line")
    if len(indices) != len(set(indices)):
        raise ParseError(1, "duplicate edge index in certificate")
    return Certificate(size, weight, Matching.of(indices))


def format_certificate(graph: MultiGraph, matching: Matching) -> str:
    size = len(matching)
    weight = matching_weight(graph, matching)
    body = " ".join(str(e) for e in sorted(matching.selected))
    return f"s {size} {weight}\nm {body}".rstrip() + "\n"


def check_certificate(instance: BInstance, cert: Certificate) -> list[str]:
    """Verify a certificate against an instance; empty list means valid.

    An out-of-range edge index is reported alone (the smallest one), since
    nothing else can be computed past it.  Otherwise each false claim is
    reported, then the first vertex whose degree is not admissible.
    """
    g = instance.graph
    bad = [e for e in sorted(cert.matching.selected) if not 0 <= e < g.edge_count]
    if bad:
        return [f"edge index {bad[0]} out of range 0..{g.edge_count - 1}"]
    problems: list[str] = []
    if cert.size != len(cert.matching):
        problems.append(
            f"claimed size {cert.size} but {len(cert.matching)} edges listed"
        )
    weight = matching_weight(g, cert.matching)
    if cert.weight != weight:
        problems.append(f"claimed weight {cert.weight} but edges weigh {weight}")
    deg = degrees(g, cert.matching)
    wrong = [v for v in range(g.vertex_count) if deg[v] not in instance.b(v)]
    if wrong:
        v = wrong[0]
        problems.append(f"degree {deg[v]} at vertex {v} is not admissible")
    return problems
