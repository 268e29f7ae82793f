"""Instance model: multigraphs, degree sets, parity intervals, matchings and
their types, file I/O.

Degree sets are arbitrary sets of admissible vertex degrees subject to one
structural restriction: they contain no gap longer than 1 (between two
consecutive admissible values the difference is at most 2).  Such a set
splits into maximal runs of same-parity values, the parity intervals.  The
instance caches them, and a matching's type (the interval index holding its
degree at each vertex) is located here only; all higher layers of the
solver reason in terms of those intervals and types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

OBJECTIVES = ("max-card", "min-card", "max-weight", "min-weight")


class ParseError(ValueError):
    """Malformed instance or certificate text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


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
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        edges = tuple(map(tuple, self.edges))
        object.__setattr__(self, "edges", edges)
        for e in edges:
            try:
                u, v, w = e
            except ValueError:
                raise ValueError(f"edge {e!r} must be (u, v, w)") from None
            if not (
                isinstance(u, int)
                and isinstance(v, int)
                and isinstance(w, int)
                and 0 <= u < n
                and 0 <= v < n
            ):
                if not (isinstance(u, int) and isinstance(v, int) and isinstance(w, int)):
                    raise ValueError(f"edge {e!r} must contain integers")
                raise ValueError(f"edge {e!r} has an endpoint outside 0..{n - 1}")

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
        """Drop values that no vertex degree can attain; the set itself when
        none exceeds max_degree."""
        if not self.values or self.values[-1] <= max_degree:
            return self
        return DegreeSet(tuple(x for x in self.values if x <= max_degree))


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

    @cached_property
    def _intervals(self) -> tuple[tuple[range, ...], ...]:
        return tuple(parity_intervals(b) for b in self._effective)

    def b(self, v: int) -> DegreeSet:
        """Degree set of v intersected with the attainable range [0, d_G(v)]."""
        return self._effective[v]

    def intervals(self, v: int) -> tuple[range, ...]:
        """Parity intervals of b(v) in increasing order, each a range of step
        2; raises ValueError when b(v) has a gap longer than 1."""
        return self._intervals[v]


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


ValidationIssue = GapTooLong | EmptyDegreeSet


def validate(instance: BInstance) -> list[ValidationIssue]:
    """Check instance well-formedness; an empty list means ok.

    Degree-set values above d_G(v) are unattainable and ignored; the gap
    condition is checked on what remains.
    """
    issues: list[ValidationIssue] = []
    for v in range(instance.graph.vertex_count):
        eff = instance.b(v)
        if len(eff) == 0:
            issues.append(EmptyDegreeSet(v))
            continue
        if any(b - a > 2 for a, b in zip(eff.values, eff.values[1:])):
            issues.append(GapTooLong(v))
    return issues


# -- parity intervals ----------------------------------------------------------


def parity_intervals(b: DegreeSet) -> tuple[range, ...]:
    """Split a gap-free degree set into maximal same-parity runs, each the
    range(lo, hi + 1, 2).

    A run extends while consecutive values differ by exactly 2; a difference
    of 1 starts a new run.  For valid sets (gap at most 1) these runs
    partition the set and consecutive runs satisfy hi + 1 == next lo.
    """
    if len(b) == 0:
        return ()
    out: list[range] = []
    lo = hi = b.values[0]
    for x in b.values[1:]:
        if x - hi > 2:
            raise ValueError(f"degree set {b.values} has a gap longer than 1")
        if x - hi == 2:
            hi = x
        else:
            out.append(range(lo, hi + 1, 2))
            lo = hi = x
    out.append(range(lo, hi + 1, 2))
    return tuple(out)


def current_type(instance: BInstance, matching: Matching) -> tuple[int, ...]:
    """The matching's type: per vertex, the index of the parity interval of
    B(v) holding d_M(v).  Raises NotFeasible when some d_M(v) is not in B(v).
    """
    deg = degrees(instance.graph, matching)
    out = []
    for v, d in enumerate(deg):
        for i, iv in enumerate(instance.intervals(v)):
            if d in iv:
                out.append(i)
                break
        else:
            raise NotFeasible(f"degree {d} at vertex {v} is outside its degree set")
    return tuple(out)


# -- matching arithmetic -------------------------------------------------------


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
