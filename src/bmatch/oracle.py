"""Exhaustive ground truth: enumeration of every B-matching on a tiny
instance, plus verifiers for the structural claims the solver relies on.

Everything here is deliberately brute force and independent of the solver
path: the enumeration checks feasibility straight from the definition, and
the verifiers re-derive each property from enumerated matchings.  Solver
modules never import this one; tests and the CLI use it to cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import getitem
from typing import Iterator

from bmatch.core import (
    OBJECTIVES,
    BInstance,
    Matching,
    degrees,
    is_b_matching,
    matching_weight,
)
from bmatch.gen import random_instance
from bmatch.structure import (
    SUBSET_EDGE_CAP,
    apply,
    canonical_structure,
    extract_canonical_sequence,
    is_canonical,
    is_neighbouring_type,  # noqa: F401  (perfbench/tracer.py wraps it here)
    neighbouring_types,
    subsets_within,
    weight_of,
)

EDGE_CAP = 20


class TooLarge(ValueError):
    """The instance exceeds the exhaustive-enumeration cap."""


def enumerate_b_matchings(
    instance: BInstance, limit: int = EDGE_CAP
) -> Iterator[Matching]:
    """Yield every feasible matching, ordered by edge-index bitmask.

    Depth-first over edges from the highest index down, excluding before
    including, which emits subsets in increasing bitmask order.  The
    taken edges sit on an explicit stack, so the edge count sets no
    recursion depth.  A branch is cut when some vertex v, at degree d with r edge
    ends still undecided, can reach no admissible degree: one lookup in
    the table need[v][d], the distance from d up to the smallest value of
    B(v) that is at least d, decides it (alive iff need[v][d] <= r).  That
    covers a degree above max B(v), one that can no longer reach min B(v),
    and one finalized outside B(v); reaching B(v) is necessary, so the cut
    never drops a feasible subset.  Once edge i is decided, the undecided
    ends at each of its ends are those of the edges below i, a count fixed
    per edge index, so it is computed once before the search and never
    updated during it.
    """
    for _deg, chosen in _walk(instance, limit):
        yield Matching(frozenset(chosen))


def _walk(
    instance: BInstance, limit: int
) -> Iterator[tuple[list[int], list[int]]]:
    """The search of `enumerate_b_matchings`, yielding at each feasible
    subset its degree per vertex and its taken edges, highest index first.
    Both lists are the search's own and change when it resumes."""
    g = instance.graph
    m = len(g.edges)
    if m > limit:
        raise TooLarge(f"{m} edges exceed the enumeration cap of {limit}")
    n = g.vertex_count
    need = []
    for v in range(n):
        values = instance.b(v).values
        if not values:
            return
        # table[d] is the least x in B(v) with x >= d, less d, for
        # d <= d_G(v); x = d_G(v) + 1 stands for "no such x", since it
        # exceeds every d + r
        table: list[int] = []
        for x in values + (g.degree(v) + 1,):
            table += range(x - len(table), -1, -1)
        need.append(table)
    # per edge: its ends, their tables, and the ends at each still
    # undecided once it is, those of the lower edges
    ends = [(u, v) for u, v, _w in g.edges]
    steps = []
    below = [0] * n
    for u, v in ends:
        steps.append((u, v, need[u], need[v], below[u], below[v]))
        below[u] += 1
        below[v] += 1

    deg = [0] * n
    chosen: list[int] = []  # the taken edges, highest index first
    i = m - 1  # the next edge to decide
    take = False
    while True:
        if i < 0:
            yield deg, chosen
        else:
            u, v, need_u, need_v, left_u, left_v = steps[i]
            if take:
                chosen.append(i)
                deg[u] += 1
                deg[v] += 1
            i -= 1
            if need_u[deg[u]] <= left_u and need_v[deg[v]] <= left_v:
                take = False
                continue
        # undo choices back to the deepest edge still to be tried as taken
        while True:
            i += 1
            if i == m:
                return
            if not chosen or chosen[-1] != i:
                break  # edge i was left out: take it next
            chosen.pop()
            u, v = ends[i]
            deg[u] -= 1
            deg[v] -= 1
        take = True


def _value(instance: BInstance, matching: Matching) -> int:
    if instance.objective.endswith("card"):
        return len(matching)
    return matching_weight(instance.graph, matching)


def _better(instance: BInstance, a: int, b: int) -> bool:
    return a > b if instance.objective.startswith("max") else a < b


def oracle_optimum(
    instance: BInstance, limit: int = EDGE_CAP
) -> tuple[int, Matching] | None:
    """Exact optimum under the instance objective by enumeration, or None
    when nothing is feasible.

    The witness is the first attaining matching in enumeration order, so
    repeated runs agree edge for edge.
    """
    best: tuple[int, Matching] | None = None
    for m in enumerate_b_matchings(instance, limit):
        value = _value(instance, m)
        if best is None or _better(instance, value, best[0]):
            best = (value, m)
    return best


def verify_improvement_theorem(instance: BInstance) -> Matching | None:
    """Check that every improvable matching improves within one type step.

    For each feasible M that some feasible N strictly beats (under the
    instance objective), there must be a strictly better N' of neighbouring
    type to M, which includes M's own uniform type.  Returns None when the
    property holds, else the first violating M in enumeration order.

    Whether M violates depends only on its (type, value) key: the types
    that beat M are those whose best value beats M's value.  So each
    distinct key is decided once, in order of its first matching, against
    each type's best value; the first matching of the first violating key
    is the first violating M.  Type and value are read from the search's
    own degrees and taken edges, and only a violator becomes a Matching.
    An instance with a gap longer than 1 in some B(v) raises ValueError
    once it has a B-matching.
    """
    g = instance.graph
    weights = [w for _u, _v, w in g.edges]
    card = instance.objective.endswith("card")
    sign = 1 if instance.objective.startswith("max") else -1
    # values carry the objective's sign, so a larger value is better
    first: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    best: dict[tuple[int, ...], int] = {}
    where: list[list[int]] | None = None  # per vertex, interval by degree
    for deg, chosen in _walk(instance, EDGE_CAP):
        if where is None:
            # built at the first matching, so that a set with a gap longer
            # than 1 raises only when some B-matching exists
            where = []
            for v in range(g.vertex_count):
                row = [-1] * (g.degree(v) + 1)
                for index, run in enumerate(instance.intervals(v)):
                    for d in run:
                        row[d] = index
                where.append(row)
        t = tuple(map(getitem, where, deg))
        value = sign * (
            len(chosen) if card else sum(map(weights.__getitem__, chosen))
        )
        if (t, value) not in first:
            first[t, value] = tuple(chosen)
        if best.get(t, value) <= value:
            best[t] = value
    for (t, value), chosen in first.items():
        better = [u for u, b in best.items() if b > value]
        if better and not any(neighbouring_types(t, u) for u in better):
            return Matching(frozenset(chosen))
    return None


def _canonical_table(
    instance: BInstance, base: Matching, target: Matching
) -> dict[frozenset[int], int]:
    """Weight of every canonical path of the pair (base, target).

    A subset of base (+) target qualifies when it carries a canonical
    structure and its degree shifts stay within the shifts of the full
    difference, i.e. it assembles from whole alternating paths of some
    maximal decomposition of the pair.
    """
    out: dict[frozenset[int], int] = {}
    for sub in subsets_within(instance, base, base.selected ^ target.selected):
        if canonical_structure(instance, base, sub) is not None:
            out[sub] = weight_of(instance, base, sub)
    return out


def _basic_subsets(table: dict[frozenset[int], int]) -> list[frozenset[int]]:
    """Entries with no proper nonempty canonical subset that is at least as
    heavy or has positive weight."""
    out = []
    for sub, w in table.items():
        if any(
            other < sub and (w2 >= w or w2 > 0)
            for other, w2 in table.items()
        ):
            continue
        out.append(sub)
    return out


def verify_exchange_lemma(
    instance: BInstance, m: Matching, n: Matching
) -> str | None:
    """Check the exchange property on one pair with w(M) < w(N).

    For every basic Q inside M (+) N w.r.t. M with w(Q) <= 0 followed by a
    positive basic R inside (M (+) Q) (+) N w.r.t. M (+) Q, some canonical
    T inside M (+) N w.r.t. M must satisfy w(T) > w(Q).  Returns None when
    the property holds (vacuously when no such pair exists), else a
    description of the first violation.
    """
    g = instance.graph
    if matching_weight(g, m) >= matching_weight(g, n):
        raise ValueError("exchange verification needs w(M) < w(N)")
    diff = m.selected ^ n.selected
    if len(diff) > SUBSET_EDGE_CAP:
        raise TooLarge(
            f"{len(diff)} difference edges exceed the exchange cap of "
            f"{SUBSET_EDGE_CAP}"
        )
    table_m = _canonical_table(instance, m, n)
    best_t = max(table_m.values(), default=None)
    for q in _basic_subsets(table_m):
        w_q = table_m[q]
        if w_q > 0:
            continue
        if best_t is not None and best_t > w_q:
            continue
        m2 = apply(m, q)
        table_m2 = _canonical_table(instance, m2, n)
        for r in _basic_subsets(table_m2):
            if table_m2[r] > 0:
                return (
                    f"Q={sorted(q)} (w={w_q}) admits positive basic "
                    f"R={sorted(r)} (w={table_m2[r]}) but no canonical T "
                    f"beats w(Q); best canonical weight is {best_t}"
                )
    return None


def verify_canonical_decomposition(
    instance: BInstance, m: Matching, n: Matching
) -> str | None:
    """Re-check the canonical-sequence contract on one (M, N) pair.

    The extraction must split M (+) N into degree-preserving alternating
    cycles plus canonical paths, each canonical for the running matching,
    with every intermediate feasible, the edit distance to N strictly
    decreasing, and the final matching equal to N.  Returns None when all
    of that holds, else a description of the first breach.
    """
    g = instance.graph
    diff = m.selected ^ n.selected
    cycles, seq = extract_canonical_sequence(instance, m, n)
    union: frozenset[int] = frozenset()
    for part in [frozenset(c.edges) for c in cycles] + [s.edge_set for s in seq]:
        if union & part:
            return f"components overlap on edges {sorted(union & part)}"
        union |= part
    if union != diff:
        return "components do not partition the symmetric difference"
    cur = m
    for c in cycles:
        before = degrees(g, cur)
        cur = apply(cur, frozenset(c.edges))
        if degrees(g, cur) != before:
            return f"alternating cycle {sorted(c.edges)} shifts a degree"
    if not is_b_matching(instance, cur):
        return "matching infeasible after peeling cycles"
    dist = len(cur.selected ^ n.selected)
    for s in seq:
        if not is_canonical(instance, cur, s.edge_set):
            return (
                f"component {sorted(s.edge_set)} is not canonical for the "
                f"running matching"
            )
        cur = apply(cur, s.edge_set)
        if not is_b_matching(instance, cur):
            return f"infeasible after applying {sorted(s.edge_set)}"
        nxt = len(cur.selected ^ n.selected)
        if nxt >= dist:
            return f"distance to N fails to drop at {sorted(s.edge_set)}"
        dist = nxt
    if cur.selected != n.selected:
        return "sequence does not end at N"
    return None


# -- seeded verification suites ---------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one seeded verification run."""

    name: str
    checked: int
    skipped: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


SUITE_NAMES = ("theorem", "exchange", "lemma2")

_PROFILES = ("mixed", "parity", "interval")


def _suite_instance(seed: int, index: int, objective: str) -> BInstance:
    return random_instance(
        seed * 10_007 + index,
        n=3 + index % 4,
        m=6 + index % 5,
        profile=_PROFILES[index % len(_PROFILES)],
        weights=(-5, 5),
        objective=objective,
    )


def _sample_pair(
    instance: BInstance,
    rng: random.Random,
    *,
    distinct_weights: bool = False,
) -> tuple[Matching, Matching] | None:
    ms = list(enumerate_b_matchings(instance))
    if len(ms) < 2:
        return None
    for _ in range(8):
        a, b = rng.sample(ms, 2)
        if distinct_weights and matching_weight(
            instance.graph, a
        ) == matching_weight(instance.graph, b):
            continue
        return a, b
    return None


def run_verification_suite(name: str, seed: int, count: int) -> SuiteReport:
    """Run `count` seeded checks of one verifier and collect failures.

    'theorem' checks the one-step improvement property on random instances
    cycling through all objectives; 'exchange' and 'lemma2' check random
    feasible pairs.  Instances whose sampling yields nothing usable are
    counted as skipped.  An unknown name or a negative count raises
    ValueError.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"suite must be one of {SUITE_NAMES}, got {name!r}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = random.Random(seed)
    checked = skipped = 0
    failures: list[str] = []
    for index in range(count):
        objective = OBJECTIVES[index % len(OBJECTIVES)]
        if name == "theorem":
            bad = verify_improvement_theorem(_suite_instance(seed, index, objective))
            checked += 1
            if bad is not None:
                failures.append(
                    f"seed {seed} index {index}: matching "
                    f"{sorted(bad.selected)} has no near-type improvement"
                )
            continue
        for attempt in range(6):
            instance = _suite_instance(
                seed, index + (count + 1) * attempt, objective
            )
            pair = _sample_pair(instance, rng, distinct_weights=name == "exchange")
            if pair is not None:
                break
        else:
            skipped += 1
            continue
        m, n2 = pair
        if name == "exchange":
            if matching_weight(instance.graph, m) > matching_weight(
                instance.graph, n2
            ):
                m, n2 = n2, m
            message = verify_exchange_lemma(instance, m, n2)
        else:
            message = verify_canonical_decomposition(instance, m, n2)
        checked += 1
        if message is not None:
            failures.append(f"seed {seed} index {index}: {message}")
    return SuiteReport(name, checked, skipped, tuple(failures))
