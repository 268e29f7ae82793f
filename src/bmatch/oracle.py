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
from typing import Iterator

from bmatch.core import (
    OBJECTIVES,
    BInstance,
    Matching,
    current_type,
    degrees,
    is_b_matching,
    matching_weight,
)
from bmatch.gen import random_instance
from bmatch.structure import (
    apply,
    canonical_structure,
    extract_canonical_sequence,
    is_canonical,
    is_neighbouring_type,  # noqa: F401  (perfbench/tracer.py wraps it here)
    neighbouring_types,
    shifts_within,
    weight_of,
)

EDGE_CAP = 20
EXCHANGE_EDGE_CAP = 12


class TooLarge(ValueError):
    """The instance exceeds the exhaustive-enumeration cap."""


def enumerate_b_matchings(
    instance: BInstance, limit: int = EDGE_CAP
) -> Iterator[Matching]:
    """Yield every feasible matching, ordered by edge-index bitmask.

    Depth-first over edges from the highest index down, excluding before
    including, which emits subsets in increasing bitmask order.  Branches
    are cut when a vertex degree already exceeds its largest admissible
    value, can no longer reach its smallest, or is finalized outside its
    set; the cuts never drop a feasible subset.
    """
    g = instance.graph
    m = len(g.edges)
    if m > limit:
        raise TooLarge(f"{m} edges exceed the enumeration cap of {limit}")
    n = g.vertex_count
    sets = [instance.b(v) for v in range(n)]
    if any(len(s) == 0 for s in sets):
        return
    lo = [s.values[0] for s in sets]
    hi = [s.values[-1] for s in sets]
    slots = [((u, 2),) if u == v else ((u, 1), (v, 1)) for u, v, _w in g.edges]

    deg = [0] * n
    rem = [g.degree(v) for v in range(n)]
    chosen: list[int] = []

    def walk(i: int) -> Iterator[Matching]:
        if i < 0:
            yield Matching(frozenset(chosen))
            return
        for take in (False, True):
            dead = False
            for v, k in slots[i]:
                rem[v] -= k
                if take:
                    deg[v] += k
                if (
                    deg[v] > hi[v]
                    or deg[v] + rem[v] < lo[v]
                    or (rem[v] == 0 and deg[v] not in sets[v])
                ):
                    dead = True
            if not dead:
                if take:
                    chosen.append(i)
                yield from walk(i - 1)
                if take:
                    chosen.pop()
            for v, k in slots[i]:
                rem[v] += k
                if take:
                    deg[v] -= k

    yield from walk(m - 1)


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
    """
    all_ms = list(enumerate_b_matchings(instance))
    values = [_value(instance, m) for m in all_ms]
    types = [current_type(instance, m) for m in all_ms]
    for m, value, t in zip(all_ms, values, types):
        better = [u for v2, u in zip(values, types) if _better(instance, v2, value)]
        if better and not any(neighbouring_types(t, u) for u in better):
            return m
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
    pool = sorted(base.selected ^ target.selected)
    out: dict[frozenset[int], int] = {}
    for mask in range(1, 1 << len(pool)):
        sub = frozenset(pool[i] for i in range(len(pool)) if mask >> i & 1)
        if not shifts_within(instance, base, target, sub):
            continue
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
    if len(diff) > EXCHANGE_EDGE_CAP:
        raise TooLarge(
            f"{len(diff)} difference edges exceed the exchange cap of "
            f"{EXCHANGE_EDGE_CAP}"
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
