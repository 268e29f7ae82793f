"""The four benchmark workloads: op lists and the check of every answer.

An op is one call into the package by a single caller: `solve` on one
instance, or one `run_verification_suite` call.  A run executes the
workload's fixed ops once and then passes 0, 1, 2, ... until its time is up.
A pass is the workload's shared ops, the same for every seed, plus a few
seeded ops, new in every pass and drawn from the seed's stream; its order is
shuffled by the seed.  Every pass has the same make-up (the same sizes,
profiles and objectives), so pass times compare.  See README.md for why
the shares are what they are.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

from bmatch import neighbourhood, oracle
from bmatch.core import (
    BInstance,
    Certificate,
    DegreeSet,
    Matching,
    check_certificate,
    matching_weight,
    parse_instance,
)
from bmatch.gen import random_instance
from planted import planted_instance

WORKLOADS = ("sparse-card", "dense-weight", "feasibility", "verify")
# The repository's own fixtures, next to the benchmark's directory.
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# No run executes more passes than this; `verify` has recorded answers for
# the shared calls of every one of them.
MAX_PASSES = 64

# sparse-card: (profile, objective, sizes n) of the shared ops, average
# degree 5.  Mixed walks prune less and have outliers of 5-15 s from n=22
# on, so those strata stay at n=16..20.
SPARSE_STRATA = (
    ("interval", "max-card", (22, 20, 22, 24)),
    ("interval", "min-card", (26, 24, 26, 28)),
    ("mixed", "max-card", (18, 16, 18, 18)),
    ("mixed", "min-card", (20, 18, 20, 20)),
)
# dense-weight: the same, average degree 12 and weights 1..9.  Max-weight
# walks take the most steps, so those strata stay at n=4.
DENSE_DEGREE = 12
DENSE_STRATA = (
    ("interval", "max-weight", (4, 4, 4, 4, 4, 4)),
    ("interval", "min-weight", (5, 5, 5, 5, 5, 5)),
    ("mixed", "max-weight", (4, 4, 4, 4, 4, 4)),
    ("mixed", "min-weight", (5, 5, 5, 5, 5, 5)),
)
# The pool that seeded ops are drawn from is this many rounds of the
# strata's sizes.  `--record` leaves a candidate out when `solve` raises on
# it or takes longer than the slowest shared op, so that a seeded op cannot
# decide the tail of a pass on its own.
POOL_ROUNDS = 3
# feasibility: (n, shared window length) per profile, m = 2.5 n, and the
# seeded window: that many consecutive instance seeds at n=20 for each of
# SEEDED_PROFILES.
FEASIBILITY_WINDOWS = ((20, 15), (30, 4), (40, 2))
FEASIBILITY_PROFILES = ("interval", "parity", "mixed")
FEASIBILITY_SEEDED = 3
SEEDED_PROFILES = ("interval", "mixed")
# verify: checks per call for each suite, chosen so that a call of any
# suite takes about the same time (a theorem check is 2.5x cheaper), and
# shared calls per suite in a pass.
VERIFY_COUNTS = {"theorem": 250, "exchange": 100, "lemma2": 100}
VERIFY_CALLS = 4
VERIFY_SEEDED = ("theorem", "exchange")
# Seeded ops per pass of the walk workloads.
SEEDED_PER_PASS = {"sparse-card": 2, "dense-weight": 2}


@dataclass(frozen=True)
class SolveOp:
    """`solve` on one instance; `plant` is a known feasible matching."""

    key: str
    instance: BInstance
    plant: frozenset[int] | None = None

    def run(self, stats: dict | None = None):
        return neighbourhood.solve(self.instance, stats=stats)


@dataclass(frozen=True)
class SuiteOp:
    """One `run_verification_suite` call."""

    key: str
    suite: str
    seed: int
    count: int

    def run(self, stats: dict | None = None):
        return oracle.run_verification_suite(self.suite, self.seed, self.count)


Op = SolveOp | SuiteOp


def planted_op(key: str) -> SolveOp:
    """The planted op named by `key`, as `planted/<profile>/<objective>/
    n<n>/m<m>/s<seed>`; weights are 1 for cardinality and 1..9 for weight
    objectives."""
    _, profile, objective, n, m, seed = key.split("/")
    weights = (1, 1) if objective.endswith("card") else (1, 9)
    instance, plant = planted_instance(
        int(seed[1:]), int(n[1:]), int(m[1:]),
        profile=profile, weights=weights, objective=objective,
    )
    return SolveOp(key, instance, plant)


def _planted_keys(workload: str, rng: random.Random) -> list[str]:
    sparse = workload == "sparse-card"
    keys = []
    for profile, objective, sizes in SPARSE_STRATA if sparse else DENSE_STRATA:
        for n in sizes:
            m = round(2.5 * n) if sparse else n * DENSE_DEGREE // 2
            keys.append(f"planted/{profile}/{objective}/n{n}/m{m}/s{rng.randrange(1 << 30)}")
    return keys


def pool_candidates(workload: str) -> list[str]:
    """Keys of the planted instances that `--record` tries for the pool."""
    rng = random.Random(f"{workload}/pool")
    keys: list[str] = []
    for _ in range(POOL_ROUNDS):
        keys += _planted_keys(workload, rng)
    return keys


def _fixture(name: str, objective: str) -> SolveOp:
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return SolveOp(f"fixture/{name}/{objective}", parse_instance(text, objective))


def _zero_to_degree(n: int, m: int) -> SolveOp:
    """B(v) = [0, d(v)]: the empty matching is feasible and min-card optimal."""
    graph = random_instance(0, n, m, profile="interval").graph
    sets = tuple(DegreeSet(tuple(range(graph.degree(v) + 1))) for v in range(n))
    instance = BInstance(graph, sets, "min-card")
    return SolveOp(f"zero-to-degree/n{n}/m{m}/min-card", instance, frozenset())


# The true answers of the defect ops, found without the failing code path
# (README.md, "Known defects").
DEFECT_REFERENCES = {
    "zero-to-degree/n300/m1500/min-card": ["feasible", 0],
    "random/parity/n40/m100/s256": ["infeasible", None],
}


def defect_ops(workload: str) -> list[Op]:
    """Ops that hit a known defect today; they run only with `--defects`."""
    if workload == "feasibility":
        known = random_instance(256, 40, 100, profile="parity")
        return [
            _zero_to_degree(300, 1500),
            SolveOp("random/parity/n40/m100/s256", known),
        ]
    if workload == "verify" and not sys.flags.optimize:
        # Under -O the call does not return, so it runs with asserts only.
        return [SuiteOp("suite/lemma2/s628708120/c100", "lemma2", 628708120, 100)]
    return []


def fixed_ops(workload: str) -> list[Op]:
    """Seed-independent ops, run once at the start of every run."""
    if workload == "sparse-card":
        return [
            _fixture("fig2.bm", "max-card"),
            _fixture("scale60.bm", "max-card"),
        ]
    return []


def _random_op(profile: str, n: int, inst_seed: int) -> SolveOp:
    m = round(2.5 * n)
    instance = random_instance(inst_seed, n, m, profile=profile)
    return SolveOp(f"random/{profile}/n{n}/m{m}/s{inst_seed}", instance)


def _suite_op(suite: str, suite_seed: int) -> SuiteOp:
    count = VERIFY_COUNTS[suite]
    return SuiteOp(f"suite/{suite}/s{suite_seed}/c{count}", suite, suite_seed, count)


def shared_ops(workload: str, pass_index: int) -> list[Op]:
    """The ops every seed runs in a pass.  They are the same in every pass,
    except in `verify`, whose calls are drawn afresh for each pass: a suite
    call repeated in one process would be answered from the process-wide
    cache in `bmatch.structure`."""
    if workload in SEEDED_PER_PASS:
        return [planted_op(k) for k in _planted_keys(workload, random.Random(workload))]
    if workload == "feasibility":
        base = random.Random(workload).randrange(1 << 30)
        return [
            _random_op(profile, n, base + i)
            for n, length in FEASIBILITY_WINDOWS
            for profile in FEASIBILITY_PROFILES
            for i in range(length)
        ]
    if workload == "verify":
        rng = random.Random(f"verify/shared/{pass_index}")
        return [
            _suite_op(suite, rng.randrange(1 << 30))
            for suite in VERIFY_COUNTS
            for _ in range(VERIFY_CALLS)
        ]
    raise ValueError(f"workload must be one of {WORKLOADS}, got {workload!r}")


def pass_ops(workload: str, seed: int, pass_index: int, pool: list[str]) -> list[Op]:
    """The ops of one pass: the shared ops and the seeded ones, in an order
    drawn from the seed's stream.  `pool` is the recorded pool of the walk
    workloads; the seed picks from it without repeats until it is used up."""
    own = random.Random(f"{workload}/{seed}/{pass_index}")
    ops = shared_ops(workload, pass_index)
    if workload in SEEDED_PER_PASS:
        order = list(pool)
        random.Random(f"{workload}/{seed}").shuffle(order)
        per_pass = SEEDED_PER_PASS[workload]
        for i in range(per_pass):
            ops.append(planted_op(order[(pass_index * per_pass + i) % len(order)]))
    elif workload == "feasibility":
        base = own.randrange(1 << 30)
        for profile in SEEDED_PROFILES:
            ops += [_random_op(profile, 20, base + i) for i in range(FEASIBILITY_SEEDED)]
    else:
        ops += [_suite_op(suite, own.randrange(1 << 30)) for suite in VERIFY_SEEDED]
    own.shuffle(ops)
    return ops


def objective_value(instance: BInstance, matching: Matching) -> int:
    if instance.objective.endswith("card"):
        return len(matching)
    return matching_weight(instance.graph, matching)


@dataclass(frozen=True)
class Outcome:
    """What one op answered, and whatever is wrong with the answer."""

    verdict: str  # "feasible", "infeasible", "suite" or "error"
    value: object  # optimum value, [checked, skipped], or the error type
    problems: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return self.verdict == "error" or bool(self.problems)

    def record(self) -> list:
        return [self.verdict, self.value]


def judge(op: Op, result, reference: list | None) -> Outcome:
    """Check one answer: certificate, plant, suite failures, recorded answer.

    `result` is what the op returned, or the exception it raised.  An
    exception is a failed op but not a wrong answer.
    """
    if isinstance(result, BaseException):
        return Outcome("error", type(result).__name__)
    problems: list[str] = []
    if isinstance(op, SuiteOp):
        outcome = Outcome("suite", [result.checked, result.skipped])
        problems.extend(result.failures)
    elif result is None:
        outcome = Outcome("infeasible", None)
        if op.plant is not None:
            problems.append("planted instance reported infeasible")
    else:
        instance = op.instance
        value = objective_value(instance, result)
        outcome = Outcome("feasible", value)
        cert = Certificate(
            len(result), matching_weight(instance.graph, result), result
        )
        problems.extend(check_certificate(instance, cert))
        if op.plant is not None:
            planted = objective_value(instance, Matching(op.plant))
            worse = value < planted if instance.objective.startswith("max") else (
                value > planted
            )
            if worse:
                problems.append(f"optimum {value} is worse than the plant's {planted}")
    if reference is not None and outcome.record() != reference:
        problems.append(f"answer {outcome.record()} != recorded {reference}")
    return Outcome(outcome.verdict, outcome.value, tuple(problems))
