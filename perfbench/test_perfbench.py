"""Tests of the benchmark's own parts: the planted generator, the op lists,
the tracer, the timing statistics and the answer check.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from bmatch import neighbourhood, oracle, uniform  # noqa: E402
from bmatch.core import OBJECTIVES, Matching, degrees, validate  # noqa: E402
from bmatch.gen import PROFILES, random_instance  # noqa: E402
from planted import planted_instance  # noqa: E402
from run import REFERENCE, Run, percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MAX_PASSES,
    SEEDED_PER_PASS,
    WORKLOADS,
    SolveOp,
    SuiteOp,
    fixed_ops,
    judge,
    pass_ops,
    shared_ops,
)

REFERENCES = json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("profile", PROFILES)
def test_planted_instances_are_valid_and_the_plant_is_feasible(profile, objective):
    for seed in range(40):
        n = 3 + seed % 20
        instance, plant = planted_instance(
            seed, n, 1 + seed * 3, profile=profile, weights=(-3, 9), objective=objective
        )
        assert validate(instance) == []
        assert instance.objective == objective
        deg = degrees(instance.graph, Matching(plant))
        assert all(deg[v] in instance.b(v) for v in range(n))


def test_planted_instances_repeat_for_a_seed():
    assert planted_instance(5, 12, 30) == planted_instance(5, 12, 30)
    assert planted_instance(5, 12, 30) != planted_instance(6, 12, 30)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_pass_is_the_shared_ops_plus_a_few_seeded_ones(workload):
    pool = REFERENCES[workload]["pool"]
    keys = [op.key for op in pass_ops(workload, 3, 0, pool)]
    assert keys == [op.key for op in pass_ops(workload, 3, 0, pool)]
    shared = {op.key for op in shared_ops(workload, 0)}
    seeded = [key for key in keys if key not in shared]
    assert shared <= set(keys)
    assert 0 < len(seeded) < len(shared) / 4
    other_seed = {op.key for op in pass_ops(workload, 4, 0, pool)}
    assert other_seed & set(keys) == shared
    if workload in SEEDED_PER_PASS:
        assert set(seeded) <= set(pool)
    next_pass = {op.key for op in shared_ops(workload, 1)}
    assert (next_pass == shared) == (workload != "verify")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_fixed_and_shared_op_has_a_recorded_answer(workload):
    answers = REFERENCES[workload]["answers"]
    passes = MAX_PASSES if workload == "verify" else 1
    ops = fixed_ops(workload)
    for index in range(passes):
        ops += shared_ops(workload, index)
    assert all(op.key in answers for op in ops)
    assert all(key in answers for key in REFERENCES[workload]["pool"])


def test_the_percentile_is_the_mean_of_its_band():
    assert percentile(list(range(100)), 90) == 89.5
    assert percentile(list(range(100)), 50) == 49.5
    assert percentile([5.0], 90) == 5.0
    # Two ops trading places near the 90th percentile move it by a share
    # of their gap, not by all of it.
    values = [1.0] * 85 + [10.0] * 15
    swapped = [1.0] * 86 + [10.0] * 14
    assert percentile(values, 90) - percentile(swapped, 90) <= 9.0 / 10 + 1e-9


def test_times_are_scaled_by_the_calibration_around_them():
    run = Run({})
    run.calibration = [0.001] * 5 + [0.002] * 10
    assert run.scaled((1.0, 0)) == pytest.approx(1.5)
    assert run.scaled((1.0, 15)) == pytest.approx(0.75)


def _small_ops() -> list:
    instance, plant = planted_instance(3, 12, 30, profile="mixed")
    dense, dense_plant = planted_instance(
        4, 4, 24, profile="interval", weights=(1, 9), objective="max-weight"
    )
    return [
        fixed_ops("sparse-card")[0],
        SolveOp("sparse", instance, plant),
        SolveOp("dense", dense, dense_plant),
        SolveOp("random", random_instance(17, 20, 50, profile="parity")),
        SuiteOp("theorem", "theorem", 2, 6),
        SuiteOp("exchange", "exchange", 2, 4),
        SuiteOp("lemma2", "lemma2", 2, 4),
    ]


def test_traced_and_untraced_runs_return_identical_answers():
    untraced = [op.run() for op in _small_ops()]
    def patched():
        return uniform.ab_to_pm, neighbourhood.solve_uniform, oracle.canonical_structure

    originals = patched()
    tracer = Tracer()
    with tracer:
        assert uniform.ab_to_pm is not originals[0]
        traced = [
            op.run({} if isinstance(op, SolveOp) else None) for op in _small_ops()
        ]
    assert traced == untraced
    assert patched() == originals
    assert tracer.counts["blossom.calls"] > 0
    assert tracer.counts["enumerate_b_matchings.calls"] > 0
    assert tracer.counts["canonical_structure.calls"] > 0


def test_self_times_cover_each_span_once():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    total = tracer.span_end[outer] - tracer.span_start[outer]
    self_times = tracer.self_times()
    assert self_times["outer"] + self_times["inner"] == pytest.approx(total)
    assert list(tracer.span_parent) == [-1, 0]


def test_scale60_counts_match_the_recorded_walk():
    op = fixed_ops("sparse-card")[1]
    tracer = Tracer()
    stats: dict = {}
    with tracer:
        op.run(stats)
    assert stats == {"iterations": 7, "solved": 139, "cached": 0, "pruned": 3164}
    assert tracer.counts["gadget.nodes"] == 59110
    assert tracer.counts["gadget.edges"] == 125238


def test_judge_flags_wrong_answers_and_counts_errors():
    instance, plant = planted_instance(3, 12, 30)
    op = SolveOp("op", instance, plant)
    best = op.run()
    good = judge(op, best, None)
    assert good.verdict == "feasible" and not good.failed
    assert judge(op, best, good.record()).problems == ()
    assert judge(op, best, ["feasible", good.value + 1]).problems
    assert judge(op, None, None).problems  # a planted instance is feasible
    assert op.plant  # so the empty matching is worse than the plant for max-card
    assert judge(op, Matching(frozenset()), None).problems
    error = judge(op, RecursionError("deep"), good.record())
    assert error.failed and error.problems == () and error.value == "RecursionError"
    wrong = judge(op, best, ["infeasible", None]).problems
    assert wrong == (f"answer {good.record()} != recorded ['infeasible', None]",)


def test_command_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
