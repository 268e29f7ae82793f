"""Benchmark command for the bmatch type walk.

    python3 perfbench/run.py --workload sparse-card --seed 1 --seconds 20 --trace 0

Runs one workload against the package in `src/` of the checkout this file
sits in, checks every answer, and prints one JSON result as the last line:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
The line before it carries the environment, the raw times, the verdict
split and the failures by type.  The exit code is 0 when every answer is
right, 1 when one is wrong and 2 when the package cannot be found.  See
README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
# Names and units of the per-layer metrics.
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 7
# A timed run takes at least this many ops, so that ten or more lie beyond
# the 90th percentile.
MIN_OPS = 110

STATS_KEYS = ("iterations", "solved", "cached", "pruned")

# Speed calibration (README.md, "Calibrated times").  The loop below runs
# between ops whenever CAL_EVERY_S of op time has passed since the last
# sample.  Every reported time is scaled by CAL_REFERENCE_S over the median
# loop time of the CAL_WINDOW samples before and after it, so it reads as
# the time on a machine where one loop takes CAL_REFERENCE_S.
CAL_ROUNDS = 40
CAL_REFERENCE_S = 0.0015
CAL_EVERY_S = 0.02
CAL_WINDOW = 5


def calibration_loop() -> float:
    """Wall time of a fixed pure-Python loop that builds and reads small
    dicts, tuples and lists, as the package does.  The collector is off
    while it runs, so the heap the ops leave behind cannot slow it."""
    gc.disable()
    started = time.perf_counter()
    total = 0
    for r in range(CAL_ROUNDS):
        table: dict = {}
        items = []
        for i in range(60):
            key = (i * 7 % 23, r)
            table[key] = table.get(key, 0) + i
            items.append((i % 5, key))
        items.sort()
        total += len(table) + len({first for first, _ in items})
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed


def parse_args(argv: list[str] | None, workloads: tuple[str, ...]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--defects",
        action="store_true",
        help="add the ops that hit a known defect to the fixed ops",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="record the answers of the fixed and shared ops and the pool",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def _command(args: list[str]) -> list[str]:
    """This command again, in a fresh interpreter with the same -O flag."""
    return [sys.executable, *["-O"] * sys.flags.optimize, str(Path(__file__)), *args]


@dataclass
class Run:
    """Executes ops in a closed loop and keeps everything the report needs."""

    references: dict
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    verdicts: Counter = field(default_factory=Counter)
    verdict_s: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    records: dict = field(default_factory=dict)
    stats: Counter = field(default_factory=Counter)
    per_op: dict = field(default_factory=dict)
    calibration: list[float] = field(default_factory=list)
    since_calibration: float = 0.0

    def calibrate(self, samples: int = 1) -> None:
        for _ in range(samples):
            self.calibration.append(calibration_loop())
        self.since_calibration = 0.0

    def scaled(self, sample: tuple[float, int]) -> float:
        """A measured time as it reads at the reference speed; `sample` is
        the time and the index of the calibration sample after it."""
        elapsed, position = sample
        window = self.calibration[max(0, position - CAL_WINDOW) : position + CAL_WINDOW]
        return elapsed * CAL_REFERENCE_S / statistics.median(window)

    def execute(self, op, deadline: float | None = None) -> tuple[float, int] | None:
        """Time one op and check its answer; returns its time and the index
        of the calibration sample after it, or None if the deadline passed."""
        from workloads import SolveOp, judge

        if deadline is not None and time.perf_counter() >= deadline:
            return None
        stats = {} if self.tracer is not None and isinstance(op, SolveOp) else None
        if self.tracer is not None:
            self.tracer.op_id += 1
            before = Counter(self.tracer.counts)
        started = time.perf_counter()
        try:
            result = op.run(stats)
        except Exception as exc:  # every failure is counted, by type
            result = exc
        elapsed = time.perf_counter() - started
        outcome = judge(op, result, self.references.get(op.key))
        self.attempted += 1
        self.verdicts[outcome.verdict] += 1
        self.verdict_s[outcome.verdict] += elapsed
        self.records[op.key] = (outcome.record(), elapsed)
        if outcome.verdict == "error":
            self.errors[outcome.value] += 1
            print(f"op {op.key} raised {outcome.value}: {result}", file=sys.stderr)
        if outcome.failed:
            self.failed += 1
        for problem in outcome.problems:
            self.problems.append(f"{op.key}: {problem}")
            print(f"wrong answer, {op.key}: {problem}", file=sys.stderr)
        if stats is not None:
            for key in STATS_KEYS:
                self.stats[key] += stats.get(key, 0)
            after = self.tracer.counts
            self.per_op[op.key] = {
                **{key: stats.get(key, 0) for key in STATS_KEYS},
                "gadget.nodes": after["gadget.nodes"] - before["gadget.nodes"],
                "gadget.edges": after["gadget.edges"] - before["gadget.edges"],
            }
        position = len(self.calibration)
        self.since_calibration += elapsed
        if self.since_calibration >= CAL_EVERY_S:
            self.calibrate()
        return elapsed, position


Sample = tuple[float, int]  # measured seconds, next calibration index


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile, as the mean of the values between the (q-5)-th
    and (q+5)-th percentile.  A pass holds a few dozen distinct ops whose
    times can lie far apart, so a single order statistic jumps whenever two
    ops trade places; the mean of the band moves only by a share of it."""
    ordered = sorted(values)
    lo = int(len(ordered) * (q - 5) / 100)
    hi = max(lo + 1, -(-len(ordered) * (q + 5) // 100))
    return statistics.fmean(ordered[lo:hi])


@dataclass
class Timing:
    """Op and set-up times of one run, as samples."""

    fixed: list[Sample] = field(default_factory=list)
    fixed_again: list[Sample] = field(default_factory=list)  # after the passes
    passes: list[list[Sample]] = field(default_factory=list)
    partial: list[Sample] = field(default_factory=list)  # a pass cut short
    setup: list[float] = field(default_factory=list)  # calibrated already
    rss_mb: float = 0.0  # peak resident set after pass 0

    @property
    def ops(self) -> list[Sample]:
        """Every timed op; a pass runs in random order, so the ops of a cut
        pass are a fair sample of its make-up."""
        ops = self.fixed + self.fixed_again + self.partial
        return ops + [s for times in self.passes for s in times]

    def metrics(self, scaled) -> dict[str, float]:
        """The time metrics, with each sample converted by `scaled`.

        `run_s` is the fixed ops, as the mean of their runs, plus the median
        pass; it comes from complete passes only, so every pass time has the
        same make-up."""
        ms = [scaled(s) * 1000 for s in self.ops]
        runs = 1 + bool(self.fixed_again)
        fixed = sum(map(scaled, self.fixed + self.fixed_again)) / runs
        return {
            "setup_s": statistics.median(self.setup) if self.setup else 0.0,
            "run_s": fixed
            + statistics.median(sum(map(scaled, times)) for times in self.passes),
            "op_p50_ms": percentile(ms, 50),
            "op_p90_ms": percentile(ms, 90),
        }


def time_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: from the start of `main` through
    the import of the package to the built inputs of the fixed ops and
    pass 0, as the interpreter measures and calibrates it itself."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(
        _command(args), cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child exited {done.returncode}: {done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(
    run: Run, workload: str, seed: int, seconds: float, ops: list, pool: list[str]
) -> Timing:
    """`ops`, then passes for `seconds` with a set-up sample after each of
    the first passes and the rest after the last, then `ops` again unless
    `seconds` is 0.

    The fixed ops run at both ends of a run and count with their mean:
    scale60 alone is a single op of about 3 s, and the machine's speed
    drifts over seconds.

    Pass 0 always completes, and so does every pass that starts before
    MIN_OPS ops are timed (unless `seconds` is 0).  The set-up samples do
    not count towards `seconds`.
    """
    from workloads import MAX_PASSES, pass_ops

    timing = Timing()
    run.calibrate(CAL_WINDOW)
    timing.fixed = [run.execute(op) for op in ops]
    deadline = time.perf_counter() + seconds
    min_ops = MIN_OPS if seconds > 0 else 0
    setups = SETUP_REPEATS if seconds > 0 else 0

    def short() -> bool:
        return not timing.passes or len(timing.ops) < min_ops

    while len(timing.passes) < MAX_PASSES and (short() or time.perf_counter() < deadline):
        todo = pass_ops(workload, seed, len(timing.passes), pool)
        gc.collect()
        first = not timing.passes
        cut = None if short() else deadline
        times = [run.execute(op, cut) for op in todo]
        if None in times:
            timing.partial = times[: times.index(None)]
            break
        timing.passes.append(times)
        if first:
            timing.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(timing.setup) < setups:
            started = time.perf_counter()
            timing.setup.append(time_setup(workload, seed))
            deadline += time.perf_counter() - started
    while len(timing.setup) < setups:
        timing.setup.append(time_setup(workload, seed))
    if seconds > 0:
        gc.collect()
        timing.fixed_again = [run.execute(op) for op in ops]
    run.calibrate(CAL_WINDOW)
    return timing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: Run, tracer, traced_s: float, untraced_s: float) -> dict:
    counts = tracer.counts
    self_s = tracer.self_times()
    stats = run.stats
    values = {
        "cache.hit_ratio": _ratio(stats["cached"], stats["solved"] + stats["cached"]),
        "prune.ratio": _ratio(stats["pruned"], counts["candidates.count"]),
        "improve.ratio": _ratio(stats["iterations"], stats["solved"]),
        "verdict.feasible_s": run.verdict_s["feasible"],
        "verdict.infeasible_s": run.verdict_s["infeasible"],
        "ops.failed_frac": _ratio(run.failed, run.attempted),
        "trace.overhead": traced_s / untraced_s - 1,
    }
    for key in STATS_KEYS:
        values[f"stats.{key}"] = stats[key]
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}
    for name in units.keys() - values.keys():
        layer, _, what = name.rpartition(".")
        values[name] = self_s.get(layer, 0.0) if what == "self_s" else counts[name]
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def record(workload: str) -> int:
    """Solve the fixed and shared ops and the pool candidates once and
    write their answers to reference.json."""
    import workloads

    run = Run({})
    ops = workloads.fixed_ops(workload)
    for index in range(workloads.MAX_PASSES if workload == "verify" else 1):
        ops += workloads.shared_ops(workload, index)
    for op in ops:
        run.execute(op)
    answers = {key: answer for key, (answer, _s) in run.records.items()}
    if run.failed:
        print(f"{run.failed} fixed or shared ops failed: {run.errors}", file=sys.stderr)
        return 1
    fixed = {op.key for op in workloads.fixed_ops(workload)}
    slowest = max(s for key, (_a, s) in run.records.items() if key not in fixed)
    pool, excluded = [], {}
    candidates = []
    if workload in workloads.SEEDED_PER_PASS:
        candidates = workloads.pool_candidates(workload)
    for key in candidates:
        run.execute(workloads.planted_op(key))
        (answer, elapsed) = run.records[key]
        if answer[0] == "error" or elapsed > slowest:
            excluded[key] = answer[1] if answer[0] == "error" else f"{elapsed:.2f} s"
        else:
            pool.append(key)
            answers[key] = answer
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[workload] = {"answers": answers, "pool": pool, "excluded": excluded}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"workload": workload, "answers": len(answers),
                      "pool": len(pool), "excluded": excluded}))
    return 0


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    if not (SRC / "bmatch" / "__init__.py").is_file():
        print(f"no bmatch package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import bmatch

    if not Path(bmatch.__file__).resolve().is_relative_to(SRC):
        print(f"bmatch imported from {bmatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.record:
        return record(args.workload)
    reference = json.loads(REFERENCE.read_text())[args.workload]
    references = {**reference["answers"], **workloads.DEFECT_REFERENCES}
    pool = reference["pool"]
    if args.setup_only:
        workloads.fixed_ops(args.workload)
        workloads.pass_ops(args.workload, args.seed, 0, pool)
        setup = Run({})
        setup.calibrate(CAL_WINDOW)
        print(setup.scaled((time.perf_counter() - started, 0)))
        return 0

    ops = workloads.fixed_ops(args.workload)
    if args.defects:
        ops += workloads.defect_ops(args.workload)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        run = Run(references, tracer)
        with tracer:
            timing = run_workload(run, args.workload, args.seed, 0.0, ops, pool)
        child = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--trace", "0"] + ["--defects"] * args.defects
        done = subprocess.run(_command(child), cwd=ROOT, capture_output=True,
                              text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"untraced child exited {done.returncode}: {done.stderr}")
        untraced = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = layer_metrics(
            run, tracer, timing.metrics(run.scaled)["run_s"],
            untraced["metrics"]["run_s"]["value"],
        )
        fixed = {op.key for op in ops}
        info = {"fixed_ops": {k: v for k, v in run.per_op.items() if k in fixed}}
    else:
        run = Run(references)
        timing = run_workload(run, args.workload, args.seed, args.seconds, ops, pool)
        units = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in timing.metrics(run.scaled).items()
        }
        info = {
            "raw": {
                name: value
                for name, value in timing.metrics(lambda sample: sample[0]).items()
                if name != "setup_s"
            },
            "calibration_ms": {
                "median": statistics.median(run.calibration) * 1000,
                "samples": len(run.calibration),
            },
            "passes": len(timing.passes),
            "timed_ops": len(timing.ops),
        }
        metrics["peak_rss_mb"] = {"value": timing.rss_mb, "unit": "MiB"}

    info.update(
        workload=args.workload,
        environment=environment(args.seed),
        verdicts={
            verdict: {"count": count, "s": run.verdict_s[verdict]}
            for verdict, count in sorted(run.verdicts.items())
        },
        errors=dict(run.errors),
        failed_frac=_ratio(run.failed, run.attempted),
        wrong=run.problems[:20],
    )
    print(json.dumps(info, sort_keys=True))
    correct = not run.problems
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
