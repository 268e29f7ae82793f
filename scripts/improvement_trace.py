"""Narrate the type walk from a first feasible matching to the optimum, one
line per improvement step.

`solve` runs this walk only when the answer of its uniform relaxation is
not a B-matching and the solve of that answer's rounding does not reach
the relaxation's weight; it then starts from the rounding's answer, or
from `find_feasible`'s matching when the rounding has no solution, and
stops once the relaxation's weight is reached.  This script always walks
from `find_feasible`'s lexicographically first matching, so every
instance shows its steps.

Each line shows the parity-interval index per vertex (the matching's type),
so the walk through neighbouring types is visible directly.

    python3 scripts/improvement_trace.py --input fixtures/fig2.bm
    python3 scripts/improvement_trace.py --profile interval --seed 4 --n 12 --m 30
"""

import argparse

from bmatch.core import OBJECTIVES, current_type, matching_weight, parse_instance
from bmatch.gen import PROFILES, random_instance
from bmatch.neighbourhood import find_feasible, improvement_step


def type_label(indices: tuple[int, ...]) -> str:
    return "".join(str(i) if i < 10 else "+" for i in indices)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", help="instance file; omit to generate one")
    parser.add_argument("--objective", choices=OBJECTIVES, default="max-card")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--m", type=int, default=30)
    parser.add_argument("--profile", choices=PROFILES, default="interval")
    args = parser.parse_args(argv)

    if args.input is not None:
        with open(args.input, encoding="utf-8") as handle:
            instance = parse_instance(handle.read(), args.objective)
    else:
        try:
            instance = random_instance(
                args.seed, args.n, args.m, profile=args.profile, objective=args.objective
            )
        except ValueError as exc:
            parser.error(str(exc))

    matching = find_feasible(instance)
    if matching is None:
        print("instance is infeasible")
        return 2

    seen: set = set()
    stats: dict = {}
    step = 0
    while True:
        indices = current_type(instance, matching)
        print(
            f"step {step:>3}  size {len(matching):>3}  "
            f"weight {matching_weight(instance.graph, matching):>4}  "
            f"type {type_label(indices)}"
        )
        better = improvement_step(instance, matching, seen=seen, stats=stats)
        if better is None:
            break
        matching = better
        step += 1

    print(
        f"optimal after {step} steps "
        f"({stats.get('solved', 0)} candidate solves, {stats.get('cached', 0)} cached, "
        f"{stats.get('pruned', 0)} pruned)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
