"""Command-line front end: solve, check, oracle, decompose, gadget, gen.

Every command reads and writes the line-oriented formats defined in the
core module.  Reports go to stdout in a text or structured (JSON) layout;
progress traces go to stderr.  Exit codes: 0 when the run is optimal,
feasible or valid; 2 when an instance is infeasible, a certificate fails,
or a verified property does not hold; 1 on usage or internal errors.

All output is byte-identical across runs for identical inputs and flags,
with one exception: the wall_time_ms report field is honestly measured.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from bmatch.core import (
    EMPTY_MATCHING,
    OBJECTIVES,
    BInstance,
    DegreeSet,
    GapTooLong,
    Matching,
    NotFeasible,
    ParseError,
    check_certificate,
    degrees,
    format_certificate,
    format_instance,
    matching_weight,
    parse_certificate,
    parse_instance,
    validate,
)
from bmatch.gen import PROFILES, random_instance
from bmatch.neighbourhood import improvement_step, solve
from bmatch.oracle import (
    EDGE_CAP,
    SUITE_NAMES,
    TooLarge,
    oracle_optimum,
    run_verification_suite,
)
from bmatch.reduce import BadSpec, ab_to_pm, uniform_to_ab
from bmatch.structure import apply, extract_canonical_sequence, weight_of
from bmatch.uniform import spec_of_instance

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2

FORMATS = ("text", "structured")


class UsageError(ValueError):
    """Bad flag combination or input outside a command's domain."""


def _report(fmt: str, payload: dict, lines: list[str] | None = None) -> None:
    """Write a report to stdout: one JSON object with sorted keys when
    structured; else the given lines, or one `key value` line per entry
    with list values space-separated."""
    if fmt == "structured":
        text = json.dumps(payload, sort_keys=True)
    elif lines is not None:
        text = "\n".join(lines)
    else:
        rows = (
            (key, " ".join(map(str, value)) if isinstance(value, list) else value)
            for key, value in payload.items()
        )
        text = "\n".join(f"{key} {value}".rstrip() for key, value in rows)
    sys.stdout.write(text + "\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _reject_long_gaps(instance: BInstance) -> None:
    """The solver needs gaps of at most 1; an empty effective set is only infeasible."""
    for flaw in validate(instance):
        if isinstance(flaw, GapTooLong):
            raise UsageError(f"degree set of vertex {flaw.vertex} has a gap longer than 1")


def _checked_certificate(instance: BInstance, path: str) -> tuple[Matching, list[str]]:
    """Parse a certificate file and check it against the instance."""
    cert = parse_certificate(_read(path))
    return cert.matching, check_certificate(instance, cert)


def _trace_fn(enabled: bool):
    if not enabled:
        return lambda message: None
    return lambda message: print(message, file=sys.stderr)


# -- solve -------------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.input), args.objective)
    _reject_long_gaps(instance)
    stats: dict = {}
    started = time.perf_counter()
    matching = solve(instance, trace=_trace_fn(args.trace), stats=stats)
    elapsed_ms = round((time.perf_counter() - started) * 1000)
    g = instance.graph
    found = matching if matching is not None else EMPTY_MATCHING
    _report(
        args.format,
        {
            "status": "infeasible" if matching is None else "optimal",
            "size": len(found),
            "weight": matching_weight(g, found),
            "edges": sorted(found.selected),
            "degrees": degrees(g, found),
            "iterations": stats.get("iterations", 0),
            "candidates_solved": stats.get("solved", 0),
            "wall_time_ms": elapsed_ms,
        },
    )
    if matching is None:
        return EXIT_NEGATIVE
    if args.output:
        _write(args.output, format_certificate(g, matching))
    return EXIT_OK


# -- check -------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.input), args.objective)
    if args.assert_optimal:
        _reject_long_gaps(instance)
    matching, problems = _checked_certificate(instance, args.certificate)
    g = instance.graph
    payload: dict = {
        "valid": not problems,
        "problems": problems,
        "size": len(matching),
        # in-range edges only: an out-of-range index is reported as a problem
        "weight": sum(w for e, (_u, _v, w) in enumerate(g.edges) if e in matching),
    }
    if not problems and args.assert_optimal:
        payload["optimal"] = improvement_step(instance, matching) is None
    lines = [f"valid {'true' if payload['valid'] else 'false'}"]
    lines.extend(f"problem {p}" for p in problems)
    lines.append(f"size {payload['size']}")
    lines.append(f"weight {payload['weight']}")
    if "optimal" in payload:
        lines.append(f"optimal {'true' if payload['optimal'] else 'false'}")
    _report(args.format, payload, lines)
    if problems or payload.get("optimal") is False:
        return EXIT_NEGATIVE
    return EXIT_OK


# -- oracle ------------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.verify is None):
        raise UsageError("oracle needs exactly one of --input or --verify")
    # Each mode's own flags default to None, so a flag of the other mode shows.
    mode, foreign = (
        ("--verify", {"--oracle-limit": args.oracle_limit, "--objective": args.objective})
        if args.verify is not None
        else ("--input", {"--seed": args.seed, "--count": args.count})
    )
    given = [flag for flag, value in foreign.items() if value is not None]
    if given:
        raise UsageError(f"{', '.join(given)} not allowed with {mode}")
    if args.verify is not None:
        seed = 0 if args.seed is None else args.seed
        count = 50 if args.count is None else args.count
        if count < 0:
            raise UsageError("--count must be nonnegative")
        report = run_verification_suite(args.verify, seed, count)
        lines = [
            f"suite {report.name}",
            f"checked {report.checked}",
            f"skipped {report.skipped}",
            f"failures {len(report.failures)}",
        ]
        lines.extend(f"failure {f}" for f in report.failures)
        payload = {
            "suite": report.name,
            "checked": report.checked,
            "skipped": report.skipped,
            "failures": list(report.failures),
        }
        _report(args.format, payload, lines)
        return EXIT_OK if report.ok else EXIT_NEGATIVE
    limit = EDGE_CAP if args.oracle_limit is None else args.oracle_limit
    if limit < 0:
        raise UsageError("--oracle-limit must be nonnegative")
    instance = parse_instance(_read(args.input), args.objective or "max-card")
    best = oracle_optimum(instance, limit=limit)
    payload = {"sense": instance.objective}
    if best is None:
        payload["status"] = "infeasible"
    else:
        payload["status"] = "optimal"
        payload["value"] = best[0]
        payload["edges"] = sorted(best[1].selected)
    _report(args.format, payload)
    return EXIT_OK if best is not None else EXIT_NEGATIVE


# -- decompose ---------------------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.input))
    _reject_long_gaps(instance)
    m_a, problems_a = _checked_certificate(instance, args.matching_a)
    m_b, problems_b = _checked_certificate(instance, args.matching_b)
    for label, problems in (("a", problems_a), ("b", problems_b)):
        if problems:
            print(f"matching-{label} invalid: {problems[0]}", file=sys.stderr)
            return EXIT_NEGATIVE
    cycles, steps = extract_canonical_sequence(instance, m_a, m_b)
    running = m_a
    cycle_rows = []
    for walk in cycles:
        cycle_rows.append(
            {
                "edges": sorted(walk.edges),
                "weight": weight_of(instance, running, walk.edge_set),
            }
        )
        running = apply(running, walk.edge_set)
    step_rows = []
    for s in steps:
        step_rows.append(
            {
                "v_first": s.v_first,
                "v_last": s.v_last,
                "edges": sorted(s.edge_set),
                "weight": weight_of(instance, running, s.edge_set),
            }
        )
        running = apply(running, s.edge_set)
    lines = [f"cycles {len(cycle_rows)}"]
    for i, row in enumerate(cycle_rows):
        edges = " ".join(str(e) for e in row["edges"])
        lines.append(f"cycle {i} weight {row['weight']} edges {edges}")
    lines.append(f"steps {len(step_rows)}")
    for i, row in enumerate(step_rows):
        edges = " ".join(str(e) for e in row["edges"])
        lines.append(
            f"step {i} endpoints {row['v_first']} {row['v_last']} "
            f"weight {row['weight']} edges {edges}"
        )
    _report(args.format, {"cycles": cycle_rows, "steps": step_rows}, lines)
    return EXIT_OK


# -- gadget ------------------------------------------------------------------------


def _range_set(lo: int, hi: int) -> DegreeSet:
    return DegreeSet(tuple(range(lo, hi + 1)))


def _origin_comments(edge_count: int, source_edges: int) -> list[str]:
    return [
        f"edge {e} <- original {e}" if e < source_edges else f"edge {e} <- gadget"
        for e in range(edge_count)
    ]


def cmd_gadget(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.input))
    spec = spec_of_instance(instance)
    if args.stage == "uniform":
        comments = ["stage uniform"]
        for v, s in enumerate(spec):
            shape = "interval" if s.step == 1 else "parity"
            comments.append(f"vertex {v} {shape} {s[0]}..{s[-1]}")
        _write(args.output, format_instance(instance, comments))
        return EXIT_OK
    ab, source_edges = uniform_to_ab(instance, spec)
    if args.stage == "ab":
        comments = ["stage ab", *_origin_comments(ab.graph.edge_count, source_edges)]
        dumped = BInstance(
            ab.graph,
            tuple(_range_set(ab.a[v], ab.b[v]) for v in range(ab.graph.vertex_count)),
        )
        _write(args.output, format_instance(dumped, comments))
        return EXIT_OK
    reduced, ab_edges = ab_to_pm(ab)
    comments = [
        "stage pm",
        "'original' indices refer to the ab stage",
        *_origin_comments(len(reduced.edges), ab_edges),
    ]
    dumped = BInstance(
        reduced, tuple(DegreeSet((1,)) for _ in range(reduced.vertex_count))
    )
    _write(args.output, format_instance(dumped, comments))
    return EXIT_OK


# -- gen ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 0 or args.m < 0:
        raise UsageError("--n and --m must be nonnegative")
    if args.min_weight > args.max_weight:
        raise UsageError("--min-weight must not exceed --max-weight")
    try:
        instance = random_instance(
            args.seed,
            args.n,
            args.m,
            profile=args.profile,
            weights=(args.min_weight, args.max_weight),
            loops=not args.no_loops,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    comment = (
        f"generated: seed={args.seed} n={args.n} m={args.m} "
        f"profile={args.profile} weights={args.min_weight}..{args.max_weight} "
        f"loops={not args.no_loops}"
    )
    _write(args.output, format_instance(instance, [comment]))
    return EXIT_OK


# -- entry point -------------------------------------------------------------------


def _objective_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="max-card",
        help="objective sense (default max-card)",
    )


def _format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report layout (default text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmatch",
        description=(
            "Exact B-matching solver for degree sets without long gaps: "
            "solve instances, check certificates, cross-check against the "
            "exhaustive oracle, and inspect decompositions and reductions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance to optimality")
    p.add_argument("--input", required=True, help="instance file")
    _objective_flag(p)
    _format_flag(p)
    p.add_argument("--output", help="also write the certificate to this file")
    p.add_argument("--trace", action="store_true", help="progress trace on stderr")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("check", help="validate a matching certificate")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--certificate", required=True, help="certificate file")
    p.add_argument(
        "--assert-optimal",
        action="store_true",
        help="also require that no improvement step exists",
    )
    _objective_flag(p)
    _format_flag(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("oracle", help="exhaustive optimum or property suites")
    p.add_argument("--input", help="instance file (exhaustive optimum mode)")
    p.add_argument(
        "--oracle-limit",
        type=int,
        help=f"enumeration edge cap (default {EDGE_CAP})",
    )
    p.add_argument(
        "--verify",
        choices=SUITE_NAMES,
        help="run a seeded verification suite instead",
    )
    p.add_argument("--seed", type=int, help="suite seed")
    p.add_argument("--count", type=int, help="suite size")
    _objective_flag(p)
    _format_flag(p)
    p.set_defaults(handler=cmd_oracle, objective=None)

    p = sub.add_parser(
        "decompose",
        help="split the difference of two matchings into cycles and "
        "canonical paths (weights are relative to the running matching)",
    )
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--matching-a", required=True, help="start certificate")
    p.add_argument("--matching-b", required=True, help="target certificate")
    _format_flag(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("gadget", help="dump a reduction stage of a uniform instance")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument(
        "--stage",
        required=True,
        choices=("uniform", "ab", "pm"),
        help="which intermediate instance to dump",
    )
    p.add_argument("--output", help="write the dump to this file")
    p.set_defaults(handler=cmd_gadget)

    p = sub.add_parser("gen", help="emit a reproducible random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--m", type=int, required=True, help="edge count")
    p.add_argument("--profile", choices=PROFILES, default="mixed")
    p.add_argument("--min-weight", type=int, default=1)
    p.add_argument("--max-weight", type=int, default=1)
    p.add_argument("--no-loops", action="store_true", help="forbid loop edges")
    p.add_argument("--output", help="write the instance to this file")
    p.set_defaults(handler=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means a negative verdict
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.handler(args)
    except (ParseError, UsageError, BadSpec, TooLarge, NotFeasible, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
