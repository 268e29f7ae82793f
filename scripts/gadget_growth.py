"""Measure how large the perfect-matching gadget gets.

Sweeps seeded random instances, runs the two reduction stages, and tabulates
source size against the reduced graph and its pool, plus the blow-up ratio
of edges.  Useful for judging when the reduction is still worth it.  The
pool is the parity chain of the gadget layout: two nodes for each dense
vertex with b > a, plus one pad node when sum(a) is odd.  The default
`parity` profile has no dense vertex with b > a, so its pool has at most
one node; under `interval` nearly every vertex owns a pair.  Its edges
stay linear: two spokes per even-indexed optional internal and a path.
What still grows faster than m are the vertex gadgets: internal j of a
vertex with bounds (a, b) joins its externals j - (b - a) (or 0) through
j + a, at most (d - a)(b + 1) edges at a vertex of degree d, and
d(d + 1)/2 when a = 0 and b = d.

    python3 scripts/gadget_growth.py --profile interval --sizes 6:12 12:30 24:60
"""

import argparse
import statistics

from bmatch.gen import PROFILES, random_instance
from bmatch.reduce import ab_to_pm, uniform_to_ab
from bmatch.uniform import spec_of_instance


def measure(n: int, m: int, per_size: int, seed: int, profile: str) -> dict:
    rows = []
    for offset in range(per_size):
        instance = random_instance(seed + offset, n, m, profile=profile)
        ab = uniform_to_ab(instance.graph, spec_of_instance(instance))
        reduced, _ab_edges = ab_to_pm(ab)
        rows.append(
            {
                "vertices": reduced.vertex_count,
                "edges": len(reduced.edges),
                "pool": len(ab.layout.pool),
                "ratio": len(reduced.edges) / max(1, m),
            }
        )
    return {
        "vertices": statistics.median(r["vertices"] for r in rows),
        "edges": statistics.median(r["edges"] for r in rows),
        "pool": statistics.median(r["pool"] for r in rows),
        "ratio": statistics.median(r["ratio"] for r in rows),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", default=["6:12", "12:30", "24:60", "48:120"])
    parser.add_argument("--per-size", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--profile", choices=PROFILES, default="parity")
    args = parser.parse_args(argv)
    if args.per_size < 1:
        parser.error("--per-size must be at least 1")
    sizes = []
    for item in args.sizes:
        n, _, m = item.partition(":")
        if not (n.isdecimal() and m.isdecimal()) or int(n) < 1:
            parser.error(f"--sizes takes N:M with N >= 1 and M >= 0, got {item!r}")
        sizes.append((int(n), int(m)))

    header = f"{'n':>4} {'m':>5} {'pm vertices':>11} {'pm edges':>9} {'pool':>5} {'edge ratio':>10}"
    print(header)
    print("-" * len(header))
    for n, m in sizes:
        row = measure(n, m, args.per_size, args.seed, args.profile)
        print(
            f"{n:>4} {m:>5} {row['vertices']:>11.0f} {row['edges']:>9.0f} "
            f"{row['pool']:>5.0f} {row['ratio']:>10.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
