"""Long-running soundness sweep: disjointness predicates against the
carrier oracle, plus random valid/perturbed routes through the full
validate-synthesize-audit pipeline.

Usage: python scripts/soundness_sweep.py [--pairs 100000] [--routes 500] [--seed 1]
"""

import argparse
import sys
import time

from umbilic import (
    Transversal,
    perturbed_invalid_route,
    random_valid_route,
    run_disjointness_agreement,
    synthesize,
    validate_c0,
    verify_disjoint,
)
from umbilic.validation import _judge


def sweep_pairs(n: int, seed: int) -> bool:
    ok = True
    for family in ("geodesic", "hypercycle"):
        t0 = time.perf_counter()
        stats = run_disjointness_agreement(family, n=n, seed=seed)
        dt = time.perf_counter() - t0
        print(
            f"{family}: {stats.agreements}/{stats.compared} agree "
            f"({stats.skipped_margin}+{stats.skipped_tangent} skipped, {dt:.1f}s)"
        )
        for params in stats.mismatches[:5]:
            print(f"  mismatch: {params}")
        ok = ok and not stats.mismatches
    return ok


def _searched_otherwise(route, verdict, seed: int) -> bool:
    """Whether the validity search that ``synthesize`` trusts answers
    otherwise than the verdict.  ``validate_c0`` records its answer on the
    route, so ``synthesize`` searches nothing after it: the search runs
    here, afresh."""
    if _judge(route) is verdict.valid:
        return False
    print(f"  validity search disagrees with validate_c0 (seed {seed})")
    return True


def sweep_routes(n: int, seed: int) -> bool:
    transversals = [
        Transversal.geodesic(),
        Transversal.hypercycle(0.5),
        Transversal.hypercycle(1.1),
    ]
    bad = 0
    for i in range(n):
        tr = transversals[i % len(transversals)]
        route = random_valid_route(tr, seed=seed + i)
        verdict = validate_c0(route)
        bad += _searched_otherwise(route, verdict, seed + i)
        if not verdict.valid:
            print(f"  valid draw failed validation (seed {seed + i})")
            bad += 1
            continue
        if not verify_disjoint(synthesize(route)).clean:
            print(f"  valid draw audited dirty (seed {seed + i})")
            bad += 1

        route, window = perturbed_invalid_route(tr, seed=seed + i)
        verdict = validate_c0(route)
        bad += _searched_otherwise(route, verdict, seed + i)
        if verdict.valid:
            print(f"  perturbed draw passed validation (seed {seed + i})")
            bad += 1
            continue
        report = verify_disjoint(synthesize(route, force=True))
        hit = any(
            c.t1 <= window[1] and window[0] <= c.t2 for c in report.intersecting
        )
        if not hit:
            print(f"  perturbed draw has no in-window crossing (seed {seed + i})")
            bad += 1
    print(f"routes: {2 * n - bad}/{2 * n} behaved as constructed")
    return bad == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=100000)
    parser.add_argument("--routes", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    ok = sweep_pairs(args.pairs, args.seed)
    ok = sweep_routes(args.routes, args.seed) and ok
    print("soundness sweep:", "clean" if ok else "FAILURES above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
