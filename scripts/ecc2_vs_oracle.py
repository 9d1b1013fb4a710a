#!/usr/bin/env python3
"""Compare the matching-based eccentricity-2 decision against exhaustive
search on a random corpus of small connected graphs, replaying every
positive witness as a plan and checking every negative one's barrier.

Usage: python scripts/ecc2_vs_oracle.py [--graphs 2000] [--max-n 7] [--seed 1]
"""

import argparse
import random
import sys
import time

from cupstack.ecc2 import ecc2_decide, plan_from_matching
from cupstack.graphs import Configuration, Graph, verify_barrier, verify_plan
from cupstack.oracle import oracle_decide


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    from itertools import combinations
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], rng.choice(order[:i]))))
             for i in range(1, n)}
    candidates = [e for e in combinations(range(n), 2) if e not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:rng.randint(0, len(candidates))])
    return Graph(n, sorted(edges))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graphs", type=int, default=2000)
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.time()
    targets = 0
    mismatches = []
    for _ in range(args.graphs):
        g = random_connected_graph(rng, rng.randint(3, args.max_n))
        ones = Configuration.all_ones(g.n)
        for r in range(g.n):
            if max(g.bfs_from(r)) != 2:
                continue
            targets += 1
            w = ecc2_decide(g, r)
            truth = oracle_decide(g, ones, r)
            if w.decision != truth:
                mismatches.append((g.edges(), r, w.decision, truth))
            elif w.decision:
                assert verify_plan(g, plan_from_matching(g, r, w.matching))
            else:
                assert verify_barrier(g, r, w.barrier)
    print(f"{targets} ecc-2 targets across {args.graphs} random graphs "
          f"(n <= {args.max_n}) in {time.time() - t0:.1f}s")
    if mismatches:
        print(f"{len(mismatches)} MISMATCHES:")
        for edges, r, got, want in mismatches[:10]:
            print(f"  edges={edges} r={r} ecc2={got} oracle={want}")
        return 1
    print("0 mismatches; every positive witness re-verified as a plan, "
          "every negative barrier accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
