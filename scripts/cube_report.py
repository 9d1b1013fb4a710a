#!/usr/bin/env python3
"""Plan every hypercube dimension in range and tabulate the results.

Each dimension is planned twice: once under tracemalloc for the peak
memory (peak_mb), then untraced for the wall time (plan_s).

Usage: python scripts/cube_report.py [--max-d 20] [--verify]
"""

import argparse
import tracemalloc
from time import perf_counter

from cupstack.cube import plan_cube
from cupstack.graphs import CubeBoard, verify_plan


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-d", type=int, default=20)
    ap.add_argument("--verify", action="store_true",
                    help="replay every plan through the verifier")
    args = ap.parse_args()

    header = (f"{'d':>3} {'moves':>8} {'complete':>9} {'unassigned':>11} "
              f"{'plan_s':>7} {'peak_mb':>8}")
    if args.verify:
        header += f" {'verified':>9} {'verify_s':>9}"
    print(header)
    for d in range(args.max_d + 1):
        tracemalloc.start()
        try:
            plan_cube(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t0 = perf_counter()
        res = plan_cube(d)
        t_plan = perf_counter() - t0
        row = (f"{d:>3} {len(res.plan.moves):>8} {str(res.complete):>9} "
               f"{len(res.unassigned):>11} {t_plan:>7.2f} {peak / 2**20:>8.1f}")
        if args.verify:
            t0 = perf_counter()
            ok = bool(verify_plan(CubeBoard(d), res.plan))
            row += f" {str(ok):>9} {perf_counter() - t0:>9.2f}"
        print(row)
        if res.unassigned:
            levels = sorted({m.bit_count() for m in res.unassigned})
            print(f"    gap: {len(res.unassigned)} 3-cube labels at "
                  f"levels {levels} have no chain partners")


if __name__ == "__main__":
    main()
