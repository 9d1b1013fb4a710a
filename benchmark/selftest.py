"""Self-test of the benchmark's checkers, run at the end of every run.

It takes real records from the run and spoils them in two ways that the
checks must catch.  One plan gets its last move's destination changed:
the last move of an accepted plan is the one that puts every cup on the
target, so the spoiled plan can no longer end there and the benchmark's
replay must reject it.  One verdict is flipped, and the flipped request
must be counted as failed.
"""

from __future__ import annotations

import copy


def spoil_last_move(moves, n: int) -> None:
    """Send the last move of a flat move list [s0, d0, ...] elsewhere."""
    moves[-1] = (moves[-1] + 1) % n


def selftest(workload, records, evaluate) -> list[str]:
    """Problems found; an empty list means both spoiled records were caught.
    evaluate(records) -> (failed, refuted)."""
    problems = []
    ok = [rec for rec in records if rec["fail"] is None]
    spoiled = next((s for s in (workload.spoiled(copy.deepcopy(rec)) for rec in ok)
                    if s is not None), None)
    if spoiled is None:
        problems.append("no plan to spoil")
    elif evaluate([spoiled])[0] != 1:
        problems.append("a plan with a changed destination passed the replay")
    flipped = next((f for f in (workload.flipped(copy.deepcopy(rec)) for rec in ok)
                    if f is not None), None)
    if flipped is None:
        problems.append("no verdict to flip")
    elif evaluate([flipped])[0] != 1:
        problems.append("a flipped verdict was not counted as a failed request")
    return problems
