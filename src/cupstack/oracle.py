"""Exhaustive memoized search deciding stackability on small instances.

This is the ground truth the constructive planners are checked against.
States are exact cup-count vectors; the search is depth first with a
visited set, trying moves in ascending (source, destination) order, and a
configurable state budget turns oversized instances into an explicit
"inconclusive" outcome instead of a wrong answer.

Two rules cut the search without changing any verdict:

(a) The target's pile never moves.  A move needs a cup at its
    destination, so a vertex once emptied never holds a cup again; a start
    with no cup on the target is a NO.
(b) A non-target pile larger than its vertex's eccentricity is dead.  No
    vertex lies at that distance, so the pile can never leave and only
    grows; such children are never pushed, and a start holding one is a NO.

The budget counts visited states.  Each is a tuple of n ints in a set:
tracemalloc measures about 70 + 8n bytes per state on 64-bit CPython 3.11
(196 at n = 16, 645 at n = 72), so the default of 10**7 states can take
about 2 GB at n = 16 and 6.5 GB at n = 72.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graphs import Configuration, Graph, Plan

DEFAULT_BUDGET = 10**7


class OracleResult(NamedTuple):
    decision: Optional[bool]     # None means inconclusive
    plan: Optional[Plan]
    states: int                  # distinct configurations visited
    pruned: int = 0              # children cut by rule (b)
    rejected_by: Optional[str] = None   # "a" or "b": the start was dead

    @property
    def inconclusive(self) -> bool:
        return self.decision is None


def _search(g: Graph, c: Configuration, r: int, budget: int) -> OracleResult:
    n = g.n
    total = c.size
    goal = tuple(total if v == r else 0 for v in range(n))
    start = tuple(c.counts)
    initial = None if start == (1,) * n else Configuration(start)
    if start == goal:
        return OracleResult(True, Plan(n, r, (), initial), 1)
    if start[r] == 0:
        return OracleResult(False, None, 1, rejected_by="a")
    # at[v][k]: the vertices at distance exactly k from v, ascending; a
    # connected graph has a vertex at every distance up to ecc(v).
    at: list[list[list[int]]] = []
    for row in g.distances():
        shells: list[list[int]] = [[] for _ in range(max(row) + 1)]
        for v, d in enumerate(row):
            shells[d].append(v)
        at.append(shells)
    ecc = [len(shells) - 1 for shells in at]
    if any(start[v] > ecc[v] for v in range(n) if v != r):
        return OracleResult(False, None, 1, rejected_by="b")
    sources = [v for v in range(n) if v != r]     # rule (a)
    visited = {start}
    pruned = 0

    def children(state: tuple[int, ...]):
        """Unvisited successors in ascending (source, destination) order,
        computed lazily so the visited test sees the set as it is now."""
        nonlocal pruned
        for src in sources:
            pile = state[src]
            if pile == 0:
                continue
            for dst in at[src][pile]:
                have = state[dst]
                if have == 0:
                    continue
                if have + pile > ecc[dst] and dst != r:   # rule (b)
                    pruned += 1
                    continue
                nxt = list(state)
                nxt[dst] = have + pile
                nxt[src] = 0
                nxt_t = tuple(nxt)
                if nxt_t not in visited:
                    yield nxt_t, src, dst

    # Iterative DFS over a stack of lazy child iterators.
    path: list[tuple[int, int]] = []
    stack = [children(start)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
            continue
        if len(visited) >= budget:
            return OracleResult(None, None, len(visited), pruned)
        state, src, dst = step
        visited.add(state)
        path.append((src, dst))
        if state == goal:
            plan = Plan(n, r, [v for move in path for v in move], initial)
            return OracleResult(True, plan, len(visited), pruned)
        stack.append(children(state))
    return OracleResult(False, None, len(visited), pruned)


def oracle_search(g: Graph, c: Configuration, r: int,
                  budget: int = DEFAULT_BUDGET) -> OracleResult:
    if not (0 <= r < g.n):
        raise ValueError("target out of range")
    if len(c.counts) != g.n:
        raise ValueError("configuration size mismatch")
    if c.size < 1:
        raise ValueError("configuration must hold at least one cup")
    if budget < 1:
        raise ValueError("budget must be a positive number of states")
    return _search(g, c, r, budget)
