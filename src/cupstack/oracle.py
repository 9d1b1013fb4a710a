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
(b) A non-target pile above its vertex's cap is dead.  A pile grows until
    it moves whole: onto r at size d(v, r), or onto a non-target w at a
    distance p where w's pile then exceeds p and must still leave.  So
    cap(v) <= ecc(v) is the largest of d(v, r) and each such p with
    cap(w) > p.  Such children are never pushed, a start holding one is a
    NO, and the first plan found is the one the plain search finds.

The budget counts visited states, each an int of total.bit_length() bits
per vertex in a set: tracemalloc measures 80-94 bytes per state at n = 16
and 129-140 at n = 72 (grids 4x4 and 9x8, 10**5 to 10**6 states), so the
default of 10**7 states takes about 1 GB at n = 16 and 1.4 GB at n = 72.
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
    start = tuple(c.counts)
    initial = None if start == (1,) * n else Configuration(start)
    if start[r] == total:
        return OracleResult(True, Plan(n, r, (), initial), 1)
    if start[r] == 0:
        return OracleResult(False, None, 1, rejected_by="a")
    dist = g.distances()
    # cap[v], rule (b): the largest unsettled cap is final, as offers stay
    # below the cap offering them; it offers each v nearer than it that
    # distance.  Below 3 the offers are 1, which every v != r has.
    cap = list(dist[r])
    sources = [v for v in range(n) if v != r]     # rule (a)
    todo = sources.copy()
    while todo:
        w = max(todo, key=cap.__getitem__)
        todo.remove(w)
        top = cap[w]
        if top <= 2:
            break
        for v, d in enumerate(dist[w]):
            if cap[v] < d < top:
                cap[v] = d
    cap[r] = total
    if any(start[v] > cap[v] for v in sources):
        return OracleResult(False, None, 1, rejected_by="b")
    # at[v][k]: the vertices at distance exactly k from v, ascending:
    # v's layering, which `distances` laid out with its row.
    at = g._layers
    # A state is sum(count * unit[v]); each field holds any pile.
    unit = [1 << total.bit_length() * v for v in range(n)]
    goal = total * unit[r]
    key = sum(k * u for k, u in zip(start, unit))
    visited = {key}
    pruned = 0

    def children(counts: list[int], key: int):
        """Unvisited successors in ascending (source, destination) order,
        computed lazily so the visited test sees the set as it is now."""
        nonlocal pruned
        for src in sources:
            pile = counts[src]
            if pile == 0:
                continue
            rest = key - pile * unit[src]
            for dst in at[src][pile]:
                have = counts[dst]
                if have == 0:
                    continue
                if have + pile > cap[dst]:                # rule (b)
                    pruned += 1
                    continue
                nxt_key = rest + pile * unit[dst]
                if nxt_key not in visited:
                    nxt = counts.copy()
                    nxt[dst] = have + pile
                    nxt[src] = 0
                    yield nxt, nxt_key, src, dst

    # Iterative DFS over a stack of lazy child iterators.
    path: list[tuple[int, int]] = []
    stack = [children(list(start), key)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
            continue
        if len(visited) >= budget:
            return OracleResult(None, None, len(visited), pruned)
        counts, key, src, dst = step
        visited.add(key)
        path.append((src, dst))
        if key == goal:
            plan = Plan(n, r, [v for move in path for v in move], initial)
            return OracleResult(True, plan, len(visited), pruned)
        stack.append(children(counts, key))
    return OracleResult(False, None, len(visited), pruned)


def oracle_search(g: Graph, c: Configuration, r: int,
                  budget: Optional[int] = None) -> OracleResult:
    """Search c for a plan onto r within `budget` states (None: DEFAULT_BUDGET)."""
    if not (0 <= r < g.n):
        raise ValueError("target out of range")
    if len(c.counts) != g.n:
        raise ValueError("configuration size mismatch")
    if c.size < 1:
        raise ValueError("configuration must hold at least one cup")
    if budget is None:
        budget = DEFAULT_BUDGET
    elif budget < 1:
        raise ValueError("budget must be a positive number of states")
    return _search(g, c, r, budget)
