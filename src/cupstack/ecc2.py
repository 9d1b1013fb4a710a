"""Polynomial decision for targets of eccentricity at most 2, and plan
extraction.

A target r with eccentricity at most 2 is reachable by every cup iff
G - r has a matching saturating the distance-2 shell N_2(r); a
dominating target has an empty shell, so the empty matching does.
Starting from the empty matching, one blossom search from each uncovered
s in N_2(r) either reaches an exposed vertex (augment) or an outer
vertex outside N_2(r) (swap: that vertex gives up its mate), and so
covers s while keeping every covered N_2(r) vertex covered.  A search that gets stuck
proves the answer is no: its inner vertices X form a barrier, because
its outer blossoms are |X| + 1 odd components of (G - r) - X that lie
inside N_2(r), and each needs its own matching edge into X.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .graphs import Graph, Plan, shells
from .matching import augment, blossom_search


class Ecc2Witness(NamedTuple):
    decision: bool
    # Ascending pairs (x, y), x < y; saturates N_2(r) iff decision.
    matching: Optional[tuple[tuple[int, int], ...]]
    barrier: Optional[tuple[int, ...]]     # refutes every such matching iff not decision


def _shell2(g: Graph, r: int) -> list[int]:
    """N_2(r), once r is known to have eccentricity at most 2."""
    sh = shells(g, r)
    if len(sh) > 3:
        raise ValueError(f"target {r} has eccentricity above 2")
    return sh[2] if len(sh) == 3 else []


def ecc2_decide(g: Graph, r: int) -> Ecc2Witness:
    n2 = _shell2(g, r)
    # G - r on the original labels, r left as an isolated vertex: only
    # r's row and its neighbours' rows differ from G's.
    adj = list(g.adj)
    adj[r] = ()
    for v in g.adj[r]:
        adj[v] = tuple(u for u in adj[v] if u != r)
    spare = set(range(g.n)).difference(n2)
    match = [-1] * g.n
    for s in n2:
        if match[s] != -1:
            continue
        end, parent, outer = blossom_search(adj, match, s, spare)
        if end == -1:
            barrier = tuple(v for v in range(g.n)
                            if parent[v] != -1 and not outer[v])
            return Ecc2Witness(False, None, barrier)
        augment(match, parent, end)
    return Ecc2Witness(
        True, tuple((v, match[v]) for v in range(g.n) if match[v] > v), None)


def plan_from_matching(g: Graph, r: int, pairs: Iterable[tuple[int, int]]) -> Plan:
    """Turn an N_2(r)-saturating matching, given as pairs in any order,
    into an explicit plan: matched pairs, in ascending order, feed two
    cups to r over distance 2, everything else walks in.  Dominating
    targets are the degenerate case with an empty shell."""
    n2 = set(_shell2(g, r))
    moves: list[int] = []
    used: set[int] = {r}
    for x, y in sorted({(min(p), max(p)) for p in pairs}):
        if y in n2:
            pass
        elif x in n2:
            x, y = y, x
        else:
            continue   # pair without a distance-2 endpoint; handled as singles
        moves += (x, y, y, r)
        used.add(x)
        used.add(y)
    singles = [z for z in range(g.n) if z not in used]
    for z in singles:
        if z in n2:
            raise ValueError(f"vertex {z} in N_2({r}) is not matched")
        moves += (z, r)
    return Plan(g.n, r, moves)
