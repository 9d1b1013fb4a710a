"""Generators and constructive planners for the stackable graph families,
and `FAMILIES`, the table that names them."""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Callable, NamedTuple, Optional, Sequence

from .graphs import CubeBoard, Graph, Plan


class FamilyError(ValueError):
    """Invalid family parameters."""


# ---------------------------------------------------------------- generators

def path_graph(n: int) -> Graph:
    if n < 1:
        raise FamilyError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise FamilyError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def spider_graph(legs: Sequence[int]) -> Graph:
    """Spider with root 0 and legs of the given lengths, numbered leg by leg."""
    if not legs or any(l < 1 for l in legs):
        raise FamilyError("legs must be positive lengths")
    edges = []
    labels: list[object] = ["root"]
    nxt = 1
    for li, length in enumerate(legs):
        prev = 0
        for step in range(length):
            edges.append((prev, nxt))
            labels.append(f"leg{li}+{step + 1}")
            prev = nxt
            nxt += 1
    return Graph(nxt, edges, labels=labels)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise FamilyError("complete graph needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def multipartite_graph(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive vertex ranges."""
    if len(sizes) < 2 or any(a < 1 for a in sizes):
        raise FamilyError("need at least two parts of positive size")
    bounds = [0]
    for a in sizes:
        bounds.append(bounds[-1] + a)
    edges = []
    labels = []
    for pi, a in enumerate(sizes):
        labels += [f"part{pi}.{j}" for j in range(a)]
        for pj in range(pi + 1, len(sizes)):
            for u in range(bounds[pi], bounds[pi + 1]):
                for v in range(bounds[pj], bounds[pj + 1]):
                    edges.append((u, v))
    return Graph(bounds[-1], edges, labels=labels)


def star_graph(m: int) -> Graph:
    return multipartite_graph([1, m])


def kneser_graph(m: int, k: int) -> Graph:
    """Vertices are the k-subsets of {1..m}; disjoint sets are adjacent."""
    if not (m >= 2 * k + 1 and k >= 1):
        raise FamilyError("kneser graph needs m >= 2k+1 for connectivity")
    return johnson_graph(m, k, 0)


def petersen_graph() -> Graph:
    return kneser_graph(5, 2)


def johnson_graph(m: int, k: int, s: int) -> Graph:
    """Vertices are the k-subsets of {1..m}; adjacency is |A & B| = s."""
    if not (0 <= s < k <= m):
        raise FamilyError("johnson graph needs 0 <= s < k <= m")
    subsets = list(combinations(range(1, m + 1), k))
    index = {t: i for i, t in enumerate(subsets)}
    edges = [(index[a], index[b]) for a, b in combinations(subsets, 2)
             if len(set(a) & set(b)) == s]
    return Graph(len(subsets), edges, labels=subsets)


def grid_graph(m: int, k: int) -> Graph:
    """The m-by-k grid; vertex (x, y) has index y*m + x."""
    if m < 1 or k < 1:
        raise FamilyError("grid dimensions must be positive")
    edges = []
    for y in range(k):
        for x in range(m):
            if x + 1 < m:
                edges.append((y * m + x, y * m + x + 1))
            if y + 1 < k:
                edges.append((y * m + x, (y + 1) * m + x))
    return Graph(m * k, edges, labels=[(x, y) for y in range(k)
                                       for x in range(m)])


def cube_graph(d: int) -> Graph:
    if d < 0 or d > 12:
        raise FamilyError("explicit cube graphs supported for 0 <= d <= 12")
    return CubeBoard(d).to_graph()


# ----------------------------------------------------------------- planners

def _endpoint_moves(seq: Sequence[int]) -> list[int]:
    """Flat moves stacking a fresh all-ones path, given as a vertex
    sequence, onto its first vertex.  Requires dist(seq[i], seq[j]) =
    |i - j| in the host.

    A window is stacked onto its near end by first stacking the rest of
    it onto its far end, then jumping that pile back; so the windows
    alternate direction, each one shorter at the near end.  The moves are
    written back to front, the outermost window's jump last."""
    out = [0] * max(2 * len(seq) - 2, 0)
    near, far = 0, len(seq) - 1
    i = len(out)
    while i:
        i -= 2
        out[i], out[i + 1] = seq[far], seq[near]
        near, far = far, near + (1 if far > near else -1)
    return out


def _stack_lines(parts: Sequence[tuple[Sequence[int], int]],
                 target: int) -> list[int]:
    """Flat moves stacking fresh all-ones lines onto target.  A part
    (line, stage) is an isometric path with dist(line[stage], target) =
    len(line), so it is one part of a stacking partition: each side of the
    stage piles up on its far end and jumps to line[stage], and the whole
    pile then jumps to the target.  Empty lines are skipped."""
    moves: list[int] = []
    for line, stage in parts:
        if not line:
            continue
        for side in (line[:stage], line[:stage:-1]):
            if side:
                moves += _endpoint_moves(side)
                moves += (side[0], line[stage])
        moves += (line[stage], target)
    return moves


def plan_path(n: int, r: int) -> Plan:
    """Each side of r piles up on its far end, whose distance to r equals
    the side's size."""
    if not 0 <= r < n:
        raise FamilyError("target out of range")
    line = range(n)
    return Plan(n, r, _stack_lines([(line[:r], 0), (line[:r:-1], 0)], r))


def plan_cycle(n: int, r: int) -> Plan:
    """Cut the cycle open at the far side of r and stack the resulting
    path onto r, as `plan_path` does."""
    if not 0 <= r < n:
        raise FamilyError("target out of range")
    if n < 3:
        raise FamilyError("cycle needs n >= 3")
    m = n // 2
    arc = [(r + i) % n for i in range(m, m - n, -1)]   # r sits at index m
    return Plan(n, r, _stack_lines([(arc[:m], 0), (arc[:m:-1], 0)], r))


def plan_spider(legs: Sequence[int]) -> Plan:
    """Stack a spider onto its root: each leg piles up on its leaf, then
    the whole pile jumps the leg length back to the root."""
    g = spider_graph(legs)
    ends = list(accumulate(legs, initial=0))   # leg i is ends[i]+1..ends[i+1]
    parts = [(range(hi, lo, -1), 0) for lo, hi in zip(ends, ends[1:])]
    return Plan(g.n, 0, _stack_lines(parts, 0))


def plan_grid(m: int, k: int, r: tuple[int, int]) -> Plan:
    """Stack the m-by-k grid onto r = (x, y): the row and column through r
    form four straight arms; each open quadrant is cut into straight rows
    or columns staged at distance equal to their size.  A square quadrant
    borrows the far cell of one arm to even up its last line."""
    a, b = r
    if not (0 <= a < m and 0 <= b < k):
        raise FamilyError("target out of range")
    if m == 1 or k == 1:
        plan = plan_path(max(m, k), a if k == 1 else b)
        return Plan(m * k, plan.target, plan.flat)
    target = b * m + a
    # The arms E, N, W, S as (index step, length): vertex (x, y) has index
    # y*m + x, so a step along an arm adds a constant.
    arms = [(1, m - 1 - a), (m, k - 1 - b), (-1, a), (-m, b)]
    parts: list[tuple[Sequence[int], int]] = []
    lent = []
    for (du, lu), (dv, lv) in zip(arms, arms[1:] + arms[:1]):
        # The quadrant between arms u and v is cut into lines of length L
        # along its longer side (along v when it is square), line j at
        # offset j along the shorter side and staged where its distance
        # to r is L.  A square quadrant's last line starts on u's far
        # cell, so it is one longer and staged at its second cell.
        if lu > lv:
            (dl, L), (ds, S) = (du, lu), (dv, lv)
        else:
            (dl, L), (ds, S) = (dv, lv), (du, lu)
        parts += [([target + j * ds + i * dl for i in range(1, L + 1)],
                   L - j - 1) for j in range(1, S + 1)]
        lent.append(0 < S == L)
        if lent[-1]:
            parts[-1] = ([target + S * ds + i * dl for i in range(L + 1)], 1)
    # Then each arm, less a lent far cell, piles up on its far end.
    parts += [([target + i * d for i in range(length - gone, 0, -1)], 0)
              for (d, length), gone in zip(arms, lent)]
    return Plan(m * k, target, _stack_lines(parts, target))


# ------------------------------------------------------------------ registry

def _plan_spider(legs: Sequence[int], r: int) -> Plan:
    if r != 0:
        raise FamilyError("spider plans stack onto the root, vertex 0")
    return plan_spider(legs)


def _plan_grid(p: Sequence[int], r: int) -> Plan:
    m, k = p
    if m < 1 or k < 1:
        raise FamilyError("grid dimensions must be positive")
    return plan_grid(m, k, (r % m, r // m))


def _plan_cube(p: Sequence[int], r: int) -> Optional[Plan]:
    """The hypercube plan onto vertex 0; None when it is incomplete."""
    if r != 0:
        raise FamilyError("cube plans stack onto vertex 0")
    from .cube import plan_cube
    res = plan_cube(p[0])
    return res.plan if res.complete else None


class Family(NamedTuple):
    count: Optional[int]                # number of parameters; None: any
    generate: Callable[..., Graph]      # called with the parameters
    plan: Optional[Callable[[Sequence[int], int], Optional[Plan]]]


# The one family dispatch, read by `gen` and `plan --family`.  A family
# without a planner is planned like any other graph file.
FAMILIES: dict[str, Family] = {
    "path": Family(1, path_graph, lambda p, r: plan_path(p[0], r)),
    "cycle": Family(1, cycle_graph, lambda p, r: plan_cycle(p[0], r)),
    "spider": Family(None, lambda *legs: spider_graph(legs), _plan_spider),
    "complete": Family(1, complete_graph, None),
    "multipartite": Family(None, lambda *sizes: multipartite_graph(sizes),
                           None),
    "star": Family(1, star_graph, None),
    "kneser": Family(2, kneser_graph, None),
    "petersen": Family(0, petersen_graph, None),
    "johnson": Family(3, johnson_graph, None),
    "grid": Family(2, grid_graph, _plan_grid),
    "cube": Family(1, cube_graph, _plan_cube),
}


def family(name: str, params: Sequence[int]) -> Family:
    """The table entry for `name`, once `params` has the right length."""
    fam = FAMILIES.get(name)
    if fam is None:
        raise FamilyError(f"unknown family {name!r}")
    if fam.count is not None and len(params) != fam.count:
        raise FamilyError(f"family {name!r} takes {fam.count} parameters, "
                          f"got {len(params)}")
    return fam
