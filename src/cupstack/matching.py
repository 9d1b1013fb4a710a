"""Edmonds' blossom search and augmentation: the matching step of the
eccentricity-2 decision.

The search works on a bare adjacency view (sorted neighbour tuples per
vertex) rather than the connected Graph type, because its host, G - r,
has r as an isolated vertex.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Sequence


def blossom_search(adj: Sequence[Sequence[int]], match: list[int], root: int,
                   spare: Container[int] = frozenset()
                   ) -> tuple[int, list[int], list[bool]]:
    """Grow Edmonds' alternating tree, contracting blossoms, from the
    exposed vertex `root` of the matching `match` (mate per vertex, -1
    when exposed).  Returns (end, parent, outer).

    end >= 0 closes an alternating path from the root that `augment`
    flips: either an exposed vertex, or a vertex of `spare` that became
    outer (reachable by an even alternating path).  end == -1 means the
    tree got stuck: `outer` then marks the vertices reachable from the
    root by an even alternating path, and the inner vertices are those
    with a parent that are not outer.  Neighbors are scanned in ascending
    order, so the search is deterministic."""
    n = len(adj)
    outer = [False] * n
    parent = [-1] * n
    base = list(range(n))
    outer[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                cur = lca(v, to)
                blossom = [False] * n
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not outer[i]:
                            outer[i] = True
                            if i in spare:
                                return i, parent, outer
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                mate = match[to]
                if mate == -1:
                    return to, parent, outer
                outer[mate] = True
                if mate in spare:
                    return mate, parent, outer
                queue.append(mate)
    return -1, parent, outer


def augment(match: list[int], parent: list[int], end: int) -> None:
    """Flip the alternating path that `blossom_search` found from its root
    to `end`.  When `end` is a matched (spare) vertex it ends up exposed,
    and every other vertex on the path stays matched."""
    if match[end] != -1:
        mate = match[end]
        match[end] = match[mate] = -1
        end = mate
    while end != -1:
        pv = parent[end]
        nxt = match[pv]
        match[end] = pv
        match[pv] = end
        end = nxt
