"""Maximum matching and Gallai-Edmonds structure, both built on one
blossom search.

Unlike the game board, matching hosts may be disconnected (the structure
theory is applied to a graph with a vertex removed), so this module works
on a bare adjacency view rather than the connected Graph type.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Iterable, NamedTuple, Sequence


class BareGraph:
    """Simple undirected graph, connectivity not required."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def without(self, removed: set[int]) -> tuple["BareGraph", dict[int, int]]:
        keep = [v for v in range(self.n) if v not in removed]
        remap = {v: i for i, v in enumerate(keep)}
        edges = [(remap[u], remap[v]) for u, v in self.edges()
                 if u in remap and v in remap]
        return BareGraph(len(keep), edges), remap

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v in self.adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        queue.append(v)
            out.append(sorted(comp))
        return out


def _bare(g) -> BareGraph:
    if isinstance(g, BareGraph):
        return g
    return BareGraph(g.n, g.edges())


class Matching(NamedTuple):
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]]) -> "Matching":
        return Matching(frozenset(tuple(sorted(p)) for p in pairs))

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> set[int]:
        return {v for e in self.edges for v in e}

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


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


def max_matching(g) -> Matching:
    """Maximum-cardinality matching: one blossom search from each vertex
    still exposed, in ascending order."""
    g = _bare(g)
    match = [-1] * g.n
    for root in range(g.n):
        if match[root] == -1:
            end, parent, _ = blossom_search(g.adj, match, root)
            if end != -1:
                augment(match, parent, end)
    return Matching.of((v, match[v]) for v in range(g.n) if match[v] > v)


def matching_number(g) -> int:
    return max_matching(g).size


def has_perfect_matching(g) -> bool:
    g = _bare(g)
    return g.n % 2 == 0 and matching_number(g) * 2 == g.n


def is_factor_critical(g) -> bool:
    """True iff removing any single vertex leaves a perfectly matchable graph."""
    g = _bare(g)
    if g.n % 2 == 0:
        return False
    for v in range(g.n):
        sub, _ = g.without({v})
        if not has_perfect_matching(sub):
            return False
    return True


class GallaiEdmondsPartition(NamedTuple):
    I_components: tuple[tuple[int, ...], ...]
    A: tuple[int, ...]
    Z: tuple[int, ...]

    @property
    def I(self) -> tuple[int, ...]:
        return tuple(sorted(v for comp in self.I_components for v in comp))


def gallai_edmonds(g) -> GallaiEdmondsPartition:
    """Structure partition (I, A, Z): I holds the vertices missed by some
    maximum matching, which are the outer vertices of the stuck blossom
    search from each vertex that one maximum matching leaves exposed; A
    is the outside neighborhood of I; Z the rest."""
    g = _bare(g)
    match = [-1] * g.n
    for u, v in max_matching(g).edges:
        match[u], match[v] = v, u
    inessential = set()
    for root in range(g.n):
        if match[root] == -1:
            _, _, outer = blossom_search(g.adj, match, root)
            inessential.update(v for v in range(g.n) if outer[v])
    A = sorted({u for v in inessential for u in g.adj[v]} - inessential)
    Z = sorted(set(range(g.n)) - inessential - set(A))
    sub, remap = g.without(set(range(g.n)) - inessential)
    inverse = {i: v for v, i in remap.items()}
    comps = tuple(tuple(sorted(inverse[i] for i in comp))
                  for comp in sub.components())
    return GallaiEdmondsPartition(tuple(sorted(comps)), tuple(A), tuple(Z))
