"""Input generators for the benchmark, written apart from cupstack.

Every graph the benchmark hands to the program is built here as an
edge list and serialised in the program's text format ('n <count>',
'e <u> <v>').  The same edge lists feed the independent checks, so a
check never reads a graph back through the program's own parser.
"""

from __future__ import annotations

import itertools
import random
from collections import deque


class Graph:
    """Plain adjacency-list graph on vertices 0..n-1."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = [tuple(e) for e in edges]
        self.adj = [[] for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)

    def text(self) -> str:
        return f"n {self.n}\n" + "".join(f"e {u} {v}\n" for u, v in self.edges)

    def bfs(self, s: int) -> list[int]:
        dist = [-1] * self.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def eccentricity(self, v: int) -> int:
        return max(self.bfs(v))


def read_graph_file(path) -> Graph:
    n = None
    edges = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "n":
                n = int(parts[1])
            elif parts[0] == "e":
                edges.append((int(parts[1]), int(parts[2])))
    if n is None:
        raise ValueError(f"{path}: no 'n' line")
    return Graph(n, edges)


def kneser(m: int, k: int) -> Graph:
    sets = [frozenset(c) for c in itertools.combinations(range(m), k)]
    return Graph(len(sets), [(i, j) for i in range(len(sets))
                             for j in range(i + 1, len(sets))
                             if not sets[i] & sets[j]])


def grid(m: int, k: int) -> Graph:
    """m columns by k rows; vertex (x, y) is y*m + x."""
    vid = lambda x, y: y * m + x
    edges = [(vid(x, y), vid(x + 1, y)) for y in range(k) for x in range(m - 1)]
    edges += [(vid(x, y), vid(x, y + 1)) for y in range(k - 1) for x in range(m)]
    return Graph(m * k, edges)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def multipartite(sizes) -> Graph:
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(part)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if part[u] != part[v]])


def random_diameter2(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) drawn until it has diameter 2 and vertex 0 is not
    dominating, so vertex 0 is an eccentricity-2 target."""
    while True:
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        if (g.eccentricity(0) == 2
                and max(g.eccentricity(v) for v in range(n)) == 2):
            return g


def atlas() -> list[Graph]:
    """Every connected graph with 1 to 7 vertices, in atlas order."""
    import networkx as nx
    out = []
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() and nx.is_connected(h):
            out.append(Graph(h.number_of_nodes(), sorted(h.edges())))
    return out
