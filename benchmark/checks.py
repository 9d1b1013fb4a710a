"""Independent checks of the program's answers.

Nothing here imports cupstack.  Plans are replayed with distances this
module computes itself (BFS, or the closed-form Hamming and Manhattan
distances of cubes and grids); eccentricity-2 verdicts are compared with
the N_2(r)-saturating-matching criterion computed by networkx; named
families are compared with the paper's closed forms; and NO answers at
eccentricity 3 or more are compared with a small reference search.
"""

from __future__ import annotations

from collections import deque

import networkx as nx


def replay(n: int, target: int, moves, dist, initial=None):
    """Replay a flat move list [s0, d0, s1, d1, ...].  Returns None when
    every move is legal and all cups end on the target, else a reason."""
    counts = list(initial) if initial is not None else [1] * n
    if len(counts) != n or not 0 <= target < n:
        return "plan size or target out of range"
    total = sum(counts)
    it = iter(moves)
    for i, (s, d) in enumerate(zip(it, it)):
        if not (0 <= s < n and 0 <= d < n):
            return f"move {i}: vertex out of range"
        pile = counts[s]
        if pile < 1 or counts[d] < 1:
            return f"move {i}: empty endpoint"
        if dist(s, d) != pile:
            return f"move {i}: pile {pile} but distance {dist(s, d)}"
        counts[d] += pile
        counts[s] = 0
    if counts[target] != total:
        return "cups not concentrated on the target"
    return None


def bfs_dist(g):
    """Distance function of an inputs.Graph, one BFS per source on demand."""
    rows: dict[int, list[int]] = {}

    def dist(u: int, v: int) -> int:
        row = rows.get(u)
        if row is None:
            row = rows[u] = g.bfs(u)
        return row[v]
    return dist


def hamming(u: int, v: int) -> int:
    return (u ^ v).bit_count()


def manhattan(m: int):
    return lambda u, v: abs(u % m - v % m) + abs(u // m - v // m)


def saturating_matching_exists(g, r: int) -> bool:
    """Does G - r have a matching covering every vertex at distance 2
    from r?  A maximum-weight matching with weight |e & N_2(r)| covers as
    many N_2(r) vertices as any matching can."""
    dist = g.bfs(r)
    shell = {v for v in range(g.n) if dist[v] == 2}
    h = nx.Graph()
    for u, v in g.edges:
        w = (u in shell) + (v in shell)
        if r not in (u, v) and w:
            h.add_edge(u, v, weight=w)
    m = nx.max_weight_matching(h)
    return sum((u in shell) + (v in shell) for u, v in m) == len(shell)


def reference_stackable(g, r: int) -> bool:
    """Breadth-first search over cup configurations from all-ones."""
    dist = [g.bfs(v) for v in range(g.n)]
    start = (1,) * g.n
    seen = {start}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        if c[r] == g.n:
            return True
        for s in range(g.n):
            pile = c[s]
            if not pile:
                continue
            for d in range(g.n):
                if c[d] and dist[s][d] == pile and s != d:
                    nxt = list(c)
                    nxt[d] += pile
                    nxt[s] = 0
                    nxt = tuple(nxt)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
    return False


# ---------------------------------------------------- the paper's closed forms

def multipartite_stackable(sizes, part: int) -> bool:
    """A target in part i of K_{a_1..a_t} is stackable iff 2 a_i <= n + 1."""
    return 2 * sizes[part] <= sum(sizes) + 1


def kneser_stackable(m: int, k: int):
    """K(m, k) is stackable when m >= 3k - 1; None outside that range."""
    return True if m >= 3 * k - 1 else None


def star_leaf_stackable(m: int):
    """A leaf of the star K_{1,m} is not stackable when m >= 3."""
    return False if m >= 3 else None


def family_verdicts(g) -> dict[int, bool]:
    """Closed-form verdicts for every target of g that belongs to a named
    family: paths, cycles and grids are stackable everywhere; targets of
    complete multipartite graphs (stars included) follow 2 a_i <= n + 1."""
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.n))
    if g.n == 1:
        return {0: True}
    degrees = sorted(d for _, d in h.degree())
    if nx.is_tree(h) and degrees[-1] <= 2:
        return {v: True for v in range(g.n)}                       # path
    if degrees == [2] * g.n:
        return {v: True for v in range(g.n)}                       # cycle
    for m, k in ((2, 3), (3, 2)):
        if g.n == m * k and nx.is_isomorphic(h, nx.grid_2d_graph(m, k)):
            return {v: True for v in range(g.n)}                   # grid
    parts = list(nx.connected_components(nx.complement(h)))
    if all(nx.density(h.subgraph(p)) == 0 for p in parts):       # multipartite
        sizes = [len(p) for p in parts]
        out = {}
        for i, p in enumerate(parts):
            for v in p:
                out[v] = multipartite_stackable(sizes, i)
        return out
    return {}
