"""Shared test helpers: graph corpora and brute-force reference algorithms."""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest

from cupstack.graphs import Configuration, Graph, Move
from cupstack.matching import augment, blossom_search
from cupstack.oracle import oracle_search


def legal_move(board, c: Configuration, mv: Move) -> bool:
    """A move is legal when both endpoints hold a cup and the pile on the
    source exactly covers the hop distance to the destination: the rule
    that `verify_plan` replays, one move at a time."""
    pile = c.counts[mv.src]
    return pile >= 1 and c.counts[mv.dst] >= 1 and board.dist(mv.src, mv.dst) == pile


def apply_move(c: Configuration, mv: Move) -> Configuration:
    """The configuration after moving the pile on mv.src onto mv.dst."""
    if mv.src == mv.dst:
        raise ValueError("move endpoints must differ")
    if c.counts[mv.src] < 1:
        raise ValueError(f"source {mv.src} has no cup")
    if c.counts[mv.dst] < 1:
        raise ValueError(f"destination {mv.dst} has no cup")
    counts = list(c.counts)
    counts[mv.dst] += counts[mv.src]
    counts[mv.src] = 0
    return Configuration(tuple(counts))


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a random sprinkle of extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((order[i], rng.choice(order[:i])))))
    extra = rng.randint(0, n * (n - 1) // 2 - (n - 1))
    candidates = [e for e in combinations(range(n), 2) if e not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return Graph(n, sorted(edges))


def random_bare_graph(rng: random.Random, n: int,
                      p: float = 0.4) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency tuples of a random graph, connectivity not required."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in combinations(range(n), 2):   # lexicographic: rows stay sorted
        if rng.random() < p:
            adj[u].append(v)
            adj[v].append(u)
    return tuple(map(tuple, adj))


def atlas_connected_graphs(max_n: int = 7):
    """Every connected graph on 1..max_n vertices, one per isomorphism class."""
    out = []
    for ag in nx.graph_atlas_g()[1:]:
        if ag.number_of_nodes() > max_n:
            break
        if ag.number_of_nodes() >= 1 and nx.is_connected(ag):
            nodes = sorted(ag.nodes())
            remap = {v: i for i, v in enumerate(nodes)}
            out.append(Graph(len(nodes),
                             [(remap[u], remap[v]) for u, v in ag.edges()]))
    return out


def brute_force_matching_number(adj) -> int:
    """Maximum matching size by branching on the first available vertex,
    memoized over the remaining vertex set."""
    memo: dict[frozenset, int] = {}

    def best(avail: frozenset) -> int:
        if not avail:
            return 0
        if avail in memo:
            return memo[avail]
        v = min(avail)
        rest = avail - {v}
        score = best(rest)                    # leave v unmatched
        for u in adj[v]:
            if u in rest:
                score = max(score, 1 + best(rest - {u}))
        memo[avail] = score
        return score

    return best(frozenset(range(len(adj))))


def max_matching_size(adj) -> int:
    """Maximum matching size by the blossom search: one search from each
    vertex still exposed, in ascending order, augmenting where it ends.
    Asserts that the mates it leaves form a matching of the graph."""
    match = [-1] * len(adj)
    for root in range(len(adj)):
        if match[root] == -1:
            end, parent, _ = blossom_search(adj, match, root)
            if end != -1:
                augment(match, parent, end)
    pairs = [(v, m) for v, m in enumerate(match) if m != -1]
    assert all(match[m] == v and m in adj[v] for v, m in pairs)
    return len(pairs) // 2


def oracle_stackable(g: Graph) -> dict:
    """Per-target oracle decision from the all-ones configuration."""
    ones = Configuration.all_ones(g.n)
    return {r: oracle_search(g, ones, r).decision
            for r in range(g.n)}


def floyd_warshall(g: Graph):
    INF = 10 ** 9
    dist = [[0 if i == j else INF for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            dik = dist[i][k]
            row = dist[i]
            rowk = dist[k]
            for j in range(g.n):
                if dik + rowk[j] < row[j]:
                    row[j] = dik + rowk[j]
    return dist


@pytest.fixture(scope="session")
def atlas7():
    return atlas_connected_graphs(7)


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
