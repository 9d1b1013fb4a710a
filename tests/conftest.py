"""Shared test helpers: graph corpora and brute-force reference algorithms."""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest

from cupstack.graphs import Graph
from cupstack.matching import BareGraph


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


def random_bare_graph(rng: random.Random, n: int, p: float = 0.4) -> BareGraph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return BareGraph(n, edges)


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


def brute_force_matching_number(g) -> int:
    """Maximum matching size by branching on the first available vertex,
    memoized over the remaining vertex set."""
    adj = g.adj
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

    return best(frozenset(range(g.n)))


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
