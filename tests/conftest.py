"""Shared test helpers: graph corpora, brute-force reference algorithms,
the stacking-partition verifier, and the paper's closed forms that only
tests use, each checked against the library's own decision or chain
walk."""

from __future__ import annotations

import functools
import random
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

import networkx as nx
import pytest

from cupstack import decide
from cupstack.cube import _phi_tables
from cupstack.ecc2 import plan_from_matching
from cupstack.families import FamilyError, kneser_graph, multipartite_graph
from cupstack.graphs import (Configuration, Graph, Move, Plan, VerifyResult,
                             eccentricity, verify_plan)
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


def diameter(g: Graph) -> int:
    return max(eccentricity(g, v) for v in range(g.n))


# ------------------------------------------------------- stacking partitions

class StackingPart(NamedTuple):
    vertices: tuple[int, ...]
    cups: tuple[int, ...]        # cup counts aligned with vertices
    staging: int                 # vertex the part stacks onto
    moves: Sequence[int] = ()    # flat [s0, d0, ...] stacking it there


class StackingPartition(NamedTuple):
    target: int
    parts: tuple[StackingPart, ...]


def verify_partition(g: Graph, c: Configuration, r: int,
                     p: StackingPartition) -> VerifyResult:
    """Check the defining properties of a stacking partition: (1) the
    part vertex sets cover V - {r}, (2) the sub-configurations are
    disjoint and sum to the cups off r, and (3) each part stacks onto its
    staging vertex, whose distance to r equals its cup total.  For (3)
    each part's moves must stay inside the part; they are replayed with
    host distances, followed by the jump from staging to r."""
    if p.target != r:
        return VerifyResult(False, None, "partition target mismatch")
    covered: set[int] = set()
    for idx, part in enumerate(p.parts):
        if r in part.vertices:
            return VerifyResult(False, idx, f"part {idx}: contains the target")
        if covered & set(part.vertices):
            return VerifyResult(False, idx, f"part {idx}: overlaps an earlier part (property 2)")
        covered |= set(part.vertices)
    if covered != set(range(g.n)) - {r}:
        return VerifyResult(False, None, "parts do not cover V - target (property 1)")
    total = sum(sum(part.cups) for part in p.parts)
    if total != c.size - c.counts[r]:
        return VerifyResult(False, None, "sub-configurations do not sum to C - r (property 2)")
    for idx, part in enumerate(p.parts):
        for v, cups in zip(part.vertices, part.cups):
            if cups != c.counts[v]:
                return VerifyResult(
                    False, idx, f"part {idx}: cup count at {v} disagrees with C (property 2)")
        pile = sum(part.cups)
        if g.dist(part.staging, r) != pile:
            return VerifyResult(
                False, idx,
                f"part {idx}: dist(staging, target) != cup total (property 3)")
        if len(part.moves) % 2:
            return VerifyResult(
                False, idx, f"part {idx}: odd-length move list (property 3)")
        outside = set(part.moves).difference(part.vertices)
        if outside:
            return VerifyResult(
                False, idx, f"part {idx}: a move leaves the part at vertex "
                f"{min(outside)} (property 3)")
        counts = [0] * g.n
        counts[r] = c.counts[r]         # the jump needs a cup to land on
        for v, cups in zip(part.vertices, part.cups):
            counts[v] = cups
        res = verify_plan(g, Plan(g.n, r, [*part.moves, part.staging, r],
                                  Configuration(tuple(counts))))
        if not res:
            return VerifyResult(
                False, idx, f"part {idx}: {res.reason} (property 3)")
    return VerifyResult(True)


# --------------------------------------------- symmetric chain decomposition

# The library builds a width's tables once per cube plan; phi here asks
# for them once per mask, so they are kept.
_links = functools.lru_cache(maxsize=None)(_phi_tables)


def _pred(n: int, mask: int) -> Optional[int]:
    """phi(mask) from the chain-link table of width n, None for a chain
    bottom."""
    bit = _links(n)[0][mask]
    return mask ^ 1 << bit - 1 if bit else None


def scd(n: int) -> list[list[int]]:
    """Symmetric chain decomposition of the subsets of an n-element set,
    as lists of bitmasks in ascending order, in order of their bottoms.
    The chains are grown by `phi`: a set's predecessor is smaller than
    it, so in numeric order each set extends the chain that ends there."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    chains = []
    top: dict[int, list[int]] = {}          # each chain by its last set
    for mask in range(1 << n):
        pred = _pred(n, mask)
        if pred is None:                     # a chain bottom
            chain = [mask]
            chains.append(chain)
        else:
            chain = top.pop(pred)
            chain.append(mask)
        top[mask] = chain
    return chains


def phi(n: int, mask: int) -> int:
    """Chain predecessor in the symmetric chain decomposition of the
    subsets of an n-element set: drop the last unmatched one
    (Greene-Kleitman bracket rule).  Every set but a chain bottom has
    one."""
    if mask >> n:
        raise ValueError(f"mask {mask} is not a subset of {n} elements")
    pred = _pred(n, mask)
    if pred is None:
        raise ValueError("a chain bottom has no predecessor")
    return pred


# ------------------------------------------------- the paper's closed forms

def multipartite_decide(sizes: Sequence[int], i: int) -> tuple[bool, Optional[Plan]]:
    """Closed-form decision for a complete multipartite target: part i is
    stackable iff its size is at most (n+1)/2.  Asserts that `decide`
    agrees on the part's first vertex, and returns its plan."""
    if not 0 <= i < len(sizes):
        raise FamilyError("part index out of range")
    decision = 2 * sizes[i] <= sum(sizes) + 1
    d = decide(multipartite_graph(sizes), sum(sizes[:i]))
    assert d.stackable == decision, "closed form and decide disagree"
    return decision, d.plan


def plan_ham_ecc2(g: Graph, r: int, hampath: Sequence[int]) -> Plan:
    """Plan for an eccentricity-2 target from a Hamiltonian path: match
    consecutive vertices along the two half-paths on either side of r,
    leaving only neighbors of r unmatched."""
    if sorted(hampath) != list(range(g.n)):
        raise FamilyError("sequence is not a permutation of the vertices")
    for a, b in zip(hampath, hampath[1:]):
        if b not in g.adj[a]:
            raise FamilyError(f"consecutive vertices {a},{b} are not adjacent")
    if eccentricity(g, r) != 2:
        raise FamilyError(f"target {r} does not have eccentricity 2")
    pos = hampath.index(r)
    pairs: list[tuple[int, int]] = []
    for piece in (list(reversed(hampath[:pos])), list(hampath[pos + 1:])):
        # piece[0] is adjacent to r; drop it when the piece has odd size.
        start = 1 if len(piece) % 2 else 0
        for idx in range(start, len(piece) - 1, 2):
            pairs.append((piece[idx], piece[idx + 1]))
    return plan_from_matching(g, r, pairs)


def kneser_stackable(m: int, k: int) -> tuple[Optional[bool], Optional[Graph]]:
    """Decide stackability of the Kneser graph K(m, k).  Proven range:
    m >= 3k-1 >= 5 plus (5, 2).  In the unresolved band 2k+1 <= m <= 3k-2
    the answer is reported as unknown rather than guessed."""
    if k < 1 or m < 2 * k + 1:
        raise FamilyError("kneser graph needs m >= 2k+1")
    if not ((m >= 3 * k - 1 and 3 * k - 1 >= 5) or (m, k) == (5, 2)):
        return None, None
    g = kneser_graph(m, k)
    # Vertex transitive, so one target decides all of them; in the proven
    # range it has eccentricity 2, so the matching test decides it.
    d = decide(g, 0)
    assert d.method == "ecc2", f"K({m},{k}) has a target of eccentricity above 2"
    return d.stackable, g


@pytest.fixture(scope="session")
def atlas7():
    return atlas_connected_graphs(7)


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
