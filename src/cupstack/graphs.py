"""Graph representation, distances, and the cup game semantics.

Vertices are dense integers 0..n-1.  A move picks up every cup on one
vertex and drops the pile on another vertex that already holds a cup,
provided the hop distance between the two equals the pile size.
"""

from __future__ import annotations

import operator
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterable, NamedTuple, Optional


class GraphError(ValueError):
    """Raised for malformed or out-of-contract graph input."""


class Graph:
    """Connected simple undirected graph on vertices 0..n-1."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[Sequence[object]] = None):
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise GraphError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj)
        self.labels = tuple(labels) if labels is not None else None
        self._dist: Optional[list[list[int]]] = None
        if not self._connected():
            raise GraphError("graph is disconnected")

    def _connected(self) -> bool:
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count == self.n

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def bfs_from(self, s: int) -> list[int]:
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

    def distances(self) -> list[list[int]]:
        if self._dist is None:
            self._dist = [self.bfs_from(s) for s in range(self.n)]
        return self._dist

    @cached_property
    def _grid_axes(self) -> Optional[tuple[tuple[int, int], ...]]:
        """The axes (stride, span) of a row-major (mixed-radix) grid, or
        None when the graph is not one, edge for edge.

        The strides are vertex 0's neighbours in ascending order; each
        must divide the next and the last must divide n.  The span of an
        axis is the next stride (n for the last), so vertex v's digit on
        it is v % span // stride.  Then every vertex's sorted neighbours
        must be v - stride for each axis whose digit is above 0 (largest
        stride first) and v + stride for each whose digit is below its
        top (smallest first), an O(n * axes) check.  The graph is then
        the product of paths along the axes, whose distance is the sum of
        the digit differences.  (A first stride above 1 never passes: no
        expected edge leaves a residue class mod that stride, and the
        graph is connected.)"""
        strides = self.adj[0]
        spans = (*strides[1:], self.n)
        if any(span % stride for stride, span in zip(strides, spans)):
            return None
        axes = tuple(zip(strides, spans))
        down = axes[::-1]
        for v, nbrs in enumerate(self.adj):
            want = [v - stride for stride, span in down if v % span >= stride]
            want += [v + stride for stride, span in axes if v % span < span - stride]
            if tuple(want) != nbrs:
                return None
        return axes

    def dist(self, u: int, v: int) -> int:
        """Hop distance, from the first of three tiers that applies:

        1. the all-pairs matrix, once `distances` has built it;
        2. a closed form when the graph is, edge for edge, a row-major
           grid (paths, `grid_graph`, `cube_graph`; see `_grid_axes`,
           found once on the first call that finds no matrix): the sum
           over axes of the difference of the two vertices' digits;
        3. otherwise a two-ended BFS.  Each step grows the smaller
           frontier by one whole layer; the balls of radius `layers`
           split between u and v stay disjoint until a new layer touches
           the other side, and then the distance is `layers + 1`."""
        if self._dist is not None:
            return self._dist[u][v]
        axes = self._grid_axes
        if axes is not None:
            d = 0
            for stride, span in axes:
                d += abs(u % span // stride - v % span // stride)
            return d
        if u == v:
            return 0
        adj = self.adj
        side = bytearray(self.n)        # 0 unseen, else the side's mark
        side[u], side[v] = 1, 2
        # `front` is the frontier to grow next, marked `mine`.
        front, rest, mine, other = [u], [v], 1, 2
        layers = 0
        while front and rest:
            if len(front) > len(rest):
                front, rest, mine, other = rest, front, other, mine
            grown = []
            for x in front:
                for y in adj[x]:
                    s = side[y]
                    if s == other:
                        return layers + 1
                    if not s:
                        side[y] = mine
                        grown.append(y)
            front = grown
            layers += 1
        raise GraphError(f"vertex {v} unreachable from {u}")


class CubeBoard:
    """Distance backend for the hypercube Q^d: vertices are bitmasks and
    the hop distance is the Hamming distance, so no matrix is stored."""

    def __init__(self, d: int):
        if d < 0:
            raise GraphError("dimension must be nonnegative")
        self.d = d
        self.n = 1 << d

    def dist(self, u: int, v: int) -> int:
        return (u ^ v).bit_count()

    def to_graph(self) -> Graph:
        return Graph(self.n, [(u, u ^ (1 << i))
                              for u in range(self.n)
                              for i in range(self.d) if not u >> i & 1],
                     labels=[format(u, f"0{max(self.d, 1)}b")
                             for u in range(self.n)])


def parse_graph(text: str) -> Graph:
    """Parse the edge-list graph format: '# comment', 'n <count>', 'e <u> <v>'."""
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise GraphError(f"line {lineno}: duplicate n line")
            if len(parts) != 2 or not _is_ascii_int(parts[1]):
                raise GraphError(f"line {lineno}: malformed n line")
            n = int(parts[1])
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before n line")
            if len(parts) != 3 or not (_is_ascii_int(parts[1])
                                       and _is_ascii_int(parts[2])):
                raise GraphError(f"line {lineno}: malformed edge line")
            u, v = int(parts[1]), int(parts[2])
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"line {lineno}: vertex out of range")
            if u == v:
                raise GraphError(f"line {lineno}: self-loop")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"line {lineno}: duplicate edge")
            seen.add(key)
            edges.append((u, v))
        else:
            raise GraphError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphError("missing n line")
    return Graph(n, edges)


def _is_ascii_int(word: str) -> bool:
    """True for a run of 0-9 only; `str.isdigit` alone also passes
    superscripts, which `int` rejects, and other scripts' digits, which
    `int` reads as numbers."""
    return word.isascii() and word.isdigit()


def format_graph(g: Graph) -> str:
    lines = [f"n {g.n}"] + [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def shells(g: Graph, r: int) -> list[list[int]]:
    """Vertex sets N_0(r)..N_ecc(r) grouped by distance from r."""
    dist = g.bfs_from(r)
    out: list[list[int]] = [[] for _ in range(max(dist) + 1)]
    for v, d in enumerate(dist):
        out[d].append(v)
    return out


def eccentricity(g: Graph, v: int) -> int:
    return max(g.bfs_from(v))


def diameter(g: Graph) -> int:
    return max(eccentricity(g, v) for v in range(g.n))


class Move(NamedTuple):
    src: int
    dst: int


@dataclass(frozen=True)
class Configuration:
    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("negative cup count")

    @property
    def size(self) -> int:
        return sum(self.counts)

    @staticmethod
    def all_ones(n: int) -> "Configuration":
        return Configuration((1,) * n)


class MoveView(Sequence):
    """Read-only sequence of the moves of a flat [s0, d0, s1, d1, ...]
    array; each Move is made when it is read."""

    __slots__ = ("_flat",)

    def __init__(self, flat: array):
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) >> 1

    def __getitem__(self, i: int) -> Move:
        if not -len(self) <= i < len(self):
            raise IndexError("move index out of range")
        i %= len(self)
        return Move(self._flat[2 * i], self._flat[2 * i + 1])

    def __iter__(self):
        it = iter(self._flat)
        return map(Move, it, it)

    def __eq__(self, other) -> bool:
        if isinstance(other, MoveView):
            return self._flat == other._flat
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"MoveView({list(self)!r})"


@dataclass(frozen=True)
class Plan:
    """A move sequence stored as one flat int array [s0, d0, s1, d1, ...]
    of 8 bytes per entry; `moves` reads it as Move objects."""
    n: int
    target: int
    flat: array
    initial: Optional[Configuration] = None

    def __post_init__(self):
        if not (isinstance(self.flat, array) and self.flat.typecode == "q"):
            object.__setattr__(self, "flat", array("q", self.flat))
        if len(self.flat) % 2:
            raise ValueError("flat move array has odd length")

    @property
    def moves(self) -> MoveView:
        return MoveView(self.flat)

    def to_json_dict(self) -> dict:
        it = iter(self.flat)
        out: dict = {"n": self.n, "target": self.target,
                     "moves": [[s, d] for s, d in zip(it, it)]}
        if self.initial is not None:
            out["initial"] = list(self.initial.counts)
        return out

    @staticmethod
    def from_json_dict(data) -> "Plan":
        """Build a plan from parsed JSON, accepting only JSON integers
        (not floats, strings or booleans) as numbers."""
        if not isinstance(data, dict):
            raise ValueError("plan must be a JSON object")
        for key in ("n", "target", "moves"):
            if key not in data:
                raise ValueError(f"plan has no {key!r}")
        n = _json_int(data["n"], "n")
        target = _json_int(data["target"], "target")
        moves = data["moves"]
        if not isinstance(moves, list):
            raise ValueError("plan moves must be a list")
        flat = array("q")
        for i, mv in enumerate(moves):
            if not (isinstance(mv, list) and len(mv) == 2
                    and type(mv[0]) is int and type(mv[1]) is int):
                raise ValueError(f"move {i}: expected [src, dst] as two integers, got {mv!r}")
            try:
                flat.extend(mv)
            except OverflowError:
                raise ValueError(f"move {i}: vertex out of range") from None
        initial = None
        if data.get("initial") is not None:
            counts = data["initial"]
            if not isinstance(counts, list):
                raise ValueError("plan initial must be a list")
            initial = Configuration(tuple(_json_int(c, "initial count") for c in counts))
        return Plan(n, target, flat, initial)


def _json_int(value, what: str) -> int:
    if type(value) is not int:          # bool is a subclass of int
        raise ValueError(f"plan {what} must be an integer, got {value!r}")
    return value


def legal_move(board, c: Configuration, mv: Move) -> bool:
    """A move is legal when both endpoints hold a cup and the pile on the
    source exactly covers the hop distance to the destination."""
    pile = c.counts[mv.src]
    return pile >= 1 and c.counts[mv.dst] >= 1 and board.dist(mv.src, mv.dst) == pile


def apply_move(c: Configuration, mv: Move) -> Configuration:
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


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    step: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_plan(board, plan: Plan, initial: Optional[Configuration] = None) -> VerifyResult:
    """Replay a plan move by move; accept iff every move is legal and the
    final configuration has every cup on the target.  One loop serves
    every board: it walks the flat move array in (src, dst) pairs and asks
    the board for distances."""
    n = board.n
    config = initial if initial is not None else plan.initial
    # The all-ones start has plan.n cups: compare before building it, so
    # a plan claiming a huge n costs nothing.
    if (len(config.counts) if config is not None else plan.n) != n:
        return VerifyResult(False, None, "initial configuration size mismatch")
    if config is None:
        config = Configuration.all_ones(n)
    if not 0 <= plan.target < n:
        return VerifyResult(False, None, f"target {plan.target} out of range")
    counts = list(config.counts)
    total = sum(counts)
    dist = board.dist
    it = iter(plan.flat)
    for i, src, dst in zip(count(), it, it):
        if not (0 <= src < n and 0 <= dst < n):
            return VerifyResult(False, i, f"move {i}: vertex out of range")
        pile = counts[src]
        if pile < 1:
            return VerifyResult(False, i, f"move {i}: source {src} empty")
        if counts[dst] < 1:
            return VerifyResult(False, i, f"move {i}: destination {dst} empty")
        d = dist(src, dst)
        if d != pile:
            return VerifyResult(
                False, i, f"move {i}: pile {pile} at {src} but dist({src},{dst})={d}")
        counts[dst] += pile
        counts[src] = 0
    if counts[plan.target] != total:
        return VerifyResult(False, None, "final configuration not concentrated on target")
    return VerifyResult(True)


def verify_barrier(g: Graph, r: int, barrier: Iterable[int]) -> VerifyResult:
    """Check a certificate that no matching of G - r saturates N_2(r):
    more odd components of (G - r) - X must lie wholly inside N_2(r) than
    X has vertices.  Each such component has an odd number of vertices
    to cover, so it needs its own matching edge into X."""
    X = set(barrier)
    if not X <= set(range(g.n)):
        return VerifyResult(False, None, "barrier vertex out of range")
    if r in X:
        return VerifyResult(False, None, "barrier contains the target")
    dist = g.bfs_from(r)
    seen = X | {r}
    odd_inside = 0
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        for u in comp:
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
        if len(comp) % 2 and all(dist[v] == 2 for v in comp):
            odd_inside += 1
    if odd_inside <= len(X):
        return VerifyResult(
            False, None,
            f"{odd_inside} odd components of (G - r) - X inside N_2(r), "
            f"not more than |X| = {len(X)}")
    return VerifyResult(True)


@dataclass(frozen=True)
class StackingPart:
    vertices: tuple[int, ...]
    cups: tuple[int, ...]        # cup counts aligned with vertices
    staging: int                 # vertex the part stacks onto
    moves: Sequence[int] = ()    # flat [s0, d0, ...] stacking it there


@dataclass(frozen=True)
class StackingPartition:
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
