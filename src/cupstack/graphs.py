"""Graph representation, distances, and the cup game semantics.

Vertices are dense integers 0..n-1.  A move picks up every cup on one
vertex and drops the pile on another vertex that already holds a cup,
provided the hop distance between the two equals the pile size.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence
from functools import cached_property
from typing import Iterable, NamedTuple, Optional


class GraphError(ValueError):
    """Raised for malformed or out-of-contract graph input; `edge` is the
    index of the edge at fault in the list given to `Graph`, or None."""

    def __init__(self, message: str, edge: Optional[int] = None):
        super().__init__(message)
        self.edge = edge


class Graph:
    """Connected simple undirected graph on vertices 0..n-1."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[Sequence[object]] = None):
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        adj: list[set[int]] = [set() for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}", i)
            if u == v:
                raise GraphError(f"self-loop at vertex {u}", i)
            if v in adj[u]:
                raise GraphError(f"duplicate edge ({u},{v})", i)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj)
        self.labels = tuple(labels) if labels is not None else None
        # Each source's distance row and layers, once `_layering` has run
        # from it.
        self._rows: list[Optional[list[int]]] = [None] * n
        self._layers: list[Optional[list[list[int]]]] = [None] * n
        if sum(map(len, self._layering(0))) < n:
            raise GraphError("graph is disconnected")

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def _layering(self, s: int) -> list[list[int]]:
        """s's layers, the vertices at each distance from s in ascending
        order, from one breadth-first pass that also records s's distance
        row (-1 where s does not reach); both are kept for later calls."""
        layers = self._layers[s]
        if layers is None:
            adj = self.adj
            row = [-1] * self.n
            row[s] = 0
            layers = [[s]]
            front = layers[0]
            while True:
                d = len(layers)
                grown = []
                for u in front:
                    for v in adj[u]:
                        if row[v] < 0:
                            row[v] = d
                            grown.append(v)
                if not grown:
                    break
                grown.sort()
                layers.append(grown)
                front = grown
            self._rows[s] = row
            self._layers[s] = layers
        return layers

    def bfs_from(self, s: int) -> list[int]:
        """s's distance row, from s's layering; the list is kept on the
        graph and shared, so do not mutate it."""
        self._layering(s)
        return self._rows[s]

    def distances(self) -> list[list[int]]:
        """The all-pairs matrix: every source's distance row, laid out by
        one `_layering` pass each.  Shared, like `bfs_from`'s rows."""
        if None in self._rows:
            for s in range(self.n):
                self._layering(s)
        return self._rows

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

    @cached_property
    def _is_cycle(self) -> bool:
        """True when the graph is the cycle 0-1-...-(n-1)-0, edge for edge."""
        n = self.n
        return n >= 3 and all(nbrs == tuple(sorted(((v - 1) % n, (v + 1) % n)))
                              for v, nbrs in enumerate(self.adj))

    @cached_property
    def _tree(self) -> Optional[tuple[list[int], list[list[int]]]]:
        """For a tree (n - 1 edges, as the graph is connected): each
        vertex's depth below vertex 0, and the ancestor tables up[j][v],
        the 2^j-th ancestor of v (0 past the root); None otherwise."""
        n = self.n
        if sum(map(len, self.adj)) != 2 * (n - 1):
            return None
        self._layering(0)
        depth = self._rows[0]
        # In a tree each vertex but 0 has one neighbour a layer nearer 0.
        parent = [0] + [next(u for u in self.adj[w] if depth[u] < depth[w])
                        for w in range(1, n)]
        up = [parent]
        for _ in range(max(depth).bit_length() - 1):
            up.append([up[-1][p] for p in up[-1]])
        return depth, up

    def dist(self, u: int, v: int) -> int:
        """Hop distance, from the first of five tiers that applies:

        1. u's memoised row, once `_layering` has run from u (the
           connectivity check runs it from 0, `bfs_from`, `shells` and
           `eccentricity` from their vertex, `distances` from all);
        2. a closed form when the graph is, edge for edge, a row-major
           grid (paths, `grid_graph`, `cube_graph`; see `_grid_axes`,
           found once on the first call that finds no row): the sum
           over axes of the difference of the two vertices' digits;
        3. a closed form when it is the cycle labelled in order
           (`cycle_graph`; see `_is_cycle`): the shorter way round;
        4. a tree (spiders, stars; see `_tree`): depth(u) + depth(v) -
           2 depth(lca), the lowest common ancestor found by lifting u and
           v in powers of two;
        5. otherwise a two-ended BFS.  Each step grows the smaller
           frontier by one whole layer; the balls of radius `layers`
           split between u and v stay disjoint until a new layer touches
           the other side, and then the distance is `layers + 1`."""
        row = self._rows[u]
        if row is not None:
            return row[v]
        axes = self._grid_axes
        if axes is not None:
            d = 0
            for stride, span in axes:
                d += abs(u % span // stride - v % span // stride)
            return d
        if self._is_cycle:
            d = abs(u - v)
            return min(d, self.n - d)
        tree = self._tree
        if tree is not None:
            depth, up = tree
            du, dv = depth[u], depth[v]
            if du < dv:
                u, v, du, dv = v, u, dv, du
            for j, anc in enumerate(up):    # lift u to v's depth
                if (du - dv) >> j & 1:
                    u = anc[u]
            if u != v:
                for anc in reversed(up):    # highest ancestors that differ
                    if anc[u] != anc[v]:
                        u, v = anc[u], anc[v]
                u = up[0][u]
            return du + dv - 2 * depth[u]
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
    """Parse the edge-list graph format: '# comment', 'n <count>', 'e <u> <v>'.
    Only the lines are read here; `Graph` checks the edges, and a fault
    it finds is reported at the line of the edge at fault, or at the n
    line when it is not about one edge."""
    n = None
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    lineno = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before n line")
            if len(parts) != 3 or not (_is_ascii_int(parts[1])
                                       and _is_ascii_int(parts[2])):
                raise GraphError(f"line {lineno}: malformed edge line")
            edges.append((int(parts[1]), int(parts[2])))
            edge_lines.append(lineno)
        elif parts[0] == "n":
            if n is not None:
                raise GraphError(f"line {lineno}: duplicate n line")
            if len(parts) != 2 or not _is_ascii_int(parts[1]):
                raise GraphError(f"line {lineno}: malformed n line")
            n, n_line = int(parts[1]), lineno
        else:
            raise GraphError(f"line {lineno}: unrecognized line {line.strip()!r}")
    if n is None:
        raise GraphError(f"line {lineno + 1}: missing n line")
    # Refused before Graph builds n adjacency sets, which a short file
    # claiming a huge n would otherwise pay for.
    if len(edges) < n - 1:
        raise GraphError(f"line {n_line}: graph is disconnected: "
                         f"{len(edges)} edges cannot connect {n} vertices")
    try:
        return Graph(n, edges)
    except GraphError as exc:
        at = n_line if exc.edge is None else edge_lines[exc.edge]
        raise GraphError(f"line {at}: {exc}") from None


def _is_ascii_int(word: str) -> bool:
    """True for a run of 0-9 only; `str.isdigit` alone also passes
    superscripts, which `int` rejects, and other scripts' digits, which
    `int` reads as numbers."""
    return word.isascii() and word.isdigit()


def format_graph(g: Graph) -> str:
    lines = [f"n {g.n}"] + [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def shells(g: Graph, r: int) -> list[list[int]]:
    """Vertex sets N_0(r)..N_ecc(r) grouped by distance from r, each
    ascending: r's layering, kept on the graph and shared, so do not
    mutate it."""
    return g._layering(r)


def eccentricity(g: Graph, v: int) -> int:
    return len(g._layering(v)) - 1


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


def stack_parts(parts: Iterable[tuple[Sequence[int], int]],
                target: int) -> list[int]:
    """Flat moves stacking fresh all-ones lines onto target, for every
    partition planner.  A part (line, stage) is an isometric path with
    dist(line[stage], target) = len(line), so it is one part of a stacking
    partition: each side of the stage, with the stage, is stacked onto the
    stage by `_endpoint_moves`, and the whole pile then jumps to the
    target.  Empty lines are skipped."""
    moves: list[int] = []
    for line, stage in parts:
        if line:
            if stage:
                moves += _endpoint_moves(line[stage::-1])
            if stage + 1 < len(line):
                moves += _endpoint_moves(line[stage:])
            moves += (line[stage], target)
    return moves


class Move(NamedTuple):
    src: int
    dst: int


class _Configuration(NamedTuple):
    counts: tuple[int, ...]


class Configuration(_Configuration):
    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]):
        if any(c < 0 for c in counts):
            raise ValueError("negative cup count")
        return super().__new__(cls, counts)

    @property
    def size(self) -> int:
        return sum(self.counts)

    @staticmethod
    def all_ones(n: int) -> "Configuration":
        return Configuration((1,) * n)


class MoveView:
    """A flat [s0, d0, s1, d1, ...] array's length in moves and its moves
    as Move objects, made as they are iterated: all that the benchmark
    reads of `Plan.moves`.  Everything else reads `Plan.flat`."""

    def __init__(self, flat: array):
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) >> 1

    def __iter__(self):
        it = iter(self._flat)
        return map(Move, it, it)


# Plan.to_json formats this many moves per `%`, so the tuple of ints it
# formats from stays small whatever the plan's length.
_JSON_BLOCK = 4096
_JSON_BLOCK_FORMAT = ", ".join(["[%d, %d]"] * _JSON_BLOCK)


# The typecode of every Plan.flat: a 4-byte signed int.  n cups take
# n - 1 moves, so no plan that could be accepted names a vertex of 2^31.
PLAN_TYPECODE = "i"


class _Plan(NamedTuple):
    n: int
    target: int
    flat: array
    initial: Optional[Configuration] = None


class Plan(_Plan):
    """A move sequence stored as one flat int array [s0, d0, s1, d1, ...]
    of 4 bytes per entry (typecode PLAN_TYPECODE), 8 bytes per move.
    Every reader takes the moves from `flat`; `moves` is the benchmark's
    length-and-iteration view of it."""
    __slots__ = ()

    def __new__(cls, n: int, target: int, flat,
                initial: Optional[Configuration] = None):
        if not (isinstance(flat, array) and flat.typecode == PLAN_TYPECODE):
            flat = array(PLAN_TYPECODE, flat)
        if len(flat) % 2:
            raise ValueError("flat move array has odd length")
        return super().__new__(cls, n, target, flat, initial)

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

    def to_json(self) -> str:
        """The plan file: exactly the text of json.dumps(to_json_dict()),
        with the moves formatted by one `%` per block of moves instead of
        a list per move."""
        blocks = []
        for i in range(0, len(self.flat), 2 * _JSON_BLOCK):
            block = self.flat[i:i + 2 * _JSON_BLOCK]
            fmt = (_JSON_BLOCK_FORMAT if len(block) == 2 * _JSON_BLOCK
                   else ", ".join(["[%d, %d]"] * (len(block) // 2)))
            blocks.append(fmt % tuple(block))
        text = '{"n": %d, "target": %d, "moves": [%s]' % (
            self.n, self.target, ", ".join(blocks))
        if self.initial is not None:
            text += ', "initial": [%s]' % ", ".join(map(str, self.initial.counts))
        return text + "}"

    @staticmethod
    def from_json_dict(data) -> "Plan":
        """Build a plan from parsed JSON, accepting only JSON integers
        (not floats, strings or booleans) as numbers, and as vertices only
        those that fit PLAN_TYPECODE (-2^31 to 2^31 - 1)."""
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
        flat = array(PLAN_TYPECODE)
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


class VerifyResult(NamedTuple):
    ok: bool
    step: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_plan(board, plan: Plan) -> VerifyResult:
    """Replay a plan move by move from `plan.initial` (None: all ones);
    accept iff every move is legal and the final configuration has every
    cup on the target.  Two loops walk the flat move array in (src, dst)
    pairs: a `CubeBoard` (that type, not a subclass that may override
    `dist`) has its Hamming distance inline, as a call per move is a third
    of a million-move replay; any other board is asked through
    `board.dist`."""
    n = board.n
    config = plan.initial
    # The all-ones start has plan.n cups: compare before building it, so
    # a plan claiming a huge n costs nothing.
    if (len(config.counts) if config is not None else plan.n) != n:
        return VerifyResult(False, None, "initial configuration size mismatch")
    if not 0 <= plan.target < n:
        return VerifyResult(False, None, f"target {plan.target} out of range")
    if config is None:
        # A list, unless the plan has fewer entries than n: then a dict of
        # the vertices in range that it names, and the target, so a short
        # plan claiming a huge n costs only its own length.  Each move
        # empties one vertex for good (a destination must hold a cup), so
        # n cups take n - 1 moves, 2n - 2 entries: such a plan fails
        # unless n = 1.
        counts = [1] * n if n <= len(plan.flat) else dict.fromkeys(
            [v for v in plan.flat if 0 <= v < n] + [plan.target], 1)
        total = n
    else:
        counts = list(config.counts)
        total = sum(counts)
    dist = board.dist
    # The moves are read as unsigned 32-bit ints, so a negative vertex
    # reads as 2^31 or more (out of range whatever n) and every vertex
    # outside 0..n-1 raises IndexError (KeyError from a dict) when
    # `counts` is indexed: no move pays a range test of its own.  Counts
    # are never negative, so `pile and top` tests that both ends hold a
    # cup, and the distance is only taken for such moves.  A rejection's
    # step and reason are built after the loop, from the failing move.
    with memoryview(plan.flat).cast("B").cast("I") as view:
        it = iter(view)
        try:
            if type(board) is CubeBoard:
                for src, dst in zip(it, it):
                    pile = counts[src]
                    top = counts[dst]
                    if not (pile and top and (src ^ dst).bit_count() == pile):
                        break
                    counts[dst] = top + pile
                    counts[src] = 0
                else:
                    src = None
            else:
                for src, dst in zip(it, it):
                    pile = counts[src]
                    top = counts[dst]
                    if not (pile and top and dist(src, dst) == pile):
                        break
                    counts[dst] = top + pile
                    counts[src] = 0
                else:
                    src = None
        except (IndexError, KeyError):
            if max(src, dst) < min(n, 1 << 31):     # the board's, not counts'
                raise
            pile = None
    if src is not None:
        # A legal move empties its source for good (a destination must hold
        # a cup) and a rejected one changes nothing, so the failing move's
        # index is the number of zero counts gained since the start.
        i = operator.countOf(counts.values() if type(counts) is dict else counts, 0)
        if config is not None:
            i -= config.counts.count(0)
        if pile is None:
            return VerifyResult(False, i, f"move {i}: vertex out of range")
        if pile < 1:
            return VerifyResult(False, i, f"move {i}: source {src} empty")
        if top < 1:
            return VerifyResult(False, i, f"move {i}: destination {dst} empty")
        return VerifyResult(False, i, f"move {i}: pile {pile} at {src} but "
                            f"dist({src},{dst})={dist(src, dst)}")
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
