"""Graph parsing, distances, move semantics, and the two verifiers."""

import hashlib
import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from conftest import (StackingPart, StackingPartition, apply_move, diameter,
                      floyd_warshall, legal_move, pairs, random_bare_graph,
                      random_connected_graph, verify_partition)
from cupstack import decide
from cupstack.graphs import (Configuration, CubeBoard, Graph, GraphError,
                             Move, Plan, eccentricity, format_graph,
                             parse_graph, shells, verify_plan)
from cupstack.cube import plan_cube
from cupstack.families import (FAMILIES, complete_graph, cube_graph,
                               cycle_graph, grid_graph, kneser_graph,
                               path_graph, petersen_graph, plan_grid,
                               spider_graph, star_graph)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ------------------------------------------------------------------- parsing

def test_parse_k2():
    g = parse_graph("n 2\ne 0 1")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_parse_p3():
    g = parse_graph("n 3\ne 0 1\ne 1 2")
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]


def test_parse_disconnected_rejected():
    with pytest.raises(GraphError, match="disconnected"):
        parse_graph("n 4\ne 0 1\ne 2 3")


def test_parse_refuses_too_few_edges_before_building():
    # A connected graph on n vertices has at least n - 1 edges; a short
    # file claiming a huge n is refused without n adjacency sets.
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="line 2: graph is disconnected"):
            parse_graph("# empty\nn 200000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("n 3\ne 0 3\ne 1 2")
    with pytest.raises(GraphError, match="line 1"):
        parse_graph("e 0 1")
    with pytest.raises(GraphError, match="line 3"):
        parse_graph("n 3\ne 0 1\ne 0 1\ne 1 2")
    with pytest.raises(GraphError, match="line 3: duplicate edge"):
        parse_graph("n 3\ne 0 1\ne 1 0\ne 1 2")
    with pytest.raises(GraphError, match="line 1: graph needs at least one vertex"):
        parse_graph("n 0")


@pytest.mark.parametrize("text, message", [
    ("n 3\ne 0 1\ne 0 \u00b2", "line 3: malformed edge line"),     # superscript 2
    ("n 3\ne \u0661 \u0662\ne 0 1", "line 2: malformed edge line"),  # Arabic-Indic 1 2
    ("n \u0663\ne 0 1\ne 1 2", "line 1: malformed n line"),           # Arabic-Indic 3
])
def test_parse_accepts_only_ascii_digits(text, message):
    with pytest.raises(GraphError, match=message):
        parse_graph(text)


def test_parse_comments_and_blank_lines():
    g = parse_graph("# triangle\n\nn 3\ne 0 1\ne 1 2\n e 0 2\n")
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_format_round_trip():
    g = petersen_graph()
    again = parse_graph(format_graph(g))
    assert again.n == g.n and again.edges() == g.edges()


def test_graph_rejects_self_loop_and_duplicate():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(2, [(0, 0), (0, 1)])
    with pytest.raises(GraphError, match="duplicate"):
        Graph(2, [(0, 1), (1, 0)])


def parse_corpus(graphs) -> list[str]:
    """Texts for the parse digest: each graph as `format_graph` writes it,
    then the same text with every edge reversed and with indented lines,
    comments and blank lines mixed in, then every fixture graph file."""
    texts = []
    for g in graphs:
        text = format_graph(g)
        mixed = ["# " + text.split("\n", 1)[0]]
        for i, line in enumerate(text.splitlines()):
            tag, *ends = line.split()
            mixed.append(" " * (i % 3) + " ".join([tag, *reversed(ends)]))
            if i % 4 == 1:
                mixed.append("  # after line %d" % i)
            if i % 5 == 2:
                mixed.append("" if i % 2 else "\t")
        texts += [text, "\n".join(mixed)]
    texts += [p.read_text(encoding="utf-8")
              for p in sorted(FIXTURES.glob("*.graph"))]
    return texts


def test_parse_digest(atlas7):
    # The adjacency each text of the corpus parses to: a change in how
    # lines are read or edges checked that alters any graph shows here.
    h = hashlib.sha256()
    texts = parse_corpus(atlas7)
    for text in texts:
        g = parse_graph(text)
        h.update(repr((g.n, g.adj)).encode())
    assert len(texts) == 2 * len(atlas7) + 6
    assert h.hexdigest() == ("5e779d561c01908f8508844b7c3ac681"
                            "9927182afeebb4e9314f92698e917913")


@pytest.mark.parametrize("text, message", [
    pytest.param("n 3\ne 0 1\ne 1 3\ne 1 2",
                 "line 3: edge (1,3) out of range for n=3", id="range"),
    pytest.param("n 3\ne 0 1\ne 2 2\ne 1 2",
                 "line 3: self-loop at vertex 2", id="self-loop"),
    pytest.param("n 3\ne 0 1\n# again\ne 1 0\ne 1 2",
                 "line 4: duplicate edge (1,0)", id="duplicate"),
    # Not about one edge: reported at the n line.
    pytest.param("n 4\ne 0 1\ne 1 2\ne 0 2",
                 "line 1: graph is disconnected", id="disconnected"),
    pytest.param("# four\n\nn 4\ne 0 1\ne 1 2\ne 2 0",
                 "line 3: graph is disconnected", id="disconnected-late-n"),
    pytest.param("n 0", "line 1: graph needs at least one vertex", id="n0"),
    # No n line: reported just past the last line.
    pytest.param("", "line 1: missing n line", id="empty"),
    pytest.param("# only\n# comments", "line 3: missing n line", id="no-n"),
    # Several faults in one file: syntax first, wherever it is ...
    pytest.param("n 3\ne 0 0\ne 0 5\nx", "line 4: unrecognized line 'x'",
                 id="unrecognized"),
    pytest.param("n 3\ne 1 0\ne 0 1\ne 0 1 2", "line 4: malformed edge line",
                 id="malformed"),
    # ... then too few edges, before any edge is refused ...
    pytest.param("n 4\ne 0 0\ne 0 1", "line 1: graph is disconnected: "
                 "2 edges cannot connect 4 vertices", id="too-few"),
    # ... then the first edge that Graph refuses.
    pytest.param("n 4\ne 0 1\ne 1 1\ne 0 9\ne 2 3",
                 "line 3: self-loop at vertex 1", id="first-edge"),
    pytest.param("n 4\ne 0 1\ne 1 0\ne 2 3",
                 "line 3: duplicate edge (1,0)", id="edge-before-connectivity"),
])
def test_parse_error_names_its_line(text, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        parse_graph(text)


def test_graph_error_names_the_edge():
    for edges, index in (([(0, 1), (1, 3)], 1), ([(1, 1), (0, 1)], 0),
                         ([(0, 1), (1, 2), (2, 1)], 2)):
        with pytest.raises(GraphError) as fault:
            Graph(3, edges)
        assert fault.value.edge == index
    for n, edges in ((0, []), (3, [(0, 1)])):
        with pytest.raises(GraphError) as fault:
            Graph(n, edges)
        assert fault.value.edge is None


# ----------------------------------------------------------------- distances

def test_p3_distance():
    assert path_graph(3).dist(0, 2) == 2


def test_c5_antipodes():
    g = cycle_graph(5)
    for v in range(5):
        assert g.dist(v, (v + 2) % 5) == 2
        assert g.dist(v, (v + 3) % 5) == 2


def test_q4_distance_is_popcount():
    g = CubeBoard(4).to_graph()
    board = CubeBoard(4)
    for u in range(16):
        for v in range(16):
            assert g.dist(u, v) == board.dist(u, v) == (u ^ v).bit_count()


def test_bfs_matrix_matches_floyd_warshall():
    rng = random.Random(20260823)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 9))
        assert g.distances() == floyd_warshall(g)


def sparse_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random tree plus at most n extra edges: long, uneven distances."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


def box_graph(sides) -> Graph:
    """The product of paths with these sides, row-major: the first side
    varies fastest, as in `grid_graph`."""
    n, strides = 1, []
    for side in sides:
        strides.append(n)
        n *= side
    edges = [(v, v + stride) for v in range(n)
             for stride, side in zip(strides, sides)
             if v // stride % side < side - 1]
    return Graph(n, edges)


def cube_file_graph(d: int) -> Graph:
    """Q^d as `cupstack gen cube` writes it and `verify -g` reads it."""
    return parse_graph(format_graph(cube_graph(d)))


def row_major_grids() -> list[Graph]:
    """Graphs whose `dist` takes the closed form."""
    return ([path_graph(n) for n in (1, 2, 7)]
            + [grid_graph(m, k) for m in range(1, 7) for k in range(1, 7)]
            + [grid_graph(9, 8), box_graph((3, 3, 3))]
            + [cube_file_graph(d) for d in range(7)])


def not_grids() -> list[Graph]:
    """Grids spoiled by a relabelling, an added edge or a removed
    non-bridge edge, strides that do not divide, cycles, Petersen and a
    Kneser graph: `dist` runs the BFS on each."""
    edges = grid_graph(4, 3).edges()
    swap = {5: 6, 6: 5}
    return [
        Graph(12, [(swap.get(u, u), swap.get(v, v)) for u, v in edges]),
        Graph(12, edges + [(5, 10)]),
        Graph(12, [e for e in edges if e != (5, 6)]),
        Graph(12, [e for e in edges if e != (0, 1)]),
        # Vertex 0's neighbours 1, 2, 3 as strides, and every vertex has
        # the neighbours they predict, but 2 does not divide 3.
        Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 5), (3, 5),
                  (4, 5)]),
        cycle_graph(3), cycle_graph(4), cycle_graph(8), cycle_graph(11),
        petersen_graph(), kneser_graph(7, 3),
    ]


def relabelled_cycle() -> Graph:
    """A 9-cycle visiting the vertices out of order: `dist` runs the BFS."""
    order = [0, 2, 1, 3, 5, 4, 6, 8, 7]
    return Graph(9, [(order[i], order[i - 1]) for i in range(9)])


def relabelled_tree(rng: random.Random, n: int) -> Graph:
    """A random tree whose vertices are shuffled, so that vertex 0, the
    root of `dist`'s tree tier, may be a leaf, and parents need not
    precede their children."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[rng.randrange(v)], perm[v]) for v in range(1, n)])


def trees() -> list[Graph]:
    """Graphs whose `dist` takes the tree tier."""
    rng = random.Random(20261019)
    return ([spider_graph([3, 1, 4, 1, 5]), star_graph(6)]
            + [relabelled_tree(rng, rng.randint(3, 60)) for _ in range(30)])


def distance_graphs() -> list[Graph]:
    rng = random.Random(20261018)
    return (row_major_grids() + not_grids() + [relabelled_cycle()] + trees()
            + [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(20)]
            + [sparse_connected_graph(rng, rng.randint(2, 40)) for _ in range(20)])


def test_dist_matches_bfs_before_and_after_matrix():
    # Closed form or two-ended BFS first, then the cached matrix on the
    # same graph.  `not_grids` holds odd and even cycles labelled in
    # order (the cycle tier); `relabelled_cycle` falls back to the BFS;
    # `trees` take the tree tier.  The rows come from a copy, as `dist`
    # reads any row memoised on its own graph.
    for g in distance_graphs():
        copy = Graph(g.n, g.edges())
        rows = [copy.bfs_from(u) for u in range(g.n)]
        for _ in range(2):
            assert [[g.dist(u, v) for v in range(g.n)]
                    for u in range(g.n)] == rows
            g.distances()


def test_cycle_tier_recognises_only_cycles_labelled_in_order():
    assert all(cycle_graph(n)._is_cycle for n in (3, 4, 8, 11))
    assert not any(g._is_cycle for g in row_major_grids())
    assert not relabelled_cycle()._is_cycle


def test_tree_tier_recognises_only_trees():
    assert all(g._grid_axes is None and not g._is_cycle and g._tree is not None
               for g in trees())
    assert not any(g._tree for g in not_grids() + [relabelled_cycle()])
    assert path_graph(7)._grid_axes is not None      # paths keep the grid tier
    spider = spider_graph([2, 3])
    assert spider._tree == ([0, 1, 2, 1, 2, 3], [[0, 0, 1, 0, 3, 4],
                                                 [0, 0, 0, 0, 0, 3]])
    assert Graph(6, spider.edges() + [(2, 5)])._tree is None


def test_grid_tier_recognises_only_row_major_grids():
    assert all(g._grid_axes is not None for g in row_major_grids())
    assert all(g._grid_axes is None for g in not_grids())
    assert grid_graph(6, 5)._grid_axes == ((1, 6), (6, 30))
    assert box_graph((3, 3, 3))._grid_axes == ((1, 3), (3, 9), (9, 27))
    assert cube_file_graph(3)._grid_axes == ((1, 2), (2, 4), (4, 8))
    assert path_graph(5)._grid_axes == ((1, 5),)


def spoiled(flat: list[int], n: int) -> list[list[int]]:
    """Broken copies of a plan's flat moves: each move reversed, moved
    one vertex over at either end, or swapped with the next, and the
    plan cut short."""
    out = [flat[:-2]]
    for i in range(0, len(flat), 2):
        for a, b in ((flat[i + 1], flat[i]), (flat[i], (flat[i + 1] + 1) % n),
                     ((flat[i] + 1) % n, flat[i + 1])):
            out.append(flat[:i] + [a, b] + flat[i + 2:])
        if i + 2 < len(flat):
            out.append(flat[:i] + flat[i + 2:i + 4] + flat[i:i + 2] + flat[i + 4:])
    return out


@pytest.mark.parametrize("name, params, r", [
    ("grid", (9, 8), 30), ("grid", (5, 1), 2), ("path", (40,), 17),
    ("cube", (4,), 0), ("cycle", (11,), 4),
])
def test_spoiled_plans_get_the_matrix_tiers_verdicts(name, params, r):
    # Both graphs are read from the file `cupstack gen` writes; only the
    # second has the all-pairs matrix, the first takes the grid closed
    # form (or, for the cycle, the cycle tier).
    family = FAMILIES[name]
    plan = family.plan(list(params), r)
    text = format_graph(family.generate(*params))
    fresh, matrix = parse_graph(text), parse_graph(text)
    matrix.distances()
    assert verify_plan(fresh, plan)
    rejected = 0
    for flat in spoiled(list(plan.flat), plan.n):
        spoilt = Plan(plan.n, plan.target, flat)
        res = verify_plan(fresh, spoilt)
        assert res == verify_plan(matrix, spoilt)
        rejected += "dist(" in (res.reason or "")
    assert rejected > len(plan.flat) // 2


@pytest.mark.parametrize("cached", [False, True])
def test_verify_reports_retargeted_grid_move(cached):
    # Retarget one move of the 9x8 grid plan to a vertex that holds cups
    # but lies at the wrong distance: the step and its exact distance.
    g = grid_graph(9, 8)
    plan = plan_grid(9, 8, (4, 3))
    if cached:
        g.distances()
    flat = list(plan.flat)
    i = len(flat) // 4
    counts = [1] * g.n
    for src, dst in zip(flat[0:2 * i:2], flat[1:2 * i:2]):
        counts[dst] += counts[src]
        counts[src] = 0
    src, pile = flat[2 * i], counts[flat[2 * i]]
    row = g.bfs_from(src)
    dst = next(v for v in range(g.n)
               if v != src and counts[v] and row[v] != pile)
    flat[2 * i + 1] = dst
    res = verify_plan(g, Plan(plan.n, plan.target, flat))
    assert not res and res.step == i
    assert res.reason == (f"move {i}: pile {pile} at {src} "
                          f"but dist({src},{dst})={row[dst]}")


# ------------------------------------------------------- shells and diameter

def test_petersen_shells():
    g = petersen_graph()
    for r in range(g.n):
        sh = shells(g, r)
        assert [len(s) for s in sh] == [1, 3, 6]


def test_k4_shell_is_dominating():
    g = complete_graph(4)
    sh = shells(g, 0)
    assert sh[1] == [1, 2, 3] and len(sh) == 2


def test_p5_middle_shells():
    sh = shells(path_graph(5), 2)
    assert [len(s) for s in sh] == [1, 2, 2]


def test_eccentricity_and_diameter():
    assert eccentricity(star_graph(3), 1) == 2
    assert diameter(cycle_graph(6)) == 3
    # K(8,3) sits in the m >= 3k-1 range where the diameter is two;
    # K(7,3) is the odd graph O_4 one step below it, with diameter three.
    assert diameter(kneser_graph(8, 3)) == 2
    assert diameter(kneser_graph(7, 3)) == 3


# ------------------------------------------------------------ the layering

def connected_gnp(seed: int, n: int, p: float) -> Graph:
    """G(n, p), drawn from `seed` until it is connected."""
    rng = random.Random(seed)
    while True:
        adj = random_bare_graph(rng, n, p)
        try:
            return Graph(n, [(u, v) for u, row in enumerate(adj)
                             for v in row if u < v])
        except GraphError:
            pass


def test_layering_matches_floyd_warshall(atlas7):
    # Each source's layers are ascending, split V, and hold the vertices
    # at each reference distance; `bfs_from`, `shells` and `eccentricity`
    # answer the same on a graph whose rows are laid out one at a time
    # (sources in descending order) as on one where `distances` laid out
    # all of them first.
    graphs = atlas7 + [grid_graph(9, 8), kneser_graph(7, 3), cycle_graph(11),
                       connected_gnp(20261021, 60, 0.08)]
    for g in graphs:
        ref = floyd_warshall(g)
        edges = g.edges()
        fresh, full = Graph(g.n, edges), Graph(g.n, edges)
        assert full.distances() == ref
        for s in reversed(range(g.n)):
            layers = shells(fresh, s)
            assert sorted(v for layer in layers for v in layer) == list(range(g.n))
            assert layers == [[v for v in range(g.n) if ref[s][v] == k]
                              for k in range(max(ref[s]) + 1)]
            assert fresh.bfs_from(s) == ref[s] == full.bfs_from(s)
            assert shells(full, s) == layers
            assert eccentricity(fresh, s) == max(ref[s]) == eccentricity(full, s)
        assert fresh.distances() == ref


def test_layering_is_laid_out_only_where_read():
    # The connectivity check lays out vertex 0's layering; a decision on
    # an eccentricity-2 target adds the target's alone, and only
    # `distances` (here through the oracle) lays out every source's.
    g = kneser_graph(8, 3)
    assert [s for s in range(g.n) if g._layers[s] is not None] == [0]
    assert decide(g, 17).method == "ecc2"
    assert [s for s in range(g.n) if g._layers[s] is not None] == [0, 17]
    g = path_graph(5)
    assert decide(g, 0).method == "oracle"
    assert None not in g._layers


# ------------------------------------------------------------ move semantics

def test_legal_move_examples():
    g = path_graph(3)
    ones = Configuration.all_ones(3)
    assert legal_move(g, ones, Move(1, 2))
    assert legal_move(g, Configuration((1, 0, 2)), Move(2, 0))
    assert not legal_move(g, ones, Move(0, 2))


def test_fixed_point_move_rejected():
    # Move(1, 1) can be made; applying it would put the pile on itself.
    with pytest.raises(ValueError, match="differ"):
        apply_move(Configuration((1, 1, 1)), Move(1, 1))
    res = verify_plan(path_graph(3), Plan(3, 0, [1, 1]))
    assert not res and res.step == 0 and "dist(1,1)=0" in res.reason


def test_apply_move_examples():
    c = apply_move(Configuration((1, 1, 1)), Move(1, 2))
    assert c.counts == (1, 0, 2)
    assert apply_move(c, Move(2, 0)).counts == (3, 0, 0)


def test_apply_move_requires_cups():
    with pytest.raises(ValueError):
        apply_move(Configuration((0, 1, 1)), Move(0, 1))
    with pytest.raises(ValueError):
        apply_move(Configuration((1, 0, 1)), Move(0, 1))


def test_apply_move_conserves_cups_randomized():
    rng = random.Random(7)
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(2, 7))
        counts = [rng.randint(0, 3) for _ in range(g.n)]
        c = Configuration(tuple(counts))
        legal = [Move(u, v) for u in range(g.n) for v in range(g.n)
                 if u != v and legal_move(g, c, Move(u, v))]
        if not legal:
            continue
        nxt = apply_move(c, rng.choice(legal))
        assert nxt.size == c.size


# ------------------------------------------------------------- plan verifier

def test_verify_p4_plan():
    g = path_graph(4)
    plan = Plan(4, 0, [2, 1, 1, 3, 3, 0])
    assert verify_plan(g, plan)


def test_verify_single_vertex_empty_plan():
    assert verify_plan(path_graph(1), Plan(1, 0, []))


def test_verify_rejects_with_step_and_reason():
    g = path_graph(3)
    res = verify_plan(g, Plan(3, 0, [1, 0, 2, 0]))
    assert not res and res.step == 1 and "dist" in res.reason


def test_verify_rejects_repeated_endpoint():
    # src == dst is rejected with its step, as a pile that does not
    # match dist 0.
    res = verify_plan(path_graph(3), Plan(3, 0, [1, 0, 2, 2]))
    assert not res and res.step == 1 and "dist(2,2)=0" in res.reason


def test_verify_rejects_out_of_range_vertex():
    # Each of the three count stores: the list of an all-ones start (a
    # plan with at least n entries), the dict of a shorter one, and the
    # list of an explicit start.  A bad source or destination, negative
    # or past n, is rejected at its own step.
    g = path_graph(3)
    ones = Configuration((1, 1, 1))
    for bad in (3, 5, -1, -2 ** 31, 2 ** 31 - 1):
        for moves, step in (([1, 0, bad, 0], 1), ([1, 0, 0, bad], 1),
                            ([bad, 0], 0), ([0, bad], 0)):
            for initial in (None, ones):
                res = verify_plan(g, Plan(3, 0, moves, initial))
                assert res == (False, step, f"move {step}: vertex out of range")
    for target in (3, -1):
        res = verify_plan(g, Plan(3, target, [1, 2, 2, 0]))
        assert not res and res.step is None and "target" in res.reason


def _first_bad_move(board, flat, start: Configuration):
    """Index of the first move that leaves 0..n-1 or breaks the move rule,
    replaying one move at a time, or None: the reference for the step
    that `verify_plan` works out from its zero counts."""
    for i in range(len(flat) // 2):
        mv = Move(flat[2 * i], flat[2 * i + 1])
        if not (0 <= min(mv) and max(mv) < board.n and legal_move(board, start, mv)):
            return i
        start = apply_move(start, mv)
    return None


def _cube_spoils(flat: list[int], n: int) -> list[list[int]]:
    """A hypercube plan spoilt at its middle move k: endpoints swapped,
    each end moved out of range, onto the source of move 0 (emptied
    earlier) or onto its own source, and the last move dropped."""
    k = len(flat) // 4
    s, t = 2 * k, 2 * k + 1
    out = [flat[:s] + [flat[t], flat[s]] + flat[t + 1:], flat[:-2]]
    for at in (s, t):
        for bad in (n, 2 ** 31 - 1, -1, flat[0]):
            out.append(flat[:at] + [bad] + flat[at + 1:])
    out.append(flat[:t] + [flat[s]] + flat[t + 1:])
    return out


def test_cube_replay_matches_the_generic_loop():
    # CubeBoard's replay tests the Hamming distance inline; the same cube
    # as a Graph goes through the loop that asks board.dist.  Both must
    # give the same (ok, step, reason) for every spoilt plan, from the
    # all-ones start and from a start whose zeros the step must discount.
    reasons = set()
    for d in range(1, 9):
        cube, graph = CubeBoard(d), CubeBoard(d).to_graph()
        plan = plan_cube(d).plan
        flat = list(plan.flat)
        zeros = {flat[-2], plan.n - 1}
        holed = Configuration(tuple(0 if v in zeros else 1 for v in range(plan.n)))
        for spoilt in _cube_spoils(flat, plan.n):
            for start in (Configuration.all_ones(plan.n), holed):
                p = Plan(plan.n, plan.target, spoilt, start)
                res = verify_plan(cube, p)
                assert res == verify_plan(graph, p)
                assert res.step == _first_bad_move(cube, spoilt, start)
                reasons.add(re.sub(r"[-\d]+", "#", res.reason or "accepted"))
    assert reasons == {"move #: vertex out of range", "move #: source # empty",
                       "move #: destination # empty", "move #: pile # at # but dist(#,#)=#",
                       "final configuration not concentrated on target", "accepted"}


def test_cube_replay_on_the_dict_store():
    # Q^40 is too big for a list of counts: a short plan is replayed on a
    # dict of the vertices it names.  A subclass takes the generic loop,
    # and one that overrides dist is asked for every distance.  Vertex -1
    # reads as 2^32 - 1, which is below 2^40 but is still out of range.
    class Same(CubeBoard):
        pass

    class Near(CubeBoard):
        def dist(self, u, v):
            return 1

    n = 1 << 40
    for moves, want in (
            ([1, 0], (False, None, "final configuration not concentrated on target")),
            ([3, 1, 1, 0], (False, 1, "move 1: pile 2 at 1 but dist(1,0)=1")),
            ([1, 0, 2 ** 31 - 1, 0], (False, 1, "move 1: pile 1 at 2147483647 "
                                             "but dist(2147483647,0)=31")),
            ([1, 0, 1, 2], (False, 1, "move 1: source 1 empty")),
            ([1, 0, 2, 1], (False, 1, "move 1: destination 1 empty")),
            ([1, 0, -1, 0], (False, 1, "move 1: vertex out of range")),
            ([1, 0, 0, -2 ** 31], (False, 1, "move 1: vertex out of range"))):
        for board in (CubeBoard(40), Same(40)):
            assert verify_plan(board, Plan(n, 0, moves)) == want
    assert verify_plan(Near(2), Plan(4, 0, [1, 0, 2, 0, 3, 0]))
    assert verify_plan(CubeBoard(2), Plan(4, 0, [1, 0, 2, 0, 3, 0])) == (
        False, 2, "move 2: pile 1 at 3 but dist(3,0)=2")


def test_verify_leaves_plan_array_resizable():
    # The replay reads the flat array through a buffer view; once it
    # returns or raises, the array can grow again.
    class Faulty:
        n = 3

        def dist(self, u, v):
            raise IndexError("board fault")

    for moves, ok in (([1, 0, 2, 0], False), ([1, 2, 2, 0], True),
                      ([1, 0, 5, 0], False)):
        plan = Plan(3, 0, moves)
        assert verify_plan(path_graph(3), plan).ok is ok
        plan.flat.append(0)
    plan = Plan(3, 0, [1, 2, 2, 0])
    with pytest.raises(IndexError, match="board fault") as fault:
        verify_plan(Faulty(), plan)     # not taken for a vertex out of range
    plan.flat.append(0)                 # while the traceback is still held
    assert len(plan.flat) == 5 and fault.traceback
    # The board is asked for a distance only when both ends hold a cup.
    start = Configuration((1, 0, 1))
    for moves, reason in (([1, 2], "move 0: source 1 empty"),
                          ([2, 1], "move 0: destination 1 empty")):
        assert verify_plan(Faulty(), Plan(3, 0, moves, start)) == (False, 0, reason)


def test_verify_rejects_unconcentrated_final_state():
    g = path_graph(3)
    res = verify_plan(g, Plan(3, 0, [1, 0]))
    assert not res and "not concentrated" in res.reason


def test_verify_rejects_size_mismatch():
    res = verify_plan(path_graph(3), Plan(3, 0, [], Configuration((1, 1))))
    assert not res and "size mismatch" in res.reason
    # A plan's own n is compared before any all-ones start is built.
    res = verify_plan(path_graph(3), Plan(10 ** 12, 0, []))
    assert res == verify_plan(path_graph(3), Plan(4, 0, []))
    assert not res and res.reason == "initial configuration size mismatch"


def test_plan_json_round_trip():
    plan = Plan(4, 0, [2, 1, 1, 3, 3, 0], Configuration((1, 1, 1, 1)))
    again = Plan.from_json_dict(plan.to_json_dict())
    assert again == plan
    assert pairs(again.flat) == [(2, 1), (1, 3), (3, 0)]


def test_plan_to_json_is_json_dumps():
    # The one-pass writer gives json.dumps's bytes, and they read back.
    # plan_cube(13) has 8,191 moves: a full block of formatted moves plus
    # a tail.
    with open(FIXTURES / "p4.plan.json", encoding="utf-8") as fh:
        p4 = Plan.from_json_dict(json.load(fh))
    plans = [Plan(1, 0, []),
             Plan(4, 2, [0, 1, 3, 2, 1, 2], Configuration((2, 1, 1, 1))),
             p4, plan_cube(10).plan, plan_cube(13).plan]
    for plan in plans:
        text = plan.to_json()
        assert text == json.dumps(plan.to_json_dict())
        assert Plan.from_json_dict(json.loads(text)) == plan


def test_plan_from_json_rejects_non_integers():
    good = {"n": 3, "target": 0, "moves": [[1, 0], [2, 0]]}
    for key, value in (("n", 3.0), ("target", "0"), ("target", False),
                       ("initial", [1, 1.5, 1])):
        with pytest.raises(ValueError, match=f"plan {key}"):
            Plan.from_json_dict({**good, key: value})
    for bad in ([1.5, 0], ["2", "0"], [True, 0], [1, 0, 2], 7, [2**70, 0]):
        with pytest.raises(ValueError, match="move 1"):
            Plan.from_json_dict({**good, "moves": [[1, 0], bad]})


def test_plan_from_json_refuses_vertices_past_32_bits():
    # Moves are stored as 32-bit ints; no vertex from 2^31 up (or below
    # -2^31) could be in a plan that is accepted.
    good = {"n": 3, "target": 0, "moves": [[1, 0], [2, 0]]}
    for bad in ([2 ** 31, 0], [0, 2 ** 31], [-2 ** 31 - 1, 0], [2 ** 63, 0]):
        with pytest.raises(ValueError, match="move 1: vertex out of range"):
            Plan.from_json_dict({**good, "moves": [[1, 0], bad]})
    edge = Plan.from_json_dict({**good, "moves": [[1, 0], [2 ** 31 - 1, -2 ** 31]]})
    assert list(edge.flat) == [1, 0, 2 ** 31 - 1, -2 ** 31]


# -------------------------------------------------------- partition verifier

def test_partition_three_path_parts():
    # Spider with three legs of length 4; two legs hold four cups each and
    # stack onto their leaves, the third holds cups (0,1,1,1) and stacks
    # onto its distance-3 vertex.
    g = spider_graph([4, 4, 4])
    counts = [1] * 13
    counts[9] = 0                       # first vertex of the third leg
    c = Configuration(tuple(counts))
    p = StackingPartition(0, (
        StackingPart((1, 2, 3, 4), (1, 1, 1, 1), 4, (2, 3, 3, 1, 1, 4)),
        StackingPart((5, 6, 7, 8), (1, 1, 1, 1), 8, (6, 7, 7, 5, 5, 8)),
        StackingPart((9, 10, 11, 12), (0, 1, 1, 1), 11, (10, 11, 12, 11)),
    ))
    assert verify_partition(g, c, 0, p)


def test_partition_single_part_path():
    g = path_graph(5)
    p = StackingPartition(0, (
        StackingPart((1, 2, 3, 4), (1, 1, 1, 1), 4, (2, 3, 3, 1, 1, 4)),))
    assert verify_partition(g, Configuration.all_ones(5), 0, p)
    # The same vertices in an order that strands a pile.
    p = StackingPartition(0, (
        StackingPart((1, 2, 3, 4), (1, 1, 1, 1), 4, (3, 4, 2, 1)),))
    res = verify_partition(g, Configuration.all_ones(5), 0, p)
    assert not res and res.step == 0 and "property 3" in res.reason
    # A partition for another target.
    res = verify_partition(g, Configuration.all_ones(5), 1, p)
    assert res == (False, None, "partition target mismatch")


def test_partition_rejects_overlap():
    g = path_graph(4)
    p = StackingPartition(0, (
        StackingPart((1, 2), (1, 1), 2, (1, 2)),
        StackingPart((2, 3), (1, 1), 2, (3, 2)),
    ))
    res = verify_partition(g, Configuration.all_ones(4), 0, p)
    assert not res and "property 2" in res.reason
    # A part holding the target, and cups that disagree with C vertex by
    # vertex though their total is right.
    for parts, step, reason in (
            ((StackingPart((0, 1, 2, 3), (1, 1, 1, 1), 3),), 0,
             "part 0: contains the target"),
            ((StackingPart((1, 2, 3), (1, 0, 2), 3),), 0,
             "part 0: cup count at 2 disagrees with C (property 2)")):
        res = verify_partition(g, Configuration.all_ones(4), 0,
                               StackingPartition(0, parts))
        assert res == (False, step, reason)


def test_partition_rejects_bad_staging_distance():
    g = path_graph(4)
    p = StackingPartition(0, (
        StackingPart((1, 2, 3), (1, 1, 1), 1, (3, 2, 2, 1)),))
    res = verify_partition(g, Configuration.all_ones(4), 0, p)
    assert not res and "property 3" in res.reason


def test_partition_rejects_missing_cover():
    g = path_graph(4)
    p = StackingPartition(0, (StackingPart((1, 2), (1, 1), 2, (1, 2)),))
    res = verify_partition(g, Configuration((1, 1, 1, 0)), 0, p)
    assert not res and "property 1" in res.reason
    # Every vertex covered, but the cups do not sum to those off r.
    p = StackingPartition(0, (StackingPart((1, 2, 3), (1, 1, 0), 2),))
    res = verify_partition(g, Configuration.all_ones(4), 0, p)
    assert res == (False, None,
                   "sub-configurations do not sum to C - r (property 2)")


def test_partition_rejects_moves_outside_the_part():
    # On the path 0-1-2-3 the part {2, 3} borrows the cup of part {1}:
    # 1 -> 2 is legal in the host, but it leaves the part.
    g = path_graph(4)
    p = StackingPartition(0, (
        StackingPart((1,), (1,), 1),
        StackingPart((2, 3), (1, 1), 2, (1, 2, 3, 2)),
    ))
    res = verify_partition(g, Configuration.all_ones(4), 0, p)
    assert not res and res.step == 1
    assert "leaves the part at vertex 1 (property 3)" in res.reason
    # A flat move list of odd length is rejected, not raised.
    p = StackingPartition(0, (StackingPart((1,), (1,), 1, (1,)),
                              StackingPart((2, 3), (1, 1), 2, (3, 2))))
    res = verify_partition(g, Configuration.all_ones(4), 0, p)
    assert not res and res.step == 0 and "odd-length" in res.reason
