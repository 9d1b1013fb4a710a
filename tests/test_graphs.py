"""Graph parsing, distances, move semantics, and the two verifiers."""

import random

import pytest

from conftest import floyd_warshall, random_connected_graph
from cupstack.graphs import (Configuration, CubeBoard, Graph, GraphError,
                             Move, Plan, StackingPart, StackingPartition,
                             apply_move, diameter, eccentricity, format_graph,
                             legal_move, parse_graph, shells,
                             verify_partition, verify_plan)
from cupstack.families import (FAMILIES, complete_graph, cube_graph,
                               cycle_graph, grid_graph, kneser_graph,
                               path_graph, petersen_graph, plan_grid,
                               spider_graph, star_graph)


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


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("n 3\ne 0 3\ne 1 2")
    with pytest.raises(GraphError, match="line 1"):
        parse_graph("e 0 1")
    with pytest.raises(GraphError, match="line 3"):
        parse_graph("n 3\ne 0 1\ne 0 1\ne 1 2")
    with pytest.raises(GraphError, match="line 3: duplicate edge"):
        parse_graph("n 3\ne 0 1\ne 1 0\ne 1 2")


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


def distance_graphs() -> list[Graph]:
    rng = random.Random(20261018)
    return (row_major_grids() + not_grids()
            + [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(20)]
            + [sparse_connected_graph(rng, rng.randint(2, 40)) for _ in range(20)])


def test_dist_matches_bfs_before_and_after_matrix():
    # Closed form or two-ended BFS first, then the cached matrix on the
    # same graph.
    for g in distance_graphs():
        rows = [g.bfs_from(u) for u in range(g.n)]
        for _ in range(2):
            assert [[g.dist(u, v) for v in range(g.n)]
                    for u in range(g.n)] == rows
            g.distances()


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
    # second has the all-pairs matrix, the first takes the closed form
    # (or, for the cycle, the two-ended BFS).
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
    g = path_graph(3)
    for bad in ([1, 0, 3, 0], [1, 0, -1, 0], [1, 0, 0, 3]):
        res = verify_plan(g, Plan(3, 0, bad))
        assert not res and res.step == 1 and "out of range" in res.reason
    for target in (3, -1):
        res = verify_plan(g, Plan(3, target, [1, 2, 2, 0]))
        assert not res and res.step is None and "target" in res.reason


def test_verify_rejects_unconcentrated_final_state():
    g = path_graph(3)
    res = verify_plan(g, Plan(3, 0, [1, 0]))
    assert not res and "not concentrated" in res.reason


def test_verify_rejects_size_mismatch():
    res = verify_plan(path_graph(3), Plan(3, 0, []),
                      initial=Configuration((1, 1)))
    assert not res and "size mismatch" in res.reason
    # A plan's own n is compared before any all-ones start is built.
    res = verify_plan(path_graph(3), Plan(10 ** 12, 0, []))
    assert res == verify_plan(path_graph(3), Plan(4, 0, []))
    assert not res and res.reason == "initial configuration size mismatch"


def test_plan_json_round_trip():
    plan = Plan(4, 0, [2, 1, 1, 3, 3, 0], Configuration((1, 1, 1, 1)))
    again = Plan.from_json_dict(plan.to_json_dict())
    assert again == plan
    assert list(again.moves) == [Move(2, 1), Move(1, 3), Move(3, 0)]
    assert again.moves[-1] == Move(3, 0) and len(again.moves) == 3


def test_plan_from_json_rejects_non_integers():
    good = {"n": 3, "target": 0, "moves": [[1, 0], [2, 0]]}
    for key, value in (("n", 3.0), ("target", "0"), ("target", False),
                       ("initial", [1, 1.5, 1])):
        with pytest.raises(ValueError, match=f"plan {key}"):
            Plan.from_json_dict({**good, key: value})
    for bad in ([1.5, 0], ["2", "0"], [True, 0], [1, 0, 2], 7, [2**70, 0]):
        with pytest.raises(ValueError, match="move 1"):
            Plan.from_json_dict({**good, "moves": [[1, 0], bad]})


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


def test_partition_rejects_overlap():
    g = path_graph(4)
    p = StackingPartition(0, (
        StackingPart((1, 2), (1, 1), 2, (1, 2)),
        StackingPart((2, 3), (1, 1), 2, (3, 2)),
    ))
    res = verify_partition(g, Configuration.all_ones(4), 0, p)
    assert not res and "property 2" in res.reason


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
