"""Exhaustive search oracle: decisions, plans, and budget behavior."""

import hashlib
import random
import tracemalloc

import pytest

from conftest import oracle_stackable, pairs, random_connected_graph
from cupstack.graphs import Configuration, CubeBoard, verify_plan
from cupstack.families import (complete_graph, cycle_graph, grid_graph,
                               multipartite_graph, path_graph, star_graph)
from cupstack.oracle import oracle_search


def test_star_center_true_leaf_false():
    g = star_graph(3)           # vertex 0 is the center
    ones = Configuration.all_ones(4)
    assert oracle_search(g, ones, 0).decision is True
    for leaf in (1, 2, 3):
        assert oracle_search(g, ones, leaf).decision is False


def test_p5_all_targets_true():
    g = path_graph(5)
    ones = Configuration.all_ones(5)
    for r in range(5):
        assert oracle_search(g, ones, r).decision is True


def test_k42_big_side_false():
    g = multipartite_graph([4, 2])
    ones = Configuration.all_ones(6)
    for r in range(4):
        assert oracle_search(g, ones, r).decision is False
    for r in (4, 5):
        assert oracle_search(g, ones, r).decision is True


def test_plan_p4_three_moves():
    g = path_graph(4)
    plan = oracle_search(g, Configuration.all_ones(4), 0).plan
    assert len(pairs(plan.flat)) == 3
    assert verify_plan(g, plan)


def test_plan_single_vertex_empty():
    g = path_graph(1)
    plan = oracle_search(g, Configuration((1,)), 0).plan
    assert pairs(plan.flat) == []


def test_plan_c4_accepted():
    g = cycle_graph(4)
    plan = oracle_search(g, Configuration.all_ones(4), 0).plan
    assert verify_plan(g, plan)


def test_plans_carry_nontrivial_initial_configuration():
    g = path_graph(3)
    c = Configuration((1, 0, 2))
    plan = oracle_search(g, c, 0).plan
    assert plan.initial == c
    assert verify_plan(g, plan)


def test_stackable_per_target():
    assert all(oracle_stackable(cycle_graph(6)).values())
    star = oracle_stackable(star_graph(3))
    assert star == {0: True, 1: False, 2: False, 3: False}
    assert all(oracle_stackable(CubeBoard(3).to_graph()).values())


def test_budget_exhaustion_is_inconclusive():
    g = cycle_graph(8)
    res = oracle_search(g, Configuration.all_ones(8), 0, budget=5)
    assert res.inconclusive and res.decision is None and res.plan is None


def test_input_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        oracle_search(g, Configuration.all_ones(3), 3)
    with pytest.raises(ValueError):
        oracle_search(g, Configuration.all_ones(4), 0)
    with pytest.raises(ValueError):
        oracle_search(g, Configuration((0, 0, 0)), 0)
    for budget in (0, -5):
        with pytest.raises(ValueError):
            oracle_search(g, Configuration.all_ones(3), 0, budget=budget)


def test_positive_decisions_come_with_verified_plans():
    rng = random.Random(99)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 6))
        r = rng.randrange(g.n)
        res = oracle_search(g, Configuration.all_ones(g.n), r)
        assert res.decision is not None
        if res.decision:
            assert verify_plan(g, res.plan)
        else:
            assert res.plan is None


def test_oracle_is_deterministic():
    g = complete_graph(4)
    a = oracle_search(g, Configuration.all_ones(4), 1)
    b = oracle_search(g, Configuration.all_ones(4), 1)
    assert a.plan.flat == b.plan.flat and a.states == b.states


def reference_stackable(g, counts, r):
    """Plain depth-first search over every legal move, with no pruning."""
    dist = g.distances()
    goal = tuple(sum(counts) if v == r else 0 for v in range(g.n))
    seen = {tuple(counts)}
    todo = [tuple(counts)]
    while todo:
        state = todo.pop()
        if state == goal:
            return True
        for src, pile in enumerate(state):
            for dst in range(g.n):
                if pile and dst != src and state[dst] and dist[src][dst] == pile:
                    nxt = list(state)
                    nxt[dst] += pile
                    nxt[src] = 0
                    nxt = tuple(nxt)
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
    return False


def _check_against_reference(g, counts, r):
    res = oracle_search(g, Configuration(counts), r)
    assert res.decision == reference_stackable(g, counts, r), (g.edges(), counts, r)
    if res.decision:
        assert verify_plan(g, res.plan)
    return res


def test_prunes_keep_every_verdict():
    rng = random.Random(4)
    rejected = {"a": 0, "b": 0}
    for _ in range(400):
        g = random_connected_graph(rng, rng.randint(1, 7))
        r = rng.randrange(g.n)
        counts = [rng.choice((0, 1, 1, 1, 2)) for _ in range(g.n)]
        case = rng.randrange(3)
        if case == 0 and g.n > 1:
            counts[r] = 0                           # the target starts empty
        elif case == 1 and g.n > 1:
            v = rng.choice([v for v in range(g.n) if v != r])
            counts[v] = max(g.distances()[v]) + 1   # a dead pile at v
        if sum(counts) == 0:
            counts[r] = 1
        res = _check_against_reference(g, counts, r)
        if res.rejected_by:
            assert res.decision is False and res.states == 1
            rejected[res.rejected_by] += 1
    assert rejected["a"] > 0 and rejected["b"] > 0


def test_prunes_keep_gather3_verdicts():
    # 3-cube configurations with empty vertices, as the searches behind
    # the chain-triple gathers in tests/test_cube.py ask.
    q3 = CubeBoard(3).to_graph()
    rng = random.Random(8)
    for _ in range(150):
        counts = [rng.choice((0, 1, 1, 2)) for _ in range(8)]
        counts[0] = max(counts[0], 1)
        _check_against_reference(q3, counts, 0)


def test_start_rejections_are_reported():
    g = path_graph(3)
    res = oracle_search(g, Configuration((0, 1, 1)), 0)
    assert (res.decision, res.rejected_by, res.states) == (False, "a", 1)
    res = oracle_search(g, Configuration((1, 1, 3)), 0)
    assert (res.decision, res.rejected_by, res.states) == (False, "b", 1)
    # ecc(3) = 3 lets the pile of 3 move, but only onto vertex 0, whose
    # pile then exceeds d(0, 1) = 1 and can never leave
    res = oracle_search(path_graph(4), Configuration((1, 1, 1, 3)), 1)
    assert (res.decision, res.rejected_by, res.states) == (False, "b", 1)
    res = oracle_search(g, Configuration.all_ones(3), 0)
    assert res.decision is True and res.rejected_by is None


def test_search_sizes_stay_pruned():
    res = oracle_search(grid_graph(4, 3), Configuration.all_ones(12), 0)
    assert res.decision is True and res.states <= 400 and res.pruned > 0
    res = oracle_search(multipartite_graph([7, 3]), Configuration.all_ones(10), 0)
    assert res.decision is False and res.states <= 600 and res.pruned > 0
    res = oracle_search(grid_graph(4, 4), Configuration.all_ones(16), 5)
    assert res.decision is True and res.states <= 1_000
    assert verify_plan(grid_graph(4, 4), res.plan)


def test_piles_that_cannot_reach_the_target_are_rejected():
    # Piles only merge, and every cup lands on r in a pile that jumps from
    # a vertex s with pile = d(s, r) <= ecc(r).  So a pile of ecc(r) + 1
    # is dead even at a vertex whose eccentricity would let it move.
    rng = random.Random(20)
    seeded = 0
    while seeded < 150:
        g = random_connected_graph(rng, rng.randint(3, 7))
        ecc = [max(row) for row in g.distances()]
        r = rng.randrange(g.n)
        far = [v for v in range(g.n) if ecc[v] > ecc[r]]
        if not far:
            continue
        counts = [rng.choice((0, 1, 1, 1, 2)) for _ in range(g.n)]
        counts[r] = max(counts[r], 1)
        counts[rng.choice(far)] = ecc[r] + 1
        res = _check_against_reference(g, counts, r)
        assert (res.decision, res.rejected_by) == (False, "b")
        seeded += 1


def test_plans_pinned(atlas7):
    """Every decision and plan from the all-ones start on every atlas
    target, and on grid 4x3, C11 and K(7,3) at r = 0, by one SHA-256.
    A cut that drops only subtrees without a goal leaves it unchanged."""
    h = hashlib.sha256()
    cases = [(g, r) for g in atlas7 for r in range(g.n)]
    cases += [(g, 0) for g in (grid_graph(4, 3), cycle_graph(11),
                               multipartite_graph([7, 3]))]
    for g, r in cases:
        res = oracle_search(g, Configuration.all_ones(g.n), r)
        h.update(repr((r, res.decision)).encode())
        if res.decision:
            h.update(res.plan.flat.tobytes())
    assert len(cases) == 6_784
    assert h.hexdigest() == ("04830ec37e03cb0f9ceb55e804e0f004"
                             "1b3179a70a32188f6c9047c4c8cd9719")


def test_visited_states_stay_compact():
    """Peak traced bytes per visited state, set slots included."""
    g = grid_graph(4, 4)
    g.distances()
    tracemalloc.start()
    try:
        res = oracle_search(g, Configuration.all_ones(16), 7, budget=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.inconclusive and res.states == 50_000
    assert peak / res.states <= 120
