"""Family generators and their constructive planners."""

import hashlib
import random
from itertools import combinations

import pytest

from conftest import (StackingPart, StackingPartition, kneser_stackable,
                      multipartite_decide, pairs, plan_ham_ecc2,
                      verify_partition)
from cupstack import decide, ecc2, families
from cupstack.ecc2 import ecc2_decide, plan_from_matching
from cupstack.graphs import (Configuration, _endpoint_moves, eccentricity,
                             stack_parts, verify_plan)
from cupstack.families import (FamilyError, complete_graph,
                               cycle_graph, family, grid_graph,
                               johnson_graph, kneser_graph, multipartite_graph,
                               path_graph, petersen_graph, plan_cycle,
                               plan_grid, plan_path, plan_spider,
                               spider_graph, star_graph)
from cupstack.oracle import oracle_search


# ------------------------------------------------------------------ generators

def test_grid_9x8_counts():
    g = grid_graph(9, 8)
    assert g.n == 72 and len(g.edges()) == 127


def test_kneser_5_2_is_petersen():
    g = kneser_graph(5, 2)
    assert g.n == 10 and len(g.edges()) == 15
    assert all(len(g.adj[v]) == 3 for v in range(10))
    assert g.edges() == petersen_graph().edges()


@pytest.mark.parametrize("m, k", [(3, 1), (5, 2), (7, 2), (7, 3), (8, 3),
                                  (9, 4), (10, 3), (11, 4)])
def test_kneser_adjacency_is_disjointness(m, k):
    g = kneser_graph(m, k)
    assert g.labels == tuple(combinations(range(1, m + 1), k))
    sets = [set(a) for a in g.labels]
    assert g.adj == tuple(tuple(j for j, b in enumerate(sets) if not a & b)
                          for a in sets)


def test_johnson_5_4_3():
    # Any two distinct 4-subsets of a 5-set share exactly 3 elements, so
    # the graph is complete; a revolving-door order walks it as a 5-cycle.
    from cupstack.cube import revolving_door
    g = johnson_graph(5, 4, 3)
    assert g.n == 5 and all(len(g.adj[v]) == 4 for v in range(5))
    for u, v in g.edges():
        assert len(set(g.labels[u]) & set(g.labels[v])) == 3
    cycle = revolving_door(5, 4)
    assert len(cycle) == 5
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert len(set(a) & set(b)) == 3


def test_generator_contracts():
    with pytest.raises(FamilyError):
        kneser_graph(4, 2)           # disconnected below m = 2k+1
    with pytest.raises(FamilyError):
        spider_graph([])
    with pytest.raises(FamilyError):
        multipartite_graph([3])
    with pytest.raises(FamilyError):
        johnson_graph(5, 4, 4)


def test_generate_dispatch():
    for name, params, n in [("petersen", (), 10), ("grid", (3, 4), 12),
                            ("cube", (3,), 8), ("spider", (1, 2, 2), 6),
                            ("multipartite", (2, 3), 5)]:
        assert family(name, params).generate(*params).n == n
    with pytest.raises(FamilyError, match="moebius"):
        family("moebius", (5,))
    with pytest.raises(FamilyError, match="'grid' takes 2"):
        family("grid", (4,))


# ---------------------------------------------------------------- path plans

def _endpoint_moves_reference(seq):
    """The recursive definition: stack seq[1:] onto seq[-1], then jump."""
    if len(seq) <= 1:
        return []
    return _endpoint_moves_reference(seq[:0:-1]) + [seq[-1], seq[0]]


def test_endpoint_moves_match_recursive_reference():
    for n in range(201):
        seq = random.Random(n).sample(range(1000), n)
        assert _endpoint_moves(seq) == _endpoint_moves_reference(seq)


def test_long_path_plans_need_no_recursion():
    n = 20000            # far past the interpreter's recursion limit
    for plan in (plan_path(n, n // 3), plan_cycle(n, 5), plan_spider([n - 1]),
                 plan_grid(1, n, (0, 7))):
        assert plan.n == n and len(pairs(plan.flat)) == n - 1


def test_path_endpoint_examples():
    assert pairs(plan_path(1, 0).flat) == []
    assert pairs(plan_path(3, 0).flat) == [
        (1, 2), (2, 0)]
    assert pairs(plan_path(4, 0).flat) == [
        (2, 1), (1, 3), (3, 0)]


def test_path_endpoint_uses_minimum_moves():
    for n in range(1, 30):
        plan = plan_path(n, 0)
        assert len(pairs(plan.flat)) == max(n - 1, 0)
        assert verify_plan(path_graph(n), plan)


def test_path_interior_target():
    plan = plan_path(5, 2)
    assert (0, 2) in pairs(plan.flat)
    assert (4, 2) in pairs(plan.flat)
    assert verify_plan(path_graph(5), plan)


def test_paths_all_targets_small():
    for n in range(1, 12):
        g = path_graph(n)
        for r in range(n):
            assert verify_plan(g, plan_path(n, r))


def test_cycles_all_targets_small():
    for n in range(3, 14):
        g = cycle_graph(n)
        for r in range(n):
            assert verify_plan(g, plan_cycle(n, r))


def test_cycle_c4_three_moves():
    plan = plan_cycle(4, 0)
    assert len(pairs(plan.flat)) == 3
    assert verify_plan(cycle_graph(4), plan)
    assert oracle_search(cycle_graph(4), Configuration.all_ones(4), 0).decision


def test_spider_plans():
    for legs in ([1, 2, 2], [3, 3, 3], [1, 1, 1, 1], [2, 5, 3, 1]):
        assert verify_plan(spider_graph(legs), plan_spider(legs))


def test_spider_plans_build_no_graph(monkeypatch):
    def refuse(legs):
        raise AssertionError("plan_spider built the spider graph")
    monkeypatch.setattr(families, "spider_graph", refuse)
    plan = plan_spider([3, 1, 2])
    assert (plan.n, plan.target) == (7, 0)
    assert verify_plan(spider_graph([3, 1, 2]), plan)
    for legs in ([], [2, 0]):
        with pytest.raises(FamilyError, match="legs must be positive lengths"):
            plan_spider(legs)


# ------------------------------------------------------- stacking partitions

def as_partition(parts, r) -> StackingPartition:
    """The lines a planner hands `stack_parts`, as a stacking partition of
    the all-ones configuration: a part's moves are its own `stack_parts`
    less the final jump to r.  Empty lines are no part."""
    return StackingPartition(r, tuple(
        StackingPart(tuple(line), (1,) * len(line), line[stage],
                     stack_parts([(line, stage)], r)[:-2])
        for line, stage in parts if line))


def test_planner_parts_are_stacking_partitions(monkeypatch, atlas7):
    calls = []

    def record(parts, target):
        calls.append((parts, target))
        return stack_parts(parts, target)

    for module in (families, ecc2):
        monkeypatch.setattr(module, "stack_parts", record)
    hosts = []              # the graph of each recorded call, in order
    for n in (1, 2, 7, 8):
        for r in range(n):
            plan_path(n, r)
            hosts.append(path_graph(n))
    for n in (3, 7, 8):
        for r in range(n):
            plan_cycle(n, r)
            hosts.append(cycle_graph(n))
    # Square, non-square and one-row grids, at every target.
    for m, k in ((4, 4), (5, 3), (2, 6), (6, 1), (1, 5)):
        for y in range(k):
            for x in range(m):
                plan_grid(m, k, (x, y))
                hosts.append(grid_graph(m, k))
    for legs in ([1], [3, 1, 2], [2, 2, 2, 2]):
        plan_spider(legs)
        hosts.append(spider_graph(legs))
    for g in atlas7:
        for r in range(g.n):
            if eccentricity(g, r) == 2:
                w = ecc2_decide(g, r)
                if w.decision:
                    plan_from_matching(g, r, w.matching)
                    hosts.append(g)
    assert len(calls) == len(hosts)
    for g, (parts, r) in zip(hosts, calls):
        res = verify_partition(g, Configuration.all_ones(g.n), r,
                               as_partition(parts, r))
        assert res, (g.edges(), r, parts, res)


# ----------------------------------------------------------- dominating plans

def test_dominating_plans():
    # A dominating target is the ecc-2 path with an empty N_2(r): every
    # other vertex walks its cup in, in vertex order.
    for g, r in ((complete_graph(4), 2), (star_graph(5), 0), (cycle_graph(3), 1)):
        plan = decide(g, r).plan
        assert pairs(plan.flat) == [(z, r) for z in range(g.n) if z != r]
        assert verify_plan(g, plan)
    assert decide(star_graph(3), 1).plan is None


# ------------------------------------------------------- complete multipartite

def test_multipartite_verdicts():
    for i in range(2):
        ok, plan = multipartite_decide([3, 3], i)
        assert ok and verify_plan(multipartite_graph([3, 3]), plan)
    ok, plan = multipartite_decide([4, 2], 0)
    assert not ok and plan is None
    ok, plan = multipartite_decide([2, 2, 3], 2)
    assert ok and verify_plan(multipartite_graph([2, 2, 3]), plan)


def test_multipartite_closed_form_matches_oracle():
    rng = random.Random(1123)
    for _ in range(40):
        t = rng.randint(2, 4)
        sizes = [rng.randint(1, 3) for _ in range(t)]
        g = multipartite_graph(sizes)
        if g.n > 8:
            continue
        ones = Configuration.all_ones(g.n)
        for i in range(t):
            ok, plan = multipartite_decide(sizes, i)
            r = sum(sizes[:i])
            assert ok == oracle_search(g, ones, r).decision
            if ok:
                assert verify_plan(g, plan)


# -------------------------------------------------- Hamiltonian path + ecc 2

def test_ham_ecc2_c5():
    g = cycle_graph(5)
    ham = [0, 1, 2, 3, 4]
    for r in range(5):
        assert verify_plan(g, plan_ham_ecc2(g, r, ham))


def test_ham_ecc2_k4_minus_edge():
    from cupstack.graphs import Graph
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])  # 0-3 missing
    assert verify_plan(g, plan_ham_ecc2(g, 0, [0, 1, 3, 2]))


def test_ham_ecc2_rejects_bad_path():
    g = cycle_graph(5)
    with pytest.raises(FamilyError):
        plan_ham_ecc2(g, 0, [0, 2, 4, 1, 3])
    with pytest.raises(FamilyError):
        plan_ham_ecc2(g, 0, [0, 1, 2, 3])


# ---------------------------------------------------------------- kneser

def test_kneser_5_2_stackable():
    ok, g = kneser_stackable(5, 2)
    assert ok is True and g.n == 10


def test_kneser_7_3_out_of_range():
    assert kneser_stackable(7, 3) == (None, None)


def test_kneser_parameter_contract():
    with pytest.raises(FamilyError):
        kneser_stackable(4, 2)


# ------------------------------------------------------------------- grids

def test_grid_2x2_corner():
    g = grid_graph(2, 2)
    for x in range(2):
        for y in range(2):
            assert verify_plan(g, plan_grid(2, 2, (x, y)))


def test_grid_degenerate_is_path():
    assert verify_plan(grid_graph(6, 1), plan_grid(6, 1, (2, 0)))
    assert verify_plan(grid_graph(1, 6), plan_grid(1, 6, (0, 4)))


def test_grid_9x8_interior():
    g = grid_graph(9, 8)
    assert verify_plan(g, plan_grid(9, 8, (3, 3)))


def test_grids_all_targets_small():
    for m in range(1, 7):
        for k in range(1, 7):
            g = grid_graph(m, k)
            for x in range(m):
                for y in range(k):
                    assert verify_plan(g, plan_grid(m, k, (x, y)))


# ------------------------------------------------------------- pinned plans

def test_family_plans_pinned():
    """Every path and cycle plan with n <= 30, a seeded list of spiders,
    every target of every grid up to 9x9, and the 40x40 and 60x60 grids
    at r = 0, by one SHA-256 over their flat move arrays."""
    rng = random.Random(2023)
    spiders = [[rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
               for _ in range(200)]
    plans = [plan_path(n, r) for n in range(1, 31) for r in range(n)]
    plans += [plan_cycle(n, r) for n in range(3, 31) for r in range(n)]
    plans += [plan_spider(legs) for legs in spiders]
    plans += [plan_grid(m, k, (x, y)) for m in range(1, 10)
              for k in range(1, 10) for y in range(k) for x in range(m)]
    plans += [plan_grid(40, 40, (0, 0)), plan_grid(60, 60, (0, 0))]
    h = hashlib.sha256()
    for plan in plans:
        h.update(repr((plan.n, plan.target, len(plan.flat))).encode())
        h.update(plan.flat.tobytes())
    assert len(plans) == 3_154
    assert h.hexdigest() == ("95dd6aa3b7b5f9037253a3fd52d02278"
                             "4256915d39268cd9edce93296ad15530")
