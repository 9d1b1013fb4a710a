"""Matching-based decision for eccentricity-2 targets."""

import hashlib
import random

import pytest

from conftest import random_connected_graph
from cupstack import decide
from cupstack.graphs import (Configuration, Graph, shells, verify_barrier,
                             verify_plan)
from cupstack.ecc2 import ecc2_decide, plan_from_matching
from cupstack.families import (complete_graph, cycle_graph, multipartite_graph,
                               petersen_graph, star_graph)
from cupstack.oracle import oracle_search


def test_petersen_every_target_true():
    g = petersen_graph()
    for r in range(g.n):
        w = ecc2_decide(g, r)
        assert w.decision
        n2 = set(shells(g, r)[2])
        assert len(n2) == 6 and n2 <= {v for pair in w.matching for v in pair}
        assert len(w.matching) >= 3


def test_star_leaf_false():
    g = star_graph(3)
    for leaf in (1, 2, 3):
        w = ecc2_decide(g, leaf)
        assert not w.decision and w.matching is None


def test_k33_true():
    g = multipartite_graph([3, 3])
    for r in range(6):
        assert ecc2_decide(g, r).decision


def test_rejects_eccentricity_above_two():
    with pytest.raises(ValueError, match="above 2"):
        ecc2_decide(cycle_graph(7), 0)
    with pytest.raises(ValueError, match="above 2"):
        plan_from_matching(cycle_graph(7), 0, [])


def test_dominating_target_needs_the_empty_matching():
    for g in (complete_graph(4), star_graph(3), Graph(1, [])):
        w = ecc2_decide(g, 0)
        assert w.decision and w.matching == () and w.barrier is None


def test_plan_from_matching_c5():
    # Also C5 plus the chord (1, 4), whose pair has no end at distance 2
    # from 0: both ends walk in alone.  Pairs come in any order and
    # orientation.
    c5 = cycle_graph(5)
    chord = Graph(5, [*c5.edges(), (1, 4)])
    for g, pairs in ((c5, [(2, 3)]), (chord, {(2, 3), (4, 1)})):
        plan = plan_from_matching(g, 0, pairs)
        assert [(m.src, m.dst) for m in plan.moves] == [
            (2, 3), (3, 0), (1, 0), (4, 0)]
        assert verify_plan(g, plan)


def test_plan_from_matching_k3_dominating():
    g = complete_graph(3)
    plan = plan_from_matching(g, 0, [])
    assert [(m.src, m.dst) for m in plan.moves] == [(1, 0), (2, 0)]
    assert verify_plan(g, plan)


def test_plan_from_matching_rejects_unsaturated():
    g = cycle_graph(5)
    with pytest.raises(ValueError, match="not matched"):
        plan_from_matching(g, 0, [])


def test_petersen_plan_accepted():
    g = petersen_graph()
    for r in range(g.n):
        plan = decide(g, r).plan
        assert plan is not None and verify_plan(g, plan)


def test_diam2_verdicts():
    assert all(ecc2_decide(petersen_graph(), r).decision for r in range(10))
    g = multipartite_graph([4, 2])
    assert [ecc2_decide(g, r).decision for r in range(6)] == [
        False, False, False, False, True, True]


def test_witness_structure_is_consistent():
    w = ecc2_decide(petersen_graph(), 0)
    assert w.decision and w.barrier is None
    for sizes, r, barrier in (([4, 2], 0, (4, 5)), ([7, 3], 0, (7, 8, 9))):
        g = multipartite_graph(sizes)
        w = ecc2_decide(g, r)
        assert not w.decision and w.matching is None
        assert w.barrier == barrier and verify_barrier(g, r, w.barrier)
        for tampered in (w.barrier[1:], w.barrier + (r,), w.barrier + (g.n,)):
            res = verify_barrier(g, r, tampered)
            assert not res and res.reason


def test_tree_criterion():
    # For a tree whose root has eccentricity 2 the verdict has a closed
    # form: true iff every neighbor of the root has degree at most 2
    # (each grandchild leaf then pairs with its unique parent).
    rng = random.Random(1414)
    checked = 0
    for _ in range(300):
        n = rng.randint(3, 10)
        parents = [rng.randrange(i) for i in range(1, n)]
        g = Graph(n, [(i + 1, p) for i, p in enumerate(parents)])
        for r in range(n):
            if max(g.bfs_from(r)) != 2:
                continue
            expected = all(len(g.adj[v]) <= 2 for v in g.adj[r])
            assert ecc2_decide(g, r).decision == expected
            checked += 1
    assert checked > 50


def test_agrees_with_oracle_random():
    rng = random.Random(60660)
    checked = 0
    for _ in range(250):
        g = random_connected_graph(rng, rng.randint(3, 6))
        ones = Configuration.all_ones(g.n)
        for r in range(g.n):
            sh = shells(g, r)
            if len(sh) != 3:
                continue
            w = ecc2_decide(g, r)
            assert w.decision == oracle_search(g, ones, r).decision
            if w.decision:
                assert verify_plan(g, plan_from_matching(g, r, w.matching))
            checked += 1
    assert checked > 100


def test_atlas_witnesses_and_plans_pinned(atlas7):
    """Every verdict, matching, barrier and plan on the atlas targets of
    eccentricity <= 2, pinned by one SHA-256."""
    h = hashlib.sha256()
    targets = 0
    for g in atlas7:
        for r in range(g.n):
            if max(g.bfs_from(r)) > 2:
                continue
            targets += 1
            w = ecc2_decide(g, r)
            h.update(repr((w.decision, None if w.matching is None else list(w.matching),
                           w.barrier)).encode())
            if w.decision:
                h.update(plan_from_matching(g, r, w.matching).flat.tobytes())
    assert targets == 4835
    assert h.hexdigest() == ("dddd383368cce526da5531c61c65910c"
                             "91f7a2366ca80945a5476a2a586be2ef")
