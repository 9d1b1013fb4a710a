"""Property-based tests over randomized instances."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (apply_move, legal_move, oracle_stackable, phi,
                      random_connected_graph, scd)
from cupstack.graphs import (Configuration, CubeBoard, Move, Plan,
                             verify_plan)
from cupstack.families import complete_graph, cycle_graph
from cupstack.oracle import oracle_search
from cupstack.cube import revolving_door


graphs_strategy = st.builds(
    lambda seed, n: random_connected_graph(random.Random(seed), n),
    st.integers(0, 10 ** 9), st.integers(2, 7))


@given(graphs_strategy, st.integers(0, 10 ** 9))
@settings(max_examples=200, deadline=None)
def test_legal_moves_conserve_cups(g, seed):
    rng = random.Random(seed)
    c = Configuration(tuple(rng.randint(0, 3) for _ in range(g.n)))
    for _ in range(10):
        legal = [Move(u, v) for u in range(g.n) for v in range(g.n)
                 if u != v and legal_move(g, c, Move(u, v))]
        if not legal:
            break
        c2 = apply_move(c, rng.choice(legal))
        assert c2.size == c.size
        c = c2


@given(graphs_strategy, st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_oracle_plans_round_trip(g, seed):
    rng = random.Random(seed)
    r = rng.randrange(g.n)
    res = oracle_search(g, Configuration.all_ones(g.n), r)
    if res.decision:
        assert verify_plan(g, res.plan)
        again = Plan.from_json_dict(res.plan.to_json_dict())
        assert verify_plan(g, again)


@given(graphs_strategy)
@settings(max_examples=60, deadline=None)
def test_distance_matrix_is_metric(g):
    dist = g.distances()
    for u in range(g.n):
        assert dist[u][u] == 0
        for v in range(g.n):
            assert dist[u][v] == dist[v][u] >= (0 if u == v else 1)
            for w in range(g.n):
                assert dist[u][w] <= dist[u][v] + dist[v][w]


def test_vertex_transitive_verdict_is_constant():
    # On a vertex-transitive board every target gets the same verdict.
    for g in [cycle_graph(n) for n in range(3, 10)] + \
             [complete_graph(n) for n in range(1, 7)] + \
             [CubeBoard(3).to_graph()]:
        verdicts = set(oracle_stackable(g).values())
        assert len(verdicts) == 1


@given(st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_scd_chains_partition_subsets(n):
    chains = scd(n)
    seen = [m for ch in chains for m in ch]
    assert len(seen) == len(set(seen)) == 1 << n


@given(st.integers(1, 12), st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_phi_drops_one_member(n, seed):
    rng = random.Random(seed)
    mask = rng.randrange(1 << n)
    if 2 * mask.bit_count() <= n:
        mask = (1 << n) - 1       # fall back to the full set
    img = phi(n, mask)
    assert img & ~mask == 0 and img.bit_count() == mask.bit_count() - 1


@given(st.integers(2, 10))
@settings(max_examples=20, deadline=None)
def test_revolving_door_cyclic_property(m):
    for k in range(1, m):
        order = revolving_door(m, k)
        for a, b in zip(order, order[1:] + order[:1]):
            assert len(set(a) ^ set(b)) == 2


def test_deterministic_reruns():
    g = random_connected_graph(random.Random(12345), 6)
    h = random_connected_graph(random.Random(12345), 6)
    assert g.edges() == h.edges()
    a = oracle_search(g, Configuration.all_ones(6), 0)
    b = oracle_search(h, Configuration.all_ones(6), 0)
    assert a.decision == b.decision and a.states == b.states
    if a.plan is not None:
        assert a.plan.moves == b.plan.moves
    assert scd(8) == scd(8)
    assert revolving_door(8, 4) == revolving_door(8, 4)
