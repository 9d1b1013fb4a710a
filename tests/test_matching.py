"""Blossom matching and Gallai-Edmonds structure."""

import random
from itertools import combinations


from conftest import brute_force_matching_number, random_bare_graph
from cupstack.families import (complete_graph, cycle_graph, path_graph,
                               petersen_graph, star_graph)
from cupstack.matching import (BareGraph, Matching, gallai_edmonds,
                               has_perfect_matching, is_factor_critical,
                               max_matching, matching_number)


def check_matching_valid(g, m: Matching) -> None:
    seen = set()
    for u, v in m.edges:
        assert v in g.adj[u]
        assert u not in seen and v not in seen
        seen.update((u, v))


def test_c4_perfect():
    assert matching_number(cycle_graph(4)) == 2


def test_petersen_matching_number():
    assert matching_number(petersen_graph()) == 5


def test_star_matching_number():
    assert matching_number(star_graph(3)) == 1


def test_matching_matches_brute_force_random():
    rng = random.Random(41)
    for _ in range(150):
        g = random_bare_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.8))
        m = max_matching(g)
        check_matching_valid(g, m)
        assert m.size == brute_force_matching_number(g)


def test_has_perfect_matching():
    assert is_factor_critical(cycle_graph(5))
    assert not has_perfect_matching(cycle_graph(5))
    assert has_perfect_matching(cycle_graph(4))
    assert has_perfect_matching(BareGraph(1, [])) is False
    assert is_factor_critical(BareGraph(1, []))
    assert not is_factor_critical(cycle_graph(4))


def test_gallai_edmonds_p3():
    ge = gallai_edmonds(path_graph(3))
    assert ge.I == (0, 2) and ge.A == (1,) and ge.Z == ()
    assert ge.I_components == ((0,), (2,))


def test_gallai_edmonds_c4():
    ge = gallai_edmonds(cycle_graph(4))
    assert ge.I == () and ge.A == () and ge.Z == (0, 1, 2, 3)


def test_gallai_edmonds_star():
    ge = gallai_edmonds(star_graph(3))
    assert ge.I_components == ((1,), (2,), (3,)) and ge.A == (0,)


def ge_structural_properties(g) -> None:
    """The four structure properties: factor-critical components, perfect
    matching on Z, the expansion property for subsets of A, and the
    matching-number count formula."""
    ge = gallai_edmonds(g)
    parts = set(ge.I) | set(ge.A) | set(ge.Z)
    assert parts == set(range(g.n))
    assert not (set(ge.I) & set(ge.A)) and not (set(ge.A) & set(ge.Z))
    for comp in ge.I_components:
        sub, _ = g.without(set(range(g.n)) - set(comp))
        assert is_factor_critical(sub)
    subz, _ = g.without(set(range(g.n)) - set(ge.Z))
    assert has_perfect_matching(subz) or subz.n == 0
    # Every X subseteq A has neighbors in at least |X|+1 components.
    comp_of = {}
    for ci, comp in enumerate(ge.I_components):
        for v in comp:
            comp_of[v] = ci
    for size in range(1, len(ge.A) + 1):
        for X in combinations(ge.A, size):
            touched = {comp_of[u] for a in X for u in g.adj[a]
                       if u in comp_of}
            assert len(touched) >= size + 1
    k = len(ge.I_components)
    assert matching_number(g) * 2 == g.n - k + len(ge.A)


def test_ge_properties_named_graphs():
    for g in (path_graph(6), cycle_graph(7), star_graph(4),
              petersen_graph(), complete_graph(5)):
        ge_structural_properties(BareGraph(g.n, g.edges()))


def test_ge_properties_random():
    rng = random.Random(5150)
    for _ in range(120):
        g = random_bare_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.7))
        ge_structural_properties(g)
