"""Blossom search and augmentation, through a maximum-matching loop."""

import random

from conftest import (brute_force_matching_number, max_matching_size,
                      random_bare_graph)
from cupstack.families import cycle_graph, petersen_graph, star_graph


def test_c4_perfect():
    assert max_matching_size(cycle_graph(4).adj) == 2


def test_petersen_matching_number():
    assert max_matching_size(petersen_graph().adj) == 5


def test_star_matching_number():
    assert max_matching_size(star_graph(3).adj) == 1


def test_matching_matches_brute_force_random():
    rng = random.Random(41)
    for _ in range(150):
        adj = random_bare_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.8))
        assert max_matching_size(adj) == brute_force_matching_number(adj)
