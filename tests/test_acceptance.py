"""Acceptance gate: the six headline claims, one pass/fail line each.

Each test prints a single summary line directly to the terminal (past
pytest's capture) so the verdicts are visible in a plain `pytest -v` run.
"""

import random
import time
from math import comb

import pytest

from conftest import (apply_move, brute_force_matching_number,
                      kneser_stackable, legal_move, max_matching_size,
                      multipartite_decide, oracle_stackable, phi,
                      random_bare_graph, random_connected_graph, scd)
from cupstack import decide
from cupstack.graphs import (Configuration, CubeBoard, Graph, Move, Plan,
                             shells, verify_barrier, verify_plan)
from cupstack.ecc2 import ecc2_decide
from cupstack.families import (cycle_graph, grid_graph, path_graph, plan_cycle,
                               plan_grid, plan_path, plan_spider, spider_graph,
                               star_graph)
from cupstack.oracle import oracle_search
from cupstack.cube import plan_cube, revolving_door


def report(line: str) -> None:
    """One verdict line per criterion, shown in the terminal summary."""
    from conftest import ACCEPTANCE_LINES
    ACCEPTANCE_LINES.append(line)
    print(line)


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def test_acceptance_1_oracle_matching_equivalence(atlas7):
    """`decide` takes the matching path for every target of eccentricity
    at most 2 (dominating targets included) of every connected graph with
    at most 7 vertices, and its verdict equals the exhaustive oracle's;
    every positive decision yields a plan the verifier accepts, and every
    negative one carries a barrier that verify_barrier accepts."""
    t0 = time.time()
    targets = {1: 0, 2: 0}
    mismatches = 0
    other_method = 0
    noes = 0
    bad_plans = 0
    bad_barriers = 0
    for g in atlas7:
        ones = Configuration.all_ones(g.n)
        for r in range(g.n):
            ecc = max(g.bfs_from(r))
            if ecc > 2:
                continue
            targets[max(ecc, 1)] += 1
            d = decide(g, r)
            other_method += d.method != "ecc2"
            if d.stackable != oracle_search(g, ones, r).decision:
                mismatches += 1
            if d.stackable:
                bad_plans += not verify_plan(g, d.plan)
            else:
                noes += 1
                bad_barriers += not verify_barrier(g, r, d.certificate)
    elapsed = time.time() - t0
    ok = (mismatches == 0 and other_method == 0 and bad_plans == 0
          and bad_barriers == 0 and elapsed < 300)
    report(f"ACCEPTANCE 1 oracle-matching equivalence: "
           f"{'PASS' if ok else 'FAIL'} — {mismatches} mismatches over "
           f"{targets[2]} ecc-2 and {targets[1]} dominating targets on "
           f"{len(atlas7)} graphs, {bad_plans} YES plans and "
           f"{bad_barriers}/{noes} NO barriers rejected ({elapsed:.1f}s)")
    assert mismatches == 0 and targets[2] > 3000 and targets[1] > 250
    assert other_method == 0
    assert bad_plans == 0 and bad_barriers == 0 and noes > 0
    assert elapsed < 300


def test_acceptance_2_named_family_verdicts():
    """Named verdicts: Petersen, complete multipartite n <= 10, stars
    m <= 6 via the oracle, and the Kneser graph K(8,3)."""
    failures = []
    from cupstack.families import petersen_graph
    if not all(ecc2_decide(petersen_graph(), r).decision for r in range(10)):
        failures.append("petersen")
    checked_mp = 0
    for n in range(2, 11):
        for t in range(2, n + 1):
            for sizes in compositions(n, t):
                for i in range(t):
                    expected = 2 * sizes[i] <= n + 1
                    ok, plan = multipartite_decide(sizes, i)
                    if ok != expected:
                        failures.append(f"multipartite {sizes} part {i}")
                    checked_mp += 1
    for m in range(1, 7):
        g = star_graph(m)
        verdicts = oracle_stackable(g)
        if verdicts[0] is not True:
            failures.append(f"star {m} center")
        for leaf in range(1, m + 1):
            if verdicts[leaf] != (m <= 2):
                failures.append(f"star {m} leaf")
    if kneser_stackable(8, 3)[0] is not True:
        failures.append("kneser(8,3)")
    ok = not failures
    report(f"ACCEPTANCE 2 named family verdicts: "
           f"{'PASS' if ok else 'FAIL'} — petersen, {checked_mp} "
           f"multipartite targets, stars m<=6, K(8,3)"
           + (f"; failures: {failures[:3]}" if failures else ""))
    assert not failures


def test_acceptance_3_constructive_planners():
    """Every path/cycle/spider/grid plan is accepted by the verifier."""
    t0 = time.time()
    rejected = 0
    plans = 0
    for n in range(1, 61):
        g = path_graph(n)
        for r in range(n):
            plans += 1
            rejected += not verify_plan(g, plan_path(n, r))
    for n in range(3, 61):
        g = cycle_graph(n)
        for r in range(n):
            plans += 1
            rejected += not verify_plan(g, plan_cycle(n, r))
    from itertools import combinations_with_replacement
    for k in range(1, 7):
        for legs in combinations_with_replacement(range(1, 9), k):
            plans += 1
            rejected += not verify_plan(spider_graph(legs), plan_spider(legs))
    for m in range(1, 13):
        for k in range(1, 13):
            g = grid_graph(m, k)
            for x in range(m):
                for y in range(k):
                    plans += 1
                    rejected += not verify_plan(g, plan_grid(m, k, (x, y)))
    elapsed = time.time() - t0
    ok = rejected == 0 and elapsed < 120
    report(f"ACCEPTANCE 3 constructive planners: "
           f"{'PASS' if ok else 'FAIL'} — {rejected} rejected of "
           f"{plans} plans ({elapsed:.1f}s)")
    assert rejected == 0
    assert elapsed < 120


def test_acceptance_4_matching_subsystem(atlas7):
    """Blossom vs brute force, and ecc-2 certificates."""
    mismatches = 0
    count_bf = 0
    for g in atlas7:
        count_bf += 1
        if max_matching_size(g.adj) != brute_force_matching_number(g.adj):
            mismatches += 1
    rng = random.Random(20260824)
    for n in (8, 9):
        for _ in range(150):
            adj = random_bare_graph(rng, n, rng.uniform(0.1, 0.7))
            count_bf += 1
            if max_matching_size(adj) != brute_force_matching_number(adj):
                mismatches += 1
    # Draw the 500 graphs that precede the certificate graphs in this
    # seed's stream, so the certificate leg keeps its 300 graphs.
    for _ in range(500):
        random_bare_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.6))

    # Beyond the atlas the oracle is out of reach, so each ecc-2 decision
    # is checked by its own certificate: a valid matching of G - r that
    # saturates N_2(r), or a barrier that verify_barrier accepts.
    targets = 0
    noes = 0
    cert_bad = 0
    for _ in range(300):
        # Vertex 0 is joined to 1..k and every later vertex to one of them,
        # so 0 has eccentricity 2; the extra edges avoid 0.
        n = rng.randint(8, 30)
        k = rng.randint(1, n // 3)
        edges = {(0, v) for v in range(1, k + 1)}
        edges |= {(rng.randint(1, k), v) for v in range(k + 1, n)}
        for _ in range(rng.randint(0, 2 * n)):
            edges.add(tuple(sorted(rng.sample(range(1, n), 2))))
        g = Graph(n, sorted(edges))
        for r in range(g.n):
            sh = shells(g, r)
            if len(sh) != 3:
                continue
            targets += 1
            w = ecc2_decide(g, r)
            if w.decision:
                m = w.matching
                covered = {v for pair in m for v in pair}
                cert_bad += not (set(sh[2]) <= covered
                                 and len(covered) == 2 * len(m)
                                 and all(v in g.adj[u] and r not in (u, v)
                                         for u, v in m))
            else:
                noes += 1
                cert_bad += not verify_barrier(g, r, w.barrier)

    ok = mismatches == 0 and cert_bad == 0
    report(f"ACCEPTANCE 4 matching subsystem: "
           f"{'PASS' if ok else 'FAIL'} — blossom {mismatches}/{count_bf} "
           f"mismatches, certificates {cert_bad}/{targets} bad "
           f"({noes} barriers)")
    assert mismatches == 0 and cert_bad == 0
    assert noes > 0


def chain_pred(n: int, mask: int):
    """phi(n, mask), or None for a chain bottom."""
    try:
        return phi(n, mask)
    except ValueError:
        return None


def test_acceptance_5_cube_machinery():
    """Chain/Gray invariants, cube plans to d=19, and the d=20 gap."""
    t0 = time.time()
    bad = []
    for n in range(0, 17):
        chains = scd(n)
        seen = set()
        pred = {}
        for chain in chains:
            lo, hi = chain[0].bit_count(), chain[-1].bit_count()
            if lo + hi != n:
                bad.append(f"scd({n}) symmetry")
            for a, b in zip(chain, chain[1:]):
                if a & ~b or (a ^ b).bit_count() != 1:
                    bad.append(f"scd({n}) saturation")
                pred[b] = a
            seen.update(chain)
        if len(seen) != 1 << n or len(chains) != comb(n, n // 2):
            bad.append(f"scd({n}) partition")
        for mask in range(1 << n):
            if chain_pred(n, mask) != pred.get(mask):
                bad.append(f"phi({n}) vs chain predecessor")
                break
    for m in range(5, 13):
        order = revolving_door(m, 4)
        if len(order) != comb(m, 4) or len(set(order)) != len(order):
            bad.append(f"gray({m},4) coverage")
        for a, b in zip(order, order[1:] + order[:1]):
            if len(set(a) & set(b)) != 3:
                bad.append(f"gray({m},4) adjacency")
                break
    t_inv = time.time() - t0

    t0 = time.time()
    for d in range(0, 15):
        res = plan_cube(d)
        if not (res.complete and verify_plan(CubeBoard(d), res.plan)):
            bad.append(f"plan_cube({d})")
    t_base = time.time() - t0
    if t_base >= 60:
        bad.append("d<=14 runtime")

    t0 = time.time()
    for d in (15, 16, 17, 18, 19):
        res = plan_cube(d)
        if not (res.complete and verify_plan(CubeBoard(d), res.plan)):
            bad.append(f"plan_cube({d})")
    t_ext = time.time() - t0
    if t_ext >= 600:
        bad.append("d<=19 runtime")

    # The known construction gap at d = 20: level-9 3-cubes whose chain is
    # only {level 8, level 9} have no third cube.  Everything else of the
    # plan must replay with those 3-cubes left empty.
    res = plan_cube(20)
    n = 17
    if res.complete or {m.bit_count() for m in res.unassigned} != {9}:
        bad.append("plan_cube(20) gap is not exactly level 9")
    counts = [1] * (1 << 20)
    for m in res.unassigned:
        if chain_pred(n, phi(n, m)) is not None:
            bad.append(f"plan_cube(20) left {m:#x}, whose chain goes below level 8")
            break
        for rel in range(8):
            counts[m | rel << n] = 0
    holed = Plan(res.plan.n, res.plan.target, res.plan.flat,
                 Configuration(tuple(counts)))
    if not verify_plan(CubeBoard(20), holed):
        bad.append("plan_cube(20) outside the gap")

    ok = not bad
    report(f"ACCEPTANCE 5 cube machinery: {'PASS' if ok else 'FAIL'} — "
           f"invariants n<=16 & m<=12 ({t_inv:.1f}s), d<=14 verified "
           f"({t_base:.1f}s), d<=19 verified ({t_ext:.1f}s); "
           f"d=20: incomplete, {len(res.unassigned)} level-9 labels "
           f"unassigned (their chains are only levels 8 and 9), the rest "
           f"verified" + (f"; failures: {bad[:3]}" if bad else ""))
    assert not bad


def test_acceptance_6_property_suite():
    """Conservation, verifier round-trip, transitivity, determinism."""
    rng = random.Random(8128)
    bad = 0
    cases = 0
    while cases < 10 ** 4:
        g = random_connected_graph(rng, rng.randint(2, 7))
        c = Configuration(tuple(rng.randint(0, 3) for _ in range(g.n)))
        legal = [Move(u, v) for u in range(g.n) for v in range(g.n)
                 if u != v and legal_move(g, c, Move(u, v))]
        for mv in legal:
            cases += 1
            bad += apply_move(c, mv).size != c.size

    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 6))
        r = rng.randrange(g.n)
        res = oracle_search(g, Configuration.all_ones(g.n), r)
        if res.decision:
            bad += not verify_plan(g, res.plan)
            bad += not verify_plan(
                g, Plan.from_json_dict(res.plan.to_json_dict()))

    for g in ([cycle_graph(n) for n in range(3, 10)]
              + [CubeBoard(3).to_graph()]):
        bad += len(set(oracle_stackable(g).values())) != 1

    a = plan_cube(10).plan.moves
    b = plan_cube(10).plan.moves
    bad += a != b

    ok = bad == 0
    report(f"ACCEPTANCE 6 property suite: {'PASS' if ok else 'FAIL'} — "
           f"{cases} conservation cases, round-trips, transitivity, "
           f"deterministic re-runs; {bad} violations")
    assert bad == 0
