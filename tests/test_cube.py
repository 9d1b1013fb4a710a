"""Symmetric chains, revolving-door order, subcube fragments, cube plans."""

import functools
import hashlib
import json
import random
import tracemalloc
from array import array
from itertools import combinations

import pytest

from conftest import pairs, phi, scd
from cupstack import cube
from cupstack.graphs import PLAN_TYPECODE, Configuration, CubeBoard, Plan, verify_plan
from cupstack.oracle import oracle_search
from cupstack.cube import (CubeError, _abc_flat, _emit, _LEVEL3_4CUBE_FLAT,
                           _level4_batches, _offsets, _PAIR_FLAT, _solve,
                           _TRIPLE_FLAT, plan_cube, revolving_door)


# ------------------------------------------------------------ chain machinery

def _unmatched(n: int, mask: int) -> tuple[list[int], list[int]]:
    """Bracket-match each member (1) with an earlier non-member (0);
    returns the unmatched one-positions and zero-positions."""
    stack: list[int] = []
    ones: list[int] = []
    for i in range(n):
        if mask >> i & 1:
            if stack:
                stack.pop()
            else:
                ones.append(i)
        else:
            stack.append(i)
    return ones, stack


def _scd_reference(n: int) -> list[list[int]]:
    """The bracket-scan construction: each set without unmatched ones is
    a chain bottom, and its chain adds its unmatched zeros in order."""
    chains = []
    for mask in range(1 << n):
        ones, zeros = _unmatched(n, mask)
        if ones:
            continue               # not a chain bottom
        chain = [mask]
        cur = mask
        for z in zeros:
            cur |= 1 << z
            chain.append(cur)
        chains.append(chain)
    return chains


def test_scd_n2():
    assert sorted(scd(2)) == [[0b00, 0b01, 0b11], [0b10]]


def test_scd_n4_chain_count():
    assert len(scd(4)) == 6


def scd_invariants(n: int) -> None:
    chains = scd(n)
    seen = set()
    for chain in chains:
        lo = chain[0].bit_count()
        hi = chain[-1].bit_count()
        assert lo + hi == n                          # symmetric around n/2
        assert [m.bit_count() for m in chain] == list(range(lo, hi + 1))
        for a, b in zip(chain, chain[1:]):
            assert a & ~b == 0 and (b ^ a).bit_count() == 1   # saturated
        seen.update(chain)
    assert len(seen) == 1 << n                       # partition of all sets
    assert sum(len(c) for c in chains) == 1 << n
    from math import comb
    assert len(chains) == comb(n, n // 2)


def test_scd_invariants_small():
    for n in range(0, 11):
        scd_invariants(n)
    for n in range(15):
        assert scd(n) == _scd_reference(n)


def test_phi_examples():
    assert phi(2, 0b11) == 0b01
    for n in range(1, 9):
        full = (1 << n) - 1
        pred = phi(n, full)
        assert pred.bit_count() == n - 1 and pred & ~full == 0


def test_phi_is_chain_predecessor():
    for n in range(1, 10):
        pred = {}
        for chain in scd(n):
            for a, b in zip(chain, chain[1:]):
                pred[b] = a
        for mask in range(1 << n):
            if mask in pred:
                assert phi(n, mask) == pred[mask]
            else:                      # chain bottom
                with pytest.raises(ValueError):
                    phi(n, mask)


def test_phi_table_matches_bracket_scan():
    # Every mask below 2^17, taken at its own width n (top bit n - 1):
    # the chain-link tables of width 17 agree with the bit-by-bit bracket
    # scan, run once for phi(mask) and again on it for phi(phi(mask)),
    # each None where a chain bottom is passed.
    first, second = cube._phi_tables(17)
    assert len(first) == len(second) == 1 << 17
    for n in range(18):
        for mask in range(1 << n >> 1, 1 << n):
            ones, _ = _unmatched(n, mask)
            b = mask & ~(1 << ones[-1]) if ones else None
            ones = _unmatched(n, b)[0] if ones else []
            c = b & ~(1 << ones[-1]) if ones else None
            got_b = mask ^ 1 << first[mask] - 1 if first[mask] else None
            got_c = got_b ^ 1 << second[mask] - 1 if second[mask] else None
            assert (got_b, got_c) == (b, c), (n, mask)


def test_phi_rejects_mask_wider_than_n():
    with pytest.raises(ValueError):
        phi(3, 0b1000)


def test_phi_injective_on_upper_sizes():
    images = [phi(5, m) for m in range(1 << 5) if m.bit_count() >= 3]
    assert len(images) == len(set(images)) == 16


def test_revolving_door_5_4_cycle():
    order = revolving_door(5, 4)
    assert len(order) == 5
    for a, b in zip(order, order[1:] + order[:1]):
        assert len(set(a) & set(b)) == 3


def test_revolving_door_6_4():
    order = revolving_door(6, 4)
    assert len(order) == 15
    for a, b in zip(order, order[1:] + order[:1]):
        assert len(set(a) & set(b)) == 3


def test_revolving_door_9_4_covers_once():
    order = revolving_door(9, 4)
    assert len(order) == len(set(order)) == 126
    assert set(order) == set(combinations(range(1, 10), 4))


def _revolving_door_reference(m: int, k: int) -> list[tuple[int, ...]]:
    """The recursive definition that `revolving_door` builds bottom-up."""
    if k == 0:
        return [()]
    if k == m:
        return [tuple(range(1, m + 1))]
    tail = [c + (m,) for c in reversed(_revolving_door_reference(m - 1, k - 1))]
    return _revolving_door_reference(m - 1, k) + tail


def test_revolving_door_matches_recursive_reference():
    for m in range(13):
        for k in range(m + 1):
            assert revolving_door(m, k) == _revolving_door_reference(m, k), (m, k)


def test_revolving_door_general_adjacency():
    for m in range(2, 10):
        for k in range(1, m):
            order = revolving_door(m, k)
            assert len(order) == len(set(order))
            for a, b in zip(order, order[1:] + order[:1]):
                assert len(set(a) & set(b)) == k - 1
    # Built bottom-up, so any m works.
    assert revolving_door(1100, 1) == [(i,) for i in range(1, 1101)]


# ---------------------------------------------------------- fragment replay

def replay_fragment(d: int, moves, vertices) -> None:
    """A fragment must empty its own vertices into the global target while
    touching nothing else; replay it with cups only there plus the target."""
    counts = [0] * (1 << d)
    counts[0] = 1
    for v in vertices:
        counts[v] = 1
    plan = Plan(1 << d, 0, moves, Configuration(tuple(counts)))
    assert verify_plan(CubeBoard(d), plan)


def subcube_vertices(base: int, dims) -> list[int]:
    return [base | off for off in _offsets(tuple(dims))]


def _emit_reference(out, bases, dims, template):
    """One fragment by table lookup, the reference for `_emit`'s batched
    lane arithmetic: global vertices of every subcube in turn, then the
    target as entry -1."""
    offs = _offsets(tuple(dims))
    table = [base | off for base in bases for off in offs]
    table.append(0)
    out.extend(map(table.__getitem__, template))
    return out


def emit_templates() -> list[tuple[int, tuple[int, ...]]]:
    """(k, template) for every template kind the cube plans emit."""
    solved = []
    for k in range(5):
        for level in range((1 << k) + 1):
            try:
                solved.append((k, _solve(k, level)))
            except CubeError:
                continue
    return (solved + [(4, _LEVEL3_4CUBE_FLAT), (3, _PAIR_FLAT), (3, _TRIPLE_FLAT)]
            + [(3, _abc_flat(level)) for level in range(9, 13)])


def test_emit_matches_table_lookup_reference():
    # dims are the top k bits of d = 20, and the bases are random labels
    # below them plus the all-ones label, so vertices reach 2^20 - 1.
    # Batches hold one template each, or mix the 3-cube levels 1-3 and
    # 5-8 or the 4-cube levels 12-16 as plan_cube does, and their sizes
    # straddle one chunk.  The batch of three chunks repeats its first
    # chunk's picks in the second, whose lanes `_emit` reuses, and picks
    # afresh in the third, which a mixed batch then draws differently.
    rng = random.Random(20261020)
    groups = [(k, {0: template}) for k, template in emit_templates()]
    groups += [(3, {l: _solve(3, l) for l in (1, 2, 3, 5, 6, 7, 8)}),
               (4, {l: _solve(4, l) for l in range(12, 17)})]
    for k, templates in groups:
        dims = tuple(range(20 - k, 20))
        cubes = max(max(t, default=-1) for t in templates.values()) // (1 << k) + 1
        top = (1 << (20 - k)) - 1
        for count in (0, 1, cube._CHUNK - 1, cube._CHUNK, cube._CHUNK + 1,
                      3 * cube._CHUNK):
            picks = bytes(rng.choice(list(templates)) for _ in range(count))
            if count == 3 * cube._CHUNK:
                first, third = picks[:cube._CHUNK], picks[2 * cube._CHUNK:]
                picks = first * 2 + third
                assert len(templates) == 1 or third != first
            columns = [array(PLAN_TYPECODE, [top if f == 0 else rng.randrange(top + 1)
                                             for f in range(count)])
                       for _ in range(cubes)]
            prefix = [rng.randrange(1 << 20) for _ in range(1 + count % 3)]
            got = _emit(array(PLAN_TYPECODE, prefix), columns, dims, templates, picks)
            want = array(PLAN_TYPECODE, prefix)
            for f, pick in enumerate(picks):
                _emit_reference(want, [col[f] for col in columns], dims, templates[pick])
            assert got == want


def test_low_subcube_k1_level0():
    moves = _emit(array(PLAN_TYPECODE), [(0b0,)], (0,), {0: _solve(1, 0)}, b"\0")
    assert pairs(moves) == [(1, 0)]
    replay_fragment(1, moves, [0, 1])


def test_low_subcube_full_q3():
    moves = _emit(array(PLAN_TYPECODE), [(0,)], (0, 1, 2), {0: _solve(3, 0)}, b"\0")
    replay_fragment(3, moves, range(8))


def test_low_subcube_rejects_level4_3cube():
    with pytest.raises(CubeError):
        _solve(3, 4)           # a level-4 3-cube needs a partner gadget


def test_low_subcube_all_placements_small():
    for d in range(3, 8):
        for k in range(0, 4):
            dims = tuple(range(d - k, d))
            for base in range(1 << (d - k)):
                try:
                    template = _solve(k, base.bit_count())
                except CubeError:
                    continue      # level out of the fragment's window
                moves = _emit(array(PLAN_TYPECODE), [(base,)], dims, {0: template}, b"\0")
                replay_fragment(d, moves, subcube_vertices(base, dims))


def test_high_kcube_level5_3cube():
    moves = _emit(array(PLAN_TYPECODE), [(0b11111,)], (5, 6, 7), {0: _solve(3, 5)}, b"\0")
    assert len(pairs(moves)) == 8     # 7 in-cube moves plus the jump
    src, dst = pairs(moves)[-1]
    assert src.bit_count() == 8 and dst == 0
    replay_fragment(8, moves, subcube_vertices(0b11111, (5, 6, 7)))


def test_high_kcube_4cube_in_q16():
    base = sum(1 << i for i in range(12))
    moves = _emit(array(PLAN_TYPECODE), [(base,)], (12, 13, 14, 15), {0: _solve(4, 12)},
                  b"\0")
    assert len(pairs(moves)) == 16
    src, dst = pairs(moves)[-1]
    assert src.bit_count() == 16 and dst == 0
    replay_fragment(16, moves, subcube_vertices(base, (12, 13, 14, 15)))


def test_high_kcube_level16_forced_placement():
    # At level 16 the jump must launch from the weight-16 bottom vertex,
    # and the subcube's top vertex is the global all-ones vertex.
    base = (1 << 16) - 1
    dims = (16, 17, 18, 19)
    moves = _emit(array(PLAN_TYPECODE), [(base,)], dims, {0: _solve(4, 16)}, b"\0")
    assert pairs(moves)[-1] == (base, 0)
    assert base | _offsets(dims)[0b1111] == (1 << 20) - 1


def test_high_kcube_level_window():
    with pytest.raises(CubeError):
        _solve(4, 11)


def test_level3_4cube_gadget():
    base = 0b111
    dims = (3, 4, 5, 6)
    moves = _emit(array(PLAN_TYPECODE), [(base,)], dims, {0: _LEVEL3_4CUBE_FLAT}, b"\0")
    assert len(pairs(moves)) == 16    # each of the 16 cups moves exactly once
    exits = [(a, b) for a, b in pairs(moves) if b == 0]
    assert sorted(a.bit_count() for a, _ in exits) == [3, 6, 7]
    replay_fragment(7, moves, subcube_vertices(base, dims))


def level4_moves(d: int, out: array) -> array:
    """Append the fragments of every level-4 3-cube of Q^d's split to
    `out` and return it."""
    for _, *batch in _level4_batches(d):
        _emit(out, *batch)
    return out


def test_level4_gadgets_d8():
    # C(5,4) = 5 level-4 labels: one triple plus one pair.
    moves = level4_moves(8, array(PLAN_TYPECODE))
    labels = [sum(1 << (e - 1) for e in c) for c in revolving_door(5, 4)]
    vertices = [v for l in labels for v in subcube_vertices(l, (5, 6, 7))]
    replay_fragment(8, moves, vertices)


def test_level4_gadgets_d9():
    moves = level4_moves(9, array(PLAN_TYPECODE))
    labels = [sum(1 << (e - 1) for e in c) for c in revolving_door(6, 4)]
    vertices = [v for l in labels for v in subcube_vertices(l, (6, 7, 8))]
    replay_fragment(9, moves, vertices)


@pytest.mark.parametrize("order", [
    [(1, 2, 3, 4), (3, 4, 5, 6)],                       # a pair
    [(1, 2, 3, 4), (1, 2, 3, 5), (3, 4, 5, 6)],         # the odd triple
])
def test_level4_gadgets_reject_nonadjacent_labels(monkeypatch, order):
    # The gadgets need labels two bits apart; the check raises, so it
    # holds under `python -O` too, and it runs before any move is written.
    monkeypatch.setattr(cube, "revolving_door", lambda m, k: order)
    out = array(PLAN_TYPECODE)
    with pytest.raises(CubeError, match="not adjacent"):
        level4_moves(9, out)
    assert len(out) == 0


def test_abc_triple_levels():
    # Chain triples at each supported level, replayed at the smallest d
    # where such levels occur (d = 12..15 for levels 9..12).
    for l in (9, 10, 11, 12):
        d = l + 3
        n = d - 3
        a = (1 << l) - 1
        b = phi(n, a)
        c = phi(n, b)
        dims = (d - 3, d - 2, d - 1)
        moves = _emit(array(PLAN_TYPECODE), [(a,), (b,), (c,)], dims, {0: _abc_flat(l)}, b"\0")
        vertices = [v for base in (a, b, c)
                    for v in subcube_vertices(base, dims)]
        replay_fragment(d, moves, vertices)
        if l == 10:
            # the 13-cup jump from the top pile is the signature move
            assert any(src.bit_count() == 13 and dst == 0
                       for src, dst in pairs(moves))


# ------------------------------------------------ chain-triple gadget tables
# The exhaustive searches that found cube._ABC9 and cube._STEAL5; the
# tables must hold exactly what they return.

@functools.cache
def _gather3(counts: tuple[int, ...], target: int):
    """Flat moves concentrating a 3-cube configuration on one vertex,
    found by exhaustive search; None when impossible."""
    res = oracle_search(CubeBoard(3).to_graph(), Configuration(counts), target,
                        budget=10**6)
    return tuple(res.plan.flat) if res.decision is True else None


def _abc9_template():
    """Steal choices and gathers for the level-9 chain triple: one cup
    hops B->A, one C->B, then each cube piles onto its bottom vertex."""
    ones = [1] * 8
    for t1 in range(1, 8):
        a_counts = list(ones)
        a_counts[t1] += 1
        ga = _gather3(tuple(a_counts), 0)
        if ga is None:
            continue
        for t2 in range(1, 8):
            if t2 == t1:
                continue
            b_counts = list(ones)
            b_counts[t1] = 0
            b_counts[t2] += 1
            gb = _gather3(tuple(b_counts), 0)
            if gb is None:
                continue
            c_counts = list(ones)
            c_counts[t2] = 0
            gc = _gather3(tuple(c_counts), 0)
            if gc is None:
                continue
            return t1, t2, ga, gb, gc
    raise AssertionError("no feasible level-9 triple template")


def _steal5_template(l: int):
    """Launch pattern for chain triples at levels 10 to 12: the first
    exit vertex t, pile-2 and pile-3 launches toward A with their feeders
    and a pile-2 launch toward C with its feeder that cover B's other
    seven vertices, and the gather of all eight cups on t."""
    j = 13 - l
    t = (1 << j) - 1            # relative mask of both exit vertices
    others = [v for v in range(8) if v != t]
    for x in others:            # pile-2 launch toward A, plus its feeder
        if (x ^ t).bit_count() != 1:
            continue
        for fx in others:
            if fx == x or (fx ^ x).bit_count() != 1:
                continue
            for y in others:    # pile-3 launch toward A, two feeders
                if y in (x, fx) or (y ^ t).bit_count() != 2:
                    continue
                feeders = [f for f in others
                           if f not in (x, fx, y) and (f ^ y).bit_count() == 1]
                for fy1, fy2 in combinations(feeders, 2):
                    for z in others:   # pile-2 launch toward C, one feeder
                        if z in (x, fx, y, fy1, fy2):
                            continue
                        if (z ^ t).bit_count() != 1:
                            continue
                        rest = set(range(8)) - {t, x, fx, y, fy1, fy2, z}
                        if len(rest) != 1:
                            continue
                        fz = rest.pop()
                        if (fz ^ z).bit_count() != 1:
                            continue
                        return t, (x, fx, y, fy1, fy2, z, fz), _gather3((1,) * 8, t)
    raise AssertionError(f"no feasible steal pattern at level {l}")


def test_gadget_tables_match_reference_searches():
    assert cube._ABC9 == _abc9_template()
    assert cube._STEAL5 == {l: _steal5_template(l) for l in (10, 11, 12)}


def test_gadget_gathers_replay_on_q3():
    # Each gather, from the configuration its cube holds when it starts,
    # leaves every cup on its target vertex.
    t1, t2, ga, gb, gc = cube._ABC9
    ones = [1] * 8
    a_start, b_start, c_start = list(ones), list(ones), list(ones)
    a_start[t1] = 2
    b_start[t1], b_start[t2] = 0, 2
    c_start[t2] = 0
    cases = [(ga, a_start, 0), (gb, b_start, 0), (gc, c_start, 0)]
    cases += [(gather, ones, t) for t, _, gather in cube._STEAL5.values()]
    for gather, start, target in cases:
        plan = Plan(8, target, gather, Configuration(tuple(start)))
        assert verify_plan(CubeBoard(3), plan), (gather, start, target)


# --------------------------------------------------------------- full plans

def test_plan_cube_d2_matches_oracle():
    result = plan_cube(2)
    assert result.complete and verify_plan(CubeBoard(2), result.plan)
    g = CubeBoard(2).to_graph()
    assert oracle_search(g, Configuration.all_ones(4), 0).decision is True


def test_plan_cube_small_range():
    for d in range(0, 11):
        result = plan_cube(d)
        assert result.complete and result.unassigned == ()
        assert len(pairs(result.plan.flat)) == (1 << d) - 1
        assert verify_plan(CubeBoard(d), result.plan)


def test_plan_cube_d12():
    result = plan_cube(12)
    assert result.complete and verify_plan(CubeBoard(12), result.plan)
    assert result.phase_moves.get("chain-triples", 0) > 0


def test_plan_cube_rejects_out_of_range():
    with pytest.raises(CubeError):
        plan_cube(21)


def test_plan_cube_deterministic():
    assert plan_cube(9).plan.flat == plan_cube(9).plan.flat


def _fields(result):
    return (result.plan.flat, result.complete, result.unassigned,
            list(result.phase_moves.items()))


def test_plan_cube_cold_and_warm_calls_agree():
    # The split is built once per d: a call on an empty memo and a call
    # that reuses it give the same moves and fields.
    for d in range(21):
        cube._split.cache_clear()
        cold = plan_cube(d)
        warm = plan_cube(d)
        assert cube._split.cache_info().hits == 1
        assert _fields(cold) == _fields(warm), d


@pytest.mark.parametrize("d", [0, 7, 12])
def test_plan_cube_results_share_nothing(d):
    # Editing one result's moves or phase counts leaves the next call's
    # result as it would have been...
    first = plan_cube(d)
    expected = first.plan.flat.tobytes(), dict(first.phase_moves)
    first.plan.flat.extend((1, 0))
    first.phase_moves["extra"] = 1
    again = plan_cube(d)
    assert (again.plan.flat.tobytes(), again.phase_moves) == expected
    # ... and the next call leaves the earlier result as it was.
    assert (first.plan.flat[:-2].tobytes(), first.phase_moves) == (
        expected[0], dict(expected[1], extra=1))


def test_plan_cube_does_not_memoize_a_failed_split(monkeypatch):
    # A split that raised is not kept: once revolving_door gives adjacent
    # labels again, the same d is built afresh and verifies.
    cube._split.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(cube, "revolving_door", lambda m, k: [(1, 2, 3, 4), (3, 4, 5, 6)])
        with pytest.raises(CubeError, match="not adjacent"):
            plan_cube(9)
    result = plan_cube(9)
    assert result.complete and verify_plan(CubeBoard(9), result.plan)


# Built once per d for the pin tests below.
_pinned_result = functools.cache(plan_cube)


def _pinned_plan(d):
    return _pinned_result(d).plan


@pytest.mark.parametrize("d, digest", [
    (7, "e42767e8c0455d56eb3c2c45a625494c868fb39c193f36bbbcac90a8e964ebe4"),
    (13, "a92e0f8c13a594e1b9d00272ba570fba15cde27a9f5dbfdf62ab1c0d9431dc15"),
    (16, "b3aef37c844c2527dab9e25c09fcdfeed313fbc36a4af5b55bdeb940b15feea0"),
    (18, "f860ae711803a3b84fbcd01d24270e7b7dded8ebced7c2b82c1f4eda7073f006"),
])
def test_plan_cube_sequence_pinned(d, digest):
    # Pinned SHA-256 of the JSON move list: the fragment templates must
    # reproduce these plans move for move.
    moves = json.dumps(_pinned_plan(d).to_json_dict()["moves"])
    assert hashlib.sha256(moves.encode()).hexdigest() == digest


# SHA-256 of plan_cube(d).plan.to_json() for d = 0..20, the plan file
# `cupstack cube -d D -o` writes (d = 20's plan is the incomplete one).
PLAN_FILE_DIGESTS = (
    "464d675ae35ba37de4fdb2a98ca2245b3358ee9bcac6ccc77c3e5c0f95884f3b",
    "902fc448417024ed8d067e728bc33c80927e3eb2e12c02da5c1632ca9ef920f7",
    "d79d2bf50aec2f065ef97978347c333a713cbefdd7efac646821d9f50b0823fd",
    "9292b2ff5aae9a9354bdc9ee242ef7c514573a9ed878fc3f5b894f85d1e927ef",
    "72cf42fee79d14e4a53833a690dfbf9b4bc973db88dca654d46e8a0388bf47bb",
    "5f2a20129a4547b7c40449f66248a98f6a2c39b6bdb977d70a60a49f71301cf9",
    "e27a0f978162fa1d3611c6e5a54aba3f743853f9553275339f13a07bafeb92c7",
    "eb7a8d17f55470fe96a45ea6c6455895f4e86338484b4755232cc86bc8ec87ce",
    "7aad9f16f962da7bc46c0e4cf4477305a332d317ced0f7e693d1608cb1a78ec9",
    "6617c5f338bac00837fba26e4bba5cbbf62f37152d4c9bb2ef738b173fa131fa",
    "c057c3f2772fb73a2eb4b7d4548b6452acb7884fe533d690dc55674c29ed3584",
    "c7837c88b985176f4e77a51c07a7adb0533ed06695e9e822f1d60a993a87523c",
    "acbf972a6e547cc9e3c3b0eb9b770894a574fae513a6982868ba0ae36f44103b",
    "533476bcf09d3043c9bb55ad0fcaefcea8a60ce0d283fc36c9b811b6fb21fd0f",
    "e5cec38eb91d97879d86af9ac230bfa79ad76d03dd0f3846246323dde83b2b64",
    "21ef43f2f2bda7c39610d5c416180356a4d6f1ccbe74759f6b6f41312a567f9f",
    "0072176281a8909e6f6715e13440a6cad876d133fd179f4b6a5b8b74c610e5e5",
    "620c85f52c8b4fa5597611a5adb739cba0d7a977ea8b6cb86841fba850fc65f9",
    "7b64e2b6b67b571fc3b6bc78fc95784dc1684a0219d5de6c2a1087ca5dbf578c",
    "e09971390e09de722971aeb6bf69b1e0581cd1275a72b1ff637da39d4e1051ef",
    "978421ca815a086b72b4f0bb38e25d9f5af0f6758883a6d58920d43a29eaf3c9",
)


@pytest.mark.parametrize("d", range(21))
def test_plan_cube_file_pinned(d):
    # Every dimension's plan, move for move: a change to the fragment
    # templates, their order or the flat array's entry type shows here.
    text = _pinned_plan(d).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PLAN_FILE_DIGESTS[d]


def test_plan_cube_memory_per_move():
    # The plan is one flat array of 4-byte ints, 8 bytes per move; the
    # peak while building it, from cold caches, stays under 12 per move,
    # so fragments go straight into the array, not through a buffer.
    for obj in vars(cube).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    tracemalloc.start()
    try:
        result = plan_cube(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * (len(result.plan.flat) // 2)


def test_plan_cube_result_fields_pinned():
    # The fields besides the moves, which `cupstack cube` and the
    # benchmark's traced run report: SHA-256 over (d, complete, unassigned,
    # sorted phase_moves) for d = 0..20.
    rows = [[d, res.complete, list(res.unassigned), sorted(res.phase_moves.items())]
            for d, res in ((d, _pinned_result(d)) for d in range(21))]
    assert (hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            == "14d5813fbd208953a074411b67d71002e839aaacb9541377f0f467d385f1ab17")
