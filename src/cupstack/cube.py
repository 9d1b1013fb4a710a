"""Hypercube stacking plans for Q^d up to d = 20.

Vertices are d-bit masks and distance is the Hamming distance.  The plan
for the full cube is assembled from fragments, one per axis-aligned
subcube of a suitable split: each fragment empties its own vertices into
piles whose sizes equal their weights, and jumps each pile straight to
the all-zeros target.  Fragments only touch their own vertices plus the
target, so they compose in any order.

Subcubes whose level (the minimum vertex weight) is awkward cannot exit
on their own and are handled by coordination gadgets: level-3 4-cubes
split into three spiders; level-4 3-cubes work in pairs or triples of
adjacent labels along a revolving-door cycle; level-9-and-up 3-cubes
team up in chain triples (A, phi(A), phi(phi(A))) from a symmetric chain
decomposition, shuttling single cups between cubes until every pile
matches a weight; a level-9 A whose chain stops at phi(A) (only at
d = 20) takes as its third cube a free level-7 neighbour of phi(A),
matched to it by Kuhn's augmenting paths.  Every plan, d = 0 to 20, is
complete.  All gadgets are fixed tables: the chain-triple ones
were found by exhaustive search on Q^3, which tests/test_cube.py repeats,
so building a plan runs no game search and this module needs no `oracle`.

Every fragment is a cached template of flat moves [s0, d0, s1, d1, ...]
over relative vertex indices: index i * 2^k + rel is the vertex at
relative mask rel of the i-th subcube in play, and -1 is the target.
Fragments go out in batches, one `_emit` call per phase and level: a
column of subcube labels per slot, a byte per fragment to pick its
template.  Strided slice assignment copies a chunk's labels into 32-bit
lanes; read as one big int they are masked to 0 at the target, or-ed with
the cached offsets (joined once per run of chunks with equal picks) and
appended to the plan's flat int array.

The split, which subcube takes which gadget, depends on d alone: `_split`
builds its batches once per d and keeps them, and each `plan_cube` call
only runs them through `_emit` into a fresh array.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import chain, compress
from typing import Mapping, NamedTuple, Sequence

from .graphs import PLAN_TYPECODE, Plan


class CubeError(ValueError):
    """Subcube outside the range a planner can handle."""


# ------------------------------------------------ symmetric chain machinery

# bytes.translate tables: one more (a level, or a walk's gap below), one
# less but not below 0, and 0xff exactly at 0.
_PLUS1 = bytes(range(1, 256)) + b"\0"
_MINUS1 = bytes(1) + bytes(range(255))
_AT_TOP = b"\xff" + bytes(255)


def _phi_tables(n: int) -> tuple[bytes, bytes]:
    """Chain links of every n-bit label m as two tables of 1-based bit
    positions, 0 for none (past a chain bottom): phi(m) clears bit
    first[m] - 1, and phi(phi(m)) also clears bit second[m] - 1.  Read
    low bit first, m is a bracket walk from 0, +1 for a one and -1 for a
    zero; phi clears the one where the walk first reaches its maximum M,
    and phi(phi(m)) also the one where it first reaches M - 1.  The tables
    double one top bit at a time, tracking each label's gap, M minus where
    its walk ends: a new top bit 0 widens the gap; a new top bit 1 narrows
    it, or at gap 0 moves the first entry to the new bit and the second
    to the old first.  Zeros above the top one only lower the walk, so an
    entry does not depend on n."""
    first = second = gap = b"\0"
    for bit in range(1, n + 1):
        size = len(gap)
        top, new, old, older = (int.from_bytes(t, "little") for t in
                                (gap.translate(_AT_TOP), bytes([bit]) * size, first, second))
        first += (old & ~top | new & top).to_bytes(size, "little")
        second += (older & ~top | old & top).to_bytes(size, "little")
        gap = gap.translate(_PLUS1) + gap.translate(_MINUS1)
    return first, second


def revolving_door(m: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..m} in revolving-door order: cyclically
    consecutive subsets exchange exactly one element."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    # Bottom-up over i = 1..m: the order of the j-subsets of {1..i} is
    # that of {1..i-1}, then the (j-1)-subsets of {1..i-1} reversed, each
    # with i added.  rows[j] grows in place, largest j first so that
    # rows[j - 1] still holds step i - 1; only the j that can still reach
    # k are updated.
    rows = [[()]] + [[] for _ in range(k)]
    for i in range(1, m + 1):
        for j in range(min(k, i), max(1, k - (m - i)) - 1, -1):
            if j == i:
                rows[j] = [tuple(range(1, i + 1))]
            else:
                rows[j] += [c + (i,) for c in reversed(rows[j - 1])]
    return rows[k]


# ------------------------------------------------------- subcube primitives

@lru_cache(maxsize=None)
def _offsets(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Global bits of every relative mask over `dims`: entry rel sets bit
    dims[i] exactly when rel sets bit i."""
    table = [0]
    for dim in dims:
        table += [x | (1 << dim) for x in table]
    return tuple(table)


_CHUNK = 128    # fragments per `_emit` chunk; bounds its temporaries


@lru_cache(maxsize=None)
def _lanes(dims: tuple[int, ...], template: tuple[int, ...]) -> tuple[bytes, bytes]:
    """`template` as native-order lanes of PLAN_TYPECODE, one per entry:
    the offsets over `dims` (0 at the target), and a mask that keeps every
    lane but the target's."""
    offs = _offsets(dims)
    pack = lambda xs: array(PLAN_TYPECODE, xs).tobytes()
    return (pack(offs[x % len(offs)] if x >= 0 else 0 for x in template),
            pack(-1 if x >= 0 else 0 for x in template))


def _emit(out: array, columns: Sequence[Sequence[int]], dims: Sequence[int],
          templates: Mapping[int, Sequence[int]], picks: bytes) -> array:
    """Append a batch of fragments to `out` and return it: fragment f
    follows templates[picks[f]], where index i * 2^k + rel is the vertex
    at relative mask rel of the subcube at columns[i][f], and -1 is the
    target.  The templates of a batch have equal length and give each
    entry that is not the target to the same subcube.  Bases must leave
    the `dims` bits clear (so base | offset == base + offset) and every
    vertex must stay below 2^31 (d <= 20 keeps it below 2^20), so no lane
    carries over.  A run of chunks with equal picks shares one pair of
    joined keep and offset ints; only the last pair is kept."""
    if not picks:
        return out
    dims = tuple(dims)
    offsets, keeps = ({p: _lanes(dims, tuple(t))[half] for p, t in templates.items()}
                      for half in (0, 1))
    entries = list(zip(*templates.values(), strict=True))
    width = len(entries)
    owners = [(j, max(e) >> len(dims)) for j, e in enumerate(entries) if max(e) >= 0]
    order = sys.byteorder
    last = None
    for lo in range(0, len(picks), _CHUNK):
        part = picks[lo:lo + _CHUNK]
        if part != last:
            last = part
            keep = int.from_bytes(b"".join(map(keeps.__getitem__, part)), order)
            offset = int.from_bytes(b"".join(map(offsets.__getitem__, part)), order)
        bases = [array(PLAN_TYPECODE, col[lo:lo + _CHUNK]) for col in columns]
        block = array(PLAN_TYPECODE, bytes(out.itemsize * width * len(part)))
        for j, i in owners:
            block[j::width] = bases[i]
        x = int.from_bytes(block, order) & keep | offset
        out.frombytes(x.to_bytes(out.itemsize * len(block), order))
    return out


@lru_cache(maxsize=None)
def _standalone(k: int) -> tuple[int, ...]:
    """Full plan for an all-ones Q^k onto its zero vertex."""
    return tuple(0 if x == -1 else x for x in _solve(k, 0))


@lru_cache(maxsize=None)
def _solve(k: int, l: int) -> tuple[int, ...]:
    """Template sending every cup of an all-ones level-l k-cube to the
    global zero: low levels split along the first free dimension, high
    levels pile everything on a vertex whose weight is the subcube size
    (by translating the standalone full-cube plan) and jump."""
    top = 1 << k
    if k == 0:
        if l == 0:
            return ()
        if l == 1:
            return (0, -1)
        raise CubeError(f"lone vertex of weight {l} cannot reach the target")
    if l < top - k:
        # The halves span dims[1:]; their relative masks shift up one bit,
        # and the upper half sets the split dimension.
        return (tuple(x if x < 0 else x << 1 for x in _solve(k - 1, l)) +
                tuple(x if x < 0 else x << 1 | 1 for x in _solve(k - 1, l + 1)))
    if l <= top:
        t = (1 << (top - l)) - 1
        return tuple(x ^ t for x in _standalone(k)) + (t, -1)
    raise CubeError(f"level-{l} {k}-cube is not directly stackable")


# ------------------------------------------------------------ gadget library

LEVEL3_4CUBE_GADGET: tuple[tuple[int, int], ...] = (
    # three spiders collecting 3, 6, and 7 cups (relative 4-bit masks;
    # -1 stands for the global target)
    (1, 0), (2, 0), (0, -1),
    (5, 4), (4, 7), (6, 7), (3, 11), (11, 7), (7, -1),
    (14, 12), (8, 10), (13, 9), (12, 15), (10, 15), (9, 15), (15, -1),
)
_LEVEL3_4CUBE_FLAT = tuple(x for mv in LEVEL3_4CUBE_GADGET for x in mv)


PAIR_GADGET: tuple[tuple[str, int, str, int], ...] = (
    # two level-4 3-cubes U, V with adjacent labels: V lends three cups
    # to U's weight-6 vertex, then both empty through weight-5 vertices
    ("v", 3, "v", 7), ("v", 5, "v", 7), ("v", 7, "u", 3),
    ("u", 7, "u", 6), ("u", 6, "u", 3), ("u", 3, "", -1),
    ("u", 5, "u", 1), ("u", 1, "u", 2), ("u", 0, "u", 4), ("u", 4, "u", 2),
    ("u", 2, "", -1),
    ("v", 6, "v", 4), ("v", 4, "v", 1), ("v", 0, "v", 2), ("v", 2, "v", 1),
    ("v", 1, "", -1),
)

TRIPLE_GADGET: tuple[tuple[str, int, str, int], ...] = (
    # three consecutive labels U, V, W: the outer cubes each pass two cups
    # to V's top vertex, which exits with seven
    ("u", 3, "u", 7), ("u", 7, "v", 7), ("w", 3, "w", 7), ("w", 7, "v", 7),
    ("v", 3, "v", 7), ("v", 6, "v", 7), ("v", 7, "", -1),
    ("u", 1, "u", 0), ("u", 0, "u", 5), ("u", 2, "u", 6), ("u", 6, "u", 5),
    ("u", 4, "u", 5), ("u", 5, "", -1),
    ("w", 1, "w", 0), ("w", 0, "w", 5), ("w", 2, "w", 6), ("w", 6, "w", 5),
    ("w", 4, "w", 5), ("w", 5, "", -1),
    ("v", 5, "v", 4), ("v", 4, "v", 1), ("v", 0, "v", 2), ("v", 2, "v", 1),
    ("v", 1, "", -1),
)


def _compile_gadget(template) -> tuple[int, ...]:
    """Template indices of a gadget over the 3-cubes u, v, w in order."""
    index = lambda c, rel: -1 if rel < 0 else 8 * "uvw".index(c) + rel
    return tuple(x for cu, ru, cv, rv in template
                 for x in (index(cu, ru), index(cv, rv)))


_PAIR_FLAT = _compile_gadget(PAIR_GADGET)
_TRIPLE_FLAT = _compile_gadget(TRIPLE_GADGET)


def _level4_batches(d: int) -> list[tuple]:
    """`_emit` batches of every level-4 3-cube of the standard split: the
    labels are paired along a revolving-door cycle, with one triple when
    the count is odd.  It needs d >= 8, as `_split` ensures."""
    dims = (d - 3, d - 2, d - 1)
    cycle = array(PLAN_TYPECODE, (sum(1 << (e - 1) for e in c)
                                  for c in revolving_door(d - 3, 4)))
    odd = 3 if len(cycle) % 2 else 0
    triple, us, vs = cycle[:odd], cycle[odd::2], cycle[odd + 1::2]
    for u, v in chain(zip(triple, triple[1:]), zip(us, vs)):
        if (u ^ v).bit_count() != 2:
            raise CubeError(f"revolving-door labels {u} and {v} are not adjacent")
    return [("level4-3cubes", tuple(triple[i:i + 1] for i in range(odd)), dims,
             {0: _TRIPLE_FLAT}, bytes(odd // 3)),
            ("level4-3cubes", (us, vs), dims, {0: _PAIR_FLAT}, bytes(len(us)))]


# Chain-triple gadgets at levels 9 to 12.  A gather is the flat moves,
# over relative 3-cube masks, that pile a cube's cups on one vertex; each
# was found by exhaustive search on Q^3, which tests/test_cube.py repeats.

# Level 9, (t1, t2, ga, gb, gc): one cup hops from B's t1 to A's t1 and
# one from C's t2 to B's t2, then ga, gb and gc gather A, B and C onto
# their bottom vertex.
_ABC9 = (3, 1,
         (1, 0, 2, 0, 3, 0, 4, 0, 5, 7, 6, 7, 7, 0),
         (1, 7, 2, 6, 4, 5, 5, 0, 6, 0, 7, 0),
         (2, 0, 3, 7, 4, 5, 5, 0, 6, 7, 7, 0))

# Levels 10 to 12, level -> (t, (x, fx, y, fy1, fy2, z, fz), gather): A and
# C each gather their eight cups on the exit vertex t = 2^(13 - l) - 1,
# and B feeds fx to x and fy1, fy2 to y, whose piles of 2 and 3 (x is one
# hop from t, y two) land on A's t; then B's t and z, fed by fz, land on
# C's t with piles of 1 and 2.
_STEAL5 = {
    10: (7, (3, 1, 2, 0, 6, 5, 4),
         (0, 1, 1, 7, 3, 2, 2, 7, 5, 4, 4, 7, 6, 7)),
    11: (3, (1, 0, 5, 4, 7, 2, 6),
         (0, 1, 1, 4, 2, 6, 4, 3, 6, 3, 7, 5, 5, 3)),
    12: (1, (0, 2, 4, 5, 6, 3, 7),
         (0, 1, 2, 6, 3, 1, 4, 6, 5, 7, 6, 1, 7, 1)),
}


@lru_cache(maxsize=None)
def _abc_flat(l: int) -> tuple[int, ...]:
    """Template of the level-l chain triple over the 3-cubes A, B, C."""
    A, B, C = 0, 8, 16
    shift = lambda gather, cube: tuple(x + cube for x in gather)
    if l == 9:
        t1, t2, ga, gb, gc = _ABC9
        return ((B + t1, A + t1) + shift(ga, A) + (A, -1)     # 9 cups, weight 9
                + (C + t2, B + t2) + shift(gb, B) + (B, -1)   # 8 cups, weight 8
                + shift(gc, C) + (C, -1))                     # 7 cups, weight 7
    t, (x, fx, y, fy1, fy2, z, fz), gather = _STEAL5[l]
    return (shift(gather, A)                                  # A's 8 cups on a_t
            + (B + fx, B + x, B + x, A + t,
               B + fy1, B + y, B + fy2, B + y, B + y, A + t)
            + (A + t, -1)                                     # 13 cups, weight 13
            + shift(gather, C)                                # C's 8 cups on c_t
            + (B + t, C + t, B + fz, B + z, B + z, C + t)
            + (C + t, -1))                                    # 11 cups, weight 11


# ------------------------------------------------------------- full assembly

class CubePlanResult(NamedTuple):
    d: int
    plan: Plan
    # Every plan is complete: `complete` is always True and `unassigned`
    # always ().  The benchmark still reads both; they go with its next
    # change (ROADMAP items 8 and 14).
    complete: bool
    unassigned: tuple[int, ...]
    phase_moves: dict


# Level -> flag or pool code tables for bytes.translate.  4-cubes of level
# 12 and up exit whole; the rest split into 3-cubes m and m | top, whose
# pool code is their level until they have moves, then _GONE.
_GONE = 255
_HIGH = bytes(12) + b"\1" * 244
_LOWER = bytes(range(12)) + bytes([_GONE]) * 244
_UPPER = bytes(range(1, 13)) + bytes([_GONE]) * 244
_BASE = b"\0\1\1\1\0\1\1\1\1" + bytes(247)      # levels 1-3 and 5-8


def _abc_loop(pool: bytearray, dims: tuple[int, ...]) -> list[tuple]:
    """`_emit` batches of chain triples from the pool, one per level from
    12 (the highest in the pool) down to 9, highest label first, marking
    the labels they take _GONE.  A level-9 label whose chain is only
    {level 8, level 9} (d = 20 has 4,862) borrows its third cube from
    `_borrow_level7`, in one more batch after the others."""
    first, second = _phi_tables(len(pool).bit_length() - 1)
    triples: list[tuple[int, array]] = []
    lonely = array(PLAN_TYPECODE)             # a, b of each such label in turn
    for level in range(12, 8, -1):
        abc = array(PLAN_TYPECODE)            # a, b, c of each triple in turn
        a = len(pool)
        while (a := pool.rfind(level, 0, a)) >= 0:
            pool[a] = _GONE
            b = a ^ 1 << first[a] - 1
            if not second[a]:
                lonely.extend((a, b))
                continue
            c = b ^ 1 << second[a] - 1
            if pool[b] != level - 1 or pool[c] != level - 2:
                raise AssertionError("chain neighbors missing from the pool")
            pool[b] = pool[c] = _GONE
            abc.extend((a, b, c))
        triples.append((level, abc))
    if lonely:
        triples.append((9, _borrow_level7(pool, lonely)))
    return [("chain-triples", (abc[::3], abc[1::3], abc[2::3]), dims,
             {0: _abc_flat(level)}, bytes(len(abc) // 3)) for level, abc in triples]


def _borrow_level7(pool: bytearray, lonely: array) -> array:
    """a, b, c of each triple in turn for the level-9 labels a whose chain
    ends at b = phi(a), given as a, b in turn, marking b and c _GONE: c
    is a level-7 neighbour of b (b less one bit) still in the pool, one
    per b.  Each b in turn takes the end of a shortest augmenting path
    (Kuhn), found breadth-first: its first free neighbour when it has
    one, else a taken c whose b moves on to another c, and so on.  The
    matching lives in int arrays, not in boxed ints, which would stay on
    the heap that a plan of a million moves then grows from."""
    bs = lonely[1::2]
    bits = [1 << i for i in range(len(pool).bit_length() - 1)]
    owner = array(PLAN_TYPECODE, (-1,)) * len(pool)   # index of the b each c serves
    mate = array(PLAN_TYPECODE, (-1,)) * len(bs)      # c of each b
    for i in range(len(bs)):
        if pool[bs[i]] != 8:
            raise AssertionError("chain bottom missing from the pool")
        came, queue, end = {}, [i], -1                # came[c]: the b that reached c
        for j in queue:
            b = bs[j]
            for bit in bits:
                c = b ^ bit
                if b & bit and pool[c] == 7 and c not in came:
                    came[c] = j
                    if owner[c] < 0:
                        end = c
                        break
                    queue.append(owner[c])
            if end >= 0:
                break
        if end < 0:
            raise CubeError(f"no level-7 cube left for level-9 label {lonely[2 * i]}")
        while end >= 0:                       # shift each c on the path to its new b
            j = came[end]
            owner[end], mate[j], end = j, end, mate[j]
    abc = array(PLAN_TYPECODE)
    for a, b, c in zip(lonely[::2], bs, mate):
        pool[b] = pool[c] = _GONE
        abc.extend((a, b, c))
    return abc


@lru_cache(maxsize=None)
def _split(d: int) -> tuple[tuple, ...]:
    """Everything of plan_cube(d) that depends on d alone: its `_emit`
    batches in order, each (phase, label columns, dims, templates,
    picks).  Nothing mutates them.  Batches without fragments are left
    out; the direct batch of d = 0 has one fragment of no moves, so its
    phase reads 0."""
    one = lambda label: (array(PLAN_TYPECODE, (label,)),)
    if d <= 6:
        return (("direct", one(0), tuple(range(d)), {0: _solve(d, 0)}, b"\0"),)
    if d == 7:
        return tuple(("low-4cubes", one(m), (3, 4, 5, 6), {0: _solve(4, m.bit_count())}, b"\0")
                     if m.bit_count() <= 2 else
                     ("level3-4cube", one(m), (3, 4, 5, 6), {0: _LEVEL3_4CUBE_FLAT}, b"\0")
                     for m in range(8))
    # levels[m] is the level of 4-cube m, built by doubling: labels
    # 2^j..2^(j+1)-1 are those below 2^j with bit j set.  Chain triples
    # start at d = 12, the first d with a level-9 3-cube.
    dims4 = (d - 4, d - 3, d - 2, d - 1)
    dims3 = dims4[1:]
    levels = b"\0"
    for _ in range(d - 4):
        levels += levels.translate(_PLUS1)
    high = levels.translate(_HIGH)
    batches = [("high-4cubes", (array(PLAN_TYPECODE, compress(range(len(levels)), high)),),
                dims4, {l: _solve(4, l) for l in range(12, 17)}, bytes(compress(levels, high)))]
    pool = bytearray(levels.translate(_LOWER) + levels.translate(_UPPER))
    batches += _abc_loop(pool, dims3) + _level4_batches(d)
    # Label 0 first (its template is shorter), then the rest but level 4,
    # which the gadgets cover.
    base = pool.translate(_BASE)
    batches += [
        ("base-3cubes", one(0), dims3, {0: _solve(3, 0)}, b"\0"),
        ("base-3cubes", (array(PLAN_TYPECODE, compress(range(len(pool)), base)),), dims3,
         {l: _solve(3, l) for l in (1, 2, 3, 5, 6, 7, 8)}, bytes(compress(pool, base)))]
    return tuple(batch for batch in batches if batch[-1])


def plan_cube(d: int) -> CubePlanResult:
    """Plan stacking the all-ones Q^d onto the zero vertex, written into
    one flat move array: complete, 2^d - 1 moves, for every 0 <= d <= 20.
    The split (`_split`) is built once per d; every call runs its batches
    into a fresh array and counts their moves per phase into a fresh
    dict."""
    if not 0 <= d <= 20:
        raise CubeError("plans are only constructed for 0 <= d <= 20")
    out = array(PLAN_TYPECODE)
    phases: dict[str, int] = {}
    for name, *batch in _split(d):
        start = len(out)
        _emit(out, *batch)
        phases[name] = phases.get(name, 0) + (len(out) - start) // 2
    return CubePlanResult(d, Plan(1 << d, 0, out), True, (), phases)
