"""Instance sources: exhaustive grids, seeded fuzzing, structured families,
and a no-lookahead greedy baseline for contrast.

The exhaustive enumerator is the workhorse of desk-scale certification: it
streams every instance over a small release/value grid exactly once (up to
packet relabeling), so a sweep over it is a finite proof surface.  Value
grids deliberately include rationals sitting close to the guard thresholds
(5/4, 8/5, 13/8 straddle the interesting ratios), which pushes the observed
worst case toward the bound much faster than round numbers do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice

from .model import Instance, Packet, Rat

__all__ = [
    "GridSpec",
    "enumerate_instances",
    "enumerate_bases",
    "count_instances",
    "count_bases",
    "RandomConfig",
    "gen_random",
    "greedy_baseline",
    "greedy_killer",
    "chain_family",
    "tight_family",
    "DEFAULT_VALUE_GRID",
]

#: Default value ladder; near-threshold rationals included on purpose.
DEFAULT_VALUE_GRID: tuple[Rat, ...] = (
    Fraction(1),
    Fraction(5, 4),
    Fraction(13, 8),
    Fraction(2),
    Fraction(3),
)


def _check_value_grid(grid: tuple[Rat, ...]) -> None:
    if not grid:
        raise ValueError("value grid must be non-empty")
    if any(v <= 0 for v in grid):
        raise ValueError("value grid must be positive")


@dataclass(frozen=True)
class GridSpec:
    """Exhaustive grid: releases in [0, horizon], deadline offsets {0, 1},
    values from value_grid, at most max_packets packets per instance."""

    horizon: int
    max_packets: int
    value_grid: tuple[Rat, ...]

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.max_packets < 0:
            raise ValueError("max_packets must be >= 0")
        _check_value_grid(self.value_grid)


def _universe(spec: GridSpec) -> list[tuple[int, int, Rat]]:
    """All packet shapes (release, deadline, value) in canonical order."""
    values = sorted(set(spec.value_grid))
    return [
        (r, r + off, v)
        for r in range(spec.horizon + 1)
        for off in (0, 1)
        for v in values
    ]


def enumerate_instances(spec: GridSpec, workers: int = 1, residue: int = 0):
    """Deterministic, duplicate-free stream of grid instances.

    Instances are multisets of packet shapes (ids are assigned in canonical
    order), so two inputs differing only by packet relabeling appear once.
    A zero packet budget yields just the empty instance; otherwise every
    instance carries between 1 and max_packets packets.

    With workers > 1 the stream keeps only the instances whose index is
    congruent to residue modulo workers; the others are skipped as shape
    tuples, before any Instance is built.
    """
    for shapes in islice(_shapes(spec), residue, None, workers):
        yield _from_shapes(shapes)


def enumerate_bases(spec: GridSpec, workers: int = 1, residue: int = 0):
    """(index, instance, translates, twins) for every irreducible base of
    the grid.

    A base has a packet released at 0 (the empty instance is its own base).
    Shifting a base whose largest release is M by s = 1 .. horizon - M steps
    gives its translates: together with the base they are exactly the grid
    instances of the same shape up to a shift.

    A packet is inert when model.rank_key ranks it after another loop
    (deadline = release) of its release, or after two edges (deadline =
    release + 1) of its release.  A base is irreducible when it holds
    none: at most one loop and two edges per release.  Its `twins` are the
    grid bases that drop to it once their inert packets go, itself
    included: with m = max_packets - |base| and E the number of values at
    most each release's loop, plus the number at most the lower edge of
    each release with two edges, a twin adds a multiset of at most m of
    those E inert shapes, so twins = C(E + m, m).  Dropping inert packets
    keeps the smallest and the largest release, so the irreducible bases,
    their twins and the twins' translates partition the grid.  A base has
    fewer packets than its other twins and sorts before its translates, so
    `index`, its position in the enumerate_instances stream, is the lowest
    of its class.

    With workers > 1 the stream keeps every workers-th irreducible base,
    starting at the residue-th; the others are skipped as position tuples,
    before any Instance is built.
    """
    universe = _universe(spec)
    k = spec.max_packets
    for index, positions, inert in islice(_irreducible(spec), residue, None, workers):
        shapes = [universe[x] for x in positions]
        translates = spec.horizon - shapes[-1][0] if shapes else 0
        yield index, _from_shapes(shapes), translates, math.comb(inert + k - len(shapes), inert)


def _irreducible(spec: GridSpec):
    """(index, positions, E) for every irreducible base in enumeration order:
    its universe positions, nondecreasing, and E, the number of inert shapes a
    twin may add (see enumerate_bases).

    A depth-first search in lexicographic order that never extends a
    prefix by a second loop or a third edge of one release.  The universe
    lists shape (release, deadline, j-th smallest value) at position
    (2 * release + deadline - release) * width + j - 1, so a position's slot
    class is position // width, a loop's class is even, and j counts the
    values at most the shape's value.  A prefix's index is summed as it
    grows: choosing x after lo at a point with `rem` positions still to
    fill skips the below[rem][x] - below[rem][lo] tuples that continue with
    a position in [lo, x).
    """
    if spec.max_packets == 0:
        yield 0, (), 0
        return
    u = len(_universe(spec))
    width = len(set(spec.value_grid))
    first = 2 * width  # a base's first shape is released at 0
    offset = 0
    for size in range(1, spec.max_packets + 1):
        # below[rem][x]: nondecreasing tuples of rem + 1 positions starting below x
        below = [[math.comb(u + r, r + 1) - math.comb(u - x + r, r + 1) for x in range(u + 1)] for r in range(size)]

        def grow(prefix, lo, index, inert, bound):
            rem = size - len(prefix) - 1
            row = below[rem]
            last = prefix[-1] // width if prefix else -1
            for x in range(lo, bound):
                cls = x // width
                if cls != last:
                    gain = 0 if cls & 1 else x % width + 1  # a loop's inert shapes
                elif cls & 1 and (len(prefix) < 2 or prefix[-2] // width != cls):
                    gain = prefix[-1] % width + 1  # the lower of two edges
                else:
                    continue
                if rem:
                    yield from grow(prefix + (x,), x, index + row[x] - row[lo], inert + gain, u)
                else:
                    yield index + row[x] - row[lo], prefix + (x,), inert + gain

        yield from grow((), 0, offset, 0, first)
        offset += math.comb(u + size - 1, size)


def _from_shapes(shapes) -> Instance:
    """An instance from (release, deadline, value) shapes; ids follow their order."""
    return Instance(Packet(id=i, release=r, deadline=d, value=v) for i, (r, d, v) in enumerate(shapes))


def _shapes(spec: GridSpec):
    """The grid's instances as tuples of packet shapes, in enumeration order."""
    if spec.max_packets == 0:
        yield ()
        return
    universe = _universe(spec)
    for size in range(1, spec.max_packets + 1):
        yield from combinations_with_replacement(universe, size)


def count_instances(spec: GridSpec) -> int:
    """Closed-form size of the enumerate_instances stream."""
    u = len(_universe(spec))
    if spec.max_packets == 0:
        return 1
    return sum(math.comb(u + k - 1, k) for k in range(1, spec.max_packets + 1))


def count_bases(spec: GridSpec) -> int:
    """Closed-form size of the enumerate_bases stream.

    With V distinct values, one release holds no loop or one of V, and no
    edge, one of V or one of the V(V+1)/2 pairs, so
    P(x) = (1 + Vx)(1 + Vx + V(V+1)/2 x^2) counts its irreducible contents
    by size.  Release 0 is non-empty and the other horizon releases are
    free, so the irreducible bases number the sum over j = 1 .. max_packets
    of [x^j] (P(x) - 1) P(x)^horizon.  The empty instance of a zero packet
    budget is its own base.
    """
    k = spec.max_packets
    if k == 0:
        return 1
    v = len(set(spec.value_grid))
    pairs = v * (v + 1) // 2
    p = [1, 2 * v, v * v + pairs, v * pairs]
    poly = [0] + p[1:]  # P - 1
    for _ in range(spec.horizon):
        poly = [sum(a * p[j - i] for i, a in enumerate(poly) if 0 <= j - i < 4) for j in range(k + 1)]
    return sum(poly[1 : k + 1])


#: Arrival trials per time step; each succeeds with probability rate / MAX_PER_STEP.
MAX_PER_STEP = 3


@dataclass(frozen=True)
class RandomConfig:
    """Knobs for the seeded fuzzer."""

    horizon: int = 6
    arrival_rate: float = 1.2  # expected packets per time step
    value_grid: tuple[Rat, ...] = DEFAULT_VALUE_GRID

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not 0 <= self.arrival_rate <= MAX_PER_STEP:
            raise ValueError(f"arrival_rate must lie in [0, {MAX_PER_STEP}]")
        _check_value_grid(self.value_grid)


def gen_random(seed: int, config: RandomConfig = RandomConfig()) -> Instance:
    """Reproducible random instance: same seed, same instance."""
    rng = random.Random(seed)
    prob = config.arrival_rate / MAX_PER_STEP
    packets: list[Packet] = []
    for t in range(config.horizon + 1):
        for _ in range(MAX_PER_STEP):
            if rng.random() < prob:
                offset = rng.choice((0, 1))
                value = rng.choice(config.value_grid)
                packets.append(Packet(id=len(packets), release=t, deadline=t + offset, value=value))
    return Instance(packets)


def greedy_baseline(inst: Instance) -> dict[int, int]:
    """No-lookahead contrast algorithm: at each step transmit the pending
    packet of maximum value (ties: deadline ascending, then id).  The tie
    rule is deliberately its own, not model.rank_key: this is a contrast
    baseline, not an optimum."""
    arrivals = inst.arrivals
    pending: dict[int, Packet] = {}
    slots: dict[int, int] = {}
    for t in range(0, inst.horizon + 1):
        for p in arrivals.get(t, ()):
            pending[p.id] = p
        if pending:
            best = min(pending.values(), key=lambda p: (-p.value, p.deadline, p.id))
            slots[t] = best.id
            del pending[best.id]
        pending = {pid: p for pid, p in pending.items() if p.deadline > t}
    return slots


def greedy_killer() -> Instance:
    """Two packets that trick the greedy baseline into nearly halving its
    profit while a lookahead policy (and the optimum) collects both."""
    return Instance(
        (
            Packet(id=0, release=0, deadline=0, value=Fraction(1)),
            Packet(id=1, release=0, deadline=1, value=Fraction(101, 100)),
        )
    )


def chain_family(variant: str) -> Instance:
    """Hand-built instances that force the deep case chains.

    Reaching the family-2/3 cases needs an escalating ladder of arrivals
    (each new marginal packet large enough to beat the guard ratio), which
    random fuzzing hits only rarely; these fixed instances pin each branch.

    Variants: "2.1", "2.2.1", "2.2.2.1", "2.2.2.2", "2.2.2.3+3.1",
    "3.2.1", "3.2.2", "3.2.3".
    """
    F = Fraction
    # Shared prologue: q1(0,0), m0(0,1), m1(1,2) drive 1.2.3.4 at t=0.
    base = [
        (0, 0, F(1)),       # banked at t=0 by 1.2.3.4
        (0, 1, F(8, 5)),    # best pending at t=0
        (1, 2, F(13, 8)),   # marginal packet seen through lookahead
    ]
    if variant == "2.1":
        extra = []  # no big follow-up: family 2 settles immediately
    elif variant == "2.2.1":
        extra = [(2, 2, F(3))]  # huge one-shot arrival at t=2
    elif variant == "2.2.2.1":
        extra = [(2, 3, F(3)), (2, 3, F(2))]  # second t=2 arrival changes the slot-gain packet
    elif variant == "2.2.2.2":
        extra = [(2, 3, F(7, 2))]
    elif variant == "2.2.2.3+3.1":
        extra = [(2, 3, F(3))]
    elif variant == "3.2.1":
        extra = [(2, 3, F(3)), (3, 3, F(9))]
    elif variant == "3.2.2":
        extra = [(2, 3, F(3)), (3, 4, F(9)), (3, 3, F(2))]
    elif variant == "3.2.3":
        extra = [(2, 3, F(3)), (3, 4, F(9))]
    else:
        raise ValueError(f"unknown chain variant {variant!r}")
    return _from_shapes(base + extra)


def tight_family(n: int) -> Instance:
    """Three packets whose opt/policy ratio approaches R = (1+sqrt17)/4 from
    below as n grows.

    With p/q the n-th lower convergent of sqrt17 = [4; 8, 8, ...] (n = 0, 1,
    2, ... gives 4/1, 268/65, 17684/4289, ...), the packets are (release,
    deadline, value) = (0, 1, 1), (1, 2, 2) and (0, 1, c) with
    c = 3(p/q - 3)/4.  Case 1.2.3.3 fires at t=0, the policy earns 3 and the
    optimum 3 + c, so the ratio is (1 + p/q)/4 < R.  Only integer convergents
    are used; the ratio is exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p, q, p_prev, q_prev = 4, 1, 1, 0
    for _ in range(2 * n):  # convergents alternate below and above sqrt17
        p, q, p_prev, q_prev = 8 * p + p_prev, 8 * q + q_prev, p, q
    c = Fraction(3 * (p - 3 * q), 4 * q)
    return _from_shapes(((0, 1, Fraction(1)), (1, 2, Fraction(2)), (0, 1, c)))
