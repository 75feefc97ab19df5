"""Offline optima: the full clairvoyant optimum, the partial-optimum greedy
and the per-run query engine.

A partial query P(t, t', t''), t <= t' <= t'', asks "seeded with the carry
of time t, fed the arrivals of [t, t'], transmitting only in slots [t, t''],
what is the best packet set?".  The carry is the best packet of B(t), or
none, stands for all of B(t) and is derived from the run's steps (see
:meth:`QueryEngine.carry`).  Feasible packet sets form a transversal matroid
(packets matchable into distinct slots of their availability windows), so a
greedy sweep in one fixed canonical order, accepting a packet whenever the
kept set stays matchable, is optimal.  That order is
:func:`~bdsched.model.rank_key` -- value descending, deadline ascending,
release ascending, id ascending -- and it also pins down every tie, which
makes the nesting relations between neighbouring queries and the
uniqueness of their set differences hold by construction rather than by
luck.

Every instance is 2-bounded, so each clipped window is one slot or two
adjacent slots and the matroid is bicircular on the slot line: a set fits
iff no connected component of slots holds more packets than slots.  Each
component of a kept set is a run of adjacent slots with at most one free
slot, so over a few slots the greedy walks a slot automaton whose states
are those component lists, one table lookup per packet.  The policy's
lookahead is one step, and every window a selector, a lemma bound or an
inclusion check asks at base t is one of the nine of :data:`ROW`:
(t, t+k, t+k) for k = 0..4 and (t, t+k, t+k+1) for k = 0..3.  They are
solved together, as the lanes of base t's row, by one walk of the product
of the nine lanes' automata over base t's candidates, the carry and
buckets t .. t+4; each lane steps only its own automaton from its own
start, so it still runs its own greedy, and no answer is derived from
another.  Any other window, as the optimum's, sweeps a union-find over
slots.  The window's shape alone picks which, in :meth:`QueryEngine.p`.
A fitting set never holds more packets than [t, t''] has slots, so a
lane, and the sweep, take nothing once the kept set fills them all, and
the row's walk stops once every lane is full.

:class:`QueryEngine` is the only front end through which the policy, every
checker and :func:`opt_full` ask partial queries over a run.  It reads the
run's step list, derives each carry from it, memoizes each base row on t
and every other answer on (t, t', t'') -- sound because an engine is bound
to one run -- and derives from the rows the selectors m_i(t) and q_i(t),
whose windows :func:`selector_windows` alone writes down.
:func:`opt_full` is the answer P(0, h, h) laid out in slots,
earliest-deadline-first, with a heap.

Answers are exact and integer: a lane of a row, like a :class:`PSet` from
the sweep, is a pair of integers, a bitmask over the ranks of the engine's
rank index and its total as a weight at the instance's
:attr:`~bdsched.model.Instance.scale`, so the selectors and the nesting
checks compare one engine's answers with integer and bit operations.
Member ids and the rational total are decoded only when they are read: by
a report, by the oracle cross-check or by a test.

:class:`DPOracle` is the independent oracle that campaigns run: a
max-weight dynamic program along the slot path, sharing no code path with
either solver; only the specification, ``rank_key``, is common to them.
A run builds one: its own scan, scale and sort of the packets happen once,
into release buckets of its own, and each window it answers reads only
the buckets and the seed the window needs.  It is seeded with the whole
pending set B(t), not the carry, so it checks the reduction to the carry
on every query it answers, the optimum's window (0, h, h) included.
:func:`dp_partial` asks a fresh oracle one window.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from heapq import heappop, heappush
from typing import Collection, Sequence

from . import model
from .model import Instance, Packet, Rat

__all__ = [
    "PSet",
    "QueryEngine",
    "InternalInvariantError",
    "selector_windows",
    "DPOracle",
    "dp_partial",
    "opt_full",
]


class InternalInvariantError(RuntimeError):
    """A run reached a configuration its invariants forbid, e.g. a marginal
    packet set with two or more members."""


def _out_of_order(t: int, arrival_end: int, slot_end: int) -> ValueError:
    return ValueError(f"query out of order: t={t}, t'={arrival_end}, t''={slot_end}")


def _decode(mask: int, ids: Sequence[int]) -> tuple[int, ...]:
    """The ids of the ranks set in `mask`, in ascending rank: canonical order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(ids[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


class PSet:
    """Result of a partial-optimum query.

    mask:       bit r set iff the packet of rank r in `ids` is a member
    weight:     exact sum of member values times scale
    scale:      the weight's denominator; the solver's answers use the
                instance's scale, so one engine's weights compare directly
    ids:        the rank -> id table that `mask` indexes, in canonical order
    members:    kept packet ids in canonical order, decoded from the mask on
                first read
    member_set: members as a frozenset

    The query engine's masks index the ranks of its run's rank index (its
    ``ids``), so two answers of one engine nest iff their masks do; a
    :class:`DPOracle`'s index the ranks of its own sort, a table equal to
    the engine's when both ranked under one rule.  Equality compares the
    masks where both rank tables are equal and the members, in canonical
    order, where they differ, and the totals as rationals; hashing reads
    the members and the rational total.  So answers of either source, at
    any scale, compare by value.  A plain slotted class, not a
    frozen dataclass, because the engine builds one per read of a row's
    lane and per swept window; the swept ones are shared through the
    engine's cache and never modified.
    """

    __slots__ = ("mask", "weight", "scale", "ids", "_members")

    def __init__(self, mask: int, weight: int, scale: int, ids: Sequence[int]):
        self.mask = mask
        self.weight = weight
        self.scale = scale
        self.ids = ids
        self._members = None

    @property
    def members(self) -> tuple[int, ...]:
        members = self._members
        if members is None:
            members = self._members = _decode(self.mask, self.ids)
        return members

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @property
    def total_value(self) -> Rat:
        """The exact sum of member values, weight / scale."""
        return Fraction(self.weight, self.scale)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PSet):
            return NotImplemented
        ids, other_ids = self.ids, other.ids
        if ids is other_ids or ids == other_ids:
            same = self.mask == other.mask
        else:  # masks over different rank tables: compare the members
            same = self.members == other.members
        return same and self.weight * other.scale == other.weight * self.scale

    def __hash__(self) -> int:
        return hash((self.members, self.total_value))

    def __repr__(self) -> str:
        return f"PSet(members={self.members!r}, weight={self.weight!r}, scale={self.scale!r})"


def _edf_assignment(kept: Sequence[Packet], slot_end: int) -> dict[int, int]:
    """Assign kept packets to slots [0, slot_end]: sweep slots in time
    order, at each slot transmit the available packet with the earliest
    deadline (ties by id).

    The packets enter a heap keyed on (deadline, id) at the first slot of
    their window, and a packet still in the heap after its deadline is
    dropped, so the sweep takes O(n log n + T) for n packets and T slots.
    Availability windows are contiguous, so this realizes an assignment
    whenever one exists; otherwise it raises AssertionError naming every
    packet left unassigned.
    """
    arriving = sorted([(p.release, p.deadline, p.id) for p in kept], reverse=True)
    ready: list[tuple[int, int]] = []  # (deadline, id) of the packets whose window has opened
    missed: list[int] = []
    out: dict[int, int] = {}
    for s in range(slot_end + 1):
        while arriving and arriving[-1][0] <= s:
            _, deadline, pid = arriving.pop()
            heappush(ready, (deadline, pid))
        while ready and ready[0][0] < s:
            missed.append(heappop(ready)[1])
        if ready:
            out[s] = heappop(ready)[1]
    missed += [pid for _, pid in ready] + [pid for _, _, pid in arriving]
    if missed:
        raise AssertionError(f"earliest-deadline assignment failed for {sorted(missed)}")
    return out


#: The nine windows of base t that the policy and the checks ask, as
#: (t' - t, t'' - t): the diagonal P(t, t+k, t+k) for k = 0..4 and the
#: one-slot widenings P(t, t+k, t+k+1) for k = 0..3.  Lane j of a base
#: row answers window ROW[j].
ROW = tuple([(k, k) for k in range(5)] + [(k, k + 1) for k in range(4)])

#: (t' - t, t'' - t) -> its lane in the row.
_LANE = {offsets: lane for lane, offsets in enumerate(ROW)}

#: Arrivals of base t that some lane reads: buckets t .. t + REACH.
REACH = max(a for a, _ in ROW)


def _step(state: tuple, col: int, width: int) -> tuple | None:
    """The component state after the greedy meets a window of column `col`
    over `width` slots, or None if it rejects it.  A state is the
    left-to-right tuple of (slots, free) components of the slot line; a
    window that reaches past the last slot is clipped to it."""
    slot = col >> 1
    end = 0
    for n, (size, free) in enumerate(state):
        end += size
        if slot < end:
            break
    if col & 1 and slot + 1 == end < width:  # an edge joining component n to n + 1
        size2, free2 = state[n + 1]
        if not (free or free2):
            return None
        return (*state[:n], (size + size2, free + free2 - 1), *state[n + 2:])
    if not free:  # a loop, or an edge inside component n
        return None
    return (*state[:n], (size, free - 1), *state[n + 1:])


@functools.cache
def _automaton(width: int) -> tuple[list[tuple], list[int]]:
    """The greedy's slot automaton over `width` slots: (states, table).

    Every component of a kept set is a run of adjacent slots with at most
    one free slot, so a state is a tuple of (slots, free) pairs.  states[0]
    is the absorbing state that every all-full state collapses into and
    states[1] the start, every slot its own free component.  The table is
    flat: a state's row starts at its index times 2 * width, the entry in
    column c is the next state's row start, or -1 where the window is
    rejected; the absorbing state's row is all -1 and is never read, since
    a full lane takes nothing more."""
    cols = 2 * width
    states: list[tuple] = [(), ((1, 1),) * width]
    index = {states[1]: 1}
    table = [-1] * cols
    for state in itertools.islice(states, 1, None):  # states grows as the walk finds new ones
        for col in range(cols):
            nxt = _step(state, col, width)
            if nxt is None:
                table.append(-1)
            elif not any(free for _, free in nxt):
                table.append(0)
            else:
                n = index.get(nxt)
                if n is None:
                    n = index[nxt] = len(states)
                    states.append(nxt)
                table.append(n * cols)
    return states, table


@functools.cache
def _row_automaton() -> tuple[list[int], list[tuple[int, ...] | None]]:
    """The product of the nine lanes' slot automata: (table, lanes).

    A product state is the tuple of the lanes' row starts in their own
    :func:`_automaton` tables, 0 for a full lane.  Lane j = (a, e) reads
    column c only if its window is released by t + a (c // 2 <= a), and
    then steps its own automaton of e + 1 slots from its own state: no
    lane reads another's.  Product state 0 is the one where every lane is
    full and 1 the start.  The table is flat, 2 * (REACH + 1) columns per
    state; an entry is the next state's row start shifted left by
    len(ROW), or'ed with the accept code, bit j set iff lane j keeps the
    window, and lanes[code] lists those lanes.  With code 0 the state does
    not change.  Built on first use, once per process."""
    cols = 2 * (REACH + 1)
    shift = len(ROW)
    tables = [(a, _automaton(e + 1)[1]) for a, e in ROW]  # (t' - t, the lane's own table)
    full = (0,) * shift
    start = tuple([2 * (e + 1) for _, e in ROW])
    states = [full, start]
    index = {full: 0, start: 1}
    lanes: list[tuple[int, ...] | None] = [None] * (1 << shift)
    table = [0] * cols  # the full state's row, never read
    for state in itertools.islice(states, 1, None):  # states grows as the walk finds new ones
        for col in range(cols):
            nxt = list(state)
            code = 0
            for lane, (a, lane_table) in enumerate(tables):
                if state[lane] and col >> 1 <= a:
                    moved = lane_table[state[lane] + col]
                    if moved >= 0:
                        nxt[lane] = moved
                        code |= 1 << lane
            nxt = tuple(nxt)
            n = index.get(nxt)
            if n is None:
                n = index[nxt] = len(states)
                states.append(nxt)
            if lanes[code] is None:
                lanes[code] = tuple([lane for lane in range(shift) if code >> lane & 1])
            table.append(n * cols << shift | code)
    return table, lanes


def _row(cands: Sequence[tuple]) -> tuple[list[int], list[int]]:
    """The nine answers of one base time t, (masks, weights), lane j the
    canonical partial optimum of window ROW[j] as a mask over the ranks and
    its weight, from `cands`, the candidates (rank, column, weight) of base
    t sorted by rank.  One walk of the product automaton: each candidate is
    one table lookup, whose code names the lanes that keep it, and the walk
    stops once every lane is full.  Each lane runs its own greedy from its
    own start, so no answer is derived from another."""
    table, lanes = _row_automaton()
    shift = len(ROW)
    low = (1 << shift) - 1
    masks, weights = [0] * shift, [0] * shift
    state = 2 * (REACH + 1)  # the start state's row
    for rank, col, weight in cands:
        move = table[state + col]
        code = move & low
        if code:
            bit = 1 << rank
            for lane in lanes[code]:
                masks[lane] |= bit
                weights[lane] += weight
            state = move >> shift
            if not state:  # every lane is full
                break
    return masks, weights


def _solve(scale: int, ids: Sequence[int], t: int, t_arr: int, t_end: int, cands: Sequence[tuple]) -> PSet:
    """The canonical partial optimum P(t, t_arr, t_end) of a window of any
    width over `cands`, the candidates (rank, column, weight) of base t
    sorted by rank, as a mask of the kept ranks over the rank table `ids`
    and their total as a weight at `scale`.  A sweep of a union-find over
    slot offsets from t that starts empty keeps each component's free slot
    count: a loop, or an edge inside one component, is accepted iff that
    component has a free slot; an edge joining two components iff they
    have one between them.  The sweep skips the candidates released after
    t_arr and stops once the kept set fills every slot."""
    parent: dict[int, int] = {}  # slot -> a slot nearer its component's root
    free: dict[int, int] = {}  # root -> free slots; an untouched slot is a root with one
    reach = t_arr - t
    last = t_end - t
    room = last + 1  # slots not yet filled
    mask = total = 0
    for rank, col, value in cands:
        a = lo = col >> 1
        if lo > reach:
            continue
        while a in parent:
            a = parent[a]
        fa = free.get(a, 1)
        if col & 1 and lo < last:  # an edge {lo, lo + 1}
            b = lo + 1
            while b in parent:
                b = parent[b]
            if b != a:
                fb = free.get(b, 1)
                if not (fa or fb):
                    continue
                parent[b] = a
                fa += fb
        if fa < 1:
            continue
        free[a] = fa - 1
        mask |= 1 << rank
        total += value
        room -= 1
        if not room:
            break
    return PSet(mask, total, scale, ids)


#: The slot tops (loop, edge, next edge) of a slot no packet starts at.
_NO_TOPS = (0, 0, 0)


class DPOracle:
    """Independent oracle over one instance: a maximum-weight dynamic
    program along the slots of each query window (t, t', t''), seeded with
    all of B(t).  A run builds one and asks it every window it checks.

    The constructor does the oracle's own scan of ``inst.packets``, once:
    integer values scaled by the LCM of the value denominators, a sort by
    :func:`~bdsched.model.rank_key` on those values, and integer weights
    value * scale * 2**n + 2**(n - 1 - rank) for the instance's n packets.
    The value dominates, and the low n bits, one per rank, break every tie
    toward the canonically earlier packet: the unique heaviest feasible set
    is the canonical one, and its weight spells out its members (the low
    bits) and its total (the high bits).  A packet's weight alone thus
    orders it against any other, as its rank does.  ``ids`` is the rank ->
    id table its answers' masks index.  Raises ValueError, naming the
    packet, if an id repeats or any packet, whatever the windows, is not
    2-bounded.

    The packets are indexed by release, in rank order, as the tops of their
    first slot: ``tops`` maps a release r to the weights of its heaviest
    loop (deadline r) and of its two heaviest edges (deadline r + 1), 0
    where there is none, and ``flats`` to the heaviest of them all, which
    is the only one a window ending at slot r can use.  ``entries`` maps an
    id to (release, deadline, weight), for the seed.  Packets with an empty
    window (deadline < release) get a rank and nothing else.
    """

    def __init__(self, inst: Instance):
        packets = inst.packets
        seen: set[int] = set()
        for p in packets:
            if p.id in seen:
                raise ValueError(f"packet id {p.id} is not unique")
            seen.add(p.id)
        # lists, not generator expressions: generators here raised the peak
        # resident memory of a 4,800-seed serial campaign by about 0.5 MB
        self.scale = scale = math.lcm(*[p.value.denominator for p in packets])
        ranked = sorted([(p, p.value.numerator * (scale // p.value.denominator)) for p in packets],
                        key=lambda pv: model.rank_key(*pv))
        self.n = n = len(ranked)
        self.ids = tuple([p.id for p, _ in ranked])
        tops: dict[int, list[int]] = {}
        entries: dict[int, tuple[int, int, int]] = {}
        for rank, (p, value) in enumerate(ranked):
            release, deadline = p.release, p.deadline
            if deadline - release > 1:
                raise ValueError(f"packet {p.id} is not 2-bounded: window [{release}, {deadline}]")
            if deadline < release:
                continue
            weight = (value << n) | (1 << (n - 1 - rank))
            entries[p.id] = (release, deadline, weight)
            top = tops.setdefault(release, [0, 0, 0])  # rank order: the first of a kind is its heaviest
            if deadline == release:
                if not top[0]:
                    top[0] = weight
            elif not top[1]:
                top[1] = weight
            elif not top[2]:
                top[2] = weight
        self.tops = {r: tuple(top) for r, top in tops.items()}
        self.flats = {r: (one if one > two else two, 0, 0) for r, (one, two, _) in self.tops.items()}
        self.entries = entries

    def partial(self, window: tuple[int, int, int], pending: Collection[int] = ()) -> PSet:
        """The canonical partial optimum of `window` (t, t', t''), seeded
        with the ids `pending` before the arrivals at t, all of B(t); an id
        no packet has adds nothing.  Raises ValueError unless
        t <= t' <= t''.

        A packet's window clipped to [t, t''] is one slot or two adjacent
        ones.  One pass over the slots keeps two best weights: with slot s
        free, and with slot s taken by a two-slot packet carried from
        s - 1.  At s a free slot takes the heaviest packet whose window
        starts at s, and the heaviest two-slot packet starting at s may be
        carried to s + 1 beside the heaviest other one.  The slots of
        release buckets t .. t' read their tops, the bucket at t'' its
        flat, and the seed's packets not released in [t, t'] join the tops
        of their first slot.  The answer is a mask over ``ids``."""
        t, t_arr, t_end = window
        if not t <= t_arr <= t_end:
            raise _out_of_order(t, t_arr, t_end)
        tops, flats = self.tops, self.flats
        seeded: dict[int, list[int]] = {}  # slot -> its tops with the seed's packets joined
        for pid in pending:
            entry = self.entries.get(pid)
            if entry is None:
                continue
            release, deadline, weight = entry
            if t <= release <= t_arr:  # in a bucket already
                continue
            lo = release if release > t else t
            hi = deadline if deadline < t_end else t_end
            if lo > hi:
                continue
            top = seeded.get(lo)
            if top is None:
                top = seeded[lo] = list((tops if lo < t_end else flats).get(lo, _NO_TOPS) if lo <= t_arr else _NO_TOPS)
            if lo == hi:
                if weight > top[0]:
                    top[0] = weight
            elif weight > top[1]:
                top[1], top[2] = weight, top[1]
            elif weight > top[2]:
                top[2] = weight
        # best weights with slot s free / taken by a packet carried from s - 1;
        # taken reads 0 when nothing is carried into s, which never beats free
        free = taken = 0
        for s in range(t, t_end + 1):
            top = seeded.get(s)
            if top is None:
                top = (tops if s < t_end else flats).get(s, _NO_TOPS) if s <= t_arr else _NO_TOPS
            one, two, two_next = top
            kept = free + (one if one > two else two)
            if two:
                carried = free + (one if one > two_next else two_next)
                carried = (carried if carried > taken else taken) + two
            else:
                carried = 0
            free = kept if kept > taken else taken
            taken = carried
        n = self.n
        low = free & ((1 << n) - 1)
        mask = 0
        while low:  # tie bit 2**(n - 1 - rank) -> mask bit 2**rank
            bit = low & -low
            mask |= 1 << (n - bit.bit_length())
            low ^= bit
        return PSet(mask, free >> n, self.scale, self.ids)


def dp_partial(window: tuple[int, int, int], inst: Instance, pending: Collection[int] = ()) -> PSet:
    """Independent oracle: :meth:`DPOracle.partial` of a fresh oracle of
    `inst`, the answer to the query `window` (t, t', t'') seeded with the
    ids `pending`, all of B(t).  A campaign builds one :class:`DPOracle` per
    run and asks it every window; this is the same dynamic program, for one
    window."""
    return DPOracle(inst).partial(window, pending)


def selector_windows(kind: str, t: int, i: int) -> tuple[tuple[int, int, int], tuple[int, int, int] | None]:
    """(wide, narrow): the windows (t, t', t'') whose difference is selector
    `kind` ("m" or "q") at base t.  m_i(t) widens both windows from t+i-1 to
    t+i, and m_0 is all of P(t, t, t); q_i(t) adds slot t+i+1 to P(t, t+i, t+i)."""
    end = t + i
    if kind == "m":
        return (t, end, end), ((t, end - 1, end - 1) if i else None)
    if kind == "q":
        return (t, end, end + 1), (t, end, end)
    raise ValueError(f"unknown selector kind {kind!r}")


def _lanes(kind: str, i: int) -> tuple[int, int | None] | None:
    """(wide, narrow): the row lanes of selector `kind`_i's two windows,
    narrow None for m_0, or None if a window is not in the row."""
    wide, narrow = selector_windows(kind, 0, i)
    lanes = (_LANE.get(wide[1:]), None if narrow is None else _LANE.get(narrow[1:]))
    return None if lanes[0] is None or (narrow is not None and lanes[1] is None) else lanes


#: (kind, i) -> the row lanes of selector kind_i, for every selector whose
#: windows lie in the row: m_0 .. m_4 and q_0 .. q_3.
_SELECTOR_LANES = {(kind, i): lanes for kind in "mq" for i in range(len(ROW))
                   if (lanes := _lanes(kind, i)) is not None}


class QueryEngine:
    """Memoized partial-optimum queries over one run.

    P(t, t', t''), t <= t' <= t'', is the canonical partial optimum seeded
    with :meth:`carry` (t), derived from `steps`, the run's step records (a
    list that may grow while the run goes on).  The run's rank index is
    built once, here, under :func:`~bdsched.model.rank_key` as bound now:
    ``buckets`` maps a release time to the entries released then, in rank
    order; ``entries`` maps a packet id to its entry; ``ids`` maps a rank to
    its packet id.  An entry is (rank, id, release, deadline, weight), the
    weight read from the instance's ``weights``; packets with an empty
    window (deadline < release) get a rank but no entry.  Raises
    ValueError, naming the packet, if an id repeats, whatever the windows,
    or a packet is not 2-bounded: a run's carries name packets by id, and
    the greedy's feasibility test holds only for windows of at most two
    slots.  Answers are memoized by window, which names a query only within
    one run, so an engine is never reused for another instance or run.

    The nine windows of :data:`ROW` at base t, every window a selector, a
    lemma bound or an inclusion check asks, are answered together:
    ``rows`` maps t to its row, (masks, weights), nine masks over ``ids``
    and nine weights at the instance's scale, lane j answering ROW[j].
    :meth:`row` solves base t's row at its first read by :func:`_row`, one
    walk of the product automaton over base t's candidate list, the carry
    and buckets t .. t + REACH, which is not kept.  Every lane runs its own
    greedy from its own start state, so no answer is derived from another
    or depends on which queries came first.  Any other window, as the
    optimum's P(0, h, h), sweeps the union-find over a candidate list of its
    own, and ``cache`` maps the window to its answer.  ``calls`` counts
    every row and window lookup, ``hits`` the lookups answered from memo.
    """

    def __init__(self, inst: Instance, steps: Sequence):
        self.inst = inst
        self.steps = steps
        packets, weights = inst.packets, inst.weights
        if len(weights) < len(packets):  # one weight per distinct id
            ids = [p.id for p in packets]
            repeat = next(pid for n, pid in enumerate(ids) if pid in ids[:n])
            raise ValueError(f"packet id {repeat} is not unique")
        ranked = sorted(packets, key=lambda p: model.rank_key(p, weights[p.id]))
        buckets: dict[int, list[tuple]] = {}
        entries: dict[int, tuple] = {}
        for rank, p in enumerate(ranked):
            pid, release, deadline = p.id, p.release, p.deadline
            if deadline - release > 1:
                raise ValueError(f"packet {pid} is not 2-bounded: window [{release}, {deadline}]")
            if deadline >= release:
                entries[pid] = entry = (rank, pid, release, deadline, weights[pid])
                buckets.setdefault(release, []).append(entry)
        self.buckets = {r: tuple(es) for r, es in buckets.items()}
        self.entries = entries
        self.ids = tuple([p.id for p in ranked])
        self.rows: dict[int, tuple[list[int], list[int]]] = {}
        self.cache: dict[tuple[int, int, int], PSet] = {}
        self.calls = 0
        self.hits = 0

    def carry(self, t: int) -> int | None:
        """The best-ranked packet of B(t), the packets pending before the
        arrivals at t, or None; t < 0, or a t whose step t-1 is not
        recorded, raises KeyError.

        Every packet is 2-bounded, so B(t) is the packets released at t-1
        with deadline t that step t-1, the only step that could, did not
        send.  Every query from base t sees them as loops at slot t, and two
        loops at one slot never fit together, so at most one of them joins
        any partial optimum.  The canonical greedy meets the best-ranked one
        first, and it joins exactly when any of them could: the carry stands
        for all of B(t).
        """
        if not 0 <= t <= len(self.steps):
            raise KeyError(t)
        if t == 0:
            return None
        sent = self.steps[t - 1].transmitted
        for _, pid, _, deadline, _ in self.buckets.get(t - 1, ()):  # in rank order
            if deadline == t and pid != sent:
                return pid
        return None

    def candidates(self, t: int, arrival_end: int) -> list[tuple[int, int, int]]:
        """The candidates of base t for arrivals up to `arrival_end`: the
        carry's entry and those of release buckets t .. `arrival_end`, as
        (rank, column, weight) seen from t, sorted by rank.  A window
        released at r has column 2 * (r - t), plus one if it also reaches
        slot r + 1; the carry, a loop at slot t, has column 0."""
        cands = []
        carry = self.carry(t)
        if carry is not None:
            rank, _, _, _, weight = self.entries[carry]
            cands.append((rank, 0, weight))
        for r in range(t, arrival_end + 1):
            for rank, _, _, deadline, weight in self.buckets.get(r, ()):
                cands.append((rank, 2 * (r - t) + (deadline > r), weight))
        cands.sort()
        return cands

    def row(self, t: int) -> tuple[list[int], list[int]]:
        """Base t's row, (masks, weights): from memo, or solved at its first
        read."""
        self.calls += 1
        row = self.rows.get(t)
        if row is not None:
            self.hits += 1
            return row
        row = self.rows[t] = _row(self.candidates(t, t + REACH))
        return row

    def members(self, mask: int) -> tuple[int, ...]:
        """The ids of the ranks set in `mask`, in canonical order."""
        return _decode(mask, self.ids)

    def p(self, t: int, arrival_end: int, slot_end: int) -> PSet:
        """P(t, t', t''): a lane of base t's row, or any other window from
        the cache, on a miss swept afresh by the union-find over a
        candidate list of its own, which is not kept."""
        lane = _LANE.get((arrival_end - t, slot_end - t))
        if lane is not None:
            masks, weights = self.row(t)
            return PSet(masks[lane], weights[lane], self.inst.scale, self.ids)
        self.calls += 1
        key = (t, arrival_end, slot_end)
        ps = self.cache.get(key)
        if ps is not None:
            self.hits += 1
            return ps
        if not t <= arrival_end <= slot_end:
            raise _out_of_order(t, arrival_end, slot_end)
        ps = self.cache[key] = _solve(self.inst.scale, self.ids, t, arrival_end, slot_end,
                                      self.candidates(t, arrival_end))
        return ps

    def gain(self, kind: str, t: int, i: int) -> Packet | None:
        """The packet selector `kind`_i(t) gains, or None if it gains none:
        the wide lane's mask less the narrow one's, which must be a single
        bit or none.  Raises KeyError for a selector whose windows are not
        in the base row."""
        wide, narrow = _SELECTOR_LANES[kind, i]
        masks = self.row(t)[0]
        gained = masks[wide]
        if narrow is not None:
            gained &= ~masks[narrow]
        if gained & (gained - 1):
            raise InternalInvariantError(f"{kind}_{i}({t}) is not a singleton: {sorted(self.members(gained))}")
        return self.inst.by_id(self.ids[gained.bit_length() - 1]) if gained else None

    def m(self, t: int, i: int) -> Packet | None:
        return self.gain("m", t, i)

    def q(self, t: int, i: int) -> Packet | None:
        return self.gain("q", t, i)


def opt_full(engine: QueryEngine) -> dict[int, int]:
    """Canonical clairvoyant optimum of the run's instance over slots
    [0, horizon]: `engine`'s answer P(0, horizon, horizon), which has no
    carry, laid out by :func:`_edf_assignment` as a time slot -> packet id
    dict, or no slot at all when no packet has one (horizon -1).  The
    layout places every kept packet, so its total is the optimum's, and the
    answer stays in the engine, where the oracle cross-check replays it."""
    inst = engine.inst
    horizon = inst.horizon
    if horizon < 0:  # no packet has a slot
        return {}
    by_id = inst.by_id
    return _edf_assignment([by_id(i) for i in engine.p(0, horizon, horizon).members], horizon)
