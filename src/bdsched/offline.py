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
slot, so over a window of at most :data:`NARROW` slots, the width of every
window the policy and the checks ask, the greedy walks a slot automaton
whose states are those component lists, one table lookup per packet; a
wider window sweeps a union-find over slots, and the width alone picks
which.  A fitting set never holds more packets than [t, t''] has slots,
so the greedy stops as soon as its kept set fills them all.  Only
:func:`opt_full` lays its kept set out in slots, earliest-deadline-first,
with a heap.

:class:`QueryEngine` is the only front end through which the policy and
every checker ask partial queries over a run.  It reads the run's step
list, derives each carry from it, memoizes every answer on (t, t', t'') --
sound because an engine is bound to one run -- and derives from them the
selectors m_i(t) and q_i(t), whose windows :func:`selector_windows` alone
writes down.  What it shares between queries is their input: one
rank-sorted candidate list per base time t, the carry and release buckets
t .. t + NARROW - 1 (extended on demand for a wider t'), each entry
carrying its automaton column relative to t, and read by every query
P(t, ., .), which skips the entries released after its t'.  What it never
shares is an answer: each miss runs its own greedy from the automaton's
start state (or from an empty union-find, for a wide window).

Answers are exact and integer: a :class:`PSet` from the greedy is a pair of
integers, a bitmask over the ranks of the engine's rank index and its total
as a weight at the instance's :attr:`~bdsched.model.Instance.scale`, so
the selectors and the nesting checks compare one engine's answers with
integer and bit operations.  Member ids and the rational total are decoded
only when they are read: by a report, by the oracle cross-check or by a test.

``dp_partial`` is the independent oracle that campaigns run: a max-weight
dynamic program along the slot path, with its own scan, scale and sort of
the packets, sharing no code path with the greedy; only the specification,
``rank_key``, is common to both.  It is seeded with the whole
pending set B(t), not the carry, so it checks the reduction to the carry on
every query it answers.
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
    ``ids``), so two answers of one engine nest iff their masks do;
    ``dp_partial``'s index the ranks of its own sort.  Equality and
    hashing read the members and the rational total, so answers of either
    source, at any scale, compare by value.  A plain slotted class, not a
    frozen dataclass, because the engine builds one per miss; answers are
    shared through the engine's cache and never modified.
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
        return self.members == other.members and self.weight * other.scale == other.weight * self.scale

    def __hash__(self) -> int:
        return hash((self.members, self.total_value))

    def __repr__(self) -> str:
        return f"PSet(members={self.members!r}, weight={self.weight!r}, scale={self.scale!r})"


_EMPTY_PSET = PSet(0, 0, 1, ())
#: the (reach, candidates) of a base time whose candidate list is not built yet
_UNREAD = (-math.inf, ())


def _edf_assignment(kept: Sequence[Packet], start: int, slot_end: int) -> dict[int, int]:
    """Assign kept packets to slots [start, slot_end]: sweep slots in time
    order, at each slot transmit the available packet with the earliest
    deadline (ties by id).

    The packets enter a heap keyed on (deadline, id) at the first slot of
    their window clipped to start, and a packet still in the heap after its
    deadline is dropped, so the sweep takes O(n log n + T) for n packets and
    T slots.  Availability windows are contiguous, so this realizes an
    assignment whenever one exists; otherwise it raises AssertionError
    naming every packet left unassigned.
    """
    arriving = sorted([(p.release if p.release > start else start, p.deadline, p.id) for p in kept], reverse=True)
    ready: list[tuple[int, int]] = []  # (deadline, id) of the packets whose window has opened
    missed: list[int] = []
    out: dict[int, int] = {}
    for s in range(start, slot_end + 1):
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


#: The widest window, in slots, solved on a precomputed slot automaton: every
#: window a selector, a lemma bound or an inclusion check asks fits.
NARROW = 5


def _add_buckets(cands: list, buckets: dict, t: int, first: int, end: int) -> list[tuple[int, int, int, int]]:
    """`cands` with the entries (rank, id, release, deadline, weight) of
    release buckets `first` .. `end`, first >= t, added as candidates of
    base t, (rank, release, column, weight), all sorted by rank.  A window
    has column 2 * (release - t), plus one if it also reaches slot
    release + 1."""
    for r in range(first, end + 1):
        for rank, _, _, deadline, weight in buckets.get(r, ()):
            cands.append((rank, r, 2 * (r - t) + (deadline > r), weight))
    cands.sort()
    return cands


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
    a walk stops on reaching it."""
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


def _walk(scale: int, ids: Sequence[int], t: int, t_arr: int, t_end: int, cands: Sequence[tuple]) -> PSet:
    """The canonical partial optimum P(t, t_arr, t_end) of a window of at
    most NARROW slots over `cands`, the candidates (rank, release, column,
    weight) of base t sorted by rank, by a walk of the slot automaton from
    its start state: the candidates released after t_arr are skipped, each
    other one is one table lookup, and the walk stops in the absorbing
    state, once the kept set fills every slot.  The answer is the mask of
    the kept ranks over the rank table `ids` and their total as a weight at
    `scale`."""
    width = t_end - t + 1
    table = _automaton(width)[1]
    state = 2 * width  # the start state's row
    mask = total = 0
    for rank, release, col, value in cands:
        if release > t_arr:
            continue
        nxt = table[state + col]
        if nxt < 0:
            continue
        mask |= 1 << rank
        total += value
        if not nxt:
            break
        state = nxt
    return PSet(mask, total, scale, ids)


def _solve(scale: int, ids: Sequence[int], t: int, t_arr: int, t_end: int, cands: Sequence[tuple]) -> PSet:
    """:func:`_walk`'s answer for a window of any width, by a sweep of a
    union-find over slot offsets from t that starts empty.  It keeps each
    component's free slot count: a loop, or an edge inside one component,
    is accepted iff that component has a free slot; an edge joining two
    components iff they have one between them.  Like the walk, the sweep
    skips the candidates released after t_arr and stops once the kept set
    fills every slot."""
    parent: dict[int, int] = {}  # slot -> a slot nearer its component's root
    free: dict[int, int] = {}  # root -> free slots; an untouched slot is a root with one
    last = t_end - t
    room = last + 1  # slots not yet filled
    mask = total = 0
    for rank, release, col, value in cands:
        if release > t_arr:
            continue
        a = lo = col >> 1
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


def dp_partial(window: tuple[int, int, int], inst: Instance, pending: Collection[int] = ()) -> PSet:
    """Independent oracle: a maximum-weight dynamic program along the slots
    of the query `window` (t, t', t''), seeded with the ids `pending` before
    the arrivals at t, all of B(t).  Raises ValueError unless
    t <= t' <= t''.

    The eligible packets, read by its own scan of ``inst.packets``, get
    integer values scaled by the LCM of their denominators, are sorted by
    :func:`~bdsched.model.rank_key` on those values and get integer weights
    value * scale * 2**n + 2**(n - 1 - rank).  The value dominates, and the
    low n bits, one per rank, break every tie toward the canonically earlier
    packet: the unique heaviest feasible set is the canonical one, and its
    weight spells out its members (the low bits) and its total (the high
    bits).  The answer is a mask over the ranks of this sort.

    A packet's window clipped to [t, t''] is one slot or two adjacent ones.
    One pass over the slots keeps two best weights: with slot s free, and
    with slot s taken by a two-slot packet carried from s - 1.  At s a free
    slot takes the heaviest packet whose window starts at s, and the heaviest
    two-slot packet starting at s may be carried to s + 1 beside the
    heaviest other one.  Raises ValueError if an eligible packet is not
    2-bounded.
    """
    t, t_arr, t_end = window
    if not t <= t_arr <= t_end:
        raise _out_of_order(t, t_arr, t_end)
    pool = [p for p in inst.packets if (p.id in pending or t <= p.release <= t_arr)
            and max(t, p.release) <= min(t_end, p.deadline)]
    if not pool:
        return _EMPTY_PSET
    n = len(pool)
    # lists, not generator expressions: generators here raised the peak
    # resident memory of a 4,800-seed serial campaign by about 0.5 MB
    scale = math.lcm(*[p.value.denominator for p in pool])
    ranked = sorted([(p, p.value.numerator * (scale // p.value.denominator)) for p in pool], key=lambda pv: model.rank_key(*pv))
    # first slot -> weights of its heaviest one-slot packet and of its two
    # heaviest two-slot packets, 0 where there is none
    tops: dict[int, list[int]] = {}
    for rank, (p, value) in enumerate(ranked):
        release, deadline = p.release, p.deadline
        if deadline - release > 1:
            raise ValueError(f"packet {p.id} is not 2-bounded: window [{release}, {deadline}]")
        lo = max(t, release)
        weight = (value << n) | (1 << (n - 1 - rank))
        top = tops.setdefault(lo, [0, 0, 0])
        if lo < min(t_end, deadline):
            if not top[1]:
                top[1] = weight
            elif not top[2]:
                top[2] = weight
        elif not top[0]:
            top[0] = weight
    # best weights with slot s free / taken by a packet carried from s - 1;
    # taken reads 0 when nothing is carried into s, which never beats free
    free = taken = 0
    for s in range(t, t_end + 1):
        one, two, two_next = tops.get(s, (0, 0, 0))
        free, taken = max(free + max(one, two), taken), (max(free + max(one, two_next), taken) + two if two else 0)
    low = free & ((1 << n) - 1)
    mask = sum([1 << rank for rank in range(n) if low >> (n - 1 - rank) & 1])
    return PSet(mask, free >> n, scale, tuple([p.id for p, _ in ranked]))


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
    slots.  Answers are cached on (t, t', t''), which names a query only
    within one run, so an engine is never reused for another instance or
    run.  ``lists`` holds one candidate list per base time t, built by
    :meth:`candidates` and read by every query P(t, ., .); a miss still
    runs its own greedy over it from the automaton's start state (or an
    empty union-find, past NARROW slots), so no answer depends on which
    queries came first.  Every answer is a mask
    over ``ids`` with a weight at the instance's scale, so the checks
    compare answers of one engine with integer and bit operations.
    ``calls`` counts every lookup, ``hits`` the lookups answered from the
    cache.
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
        self.cache: dict[tuple[int, int, int], PSet] = {}
        self.lists: dict[int, tuple[int, Sequence[tuple]]] = {}  # t -> (last release read, candidates)
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

    def candidates(self, t: int, arrival_end: int) -> Sequence[tuple]:
        """The candidate list of base t, read by every query P(t, t', .)
        with t' <= `arrival_end`: the carry's entry and release buckets t ..
        max(t + NARROW - 1, t'), as (rank, release, column, weight) seen
        from t, sorted by rank.  Built once per base time and extended,
        bucket by bucket, only when a query asks a wider t'."""
        reach, cands = self.lists.get(t, _UNREAD)
        if reach < arrival_end:
            end = max(arrival_end, t + NARROW - 1)
            if reach < t:  # a new base time: its carry, a loop at slot t
                reach, cands, carry = t - 1, [], self.carry(t)
                if carry is not None:
                    rank, _, release, _, weight = self.entries[carry]
                    cands.append((rank, release, 0, weight))
            cands = _add_buckets(list(cands), self.buckets, t, reach + 1, end)
            self.lists[t] = (end, cands)
        return cands

    def p(self, t: int, arrival_end: int, slot_end: int) -> PSet:
        """P(t, t', t''): from the cache, or on a miss solved afresh over the
        candidate list of base t, on the slot automaton if the window spans
        at most NARROW slots and by the union-find otherwise."""
        self.calls += 1
        key = (t, arrival_end, slot_end)
        ps = self.cache.get(key)
        if ps is not None:
            self.hits += 1
            return ps
        if not t <= arrival_end <= slot_end:
            raise _out_of_order(t, arrival_end, slot_end)
        reach, cands = self.lists.get(t, _UNREAD)  # candidates(), without a call on a hit
        if reach < arrival_end:
            cands = self.candidates(t, arrival_end)
        solve = _walk if slot_end - t < NARROW else _solve
        ps = self.cache[key] = solve(self.inst.scale, self.ids, t, arrival_end, slot_end, cands)
        return ps

    def gain(self, kind: str, t: int, i: int) -> Packet | None:
        """The packet selector `kind`_i(t) gains, or None if it gains none:
        the wide window's mask less the narrow one's, which must be a single
        bit or none."""
        wide, narrow = selector_windows(kind, t, i)
        gained = self.p(*wide).mask
        if narrow is not None:
            gained &= ~self.p(*narrow).mask
        if gained & (gained - 1):
            raise InternalInvariantError(f"{kind}_{i}({t}) is not a singleton: {sorted(_decode(gained, self.ids))}")
        return self.inst.by_id(self.ids[gained.bit_length() - 1]) if gained else None

    def m(self, t: int, i: int) -> Packet | None:
        return self.gain("m", t, i)

    def q(self, t: int, i: int) -> Packet | None:
        return self.gain("q", t, i)


def opt_full(engine: QueryEngine) -> dict[int, int]:
    """Canonical clairvoyant optimum of the run's instance over slots
    [0, horizon]: the partial query P(0, horizon, horizon) with no carry,
    solved by one greedy over `engine`'s buckets 0 .. horizon in one sort, not
    through ``engine.p``, which would cache a candidate list for base 0, and
    laid out by :func:`_edf_assignment` as a time slot -> packet id dict.
    The layout places every kept packet, so its total is the optimum's."""
    inst = engine.inst
    if not inst.packets:
        return {}
    horizon = inst.horizon
    if horizon < 0:
        raise _out_of_order(0, horizon, horizon)
    cands = _add_buckets([], engine.buckets, 0, 0, horizon)
    solve = _walk if horizon < NARROW else _solve
    ps = solve(inst.scale, engine.ids, 0, horizon, horizon, cands)
    by_id = inst.by_id
    return _edf_assignment([by_id(i) for i in ps.members], 0, horizon)
