"""The enumeration oracle: dp_partial's reference in the tests.

It enumerates every packet subset and keeps the feasible one of maximum
total value, ties resolved by the canonical order, with a backtracking
matcher of its own.  It shares no code with the greedy solver or with
dp_partial, and is limited to small queries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Collection, Sequence

from bdsched import Instance, Packet, PSet
from bdsched.model import canonical_key
from conftest import pset

#: Guard for the enumeration oracle.
BRUTE_FORCE_LIMIT = 20


class OracleSizeError(ValueError):
    """brute_force_partial refused a query with too many eligible packets."""


def _matchable(packets: Sequence[Packet], slots: Sequence[int], lo: int) -> bool:
    """Backtracking exact matcher used only by the enumeration oracle.

    Tries every slot choice for every packet, in (packet id, slot) order.
    """
    slot_free = {s: True for s in slots}
    ordered = sorted(packets, key=lambda p: p.id)

    def place(i: int) -> bool:
        if i == len(ordered):
            return True
        p = ordered[i]
        for s in slots:
            if slot_free[s] and max(lo, p.release) <= s <= p.deadline:
                slot_free[s] = False
                if place(i + 1):
                    return True
                slot_free[s] = True
        return False

    return place(0)


def brute_force_partial(window: tuple[int, int, int], inst: Instance, pending: Collection[int] = ()) -> PSet:
    """Independent oracle: enumerate every packet subset, keep the feasible
    one of maximum total value, ties resolved by the canonical order.  Seeded
    like dp_partial with all of B(t), the ids `pending`, over the query
    `window` (t, t', t'').

    Refuses queries with more than BRUTE_FORCE_LIMIT eligible packets.
    """
    # Its own scan and sort: the oracle never trusts the instance's
    # presorted order that the greedy solver filters.
    start, arrival_end, slot_end = window
    pool = sorted((p for p in inst.packets if (p.id in pending or start <= p.release <= arrival_end)
                   and max(start, p.release) <= min(slot_end, p.deadline)), key=canonical_key)
    if len(pool) > BRUTE_FORCE_LIMIT:
        raise OracleSizeError(f"{len(pool)} eligible packets exceeds the oracle limit of {BRUTE_FORCE_LIMIT}")
    slots = list(range(start, slot_end + 1))
    positions = {p.id: i for i, p in enumerate(pool)}

    best_subset: tuple[Packet, ...] | None = None
    best_value = Fraction(-1)
    best_rank: tuple[int, ...] = ()
    max_size = min(len(pool), len(slots))
    for size in range(0, max_size + 1):
        for subset in combinations(pool, size):
            if not _matchable(subset, slots, start):
                continue
            value = sum((p.value for p in subset), Fraction(0))
            rank = tuple(sorted(positions[p.id] for p in subset))
            if value > best_value or (value == best_value and best_subset is not None and rank < best_rank):
                best_subset, best_value, best_rank = subset, value, rank
    if best_subset is None or not best_subset:
        return pset((), 0)
    ordered = sorted(best_subset, key=canonical_key)
    return pset([p.id for p in ordered], best_value.numerator, best_value.denominator)
