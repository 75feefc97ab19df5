"""The enumeration oracle: dp_partial's reference in the tests.

It enumerates every packet subset and keeps the feasible one of maximum
total value, ties resolved by the canonical order, with a backtracking
matcher of its own.  It shares no code with the greedy solver or with
dp_partial, and is limited to small queries.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Collection, Sequence

from bdsched import Instance, Packet, PSet, model
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

    Values are summed as integer weights at the LCM of the pool's own value
    denominators, and a subset that cannot beat the best so far is never
    matched.  Refuses queries with more than BRUTE_FORCE_LIMIT eligible
    packets.
    """
    # Its own scan, sort and scale: the oracle never trusts the instance's
    # presorted order or weights that the greedy solver reads.
    start, arrival_end, slot_end = window
    pool = sorted((p for p in inst.packets if (p.id in pending or start <= p.release <= arrival_end)
                   and max(start, p.release) <= min(slot_end, p.deadline)),
                  key=lambda p: model.rank_key(p, p.value))
    if len(pool) > BRUTE_FORCE_LIMIT:
        raise OracleSizeError(f"{len(pool)} eligible packets exceeds the oracle limit of {BRUTE_FORCE_LIMIT}")
    slots = list(range(start, slot_end + 1))
    scale = math.lcm(*[p.value.denominator for p in pool])
    weights = [p.value.numerator * (scale // p.value.denominator) for p in pool]

    # combinations of pool positions come in ascending order, so each is its
    # subset's rank tuple; ties go to the smaller tuple, across sizes too
    best_weight, best_rank = -1, ()
    for size in range(0, min(len(pool), len(slots)) + 1):
        for rank in combinations(range(len(pool)), size):
            weight = sum([weights[i] for i in rank])
            if weight < best_weight or (weight == best_weight and rank >= best_rank):
                continue
            if _matchable([pool[i] for i in rank], slots, start):
                best_weight, best_rank = weight, rank
    return pset([pool[i].id for i in best_rank], best_weight, scale)
