from __future__ import annotations

from fractions import Fraction

from bdsched import GridSpec, Instance, Packet, PSet, QueryEngine, enumerate_instances, model, opt_full
from bdsched.offline import ROW


def mk(*shapes) -> Instance:
    """Build an instance from (release, deadline, value) shapes; ids follow
    the argument order."""
    return Instance(
        Packet(id=i, release=r, deadline=d, value=Fraction(v)) for i, (r, d, v) in enumerate(shapes)
    )


def pset(members, weight, scale: int = 1) -> PSet:
    """The answer whose members are the ids `members`, in that order, with
    the weight `weight` at `scale`: a mask over the members' own order."""
    members = tuple(members)
    return PSet((1 << len(members)) - 1, weight, scale, members)


def set_lane(engine: QueryEngine, window: tuple[int, int, int], members, weight: int) -> None:
    """Overwrite `engine`'s answer to `window`, one of the ROW windows of
    its base t, in base t's row (solved first if unread): the lane then
    holds the ids `members`, as a mask over the engine's rank table, with
    the weight `weight` at the instance's scale, as every reader of the row
    sees it."""
    t, t_arr, t_end = window
    masks, weights = engine.row(t)
    lane = ROW.index((t_arr - t, t_end - t))
    masks[lane] = sum([1 << engine.ids.index(pid) for pid in members])
    weights[lane] = weight


def solved(engine: QueryEngine) -> list[tuple[tuple[int, int, int], PSet]]:
    """Every answer `engine` holds, as (window, answer): the nine lanes of
    each base row it solved, then each window outside the row it cached."""
    out = []
    for t, (masks, weights) in engine.rows.items():
        for (a, e), mask, weight in zip(ROW, masks, weights):
            out.append(((t, t + a, t + e), PSet(mask, weight, engine.inst.scale, engine.ids)))
    return out + list(engine.cache.items())


def clairvoyant(inst: Instance) -> dict[int, int]:
    """opt_full over a fresh engine of `inst` with no steps: the canonical
    clairvoyant optimum, time slot -> packet id, outside any run."""
    return opt_full(QueryEngine(inst, []))


def sent(trace) -> dict[int, int]:
    """The policy's schedule, time slot -> packet id, read from the run's steps."""
    return {rec.t: rec.transmitted for rec in trace.steps if rec.transmitted is not None}


def is_base(inst: Instance) -> bool:
    """True for the empty instance and an instance with a packet released at 0."""
    return not inst.packets or inst.packets[0].release == 0


def grid_bases(spec: GridSpec):
    """Every grid instance with a packet released at 0, in enumeration order:
    the bases before enumerate_bases drops the reducible ones."""
    return filter(is_base, enumerate_instances(spec))


def without_inert(inst: Instance) -> Instance:
    """`inst` less its inert packets, found by a rank comparison of its own:
    per release, every loop model.rank_key ranks after the release's best
    loop and every edge it ranks after the release's best two edges."""
    kept: set[int] = set()
    groups: dict[tuple[int, int], list[Packet]] = {}
    for p in inst.packets:
        groups.setdefault((p.release, p.deadline - p.release), []).append(p)
    for (_release, offset), group in groups.items():
        group.sort(key=lambda p: model.rank_key(p, p.value))
        kept.update(p.id for p in group[: offset + 1])
    return Instance(p for p in inst.packets if p.id in kept)
