from __future__ import annotations

from fractions import Fraction

from bdsched import Instance, Packet, PSet, QueryEngine


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


def answer(engine: QueryEngine, members, weight: int) -> PSet:
    """An answer to inject into `engine`'s cache: the ids `members`, with
    the weight `weight` at the instance's scale, as a mask over the engine's
    rank table, the form of the engine's own answers."""
    rank = {pid: r for r, pid in enumerate(engine.ids)}
    return PSet(sum([1 << rank[pid] for pid in members]), weight, engine.inst.scale, engine.ids)


def sent(trace) -> dict[int, int]:
    """The policy's schedule, time slot -> packet id, read from the run's steps."""
    return {rec.t: rec.transmitted for rec in trace.steps if rec.transmitted is not None}
