"""Interval partition of a run and executable per-instance bound checks.

One pass, :func:`build_intervals`, cuts both timelines at the same
boundaries: the policy's [0, tau] (tau = its last transmission) into the
case chains its precommitment register draws, the optimum's with a boundary
moved one step later where the optimum replays the one-slack packet the
policy sent just before it.  The checks read those intervals.  Comparing
the two profit streams interval by interval is what turns the global
competitive bound into finitely many exact rational-vs-Q(sqrt17)
comparisons:

* per interval, opt profit <= R * policy profit;
* per interval, opt profit is bounded by a partial-optimum value whose
  query shape depends on whether the interval's last transmission was a
  freshly released packet with one slot of slack (a "2_t packet");
* on an interval cut short by case 2.2.2.1 or 3.2.2, the canonical
  optimum is forced to send the first step's selector packets, one per step;
* the partial-optimum sets of neighbouring queries nest.

Profits are integer weights at the instance's scale, so every comparison
above is integer arithmetic; an interval's or a report's rational profits
(``v_cp``/``v_opt``) are built only when read: by a finding's rendered
values, and outside this module by ``run``, a CSV row or ``compare``.

Every partial-optimum query goes through the run's query engine
(``trace.engine``), so a query the policy or another check already asked is
answered from its memo.

A failed check is reported as a finding (data, not an exception): on any
violation the instance is emitted for triage rather than silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model import Rat, le_r_times, render_value
from .cp import CaseTrace, StepRecord
from .offline import ROW

__all__ = [
    "Interval",
    "PartitionError",
    "partition_cp",
    "IntervalReport",
    "Finding",
    "build_intervals",
    "check_interval_bounds",
    "check_lemma_bounds",
    "check_forced_opt",
    "check_inclusions",
]

#: check_inclusions compares the queries P(t, t', .) for t' up to this many steps after t.
INCLUSION_WINDOW = 3

#: k -> the row lanes of P(t, t+k, t+k), P(t, t+k+1, t+k+1) and
#: P(t, t+k, t+k+1), for k = 0 .. INCLUSION_WINDOW.
_NESTED = tuple([(ROW.index((k, k)), ROW.index((k + 1, k + 1)), ROW.index((k, k + 1)))
                 for k in range(INCLUSION_WINDOW + 1)])

#: The paper's interval patterns: trigger (the non-commit case labels of a
#: case chain, joined by "+") -> the number of steps the interval spans.
INTERVAL_STEPS = {
    "1.1": 1,
    "1.2.1": 2,
    "1.2.2": 2,
    "1.2.3.1": 2,
    "1.2.3.2": 2,
    "1.2.3.3": 2,
    "1.2.3.4+2.1": 3,
    "1.2.3.4+2.2.1": 3,
    "1.2.3.4+2.2.2.1": 2,
    "1.2.3.4+2.2.2.2": 3,
    "1.2.3.4+2.2.2.3+3.1": 4,
    "1.2.3.4+2.2.2.3+3.2.1": 4,
    "1.2.3.4+2.2.2.3+3.2.2": 3,
    "1.2.3.4+2.2.2.3+3.2.3": 4,
}

#: The two chains cut short by case 2.2.2.1 or 3.2.2, whose firing forces the
#: optimum's layout: trigger -> the case label a forced-opt finding names.
FORCED_CASES = {
    "1.2.3.4+2.2.2.1": "2.2.2.1",
    "1.2.3.4+2.2.2.3+3.2.2": "3.2.2",
}


class PartitionError(RuntimeError):
    """The run cannot be cut into intervals: a case chain matches no interval
    pattern."""


class Interval:
    """One segment of the comparison.

    cp_span covers the policy's timeline, opt_span the (possibly shifted)
    optimum's; w_cp / w_opt are the exact profits earned inside them, as
    integer weights at the instance's scale.  The rational profits v_cp /
    v_opt are built only when read.  A plain slotted class, not a frozen
    dataclass, because every checked instance builds one per span and a
    frozen dataclass sets each field through ``object.__setattr__``;
    intervals are never modified after construction.
    """

    __slots__ = ("cp_span", "opt_span", "w_cp", "w_opt", "scale", "trigger")

    def __init__(
        self, cp_span: tuple[int, int], opt_span: tuple[int, int], w_cp: int, w_opt: int, scale: int, trigger: str
    ):
        self.cp_span = cp_span
        self.opt_span = opt_span
        self.w_cp = w_cp
        self.w_opt = w_opt
        self.scale = scale
        self.trigger = trigger

    @property
    def v_cp(self) -> Rat:
        return Fraction(self.w_cp, self.scale)

    @property
    def v_opt(self) -> Rat:
        return Fraction(self.w_opt, self.scale)

    @property
    def within_bound(self) -> bool:
        """Exact v_opt <= R * v_cp, decided on the weights by the integer
        predicate :func:`~bdsched.model.le_r_times` (``Quad17`` is its test
        reference); the test is homogeneous, so the scale changes nothing."""
        return le_r_times(self.w_opt, self.w_cp)

    def __repr__(self) -> str:
        return (f"Interval(cp_span={self.cp_span!r}, opt_span={self.opt_span!r}, "
                f"v_cp={render_value(self.v_cp)}, v_opt={render_value(self.v_opt)}, trigger={self.trigger!r})")


def _close_span(chain: list[StepRecord]) -> tuple[int, int, str]:
    """(start, end, trigger) of one case chain, checked against INTERVAL_STEPS."""
    first, last = chain[0], chain[-1]
    if first.case == "idle":
        trigger, length = "idle", 1
    elif first.fallback:
        trigger, length = f"{first.case}[{first.fallback}]", 1
    else:
        trigger = "+".join([rec.case for rec in chain if rec.case != "commit"])
        length = INTERVAL_STEPS.get(trigger)
    if len(chain) != length:
        raise PartitionError(
            f"case chain {[rec.case for rec in chain]} at t={first.t}..{last.t} matches no interval pattern"
        )
    return first.t, last.t, trigger


def partition_cp(trace: CaseTrace) -> list[tuple[int, int, str]]:
    """Cut [0, tau] into (start, end, trigger) spans.

    The policy's register draws the intervals: a step that wrote s_{t+1}
    pulls step t+1 into its span, so a span ends at the first step that left
    the register clear.  Its trigger joins the span's non-commit case labels
    with "+" and must be one of INTERVAL_STEPS's patterns, spanning exactly
    that many steps.  A step where a documented fallback replaced the case
    action stands alone as ``case[fallback]``, and an idle step inside
    [0, tau] as a zero-profit ``idle`` span.
    """
    steps = trace.steps
    tau = max((rec.t for rec in steps if rec.transmitted is not None), default=None)
    if tau is None:
        return []
    spans: list[tuple[int, int, str]] = []
    start = 0
    for t in range(tau + 1):
        rec = steps[t]
        if rec.t != t:
            raise PartitionError(f"no record at time {t}")
        if rec.committed is None:
            spans.append(_close_span(steps[start : t + 1]))
            start = t + 1
    if start <= tau:
        raise PartitionError(f"case chain from t={start} still open at tau={tau}")
    return spans


class IntervalReport:
    """All intervals of one run plus the global exact comparisons.

    w_cp / w_opt are the two timelines' total profits as integer weights at
    the instance's scale, the scale of every interval; every test below
    compares those integers, and v_cp / v_opt build the rational profits
    only when read.
    """

    __slots__ = ("intervals", "w_cp", "w_opt", "scale")

    def __init__(self, intervals: tuple[Interval, ...], w_cp: int, w_opt: int, scale: int):
        self.intervals = intervals
        self.w_cp = w_cp
        self.w_opt = w_opt
        self.scale = scale

    @property
    def v_cp(self) -> Rat:
        return Fraction(self.w_cp, self.scale)

    @property
    def v_opt(self) -> Rat:
        return Fraction(self.w_opt, self.scale)

    @property
    def global_within_bound(self) -> bool:
        return le_r_times(self.w_opt, self.w_cp)

    @property
    def covered_weight(self) -> int:
        """The sum of the intervals' w_opt."""
        return sum([iv.w_opt for iv in self.intervals])

    @property
    def opt_covered(self) -> bool:
        """Whole-run sanity: total optimum profit <= sum of interval v_opt."""
        return self.w_opt <= self.covered_weight

    @property
    def worst_interval(self) -> Interval | None:
        worst = None
        for iv in self.intervals:
            if iv.w_cp == 0:
                if iv.w_opt > 0:
                    return iv
                continue
            if worst is None or iv.w_opt * worst.w_cp > worst.w_opt * iv.w_cp:
                worst = iv
        return worst


def build_intervals(trace: CaseTrace, opt_sched: Mapping[int, int]) -> IntervalReport:
    """Both timelines' intervals from precomputed runs: the policy's sends
    read from ``trace.steps``, the optimum's from `opt_sched` (time slot ->
    packet id).  The report's totals are summed here, as weights at the
    instance's scale: the policy's over its intervals, which cover every
    send up to tau, its last; the optimum's over `opt_sched`.

    Each boundary t of partition_cp's spans (each span's start, then tau+1)
    is cut once: at t+1 when the policy sent at t-1 a packet released at t-1
    with deadline t and the optimum sends it at t, else at t.  Optimum span
    k runs from cut k to cut k+1 minus one, so those spans tile from 0.
    """
    steps = trace.steps
    inst = trace.engine.inst
    weights, scale = inst.weights, inst.scale
    opt_weights = {t: weights[pid] for t, pid in opt_sched.items()}

    def cut(t: int) -> int:
        prev = steps[t - 1].transmitted
        return t + (prev is not None and inst.by_id(prev).is_two_packet_at(t - 1) and opt_sched.get(t) == prev)

    intervals = []
    o_start = 0  # nothing is sent before 0, so boundary 0 never moves
    for start, end, trigger in partition_cp(trace):
        o_next = cut(end + 1)
        wi = sum([weights[rec.transmitted] for rec in steps[start : end + 1] if rec.transmitted is not None])
        wo = sum([opt_weights.get(t, 0) for t in range(o_start, o_next)])
        intervals.append(Interval((start, end), (o_start, o_next - 1), wi, wo, scale, trigger))
        o_start = o_next
    return IntervalReport(tuple(intervals), sum([iv.w_cp for iv in intervals]), sum(opt_weights.values()), scale)


@dataclass(frozen=True)
class Finding:
    """One violated inequality, serializable for triage."""

    # "interval-bound", "partial-bound", "forced-opt", "inclusion", "coverage",
    # "oracle-mismatch" or "crash"
    kind: str
    detail: str
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "lhs": self.lhs, "rhs": self.rhs}


def check_interval_bounds(report: IntervalReport) -> list[Finding]:
    """Exact v_opt <= R * v_cp per interval, plus the global bound."""
    out = []
    for i, iv in enumerate(report.intervals):
        if not iv.within_bound:
            out.append(
                Finding(
                    "interval-bound",
                    f"interval {i} {iv.trigger} cp_span={iv.cp_span} opt_span={iv.opt_span}",
                    render_value(iv.v_opt),
                    f"R*{render_value(iv.v_cp)}",
                )
            )
    if not report.global_within_bound:
        out.append(Finding("interval-bound", "global", render_value(report.v_opt), f"R*{render_value(report.v_cp)}"))
    if not report.opt_covered:
        out.append(
            Finding(
                "coverage",
                "interval opt-profits do not cover the optimum",
                render_value(report.v_opt),
                render_value(Fraction(report.covered_weight, report.scale)),
            )
        )
    return out


def check_lemma_bounds(trace: CaseTrace, report: IntervalReport) -> list[Finding]:
    """Per-interval partial-optimum bounds.

    For an interval (t, t'): if the packet the policy sent at t' still had a
    slot of slack (released at t' with deadline t'+1), the optimum profit of
    the shifted span is bounded by the partial optimum allowed one extra
    slot, V(t, t', t'+1); otherwise by V(t, t', t').  Idle spans, whose last
    step sent nothing, are skipped.
    """
    out = []
    by_id = trace.engine.inst.by_id
    for i, iv in enumerate(report.intervals):
        start, end = iv.cp_span
        pid = trace.steps[end].transmitted
        if pid is None:
            continue
        sent_last = by_id(pid)
        slack = sent_last.is_two_packet_at(end)
        slot_end = end + 1 if slack else end
        bound = trace.engine.p(start, end, slot_end)
        if iv.w_opt * bound.scale > bound.weight * iv.scale:  # v_opt > V, in integers
            out.append(
                Finding(
                    "partial-bound",
                    f"interval {i} {iv.trigger} span={iv.cp_span} "
                    f"{'one-slack' if slack else 'no-slack'} V({start},{end},{slot_end})",
                    render_value(iv.v_opt),
                    render_value(bound.total_value),
                )
            )
    return out


def check_forced_opt(trace: CaseTrace, report: IntervalReport, opt_sched: Mapping[int, int]) -> list[Finding]:
    """Forced transmissions of the canonical optimum.

    On an interval cut short (FORCED_CASES) the optimum must send the
    selectors m_0, m_1, ... of the interval's first step, its base, at the
    base, base+1, ...: two packets for 2.2.2.1, three for 3.2.2.

    The claim presumes the optimum's slot at the base is free, so an
    interval whose optimum span starts after its base (the optimum replays
    there the one-slack packet the policy sent at base-1) is skipped.
    """
    out = []
    for iv in report.intervals:
        case = FORCED_CASES.get(iv.trigger)
        base, end = iv.cp_span
        if case is None or iv.opt_span[0] > base:
            continue
        for offset in range(end - base + 1):
            pkt = trace.engine.m(base, offset)
            if pkt is None:
                out.append(Finding("forced-opt", f"case {case} at t={end}: selector {offset} absent", "-", "-"))
                continue
            got = opt_sched.get(base + offset)
            if got != pkt.id:
                out.append(
                    Finding(
                        "forced-opt",
                        f"case {case} at t={end}: optimum sends {got} at {base + offset}",
                        str(got),
                        str(pkt.id),
                    )
                )
    return out


def check_inclusions(trace: CaseTrace) -> list[Finding]:
    """Nesting of neighbouring partial-optimum sets along a run.

    With P(t, t', t'') the canonical partial-optimum member set computed
    from the run's carries (each solved on its own by the query engine,
    never derived from the set it is compared with):

      (1) P(t, t', t')   is contained in P(t, t'+1, t'+1)
      (2) P(t, t', t')   is contained in P(t, t', t'+1)
      (3) P(t+1, t', t') is contained in P(t, t', t')

    and each same-base inclusion (1)/(2) adds at most one packet.  The
    cross-base relation (3) presumes that everything the base-t optimum
    counted on is still present at t+1: if the packet transmitted at t is a
    member of P(t, t', t'), the base-t+1 optimum may legitimately refill
    with a previously rejected packet, so for those pairs only the
    unconditional consequence V(t+1, t', t') <= V(t, t', t') is required.
    The value inequality is checked for every pair either way.

    A member p of P = P(t, t', t') that expires at t needs no such waiver
    when the packet s sent at t is not a member.  p can use only slot t, so
    with p contracted out the canonical greedy keeps the rest of P on slots
    [t+1, t'].  P(t+1, t', t') runs that greedy on a sub-ground-set that
    still holds the rest of P, and drops only non-members: s, the packets
    usable only at t, and bucket t's deadline-(t+1) packets ranked after the
    carry into t+1, which are loops at t+1 parallel to an earlier loop.
    Dropping non-members leaves a greedy answer unchanged, so P(t+1, t', t')
    is P without p, a subset of P.

    Checked for every step time t and t' up to INCLUSION_WINDOW steps ahead.
    Every set compared is a lane of a base row (``engine.row``): base t's
    row holds the nine answers of base t, and base t+1's the cross-base
    ones, each row read once.  One engine's lanes are masks over one rank
    table, so each inclusion is a bit test, each "adds at most one" compares
    bit counts, and "the packet sent at t is a member" tests the bit of its
    rank; member ids are decoded only for a finding.
    """
    out = []
    steps = trace.steps
    engine = trace.engine
    ranks = engine.entries
    scale = engine.inst.scale

    def ids(mask: int) -> str:
        return str(sorted(engine.members(mask)))

    later = engine.row(0) if steps else None  # base t's row, read as base t-1's cross-base row
    for t in range(len(steps)):
        masks, weights = later
        later = engine.row(t + 1) if t + 1 < len(steps) else None
        sent = steps[t].transmitted
        sent_bit = 0 if sent is None else 1 << ranks[sent][0]
        for k, (narrow_lane, arr_lane, slot_lane) in enumerate(_NESTED):
            t_arr = t + k
            narrow, arr, slot = masks[narrow_lane], masks[arr_lane], masks[slot_lane]
            size = narrow.bit_count()
            if narrow & ~arr:
                out.append(Finding("inclusion", f"P({t},{t_arr},{t_arr}) !<= P({t},{t_arr + 1},{t_arr + 1})",
                                   ids(narrow), ids(arr)))
            if narrow & ~slot:
                out.append(Finding("inclusion", f"P({t},{t_arr},{t_arr}) !<= P({t},{t_arr},{t_arr + 1})",
                                   ids(narrow), ids(slot)))
            if arr.bit_count() - size > 1:
                out.append(Finding("inclusion", f"P({t},{t_arr + 1},{t_arr + 1}) adds >1 over P({t},{t_arr},{t_arr})",
                                   ids(narrow), ids(arr)))
            if slot.bit_count() - size > 1:
                out.append(Finding("inclusion", f"P({t},{t_arr},{t_arr + 1}) adds >1 over P({t},{t_arr},{t_arr})",
                                   ids(narrow), ids(slot)))
            if later is not None and k:
                later_lane = _NESTED[k - 1][0]
                later_mask, later_weight = later[0][later_lane], later[1][later_lane]
                if later_weight > weights[narrow_lane]:  # one engine: one scale
                    out.append(
                        Finding("inclusion", f"V({t + 1},{t_arr},{t_arr}) > V({t},{t_arr},{t_arr})",
                                render_value(Fraction(later_weight, scale)),
                                render_value(Fraction(weights[narrow_lane], scale)))
                    )
                if later_mask & ~narrow and not narrow & sent_bit:
                    out.append(Finding("inclusion", f"P({t + 1},{t_arr},{t_arr}) !<= P({t},{t_arr},{t_arr})",
                                       ids(later_mask), ids(narrow)))
    return out
