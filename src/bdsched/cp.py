"""The lookahead scheduling policy and its execution trace.

Each integer time step has three subphases: packets released at t arrive,
at most one packet is transmitted, and packets whose deadline is t are
discarded.  While choosing what to transmit at t the policy may inspect
the packets arriving at t+1 (one-step lookahead) but nothing later.

The policy keeps a one-slot precommitment register: a case executed at t
may pin the packet to transmit at t+1, or park the marker ``tmp1``/``tmp2``
meaning "the decision for t+1 is deferred into the case family 2/3".  Leaf
cases are labelled 1.1 .. 3.2.3; every threshold in their guards is
compared exactly in Q(sqrt17) by the integer predicates ``le_r_times`` and
``ge_alpha_times`` of :mod:`bdsched.model` (``Quad17`` is their reference).

All selector lookups (the marginal packets of partial-optimum queries) go
through the run's :class:`~bdsched.offline.QueryEngine`, which memoizes
them; the checkers later ask the same engine, handed out on the trace.  The
policy reaches the engine only through a :class:`PartialOracle`, which logs
every query the policy issues with the step time that issued it, so tests
can assert the lookahead contract was never violated.  Checker queries are
never logged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .model import BufferState, Instance, Packet, Rat, Schedule, ge_alpha_times, le_r_times, render_value
from .offline import InternalInvariantError, QueryEngine

__all__ = [
    "Decision",
    "NULL",
    "TMP1",
    "TMP2",
    "StepRecord",
    "CaseTrace",
    "PartialOracle",
    "CaseDecision",
    "classify_case",
    "run_cp",
    "trace_to_jsonl",
    "InternalInvariantError",
]


@dataclass(frozen=True)
class Decision:
    """Content of the precommitment register s_t.

    kind is one of "null", "commit", "tmp1", "tmp2"; packet_id is set only
    for commits.  tmp markers are never transmitted directly: they route
    the next step into case family 2 or 3.
    """

    kind: str
    packet_id: int | None = None

    def __str__(self) -> str:
        return f"commit({self.packet_id})" if self.kind == "commit" else self.kind


NULL = Decision("null")
TMP1 = Decision("tmp1")
TMP2 = Decision("tmp2")


def commit(pid: int) -> Decision:
    return Decision("commit", pid)


@dataclass(frozen=True)
class SelectorView:
    """One selector consultation recorded in the trace."""

    name: str  # e.g. "m0", "q1" -- relative to the base time of the family
    base: int  # the query's base time t
    packet_id: int | None
    value: Rat  # 0 when absent


@dataclass
class StepRecord:
    """What happened at one time step."""

    t: int
    case: str  # leaf case label, "commit", or "idle"
    transmitted: int | None
    committed: Decision | None  # decision written into s_{t+1}, if any
    m_consulted: list[SelectorView] = field(default_factory=list)
    q_consulted: list[SelectorView] = field(default_factory=list)
    fallback: str | None = None  # set when a documented fallback replaced the case action


@dataclass
class CaseTrace:
    """Full run record: per-step records, buffer history, the policy's query
    log, and the run's query engine for the checkers to reuse."""

    steps: list[StepRecord]
    buffers: dict[int, BufferState]  # B(t): pending ids before arrivals at t
    queries: list[tuple[int, int, int, int]]  # (step time, t, t', t'')
    engine: QueryEngine

    def fallback_events(self) -> list[StepRecord]:
        return [rec for rec in self.steps if rec.fallback]

    def max_lookahead(self) -> int:
        """Largest arrival_end - step_time over all issued queries."""
        return max((t_arr - now for now, _, t_arr, _ in self.queries), default=0)


class PartialOracle:
    """The policy's view of the run's query engine.

    Every query the policy issues is logged with the step time that issued
    it, so the lookahead contract (arrival window never beyond step time + 1)
    is checkable after the fact.
    """

    def __init__(self, engine: QueryEngine, log: list[tuple[int, int, int, int]]):
        self._engine = engine
        self._log = log
        self.now = 0

    def m(self, t: int, i: int) -> Packet | None:
        self._log += ((self.now, t, t + i, t + i), (self.now, t, t + i - 1, t + i - 1))
        return self._engine.m(t, i)

    def q(self, t: int, i: int) -> Packet | None:
        self._log += ((self.now, t, t + i, t + i + 1), (self.now, t, t + i, t + i))
        return self._engine.q(t, i)


def _val(p: Packet | None) -> Rat:
    """Value of a possibly-absent selector packet; absent counts as zero, so
    an absent packet can never win a positive threshold test."""
    return p.value if p is not None else Fraction(0)


def _view(name: str, base: int, p: Packet | None) -> SelectorView:
    return SelectorView(name, base, p.id if p else None, _val(p))


def _same_packet(x: Packet | None, y: Packet | None) -> bool:
    """Identity test on selector packets: compares ids; two absences agree."""
    if x is None and y is None:
        return True
    if x is None or y is None:
        return False
    return x.id == y.id


@dataclass
class CaseDecision:
    """Outcome of classifying one transmission subphase."""

    label: str
    transmit: int  # packet id to send now
    commit_next: Decision | None  # what to write into s_{t+1}
    m_consulted: list[SelectorView]
    q_consulted: list[SelectorView]
    fallback: str | None = None


def _dispatch_case1(oracle: PartialOracle, t: int) -> CaseDecision:
    m0 = oracle.m(t, 0)
    if m0 is None:
        raise InternalInvariantError(f"t={t}: non-empty buffer but no best packet")
    mv = [_view("m0", t, m0)]
    qv: list[SelectorView] = []
    if m0.deadline == t:
        return CaseDecision("1.1", m0.id, None, mv, qv)

    m1 = oracle.m(t, 1)
    mv.append(_view("m1", t, m1))
    if m1 is None:
        # Nothing joins even with the t+1 arrivals: the buffer is just m0.
        # Send it; there is nothing to precommit.
        return CaseDecision("1.2.2", m0.id, None, mv, qv, fallback="m1-absent")
    if m1.deadline == t:
        return CaseDecision("1.2.1", m1.id, commit(m0.id), mv, qv)
    if m1.deadline == t + 1:
        return CaseDecision("1.2.2", m0.id, commit(m1.id), mv, qv)

    q1 = oracle.q(t, 1)
    qv.append(_view("q1", t, q1))
    vm0, vm1, vq1 = m0.value, m1.value, _val(q1)

    def q1_now(label: str, commit_next: Decision | None) -> CaseDecision:
        # The guard selected q1 for transmission.  q1 exists here (an absent
        # selector has value 0 and cannot pass either positive threshold),
        # but it may be released only at t+1, in which case it cannot be
        # sent now: transmit the best pending packet instead and leave the
        # register clear so t+1 re-dispatches with full information.
        assert q1 is not None
        if q1.release <= t:
            return CaseDecision(label, q1.id, commit_next, mv, qv)
        return CaseDecision(label, m0.id, None, mv, qv, fallback="q1-unreleased")

    if vm0 >= vm1:
        if ge_alpha_times(vq1, vm1):
            return q1_now("1.2.3.1", commit(m0.id))
        return CaseDecision("1.2.3.2", m0.id, commit(m1.id), mv, qv)
    if le_r_times(vq1 + vm0 + vm1, vm0 + vm1):
        return CaseDecision("1.2.3.3", m0.id, commit(m1.id), mv, qv)
    return q1_now("1.2.3.4", TMP1)


def _dispatch_case2(oracle: PartialOracle, t: int) -> CaseDecision:
    base = t - 1
    m0, m1, m2 = (oracle.m(base, i) for i in range(3))
    q1, q2 = oracle.q(base, 1), oracle.q(base, 2)
    mv = [_view("m0", base, m0), _view("m1", base, m1), _view("m2", base, m2)]
    qv = [_view("q1", base, q1), _view("q2", base, q2)]
    if m0 is None or m1 is None:
        raise InternalInvariantError(f"t={t}: tmp1 state without the packets that created it")
    vm0, vm1, vm2, vq1, vq2 = m0.value, m1.value, _val(m2), _val(q1), _val(q2)

    if le_r_times(vm0 + vm1 + vm2, vq1 + vm0 + vm1):
        return CaseDecision("2.1", m0.id, commit(m1.id), mv, qv)
    # beyond here the guard forces a real packet gained from the t+1 arrivals
    assert m2 is not None
    if m2.deadline == t + 1:
        return CaseDecision("2.2.1", m1.id, commit(m2.id), mv, qv)
    if not _same_packet(q2, q1):
        return CaseDecision("2.2.2.1", m1.id, None, mv, qv)
    if le_r_times(vq2 + vm0 + vm1 + vm2, vq1 + vm1 + vm2):
        return CaseDecision("2.2.2.2", m1.id, commit(m2.id), mv, qv)
    return CaseDecision("2.2.2.3", m0.id, TMP2, mv, qv)


def _dispatch_case3(oracle: PartialOracle, t: int) -> CaseDecision:
    base = t - 2
    m0, m1, m2, m3 = (oracle.m(base, i) for i in range(4))
    q1, q3 = oracle.q(base, 1), oracle.q(base, 3)
    mv = [_view("m0", base, m0), _view("m1", base, m1), _view("m2", base, m2), _view("m3", base, m3)]
    qv = [_view("q1", base, q1), _view("q3", base, q3)]
    if m1 is None or m2 is None:
        raise InternalInvariantError(f"t={t}: tmp2 state without the packets that created it")
    vm0, vm1, vm2, vm3 = _val(m0), m1.value, m2.value, _val(m3)
    vq1 = _val(q1)

    if le_r_times(vm0 + vm1 + vm2 + vm3, vq1 + vm0 + vm1 + vm2):
        return CaseDecision("3.1", m1.id, commit(m2.id), mv, qv)
    assert m3 is not None
    if m3.deadline == t + 1:
        return CaseDecision("3.2.1", m2.id, commit(m3.id), mv, qv)
    if not _same_packet(q3, q1):
        return CaseDecision("3.2.2", m2.id, None, mv, qv)
    return CaseDecision("3.2.3", m2.id, commit(m3.id), mv, qv)


def classify_case(oracle: PartialOracle, t: int, state: Decision) -> CaseDecision:
    """Pick the unique leaf case for the transmission subphase at t.

    `state` is s_t and must not be a commit (commits are executed directly,
    not classified).
    """
    if state.kind == "null":
        return _dispatch_case1(oracle, t)
    if state.kind == "tmp1":
        return _dispatch_case2(oracle, t)
    if state.kind == "tmp2":
        return _dispatch_case3(oracle, t)
    raise ValueError(f"cannot classify a {state.kind} state")


def run_cp(inst: Instance) -> tuple[Schedule, CaseTrace]:
    """Simulate the policy over the whole instance.

    Returns the transmission schedule plus a trace with one record per time
    step, the buffer history B(t) needed to replay any selector query, the
    policy's query log for lookahead audits, and the query engine that
    answered it.
    """
    arrivals = inst.arrivals
    buffers: dict[int, BufferState] = {}
    queries: list[tuple[int, int, int, int]] = []
    engine = QueryEngine(inst, buffers)
    oracle = PartialOracle(engine, queries)
    steps: list[StepRecord] = []
    slots: dict[int, int] = {}
    register: dict[int, Decision] = {}
    pending: dict[int, Packet] = {}

    for t in range(0, inst.horizon + 1):
        buffers[t] = BufferState(t, pending.keys())
        for p in arrivals.get(t, ()):
            pending[p.id] = p
        oracle.now = t
        state = register.pop(t, NULL)

        if not pending:
            if state.kind != "null":
                raise InternalInvariantError(f"t={t}: empty buffer but s_t = {state}")
            steps.append(StepRecord(t, "idle", None, None))
        elif state.kind == "commit":
            pid = state.packet_id
            assert pid is not None
            p = pending.get(pid)
            if p is None or not (p.release <= t <= p.deadline):
                raise InternalInvariantError(f"t={t}: committed packet {pid} is not transmittable")
            del pending[pid]
            slots[t] = pid
            steps.append(StepRecord(t, "commit", pid, None))
        else:
            decision = classify_case(oracle, t, state)
            if decision.transmit not in pending:
                raise InternalInvariantError(
                    f"t={t}: case {decision.label} transmits packet {decision.transmit}, which is not pending"
                )
            del pending[decision.transmit]
            slots[t] = decision.transmit
            if decision.commit_next is not None:
                d = decision.commit_next
                if d.kind == "commit":
                    target = inst.by_id(d.packet_id)  # type: ignore[arg-type]
                    if not (target.release <= t + 1 <= target.deadline):
                        raise InternalInvariantError(
                            f"t={t}: case {decision.label} committed packet {d.packet_id} "
                            f"outside its window for slot {t + 1}"
                        )
                register[t + 1] = d
            steps.append(
                StepRecord(
                    t,
                    decision.label,
                    decision.transmit,
                    decision.commit_next,
                    decision.m_consulted,
                    decision.q_consulted,
                    decision.fallback,
                )
            )

        pending = {pid: p for pid, p in pending.items() if p.deadline > t}

    if register:
        raise InternalInvariantError(f"commitments left beyond the horizon: {register}")
    return Schedule(slots), CaseTrace(steps, buffers, queries, engine)


def trace_to_jsonl(trace: CaseTrace) -> str:
    """One JSON object per time step, newline separated."""
    lines = []
    for rec in trace.steps:
        committed: int | str | None
        if rec.committed is None:
            committed = None
        elif rec.committed.kind == "commit":
            committed = rec.committed.packet_id
        else:
            committed = rec.committed.kind
        doc = {
            "t": rec.t,
            "case": rec.case,
            "transmitted": rec.transmitted,
            "committed": committed,
            "m": [
                {"name": v.name, "base": v.base, "id": v.packet_id, "value": render_value(v.value)}
                for v in rec.m_consulted
            ],
            "q": [
                {"name": v.name, "base": v.base, "id": v.packet_id, "value": render_value(v.value)}
                for v in rec.q_consulted
            ],
        }
        if rec.fallback:
            doc["fallback"] = rec.fallback
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
