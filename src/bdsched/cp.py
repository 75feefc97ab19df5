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
``ge_alpha_times`` of :mod:`bdsched.model` (``Quad17`` is their reference),
applied to the packets' integer weights at the instance's scale: every
guard is homogeneous in the values, so the scale changes no outcome.

All selector lookups (the marginal packets of partial-optimum queries) go
through the run's :class:`~bdsched.offline.QueryEngine`, which reads them
off its memoized base rows; the checkers later ask the same engine, handed
out on the trace.
The engine reads each carry off the run's steps, the one record of what
the policy sent.  The policy reaches the engine only through a
:class:`PartialOracle`, which logs every selector the policy consults with
the step time that consulted it, so tests can assert the lookahead
contract was never violated.  Checker queries are never logged.  The log
is also the only record of which selectors a case consulted:
:func:`trace_records` reads them back from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .model import Instance, Packet, ge_alpha_times, le_r_times, render_value
from .offline import InternalInvariantError, QueryEngine, selector_windows

__all__ = [
    "StepRecord",
    "CaseTrace",
    "PartialOracle",
    "classify_case",
    "run_cp",
    "trace_records",
    "trace_to_jsonl",
    "InternalInvariantError",
]


@dataclass
class StepRecord:
    """What happened at one time step: the leaf case the policy took, or a
    commit or idle step.

    committed is what the step wrote into the register s_{t+1}: a packet id
    to transmit at t+1, the marker "tmp1"/"tmp2" routing step t+1 into case
    family 2/3, or None (register left clear).  Markers are never
    transmitted directly.
    """

    t: int
    case: str  # leaf case label, "commit", or "idle"
    transmitted: int | None
    committed: int | str | None
    fallback: str | None = None  # set when a documented fallback replaced the case action


@dataclass
class CaseTrace:
    """Full run record: per-step records, the selectors the policy
    consulted, and the run's query engine for the checkers to reuse.
    run_cp records exactly one step per time 0..horizon, so steps[t] is the
    step at t.  The steps are the one record of what the policy sent: the
    checks read it from them, and the engine derives each carry from them
    (see :meth:`bdsched.offline.QueryEngine.carry`)."""

    steps: list[StepRecord]
    consulted: list[tuple[int, str, int, int]]  # (step time, kind, base, i)
    engine: QueryEngine

    @property
    def queries(self) -> list[tuple[int, int, int, int]]:
        """(step time, t, t', t''): each consultation's wide, then narrow window."""
        return [(now, *w) for now, kind, base, i in self.consulted for w in selector_windows(kind, base, i) if w]

    def max_lookahead(self) -> int:
        """Largest arrival end base + i of a selector minus its step time."""
        return max((base + i - now for now, _, base, i in self.consulted), default=0)


class PartialOracle:
    """The policy's view of the run's query engine.

    Every selector the policy consults is logged as (step time, kind, base,
    i), so the lookahead contract (arrival window never beyond step time + 1)
    is checkable after the fact.
    """

    def __init__(self, engine: QueryEngine, log: list[tuple[int, str, int, int]]):
        self._engine = engine
        self._log = log
        self.now = 0
        self.weights = engine.inst.weights

    def m(self, t: int, i: int) -> Packet | None:
        self._log.append((self.now, "m", t, i))
        return self._engine.m(t, i)

    def q(self, t: int, i: int) -> Packet | None:
        self._log.append((self.now, "q", t, i))
        return self._engine.q(t, i)


def _weight(weights: dict[int, int], p: Packet | None) -> int:
    """Weight of a possibly-absent selector packet; absent counts as zero, so
    an absent packet can never win a positive threshold test."""
    return weights[p.id] if p is not None else 0


def _dispatch_case1(oracle: PartialOracle, t: int) -> StepRecord:
    m0 = oracle.m(t, 0)
    if m0 is None:
        raise InternalInvariantError(f"t={t}: non-empty buffer but no best packet")
    if m0.deadline == t:
        return StepRecord(t, "1.1", m0.id, None)

    m1 = oracle.m(t, 1)
    if m1 is None:
        # Nothing joins even with the t+1 arrivals: the buffer is just m0.
        # Send it; there is nothing to precommit.
        return StepRecord(t, "1.2.2", m0.id, None, fallback="m1-absent")
    if m1.deadline == t:
        return StepRecord(t, "1.2.1", m1.id, m0.id)
    if m1.deadline == t + 1:
        return StepRecord(t, "1.2.2", m0.id, m1.id)

    q1 = oracle.q(t, 1)
    w = oracle.weights
    wm0, wm1, wq1 = w[m0.id], w[m1.id], _weight(w, q1)

    def q1_now(case: str, committed: int | str) -> StepRecord:
        # The guard selected q1 for transmission.  q1 exists here (an absent
        # selector has value 0 and cannot pass either positive threshold),
        # but it may be released only at t+1, in which case it cannot be
        # sent now: transmit the best pending packet instead and leave the
        # register clear so t+1 re-dispatches with full information.
        assert q1 is not None
        if q1.release <= t:
            return StepRecord(t, case, q1.id, committed)
        return StepRecord(t, case, m0.id, None, fallback="q1-unreleased")

    if wm0 >= wm1:
        if ge_alpha_times(wq1, wm1):
            return q1_now("1.2.3.1", m0.id)
        return StepRecord(t, "1.2.3.2", m0.id, m1.id)
    if le_r_times(wq1 + wm0 + wm1, wm0 + wm1):
        return StepRecord(t, "1.2.3.3", m0.id, m1.id)
    return q1_now("1.2.3.4", "tmp1")


def _dispatch_case2(oracle: PartialOracle, t: int) -> StepRecord:
    base = t - 1
    m0, m1, m2 = (oracle.m(base, i) for i in range(3))
    q1, q2 = oracle.q(base, 1), oracle.q(base, 2)
    if m0 is None or m1 is None:
        raise InternalInvariantError(f"t={t}: tmp1 state without the packets that created it")
    w = oracle.weights
    wm0, wm1, wm2, wq1, wq2 = w[m0.id], w[m1.id], _weight(w, m2), _weight(w, q1), _weight(w, q2)

    if le_r_times(wm0 + wm1 + wm2, wq1 + wm0 + wm1):
        return StepRecord(t, "2.1", m0.id, m1.id)
    # beyond here the guard forces a real packet gained from the t+1 arrivals
    assert m2 is not None
    if m2.deadline == t + 1:
        return StepRecord(t, "2.2.1", m1.id, m2.id)
    if q2 != q1:
        return StepRecord(t, "2.2.2.1", m1.id, None)
    if le_r_times(wq2 + wm0 + wm1 + wm2, wq1 + wm1 + wm2):
        return StepRecord(t, "2.2.2.2", m1.id, m2.id)
    return StepRecord(t, "2.2.2.3", m0.id, "tmp2")


def _dispatch_case3(oracle: PartialOracle, t: int) -> StepRecord:
    base = t - 2
    m0, m1, m2, m3 = (oracle.m(base, i) for i in range(4))
    q1, q3 = oracle.q(base, 1), oracle.q(base, 3)
    if m1 is None or m2 is None:
        raise InternalInvariantError(f"t={t}: tmp2 state without the packets that created it")
    w = oracle.weights
    wm0, wm1, wm2, wm3, wq1 = _weight(w, m0), w[m1.id], w[m2.id], _weight(w, m3), _weight(w, q1)

    if le_r_times(wm0 + wm1 + wm2 + wm3, wq1 + wm0 + wm1 + wm2):
        return StepRecord(t, "3.1", m1.id, m2.id)
    assert m3 is not None
    if m3.deadline == t + 1:
        return StepRecord(t, "3.2.1", m2.id, m3.id)
    if q3 != q1:
        return StepRecord(t, "3.2.2", m2.id, None)
    return StepRecord(t, "3.2.3", m2.id, m3.id)


def classify_case(oracle: PartialOracle, t: int, state: str | None) -> StepRecord:
    """Pick the unique leaf case for the transmission subphase at t.

    `state` is s_t and must not be a commit (commits are executed directly,
    not classified).
    """
    if state is None:
        return _dispatch_case1(oracle, t)
    if state == "tmp1":
        return _dispatch_case2(oracle, t)
    if state == "tmp2":
        return _dispatch_case3(oracle, t)
    raise ValueError(f"cannot classify a {state!r} state")


def run_cp(inst: Instance) -> CaseTrace:
    """Simulate the policy over the whole instance.

    Returns the run's trace: one record per time step 0..horizon, whose
    transmissions are the policy's schedule, the policy's log of consulted
    selectors for lookahead audits, and the query engine that answered it.
    Every send, committed or chosen by a case, must be a pending packet
    inside its window; anything else raises InternalInvariantError.
    """
    arrivals = inst.arrivals
    consulted: list[tuple[int, str, int, int]] = []
    steps: list[StepRecord] = []
    engine = QueryEngine(inst, steps)
    oracle = PartialOracle(engine, consulted)
    state: int | str | None = None  # s_t; the step at t writes s_{t+1}
    pending: dict[int, Packet] = {}

    for t in range(0, inst.horizon + 1):
        for p in arrivals.get(t, ()):
            pending[p.id] = p
        oracle.now = t

        if not pending:
            if state is not None:
                raise InternalInvariantError(f"t={t}: empty buffer but s_t = {state}")
            rec = StepRecord(t, "idle", None, None)
        else:
            rec = StepRecord(t, "commit", state, None) if isinstance(state, int) else classify_case(oracle, t, state)
            p = pending.pop(rec.transmitted, None)
            if p is None or not (p.release <= t <= p.deadline):
                raise InternalInvariantError(
                    f"t={t}: case {rec.case} transmits packet {rec.transmitted}, which is not pending"
                )
        steps.append(rec)
        state = rec.committed

        pending = {pid: p for pid, p in pending.items() if p.deadline > t}

    if state is not None:
        raise InternalInvariantError(f"commitment left beyond the horizon: s_{inst.horizon + 1} = {state}")
    return CaseTrace(steps, consulted, engine)


def _consulted(trace: CaseTrace) -> dict[int, dict[str, list[dict]]]:
    """Step time -> the m and q selectors its case consulted, in order, read
    from the policy's log.  The run's engine answers each from its memoized
    rows, so nothing is solved again."""
    consulted: dict[int, dict[str, list[dict]]] = {}
    for now, kind, base, i in trace.consulted:
        p = trace.engine.gain(kind, base, i)
        consulted.setdefault(now, {"m": [], "q": []})[kind].append(
            {"name": f"{kind}{i}", "base": base, "id": p.id if p else None,
             "value": render_value(p.value) if p else "0"}
        )
    return consulted


def trace_records(trace: CaseTrace) -> list[dict]:
    """One record per time step: the step and the selectors it consulted."""
    consulted = _consulted(trace)
    records = []
    for rec in trace.steps:
        doc = {
            "t": rec.t,
            "case": rec.case,
            "transmitted": rec.transmitted,
            "committed": rec.committed,
            **consulted.get(rec.t, {"m": [], "q": []}),
        }
        if rec.fallback:
            doc["fallback"] = rec.fallback
        records.append(doc)
    return records


def trace_to_jsonl(trace: CaseTrace) -> str:
    """trace_records as one JSON object per time step, newline separated."""
    return "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in trace_records(trace))
