"""Experiment runners: single-instance checks, exhaustive certification
sweeps, fuzz campaigns, and algorithm comparison tables.

Campaign outputs are byte-stable: rows are emitted in instance order, all
numbers render as exact rationals plus a fixed-width decimal, and verdict
columns come from the exact integer predicates of :mod:`bdsched.model`
(``Quad17`` is only their reference), never from the decimals.

Results and summaries keep profits as integer weights at each instance's
scale: a result holds its :class:`~bdsched.analysis.IntervalReport`, which
totals both timelines as weights, and a summary derives ``max_ratio`` from
its ``max_weights`` when read.  So a summary-only campaign builds no
``Fraction`` until it renders; rows, ``run`` and ``compare`` build the
rationals they render.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import count, zip_longest
from typing import Callable, Iterable, Sequence

from .analysis import (
    Finding,
    IntervalReport,
    PartitionError,
    build_intervals,
    check_forced_opt,
    check_inclusions,
    check_interval_bounds,
    check_lemma_bounds,
)
from .cp import CaseTrace, run_cp
from .generators import GridSpec, RandomConfig, enumerate_bases, enumerate_instances, gen_random, greedy_baseline
from .model import (
    Instance,
    Packet,
    Rat,
    instance_hash,
    instance_to_dict,
    profit,
    render_decimal,
    render_value,
)
from .offline import DPOracle, InternalInvariantError, opt_full

__all__ = [
    "CheckConfig",
    "InstanceResult",
    "Summary",
    "Report",
    "evaluate",
    "certify",
    "check_instance",
    "CRASHES",
    "check_or_crash",
    "run_exhaustive",
    "run_fuzz",
    "cross_check_queries",
    "minimize_witness",
    "compare_algorithms",
    "render_rows_csv",
    "summary_to_dict",
    "report_to_json",
]

CSV_HEADER = "instance_hash,v_cp,v_opt,v_greedy,ratio_exact,ratio_decimal,within_bound,worst_interval_ratio,findings"


@dataclass(frozen=True)
class CheckConfig:
    """Which per-instance checks a campaign performs."""

    inclusions: bool = False
    lemma_bounds: bool = False
    forced_opt: bool = False
    cross_check: bool = False


@dataclass
class InstanceResult:
    """Everything measured on one instance.

    ``report`` holds the two profits and the intervals as integer weights at
    the instance's scale, and the global verdict; a crash carries an empty
    report.  The row-only column ``v_greedy`` is computed from the stored
    instance the first time a row or a command reads it.
    """

    instance: Instance
    report: IntervalReport
    findings: list[Finding] = field(default_factory=list)
    cases: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.report.global_within_bound and not self.findings

    @cached_property
    def v_greedy(self) -> Rat:
        return profit(greedy_baseline(self.instance), self.instance)


def evaluate(inst: Instance) -> tuple[CaseTrace, dict[int, int], IntervalReport]:
    """Run the policy and the optimum on one instance and compare their
    timelines interval by interval.

    Returns (trace, opt_sched, interval_report).
    """
    trace = run_cp(inst)
    opt_sched = opt_full(trace.engine)
    return trace, opt_sched, build_intervals(trace, opt_sched)


def certify(run: tuple, config: CheckConfig) -> InstanceResult:
    """Every configured check on an evaluated run, gathered into one result
    about the run's own instance, read from its engine."""
    trace, opt_sched, report = run
    findings = check_interval_bounds(report)
    if config.lemma_bounds:
        findings += check_lemma_bounds(trace, report)
    if config.forced_opt:
        findings += check_forced_opt(trace, report, opt_sched)
    if config.inclusions:
        findings += check_inclusions(trace)
    if config.cross_check:
        findings += cross_check_queries(trace)

    return InstanceResult(trace.engine.inst, report, findings, tuple(rec.case for rec in trace.steps))


def check_instance(inst: Instance, config: CheckConfig = CheckConfig()) -> InstanceResult:
    """Run the policy and the optimum, then every configured check."""
    return certify(evaluate(inst), config)


#: What a fault of the program on one instance raises: a broken run
#: invariant, a case chain no interval pattern matches, a failed assertion.
CRASHES = (InternalInvariantError, PartitionError, AssertionError)


def check_or_crash(inst: Instance, config: CheckConfig) -> InstanceResult:
    """check_instance, with a fault of the program on this instance (one of
    CRASHES) turned into a `crash` finding that names the exception.  The
    instance counts as a violation; it adds no cases and no ratio."""
    try:
        return check_instance(inst, config)
    except CRASHES as exc:
        crash = Finding("crash", f"{type(exc).__name__}: {exc}", "-", "-")
        return InstanceResult(inst, IntervalReport((), 0, 0, inst.scale), [crash])


def online_buffers(trace: CaseTrace) -> dict[int, set[int]]:
    """B(t) for every time t at which it is non-empty, by a scan of its own:
    the packets released before t, with deadline >= t, that no step of
    `trace` sent before t.  It reads neither the run's carries nor the
    2-bounded shape the carry rests on."""
    sent = {rec.transmitted: rec.t for rec in trace.steps if rec.transmitted is not None}
    buffers: dict[int, set[int]] = {}
    for p in trace.engine.inst.packets:
        for t in range(p.release + 1, min(p.deadline, sent.get(p.id, p.deadline)) + 1):
            buffers.setdefault(t, set()).add(p.id)
    return buffers


def cross_check_queries(trace: CaseTrace) -> list[Finding]:
    """Replay every partial-optimum query the policy issued, then the
    optimum's window (0, h, h) of an instance with a slot, against the
    dynamic-programming oracle, one DPOracle of the run's instance, seeded
    with all of B(t) from online_buffers: the answer the run's query engine
    gives (the one the policy, the checks and opt_full consumed, seeded
    with the carry alone) must agree exactly in members and total value, so
    the reduction to the carry is checked too.  The oracle scans, scales
    and ranks the packets once, on its own, and answers every window from
    that index; both answers index the same rank table unless the engine's
    is wrong, and then they compare by members.  Every window is checked,
    whatever its size; the tests hold a subset enumeration as the oracle's
    reference."""
    out: list[Finding] = []
    engine = trace.engine
    inst = engine.inst
    buffers = online_buffers(trace)
    windows = dict.fromkeys((t, t_arr, t_slot) for _now, t, t_arr, t_slot in trace.queries)
    if inst.horizon >= 0:
        windows[(0, inst.horizon, inst.horizon)] = None
    oracle = DPOracle(inst)
    for t, t_arr, t_slot in windows:
        got = engine.p(t, t_arr, t_slot)
        ref = oracle.partial((t, t_arr, t_slot), buffers.get(t, ()))
        if got != ref:
            out.append(
                Finding(
                    "oracle-mismatch",
                    f"query ({t},{t_arr},{t_slot})",
                    f"{sorted(got.member_set)}={render_value(got.total_value)}",
                    f"{sorted(ref.member_set)}={render_value(ref.total_value)}",
                )
            )
    return out


@dataclass
class Summary:
    """Campaign aggregate; shards merge to the same result as a serial scan
    (ratio ties resolved by the lowest instance index).

    A result absorbed with `twins` and `translates` stands for twins *
    (1 + translates) instances (see run_exhaustive): each of its `twins`
    (itself and the bases that drop to it once their inert packets go) and
    each of their copies shifted by s = 1 .. translates steps adds one
    instance, its verdict, findings and cases again, and each shifted copy
    adds s leading `idle` steps, twins*translates*(translates+1)/2 in all.
    The ratio and the violation order need nothing, because the absorbed
    result has the lowest index of its class.

    Ratios compare as integer weights: max_weights is (w_opt, w_cp) at the
    argmax, at its instance's scale, and two ratios w_opt / w_cp compare by
    cross-multiplication, in which each instance's scale cancels.  The
    rational max_ratio is derived from them each time it is read.
    """

    instances: int = 0
    violations: int = 0
    max_weights: tuple[int, int] | None = None  # (w_opt, w_cp) at the argmax
    argmax_index: int | None = None
    argmax_instance: Instance | None = None
    first_violation: InstanceResult | None = None
    first_violation_index: int | None = None
    findings_by_kind: dict[str, int] = field(default_factory=dict)
    cases_seen: dict[str, int] = field(default_factory=dict)

    @property
    def max_ratio(self) -> tuple[Rat, Rat] | None:
        """(v_opt, v_cp) at the argmax, or None before any result with a
        positive policy profit."""
        if self.max_weights is None:
            return None
        w_opt, w_cp = self.max_weights
        scale = self.argmax_instance.scale
        return Fraction(w_opt, scale), Fraction(w_cp, scale)

    def _beats_max(self, w_opt: int, w_cp: int, index: int) -> bool:
        if self.max_weights is None:
            return True
        cur_opt, cur_cp = self.max_weights
        lhs, rhs = w_opt * cur_cp, cur_opt * w_cp
        return lhs > rhs or (lhs == rhs and index < self.argmax_index)

    def absorb_result(self, res: InstanceResult, index: int = 0, translates: int = 0, twins: int = 1) -> None:
        copies = twins * (1 + translates)
        self.instances += copies
        if not res.ok:
            self.violations += copies
            if self.first_violation_index is None or index < self.first_violation_index:
                self.first_violation = res
                self.first_violation_index = index
        for f in res.findings:
            self.findings_by_kind[f.kind] = self.findings_by_kind.get(f.kind, 0) + copies
        report = res.report
        if not report.global_within_bound:
            self.findings_by_kind["global-bound"] = self.findings_by_kind.get("global-bound", 0) + copies
        for label in res.cases:
            self.cases_seen[label] = self.cases_seen.get(label, 0) + copies
        if translates and res.cases:  # a crash records no steps, nor do its copies
            self.cases_seen["idle"] = self.cases_seen.get("idle", 0) + twins * translates * (translates + 1) // 2
        if report.w_cp > 0 and self._beats_max(report.w_opt, report.w_cp, index):
            self.max_weights = (report.w_opt, report.w_cp)
            self.argmax_index = index
            self.argmax_instance = res.instance

    def merge(self, other: "Summary") -> None:
        self.instances += other.instances
        self.violations += other.violations
        if other.first_violation_index is not None and (
            self.first_violation_index is None or other.first_violation_index < self.first_violation_index
        ):
            self.first_violation = other.first_violation
            self.first_violation_index = other.first_violation_index
        for k, v in other.findings_by_kind.items():
            self.findings_by_kind[k] = self.findings_by_kind.get(k, 0) + v
        for k, v in other.cases_seen.items():
            self.cases_seen[k] = self.cases_seen.get(k, 0) + v
        if other.max_weights is not None and self._beats_max(*other.max_weights, other.argmax_index):
            self.max_weights = other.max_weights
            self.argmax_index = other.argmax_index
            self.argmax_instance = other.argmax_instance


@dataclass
class Report:
    """A campaign's summary plus (optionally) its per-instance rows, each one
    CSV line rendered by the process that checked its instance."""

    summary: Summary
    rows: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.summary.violations == 0


#: What a campaign source yields: (index, instance, translates, twins).
Indexed = Iterable[tuple[int, Instance, int, int]]


def _scan(indexed: Indexed, config: CheckConfig, keep_rows: bool) -> Report:
    summary = Summary()
    rows: list[str] = []
    for index, inst, translates, twins in indexed:
        res = check_or_crash(inst, config)
        summary.absorb_result(res, index, translates, twins)
        if keep_rows:
            rows.append(_row_to_csv(res))
    return Report(summary, rows)


def _grid(spec: GridSpec, workers: int, residue: int) -> Indexed:
    return ((i, inst, 0, 1) for i, inst in zip(count(residue, workers), enumerate_instances(spec, workers, residue)))


def _seeded(seeds: Sequence[int], config: RandomConfig, workers: int, residue: int) -> Indexed:
    return ((s, gen_random(s, config), 0, 1) for s in seeds[residue::workers])


def _send_shard(conn, scan: Callable[[], Report]) -> None:
    """A child's whole life: send (True, report), or (False, exc) if the scan
    raised."""
    try:
        reply = (True, scan())
    except Exception as exc:  # the parent re-raises it
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def _campaign(
    source: Callable[[int, int], Indexed],
    config: CheckConfig,
    workers: int,
    keep_rows: bool,
) -> Report:
    """Check every (index, instance, translates, twins) of a source.

    With workers > 1 the campaign runs in `workers` processes in all: the
    calling process forks one child per residue 1 .. workers - 1, checks
    residue 0 itself, then reads each child's shard report from its one-way
    pipe in residue order.  Every process builds and checks only the
    instances of its own residue class of the source; the children inherit
    the source by the fork, so it need not be picklable.  The shard
    summaries merge in residue order and row i comes from shard i mod
    workers.

    A child whose scan raised sends the exception and the caller re-raises
    it; a child that exits without sending is a RuntimeError naming its
    residue and exit code.  On any error the caller terminates every child
    before joining it: a child blocked in send on a full pipe holds its own
    copy of the read end, so it would never return."""
    if workers <= 1:
        return _scan(source(1, 0), config, keep_rows)
    import multiprocessing  # here, not at the top: a serial campaign never pays for it

    def scan(residue: int) -> Report:
        return _scan(source(workers, residue), config, keep_rows)

    ctx = multiprocessing.get_context("fork")
    children = []
    finished = False
    try:
        for residue in range(1, workers):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_shard, args=(writer, partial(scan, residue)), daemon=True)
            child.start()
            children.append((residue, child, reader))
            writer.close()  # so the reader sees EOF once the child is gone
        shards = [scan(0)]
        for residue, child, reader in children:
            try:
                sent, payload = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"campaign worker for residue {residue} exited with code {child.exitcode} before sending its shard"
                ) from None
            if not sent:
                raise payload
            shards.append(payload)
        finished = True
    finally:
        for _residue, child, reader in children:
            if not finished:
                child.terminate()
            child.join()
            reader.close()
    merged = Summary()
    for shard in shards:
        merged.merge(shard.summary)
    rows = [row for group in zip_longest(*(shard.rows for shard in shards)) for row in group if row is not None]
    return Report(merged, rows)


def run_exhaustive(
    spec: GridSpec,
    config: CheckConfig = CheckConfig(forced_opt=True),
    workers: int = 1,
    keep_rows: bool = False,
) -> Report:
    """Check every instance of the grid, indexed by enumeration order.

    A campaign with rows checks every instance, since each row is its own
    instance's.  A summary-only campaign checks only the grid's irreducible
    bases, the instances with a packet released at 0 and at most one loop
    and two edges per release, and the summary folds in each one's twins
    and their translates exactly (see enumerate_bases and Summary).

    Folding the twins is sound because an inert packet, a loop ranked after
    another loop of its release or an edge ranked after two edges of its
    release, changes nothing a check reads:

    * the greedy behind every partial optimum and opt_full offers packets
      their slots in rank order; every component of slots has at most one
      free slot, and a full component stays full.  So once release r's
      best loop has been offered, slot r's component is full, and once its
      best two edges have, the component of slots r and r + 1 is full: an
      inert packet, ranked after them, joins no P(t, t', t'') and no
      opt_full answer, nor the optimum dp_partial finds when
      cross_check_queries seeds it with all of B(t);
    * the carry of B(t) is the best edge of release t - 1 that step t - 1
      did not send, one of the release's best two, so it is never inert;
      and the policy sends and commits only selector packets, the members
      of those answers;
    * while an inert packet is pending, so is a better sibling of its
      release, so run_cp idles at exactly the base's times;
    * a twin has more packets than its base, so it comes later in the
      enumeration, and the argmax and first-violation ties resolve to the
      base.

    Folding the translates is sound because every check sees a translate by
    s steps as its base run after s idle steps:

    * run_cp idles while the buffer is empty, and otherwise compares a
      release or deadline only with the step time; model.rank_key orders
      packets by value, deadline, release and id, and a shift keeps every
      (deadline, release) order.  So run_cp, opt_full and every
      partial-optimum query answer with the base's packets at times shifted
      by s, and the cases repeat after s `idle` steps.
    * The interval comparison adds one idle span per leading idle step, with
      zero profit on both timelines (nothing is released before s), so the
      global and interval bounds, the coverage test and the worst interval
      are the base's.  check_lemma_bounds skips idle spans.
    * check_forced_opt reads only the intervals cut short by cases 2.2.2.1
      and 3.2.2, which repeat at shifted times with shifted selectors and
      shifted optimum spans, so an interval it skips is skipped in the base.
    * check_inclusions at t >= s repeats the base's relations at t - s.  At
      a leading idle time t < s there is no carry, so the candidates of a
      query are the packets released in [s, t']: empty while t' < s, where
      every relation holds trivially; when t' = s - 1 and the grown query
      reaches s, only slot s is usable, so it adds at most one packet to the
      empty set; and when t' >= s the query equals the one at base s, a relation
      already checked at t = s (the cross-base relation compares two equal
      sets, since nothing is sent before s).
    * cross_check_queries replays the policy's queries, and the policy
      issues none while idle, and then the optimum's window, whose engine
      answer and oracle answer are both the base's, shifted by s.
    """
    source = _grid if keep_rows else enumerate_bases
    return _campaign(partial(source, spec), config, workers, keep_rows)


def run_fuzz(
    seeds: Sequence[int],
    config_random: RandomConfig = RandomConfig(),
    config_checks: CheckConfig = CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True),
    workers: int = 1,
    keep_rows: bool = False,
) -> Report:
    """Check gen_random(seed) for every seed, indexed by seed."""
    return _campaign(partial(_seeded, seeds, config_random), config_checks, workers, keep_rows)


def minimize_witness(inst: Instance, still_bad: Callable[[Instance], bool]) -> Instance:
    """Shrink a violating instance while the violation persists.

    Passes alternate packet removal with value simplification (try 1, then
    the floor integer) until a fixpoint.
    """
    current = inst
    changed = True
    while changed:
        changed = False
        for drop in range(len(current.packets)):
            candidate = Instance(p for i, p in enumerate(current.packets) if i != drop)
            if still_bad(candidate):
                current = candidate
                changed = True
                break
        if changed:
            continue
        for idx, p in enumerate(current.packets):
            for simpler in (Fraction(1), Fraction(p.value.numerator // p.value.denominator)):
                if simpler <= 0 or simpler == p.value:
                    continue
                packets = list(current.packets)
                packets[idx] = Packet(p.id, p.release, p.deadline, simpler)
                candidate = Instance(packets)
                if still_bad(candidate):
                    current = candidate
                    changed = True
                    break
            if changed:
                break
    return current


def compare_algorithms(inst: Instance) -> list[dict[str, str]]:
    """Exact profits and optimum-vs-algorithm ratios for the comparison table."""
    res = check_instance(inst)
    v_opt = res.report.v_opt
    rows = []
    for name, value in (("cp", res.report.v_cp), ("greedy", res.v_greedy), ("opt", v_opt)):
        ratio = v_opt / value if value else Fraction(0)
        rows.append(
            {
                "algorithm": name,
                "profit": render_value(value),
                "profit_decimal": render_decimal(value),
                "opt_ratio": render_value(ratio),
                "opt_ratio_decimal": render_decimal(ratio),
            }
        )
    return rows


def _row_to_csv(res: InstanceResult) -> str:
    report = res.report
    ratio = Fraction(report.w_opt, report.w_cp) if report.w_cp else Fraction(0)
    worst = report.worst_interval
    return ",".join(
        [
            instance_hash(res.instance),
            render_value(report.v_cp),
            render_value(report.v_opt),
            render_value(res.v_greedy),
            render_value(ratio),
            render_decimal(ratio),
            "yes" if report.global_within_bound else "no",
            render_value(Fraction(worst.w_opt, worst.w_cp)) if worst and worst.w_cp else "",
            str(len(res.findings)),
        ]
    )


def render_rows_csv(rows: Sequence[str]) -> str:
    """The header and the rendered row lines, one line each."""
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def summary_to_dict(summary: Summary) -> dict:
    doc: dict = {
        "instances": summary.instances,
        "violations": summary.violations,
        "findings_by_kind": dict(sorted(summary.findings_by_kind.items())),
        "cases_seen": dict(sorted(summary.cases_seen.items())),
    }
    max_ratio = summary.max_ratio
    if max_ratio is not None:
        v_opt, v_cp = max_ratio
        ratio = v_opt / v_cp
        doc["max_ratio"] = {
            "v_opt": render_value(v_opt),
            "v_cp": render_value(v_cp),
            "exact": render_value(ratio),
            "decimal": render_decimal(ratio),
        }
        if summary.argmax_instance is not None:
            doc["argmax_instance"] = instance_to_dict(summary.argmax_instance)
    if summary.first_violation is not None:
        doc["first_violation"] = {
            "instance": instance_to_dict(summary.first_violation.instance),
            "findings": [f.to_dict() for f in summary.first_violation.findings],
        }
    return doc


def report_to_json(report: Report) -> str:
    """The campaign summary as sorted JSON; rows are emitted only as CSV."""
    return json.dumps({"summary": summary_to_dict(report.summary)}, indent=2, sort_keys=True) + "\n"
