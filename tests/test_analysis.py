"""Interval partition, shifted spans, and the per-instance bound checkers."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdsched.cp as cp_mod
from bdsched import (
    CheckConfig,
    Instance,
    Interval,
    IntervalReport,
    PartitionError,
    Quad17,
    R,
    RandomConfig,
    build_intervals,
    chain_family,
    check_forced_opt,
    check_inclusions,
    check_interval_bounds,
    check_lemma_bounds,
    dp_partial,
    gen_random,
    partition_cp,
    run_cp,
    tight_family,
)
from bdsched.analysis import FORCED_CASES
from bdsched.harness import check_or_crash, evaluate
from bdsched.model import profit, render_value
from conftest import clairvoyant, grid_bases, mk, sent, set_lane
from test_acceptance import CHAIN_VARIANTS, SWEEP_GRID
from test_offline import small_instances


def interval_report(inst):
    """The interval comparison exactly as every campaign builds it."""
    return evaluate(inst)[-1]


def spans_of(inst):
    trace = run_cp(inst)
    return [(s, e) for s, e, _ in partition_cp(trace)]


def opt_spans_of(inst):
    return [iv.opt_span for iv in interval_report(inst).intervals]


class TestPartitionCp:
    def test_two_singletons(self):
        assert spans_of(mk((0, 0, 5), (1, 1, 3))) == [(0, 0), (1, 1)]

    def test_family2_settle_spans_three_steps(self):
        # 1.2.3.4 then 2.1 covers t..t+2
        assert spans_of(chain_family("2.1")) == [(0, 2)]

    def test_family3_cut_short_spans_three_steps(self):
        # 1.2.3.4, 2.2.2.3, 3.2.2 covers t..t+2; the next step starts fresh
        spans = spans_of(chain_family("3.2.2"))
        assert spans[0] == (0, 2)

    def test_family2_forced_stop_spans_two_steps(self):
        assert spans_of(chain_family("2.2.2.1"))[0] == (0, 1)

    def test_family3_full_spans_four_steps(self):
        assert spans_of(chain_family("3.2.1")) == [(0, 3)]
        assert spans_of(chain_family("2.2.2.3+3.1")) == [(0, 3)]
        assert spans_of(chain_family("3.2.3")) == [(0, 3)]

    def test_pair_case_spans_two_steps(self):
        assert spans_of(mk((0, 1, 5), (0, 0, 4))) == [(0, 1)]

    def test_idle_steps_become_singletons(self):
        assert spans_of(mk((0, 0, 1), (3, 3, 1))) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_empty_run_has_no_intervals(self):
        assert spans_of(Instance(())) == []

    def test_unknown_chain_rejected(self):
        trace = run_cp(mk((0, 0, 5)))
        trace.steps[0].case = "2.1"  # a run can never start inside family 2
        with pytest.raises(PartitionError):
            partition_cp(trace)

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=300, deadline=None)
    def test_spans_tile_zero_to_tau(self, inst):
        trace = run_cp(inst)
        sched = sent(trace)
        spans = partition_cp(trace)
        if not sched:
            assert spans == []
            return
        tau = max(sched)
        expected = 0
        for start, end, _ in spans:
            assert start == expected and start <= end
            expected = end + 1
        assert expected == tau + 1

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=300, deadline=None)
    def test_span_ends_at_the_first_clear_register(self, inst):
        trace = run_cp(inst)
        for start, end, _ in partition_cp(trace):
            assert [rec.committed is None for rec in trace.steps[start : end + 1]] == [False] * (end - start) + [True]


def crash_details(inst, config=CheckConfig()):
    return [(f.kind, f.detail.split(":")[0]) for f in check_or_crash(inst, config).findings]


class TestPartitionFaults:
    """A case that writes the wrong register value is a fault of the
    program: the instance becomes a crash finding instead of being absorbed
    into a neighbouring interval."""

    def test_family2_case_that_forgets_its_commit(self, monkeypatch):
        real = cp_mod._dispatch_case2

        def forgetful(oracle, t):
            rec = real(oracle, t)
            if rec.case == "2.1":
                rec.committed = None
            return rec

        monkeypatch.setattr(cp_mod, "_dispatch_case2", forgetful)
        assert crash_details(chain_family("2.1"), CheckConfig(forced_opt=True)) == [("crash", "PartitionError")]

    def test_single_step_case_that_commits(self, monkeypatch):
        real = cp_mod._dispatch_case1

        def committing(oracle, t):
            rec = real(oracle, t)
            if rec.case == "1.1" and t == 0:
                rec.committed = 1
            return rec

        monkeypatch.setattr(cp_mod, "_dispatch_case1", committing)
        assert crash_details(mk((0, 0, 5), (0, 1, 3))) == [("crash", "PartitionError")]


class TestPartitionOpt:
    def test_no_shift_when_packets_disjoint(self):
        assert opt_spans_of(mk((0, 0, 5), (1, 1, 3))) == [(0, 0), (1, 1)]

    def test_end_shift_when_opt_defers_the_fresh_packet(self):
        # policy sends packet 2 (released 1, deadline 2) at t=1; optimum at t=2
        inst = mk((0, 0, 1), (0, 1, 2), (1, 2, 2))
        opt_sched = clairvoyant(inst)
        assert opt_sched.get(2) == 2
        assert spans_of(inst) == [(0, 1)]
        assert opt_spans_of(inst) == [(0, 2)]

    def test_start_shift_dovetails_with_end_shift(self):
        # consecutive intervals: the end shift of one is the start shift of
        # the next, here leaving the second optimum span empty
        inst = mk((0, 1, 2), (1, 2, 2), (1, 1, 1), (2, 2, 1))
        assert spans_of(inst) == [(0, 1), (2, 2)]
        assert opt_spans_of(inst) == [(0, 2), (3, 2)]

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=300, deadline=None)
    def test_every_opt_transmission_is_covered(self, inst):
        opt_sched = clairvoyant(inst)
        covered = set()
        for start, end in opt_spans_of(inst):
            covered.update(range(start, end + 1))
        for t in opt_sched:
            assert t in covered

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=300, deadline=None)
    def test_shifted_spans_disjoint(self, inst):
        shifted = opt_spans_of(inst)
        # the spans tile from 0: each starts one step after the previous ends
        assert [start for start, _ in shifted] == [0, *(end + 1 for _, end in shifted)][: len(shifted)]
        seen = set()
        for start, end in shifted:
            for t in range(start, end + 1):
                assert t not in seen
                seen.add(t)


class TestIntervalReport:
    def test_identical_runs_ratio_one(self):
        report = interval_report(mk((0, 1, 5), (0, 1, 3)))
        assert len(report.intervals) == 1
        iv = report.intervals[0]
        assert iv.v_cp == 8 and iv.v_opt == 8 and iv.within_bound

    def test_near_threshold_interval(self):
        report = interval_report(mk((0, 0, 1), (0, 1, 2), (1, 2, 2)))
        assert report.v_cp == 4 and report.v_opt == 5
        assert report.global_within_bound
        iv = report.intervals[0]
        assert iv.v_opt == 5 and iv.v_cp == 4 and iv.within_bound

    def test_profit_totals_match_schedules(self):
        inst = chain_family("3.2.3")
        report = interval_report(inst)
        assert report.v_cp == profit(sent(run_cp(inst)), inst)
        assert sum((iv.v_cp for iv in report.intervals), Fraction(0)) == report.v_cp

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=200, deadline=None)
    def test_opt_total_covered_by_intervals(self, inst):
        report = interval_report(inst)
        assert report.opt_covered

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=200, deadline=None)
    def test_interval_bounds_hold_on_fuzz(self, inst):
        report = interval_report(inst)
        assert check_interval_bounds(report) == []


class TestLemmaCheckers:
    def test_no_findings_on_examples(self):
        for inst in (
            mk((0, 0, 5), (0, 1, 3)),
            mk((0, 0, 1), (0, 1, 2), (1, 2, 2)),
            chain_family("2.2.2.1"),
            chain_family("3.2.2"),
        ):
            trace, opt_sched, report = evaluate(inst)
            assert check_lemma_bounds(trace, report) == []
            assert check_forced_opt(trace, report, opt_sched) == []
            assert check_inclusions(trace) == []

    def test_forced_opt_detects_divergence(self):
        # corrupting the optimum schedule must be flagged
        inst = chain_family("2.2.2.1")
        trace = run_cp(inst)
        wrong = {0: 0, 1: 1, 2: 2}  # not sending the gained packets at 0/1
        findings = check_forced_opt(trace, build_intervals(trace, wrong), wrong)
        assert findings and all(f.kind == "forced-opt" for f in findings)

    def test_empty_instance_no_findings(self):
        inst = Instance(())
        trace, _, report = evaluate(inst)
        assert check_lemma_bounds(trace, report) == []
        assert check_inclusions(trace) == []


def reference_forced_opt(inst, trace, opt_sched):
    """The step-scanning check_forced_opt that the interval-reading one
    replaced, kept as its reference: it finds each firing of 2.2.2.1 or
    3.2.2 in the trace, derives the base and the count from the case, and
    skips a firing whose base the optimum's span starts after."""
    steps = trace.steps
    out = []
    for rec in steps:
        if rec.case == "2.2.2.1":
            base = rec.t - 1
            count = 2
        elif rec.case == "3.2.2":
            base = rec.t - 2
            count = 3
        else:
            continue
        prev = steps[base - 1].transmitted if base > 0 else None
        if prev is not None and inst.by_id(prev).is_two_packet_at(base - 1) and opt_sched.get(base) == prev:
            continue
        expected = [trace.engine.m(base, i) for i in range(count)]
        for offset, pkt in enumerate(expected):
            if pkt is None:
                out.append((f"case {rec.case} at t={rec.t}: selector {offset} absent", "-", "-"))
                continue
            got = opt_sched.get(base + offset)
            if got != pkt.id:
                detail = f"case {rec.case} at t={rec.t}: optimum sends {got} at {base + offset}"
                out.append((detail, str(got), str(pkt.id)))
    return out


#: A 2.2.2.1 interval at 2..3 whose optimum span starts at 3: the policy
#: sends packet 2 (released 1, deadline 2) at 1 and the optimum sends it at
#: 2.  Found by a random search at horizon 12, then shrunk and moved to 0.
START_SHIFTED = mk((0, 1, 3), (0, 1, "13/8"), (1, 2, 3), (1, 2, "5/4"), (2, 3, "13/8"), (3, 4, 2), (4, 5, 2), (4, 5, 3))


class TestForcedOptReference:
    """check_forced_opt, reading the intervals, finds exactly what the
    step-scanning reference finds, with the real optimum and with two
    corrupted ones: the policy's own schedule, and the optimum one step
    late, whose spans start late wherever the optimum sent a fresh one-slack
    packet when the policy did.  Each report is built from the schedule
    checked.

    With the real optimum no interval cut short is skipped in the fuzz, long
    or grid sets; START_SHIFTED has one."""

    def compare(self, instances) -> tuple[int, int, int]:
        """(intervals cut short, of them skipped, findings) over every schedule."""
        fired = skipped = found = 0
        for inst in instances:
            trace, opt_sched, _ = evaluate(inst)
            late = {t + 1: pid for t, pid in opt_sched.items()}
            for sched in (opt_sched, sent(trace), late):
                report = build_intervals(trace, sched)
                got = [(f.detail, f.lhs, f.rhs) for f in check_forced_opt(trace, report, sched)]
                assert got == reference_forced_opt(inst, trace, sched), inst
                short = [iv for iv in report.intervals if iv.trigger in FORCED_CASES]
                fired += len(short)
                skipped += sum(iv.opt_span[0] > iv.cp_span[0] for iv in short)
                found += len(got)
        return fired, skipped, found

    def test_fuzz_and_long_runs(self):
        fired, skipped, found = self.compare(
            [gen_random(seed) for seed in range(1000)]
            + [gen_random(seed, RandomConfig(horizon=40, arrival_rate=1.5)) for seed in range(200)]
        )
        assert fired and found

    def test_chain_family(self):
        fired, skipped, found = self.compare([chain_family(v) for v in CHAIN_VARIANTS] + [START_SHIFTED])
        assert fired and skipped and found

    def test_start_shifted_interval_is_skipped(self):
        trace, opt_sched, report = evaluate(START_SHIFTED)
        short = [(iv.cp_span, iv.opt_span) for iv in report.intervals if iv.trigger in FORCED_CASES]
        assert short == [((2, 3), (3, 3))]
        # the optimum's slot 2 is spoken for, so the forced layout fails there
        assert opt_sched.get(2) == 2 != trace.engine.m(2, 0).id
        assert check_forced_opt(trace, report, opt_sched) == []

    def test_h2_k4_bases(self):
        self.compare(grid_bases(SWEEP_GRID))


class TestCrossBaseExemption:
    """The cross-base relation P(t+1, t', t') <= P(t, t', t') of
    check_inclusions is waived only when the packet sent at t is a member of
    P(t, t', t'), not when a member expires at t; the value relation
    V(t+1, t', t') <= V(t, t', t') is never waived.  Lanes of the engine's
    rows are overwritten so that P(1, 1, 1) holds packet 3, which P(0, 1, 1)
    lacks."""

    # packet 0 expires at 0, the policy sends packet 1 at 0, and packets 2
    # and 3 arrive at 1; P(0, 1, 1) = {1, 2} and P(1, 1, 1) = {2}
    INST = mk((0, 0, 1), (0, 1, 3), (1, 1, 2), (1, 2, 1))
    SUBSET = "P(1,1,1) !<= P(0,1,1)"
    VALUE = "V(1,1,1) > V(0,1,1)"

    def cross_findings(self, narrow: tuple[int, ...] | None, raise_weight: bool) -> list[tuple[str, str, str]]:
        """The cross-base findings at (t, t') = (0, 1) once P(0, 1, 1) holds
        `narrow` (None keeps the solved answer) and P(1, 1, 1) holds packet
        3, weighing one more than P(0, 1, 1) if `raise_weight`."""
        inst = self.INST
        trace = run_cp(inst)
        assert trace.steps[0].transmitted == 1
        engine = trace.engine
        if narrow is not None:
            set_lane(engine, (0, 1, 1), narrow, sum(inst.weights[pid] for pid in narrow))
        narrow_weight = engine.p(0, 1, 1).weight
        set_lane(engine, (1, 1, 1), (3,), narrow_weight + 1 if raise_weight else inst.weights[3])
        return [(f.detail, f.lhs, f.rhs) for f in check_inclusions(trace) if f.detail in (self.SUBSET, self.VALUE)]

    def test_unmodified_run_is_clean(self):
        trace = run_cp(self.INST)
        assert trace.engine.p(0, 1, 1).members == (1, 2)
        assert check_inclusions(trace) == []

    def test_member_sent_at_t_waives_the_subset(self):
        assert self.cross_findings(None, raise_weight=False) == []

    def test_member_expiring_at_t_waives_nothing(self):
        # packet 0 expires at 0; packet 1, sent at 0, is not a member
        assert self.cross_findings((0, 2), raise_weight=False) == [(self.SUBSET, "[3]", "[0, 2]")]

    def test_subset_reported_when_no_member_left(self):
        assert self.cross_findings((2,), raise_weight=False) == [(self.SUBSET, "[3]", "[2]")]

    @pytest.mark.parametrize("narrow, weight", [(None, 5), ((0, 2), 3), ((2,), 2)])
    def test_raised_weight_is_reported_in_every_case(self, narrow, weight):
        findings = self.cross_findings(narrow, raise_weight=True)
        assert findings[0] == (self.VALUE, str(weight + 1), str(weight))
        assert findings[1:] == ([] if narrow is None else [(self.SUBSET, "[3]", str(list(narrow)))])


class TestWeakerChecksAreCaught:
    """An overwritten lane of an engine row that only the full check can
    tell from a sound one: each test fails if its check is weakened to what every
    campaign would still pass."""

    def test_slot_gain_of_two_is_reported(self):
        # P(0, 0, 0) = {0}; P(0, 0, 1) holds 0 and gains both 1 and 2, a set
        # that still contains P(0, 0, 0), so only the "adds >1" test sees it
        inst = mk((0, 0, 5), (0, 1, 3), (0, 1, 2))
        trace = run_cp(inst)
        engine = trace.engine
        assert engine.p(0, 0, 0).members == (0,) and engine.p(0, 0, 1).members == (0, 1)
        assert check_inclusions(trace) == []
        set_lane(engine, (0, 0, 1), (0, 1, 2), sum(inst.weights.values()))
        found = [(f.kind, f.detail, f.lhs, f.rhs) for f in check_inclusions(trace)]
        assert found == [("inclusion", "P(0,0,1) adds >1 over P(0,0,0)", "[0]", "[0, 1, 2]")]

    def test_no_slack_interval_reads_the_no_slack_bound(self):
        # the interval 0..0 sends packet 0, which has no slack, so its bound is
        # V(0, 0, 0); lowered below opt_i it is reported, while the one-slack
        # V(0, 0, 1) still covers opt_i
        inst = mk((0, 0, 5), (0, 1, 3), (1, 1, 4))
        trace, _, report = evaluate(inst)
        first = report.intervals[0]
        assert (first.cp_span, first.trigger, trace.steps[0].transmitted) == ((0, 0), "1.1", 0)
        assert check_lemma_bounds(trace, report) == []
        engine = trace.engine
        lowered = first.w_opt - 1
        assert engine.p(0, 0, 1).weight >= first.w_opt > lowered
        set_lane(engine, (0, 0, 0), engine.p(0, 0, 0).members, lowered)
        found = [(f.kind, f.detail, f.lhs, f.rhs) for f in check_lemma_bounds(trace, report)]
        assert found == [("partial-bound", "interval 0 1.1 span=(0, 0) no-slack V(0,0,0)",
                          render_value(first.v_opt), render_value(Fraction(lowered, inst.scale)))]


class TestExactSums:
    """profit and the interval values sum integer weights; each equals the
    plain Fraction sum of the packet values it covers."""

    def test_profits_and_interval_values_equal_fraction_sums(self):
        instances = [gen_random(seed) for seed in range(50)] + [chain_family(v) for v in CHAIN_VARIANTS]
        intervals = 0
        for inst in instances:
            trace, opt_sched, report = evaluate(inst)
            cp_sched = sent(trace)

            def value_sum(sched, times):
                return sum((inst.by_id(sched[t]).value for t in times if t in sched), Fraction(0))

            for sched in (cp_sched, opt_sched):
                v = profit(sched, inst)
                assert type(v) is Fraction and v == value_sum(sched, sched)
            claimed: set[int] = set()
            for iv in report.intervals:
                (start, end), (o_start, o_end) = iv.cp_span, iv.opt_span
                opt_times = [t for t in range(o_start, o_end + 1) if t not in claimed]
                claimed.update(opt_times)
                assert type(iv.v_cp) is Fraction and iv.v_cp == value_sum(cp_sched, range(start, end + 1))
                assert type(iv.v_opt) is Fraction and iv.v_opt == value_sum(opt_sched, opt_times)
                intervals += 1
        assert intervals > 200


def reference_worst(pairs: list[tuple[Fraction, Fraction]]) -> int | None:
    """The worst interval's position, found on rational (v_opt, v_cp) pairs."""
    worst = None
    for i, (v_opt, v_cp) in enumerate(pairs):
        if v_cp == 0:
            if v_opt > 0:
                return i
            continue
        if worst is None or v_opt * pairs[worst][1] > pairs[worst][0] * v_cp:
            worst = i
    return worst


class TestIntegerVerdicts:
    """Every interval and report verdict, decided on integer weights, equals
    the one a Fraction/Quad17 reference decides on the rational profits."""

    def test_verdicts_equal_the_rational_reference(self):
        instances = (
            [gen_random(seed) for seed in range(200)]
            + [gen_random(seed, RandomConfig(horizon=40, arrival_rate=1.5)) for seed in range(200)]
            + [chain_family(v) for v in CHAIN_VARIANTS]
            + [tight_family(n) for n in range(6)]
            + [mk((0, 0, "3/2"), (0, 1, "5/4"), (1, 1, "7/6"), (1, 2, "5/3"), (2, 2, 2))]  # scale 12
        )
        intervals = 0
        for inst in instances:
            trace, opt_sched, report = evaluate(inst)
            cp_sched = sent(trace)
            # totals from outside the report: model.profit's checked sum of
            # the policy's sends, and the dynamic program's optimum
            h = max(inst.horizon, 0)
            v_cp, v_opt = profit(cp_sched, inst), dp_partial((0, h, h), inst).total_value
            assert (report.v_cp, report.v_opt) == (v_cp, v_opt)
            assert report.global_within_bound == (Quad17.of(v_opt) <= R * v_cp)
            pairs = []
            for iv in report.intervals:
                (start, end), (o_start, o_end) = iv.cp_span, iv.opt_span
                ref_cp = sum((inst.by_id(cp_sched[t]).value for t in range(start, end + 1)
                              if t in cp_sched), Fraction(0))
                ref_opt = sum((inst.by_id(opt_sched[t]).value for t in range(o_start, o_end + 1)
                               if t in opt_sched), Fraction(0))
                assert (iv.v_cp, iv.v_opt) == (ref_cp, ref_opt)
                assert iv.within_bound == (Quad17.of(ref_opt) <= R * ref_cp)
                pairs.append((ref_opt, ref_cp))
                intervals += 1
            assert report.opt_covered == (v_opt <= sum((v for v, _ in pairs), Fraction(0)))
            worst = reference_worst(pairs)
            assert report.worst_interval is (None if worst is None else report.intervals[worst])
        assert intervals > 5000

    @given(
        st.integers(1, 12),
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=6),
        st.integers(0, 200),
        st.integers(0, 260),
    )
    @settings(max_examples=500, deadline=None)
    def test_failing_verdicts_equal_the_rational_reference(self, scale, weights, w_cp, w_opt):
        # weights near the threshold, e.g. 41/32 > R > 32/25, so verdicts fail too
        intervals = tuple(Interval((i, i), (i, i), wc, wo, scale, "1.1") for i, (wc, wo) in enumerate(weights))
        report = IntervalReport(intervals, w_cp, w_opt, scale)
        pairs = [(Fraction(wo, scale), Fraction(wc, scale)) for wc, wo in weights]
        for iv, (v_opt, v_cp) in zip(intervals, pairs):
            assert (iv.v_opt, iv.v_cp) == (v_opt, v_cp)
            assert iv.within_bound == (Quad17.of(v_opt) <= R * v_cp)
        v_cp, v_opt = Fraction(w_cp, scale), Fraction(w_opt, scale)
        assert (report.v_cp, report.v_opt) == (v_cp, v_opt)
        assert report.global_within_bound == (Quad17.of(v_opt) <= R * v_cp)
        assert report.opt_covered == (v_opt <= sum((v for v, _ in pairs), Fraction(0)))
        worst = reference_worst(pairs)
        assert report.worst_interval is (None if worst is None else intervals[worst])
