"""Campaign runners, report rendering and the command line interface."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import hashlib
import importlib
import itertools
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bdsched import (
    CaseTrace,
    CheckConfig,
    Finding,
    GridSpec,
    Instance,
    InstanceResult,
    InternalInvariantError,
    Interval,
    IntervalReport,
    Packet,
    PSet,
    QueryEngine,
    RandomConfig,
    Summary,
    chain_family,
    check_instance,
    count_bases,
    count_instances,
    cross_check_queries,
    dump_instance,
    enumerate_instances,
    gen_random,
    greedy_baseline,
    greedy_killer,
    instance_hash,
    load_instance,
    minimize_witness,
    model,
    profit,
    render_decimal,
    render_value,
    run_exhaustive,
    run_fuzz,
)
import bdsched.harness as harness_mod
from bdsched import offline
from bdsched.cli import main
from bdsched.harness import (
    check_or_crash,
    compare_algorithms,
    evaluate,
    render_rows_csv,
    report_to_json,
    summary_to_dict,
)
from bdsched.model import instance_to_dict
from conftest import clairvoyant, grid_bases, mk, set_lane, without_inert
from enumeration import OracleSizeError, brute_force_partial

SMALL_GRID = GridSpec(horizon=1, max_packets=2, value_grid=(Fraction(1), Fraction(2)))
ACCEPTANCE_VALUES = (Fraction(1), Fraction(5, 4), Fraction(8, 5), Fraction(2), Fraction(3))
DEEP = CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True)
ALL_CHECKS = CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True, cross_check=True)


class TestCheckInstance:
    def test_killer_row(self):
        res = check_instance(greedy_killer(), DEEP)
        assert res.ok
        assert res.report.v_cp == Fraction(201, 100)
        assert res.report.v_opt == Fraction(201, 100)
        assert res.v_greedy == Fraction(101, 100)

    def test_empty_instance(self):
        res = check_instance(Instance(()), DEEP)
        assert res.ok and res.report.v_cp == 0 and res.report.worst_interval is None

    @pytest.mark.parametrize("config", [CheckConfig(), DEEP, ALL_CHECKS], ids=["default", "deep", "cross-check"])
    def test_packet_without_a_slot_is_checked(self, config):
        # a deadline before the release leaves the packet no slot and the
        # instance a horizon of -1: the optimum is empty, and no window
        # (0, -1, -1) is asked of the engine or the oracle
        inst = Instance([Packet(0, 0, -1, Fraction(1))])
        res = check_or_crash(inst, config)
        assert res.ok and res.findings == [] and (res.report.w_cp, res.report.w_opt) == (0, 0)

    def test_oracle_cross_check_clean(self):
        res = check_instance(gen_random(3), CheckConfig(cross_check=True))
        assert not [f for f in res.findings if f.kind == "oracle-mismatch"]


class TestCrossCheck:
    @staticmethod
    def drop_last_member(inst: Instance, trace, key: tuple[int, int, int]) -> None:
        """Overwrite the engine's lane for window `key` with a set missing
        its last-ranked member."""
        right = trace.engine.p(*key)
        *kept, dropped = right.members
        set_lane(trace.engine, key, kept, right.weight - inst.weights[dropped])

    def test_corrupted_answer_is_reported(self):
        inst = gen_random(3)
        trace, _, _ = evaluate(inst)
        assert cross_check_queries(trace) == []
        t, t_arr, t_slot = key = next(
            (t, t_arr, t_slot) for _, t, t_arr, t_slot in trace.queries
            if len(trace.engine.p(t, t_arr, t_slot).members) >= 2
        )
        self.drop_last_member(inst, trace, key)
        findings = cross_check_queries(trace)
        assert [(f.kind, f.detail) for f in findings] == [("oracle-mismatch", f"query ({t},{t_arr},{t_slot})")]

    def test_query_beyond_the_enumeration_limit_is_checked(self):
        # 24 packets released at 0: the policy's first query P(0, 0, 0)
        # holds more packets than brute_force_partial accepts
        inst = Instance(Packet(i, 0, i % 2, Fraction(1 + i % 5)) for i in range(24))
        trace, _, _ = evaluate(inst)
        assert (0, 0, 0, 0) in trace.queries
        with pytest.raises(OracleSizeError):
            brute_force_partial((0, 0, 0), inst)
        assert cross_check_queries(trace) == []
        self.drop_last_member(inst, trace, (0, 0, 0))
        findings = cross_check_queries(trace)
        assert [(f.kind, f.detail) for f in findings] == [("oracle-mismatch", "query (0,0,0)")]

    def test_an_oracle_seeded_without_the_best_of_b_t_is_caught(self, monkeypatch):
        # the oracle is seeded with all of B(t), the engine with its best
        # packet alone: dropping that packet from every B(t) the oracle
        # reads makes the cross-check, and no other check, report every
        # answer the carry joins; unpatched, the same campaign is clean
        seeds = range(1_000)
        assert run_fuzz(seeds, RandomConfig(), ALL_CHECKS).ok
        buffers = harness_mod.online_buffers

        def without_best(trace):
            inst = trace.engine.inst
            rank = {pid: model.rank_key(inst.by_id(pid), inst.weights[pid]) for pid in inst.weights}
            return {t: pending - {min(pending, key=rank.get)} for t, pending in buffers(trace).items()}

        monkeypatch.setattr(harness_mod, "online_buffers", without_best)
        caught = run_fuzz(seeds, RandomConfig(), ALL_CHECKS).summary
        assert (caught.violations, caught.findings_by_kind) == (536, {"oracle-mismatch": 807})

    def test_optimum_that_stops_one_slot_early_is_caught(self, monkeypatch):
        # a union-find that stops once one slot is left, not none, keeps all
        # but the last-ranked member of each answer that fills every slot.
        # The engine sweeps only windows outside the base row, so only
        # opt_full's (0, h, h) goes wrong: the lower optimum passes every
        # other check, and only the cross-check's replay of it fails
        union_find = offline._solve

        def stops_early(scale, ids, t, t_arr, t_end, cands):
            ps = union_find(scale, ids, t, t_arr, t_end, cands)
            if ps.mask.bit_count() <= t_end - t:
                return ps
            last = ps.mask.bit_length() - 1
            weight = next(w for rank, _, w in cands if rank == last)
            return PSet(ps.mask ^ 1 << last, ps.weight - weight, scale, ids)

        monkeypatch.setattr(offline, "_solve", stops_early)
        seeds, config = range(200), RandomConfig(horizon=40, arrival_rate=1.5)
        caught = run_fuzz(seeds, config, ALL_CHECKS).summary
        assert caught.violations > 0 and set(caught.findings_by_kind) == {"oracle-mismatch"}
        assert run_fuzz(seeds, config, DEEP).ok

    @pytest.mark.parametrize("lane", range(len(offline.ROW)))
    def test_row_table_that_drops_one_accept_is_caught(self, lane, monkeypatch):
        # a product table whose start state, meeting a loop at slot t
        # (column 0, the carry or a loop released at t), steps every lane
        # but records the window in every lane except `lane`: that lane's
        # answer misses the best loop at t wherever the loop ranks first.
        # Every lane is read by an inclusion, so the deep checks with the
        # cross-check catch it on both the fuzz and the h=40 campaigns; the
        # lane of P(t, t, t), whose only member is m_0, crashes the policy
        # itself first
        table, lanes = offline._row_automaton()
        shift, start = len(offline.ROW), 2 * (offline.REACH + 1)
        assert table[start] & ((1 << shift) - 1) == (1 << shift) - 1  # every lane keeps it
        mutant, mutant_lanes = list(table), list(lanes)
        mutant[start] ^= 1 << lane
        code = mutant[start] & ((1 << shift) - 1)
        mutant_lanes[code] = tuple([j for j in range(shift) if j != lane])
        monkeypatch.setattr(offline, "_row_automaton", lambda: (mutant, mutant_lanes))
        for seeds, config in ((range(100), RandomConfig()), (range(20), RandomConfig(horizon=40, arrival_rate=1.5))):
            caught = run_fuzz(seeds, config, ALL_CHECKS).summary
            kinds = {"crash"} if offline.ROW[lane] == (0, 0) else {"inclusion", "oracle-mismatch"}
            assert caught.violations > 0 and kinds & set(caught.findings_by_kind), config


class TestCampaigns:
    def test_exhaustive_small_grid_clean(self):
        report = run_exhaustive(SMALL_GRID)
        assert report.ok
        assert report.summary.instances == 44

    def test_sharded_summary_matches_serial(self):
        serial = run_exhaustive(SMALL_GRID)
        sharded = run_exhaustive(SMALL_GRID, workers=2)
        assert sharded.summary.instances == serial.summary.instances
        assert sharded.summary.violations == serial.summary.violations
        assert sharded.summary.max_ratio == serial.summary.max_ratio
        assert sharded.summary.cases_seen == serial.summary.cases_seen

    def test_fuzz_campaign_clean_and_deterministic(self):
        a = run_fuzz(list(range(60)), config_checks=DEEP)
        b = run_fuzz(list(range(60)), config_checks=DEEP)
        assert a.ok and b.ok
        assert report_to_json(a) == report_to_json(b)

    def test_fuzz_sharding_matches_serial(self):
        serial = run_fuzz(list(range(40)))
        sharded = run_fuzz(list(range(40)), workers=2)
        assert serial.summary.cases_seen == sharded.summary.cases_seen
        assert serial.summary.max_ratio == sharded.summary.max_ratio
        assert serial.summary.argmax_index == sharded.summary.argmax_index

    def test_summary_max_recomputable_from_rows(self):
        report = run_fuzz(list(range(30)), keep_rows=True)
        best = None
        for row in report.rows:
            _hash, v_cp, v_opt, *_rest = row.split(",")
            v_cp, v_opt = Fraction(v_cp), Fraction(v_opt)
            if v_cp == 0:
                continue
            if best is None or v_opt * best[1] > best[0] * v_cp:
                best = (v_opt, v_cp)
        assert report.summary.max_ratio == best


class TestSummaryOnlyCampaigns:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("horizon,max_packets", [(0, 0), (0, 3), (1, 2), (2, 3)])
    def test_residue_shards_partition_the_grid(self, horizon, max_packets, workers):
        spec = GridSpec(horizon=horizon, max_packets=max_packets, value_grid=(Fraction(1), Fraction(2)))
        shards = [list(harness_mod._grid(spec, workers, r)) for r in range(workers)]
        union = sorted((item for shard in shards for item in shard), key=lambda item: item[0])
        assert [(i, inst.packets, k, n) for i, inst, k, n in union] == [
            (i, inst.packets, 0, 1) for i, inst in enumerate(enumerate_instances(spec))
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_only_scan_skips_row_columns(self, workers, monkeypatch):
        def refuse(*_args):
            raise AssertionError("row-only work in a summary-only campaign")

        monkeypatch.setattr(harness_mod, "greedy_baseline", refuse)
        monkeypatch.setattr(harness_mod, "instance_hash", refuse)
        monkeypatch.setattr(IntervalReport, "worst_interval", property(refuse))
        report = run_exhaustive(GridSpec(horizon=1, max_packets=2, value_grid=ACCEPTANCE_VALUES), workers=workers)
        assert report.ok and report.summary.instances == 230

    def test_row_columns_equal_eager_computation(self):
        seeds = list(range(50))
        report = run_fuzz(seeds, keep_rows=True)
        assert len(report.rows) == len(seeds)
        greedy_differs = False
        for row, seed in zip(report.rows, seeds):
            inst = gen_random(seed)
            res = check_instance(inst, DEEP)
            v_greedy = profit(greedy_baseline(inst), inst)
            worst = evaluate(inst)[-1].worst_interval
            v_cp, v_opt = res.report.v_cp, res.report.v_opt
            ratio = v_opt / v_cp if v_cp else Fraction(0)
            assert row.split(",") == [
                instance_hash(inst),
                render_value(v_cp),
                render_value(v_opt),
                render_value(v_greedy),
                render_value(ratio),
                render_decimal(ratio),
                "yes" if res.report.global_within_bound else "no",
                render_value(worst.v_opt / worst.v_cp) if worst and worst.v_cp else "",
                str(len(res.findings)),
            ]
            greedy_differs |= v_greedy != v_cp
        assert greedy_differs

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["exhaustive", "--horizon", "1", "--max-packets", "2"],
                "da0bfbebe52f478ded741f4f1b20ccdfa6e01f7ec692bb16f5fcb0fe64196317",
            ),
            (["fuzz", "--seeds", "0..49"], "64cf5606d68a0e258dc76fb4bf17478a4e9baac21ad4713ed811128089917aa5"),
        ],
        ids=["exhaustive", "fuzz"],
    )
    def test_csv_rows_pinned(self, argv, digest, capsys):
        # hash, v_greedy and worst-interval columns as computed eagerly before
        assert main(argv + ["--format", "csv"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_result_holds_no_trace(self):
        res = check_instance(chain_family("3.2.2"), DEEP)
        assert not any(isinstance(v, (CaseTrace, QueryEngine)) for v in vars(res).values())


def result_at(w_opt: int, w_cp: int, scale: int) -> InstanceResult:
    """A clean result whose profits are the weights w_opt and w_cp at `scale`."""
    inst = Instance([Packet(0, 0, 0, Fraction(1, scale))])
    return InstanceResult(inst, IntervalReport((), w_cp, w_opt, scale))


def summaries_of(indexed: list[tuple[int, InstanceResult]]) -> list[Summary]:
    """The serial summary, then the residue-order merges of 2 and 3 shards."""
    out = []
    for workers in (1, 2, 3):
        merged = Summary()
        for residue in range(workers):
            shard = Summary()
            for index, res in sorted(indexed, key=lambda pair: pair[0]):
                if index % workers == residue:
                    shard.absorb_result(res, index)
            merged.merge(shard)
        out.append(merged)
    return out


class TestIntegerSummary:
    """The summary compares ratios w_opt / w_cp by integer cross-multiplication;
    its argmax equals the one a Fraction reference picks."""

    def test_equal_ratios_at_different_scales_lowest_index_wins(self):
        # 5/4 at scale 4, 10/8 and 20/16 at scale 8: one ratio, three results
        results = [result_at(5, 4, 4), result_at(10, 8, 8), result_at(20, 16, 8)]
        for order in itertools.permutations(range(3)):
            indexed = list(zip((7, 11, 12), [results[i] for i in order]))
            lowest = indexed[0][1]
            serial = Summary()
            for index, res in reversed(indexed):  # the highest index first
                serial.absorb_result(res, index)
            for summary in [serial, *summaries_of(indexed)]:
                assert summary.argmax_index == 7
                assert summary.argmax_instance is lowest.instance
                assert summary.max_ratio == (lowest.report.v_opt, lowest.report.v_cp)
                assert summary.max_weights == (lowest.report.w_opt, lowest.report.w_cp)

    def test_argmax_equals_the_rational_reference(self):
        rng = random.Random(0)
        indexed = [(index, result_at(rng.randint(0, 9), rng.randint(0, 6), rng.choice((1, 2, 3, 4, 6, 8))))
                   for index in rng.sample(range(1000), 300)]
        ratios = [(Fraction(res.report.w_opt, res.report.w_cp), -index) for index, res in indexed if res.report.w_cp]
        _, neg_index = max(ratios)
        best = dict(indexed)[-neg_index]
        for summary in summaries_of(indexed):
            assert summary.argmax_index == -neg_index
            assert summary.max_ratio == (best.report.v_opt, best.report.v_cp)
            assert summary.instances == 300

    def test_max_ratio_is_read_from_the_argmax_weights(self):
        rng = random.Random(1)
        indexed = [(index, result_at(rng.randint(0, 9), rng.randint(0, 6), rng.choice((1, 2, 3, 4, 6, 8))))
                   for index in range(60)]
        assert Summary().max_ratio is None
        for summary in summaries_of(indexed):
            w_opt, w_cp = summary.max_weights
            s = summary.argmax_instance.scale
            assert summary.max_ratio == (Fraction(w_opt, s), Fraction(w_cp, s))
            argmax = dict(indexed)[summary.argmax_index]
            assert (w_opt, w_cp) == (argmax.report.w_opt, argmax.report.w_cp)

    def test_each_fact_is_stored_once(self):
        assert [f.name for f in dataclasses.fields(InstanceResult)] == ["instance", "report", "findings", "cases"]
        assert "max_ratio" not in [f.name for f in dataclasses.fields(Summary)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_only_campaign_builds_no_interval_fraction(self, workers, monkeypatch):
        spec = GridSpec(horizon=1, max_packets=3, value_grid=ACCEPTANCE_VALUES)
        expected = report_to_json(run_exhaustive(spec))

        def refuse(*_args):
            raise AssertionError("a rational value was built in a summary-only campaign")

        with monkeypatch.context() as patched:
            for cls in (Interval, IntervalReport):
                patched.setattr(cls, "v_cp", property(refuse))
                patched.setattr(cls, "v_opt", property(refuse))
            patched.setattr(PSet, "total_value", property(refuse))
            patched.setattr(Summary, "max_ratio", property(refuse))
            report = run_exhaustive(spec, workers=workers)
        assert report.ok and report.summary.instances == count_instances(spec)
        assert report_to_json(report) == expected


class TestTranslationInvariance:
    """Shifting every packet by s steps shifts the run: the policy idles for
    s steps, then repeats the unshifted run's cases, and every value,
    verdict and finding kind is unchanged."""

    @staticmethod
    def shifted(inst: Instance, s: int) -> Instance:
        return Instance(Packet(p.id, p.release + s, p.deadline + s, p.value) for p in inst.packets)

    def test_shift_changes_nothing_but_leading_idles(self):
        grid = enumerate_instances(GridSpec(horizon=1, max_packets=3, value_grid=ACCEPTANCE_VALUES))
        instances = list(grid) + [gen_random(seed) for seed in range(200)]

        def values(res: InstanceResult) -> tuple:
            report, worst = res.report, res.report.worst_interval
            return report.v_cp, report.v_opt, report.global_within_bound, worst and (worst.v_opt, worst.v_cp)

        pairs = 0
        for inst in instances:
            base = check_instance(inst, ALL_CHECKS)
            for s in (1, 2, 3):
                moved = check_instance(self.shifted(inst, s), ALL_CHECKS)
                assert values(moved) == values(base)
                assert [f.kind for f in moved.findings] == [f.kind for f in base.findings]
                assert moved.cases == ("idle",) * s + base.cases
                pairs += 1
        assert pairs == 3 * (1770 + 200)


class TestInertInvariance:
    """Dropping a base's inert packets, a loop ranked after another loop of
    its release or an edge ranked after two edges of its release, changes
    no case, ratio, finding kind or verdict: the premise of the fold of
    twins in run_exhaustive."""

    def test_dropping_inert_packets_changes_nothing(self):
        grids = [
            GridSpec(horizon=2, max_packets=4, value_grid=PAIR_VALUES),
            GridSpec(horizon=1, max_packets=4, value_grid=ACCEPTANCE_VALUES),
        ]
        reduced_results: dict[tuple, InstanceResult] = {}
        bases = pairs = 0
        for spec in grids:
            for inst in grid_bases(spec):
                bases += 1
                reduced = without_inert(inst)
                if len(reduced) == len(inst):
                    continue
                if reduced.packets not in reduced_results:
                    reduced_results[reduced.packets] = check_instance(reduced, ALL_CHECKS)
                want, got = reduced_results[reduced.packets], check_instance(inst, ALL_CHECKS)
                assert got.cases == want.cases, inst
                assert got.report.w_opt * want.report.w_cp == want.report.w_opt * got.report.w_cp, inst
                assert (got.report.w_cp > 0) == (want.report.w_cp > 0), inst
                assert [f.kind for f in got.findings] == [f.kind for f in want.findings], inst
                assert (got.ok, got.report.global_within_bound) == (want.ok, want.report.global_within_bound), inst
                pairs += 1
        # every base of the pair-value grids with h <= 2, k <= 4 and of the
        # acceptance grids with h = 1, k <= 4; 570 and 5,500 are reducible
        assert (bases, pairs) == (1325 + 9625, 570 + 5500)


def full_scan_json(spec: GridSpec, config: CheckConfig) -> str:
    """The reference summary: every grid instance checked, serially."""
    return report_to_json(harness_mod._scan(harness_mod._grid(spec, 1, 0), config, keep_rows=False))


def quotient_cases(horizons, packet_budgets):
    return [(h, k, w) for h in horizons for k in packet_budgets for w in (1, 2, 3)]


PAIR_VALUES = (Fraction(1), Fraction(8, 5))


def optimum_eight_fifths(inst: Instance, opt_sched: dict[int, int]) -> list[int]:
    """The ids of the packets of value 8/5 that the optimum sends, by slot.
    A fault that reads them reads what the run uses, so it survives both
    folds: a translate sends the same packets later, and a twin's inert
    packets are never sent."""
    return [pid for _t, pid in sorted(opt_sched.items()) if inst.by_id(pid).value == Fraction(8, 5)]


def inject_shift_invariant_fault(monkeypatch) -> None:
    """One forced-opt finding per packet of value 8/5 the optimum sends,
    and a broken global bound whenever the policy earns 13/5."""

    def marked_forced(trace, report, opt_sched):
        marked = optimum_eight_fifths(trace.engine.inst, opt_sched)
        return [Finding("forced-opt", f"marked {pid}", "-", "-") for pid in marked]

    real_bound = IntervalReport.global_within_bound.fget
    monkeypatch.setattr(harness_mod, "check_forced_opt", marked_forced)
    monkeypatch.setattr(
        IntervalReport, "global_within_bound", property(lambda r: real_bound(r) and r.v_cp != Fraction(13, 5))
    )


def inject_crash(monkeypatch, crashes) -> None:
    """run_cp raises InternalInvariantError on every instance `crashes` accepts."""
    real_run_cp = harness_mod.run_cp

    def run_cp(inst):
        if crashes(inst):
            raise InternalInvariantError("injected")
        return real_run_cp(inst)

    monkeypatch.setattr(harness_mod, "run_cp", run_cp)


class TestTranslationQuotient:
    """A summary-only grid campaign checks only the irreducible bases, the
    instances with a release at 0 and no inert packet, and folds in their
    twins and translates; its summary is byte-identical to checking every
    instance."""

    @pytest.mark.parametrize("horizon,max_packets,workers", quotient_cases(range(3), range(5)))
    def test_forced_opt_summary_equals_full_scan(self, horizon, max_packets, workers):
        spec = GridSpec(horizon=horizon, max_packets=max_packets, value_grid=PAIR_VALUES)
        folded = run_exhaustive(spec, CheckConfig(forced_opt=True), workers=workers)
        assert report_to_json(folded) == full_scan_json(spec, CheckConfig(forced_opt=True))

    @pytest.mark.parametrize(
        "horizon,max_packets,workers", quotient_cases(range(2), range(5)) + quotient_cases([2], range(3))
    )
    def test_all_checks_summary_equals_full_scan(self, horizon, max_packets, workers):
        spec = GridSpec(horizon=horizon, max_packets=max_packets, value_grid=PAIR_VALUES)
        folded = run_exhaustive(spec, ALL_CHECKS, workers=workers)
        assert report_to_json(folded) == full_scan_json(spec, ALL_CHECKS)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_violations_fold_like_the_full_scan(self, workers, monkeypatch):
        inject_shift_invariant_fault(monkeypatch)
        spec = GridSpec(horizon=2, max_packets=3, value_grid=PAIR_VALUES)
        folded = run_exhaustive(spec, CheckConfig(forced_opt=True), workers=workers)
        assert folded.summary.violations > 0 and folded.summary.findings_by_kind["global-bound"] > 0
        assert report_to_json(folded) == full_scan_json(spec, CheckConfig(forced_opt=True))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_crashes_fold_like_the_full_scan(self, workers, monkeypatch):
        inject_crash(monkeypatch, lambda inst: len(optimum_eight_fifths(inst, clairvoyant(inst))) >= 2)
        spec = GridSpec(horizon=2, max_packets=3, value_grid=PAIR_VALUES)
        folded = run_exhaustive(spec, CheckConfig(forced_opt=True), workers=workers)
        assert folded.summary.findings_by_kind["crash"] == folded.summary.violations > 0
        assert report_to_json(folded) == full_scan_json(spec, CheckConfig(forced_opt=True))

    def test_rows_campaign_checks_every_instance(self, monkeypatch):
        checked = []
        real_check = harness_mod.check_instance

        def counting_check(inst, config=CheckConfig()):
            checked.append(inst.packets)
            return real_check(inst, config)

        monkeypatch.setattr(harness_mod, "check_instance", counting_check)
        spec = GridSpec(horizon=2, max_packets=2, value_grid=PAIR_VALUES)
        rows = run_exhaustive(spec, keep_rows=True).rows
        grid = list(enumerate_instances(spec))
        assert checked == [inst.packets for inst in grid]
        assert [row.split(",")[0] for row in rows] == [instance_hash(inst) for inst in grid]
        checked.clear()
        run_exhaustive(spec)
        # 46 of the 90 instances have a packet released at 0; 3 of those
        # hold two loops of one release, so 43 are irreducible
        assert len(checked) == count_bases(spec) == 43 and count_instances(spec) == 90


#: A grid of one instance, the empty one.
NO_PACKETS = GridSpec(horizon=2, max_packets=0, value_grid=ACCEPTANCE_VALUES)


class TestPooledRows:
    def test_failing_rows_match_check_instance(self, monkeypatch):
        inject_shift_invariant_fault(monkeypatch)
        spec = GridSpec(horizon=2, max_packets=3, value_grid=PAIR_VALUES)
        serial = run_exhaustive(spec, workers=1, keep_rows=True).rows
        pooled = run_exhaustive(spec, workers=3, keep_rows=True).rows
        assert pooled == serial
        config = CheckConfig(forced_opt=True)
        failing = 0
        for row, inst in zip(serial, enumerate_instances(spec), strict=True):
            res = check_instance(inst, config)
            columns = row.split(",")
            assert columns[0] == instance_hash(inst)
            assert columns[6] == ("yes" if res.report.global_within_bound else "no")
            assert columns[8] == str(len(res.findings))
            failing += columns[6] == "no"
        assert failing > 0 and any(row.split(",")[8] != "0" for row in serial)

    @pytest.mark.parametrize(
        "campaign",
        [
            lambda workers: run_exhaustive(SMALL_GRID, workers=workers, keep_rows=True),
            lambda workers: run_fuzz(list(range(31)), workers=workers, keep_rows=True),
        ],
        ids=["exhaustive", "fuzz"],
    )
    @pytest.mark.parametrize("workers", [2, 3])
    def test_rows_come_from_the_pool_in_serial_order(self, campaign, workers, monkeypatch):
        # the caller renders the rows of residue 0 and one child each other
        # residue's, and the lines merge back in serial order
        real_row = harness_mod._row_to_csv
        monkeypatch.setattr(harness_mod, "_row_to_csv", lambda res: f"{os.getpid()}:{real_row(res)}")
        serial, sharded = campaign(1), campaign(workers)

        def split(rows):
            tagged = [row.split(":", 1) for row in rows]
            return [int(pid) for pid, _ in tagged], [line for _, line in tagged]

        serial_pids, serial_lines = split(serial.rows)
        sharded_pids, sharded_lines = split(sharded.rows)
        caller = os.getpid()
        assert set(serial_pids) == {caller}
        by_residue = [set(sharded_pids[r::workers]) for r in range(workers)]
        assert by_residue[0] == {caller}
        assert all(len(pids) == 1 for pids in by_residue[1:])
        children = set().union(*by_residue[1:])
        assert len(children) == workers - 1 and caller not in children
        assert sharded_lines == serial_lines
        assert report_to_json(sharded) == report_to_json(serial)

    @pytest.mark.parametrize(
        "campaign",
        [
            lambda workers: run_fuzz(range(2), workers=workers),
            lambda workers: run_fuzz(range(2), workers=workers, keep_rows=True),
            lambda workers: run_exhaustive(NO_PACKETS, workers=workers),
            lambda workers: run_exhaustive(NO_PACKETS, workers=workers, keep_rows=True),
        ],
        ids=["fuzz", "fuzz-rows", "exhaustive", "exhaustive-rows"],
    )
    def test_more_workers_than_work_print_the_serial_bytes(self, campaign):
        serial, sharded = campaign(1), campaign(3)
        assert report_to_json(sharded) == report_to_json(serial)
        assert render_rows_csv(sharded.rows) == render_rows_csv(serial.rows)
        assert multiprocessing.active_children() == []


class DeadlinePassed(Exception):
    """Not an OSError, which multiprocessing's join would swallow."""


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise DeadlinePassed in the calling process once the block has run
    for `seconds`."""

    def expire(_signum, _frame):
        raise DeadlinePassed(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def fail_checks(monkeypatch, in_caller: bool, fault) -> None:
    """Call `fault()` before every check_instance of the calling process
    (in_caller) or of every forked child (not in_caller)."""
    caller = os.getpid()
    real = harness_mod.check_instance

    def check(inst, config=CheckConfig()):
        if (os.getpid() == caller) == in_caller:
            fault()
        return real(inst, config)

    monkeypatch.setattr(harness_mod, "check_instance", check)


def injected_value_error():
    raise ValueError("injected")


class TestShardFailures:
    """A campaign whose shard fails raises within a deadline and leaves no
    child process behind."""

    @pytest.fixture(autouse=True)
    def reap(self):
        yield
        for child in multiprocessing.active_children():  # left only by a failed test
            child.terminate()
            child.join(10)

    def test_child_error_is_raised_by_the_caller(self, monkeypatch):
        fail_checks(monkeypatch, in_caller=False, fault=injected_value_error)
        with pytest.raises(ValueError, match="injected"), deadline(60):
            run_fuzz(range(12), workers=3, keep_rows=True)
        assert multiprocessing.active_children() == []

    def test_caller_error_ends_a_child_blocked_on_a_full_pipe(self, monkeypatch):
        # the child's shard, 3,657 rows, pickles to about 184 kB, more than a
        # pipe buffer holds: once its scan is done the child blocks in send,
        # so a caller that closed its read end and joined would hang
        spec = GridSpec(horizon=2, max_packets=4, value_grid=(Fraction(1), Fraction(2), Fraction(3)))
        fail_checks(monkeypatch, in_caller=True, fault=injected_value_error)
        with pytest.raises(ValueError, match="injected"), deadline(60):
            run_exhaustive(spec, workers=2, keep_rows=True)
        assert multiprocessing.active_children() == []

    def test_child_that_exits_without_sending(self, monkeypatch):
        fail_checks(monkeypatch, in_caller=False, fault=lambda: os._exit(3))
        with pytest.raises(RuntimeError, match=r"residue 1 exited with code 3 "), deadline(60):
            run_exhaustive(SMALL_GRID, workers=2)
        assert multiprocessing.active_children() == []


class TestCrashes:
    """A fault of the program on one instance is a `crash` finding, not an
    aborted campaign."""

    def test_crash_is_a_finding_and_the_campaign_goes_on(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = gen_random(7)
        inject_crash(monkeypatch, lambda inst: inst == bad)
        for fmt in ("json", "csv"):
            outputs = []
            for workers in ("1", "2"):
                assert main(["fuzz", "--seeds", "0..19", "--format", fmt, "--workers", workers]) == 1
                captured = capsys.readouterr()
                assert "Traceback" not in captured.err
                outputs.append(captured.out)
            assert outputs[0] == outputs[1]
            if fmt == "json":
                summary = json.loads(outputs[0])["summary"]
            else:
                assert outputs[0].splitlines()[1 + 7].split(",")[-1] == "1"
        assert summary["instances"] == 20 and summary["violations"] == 1
        assert summary["findings_by_kind"] == {"crash": 1}
        assert summary["first_violation"] == {
            "instance": instance_to_dict(bad),
            "findings": [{"kind": "crash", "detail": "InternalInvariantError: injected", "lhs": "-", "rhs": "-"}],
        }
        # the crashed instance adds no cases and no ratio
        rest = summary_to_dict(run_fuzz([seed for seed in range(20) if seed != 7]).summary)
        for key in ("cases_seen", "max_ratio", "argmax_instance"):
            assert summary[key] == rest[key]
        assert load_instance((tmp_path / "witness.json").read_text()) == bad

    def test_witness_minimized_while_it_crashes(self, tmp_path, monkeypatch):
        inject_crash(monkeypatch, lambda inst: any(p.value == Fraction(7, 3) for p in inst.packets))
        assert len(gen_random(0, RandomConfig(value_grid=(Fraction(1), Fraction(7, 3), Fraction(2))))) > 1
        target = tmp_path / "w.json"
        argv = ["fuzz", "--seeds", "0..0", "--values", "1,7/3,2", "--workers", "1", "--emit-witness", str(target)]
        assert main(argv) == 1
        assert [p.value for p in load_instance(target.read_text()).packets] == [Fraction(7, 3)]


class TestWitnessMinimization:
    def test_shrinks_while_predicate_holds(self):
        inst = mk((0, 0, 1), (0, 1, "7/3"), (1, 1, 2), (2, 2, "13/8"))
        target = inst.packets[1].value

        def still_bad(candidate: Instance) -> bool:
            return any(p.value == target for p in candidate.packets)

        small = minimize_witness(inst, still_bad)
        assert len(small) == 1
        assert small.packets[0].value == target

    def test_value_simplification(self):
        inst = mk((0, 0, "7/3"), (0, 1, 1))

        def still_bad(candidate: Instance) -> bool:
            return len(candidate.packets) >= 1 and candidate.packets[0].release == 0

        small = minimize_witness(inst, still_bad)
        assert len(small) == 1
        assert small.packets[0].value == 1


class TestRendering:
    def test_csv_header_and_shape(self):
        rows = [harness_mod._row_to_csv(check_instance(greedy_killer(), DEEP))]
        text = render_rows_csv(rows)
        header, row, trailer = text.split("\n")
        assert header.startswith("instance_hash,v_cp,v_opt,v_greedy,ratio_exact")
        assert row.count(",") == header.count(",")
        assert trailer == ""

    def test_worst_interval_ratio_is_empty_without_a_finite_worst(self):
        # hand-built reports: the cell is empty with no interval of positive
        # policy profit, and with an interval of opt profit and none of the
        # policy's, whose ratio is unbounded
        column = harness_mod.CSV_HEADER.split(",").index("worst_interval_ratio")
        inst = mk((0, 0, 1))

        def cell(*intervals):
            iv = [Interval((t, t), (t, t), w_cp, w_opt, 1, "1.1") for t, (w_cp, w_opt) in enumerate(intervals)]
            report = IntervalReport(tuple(iv), sum([w for w, _ in intervals]), sum([w for _, w in intervals]), 1)
            return harness_mod._row_to_csv(InstanceResult(inst, report)).split(",")[column]

        assert cell() == ""
        assert cell((0, 0)) == ""
        assert cell((2, 3), (0, 1), (1, 1)) == ""
        assert cell((2, 3), (0, 0), (1, 1)) == "3/2"

    def test_report_json_is_sorted_and_stable(self):
        report = run_fuzz(list(range(5)))
        doc = json.loads(report_to_json(report))
        assert doc["summary"]["instances"] == 5
        assert report_to_json(report) == report_to_json(run_fuzz(list(range(5))))

    def test_compare_rows(self):
        rows = compare_algorithms(greedy_killer())
        by_name = {r["algorithm"]: r for r in rows}
        assert by_name["greedy"]["opt_ratio"] == "201/101"
        assert by_name["cp"]["opt_ratio"] == "1"


@pytest.fixture
def killer_file(tmp_path):
    from bdsched import dump_instance

    path = tmp_path / "killer.json"
    path.write_text(dump_instance(greedy_killer()))
    return str(path)


def test_package_names_are_exported_by_their_submodules():
    # every name the package re-exports is in its submodule's __all__
    init = Path(harness_mod.__file__).with_name("__init__.py")
    missing = []
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"bdsched.{node.module}").__all__
            missing += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in exported]
    assert missing == []


class TestCli:
    def test_run_ok(self, killer_file, capsys):
        assert main(["run", "--instances", killer_file]) == 0
        out = capsys.readouterr().out
        assert "profit  policy:  201/100" in out
        assert "bound check" in out

    def test_run_json(self, killer_file, capsys):
        assert main(["run", "--instances", killer_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["profits"] == {"cp": "201/100", "opt": "201/100", "greedy": "101/100"}
        assert doc["within_bound"] is True
        assert doc["trace"][0]["case"] == "1.2.1"

    def test_run_rejects_invalid_instance(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"packets": [{"release": 0, "deadline": 2, "value": 1}]}')
        assert main(["run", "--instances", str(bad)]) == 2
        assert "not 2-bounded" in capsys.readouterr().err

    def test_run_rejects_missing_file(self, capsys):
        assert main(["run", "--instances", "/nonexistent/x.json"]) == 2

    def test_run_unwritable_trace_dir_is_an_input_error(self, killer_file, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        assert main(["run", "--instances", killer_file, "--trace-dir", str(blocker / "sub")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fuzz_unwritable_witness_path_is_an_input_error(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        argv = ["fuzz", "--seeds", "0..3", "--workers", "1", "--emit-witness", str(blocker / "w.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_trace_jsonl_and_dir(self, killer_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["trace", "--instances", killer_file, "--trace-dir", str(out_dir)]) == 0
        stdout_lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [rec["t"] for rec in stdout_lines] == [0, 1]
        file_lines = (out_dir / "trace.jsonl").read_text().splitlines()
        assert len(file_lines) == 2

    def test_exhaustive_text_and_exit(self, capsys):
        code = main(["exhaustive", "--horizon", "0", "--max-packets", "2", "--values", "1,2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out

    def test_exhaustive_emits_argmax_witness(self, tmp_path, capsys):
        witness = tmp_path / "w.json"
        code = main(
            [
                "exhaustive",
                "--horizon", "1",
                "--max-packets", "2",
                "--values", "1,2",
                "--emit-witness", str(witness),
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        emitted = load_instance(witness.read_text())
        # re-running the emitted witness reproduces the reported worst ratio
        res = check_instance(emitted)
        assert f"{res.report.v_opt / res.report.v_cp}" == str(Fraction(doc["summary"]["max_ratio"]["exact"]))

    def test_fuzz_seed_range_inclusive(self, capsys):
        code = main(["fuzz", "--seeds", "0..9", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["instances"] == 10
        assert doc["summary"]["violations"] == 0

    def test_fuzz_csv_rows(self, capsys):
        assert main(["fuzz", "--seeds", "0..4", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("instance_hash,")
        assert len(lines) == 6

    def test_fuzz_bad_seed_range(self, capsys):
        assert main(["fuzz", "--seeds", "5..1"]) == 2

    @pytest.mark.parametrize("values", ["-1,2", "0,1"])
    def test_fuzz_rejects_non_positive_values(self, values, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--seeds", "0..20", f"--values={values}"]) == 2
        assert "error: value grid must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fuzz_rejects_nan_rate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--seeds", "0..4", "--rate", "nan"]) == 2
        captured = capsys.readouterr()
        assert "error: arrival_rate must lie in [0, 3]" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "witness.json").exists()

    @pytest.mark.parametrize("command", ["run", "trace", "compare"])
    def test_zero_denominator_in_instance_file_rejected(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "inst.json"
        path.write_text('{"packets": [{"release": 0, "deadline": 1, "value": "1/0"}]}')
        assert main([command, "--instances", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "zero denominator" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "witness.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["fuzz", "--seeds", "0..4"], ["exhaustive", "--horizon", "0", "--max-packets", "1"]],
        ids=["fuzz", "exhaustive"],
    )
    def test_zero_denominator_in_values_rejected(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--values", "1,1/0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "zero denominator" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "witness.json").exists()

    def test_fuzz_rejects_negative_horizon(self, capsys):
        assert main(["fuzz", "--seeds", "0..4", "--horizon", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: horizon must be >= 0\n"
        assert captured.out == ""

    def test_python_dash_m_bdsched(self):
        src = str(Path(harness_mod.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-m", "bdsched", "--help"], capture_output=True, text=True, env=env,
                             timeout=60)
        assert out.returncode == 0
        assert out.stdout.startswith("usage: bdsched")

    def test_import_leaves_multiprocessing_unloaded(self):
        # only a campaign on two or more workers imports multiprocessing
        src = str(Path(harness_mod.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, bdsched, bdsched.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv", [["fuzz", "--seeds", "0..4"], ["exhaustive", "--horizon", "1", "--max-packets", "2"]],
        ids=["fuzz", "exhaustive"],
    )
    def test_rejects_workers_below_one(self, argv, workers, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --workers must be >= 1, got {workers}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_exhaustive_rejects_negative_max_packets(self, capsys):
        assert main(["exhaustive", "--max-packets", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: max_packets must be >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_exhaustive_reports_checked_and_folded(self, fmt, capsys):
        assert main(["exhaustive", "--horizon", "2", "--max-packets", "2", "--format", fmt]) == 0
        spec = GridSpec(horizon=2, max_packets=2, value_grid=ACCEPTANCE_VALUES)
        total, bases = count_instances(spec), count_bases(spec)
        assert (total, bases) == (495, 250)
        checked = total if fmt == "csv" else bases
        assert capsys.readouterr().err.splitlines()[:2] == [
            f"estimated instances: {total}",
            f"checked instances: {checked}   translates and inert twins folded in: {total - checked}",
        ]

    def test_exhaustive_guard_requires_yes(self, capsys):
        # 60 packet shapes, up to 8 packets: far beyond the 10^7 guard
        code = main(
            [
                "exhaustive",
                "--horizon", "2",
                "--max-packets", "8",
                "--values", "1,2,3,4,5,6,7,8,9,10",
            ]
        )
        assert code == 2
        assert "--yes" in capsys.readouterr().err

    def test_violation_witness_written_and_minimized(self, tmp_path, monkeypatch):
        import bdsched.cli as cli_mod
        from bdsched.harness import Summary

        # fabricate a campaign whose "violation" is carrying a marked value;
        # the emitted witness must shrink to just the marked packet
        inst = mk((0, 0, 1), (0, 1, "7/3"), (1, 2, 2))
        summary = Summary()
        summary.first_violation = check_instance(inst)
        summary.first_violation_index = 0

        real_check = harness_mod.check_instance

        def fake_check(candidate, config=CheckConfig()):
            out = real_check(candidate, config)
            if any(p.value == Fraction(7, 3) for p in candidate.packets):
                out.findings.append(Finding("forced-opt", "marked packet present", "-", "-"))
            return out

        monkeypatch.setattr(harness_mod, "check_instance", fake_check)
        target = tmp_path / "w.json"
        cli_mod._emit_witness(str(target), summary, "unused.json", CheckConfig())
        witness = load_instance(target.read_text())
        assert len(witness) == 1
        assert witness.packets[0].value == Fraction(7, 3)

    def test_witness_minimized_under_campaign_checks(self, tmp_path, monkeypatch):
        # a forced-opt check that fails whenever a marked packet is present:
        # only a witness minimized under the campaign's own checks shrinks
        real_forced = harness_mod.check_forced_opt

        def marked_forced(trace, report, opt_sched):
            if any(p.value == Fraction(7, 3) for p in trace.engine.inst.packets):
                return [Finding("forced-opt", "marked packet present", "-", "-")]
            return real_forced(trace, report, opt_sched)

        monkeypatch.setattr(harness_mod, "check_forced_opt", marked_forced)
        values = (Fraction(1), Fraction(7, 3), Fraction(2))
        assert len(gen_random(0, RandomConfig(value_grid=values))) > 1  # seed 0 leaves something to shrink
        target = tmp_path / "w.json"
        argv = ["fuzz", "--seeds", "0..0", "--values", "1,7/3,2", "--workers", "1", "--emit-witness", str(target)]
        assert main(argv) == 1
        witness = load_instance(target.read_text())
        assert len(witness) == 1
        assert witness.packets[0].value == Fraction(7, 3)

    def test_compare_formats(self, killer_file, capsys):
        assert main(["compare", "--instances", killer_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "algorithm,profit,profit_decimal,opt_ratio,opt_ratio_decimal"
        assert main(["compare", "--instances", killer_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {r["algorithm"] for r in doc} == {"cp", "greedy", "opt"}


CHAIN_VARIANTS = ("2.1", "2.2.1", "2.2.2.1", "2.2.2.2", "2.2.2.3+3.1", "3.2.1", "3.2.2", "3.2.3")


class TestRunAgreesWithCampaign:
    def test_coverage_failure_is_a_finding(self, killer_file, monkeypatch, capsys):
        monkeypatch.setattr(IntervalReport, "opt_covered", property(lambda self: False))
        assert not check_instance(greedy_killer(), DEEP).ok
        assert main(["run", "--instances", killer_file]) == 1
        assert "  coverage: " in capsys.readouterr().out
        assert main(["run", "--instances", killer_file, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [f["kind"] for f in doc["findings"]] == ["coverage"]

    def test_findings_and_exit_match_check_instance(self, tmp_path, capsys):
        instances = [chain_family(v) for v in CHAIN_VARIANTS] + [gen_random(s) for s in range(50)]
        path = tmp_path / "inst.json"
        for inst in instances:
            path.write_text(dump_instance(inst))
            code = main(["run", "--instances", str(path), "--json"])
            doc = json.loads(capsys.readouterr().out)
            res = check_instance(inst, DEEP)
            assert doc["findings"] == [f.to_dict() for f in res.findings]
            assert (code == 0) == res.ok


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["exhaustive", "--horizon", "1", "--max-packets", "2"],
        ["fuzz", "--seeds", "0..19"],
    ],
    ids=["exhaustive", "fuzz"],
)
def test_stdout_byte_stable_across_worker_counts(argv, fmt, capsys):
    outputs = []
    for workers in ("1", "2"):
        assert main(argv + ["--format", fmt, "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
