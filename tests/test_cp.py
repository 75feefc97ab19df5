"""The online policy: case dispatch, commitments, lookahead, fallbacks."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

import bdsched.cp as cp_mod
from bdsched import (
    Instance,
    InternalInvariantError,
    Packet,
    build_intervals,
    chain_family,
    check_forced_opt,
    check_inclusions,
    check_lemma_bounds,
    cross_check_queries,
    dump_instance,
    gen_random,
    greedy_killer,
    profit,
    run_cp,
    tight_family,
    trace_to_jsonl,
    validate_instance,
)
from bdsched.cli import main
from conftest import clairvoyant, mk, sent
from test_acceptance import CHAIN_VARIANTS
from test_offline import small_instances


def labels(trace):
    return [(rec.t, rec.case) for rec in trace.steps]


class TestHandSimulations:
    def test_expiring_best_sent_first(self):
        # both packets are best-in-buffer on their last slot
        trace = run_cp(mk((0, 0, 5), (0, 1, 3)))
        sched = sent(trace)
        assert labels(trace) == [(0, "1.1"), (1, "1.1")]
        assert sched == {0: 0, 1: 1}

    def test_weaker_expiring_packet_banked(self):
        # packet 1 dies at 0, packet 0 can wait: send 1 now, commit 0
        inst = mk((0, 1, 5), (0, 0, 4))
        trace = run_cp(inst)
        sched = sent(trace)
        assert labels(trace) == [(0, "1.2.1"), (1, "commit")]
        assert sched == {0: 1, 1: 0}
        assert profit(sched, inst) == 9

    def test_two_flexible_packets(self):
        inst = mk((0, 1, 5), (0, 1, 3))
        trace = run_cp(inst)
        sched = sent(trace)
        assert labels(trace) == [(0, "1.2.2"), (1, "commit")]
        assert profit(sched, inst) == 8

    def test_empty_instance(self):
        trace = run_cp(Instance(()))
        sched = sent(trace)
        assert sched == {} and trace.steps == []

    def test_idle_gap_between_bursts(self):
        inst = mk((0, 0, 1), (3, 3, 1))
        trace = run_cp(inst)
        sched = sent(trace)
        assert [rec.case for rec in trace.steps] == ["1.1", "idle", "idle", "1.1"]
        assert sched == {0: 0, 3: 1}

    def test_hedges_with_banked_packet(self):
        # guard ratio (1 + 8/5 + 13/8) / (8/5 + 13/8) exceeds the bound:
        # the policy banks the expiring packet instead of being greedy
        inst = mk((0, 0, 1), (0, 1, "8/5"), (1, 2, "13/8"))
        trace = run_cp(inst)
        sched = sent(trace)
        assert labels(trace) == [(0, "1.2.3.4"), (1, "2.1"), (2, "commit")]
        assert sched == {0: 0, 1: 1, 2: 2}
        assert profit(sched, inst) == Fraction(169, 40)

    def test_near_threshold_ratio_witness(self):
        # low-value slot gain: send the flexible best now (guard below alpha)
        inst = mk((0, 0, 1), (0, 1, 2), (1, 2, 2))
        trace = run_cp(inst)
        sched = sent(trace)
        assert labels(trace) == [(0, "1.2.3.2"), (1, "commit"), (2, "idle")]
        assert profit(sched, inst) == 4


class TestCaseChains:
    """Each deep branch of the case tree is pinned by one ladder instance."""

    @pytest.mark.parametrize(
        "variant,expected",
        [
            ("2.1", ["1.2.3.4", "2.1", "commit"]),
            ("2.2.1", ["1.2.3.4", "2.2.1", "commit"]),
            ("2.2.2.1", ["1.2.3.4", "2.2.2.1", "1.2.2", "commit"]),
            ("2.2.2.2", ["1.2.3.4", "2.2.2.2", "commit", "idle"]),
            ("2.2.2.3+3.1", ["1.2.3.4", "2.2.2.3", "3.1", "commit"]),
            ("3.2.1", ["1.2.3.4", "2.2.2.3", "3.2.1", "commit"]),
            ("3.2.2", ["1.2.3.4", "2.2.2.3", "3.2.2", "1.2.1", "commit"]),
            ("3.2.3", ["1.2.3.4", "2.2.2.3", "3.2.3", "commit", "idle"]),
        ],
    )
    def test_chain_reaches_branch(self, variant, expected):
        inst = chain_family(variant)
        assert validate_instance(inst) == []
        trace = run_cp(inst)
        assert [rec.case for rec in trace.steps] == expected

    def test_tmp_markers_follow_their_cases(self):
        trace = run_cp(chain_family("3.2.3"))
        by_t = {rec.t: rec for rec in trace.steps}
        assert str(by_t[0].committed) == "tmp1"
        assert str(by_t[1].committed) == "tmp2"


#: The selectors the policy consulted on the ladder instances, (step time,
#: kind, base, i): m0/m1/q1 of case 1 at t=0, m0..m2/q1/q2 of family 2 at
#: t=1, m0..m3/q1/q3 of family 3 at t=2, and the m0/m1 of case 1 at t=2 or
#: t=3.
_CASE1_AT0 = [(0, "m", 0, 0), (0, "m", 0, 1), (0, "q", 0, 1)]
_FAMILY2_AT1 = [(1, "m", 0, 0), (1, "m", 0, 1), (1, "m", 0, 2), (1, "q", 0, 1), (1, "q", 0, 2)]
_FAMILY3_AT2 = [(2, "m", 0, 0), (2, "m", 0, 1), (2, "m", 0, 2), (2, "m", 0, 3), (2, "q", 0, 1), (2, "q", 0, 3)]
_CASE1_AT2 = [(2, "m", 2, 0), (2, "m", 2, 1)]
_CASE1_AT3 = [(3, "m", 3, 0), (3, "m", 3, 1)]
CHAIN_CONSULTED = {
    "2.1": _CASE1_AT0 + _FAMILY2_AT1,
    "2.2.1": _CASE1_AT0 + _FAMILY2_AT1,
    "2.2.2.1": _CASE1_AT0 + _FAMILY2_AT1 + _CASE1_AT2,
    "2.2.2.2": _CASE1_AT0 + _FAMILY2_AT1,
    "2.2.2.3+3.1": _CASE1_AT0 + _FAMILY2_AT1 + _FAMILY3_AT2,
    "3.2.1": _CASE1_AT0 + _FAMILY2_AT1 + _FAMILY3_AT2,
    "3.2.2": _CASE1_AT0 + _FAMILY2_AT1 + _FAMILY3_AT2 + _CASE1_AT3,
    "3.2.3": _CASE1_AT0 + _FAMILY2_AT1 + _FAMILY3_AT2,
}
#: The windows (step time, t, t', t'') those consultations ask on the 3.2.2
#: ladder, per selector its wide query, then its narrow one; m0 has none.
CHAIN_322_QUERIES = [
    (0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0), (0, 0, 1, 2), (0, 0, 1, 1),
    (1, 0, 0, 0), (1, 0, 1, 1), (1, 0, 0, 0), (1, 0, 2, 2), (1, 0, 1, 1), (1, 0, 1, 2), (1, 0, 1, 1),
    (1, 0, 2, 3), (1, 0, 2, 2),
    (2, 0, 0, 0), (2, 0, 1, 1), (2, 0, 0, 0), (2, 0, 2, 2), (2, 0, 1, 1), (2, 0, 3, 3), (2, 0, 2, 2),
    (2, 0, 1, 2), (2, 0, 1, 1), (2, 0, 3, 4), (2, 0, 3, 3),
    (3, 3, 3, 3), (3, 3, 4, 4), (3, 3, 3, 3),
]


class TestSharedQueryEngine:
    @pytest.mark.parametrize("variant", sorted(CHAIN_CONSULTED))
    def test_policy_log_unchanged_and_checks_hit_the_memo(self, variant):
        inst = chain_family(variant)
        trace = run_cp(inst)
        assert trace.consulted == CHAIN_CONSULTED[variant]
        hits = trace.engine.hits
        opt_sched = clairvoyant(inst)
        report = build_intervals(trace, opt_sched)
        findings = (
            check_lemma_bounds(trace, report)
            + check_forced_opt(trace, report, opt_sched)
            + check_inclusions(trace)
            + cross_check_queries(trace)
        )
        assert findings == []
        # the checks reuse the policy's answers and log nothing
        assert trace.consulted == CHAIN_CONSULTED[variant]
        assert trace.engine.hits > hits > 0

    def test_query_windows_derive_from_the_consultations(self):
        trace = run_cp(chain_family("3.2.2"))
        assert trace.queries == CHAIN_322_QUERIES
        assert trace.max_lookahead() == 1


class TestStateMachineInvariants:
    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=300, deadline=None)
    def test_schedule_feasible_and_deterministic(self, inst):
        trace1 = run_cp(inst)
        sched1 = sent(trace1)
        trace2 = run_cp(inst)
        sched2 = sent(trace2)
        profit(sched1, inst)  # raises if infeasible
        assert sched1 == sched2
        assert trace_to_jsonl(trace1) == trace_to_jsonl(trace2)

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=300, deadline=None)
    def test_lookahead_never_exceeded(self, inst):
        trace = run_cp(inst)
        assert trace.max_lookahead() <= 1
        for now, t, t_arr, _t_slot in trace.queries:
            assert t_arr <= now + 1

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=300, deadline=None)
    def test_commitments_honored(self, inst):
        trace = run_cp(inst)
        sched = sent(trace)
        for rec in trace.steps:
            if isinstance(rec.committed, int):
                assert sched.get(rec.t + 1) == rec.committed

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=300, deadline=None)
    def test_case_family_chaining(self, inst):
        trace = run_cp(inst)
        by_t = {rec.t: rec for rec in trace.steps}
        for rec in trace.steps:
            if rec.case.startswith("2."):
                prev = by_t[rec.t - 1]
                assert prev.case == "1.2.3.4" and not prev.fallback
            if rec.case.startswith("3."):
                prev = by_t[rec.t - 1]
                assert prev.case == "2.2.2.3"
        for rec in trace.steps:
            if rec.case == "1.2.3.4" and not rec.fallback:
                assert by_t[rec.t + 1].case.startswith("2.")
            if rec.case == "2.2.2.3":
                assert by_t[rec.t + 1].case.startswith("3.")


class TestFallbacks:
    def test_m1_absent_sends_best_without_commitment(self):
        inst = mk((0, 1, 5))
        trace = run_cp(inst)
        sched = sent(trace)
        rec = trace.steps[0]
        assert rec.case == "1.2.2" and rec.fallback == "m1-absent"
        assert rec.committed is None
        assert sched == {0: 0}

    def test_unreleased_slot_gain_defers(self):
        # the slot-gain packet arrives only at t+1; policy must not name it at t
        inst = mk((0, 1, 10), (1, 2, 9), (1, 2, 8))
        trace = run_cp(inst)
        sched = sent(trace)
        rec = trace.steps[0]
        assert rec.case == "1.2.3.1" and rec.fallback == "q1-unreleased"
        assert rec.transmitted == 0 and rec.committed is None
        # nothing is lost: all three packets still go out
        assert profit(sched, inst) == 27

    def test_unreleased_slot_gain_collects_everything(self):
        # the slot-gain packet is a one-shot arriving at t+1 above the
        # alpha threshold; deferring still collects the full optimum
        inst = mk((0, 1, 1), (1, 2, 1), (1, 1, "3/5"))
        trace = run_cp(inst)
        sched = sent(trace)
        assert trace.steps[0].case == "1.2.3.1"
        assert trace.steps[0].fallback == "q1-unreleased"
        assert profit(sched, inst) == Fraction(13, 5)
        assert profit(sched, inst) == profit(clairvoyant(inst), inst)

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=300, deadline=None)
    def test_fallbacks_never_commit(self, inst):
        trace = run_cp(inst)
        for rec in trace.steps:
            if rec.fallback:
                assert rec.committed is None


    def test_case_naming_a_non_pending_packet_raises(self, monkeypatch):
        # no silent substitute: a case that names a packet outside the buffer
        # (here one released only at t=2) is an internal error
        real_classify = cp_mod.classify_case

        def misnaming(oracle, t, state):
            rec = real_classify(oracle, t, state)
            rec.transmitted = 1
            return rec

        monkeypatch.setattr(cp_mod, "classify_case", misnaming)
        with pytest.raises(InternalInvariantError, match=r"t=0: case 1\.1 transmits packet 1, which is not pending"):
            run_cp(mk((0, 0, 5), (2, 2, 1)))

    def test_commit_of_a_sent_packet_raises_at_the_next_step(self, monkeypatch):
        # case 1.2.2 sends packet 0 at t=0 and commits packet 1 to t=1; a case
        # that commits the packet it sends leaves t=1 a commit of a packet no
        # longer pending, although t=1 is its deadline
        inst = mk((0, 1, 5), (1, 1, 1))
        assert labels(run_cp(inst)) == [(0, "1.2.2"), (1, "commit")]
        real_classify = cp_mod.classify_case

        def self_committing(oracle, t, state):
            rec = real_classify(oracle, t, state)
            rec.committed = rec.transmitted
            return rec

        monkeypatch.setattr(cp_mod, "classify_case", self_committing)
        with pytest.raises(InternalInvariantError, match=r"t=1: case commit transmits packet 0, which is not pending"):
            run_cp(inst)


class TestScaleInvariance:
    """Every guard is homogeneous in the values, so scaling all of them by
    one positive factor changes no decision of the policy."""

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=200, deadline=None)
    def test_scaling_values_changes_no_decision(self, inst):
        def decisions(instance):
            trace = run_cp(instance)
            sched = sent(trace)
            steps = [(rec.t, rec.case, rec.transmitted, rec.committed, rec.fallback) for rec in trace.steps]
            return steps, sched, trace.queries

        expected = decisions(inst)
        for factor in (Fraction(7, 3), Fraction(1, 6), Fraction(1000003, 999983)):
            scaled = Instance(
                Packet(id=p.id, release=p.release, deadline=p.deadline, value=p.value * factor) for p in inst.packets
            )
            assert decisions(scaled) == expected


#: The instances whose trace and command-line bytes are pinned: every ladder
#: variant, the greedy killer, the first tight-family members, both fallback
#: fixtures and the first hundred default random instances.
def _pinned_instances():
    yield from (chain_family(v) for v in CHAIN_VARIANTS)
    yield greedy_killer()
    yield from (tight_family(n) for n in range(4))
    yield mk((0, 1, 5))  # m1-absent
    yield mk((0, 1, 10), (1, 2, 9), (1, 2, 8))  # q1-unreleased
    yield from (gen_random(seed) for seed in range(100))


#: sha256 over, per pinned instance in order, its trace_to_jsonl text and the
#: stdout of `run --json`, `trace` and `compare --format json` on it.
PINNED_TRACE_SHA256 = "e1315847a72b26757bd0a7cb63cdf9f70561c4450279ec68e41d7fa6661f8070"
#: sha256 over the text stdout of `run` on each pinned instance, in order.
PINNED_RUN_TEXT_SHA256 = "c63ac17d7c23782e200ec3dcc4e63139f2f01c5c0fb260a279c37cae47e3abc3"


class TestTraceSerialization:
    def test_jsonl_fields(self):
        trace = run_cp(mk((0, 1, 5), (0, 0, 4)))
        lines = [json.loads(line) for line in trace_to_jsonl(trace).splitlines()]
        assert lines[0]["t"] == 0
        assert lines[0]["case"] == "1.2.1"
        assert lines[0]["transmitted"] == 1
        assert lines[0]["committed"] == 0
        assert {v["name"] for v in lines[0]["m"]} == {"m0", "m1"}
        assert lines[1] == {"t": 1, "case": "commit", "transmitted": 0, "committed": None, "m": [], "q": []}

    def test_selectors_are_read_back_without_solving(self):
        trace = run_cp(chain_family("3.2.2"))
        solved = (list(trace.engine.rows), list(trace.engine.cache))
        lines = [json.loads(line) for line in trace_to_jsonl(trace).splitlines()]
        assert (list(trace.engine.rows), list(trace.engine.cache)) == solved
        step = lines[2]
        assert step["case"] == "3.2.2"
        assert [v["name"] for v in step["m"]] == ["m0", "m1", "m2", "m3"]
        assert [v["name"] for v in step["q"]] == ["q1", "q3"]
        assert {v["base"] for v in step["m"] + step["q"]} == {0}

    def test_trace_and_command_bytes_are_pinned(self, tmp_path, capsys):
        digest, run_text = hashlib.sha256(), hashlib.sha256()
        path = tmp_path / "instance.json"
        for inst in _pinned_instances():
            digest.update(trace_to_jsonl(run_cp(inst)).encode())
            path.write_text(dump_instance(inst))
            for command, *flags in (["run", "--json"], ["trace"], ["compare", "--format", "json"]):
                assert main([command, "--instances", str(path), *flags]) == 0
                digest.update(capsys.readouterr().out.encode())
            assert main(["run", "--instances", str(path)]) == 0
            run_text.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == PINNED_TRACE_SHA256
        assert run_text.hexdigest() == PINNED_RUN_TEXT_SHA256
