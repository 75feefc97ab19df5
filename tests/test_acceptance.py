"""Acceptance suite: every exit criterion, at its stated scale, exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The sweep and fuzz corpora are shared session fixtures, so the
whole suite costs a few minutes of CPU, dominated by the exhaustive grid.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bdsched import (
    ALPHA,
    CheckConfig,
    GridSpec,
    Instance,
    Packet,
    Quad17,
    R,
    check_instance,
    gen_random,
    greedy_baseline,
    greedy_killer,
    profit,
    quad_cmp,
    render_decimal,
    run_cp,
    run_exhaustive,
    run_fuzz,
)
from bdsched.generators import chain_family, tight_family
from bdsched.harness import online_buffers
from bdsched.model import le_r_times
from conftest import clairvoyant, sent, solved
from enumeration import BRUTE_FORCE_LIMIT, OracleSizeError, brute_force_partial

SWEEP_GRID = GridSpec(
    horizon=2,
    max_packets=4,
    value_grid=(Fraction(1), Fraction(5, 4), Fraction(8, 5), Fraction(2), Fraction(3)),
)

CHAIN_VARIANTS = ("2.1", "2.2.1", "2.2.2.1", "2.2.2.2", "2.2.2.3+3.1", "3.2.1", "3.2.2", "3.2.3")

DEEP_CHECKS = CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True)


def _announce(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}")


@pytest.fixture(scope="session")
def sweep_report():
    return run_exhaustive(SWEEP_GRID, DEEP_CHECKS, workers=2)


@pytest.fixture(scope="session")
def fuzz_10k_report():
    return run_fuzz(list(range(10_000)), config_checks=CheckConfig(forced_opt=True), workers=2)


@pytest.fixture(scope="session")
def fuzz_1k_results():
    cfg = CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True, cross_check=True)
    return [check_instance(gen_random(seed), cfg) for seed in range(1_000)]


@pytest.fixture(scope="session")
def chain_corpus_results():
    """Ladder instances plus randomized neighbourhoods around them; this is
    where the family-3 branches get real coverage."""
    results = []
    for variant in CHAIN_VARIANTS:
        results.append(check_instance(chain_family(variant), DEEP_CHECKS))
    rng = random.Random(20240817)
    jitters = (Fraction(0), Fraction(1, 64), Fraction(-1, 64), Fraction(1, 16), Fraction(3, 32))
    for _ in range(200):
        base = chain_family(rng.choice(CHAIN_VARIANTS))
        packets = []
        for p in base.packets:
            value = max(Fraction(1, 8), p.value + rng.choice(jitters))
            packets.append(Packet(p.id, p.release, p.deadline, value))
        if rng.random() < 0.5:
            t = rng.randrange(0, 5)
            packets.append(Packet(len(packets), t, t + rng.randrange(0, 2), Fraction(rng.randrange(1, 5))))
        results.append(check_instance(Instance(packets), DEEP_CHECKS))
    return results


class TestCriterion1ExhaustiveBound:
    def test_sweep_has_zero_bound_violations(self, sweep_report):
        assert sweep_report.summary.instances == 46_375
        bad = sweep_report.summary.findings_by_kind.get("global-bound", 0)
        assert bad == 0, f"{bad} instances beat the bound"
        assert sweep_report.summary.violations == 0
        _announce(
            "1",
            f"exhaustive sweep of {sweep_report.summary.instances} instances: "
            f"opt never exceeds R * policy (exact)",
        )


class TestCriterion2IntervalBound:
    def test_sweep_intervals_clean(self, sweep_report):
        assert sweep_report.summary.findings_by_kind.get("interval-bound", 0) == 0
        _announce("2a", "per-interval bound has zero findings on the sweep")

    def test_fuzz_10k_intervals_clean(self, fuzz_10k_report):
        assert fuzz_10k_report.summary.instances == 10_000
        assert fuzz_10k_report.summary.findings_by_kind.get("interval-bound", 0) == 0
        assert fuzz_10k_report.summary.violations == 0
        _announce("2b", "per-interval bound has zero findings on 10,000 fuzzed instances")


class TestCriterion3InclusionLaws:
    def test_fuzz_1k_inclusions_clean(self, fuzz_1k_results):
        findings = [f for res in fuzz_1k_results for f in res.findings if f.kind == "inclusion"]
        assert findings == [], findings[:5]
        _announce("3", "nesting laws hold over 1,000 fuzzed runs (zero violations)")

    def test_sweep_inclusions_clean(self, sweep_report):
        assert sweep_report.summary.findings_by_kind.get("inclusion", 0) == 0
        _announce("3", f"nesting laws hold over the {sweep_report.summary.instances} instances of the sweep")


class TestCriterion4OracleEquivalence:
    def test_fuzz_1k_oracle_matches(self, fuzz_1k_results):
        # the campaigns' cross-check compared every logged query with dp_partial
        findings = [f for res in fuzz_1k_results for f in res.findings if f.kind == "oracle-mismatch"]
        assert findings == [], findings[:5]
        # and the enumeration oracle, dp_partial's reference, sees the same answers
        compared = 0
        for res in fuzz_1k_results:
            trace = run_cp(res.instance)
            buffers = online_buffers(trace)
            answers = dict(solved(trace.engine))  # what the run's engine answered
            for q in {(t, t_arr, t_slot) for _, t, t_arr, t_slot in trace.queries}:
                try:
                    slow = brute_force_partial(q, res.instance, buffers.get(q[0], ()))
                except OracleSizeError:
                    continue
                assert answers[q] == slow, (res.instance, q)
                compared += 1
        assert compared > 0
        runs = len(fuzz_1k_results)
        _announce(
            "4",
            f"canonical solver equals the dynamic-programming oracle on every logged query of {runs} runs, "
            f"and the enumeration oracle on the {compared} of them with at most {BRUTE_FORCE_LIMIT} "
            f"eligible packets",
        )


class TestCriterion5ForcedOptimum:
    def test_forced_transmissions_hold_everywhere(
        self, sweep_report, fuzz_10k_report, fuzz_1k_results, chain_corpus_results
    ):
        assert sweep_report.summary.findings_by_kind.get("forced-opt", 0) == 0
        assert fuzz_10k_report.summary.findings_by_kind.get("forced-opt", 0) == 0
        for res in fuzz_1k_results + chain_corpus_results:
            assert not [f for f in res.findings if f.kind == "forced-opt"]
        fired_221 = fuzz_10k_report.summary.cases_seen.get("2.2.2.1", 0) + sum(
            res.cases.count("2.2.2.1") for res in chain_corpus_results
        )
        fired_322 = sum(res.cases.count("3.2.2") for res in chain_corpus_results)
        assert fired_221 > 0 and fired_322 > 0, "forced-case coverage is vacuous"
        _announce(
            "5",
            f"forced optimum transmissions verified ({fired_221} firings of 2.2.2.1, "
            f"{fired_322} of 3.2.2, zero violations)",
        )


class TestCriterion6ConstantIdentities:
    def test_identities_exact(self):
        prod = R * (ALPHA + 1)
        assert prod.a == 2 and prod.b == 0
        assert quad_cmp(ALPHA + 2, R * 2) == 0
        _announce("6", "2 = R*(alpha+1) and alpha+2 = 2R hold exactly in Q(sqrt17)")


class TestCriterion7BaselineSeparation:
    def test_killer_separates_greedy_from_policy(self):
        inst = greedy_killer()
        v_greedy = profit(greedy_baseline(inst), inst)
        v_cp = profit(sent(run_cp(inst)), inst)
        v_opt = profit(clairvoyant(inst), inst)
        assert v_opt * 10 > v_greedy * 19  # opt/greedy > 1.9, exact cross-multiplied
        assert Quad17.of(v_opt) <= R * v_cp
        _announce(
            "7",
            f"baseline separation: opt/greedy = {v_opt / v_greedy} > 1.9 while opt/policy stays within R",
        )


class TestCriterion8TightnessProbe:
    def test_max_ratio_reported_and_below_r(self, sweep_report):
        assert sweep_report.summary.max_ratio is not None
        v_opt, v_cp = sweep_report.summary.max_ratio
        assert Quad17.of(v_opt) <= R * v_cp  # hard part of the criterion
        ratio = v_opt / v_cp
        expectation = "meets" if ratio > Fraction(115, 100) else "BELOW"
        _announce(
            "8",
            f"sweep max opt/policy ratio = ({v_opt})/({v_cp}) = {ratio} = {render_decimal(ratio)} <= R "
            f"(~1.280776); {expectation} the soft 1.15 expectation",
        )

    def test_sweep_result_pinned(self, sweep_report):
        # The sweep's exact outcome: a wrongly wired guard shows here as a
        # change in which cases fire, even where every bound still holds.
        assert sweep_report.summary.max_ratio == (Fraction(23, 5), Fraction(18, 5))
        assert sweep_report.summary.cases_seen == {
            "1.1": 61332, "1.2.1": 8158, "1.2.2": 25282, "1.2.3.1": 2316, "1.2.3.2": 1879,
            "1.2.3.3": 1612, "1.2.3.4": 2367, "2.1": 603, "2.2.1": 13, "2.2.2.2": 13,
            "commit": 32549, "idle": 21626,
        }

    def test_tight_family_approaches_r(self):
        # Ratios rise strictly toward R from below: a certifier whose bound
        # constant were any number below R (23/18 + 10^-3, say) rejects these.
        all_checks = CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True, cross_check=True)
        ratios = []
        for n in range(8):
            res = check_instance(tight_family(n), all_checks)
            assert res.ok, (n, res.findings)
            assert "1.2.3.3" in res.cases
            ratios.append(res.report.v_opt / res.report.v_cp)
        assert ratios[:3] == [Fraction(5, 4), Fraction(333, 260), Fraction(21973, 17156)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(le_r_times(r, 1) for r in ratios)
        assert all(not le_r_times(r + Fraction(1, 10**6), 1) for r in ratios[2:])  # r > R - 10^-6
        _announce(
            "8",
            f"tight family: {len(ratios)} instances, ratios rise strictly to "
            f"{render_decimal(ratios[-1])} <= R, above R - 10^-6 from n=2 on",
        )
