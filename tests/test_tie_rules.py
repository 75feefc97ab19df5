"""The certificate under the other consistent tie rules.

Every optimum is pinned by one tie rule, ``model.rank_key``, and each of its
readers -- the rank index each run's query engine builds and opt_full
sweeps, the oracle dp_partial and the enumeration oracle -- looks it up when
it runs.  Rebinding it swaps the rule everywhere at once: these tests swap
in each of the three other (deadline, release) orders and rerun the grid and
fuzz certificates with every check and the oracle cross-check.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from bdsched import (
    CheckConfig,
    GridSpec,
    QueryEngine,
    RandomConfig,
    check_instance,
    dp_partial,
    enumerate_instances,
    gen_random,
    model,
)
from bdsched.harness import certify, evaluate, online_buffers
from conftest import mk, solved
from enumeration import OracleSizeError, brute_force_partial

#: name -> (rank key, case-1.1 steps over H2K3; 6,004 under the canonical rule)
TIE_RULES = {
    "deadline-desc": (lambda p, weight: (-weight, -p.deadline, p.release, p.id), 5_224),
    "release-desc": (lambda p, weight: (-weight, p.deadline, -p.release, p.id), 6_004),
    "both-desc": (lambda p, weight: (-weight, -p.deadline, -p.release, p.id), 5_224),
}

H2K3 = GridSpec(
    horizon=2,
    max_packets=3,
    value_grid=(Fraction(1), Fraction(5, 4), Fraction(8, 5), Fraction(2), Fraction(3)),
)

ALL_CHECKS = CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True, cross_check=True)

#: name -> the rank order of WITNESS's ids, and the members of its P(0, 1, 1)
WITNESS_ORDERS = {
    "deadline-desc": ((1, 2, 0), (1, 2)),
    "release-desc": ((0, 2, 1), (0, 2)),
    "both-desc": ((2, 1, 0), (2, 1)),
}

#: three equal values: a loop at 0, an edge {0, 1} and a loop at 1; the
#: canonical rule ranks them 0, 1, 2 and P(0, 1, 1) keeps 0 and 1
WITNESS = ((0, 0, 1), (0, 1, 1), (1, 1, 1))


@pytest.fixture(params=list(TIE_RULES))
def rule(request, monkeypatch) -> str:
    """The name of the tie rule swapped in for the test."""
    monkeypatch.setattr(model, "rank_key", TIE_RULES[request.param][0])
    return request.param


def test_every_reader_follows_the_rule(rule):
    inst = mk(*WITNESS)
    order, members = WITNESS_ORDERS[rule]
    assert tuple([p.id for p in sorted(inst.packets, key=lambda p: model.rank_key(p, p.value))]) == order
    engine = QueryEngine(inst, [])
    assert engine.ids == order
    engine_answer = engine.p(0, 1, 1)
    oracle_answer = dp_partial((0, 1, 1), inst)
    assert oracle_answer.ids == order
    assert engine_answer.members == oracle_answer.members == brute_force_partial((0, 1, 1), inst).members == members


def test_grid_is_certified(rule):
    instances = 0
    cases: Counter[str] = Counter()
    failed = []
    for inst in enumerate_instances(H2K3):
        res = check_instance(inst, ALL_CHECKS)
        instances += 1
        cases.update(res.cases)
        if not res.ok:
            failed.append((inst, res.findings))
    assert failed == []
    assert instances == 5_455
    # the rule decides which cases fire
    assert cases["1.1"] == TIE_RULES[rule][1]


def test_fuzz_is_certified_and_every_answer_equals_the_enumeration(rule):
    compared = 0
    for seed in range(200):
        inst = gen_random(seed)
        run = evaluate(inst)
        res = certify(run, ALL_CHECKS)
        assert res.ok, (seed, res.findings)
        trace = run[0]
        buffers = online_buffers(trace)
        for key, got in solved(trace.engine):
            try:
                want = brute_force_partial(key, inst, buffers.get(key[0], ()))
            except OracleSizeError:
                continue
            assert got == want, (seed, key)
            compared += 1
    assert compared > 10_000


@pytest.mark.parametrize("name", list(TIE_RULES))
def test_a_rebound_rule_reaches_instances_already_checked(name, monkeypatch):
    # the same Instance objects, checked under the canonical rule and then
    # under another: each run ranks the packets afresh, so no answer of the
    # first pass leaks into the second, where the cross-check would see it
    instances = [gen_random(seed) for seed in range(300)]
    for inst in instances:
        assert check_instance(inst, ALL_CHECKS).ok
    monkeypatch.setattr(model, "rank_key", TIE_RULES[name][0])
    results = [check_instance(inst, ALL_CHECKS) for inst in instances]
    assert [(seed, res.findings) for seed, res in enumerate(results) if res.findings] == []


#: the checks that ask only the run's query engine: no oracle
ENGINE_CHECKS = CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True)


@pytest.mark.parametrize(
    "instances",
    [
        pytest.param(lambda: [gen_random(seed) for seed in range(50)], id="fuzz-h6"),
        pytest.param(lambda: [gen_random(seed, RandomConfig(horizon=40, arrival_rate=1.5)) for seed in range(50)],
                     id="fuzz-h40"),
        pytest.param(lambda: list(enumerate_instances(GridSpec(1, 3, H2K3.value_grid))), id="grid-h1k3"),
    ],
)
def test_one_rank_index_per_run(instances, monkeypatch):
    # a run ranks each packet once: the policy, opt_full and every engine
    # check read the one index its query engine built
    instances = instances()
    calls = 0
    rank_key = model.rank_key

    def counted(p, weight):
        nonlocal calls
        calls += 1
        return rank_key(p, weight)

    monkeypatch.setattr(model, "rank_key", counted)
    for inst in instances:
        calls = 0
        check_instance(inst, ENGINE_CHECKS)
        assert calls == len(inst.packets), inst
