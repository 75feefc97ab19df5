"""Instance sources: grids, fuzzing, the baseline and structured families."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from bdsched import (
    GridSpec,
    Instance,
    Packet,
    RandomConfig,
    count_bases,
    count_instances,
    enumerate_bases,
    enumerate_instances,
    gen_random,
    greedy_baseline,
    greedy_killer,
    instance_hash,
    opt_full,
    profit,
    tight_family,
    validate_instance,
)


class TestEnumerate:
    def test_single_packet_grid(self):
        spec = GridSpec(horizon=0, max_packets=1, value_grid=(Fraction(1),))
        got = list(enumerate_instances(spec))
        assert len(got) == 2
        shapes = {(p.release, p.deadline, p.value) for inst in got for p in inst.packets}
        assert shapes == {(0, 0, Fraction(1)), (0, 1, Fraction(1))}

    def test_zero_budget_grid_is_just_empty(self):
        spec = GridSpec(horizon=0, max_packets=0, value_grid=(Fraction(1),))
        got = list(enumerate_instances(spec))
        assert len(got) == 1 and len(got[0]) == 0

    def test_count_matches_independent_formula(self):
        # multisets of size 1..k over u = (horizon+1)*2*|grid| packet shapes
        spec = GridSpec(horizon=1, max_packets=2, value_grid=(Fraction(1), Fraction(2)))
        u = 2 * 2 * 2
        expected = math.comb(u, 1) + math.comb(u + 1, 2)
        assert count_instances(spec) == expected
        assert sum(1 for _ in enumerate_instances(spec)) == expected

    def test_no_duplicates_up_to_relabeling(self):
        spec = GridSpec(horizon=1, max_packets=2, value_grid=(Fraction(1), Fraction(2)))
        seen = set()
        for inst in enumerate_instances(spec):
            key = tuple(sorted((p.release, p.deadline, p.value) for p in inst.packets))
            assert key not in seen
            seen.add(key)

    def test_all_generated_valid(self):
        spec = GridSpec(horizon=2, max_packets=2, value_grid=(Fraction(1), Fraction(5, 4)))
        for inst in enumerate_instances(spec):
            assert validate_instance(inst) == []

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(horizon=-1, max_packets=1, value_grid=(Fraction(1),))
        with pytest.raises(ValueError, match="max_packets must be >= 0"):
            GridSpec(horizon=0, max_packets=-1, value_grid=(Fraction(1),))
        with pytest.raises(ValueError):
            GridSpec(horizon=0, max_packets=1, value_grid=())
        with pytest.raises(ValueError):
            GridSpec(horizon=0, max_packets=1, value_grid=(Fraction(0),))
        # the fuzzer's grid obeys the same rule
        with pytest.raises(ValueError, match="value grid must be non-empty"):
            RandomConfig(value_grid=())
        with pytest.raises(ValueError, match="value grid must be positive"):
            RandomConfig(value_grid=(Fraction(0), Fraction(1)))
        for rate in (-0.5, 3.5, float("nan")):
            with pytest.raises(ValueError, match=r"arrival_rate must lie in \[0, 3\]"):
                RandomConfig(arrival_rate=rate)


@pytest.mark.parametrize("kwargs,message", [({"horizon": -1}, "horizon must be >= 0")])
def test_bad_fuzz_config_names_the_field(kwargs, message):
    with pytest.raises(ValueError) as exc:
        RandomConfig(**kwargs)
    assert str(exc.value) == message


def shifted(inst: Instance, s: int) -> Instance:
    return Instance(Packet(p.id, p.release + s, p.deadline + s, p.value) for p in inst.packets)


SMALL_GRIDS = [
    GridSpec(horizon=h, max_packets=k, value_grid=values)
    for h in range(3)
    for k in range(5)
    for values in ((Fraction(1),), (Fraction(1), Fraction(8, 5)))
]


class TestBases:
    @pytest.mark.parametrize("spec", SMALL_GRIDS, ids=lambda spec: f"h{spec.horizon}k{spec.max_packets}v{len(spec.value_grid)}")
    def test_count_matches_closed_form(self, spec):
        bases = list(enumerate_bases(spec))
        assert count_bases(spec) == len(bases)
        assert all(not inst.packets or min(p.release for p in inst.packets) == 0 for _i, inst, _k in bases)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("spec", SMALL_GRIDS[::3], ids=lambda spec: f"h{spec.horizon}k{spec.max_packets}v{len(spec.value_grid)}")
    def test_base_shards_and_translates_are_the_grid(self, spec, workers):
        grid = [inst.packets for inst in enumerate_instances(spec)]
        position = {packets: i for i, packets in enumerate(grid)}
        serial = list(enumerate_bases(spec))
        classes = []
        for r in range(workers):
            shard = list(enumerate_bases(spec, workers, r))
            assert [(i, inst.packets, k) for i, inst, k in shard] == [
                (i, inst.packets, k) for i, inst, k in serial[r::workers]
            ]
            for index, base, translates in shard:
                assert position[base.packets] == index
                members = [shifted(base, s).packets for s in range(translates + 1)]
                assert all(position[m] > index for m in members[1:])  # the base is lowest in its class
                classes += members
        assert sorted(classes, key=position.__getitem__) == grid


class TestGenRandom:
    def test_deterministic_per_seed(self):
        a, b = gen_random(42), gen_random(42)
        assert instance_hash(a) == instance_hash(b)

    def test_zero_rate_gives_empty(self):
        assert len(gen_random(7, RandomConfig(arrival_rate=0.0))) == 0

    def test_all_seeds_valid(self):
        for seed in range(500):
            assert validate_instance(gen_random(seed)) == []

    def test_different_seeds_differ_somewhere(self):
        hashes = {instance_hash(gen_random(s)) for s in range(50)}
        assert len(hashes) > 1


class TestGreedyBaseline:
    def test_killer_instance_profits(self):
        inst = greedy_killer()
        greedy = profit(greedy_baseline(inst), inst)
        best = profit(opt_full(inst), inst)
        assert greedy == Fraction(101, 100)
        assert best == Fraction(201, 100)
        assert best / greedy == Fraction(201, 101)  # within a hair of 2

    def test_single_packet_matches_opt(self):
        from conftest import mk

        inst = mk((0, 1, 7))
        assert profit(greedy_baseline(inst), inst) == profit(opt_full(inst), inst)

    def test_greedy_never_beats_opt(self):
        for seed in range(300):
            inst = gen_random(seed)
            assert profit(greedy_baseline(inst), inst) <= profit(opt_full(inst), inst)

    def test_greedy_schedule_feasible(self):
        for seed in range(300):
            inst = gen_random(seed)
            profit(greedy_baseline(inst), inst)  # raises on infeasibility


class TestTightFamily:
    def test_first_member_and_convergents(self):
        from conftest import mk

        assert tight_family(0) == mk((0, 1, 1), (1, 2, 2), (0, 1, Fraction(3, 4)))
        # c = 3(p/q - 3)/4 for the lower convergents 268/65 and 17684/4289
        assert tight_family(1).packets[2].value == Fraction(3 * (268 - 3 * 65), 4 * 65)
        assert tight_family(2).packets[2].value == Fraction(3 * (17684 - 3 * 4289), 4 * 4289)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            tight_family(-1)
