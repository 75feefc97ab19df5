"""Instance sources: grids, fuzzing, the baseline and structured families."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from bdsched import (
    GridSpec,
    Instance,
    RandomConfig,
    count_bases,
    count_instances,
    enumerate_bases,
    enumerate_instances,
    gen_random,
    greedy_baseline,
    greedy_killer,
    instance_hash,
    profit,
    tight_family,
    validate_instance,
)
from conftest import SCALED_VALUES, clairvoyant, is_base, without_inert


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


SMALL_GRIDS = [
    GridSpec(horizon=h, max_packets=k, value_grid=values)
    for h in range(3)
    for k in range(5)
    for values in ((Fraction(1),), (Fraction(1), Fraction(8, 5)))
]

#: Grids whose scaled classes have several members with different twin
#: counts ({1} ~ {2} ~ {4}, {1, 2} ~ {2, 4}), and a one-value grid.
SCALED_GRIDS = [
    pytest.param(GridSpec(horizon=2, max_packets=4, value_grid=values), id=f"h2k4-{label}")
    for label, values in SCALED_VALUES.items()
]


def class_key(inst: Instance) -> tuple:
    """The shapes of the checked base an instance folds to: shifted back
    to a release at 0, less its inert packets, and its values divided by
    the smallest, so that scaled copies share a key."""
    reduced = without_inert(inst).packets
    lo = min((p.release for p in reduced), default=0)
    unit = min((p.value for p in reduced), default=1)
    return tuple((p.release - lo, p.deadline - lo, p.value / unit) for p in reduced)


def grid_id(spec: GridSpec) -> str:
    return f"h{spec.horizon}k{spec.max_packets}v{len(spec.value_grid)}"


class TestBases:
    @pytest.mark.parametrize("spec", [*SMALL_GRIDS, *SCALED_GRIDS], ids=grid_id)
    def test_count_matches_closed_form(self, spec):
        bases = list(enumerate_bases(spec))
        assert count_bases(spec) == len(bases)
        for _index, inst, _translates, _twins in bases:
            assert is_base(inst) and without_inert(inst) == inst
        assert sum(twins * (1 + translates) for _, _, translates, twins in bases) == count_instances(spec)

    def test_closed_form_on_the_campaign_grids(self):
        # (checked bases, bases) of the sweep's pair grids, the acceptance
        # grid and the h=3 grids over the acceptance values
        pair = GridSpec(horizon=2, max_packets=4, value_grid=(Fraction(1), Fraction(8, 5)))
        acceptance = (Fraction(1), Fraction(5, 4), Fraction(8, 5), Fraction(2), Fraction(3))
        grids = [pair] + [GridSpec(h, k, acceptance) for h, k in ((2, 4), (3, 4), (3, 5))]
        assert [count_bases(spec) for spec in grids] == [661, 18_829, 55_995, 413_723]
        for spec, bases in zip(grids, [1325, 35_750, 89_375, 897_127]):
            shifted_back = GridSpec(spec.horizon - 1, spec.max_packets, spec.value_grid)
            assert count_instances(spec) - count_instances(shifted_back) == bases

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("spec", [*SMALL_GRIDS[::3], *SCALED_GRIDS], ids=grid_id)
    def test_base_shards_and_translates_are_the_grid(self, spec, workers):
        # the checked bases, their copies' twins and the twins' translates
        # partition the grid, and each class's base is its lowest-indexed
        grid = list(enumerate_instances(spec))
        position = {inst.packets: i for i, inst in enumerate(grid)}
        classes: dict[tuple, list[int]] = {}
        for i, inst in enumerate(grid):
            classes.setdefault(class_key(inst), []).append(i)
        serial = [(i, inst.packets, k, n) for i, inst, k, n in enumerate_bases(spec)]
        seen = []
        for r in range(workers):
            shard = list(enumerate_bases(spec, workers, r))
            assert [(i, inst.packets, k, n) for i, inst, k, n in shard] == serial[r::workers]
            for index, base, translates, twins in shard:
                key = class_key(base)
                members = classes[key]
                assert position[base.packets] == index == min(members)  # the lowest of its class
                assert len(members) == twins * (1 + translates)
                assert sum(1 for i in members if is_base(grid[i])) == twins
                seen.append(key)
        assert sorted(seen) == sorted(classes)


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
        best = profit(clairvoyant(inst), inst)
        assert greedy == Fraction(101, 100)
        assert best == Fraction(201, 100)
        assert best / greedy == Fraction(201, 101)  # within a hair of 2

    def test_single_packet_matches_opt(self):
        from conftest import mk

        inst = mk((0, 1, 7))
        assert profit(greedy_baseline(inst), inst) == profit(clairvoyant(inst), inst)

    def test_greedy_never_beats_opt(self):
        for seed in range(300):
            inst = gen_random(seed)
            assert profit(greedy_baseline(inst), inst) <= profit(clairvoyant(inst), inst)

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
