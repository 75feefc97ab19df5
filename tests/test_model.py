"""Exact arithmetic, domain types, validation and the instance file format."""

from __future__ import annotations

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdsched import (
    ALPHA,
    InfeasibleScheduleError,
    Instance,
    InstanceFormatError,
    Packet,
    Quad17,
    R,
    dump_instance,
    instance_hash,
    load_instance,
    parse_value,
    profit,
    quad_cmp,
    render_decimal,
    render_value,
    validate_instance,
)
from bdsched.model import ge_alpha_times, le_r_times
from conftest import mk

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
#: Both signs, zero, and numerators and denominators far beyond float range.
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    rationals,
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


class TestRat:
    def test_parse_integer_and_fraction_strings(self):
        assert parse_value("3") == 3
        assert parse_value("3/2") == Fraction(3, 2)
        assert parse_value(7) == 7
        assert parse_value("-4/6") == Fraction(-2, 3)

    def test_floats_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_value(1.5)
        with pytest.raises(InstanceFormatError):
            parse_value("1.5")
        with pytest.raises(InstanceFormatError):
            parse_value(True)

    @pytest.mark.parametrize("raw", ["1/0", "0/0", "-3/00", " 2/0 "])
    def test_zero_denominator_rejected(self, raw):
        with pytest.raises(InstanceFormatError, match="zero denominator"):
            parse_value(raw)

    @given(rationals)
    def test_render_parse_round_trip(self, x):
        assert parse_value(render_value(x)) == x

    def test_render_decimal(self):
        assert render_decimal(Fraction(3, 2)) == "1.500000000000"
        assert render_decimal(Fraction(-1, 3)) == "-0.333333333333"
        assert render_decimal(Fraction(2)) == "2.000000000000"


class TestQuad17:
    def test_constants(self):
        assert R.a == Fraction(1, 4) and R.b == Fraction(1, 4)
        assert ALPHA.a == Fraction(-3, 2) and ALPHA.b == Fraction(1, 2)

    def test_distinguished_identities_exact(self):
        # 2 = R * (ALPHA + 1) and ALPHA + 2 = 2 R, both exactly
        prod = R * (ALPHA + 1)
        assert prod.a == 2 and prod.b == 0
        assert quad_cmp(ALPHA + 2, R * 2) == 0

    def test_cmp_r_against_five_fourths(self):
        # sign of (1+sqrt17)/4 - 5/4 is the sign of sqrt17 - 4: positive
        assert quad_cmp(R, Fraction(5, 4)) > 0

    def test_cmp_alpha_below_r(self):
        # (-3+sqrt17)/2 < (1+sqrt17)/4 reduces to sqrt17 < 7
        assert quad_cmp(ALPHA, R) < 0

    def test_cmp_equal(self):
        x = Quad17(Fraction(2, 3), Fraction(-1, 5))
        assert quad_cmp(x, x) == 0

    @given(rationals, rationals, rationals, rationals, rationals, rationals)
    @settings(max_examples=200)
    def test_field_distributivity(self, a, b, c, d, e, f):
        x, y, z = Quad17(a, b), Quad17(c, d), Quad17(e, f)
        assert (x + y) * z == x * z + y * z

    @given(rationals, rationals, rationals, rationals)
    @settings(max_examples=200)
    def test_sign_agrees_with_floats_when_clear(self, a, b, c, d):
        x, y = Quad17(a, b), Quad17(c, d)
        approx = float(a - c) + float(b - d) * 17**0.5
        if abs(approx) > 1e-9:
            assert quad_cmp(x, y) == (1 if approx > 0 else -1)

    def test_sign_all_quadrants(self):
        assert Quad17(Fraction(0), Fraction(0)).sign() == 0
        assert Quad17(Fraction(1), Fraction(1)).sign() == 1
        assert Quad17(Fraction(-1), Fraction(-1)).sign() == -1
        # 5 - sqrt17 > 0 but 4 - sqrt17 < 0
        assert Quad17(Fraction(5), Fraction(-1)).sign() == 1
        assert Quad17(Fraction(4), Fraction(-1)).sign() == -1
        assert Quad17(Fraction(-4), Fraction(1)).sign() == 1
        assert Quad17(Fraction(-5), Fraction(1)).sign() == -1


class TestThresholdPredicates:
    """The integer predicates must agree with the Quad17 reference."""

    @given(wide_rationals, wide_rationals)
    @settings(max_examples=500)
    def test_le_r_times_matches_reference(self, x, y):
        assert le_r_times(x, y) == (quad_cmp(x, R * y) <= 0)

    @given(wide_rationals, wide_rationals)
    @settings(max_examples=500)
    def test_ge_alpha_times_matches_reference(self, x, y):
        assert ge_alpha_times(x, y) == (quad_cmp(x, ALPHA * y) >= 0)

    def test_both_sides_of_r(self):
        # R ~ 1.280776
        assert le_r_times(Fraction(1280, 1000), Fraction(1))
        assert not le_r_times(Fraction(1281, 1000), Fraction(1))

    def test_both_sides_of_alpha(self):
        # ALPHA ~ 0.561553
        assert ge_alpha_times(Fraction(5616, 10000), Fraction(1))
        assert not ge_alpha_times(Fraction(5615, 10000), Fraction(1))

    def test_zero_and_negative_scales(self):
        assert le_r_times(Fraction(0), Fraction(0)) and ge_alpha_times(Fraction(0), Fraction(0))
        # with y < 0 the inequalities flip: x <= R*y needs x at or below -1.2808...
        assert le_r_times(Fraction(-1281, 1000), Fraction(-1))
        assert not le_r_times(Fraction(-1280, 1000), Fraction(-1))
        assert ge_alpha_times(Fraction(-5615, 10000), Fraction(-1))
        assert not ge_alpha_times(Fraction(-5616, 10000), Fraction(-1))


class TestValidation:
    def test_not_two_bounded(self):
        inst = mk((0, 2, 1))
        reasons = [v.reason for v in validate_instance(inst)]
        assert reasons == ["not 2-bounded"]

    def test_non_positive_value(self):
        inst = mk((0, 0, 0))
        reasons = [v.reason for v in validate_instance(inst)]
        assert "non-positive value" in reasons

    def test_valid_instance(self):
        assert validate_instance(mk((0, 1, 3), (1, 1, 2))) == []

    def test_duplicate_ids(self):
        inst = Instance([Packet(0, 0, 0, Fraction(1)), Packet(0, 1, 1, Fraction(1))])
        assert any(v.reason == "duplicate packet id" for v in validate_instance(inst))

    def test_deadline_before_release(self):
        inst = Instance([Packet(0, 3, 2, Fraction(1))])
        assert any(v.reason == "deadline before release" for v in validate_instance(inst))


class TestProfit:
    def test_empty_schedule(self):
        assert profit({}, mk((0, 0, 5))) == 0

    def test_sum(self):
        inst = mk((0, 0, 5), (0, 1, 3))
        assert profit({0: 0, 1: 1}, inst) == 8

    def test_before_release_rejected(self):
        inst = mk((1, 1, 5))
        with pytest.raises(InfeasibleScheduleError, match="slot 0"):
            profit({0: 0}, inst)

    def test_after_deadline_rejected(self):
        inst = mk((0, 0, 5))
        with pytest.raises(InfeasibleScheduleError, match="slot 1"):
            profit({1: 0}, inst)

    def test_double_transmission_rejected(self):
        inst = mk((0, 1, 5))
        with pytest.raises(InfeasibleScheduleError, match="twice"):
            profit({0: 0, 1: 0}, inst)


class TestInstanceFormat:
    def test_round_trip(self):
        inst = mk((0, 0, 1), (0, 1, "3/2"), (1, 2, 2))
        again = load_instance(dump_instance(inst))
        assert again == inst
        assert instance_hash(again) == instance_hash(inst)

    def test_reject_float_value(self):
        with pytest.raises(InstanceFormatError, match="float"):
            load_instance('{"packets": [{"release": 0, "deadline": 0, "value": 1.5}]}')

    def test_reject_zero_denominator_value(self):
        with pytest.raises(InstanceFormatError, match="zero denominator"):
            load_instance('{"packets": [{"release": 0, "deadline": 0, "value": "1/0"}]}')

    def test_reject_bad_json_with_line(self):
        with pytest.raises(InstanceFormatError, match="line"):
            load_instance('{"packets": [,]}')

    def test_default_ids_from_position(self):
        inst = load_instance('{"packets": [{"release": 0, "deadline": 1, "value": "2"}]}')
        assert inst.packets[0].id == 0

    def test_duplicate_explicit_ids_rejected(self):
        doc = (
            '{"packets": ['
            '{"id": 1, "release": 0, "deadline": 0, "value": 1},'
            '{"id": 1, "release": 0, "deadline": 1, "value": 1}]}'
        )
        with pytest.raises(InstanceFormatError, match="unique"):
            load_instance(doc)

    def test_horizon(self):
        assert mk((0, 1, 1), (2, 3, 1)).horizon == 3
        assert Instance(()).horizon == -1


#: Equal values in several spellings and mixed denominators, so canonical
#: ties and the instance scale both matter.
MIXED_VALUES = [Fraction(1), Fraction(2, 2), Fraction(3, 2), Fraction(6, 4), Fraction(5, 4), Fraction(13, 8),
                Fraction(5, 3), Fraction(10, 6), Fraction(7, 6), Fraction(3)]


class TestIntegerWeights:
    def test_scale_and_weights(self):
        inst = mk((0, 0, "3/2"), (0, 1, "5/4"), (1, 1, 2), (1, 2, "7/6"))
        assert inst.scale == 12
        assert inst.weights == {0: 18, 1: 15, 2: 24, 3: 14}
        assert Instance(()).scale == 1 and Instance(()).weights == {}


def defined_views(packets: tuple[Packet, ...]) -> dict:
    """The per-instance views by their definitions, each computed on its own:
    the reference for the constructor's one pass."""
    id_map = {p.id: p for p in packets}
    grouped: dict[int, list[Packet]] = {}
    for p in packets:
        grouped.setdefault(p.release, []).append(p)
    scale = math.lcm(*[p.value.denominator for p in packets])
    return {
        "horizon": max((p.deadline for p in packets), default=-1),
        "_id_map": id_map,
        "arrivals": {t: tuple(ps) for t, ps in grouped.items()},
        "scale": scale,
        "weights": {pid: p.value.numerator * (scale // p.value.denominator) for pid, p in id_map.items()},
    }


#: Packets of any window, 2-bounded or not, empty or not, with repeated ids.
any_packets = st.lists(
    st.builds(
        lambda pid, release, offset, value: Packet(pid, release, release + offset, value),
        st.integers(0, 4), st.integers(0, 4), st.integers(-1, 3), st.sampled_from(MIXED_VALUES),
    ),
    max_size=8,
).map(tuple)


class TestEagerInstance:
    """The constructor builds every view in one pass; each equals its
    definition, and construction never raises."""

    @given(any_packets)
    @settings(max_examples=300, deadline=None)
    def test_views_equal_their_definitions(self, packets):
        inst = Instance(iter(packets))
        assert inst.packets == packets
        for name, want in defined_views(packets).items():
            got = getattr(inst, name)
            assert got == want
            if isinstance(want, dict):
                assert list(got) == list(want)  # same key order
        assert [inst.by_id(p.id) for p in packets] == [defined_views(packets)["_id_map"][p.id] for p in packets]

    @given(any_packets)
    @settings(max_examples=200, deadline=None)
    def test_equality_hash_and_pickle(self, packets):
        inst = Instance(packets)
        same = Instance(list(packets))
        assert inst == same and hash(inst) == hash(same) == hash((packets,))
        assert inst != Instance(packets + (Packet(9, 0, 0, Fraction(1)),))
        assert inst != packets and repr(inst) == f"Instance(packets={packets!r})"
        again = pickle.loads(pickle.dumps(inst))
        assert again == inst and hash(again) == hash(inst)
        for name, want in defined_views(packets).items():
            assert getattr(again, name) == want

    def test_empty_instance(self):
        inst = Instance(())
        assert (inst.horizon, inst.scale, inst.weights, inst.arrivals, len(inst)) == (-1, 1, {}, {}, 0)
