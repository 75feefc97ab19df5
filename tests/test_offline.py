"""Partial and full offline optima, checked against the dynamic-programming
oracle and its reference, the enumeration oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdsched import (
    DPOracle,
    Instance,
    InternalInvariantError,
    Packet,
    PSet,
    QueryEngine,
    RandomConfig,
    StepRecord,
    chain_family,
    check_inclusions,
    dp_partial,
    gen_random,
    model,
    profit,
    run_cp,
)
from bdsched import offline
from bdsched.generators import enumerate_bases, tight_family
from bdsched.harness import CheckConfig, certify, evaluate, online_buffers
from bdsched.offline import REACH, ROW, _automaton, _edf_assignment, _row, _row_automaton, _solve
from conftest import clairvoyant, grid_bases, mk, pset, set_lane, solved
from enumeration import BRUTE_FORCE_LIMIT, OracleSizeError, brute_force_partial
from test_acceptance import CHAIN_VARIANTS, SWEEP_GRID
from test_model import MIXED_VALUES, any_packets
from test_tie_rules import TIE_RULES


def engine(inst: Instance, t: int = 0, sent: int | None = None) -> QueryEngine:
    """A query engine over the steps 0..t-1, in which step t-1 sent `sent`,
    or nothing, and every earlier step nothing: its carry at t is the best
    of release bucket t-1's deadline-t packets but `sent`."""
    steps = [StepRecord(s, "idle", None, None) for s in range(t)]
    if t:
        steps[-1].transmitted = sent
    return QueryEngine(inst, steps)


def solve(q: tuple[int, int, int], inst: Instance, sent: int | None = None) -> PSet:
    """The query window q = (t, t', t'') asked of a fresh engine whose step
    t - 1 sent `sent`, or nothing."""
    return engine(inst, q[0], sent).p(*q)


def read_by(run: QueryEngine, cands, read: list[int]):
    """The candidates `cands`, yielded one by one, each one's packet id
    appended to `read` as it is read."""
    for cand in cands:
        read.append(run.ids[cand[0]])
        yield cand


def best(inst: Instance, pending) -> int | None:
    """The canonically best of the ids `pending`, the carry of that buffer."""
    return min(pending, key=lambda pid: model.rank_key(inst.by_id(pid), inst.by_id(pid).value), default=None)


def layout(ps: PSet, q: tuple[int, int, int], inst: Instance) -> dict[int, int]:
    """The earliest-deadline-first slot layout opt_full gives a kept set of
    a window q = (0, t', t'')."""
    return _edf_assignment([inst.by_id(i) for i in ps.members], q[2])


def small_instances(max_packets=6, max_release=3):
    """Hypothesis strategy for little 2-bounded instances."""
    packet = st.tuples(
        st.integers(min_value=0, max_value=max_release),
        st.integers(min_value=0, max_value=1),
        st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(13, 8), Fraction(2), Fraction(3)]),
    )
    return st.lists(packet, min_size=0, max_size=max_packets).map(
        lambda shapes: Instance(
            Packet(id=i, release=r, deadline=r + off, value=v) for i, (r, off, v) in enumerate(shapes)
        )
    )


#: One id twice, one copy with an empty window (deadline < release), which
#: the rank index never enters: only the id count sees the repeat.
EMPTY_WINDOW_REPEAT = (Packet(0, 0, 0, Fraction(1)), Packet(0, 0, -1, Fraction(1)))


class TestRankIndex:
    """The rank index a query engine builds for its run: release buckets,
    entries by id and the rank -> id table.  Only it raises on packets,
    never the instance."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rank_is_canonical_order(self, data):
        shapes = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 1), st.sampled_from(MIXED_VALUES)), max_size=10))
        ids = data.draw(st.permutations(range(len(shapes))))
        inst = Instance(Packet(pid, r, r + off, v) for pid, (r, off, v) in zip(ids, shapes))
        run = QueryEngine(inst, [])
        ranked = sorted(run.entries.values())
        canonical = [p.id for p in sorted(inst.packets, key=lambda p: model.rank_key(p, p.value))]
        assert run.ids == tuple(canonical)
        assert [entry[0] for entry in ranked] == list(range(len(shapes)))
        assert [entry[1] for entry in ranked] == canonical
        assert all(Fraction(entry[4], inst.scale) == inst.by_id(entry[1]).value for entry in ranked)
        assert sorted(e for es in run.buckets.values() for e in es) == ranked

    @given(any_packets)
    @example(EMPTY_WINDOW_REPEAT)
    @example(EMPTY_WINDOW_REPEAT[::-1])
    @settings(max_examples=300, deadline=None)
    def test_raises_only_on_what_it_cannot_index(self, packets):
        inst = Instance(packets)
        not_2_bounded = [p for p in packets if p.deadline - p.release > 1]
        if not_2_bounded or len({p.id for p in packets}) < len(packets):
            with pytest.raises(ValueError, match=r"^packet (id )?\d+ is not"):
                QueryEngine(inst, [])
        else:
            entries = QueryEngine(inst, []).entries
            assert {pid: entry[4] for pid, entry in entries.items()} == {
                p.id: inst.weights[p.id] for p in packets if p.deadline >= p.release
            }

    def test_empty_instance(self):
        run = QueryEngine(Instance(()), [])
        assert (run.buckets, run.entries, run.ids) == ({}, {}, ())


class TestSolvePartial:
    """The engine's greedy, each query asked of a fresh engine."""

    def test_single_slot_prefers_max_value(self):
        inst = mk((0, 0, 5), (0, 1, 3))
        ps = solve((0, 0, 0), inst)
        assert ps.member_set == {0} and ps.total_value == 5

    def test_two_slots_take_both(self):
        inst = mk((0, 1, 5), (1, 1, 10))
        q = (0, 1, 1)
        ps = solve(q, inst)
        assert ps.member_set == {0, 1}
        assert ps.total_value == 15
        assert layout(ps, q, inst) == {0: 0, 1: 1}

    def test_extra_slot_may_stay_empty(self):
        inst = mk((0, 0, 5))
        q = (0, 0, 1)
        ps = solve(q, inst)
        assert ps.member_set == {0} and ps.total_value == 5
        assert layout(ps, q, inst) == {0: 0}

    def test_base_buffer_feeds_the_pool(self):
        # packet 0 released at 0 sits in the buffer at time 1
        inst = mk((0, 1, 5), (1, 1, 3))
        ps = solve((1, 1, 1), inst)
        assert ps.member_set == {0}

    def test_best_of_three_pending_joins(self):
        # packet 0 takes slot 0, so B(1) holds 1, 2 and 3, all loops at slot
        # 1: only the best of them, 2, can join, beside 4 in slot 2
        inst = mk((0, 0, 9), (0, 1, 2), (0, 1, 5), (0, 1, 3), (1, 2, 4))
        trace = run_cp(inst)
        pending = online_buffers(trace)[1]
        assert trace.steps[0].transmitted == 0 and pending == {1, 2, 3}
        assert trace.engine.carry(1) == 2
        q = (1, 1, 2)
        got = trace.engine.p(1, 1, 2)
        assert got.members == (2, 4) and got.total_value == 9
        assert got == solve(q, inst, 0) == dp_partial(q, inst, pending) == brute_force_partial(q, inst, pending)
        # had step 0 sent 2, the carry would be 3, which loses
        assert engine(inst, 1, 2).carry(1) == 3 and solve(q, inst, 2).total_value == 7

    def test_query_order_enforced(self):
        with pytest.raises(ValueError, match="query out of order"):
            dp_partial((2, 1, 3), mk((0, 0, 5)))

    def test_assignment_earliest_deadline_then_id(self):
        inst = mk((0, 1, 1), (0, 1, 2))
        q = (0, 1, 1)
        assert layout(solve(q, inst), q, inst) == {0: 0, 1: 1}

    def test_window_wider_than_two_slots_rejected(self):
        inst = Instance([Packet(0, 0, 0, Fraction(1)), Packet(7, 0, 2, Fraction(2))])
        with pytest.raises(ValueError, match="packet 7 is not 2-bounded"):
            solve((0, 0, 0), inst)

    def test_repeated_id_rejected(self):
        inst = Instance([Packet(3, 0, 0, Fraction(1)), Packet(3, 1, 1, Fraction(2))])
        with pytest.raises(ValueError, match="packet id 3 is not unique"):
            solve((0, 1, 1), inst)

    def test_unknown_base_ids_are_ignored(self):
        # the oracles take all of B(t); an id no packet has adds nothing
        inst = mk((0, 1, 5), (1, 1, 3))
        q = (1, 1, 1)
        for oracle in (dp_partial, brute_force_partial):
            assert oracle(q, inst, (0, 42)) == oracle(q, inst, (0,)) == solve(q, inst)

    def test_base_id_released_in_window_counted_once(self):
        # packet 0 is both in the oracles' base buffer and released in [t, t']
        inst = mk((1, 2, 5))
        q = (1, 1, 2)
        for oracle in (dp_partial, brute_force_partial):
            ps = oracle(q, inst, (0,))
            assert ps.members == (0,) and ps.total_value == 5
            assert ps == solve(q, inst)


class TestBruteForceOracle:
    def test_empty_pool(self):
        ps = brute_force_partial((0, 0, 0), Instance(()))
        assert ps.member_set == set() and ps.total_value == 0

    def test_matches_solver_on_example(self):
        inst = mk((0, 1, 5), (1, 1, 10))
        q = (0, 1, 1)
        assert brute_force_partial(q, inst).member_set == solve(q, inst).member_set
        assert brute_force_partial(q, inst).total_value == 15

    def test_size_guard(self):
        inst = Instance(Packet(i, 0, 1, Fraction(1)) for i in range(21))
        with pytest.raises(OracleSizeError):
            brute_force_partial((0, 0, 1), inst)

    @given(small_instances())
    @settings(max_examples=300, deadline=None)
    def test_solver_equals_oracle(self, inst):
        horizon = max(inst.horizon, 0)
        for t_arr in range(0, horizon + 1):
            for t_slot in range(t_arr, min(t_arr + 2, horizon + 1) + 1):
                q = (0, t_arr, t_slot)
                fast = solve(q, inst)
                slow = brute_force_partial(q, inst)
                assert fast.member_set == slow.member_set
                assert fast.total_value == slow.total_value

    @given(small_instances())
    @settings(max_examples=150, deadline=None)
    def test_solver_assignment_always_feasible(self, inst):
        horizon = max(inst.horizon, 0)
        q = (0, horizon, horizon)
        ps = solve(q, inst)
        assert profit(layout(ps, q, inst), inst) == ps.total_value

    @given(small_instances(max_packets=8, max_release=5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_solver_equals_oracle_off_origin(self, inst, data):
        # start > 0, step t-1 sending one packet of its window or nothing, and
        # up to two slots beyond the arrival window
        horizon = max(inst.horizon, 1)
        t = data.draw(st.integers(1, horizon), label="t")
        sendable = [p.id for p in inst.packets if p.release <= t - 1 <= p.deadline]
        sent = data.draw(st.sampled_from([None, *sendable]), label="sent at t-1")
        base = {p.id for p in inst.packets if p.release < t <= p.deadline} - {sent}
        t_arr = data.draw(st.integers(t, horizon), label="t'")
        t_slot = data.draw(st.integers(t_arr, t_arr + 2), label="t''")
        q = (t, t_arr, t_slot)
        # the solver is seeded with the best of B(t), the oracle with all of it
        fast, slow = solve(q, inst, sent), brute_force_partial(q, inst, base)
        assert fast.members == slow.members
        assert fast.total_value == slow.total_value
        full = max(inst.horizon, 0)
        assert profit(clairvoyant(inst), inst) == brute_force_partial((0, full, full), inst).total_value


class TestDPOracle:
    def test_two_slot_packet_carried_to_make_room(self):
        # 0 must move to slot 1 so that the expiring 1 fits in slot 0
        inst = mk((0, 1, 5), (0, 0, 3), (1, 1, 2))
        q = (0, 1, 1)
        assert dp_partial(q, inst) == brute_force_partial(q, inst) == pset((0, 1), 8)

    def test_ties_go_to_the_canonical_set(self):
        # equal values: 1 (deadline 0) takes slot 0 before 3 (a higher id),
        # and 0 (released at 0) takes slot 1 before 2
        inst = mk((0, 1, 2), (0, 0, 2), (1, 1, 2), (0, 0, 2))
        q = (0, 1, 1)
        assert dp_partial(q, inst) == brute_force_partial(q, inst) == pset((1, 0), 4)

    def test_window_wider_than_two_slots_rejected(self):
        inst = Instance([Packet(0, 0, 0, Fraction(1)), Packet(7, 0, 2, Fraction(2))])
        with pytest.raises(ValueError, match="packet 7 is not 2-bounded"):
            dp_partial((0, 0, 0), inst)

    @pytest.mark.parametrize("packets, message", [
        (EMPTY_WINDOW_REPEAT, "packet id 0 is not unique"),
        ((Packet(3, 0, 0, Fraction(1)), Packet(3, 1, 1, Fraction(2))), "packet id 3 is not unique"),
        ((Packet(0, 0, 0, Fraction(1)), Packet(7, 5, 7, Fraction(2))), "packet 7 is not 2-bounded"),
    ], ids=["empty-window-repeat", "repeat", "not-2-bounded"])
    def test_oracle_rejects_what_the_engine_rejects(self, packets, message):
        # at construction, whatever the windows: a per-id index would keep
        # one copy of a repeated id, and packet 7 is released after every
        # window the base (0, 0, 0) asks
        inst = Instance(packets)
        for build in (DPOracle, lambda inst: QueryEngine(inst, [])):
            with pytest.raises(ValueError, match=message):
                build(inst)
        with pytest.raises(ValueError, match=message):
            dp_partial((0, 0, 0), inst)

    @given(small_instances(max_packets=6, max_release=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_oracle_answers_every_window_in_any_order(self, inst, data):
        # one oracle per instance, asked every window t <= t' <= t'' <= t' + 2
        # of every base t, each base with a drawn B(t), in a shuffled order:
        # no answer depends on the windows asked before it
        oracle = DPOracle(inst)
        horizon = max(inst.horizon, 0)
        windows = []
        for t in range(horizon + 1):
            carried = sorted(p.id for p in inst.packets if p.release < t <= p.deadline)
            base = data.draw(st.sets(st.sampled_from(carried)) if carried else st.just(set()), label=f"B({t})")
            windows += [((t, t_arr, t_slot), base) for t_arr in range(t, horizon + 2) for t_slot in range(t_arr, t_arr + 3)]
        for q, base in data.draw(st.permutations(windows), label="order"):
            assert oracle.partial(q, base) == brute_force_partial(q, inst, base), (q, base)

    def test_no_size_limit(self):
        inst = Instance(Packet(i, 0, 1, Fraction(i + 1)) for i in range(BRUTE_FORCE_LIMIT + 5))
        ps = dp_partial((0, 0, 1), inst)
        assert ps.members == (24, 23) and ps.total_value == 49

    @given(small_instances(max_packets=8, max_release=5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_dp_equals_enumeration(self, inst, data):
        # t = 0 or later, a base buffer of packets carried over into t, and
        # every arrival window with up to two slots beyond it
        horizon = max(inst.horizon, 0)
        t = data.draw(st.integers(0, horizon), label="t")
        carried = sorted(p.id for p in inst.packets if p.release < t <= p.deadline)
        base = data.draw(st.sets(st.sampled_from(carried)) if carried else st.just(set()), label="base")
        for t_arr in range(t, horizon + 2):
            for t_slot in range(t_arr, t_arr + 3):
                q = (t, t_arr, t_slot)
                assert dp_partial(q, inst, base) == brute_force_partial(q, inst, base)


class TestPSetConventions:
    def test_unreached_time_raises(self):
        # no step is recorded, so only base 0 is reached
        inst = mk((0, 0, 5))
        for t in (1, -1):
            with pytest.raises(KeyError):
                engine(inst).p(t, t, t)
            with pytest.raises(KeyError):
                engine(inst).carry(t)
        assert engine(inst).carry(0) is None

    def test_simple_p_set(self):
        inst = mk((0, 0, 5), (0, 1, 3))
        assert engine(inst).p(0, 0, 0).member_set == {0}

    def test_repeated_query_is_a_hit(self):
        inst = mk((0, 0, 5), (0, 1, 3))
        eng = engine(inst)
        first = eng.p(0, 0, 1)
        assert eng.p(0, 0, 1) == first and list(eng.rows) == [0]
        assert (eng.calls, eng.hits) == (2, 1)
        # a window outside the row is cached as its answer
        wide = eng.p(0, 0, 2)
        assert eng.p(0, 0, 2) is wide and list(eng.cache) == [(0, 0, 2)]
        assert (eng.calls, eng.hits) == (4, 2)

    @given(small_instances(max_packets=8, max_release=5))
    @settings(max_examples=150, deadline=None)
    def test_cached_answers_equal_fresh_solves(self, inst):
        # The memo key omits the carry; every answer the policy and the
        # inclusion checks read, every lane of each row, must still be the
        # query solved from scratch
        # by an engine whose step t-1 sent what the run's did, and agree
        # with the enumeration oracle seeded with all of B(t).  The carry
        # derived from the steps is the best packet of that B(t).
        trace = run_cp(inst)
        check_inclusions(trace)
        buffers = online_buffers(trace)
        for t in range(len(trace.steps)):
            assert trace.engine.carry(t) == best(inst, buffers.get(t, ())), t
        for (t, t_arr, t_slot), cached in solved(trace.engine):
            q = (t, t_arr, t_slot)
            pending = buffers.get(t, ())
            assert cached == solve(q, inst, trace.steps[t - 1].transmitted if t else None)
            try:
                slow = brute_force_partial(q, inst, pending)
            except OracleSizeError:
                continue
            assert cached.member_set == slow.member_set
            assert cached.total_value == slow.total_value


class TestIntegerAnswers:
    @pytest.mark.parametrize("seed", range(4))
    def test_long_run_answers_are_exact(self, seed):
        # every answer of a long run's engine, the checks' included, on
        # instances of about 60 packets, far more than the properties' hold,
        # holds its members' value sum at the instance scale and equals the
        # oracle seeded with all of B(t)
        inst = gen_random(seed, RandomConfig(horizon=40, arrival_rate=1.5))
        assert len(inst) > 40
        trace = run_cp(inst)
        check_inclusions(trace)
        buffers = online_buffers(trace)
        checked = 0
        for (t, t_arr, t_slot), cached in solved(trace.engine):
            assert cached.scale == inst.scale
            assert cached.total_value == sum((inst.by_id(pid).value for pid in cached.members), Fraction(0))
            assert cached == dp_partial((t, t_arr, t_slot), inst, buffers.get(t, ()))
            checked += 1
        assert checked > 200

    @given(st.one_of(small_instances(max_packets=8, max_release=5), small_instances(max_packets=60, max_release=40)))
    @settings(max_examples=120, deadline=None)
    def test_every_answer_decodes_to_its_members(self, inst):
        # every answer of a run's engine, the checks' included, is a mask
        # over the instance's canonical ranks: its members decode in
        # ascending rank, it weighs its members' weights, and it equals the
        # oracle seeded with all of B(t)
        trace = run_cp(inst)
        check_inclusions(trace)
        buffers = online_buffers(trace)
        entries = trace.engine.entries
        for (t, t_arr, t_slot), cached in solved(trace.engine):
            ranks = [entries[pid][0] for pid in cached.members]
            assert ranks == sorted(ranks) and cached.mask == sum([1 << rank for rank in ranks])
            keys = [model.rank_key(inst.by_id(pid), inst.by_id(pid).value) for pid in cached.members]
            assert keys == sorted(keys)
            assert cached.member_set == set(cached.members)
            assert (cached.weight, cached.scale) == (sum([inst.weights[pid] for pid in cached.members]), inst.scale)
            assert cached == dp_partial((t, t_arr, t_slot), inst, buffers.get(t, ()))

    def test_filled_slots_stop_the_sweep(self):
        # P(0, 1, 1): packets 0 and 1 fill slots 0 and 1, so the union-find
        # stops there and never reads packets 2 and 3, which could join no
        # longer
        inst = mk((0, 1, 5), (1, 1, 4), (0, 1, 3), (1, 1, 2))
        run = engine(inst)
        cands = run.candidates(0, 1)
        assert [run.ids[cand[0]] for cand in cands] == [0, 1, 2, 3]
        q = (0, 1, 1)
        got = _solve(inst.scale, run.ids, *q, read_by(run, cands, read := []))
        assert read == [0, 1]
        assert got.members == (0, 1) and got.total_value == 9
        assert got == solve(q, inst) == dp_partial(q, inst) == brute_force_partial(q, inst)

    def test_full_lanes_stop_the_row(self):
        # a loop released at each of 0 .. 4 fills every diagonal lane, and
        # an edge released at each of 0 .. 3 the last slot of the widened
        # lane of its release: the row's walk stops there and never reads
        # packet 9, ranked last, which no lane could keep
        shapes = [(r, r, 3) for r in range(5)] + [(r, r + 1, 2) for r in range(4)] + [(0, 1, 1)]
        inst = mk(*shapes)
        run = engine(inst)
        cands = run.candidates(0, REACH)
        assert [run.ids[cand[0]] for cand in cands] == list(range(10))
        masks, weights = _row(read_by(run, cands, read := []))
        assert read == list(range(9))
        for (a, e), mask, weight in zip(ROW, masks, weights):
            q = (0, a, e)
            want = solve(q, inst)
            assert PSet(mask, weight, inst.scale, run.ids) == want == dp_partial(q, inst), q
            assert want.members == tuple(range(a + 1)) + ((5 + a,) if e > a else ()), q

    def test_equality_and_hash_across_scales(self):
        # the last is a mask over another rank table with the same members
        same = [pset((0, 1), Fraction(8)), pset((0, 1), 8), pset((0, 1), 96, 12), pset((0, 1), 40, 5),
                PSet(0b101, 8, 1, (0, 2, 1))]
        assert all(a == b and hash(a) == hash(b) for a in same for b in same)
        assert len(set(same)) == 1
        assert pset((0, 1), 97, 12) != same[0]
        assert pset((1, 0), 8) != same[0]  # members compare in canonical order
        assert pset((), 0, 7) == pset((), 0) and hash(pset((), 0, 7)) == hash(pset((), 0))
        assert same[2].total_value == Fraction(8) and same[2].member_set == {0, 1}
        assert same[0] != (0, 1)

    def test_equality_over_one_rank_table_reads_masks(self):
        # equal tables: mask and weight decide, and no member is decoded
        ids = (4, 2, 9)
        a, b = PSet(0b101, 8, 1, ids), PSet(0b101, 16, 2, tuple(list(ids)))  # an equal table, another object
        assert a == b and a._members is None and b._members is None
        assert a != PSet(0b011, 8, 1, ids) and a != PSet(0b101, 9, 1, ids)
        assert hash(a) == hash(b)
        # different tables: the members decide, in canonical order, so equal
        # masks over two tables can differ and different masks can agree
        assert PSet(0b01, 5, 1, (0, 1)) != PSet(0b01, 5, 1, (1, 0))
        moved = PSet(0b01, 5, 1, (0, 1)), PSet(0b10, 5, 1, (1, 0))
        assert moved[0] == moved[1] and hash(moved[0]) == hash(moved[1])

    def test_engine_and_oracle_over_one_rule_share_a_table(self):
        # a run's engine and its oracle rank the packets apart, under the
        # same rule, into equal tables
        inst = mk((0, 0, 5), (0, 1, 1), (1, 1, 1), (1, 1, 2))
        run, oracle = QueryEngine(inst, []), DPOracle(inst)
        assert oracle.ids == run.ids and oracle.ids is not run.ids
        for q in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)):
            assert run.p(*q) == oracle.partial(q) and hash(run.p(*q)) == hash(oracle.partial(q)), q

    def test_answers_over_a_rebound_rule_compare_by_members(self, monkeypatch):
        # the engine ranks under the canonical rule, the oracle under a
        # rebound one that puts the loop at 1 before the edge {0, 1}: the
        # tables differ, so answers compare by members, and two answers with
        # equal masks and weights over them are not equal
        inst = mk((0, 0, 5), (0, 1, 1), (1, 1, 1))
        run = QueryEngine(inst, [])
        monkeypatch.setattr(model, "rank_key", TIE_RULES["release-desc"][0])
        oracle = DPOracle(inst)
        assert (run.ids, oracle.ids) == ((0, 1, 2), (0, 2, 1))
        got, ref = run.p(0, 0, 0), oracle.partial((0, 0, 0))
        assert got.mask == ref.mask and got == ref and hash(got) == hash(ref)
        got, ref = run.p(0, 1, 1), oracle.partial((0, 1, 1))
        assert (got.mask, got.weight) == (ref.mask, ref.weight) and (got.members, ref.members) == ((0, 1), (0, 2))
        assert got != ref

    def test_engine_out_of_order_query_rejected(self):
        # every query is a window t <= t' <= t''; P(t, t-1, t-1) is no query
        inst = mk((0, 0, 5))
        for window in ((0, 1, 0), (0, -1, -1)):
            with pytest.raises(ValueError, match="query out of order"):
                engine(inst).p(*window)


class TestSelectors:
    def test_m0_is_best_pending(self):
        inst = mk((0, 0, 5), (0, 1, 3))
        assert engine(inst).m(0, 0).id == 0

    def test_m1_is_the_marginal_packet(self):
        # widening to one more slot lets the weaker packet in
        inst = mk((0, 1, 5), (0, 0, 4))
        assert engine(inst).m(0, 0).id == 0
        assert engine(inst).m(0, 1).id == 1

    def test_q1_slot_gain(self):
        # P(0,1,1) = {0, 1}; the extra slot admits the expiring packet 2
        inst = mk((0, 1, 5), (1, 2, 4), (0, 0, 3))
        assert engine(inst).q(0, 1).id == 2

    def test_m0_asks_one_query(self):
        # m_0 has no narrow window: it is all of P(t, t, t)
        inst = mk((0, 1, 5), (1, 1, 3))
        eng = engine(inst, 1)
        assert eng.m(1, 0).id == 0
        assert eng.calls == 1 and list(eng.rows) == [1] and eng.cache == {}

    def test_absent_selector_is_none(self):
        inst = mk((0, 0, 5))
        assert engine(inst).m(0, 1) is None
        assert engine(inst).q(0, 1) is None

    def test_non_singleton_gain_is_an_invariant_error(self):
        inst = mk((0, 1, 5), (0, 1, 4))
        eng = engine(inst)
        set_lane(eng, (0, 0, 0), (0, 1), 9)
        with pytest.raises(InternalInvariantError, match=r"m_0\(0\) is not a singleton: \[0, 1\]"):
            eng.m(0, 0)

    @given(small_instances())
    @settings(max_examples=200, deadline=None)
    def test_monotone_value_in_both_windows(self, inst):
        horizon = max(inst.horizon, 0)
        values = {}
        for t_arr in range(0, horizon + 1):
            for t_slot in range(t_arr, horizon + 2):
                values[(t_arr, t_slot)] = solve((0, t_arr, t_slot), inst).total_value
        for (t_arr, t_slot), v in values.items():
            if (t_arr + 1, t_slot) in values:
                assert values[(t_arr + 1, t_slot)] >= v
            if (t_arr, t_slot + 1) in values:
                assert values[(t_arr, t_slot + 1)] >= v


class TestOptFull:
    def test_forced_order(self):
        inst = mk((0, 0, 1), (0, 1, 2))
        sched = clairvoyant(inst)
        assert profit(sched, inst) == 3
        assert sched == {0: 0, 1: 1}

    def test_tie_broken_by_id(self):
        inst = mk((0, 1, 1), (0, 1, 2))
        sched = clairvoyant(inst)
        assert profit(sched, inst) == 3
        assert sched == {0: 0, 1: 1}

    def test_empty(self):
        assert clairvoyant(Instance(())) == {}

    @given(small_instances())
    @settings(max_examples=150, deadline=None)
    def test_opt_at_least_any_single_packet(self, inst):
        best = profit(clairvoyant(inst), inst)
        for p in inst.packets:
            assert best >= p.value


def sweep_assignment(kept, slot_end: int) -> dict[int, int]:
    """Reference for _edf_assignment: at every slot, scan every unassigned
    packet for the available one with the earliest deadline (ties by id)."""
    unassigned = {p.id: p for p in kept}
    out: dict[int, int] = {}
    for s in range(slot_end + 1):
        best = None
        for p in unassigned.values():
            if p.release <= s <= p.deadline:
                if best is None or (p.deadline, p.id) < (best.deadline, best.id):
                    best = p
        if best is not None:
            out[s] = best.id
            del unassigned[best.id]
    if unassigned:
        raise AssertionError(f"earliest-deadline assignment failed for {sorted(unassigned)}")
    return out


def optimum_kept(inst: Instance) -> list[Packet]:
    """The packets of the clairvoyant optimum P(0, horizon, horizon)."""
    ps = solve((0, inst.horizon, inst.horizon), inst)
    return [inst.by_id(pid) for pid in ps.members]



class TestHeapLayout:
    @pytest.mark.parametrize("horizon", [6, 40])
    def test_equals_the_sweep_on_fuzzed_optima(self, horizon):
        config = RandomConfig(horizon=horizon, arrival_rate=1.5) if horizon == 40 else RandomConfig()
        for seed in range(200):
            inst = gen_random(seed, config)
            if not inst.packets:
                continue
            kept = optimum_kept(inst)
            slots = _edf_assignment(kept, inst.horizon)
            assert slots == sweep_assignment(kept, inst.horizon), seed
            assert slots == clairvoyant(inst)

    def test_equals_the_sweep_on_every_grid_base(self):
        bases = 0
        for inst in grid_bases(SWEEP_GRID):
            bases += 1
            if inst.packets:
                kept = optimum_kept(inst)
                assert _edf_assignment(kept, inst.horizon) == sweep_assignment(kept, inst.horizon), inst
        assert bases == 35_750

    @pytest.mark.parametrize(
        "shapes, slot_end, left",
        [
            # two packets whose only slot is 0: the second by id is left over
            (((0, 0, 1), (0, 0, 2)), 0, [1]),
            (((0, 0, 1), (0, 0, 2)), 3, [1]),
            # a third packet for slot 0 leaves two over, both named
            (((0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 1, 1)), 1, [1, 2]),
            # a window after the last slot
            (((0, 1, 1), (3, 3, 2)), 2, [1]),
        ],
    )
    def test_infeasible_set_raises_like_the_sweep(self, shapes, slot_end, left):
        kept = list(mk(*shapes).packets)
        message = f"earliest-deadline assignment failed for {left}"
        for assign in (_edf_assignment, sweep_assignment):
            with pytest.raises(AssertionError) as excinfo:
                assign(kept, slot_end)
            assert str(excinfo.value) == message


#: (label, instance) of the runs whose engine answers are replayed.
ORDER_RUNS = (
    [(f"h6-seed{seed}", gen_random(seed)) for seed in range(40)]
    + [(f"h40-seed{seed}", gen_random(seed, RandomConfig(horizon=40, arrival_rate=1.5))) for seed in range(4)]
    + [(f"chain-{variant}", chain_family(variant)) for variant in CHAIN_VARIANTS]
)


class TestSharedPools:
    @pytest.mark.parametrize("label, inst", ORDER_RUNS, ids=[label for label, _ in ORDER_RUNS])
    def test_answers_do_not_depend_on_query_order(self, label, inst):
        # a fresh engine over the run's steps, asked the windows of the
        # run's answers in a shuffled order, gives every answer and solves
        # the same row per base time
        trace = run_cp(inst)
        check_inclusions(trace)
        answers = dict(solved(trace.engine))
        keys = list(answers)
        random.Random(label).shuffle(keys)
        fresh = QueryEngine(inst, trace.steps)
        for key in keys:
            got, want = fresh.p(*key), answers[key]
            assert (got.members, got.weight, got.scale) == (want.members, want.weight, want.scale), key
        assert fresh.rows == trace.engine.rows

    @given(small_instances(max_packets=8, max_release=5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_hand_built_buffers_in_any_order(self, inst, data):
        # step t-1 sends one of the packets released at t-1 with deadline t,
        # or nothing, and B(t) is the rest of them; every query of one base
        # time, asked in a drawn order, equals the query asked alone and the
        # oracle seeded with all of B(t)
        horizon = max(inst.horizon, 0)
        t = data.draw(st.integers(0, horizon), label="t")
        shaped = [p.id for p in inst.packets if p.release == t - 1 and p.deadline == t]
        sent = data.draw(st.sampled_from([None, *shaped]), label="sent at t-1")
        pending = set(shaped) - {sent}
        keys = [(t, t_arr, t_slot) for t_arr in range(t, horizon + 2) for t_slot in range(t_arr, t_arr + 3)]
        eng = engine(inst, t, sent)
        assert eng.carry(t) == best(inst, pending)
        for key in data.draw(st.permutations(keys), label="order"):
            q = key
            got = eng.p(*key)
            assert got == solve(q, inst, sent) == dp_partial(q, inst, pending), key


#: label -> (instances of a campaign, how many) whose derived carries are checked.
CARRY_CAMPAIGNS = {
    "fuzz-0..999": (lambda: (gen_random(seed) for seed in range(1_000)), 1_000),
    "h40-0..199": (lambda: (gen_random(seed, RandomConfig(horizon=40, arrival_rate=1.5)) for seed in range(200)), 200),
    "chains": (lambda: (chain_family(variant) for variant in CHAIN_VARIANTS), len(CHAIN_VARIANTS)),
    "h2k4-bases": (lambda: grid_bases(SWEEP_GRID), 35_750),
}


class TestDerivedCarry:
    @pytest.mark.parametrize("label", list(CARRY_CAMPAIGNS))
    def test_carry_is_the_best_of_the_online_buffer(self, label):
        # at every time of every run, the carry the engine derives from what
        # step t-1 sent is the canonically best packet of B(t) as
        # online_buffers scans it, reading nothing of the 2-bounded shape
        instances, expected = CARRY_CAMPAIGNS[label]
        runs = 0
        for inst in instances():
            trace = run_cp(inst)
            buffers = online_buffers(trace)
            for t in range(inst.horizon + 1):
                assert trace.engine.carry(t) == best(inst, buffers.get(t, ())), (inst, t)
            runs += 1
        assert runs == expected


def components(kept: Sequence[int], width: int) -> tuple[tuple[int, int], ...]:
    """The (slots, free) components, left to right, of the windows given by
    their automaton columns `kept` over `width` slots: two adjacent slots
    are joined iff a kept window covers both, and a component's free slots
    are its slots less the kept windows that start in it."""
    joined = [False] * width  # joined[s]: slots s and s + 1 are one component
    held = [0] * width  # kept windows starting at slot s
    for col in kept:
        held[col >> 1] += 1
        if col & 1 and (col >> 1) + 1 < width:
            joined[col >> 1] = True
    out = []
    size = count = 0
    for s in range(width):
        size += 1
        count += held[s]
        if not joined[s]:
            out.append((size, size - count))
            size = count = 0
    return tuple(out)


#: label -> the instances of a campaign whose every window is counted.
TRAFFIC = {
    "fuzz-h6": lambda: [gen_random(seed) for seed in range(50)],
    "fuzz-h40": lambda: [gen_random(seed, RandomConfig(horizon=40, arrival_rate=1.5)) for seed in range(50)],
    "chains": lambda: [chain_family(variant) for variant in CHAIN_VARIANTS],
    "tight": lambda: [tight_family(n) for n in range(6)],
    "grid-h2k4": lambda: [inst for _, inst, _, _ in enumerate_bases(SWEEP_GRID)],
}

ALL_CHECKS = CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True, cross_check=True)


#: The widths of the lanes' slot automata.
LANE_WIDTHS = sorted({e + 1 for _, e in ROW})


class TestSlotAutomaton:
    """The slot automaton of each lane width, checked against the union-find
    that solves every other window and against the dynamic-programming
    oracle."""

    @pytest.mark.parametrize("width", LANE_WIDTHS)
    def test_every_state_and_column_agrees_with_the_union_find(self, width):
        # every reachable state, reached by the first column path the walk
        # finds to it, is replayed on the union-find and then met with each
        # column: both accept the window or both reject it, and the kept
        # windows' components, read off by a scan of their own, are the
        # table's next state, or all full where the table absorbs
        states, table = _automaton(width)
        cols = 2 * width
        assert len(states) == (2, 5, 15, 47, 147)[width - 1]  # the absorbing state included
        queue = [(cols, ())]  # (row start, column path from the start state)
        for row, path in queue:
            for col in range(cols):
                walk = (*path, col)
                got = _solve(1, range(len(walk)), 0, width - 1, width - 1, [(rank, c, 1) for rank, c in enumerate(walk)])
                assert got.mask & ((1 << len(path)) - 1) == (1 << len(path)) - 1, path
                nxt = table[row + col]
                assert (nxt >= 0) == bool(got.mask >> len(path) & 1), walk
                if nxt < 0:
                    continue
                kept = components([c for rank, c in enumerate(walk) if got.mask >> rank & 1], width)
                if nxt:
                    assert kept == states[nxt // cols], walk
                    if all(row != nxt for row, _ in queue):
                        queue.append((nxt, walk))
                else:
                    assert all(free == 0 for _, free in kept), walk
        assert len(queue) == len(states) - 1  # every state but the absorbing one is reached

    @given(small_instances(max_packets=8, max_release=5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_the_two_solvers_and_the_oracle_agree(self, inst, data):
        # any window t <= t' <= t'' over a hand-built buffer B(t), in the
        # base row or not: the union-find and, for a ROW window, the row's
        # lane give one mask over the engine's ranks, and dp_partial,
        # seeded with all of B(t), the same answer
        horizon = max(inst.horizon, 0)
        t = data.draw(st.integers(0, horizon + 1), label="t")
        t_arr = data.draw(st.integers(t, t + REACH + 2), label="t'")
        t_end = data.draw(st.integers(t_arr, t + REACH + 3), label="t''")
        shaped = [p.id for p in inst.packets if p.release == t - 1 and p.deadline == t]
        sent = data.draw(st.sampled_from([None, *shaped]), label="sent at t-1")
        q = (t, t_arr, t_end)
        run = engine(inst, t, sent)
        swept = _solve(inst.scale, run.ids, *q, run.candidates(t, t_arr))
        assert swept == dp_partial(q, inst, set(shaped) - {sent}), q
        if (t_arr - t, t_end - t) in ROW:
            lane = ROW.index((t_arr - t, t_end - t))
            masks, weights = _row(run.candidates(t, t + REACH))
            assert (masks[lane], weights[lane]) == (swept.mask, swept.weight), q

    @pytest.mark.parametrize("label", list(TRAFFIC))
    def test_every_window_a_campaign_asks_is_narrow(self, label, monkeypatch):
        # with every check on, the cross-check included, every window the
        # engine answers but the optimum's (0, h, h) is a lane of a base
        # row, so the union-find serves only opt_full, and only at horizons
        # past the row's widest window; the run solves one row per step
        # time and no other
        swept = 0
        union_find = offline._solve

        def counted(*args):
            nonlocal swept
            swept += 1
            return union_find(*args)

        monkeypatch.setattr(offline, "_solve", counted)
        for inst in TRAFFIC[label]():
            swept = 0
            run = evaluate(inst)
            res = certify(run, ALL_CHECKS)
            assert res.ok and res.instance is inst, inst
            trace = run[0]
            wide = (0, inst.horizon, inst.horizon) if inst.horizon > REACH else None
            assert list(trace.engine.cache) == ([wide] if wide else []), inst
            assert swept == (wide is not None), inst
            assert sorted(trace.engine.rows) == list(range(len(trace.steps))), inst


class TestRowAutomaton:
    """The product of the nine lanes' automata that solves a base row in one
    walk, checked lane by lane against each lane's own automaton, the
    union-find and the dynamic-programming oracle."""

    def test_every_lane_steps_its_own_automaton(self):
        # a walk of the product table from its start, keeping beside each
        # product row the lane states it stands for: at every reachable
        # state and column, each lane's move is its own automaton's step,
        # or a skip where the column is released after the lane's t'; the
        # code names exactly the lanes that keep the window, and the next
        # row always stands for the same lane states
        table, lanes = _row_automaton()
        shift, cols = len(ROW), 2 * (REACH + 1)
        automata = [_automaton(e + 1)[1] for _, e in ROW]
        start = tuple([2 * (e + 1) for _, e in ROW])
        seen = {cols: start}  # product row start -> lane states
        queue = [cols]
        for row in queue:
            state = seen[row]
            for col in range(cols):
                nxt, code = list(state), 0
                for lane, (a, _) in enumerate(ROW):
                    if state[lane] and col >> 1 <= a and (moved := automata[lane][state[lane] + col]) >= 0:
                        nxt[lane] = moved
                        code |= 1 << lane
                move = table[row + col]
                assert move & ((1 << shift) - 1) == code, (state, col)
                assert lanes[code] == tuple([lane for lane in range(shift) if code >> lane & 1])
                if not code:
                    continue
                target = move >> shift
                assert seen.setdefault(target, tuple(nxt)) == tuple(nxt), (state, col)
                if target and target not in queue:
                    queue.append(target)
                assert (target == 0) == (not any(nxt)), (state, col)
        assert len(seen) == len(table) // cols == 469  # the all-full state included
        assert sum(entry is not None for entry in lanes) == 26

    @given(small_instances(max_packets=10, max_release=7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_lane_equals_the_union_find_and_the_oracle(self, inst, data):
        # base t >= 1 just after a release of edges, whose carry is drawn
        # from release bucket t-1's deadline-t packets: every lane of the
        # row equals the union-find on its window and dp_partial seeded
        # with all of B(t)
        after_edges = sorted({p.deadline for p in inst.packets if p.deadline > p.release})
        t = data.draw(st.sampled_from(after_edges or [1]), label="t")
        shaped = [p.id for p in inst.packets if p.release == t - 1 and p.deadline == t]
        sent = data.draw(st.sampled_from([None, *shaped]), label="sent at t-1")
        run = engine(inst, t, sent)
        masks, weights = _row(run.candidates(t, t + REACH))
        for (a, e), mask, weight in zip(ROW, masks, weights):
            q = (t, t + a, t + e)
            swept = _solve(inst.scale, run.ids, *q, run.candidates(t, t + a))
            assert (mask, weight) == (swept.mask, swept.weight), q
            assert PSet(mask, weight, inst.scale, run.ids) == dp_partial(q, inst, set(shaped) - {sent}), q
