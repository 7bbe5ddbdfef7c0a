"""Pair selection, conjoin/slide gate construction, and whole reductions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksynth import (
    GateSequence,
    PairNotFound,
    Permutation,
    PreconditionViolated,
    RelevantPair,
    alloc,
    apply_sequence,
    bounds,
    classify_positions,
    cons,
    cx,
    findm,
    in_region,
    is_reducible,
    lift_into_region,
    mct,
    n_pick,
    pick,
    preprocessing_bound,
    reduce_general,
    reduce_normal,
    region_start,
    sample,
    toffoli_count,
    x,
)
from blocksynth import reduction
from blocksynth.reduction import _Engine
from helpers import (
    balanced_entries,
    conditioning_budget,
    conjoin_budget,
    rebalance_budget,
    slide_budget,
)

ID3 = Permutation.identity(3)


@st.composite
def aligned_perms(draw, min_width=2, max_width=5):
    width = draw(st.integers(min_width, max_width))
    seed = draw(st.integers(0, 10_000))
    return sample(width, seed, "parity_aligned")


class TestPick:
    def test_identity_region_pair(self):
        assert pick(ID3, 1) == RelevantPair(4, 5)

    def test_reports_smaller_column_first(self):
        p = Permutation.from_entries((0, 1, 2, 3, 5, 7, 6, 4))
        # region for position 1 starts at column 4; row 5 sits at column 4,
        # its partner row 4 at column 7.
        assert pick(p, 1) == RelevantPair(5, 4)

    def test_raises_when_region_empty(self):
        p = Permutation.from_entries((0, 2, 4, 6, 1, 3, 5, 7))
        with pytest.raises(PairNotFound):
            pick(p, 1)

    def test_pair_iterates(self):
        a, b = pick(ID3, 1)
        assert (a, b) == (4, 5)


class TestNPick:
    def test_identity(self):
        assert n_pick(ID3, 1) == RelevantPair(4, 5)

    def test_skips_non_normal_members(self):
        # Region [4,8) holds only inverted pairs; falls back outside.
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        assert n_pick(p, 1) == RelevantPair(2, 3)

    def test_fallback_maximizes_smaller_column(self):
        # Two normal pairs below the region: <0,1> at columns 0,1 and
        # <2,3> at columns 2,3 with position 1's region empty of normals.
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        pair = n_pick(p, 1)
        assert pair == RelevantPair(2, 3)  # columns 2,3 beat columns 0,1

    def test_raises_when_no_normal_pair_left(self):
        p = Permutation.from_entries((0, 2, 4, 6, 1, 3, 5, 7))
        with pytest.raises(PairNotFound):
            n_pick(p, 1)


class TestLift:
    def test_noop_when_both_in_region(self):
        assert len(lift_into_region(ID3, 1, RelevantPair(4, 5))) == 0

    def test_moves_pair_into_region(self):
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        pair = n_pick(p, 1)
        seq = lift_into_region(p, 1, pair)
        lifted, _ = apply_sequence(p, GateSequence(3), seq)
        start = region_start(1, 3)
        assert lifted.position_of(pair.a) >= start
        assert lifted.position_of(pair.b) >= start

    def test_preserves_columns_below_target(self):
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        pair = n_pick(p, 1)
        seq = lift_into_region(p, 1, pair)
        lifted, _ = apply_sequence(p, GateSequence(3), seq)
        assert lifted.entries[:2] == p.entries[:2]

    @given(aligned_perms(min_width=3, max_width=5), st.data())
    @settings(max_examples=80)
    def test_lift_property(self, p, data):
        n = p.width
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        try:
            pair = n_pick(p, i)
        except PairNotFound:
            return
        seq = lift_into_region(p, i, pair)
        lifted, _ = apply_sequence(p, GateSequence(n), seq)
        assert in_region(lifted.position_of(pair.a), i, n)
        assert in_region(lifted.position_of(pair.b), i, n)
        if p.position_of(pair.a) >= 2 * i and p.position_of(pair.b) >= 2 * i:
            # with no member starting below 2i, that prefix stays untouched
            assert lifted.entries[: 2 * i] == p.entries[: 2 * i]
            for g in seq:
                # each gate's positive controls alone pin every touched
                # column at or past 2i, and the last line never moves
                assert g.target != n
                positive = sum(1 << (n - l) for l, pol in g.controls if pol)
                assert positive >= 2 * i


class TestCons:
    def test_hand_worked_example(self):
        # The conjugating X pair wraps the (here empty) CX run, firing the
        # clean-up on bit-2-clear columns; the closing gate is the region MCT.
        p = Permutation.from_entries((0, 1, 6, 3, 2, 5, 4, 7))
        seq = cons(p, 1, RelevantPair(5, 4))
        assert seq == GateSequence.of(x(3, 2), x(3, 2), mct(3, [1, 3], 2))
        out, _ = apply_sequence(p, GateSequence(3), seq)
        assert out.entries == (0, 1, 6, 3, 2, 7, 4, 5)
        assert out.position_of(4) ^ out.position_of(5) == 1

    def test_empty_when_already_adjacent(self):
        assert len(cons(ID3, 1, RelevantPair(6, 7))) == 0

    def test_same_parity_rejected(self):
        p = Permutation.from_entries((0, 2, 1, 3, 4, 5, 6, 7))
        # rows 0 and 1 sit at columns 0 and 2: both even.
        with pytest.raises(PreconditionViolated):
            cons(p, 0, RelevantPair(0, 1))

    def test_out_of_region_prefix_difference_rejected(self):
        # rows 4,5 at columns 2,5 differ on line 1, protected for i=2.
        p = Permutation.from_entries((0, 1, 4, 3, 2, 5, 6, 7))
        with pytest.raises(PreconditionViolated):
            cons(p, 2, RelevantPair(4, 5))

    @given(aligned_perms(min_width=3, max_width=5), st.data())
    @settings(max_examples=120)
    def test_cons_shape_and_postcondition(self, p, data):
        n = p.width
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        try:
            pair = n_pick(p, i)
        except PairNotFound:
            return
        lift = lift_into_region(p, i, pair)
        p2, _ = apply_sequence(p, GateSequence(n), lift)
        seq = cons(p2, i, pair)
        m = findm(i, n)
        if seq.gates:
            *body, last = seq.gates
            # closing gate: controls on the protected prefix plus the last line
            assert [l for l, _ in last.controls] == [*range(1, m), n]
            assert all(pol for _, pol in last.controls)
            delta = last.target
            xs = [g for g in body if g.control_count == 0]
            cxs = [g for g in body if g.control_count == 1]
            assert len(xs) + len(cxs) == len(body)
            assert len(xs) in (0, 2)
            assert all(g.target == delta for g in xs)
            assert len(cxs) <= n - m - 1
            assert all(
                g.controls[0][0] == delta and g.target != n for g in cxs
            )
        out, _ = apply_sequence(p2, GateSequence(n), seq)
        assert out.position_of(pair.a) ^ out.position_of(pair.b) == 1


class TestAlloc:
    def test_hand_worked_slide(self):
        p = Permutation.from_entries((0, 1, 6, 3, 2, 7, 4, 5))
        seq = alloc(p, 1, 4)
        assert seq == GateSequence.of(cx(3, 2, 1))
        out, _ = apply_sequence(p, GateSequence(3), seq)
        assert out.entries == (0, 1, 4, 5, 2, 7, 6, 3)

    def test_uncontrolled_slide(self):
        p = Permutation.from_entries((2, 3, 0, 1, 4, 5, 6, 7))
        seq = alloc(p, 0, 0)
        assert seq == GateSequence.of(x(3, 2))
        out, _ = apply_sequence(p, GateSequence(3), seq)
        assert out.entries[:2] == (0, 1)

    def test_empty_when_in_place(self):
        assert len(alloc(ID3, 1, 2)) == 0

    @given(aligned_perms(min_width=3, max_width=5), st.data())
    @settings(max_examples=120)
    def test_alloc_lands_pair_and_respects_budget(self, p, data):
        n = p.width
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        try:
            pair = n_pick(p, i)
        except PairNotFound:
            return
        lift = lift_into_region(p, i, pair)
        p2, _ = apply_sequence(p, GateSequence(n), lift)
        p3, _ = apply_sequence(p2, GateSequence(n), cons(p2, i, pair))
        seq = alloc(p3, i, pair.a)
        for g in seq:
            assert g.target != n
            assert g.control_count <= max(1, bin(i).count("1"))
        out, _ = apply_sequence(p3, GateSequence(n), seq)
        assert {out.position_of(pair.a), out.position_of(pair.b)} == {
            2 * i,
            2 * i + 1,
        }


class TestBounds:
    def test_frozen_values(self):
        b3, b4, b8 = bounds(3), bounds(4), bounds(8)
        assert (b3.n_c, b3.n_a, b3.extra) == (2, 0, 4)
        assert (b4.n_c, b4.n_a, b4.extra) == (10, 1, 8)
        assert (b8.n_c, b8.n_a, b8.extra) == (354, 303, 163)
        assert b8.per_reduction_total == 820

    def test_against_independent_summation(self):
        for n in range(3, 12):
            b = bounds(n)
            assert b.n_c == conjoin_budget(n)
            assert b.n_a == slide_budget(n)
            assert b.extra == conditioning_budget(n)
            assert b.per_reduction_total == b.n_c + b.n_a + b.extra

    def test_preprocessing_bound(self):
        for n in range(3, 12):
            assert preprocessing_bound(n) == rebalance_budget(n)

    def test_rejects_tiny_widths(self):
        with pytest.raises(ValueError):
            bounds(2)


class TestReduceNormal:
    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            reduce_normal(Permutation.from_entries((1, 0, 2, 3)))

    def test_identity_costs_nothing(self):
        res, seq = reduce_normal(ID3)
        assert res == ID3 and len(seq) == 0

    @given(aligned_perms(min_width=2, max_width=5))
    @settings(max_examples=100, deadline=None)
    def test_reduces_and_respects_budget(self, p):
        res, seq = reduce_normal(p)
        assert is_reducible(res)
        assert verify_reduction(p, seq, res)
        assert all(g.target != p.width for g in seq)
        if p.width >= 3:
            b = bounds(p.width)
            assert toffoli_count(seq) <= b.n_c + b.n_a


class TestReduceGeneral:
    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            reduce_general(ID3)

    @given(st.integers(2, 5), st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_reduces_balanced_input(self, width, seed):
        p = Permutation.from_entries(balanced_entries(width, seed))
        res, seq = reduce_general(p)
        assert is_reducible(res)
        assert verify_reduction(p, seq, res)
        last_line = [g for g in seq if g.target == p.width]
        assert len(last_line) == 1
        assert last_line[0] == seq.gates[-1]


class TestAllocateChecks:
    """``_Engine.allocate`` checks its post-conditions with explicit raises,
    so they still hold under ``python -O``."""

    def test_unconjoined_pair_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "_cons_gates", lambda n, i, a, b: [])
        # rows 0 and 1 at columns 0 and 3: opposite parity, not adjacent
        engine = _Engine(Permutation(3, (0, 2, 3, 1, 4, 5, 6, 7)))
        with pytest.raises(RuntimeError, match="internal error: conjoining rows 0,1"):
            engine.allocate(0, 0, 1)

    def test_unallocated_pair_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "_alloc_gates", lambda n, i, a: [])
        # rows 2 and 3 already form a block, but at position 1
        engine = _Engine(ID3)
        with pytest.raises(RuntimeError, match="internal error: allocating rows 2,3"):
            engine.allocate(0, 2, 3)


def verify_reduction(p, seq, expected):
    got, _ = apply_sequence(p, GateSequence(p.width), seq)
    return got == expected
