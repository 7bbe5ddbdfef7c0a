"""Pair selection, conjoin/slide gate construction, and whole reductions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksynth import (
    Gate,
    GateSequence,
    PairNotFound,
    Permutation,
    PreconditionViolated,
    apply_gate,
    apply_sequence,
    bounds,
    cx,
    findm,
    mct,
    preprocessing_bound,
    sample,
    toffoli_count,
    x,
)
from blocksynth import reduction
from blocksynth.core import exchange_columns
from blocksynth.reduction import (
    _alloc_masks,
    _cons_masks,
    _Engine,
    _pick_rows,
    _passes,
    _run_general,
    _run_normal,
)
from helpers import (
    balanced_entries,
    conditioning_budget,
    conjoin_budget,
    rebalance_budget,
    slide_budget,
    with_identity_wire,
)

ID3 = Permutation.identity(3)


@st.composite
def aligned_perms(draw, min_width=2, max_width=5):
    width = draw(st.integers(min_width, max_width))
    seed = draw(st.integers(0, 10_000))
    return sample(width, seed, "parity_aligned")


def lifted(p, i, pair):
    """The lift gates for ``pair`` at iteration i, and the state after them."""
    engine = _Engine(p)
    engine.lift_pair(i, *pair)
    return engine.sequence(), engine.snapshot()


def as_sequence(n, masks):
    return GateSequence(n, tuple(Gate.from_masks(n, *m) for m in masks))


def conjoining(p, i, pair):
    ca, cb = (p.position_of(r) for r in pair)
    return as_sequence(p.width, _cons_masks(p.width, i, ca, cb))


def sliding(p, i, a):
    return as_sequence(p.width, _alloc_masks(p.width, i, p.position_of(a)))


def has_identity_last_line(p):
    """Q ⊗ I_2 form: every column pair (2i, 2i+1) holds rows (2k, 2k+1)."""
    e = p.entries
    return all(e[c] % 2 == 0 and e[c + 1] == e[c] + 1 for c in range(0, p.size, 2))


def reduced(p, run):
    """Run a whole reduction on a fresh engine: (result, gates)."""
    engine = _Engine(p)
    run(engine)
    return engine.snapshot(), engine.sequence()


class TestPick:
    def test_identity_region_pair(self):
        assert _Engine(ID3).scan_region(1, "normal") == (4, 5)

    def test_reports_smaller_column_first(self):
        p = Permutation.from_entries((0, 1, 2, 3, 5, 7, 6, 4))
        # region for position 1 starts at column 4; row 5 sits at column 4,
        # its partner row 4 at column 7.
        assert _Engine(p).scan_region(1, "inverted") == (5, 4)

    def test_raises_when_region_empty(self):
        # every pair is interrupting and has a member below the region
        p = Permutation.from_entries((0, 2, 4, 6, 1, 3, 5, 7))
        assert _Engine(p).scan_region(1, "inverted") is None
        with pytest.raises(PairNotFound):
            _pick_rows(_Engine(p), 1, "inverted")

    def test_pair_iterates(self):
        a, b = _Engine(ID3).scan_region(1, "normal")
        assert (a, b) == (4, 5)


class TestNPick:
    def test_identity(self):
        assert _pick_rows(_Engine(ID3), 1, "normal") == (4, 5)

    def test_skips_non_normal_members(self):
        # Region [4,8) holds only inverted pairs; falls back outside.
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        assert _pick_rows(_Engine(p), 1, "normal") == (2, 3)

    def test_fallback_maximizes_smaller_column(self):
        # Two normal pairs below the region: <0,1> at columns 0,1 and
        # <2,3> at columns 2,3 with position 1's region empty of normals.
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        pair = _pick_rows(_Engine(p), 1, "normal")
        assert pair == (2, 3)  # columns 2,3 beat columns 0,1

    def test_raises_when_no_normal_pair_left(self):
        p = Permutation.from_entries((0, 2, 4, 6, 1, 3, 5, 7))
        with pytest.raises(PairNotFound):
            _pick_rows(_Engine(p), 1, "normal")


class TestLift:
    def test_noop_when_both_in_region(self):
        seq, _ = lifted(ID3, 1, (4, 5))
        assert len(seq) == 0

    def test_moves_pair_into_region(self):
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        a, b = _pick_rows(_Engine(p), 1, "normal")
        _, out = lifted(p, 1, (a, b))
        start = reduction._region_mask(3, 1)
        assert out.position_of(a) >= start
        assert out.position_of(b) >= start

    def test_preserves_columns_below_target(self):
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        pair = _pick_rows(_Engine(p), 1, "normal")
        _, out = lifted(p, 1, pair)
        assert out.entries[:2] == p.entries[:2]

    @given(aligned_perms(min_width=3, max_width=5), st.data())
    @settings(max_examples=80)
    def test_lift_property(self, p, data):
        n = p.width
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        try:
            a, b = _pick_rows(_Engine(p), i, "normal")
        except PairNotFound:
            return
        seq, out = lifted(p, i, (a, b))
        assert apply_sequence(p, GateSequence(n), seq)[0] == out
        mask = reduction._region_mask(n, i)
        assert out.position_of(a) & mask == mask
        assert out.position_of(b) & mask == mask
        if p.position_of(a) >= 2 * i and p.position_of(b) >= 2 * i:
            # with no member starting below 2i, that prefix stays untouched
            assert out.entries[: 2 * i] == p.entries[: 2 * i]
            for g in seq:
                # each gate's positive controls alone pin every touched
                # column at or past 2i, and the last line never moves
                assert g.target != n
                positive = sum(1 << (n - l) for l, pol in g.controls if pol)
                assert positive >= 2 * i


class TestCons:
    def test_hand_worked_example(self):
        # The columns differ only on lines 2 and 3, so the CX run is empty
        # and so is its X wrapper; only the region MCT remains.
        p = Permutation.from_entries((0, 1, 6, 3, 2, 5, 4, 7))
        seq = conjoining(p, 1, (5, 4))
        assert seq == GateSequence.of(mct(3, [1, 3], 2))
        out, _ = apply_sequence(p, GateSequence(3), seq)
        assert out.entries == (0, 1, 6, 3, 2, 7, 4, 5)
        assert out.position_of(4) ^ out.position_of(5) == 1

    def test_empty_when_already_adjacent(self):
        assert len(conjoining(ID3, 1, (6, 7))) == 0

    def test_same_parity_rejected(self):
        p = Permutation.from_entries((0, 2, 1, 3, 4, 5, 6, 7))
        # rows 0 and 1 sit at columns 0 and 2: both even.
        with pytest.raises(PreconditionViolated):
            conjoining(p, 0, (0, 1))

    def test_out_of_region_prefix_difference_rejected(self):
        # rows 4,5 at columns 2,5 differ on line 1, protected for i=2.
        p = Permutation.from_entries((0, 1, 4, 3, 2, 5, 6, 7))
        with pytest.raises(PreconditionViolated):
            conjoining(p, 2, (4, 5))

    @given(aligned_perms(min_width=3, max_width=5), st.data())
    @settings(max_examples=120)
    def test_cons_shape_and_postcondition(self, p, data):
        n = p.width
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        try:
            pair = _pick_rows(_Engine(p), i, "normal")
        except PairNotFound:
            return
        _, p2 = lifted(p, i, pair)
        seq = conjoining(p2, i, pair)
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
            assert not xs or cxs  # the X pair only wraps a non-empty run
            assert all(g.target == delta for g in xs)
            assert len(cxs) <= n - m - 1
            assert all(
                g.controls[0][0] == delta and g.target != n for g in cxs
            )
        out, _ = apply_sequence(p2, GateSequence(n), seq)
        assert out.position_of(pair[0]) ^ out.position_of(pair[1]) == 1


class TestAlloc:
    def test_hand_worked_slide(self):
        p = Permutation.from_entries((0, 1, 6, 3, 2, 7, 4, 5))
        seq = sliding(p, 1, 4)
        assert seq == GateSequence.of(cx(3, 2, 1))
        out, _ = apply_sequence(p, GateSequence(3), seq)
        assert out.entries == (0, 1, 4, 5, 2, 7, 6, 3)

    def test_uncontrolled_slide(self):
        p = Permutation.from_entries((2, 3, 0, 1, 4, 5, 6, 7))
        seq = sliding(p, 0, 0)
        assert seq == GateSequence.of(x(3, 2))
        out, _ = apply_sequence(p, GateSequence(3), seq)
        assert out.entries[:2] == (0, 1)

    def test_empty_when_in_place(self):
        assert len(sliding(ID3, 1, 2)) == 0

    @given(aligned_perms(min_width=3, max_width=5), st.data())
    @settings(max_examples=120)
    def test_alloc_lands_pair_and_respects_budget(self, p, data):
        n = p.width
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        try:
            a, b = _pick_rows(_Engine(p), i, "normal")
        except PairNotFound:
            return
        _, p2 = lifted(p, i, (a, b))
        p3, _ = apply_sequence(p2, GateSequence(n), conjoining(p2, i, (a, b)))
        seq = sliding(p3, i, a)
        for g in seq:
            assert g.target != n
            assert g.control_count <= max(1, bin(i).count("1"))
        out, _ = apply_sequence(p3, GateSequence(n), seq)
        assert {out.position_of(a), out.position_of(b)} == {
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
    def test_identity_costs_nothing(self):
        res, seq = reduced(ID3, _run_normal)
        assert res == ID3 and len(seq) == 0

    @given(aligned_perms(min_width=2, max_width=5))
    @settings(max_examples=100, deadline=None)
    def test_reduces_and_respects_budget(self, p):
        res, seq = reduced(p, _run_normal)
        assert has_identity_last_line(res)
        assert verify_reduction(p, seq, res)
        assert all(g.target != p.width for g in seq)
        if p.width >= 3:
            b = bounds(p.width)
            assert toffoli_count(seq) <= b.n_c + b.n_a


class TestReduceGeneral:
    @given(st.integers(2, 5), st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_reduces_balanced_input(self, width, seed):
        p = Permutation.from_entries(balanced_entries(width, seed))
        res, seq = reduced(p, _run_general)
        assert has_identity_last_line(res)
        assert verify_reduction(p, seq, res)
        last_line = [g for g in seq if g.target == p.width]
        assert len(last_line) == 1
        assert last_line[0] == seq.gates[-1]


@st.composite
def mask_lists(draw):
    """A width and a gate list drawn from a few control masks (one of them
    uncontrolled), so runs, repeats and X sandwiches all turn up."""
    n = draw(st.integers(2, 6))
    full = (1 << n) - 1
    pool = [(0, 0)]
    for _ in range(2):
        ctl = draw(st.integers(1, full))
        ones = ctl & draw(st.integers(0, full))
        pool.append((ones, ctl ^ ones))
    out = []
    for _ in range(draw(st.integers(0, 12))):
        ones, zeros = draw(st.sampled_from(pool))
        free = [1 << b for b in range(n) if not (ones | zeros) >> b & 1]
        if free:
            out.append((ones, zeros, draw(st.sampled_from(free))))
    return n, out


class TestFusedEmission:
    """``_Engine.emit`` applies each run of same-control gates in one pass;
    the gates it records must still replay to the state it holds."""

    @given(mask_lists(), st.integers(0, 10_000))
    @settings(max_examples=300)
    def test_passes_act_like_the_gates(self, case, seed):
        n, gates = case
        p = sample(n, seed)
        entries, pos = list(p.entries), list(p.positions)
        passes = list(_passes(gates))
        for g in passes:
            exchange_columns(entries, *g, pos)
        ref_entries, ref_pos = list(p.entries), list(p.positions)
        for g in gates:
            exchange_columns(ref_entries, *g, ref_pos)
        assert entries == ref_entries
        assert pos == ref_pos
        assert len(passes) <= len(gates)

    def test_conjoin_sandwich_is_one_negative_pass(self):
        # X(2) · CX(2->3) · CX(2->4) · X(2) at width 4, then an MCT
        run = [(0, 0, 4), (4, 0, 2), (4, 0, 1), (0, 0, 4), (8 | 1, 0, 4)]
        assert list(_passes(run)) == [(0, 4, 3), (9, 0, 4)]

    @given(aligned_perms(min_width=3, max_width=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_allocate_state_replays_from_the_sequence(self, p, data):
        engine = _Engine(p)
        last = data.draw(st.integers(0, p.size // 2 - 1))
        for i in range(last + 1):
            engine.allocate(i, *_pick_rows(engine, i, "normal"))
        replayed, _ = apply_sequence(p, GateSequence(p.width), engine.sequence())
        assert engine.snapshot() == replayed
        assert engine.pos == list(replayed.positions)


class TestAllocateChecks:
    """``_Engine.allocate`` checks its post-conditions with explicit raises,
    so they still hold under ``python -O``."""

    def test_unconjoined_pair_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "_cons_masks", lambda n, i, a, b: [])
        # rows 0 and 1 at columns 0 and 3: opposite parity, not adjacent
        engine = _Engine(Permutation(3, (0, 2, 3, 1, 4, 5, 6, 7)))
        with pytest.raises(RuntimeError, match="internal error: conjoining rows 0,1"):
            engine.allocate(0, 0, 1)

    def test_unallocated_pair_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "_alloc_masks", lambda n, i, a: [])
        # rows 2 and 3 already form a block, but at position 1
        engine = _Engine(ID3)
        with pytest.raises(RuntimeError, match="internal error: allocating rows 2,3"):
            engine.allocate(0, 2, 3)


def verify_reduction(p, seq, expected):
    got, _ = apply_sequence(p, GateSequence(p.width), seq)
    return got == expected


class TestEngineStrip:
    """One engine runs a whole synthesis; ``strip`` moves it one width down."""

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_strip_leaves_the_factor(self, width, seed):
        q = sample(width, seed)
        engine = _Engine(Permutation(width + 1, with_identity_wire(q.entries)))
        engine.strip()
        assert engine.snapshot() == q
        assert (engine.n, engine.size, engine.pos) == (width, q.size, list(q.positions))

    def test_gates_after_strip_keep_their_lines_and_are_shared(self):
        engine = _Engine(Permutation.identity(4))
        engine.emit((0b1000, 0, 0b0010), (0b1000, 0, 0b0010))  # CX 1->3, twice
        first = engine.sequence()
        engine.strip()
        assert (engine.width, engine.n, engine.gates) == (4, 3, [])
        engine.emit((0b100, 0, 0b001))  # CX 1->3 at width 3
        (gate,) = engine.sequence()
        assert gate == cx(4, 1, 3)
        assert gate is first.gates[0] is first.gates[1]
        assert engine.snapshot() == apply_gate(Permutation.identity(3), cx(3, 1, 3))

    def test_strip_starts_a_new_stage_record(self):
        engine = _Engine(Permutation.from_entries(balanced_entries(4, 1)))
        _run_general(engine)
        assert engine.gates and engine.region_lifts and engine.lift_toffoli
        engine.strip()
        assert (engine.gates, engine.region_lifts, engine.lift_toffoli) == ([], 0, 0)
        assert len(engine.sequence()) == 0
