"""Pair classification, region geometry, pair selection, conjoin/slide gate
construction, and whole reductions."""

from collections import Counter

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
from blocksynth.reduction import (
    INVERTED,
    NORMAL,
    _alloc_masks,
    _cons_masks,
    _Engine,
    _holds_block,
    _pair_split,
    _pick_rows,
    _region_mask,
    _run_general,
    _run_normal,
)
from blocksynth.synthesis import _admissible_from, _blocks, _count_free
from helpers import (
    balanced_entries,
    conditioning_budget,
    conjoin_budget,
    mismatch_rows,
    positions,
    rebalance_budget,
    slide_budget,
    with_identity_wire,
)

ID3 = Permutation.identity(3)


@st.composite
def permutations(draw, min_width=2, max_width=4):
    width = draw(st.integers(min_width, max_width))
    entries = draw(st.permutations(tuple(range(1 << width))))
    return Permutation.from_entries(tuple(entries))


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
    pos = positions(p)
    return as_sequence(p.width, _cons_masks(p.width, i, pos[pair[0]], pos[pair[1]]))


def sliding(p, i, a):
    return as_sequence(p.width, _alloc_masks(p.width, i, positions(p)[a]))


def has_identity_last_line(p):
    """Q ⊗ I_2 form: every column pair (2i, 2i+1) holds rows (2k, 2k+1)."""
    e = p.entries
    return all(e[c] % 2 == 0 and e[c + 1] == e[c] + 1 for c in range(0, p.size, 2))


def reduced(p, run):
    """Run a whole reduction on a fresh engine: (result, gates)."""
    engine = _Engine(p)
    run(engine)
    return engine.snapshot(), engine.sequence()


class TestRegionGeometry:
    def test_region_mask_values_width_3(self):
        assert [_region_mask(3, l) for l in range(4)] == [0, 4, 4, 6]

    def test_region_mask_values_width_8(self):
        # at the first position of each m = 1..8
        firsts = [0, 1, 65, 97, 113, 121, 125, 127]
        assert [_region_mask(8, l) for l in firsts] == [0, 128, 192, 224, 240, 248, 252, 254]

    @pytest.mark.parametrize(
        "l,n,m",
        [
            (0, 3, 1),
            (1, 3, 2),
            (2, 3, 2),
            (3, 3, 3),
            (1, 8, 2),
            (64, 8, 2),
            (65, 8, 3),
            (96, 8, 3),
            (97, 8, 4),
            (127, 8, 8),
        ],
    )
    def test_findm_hand_values(self, l, n, m):
        assert findm(l, n) == m

    def test_findm_is_minimal(self):
        def start(n, m):  # the first column whose lines 1..m-1 are all set
            return (1 << n) - (1 << (n - m + 1))

        for n in (3, 4, 5, 6):
            for l in range(1, 1 << (n - 1)):
                m = findm(l, n)
                assert 2 * l <= start(n, m)
                assert m == 1 or 2 * l > start(n, m - 1)

    def test_findm_range(self):
        with pytest.raises(ValueError):
            findm(-1, 3)
        with pytest.raises(ValueError):
            findm(4, 3)

    def test_region_start_at_least_twice_l(self):
        for n in (3, 4, 5, 6, 8):
            for l in range(1 << (n - 1)):
                assert _region_mask(n, l) >= 2 * l

    def test_region_is_suffix_interval(self):
        # Columns in the region are exactly those at or above its start.
        for n in (3, 4, 5):
            for l in range(1 << (n - 1)):
                mask = _region_mask(n, l)
                for col in range(1 << n):
                    assert ((col & mask) == mask) == (col >= mask)

    def test_region_membership_is_prefix_mask(self):
        # The mask is lines 1..m-1, m = findm(l, n), written out bit by bit.
        for n in (3, 4, 5, 6, 8):
            for l in range(1 << (n - 1)):
                lines = range(1, findm(l, n))
                assert _region_mask(n, l) == sum(1 << (n - line) for line in lines)


class TestClassification:
    """The census counts pairs: (normal, inverted), the rest interrupting."""

    def test_identity_all_normal(self):
        assert _pair_split(positions(ID3)) == (4, 0)

    def test_hand_worked_width_4(self):
        p = Permutation.from_entries(
            (3, 10, 14, 6, 12, 2, 0, 15, 5, 8, 13, 9, 1, 4, 7, 11)
        )
        assert _pair_split(positions(p)) == (1, 3)
        assert mismatch_rows(p.entries) == 8

    def test_swapped_pair_counts(self):
        # Swapping columns 0,1 leaves pair <0,1> inverted; others normal.
        p = Permutation.from_entries((1, 0, 2, 3, 4, 5, 6, 7))
        assert _pair_split(positions(p)) == (3, 1)

    @given(permutations())
    @settings(max_examples=120)
    def test_counts_are_even_and_sum(self, p):
        normal, inverted = _pair_split(positions(p))
        assert 2 * (normal + inverted) <= p.size
        assert (p.size - 2 * (normal + inverted)) % 4 == 0

    @given(permutations())
    @settings(max_examples=120)
    def test_interrupting_matches_reference(self, p):
        normal, inverted = _pair_split(positions(p))
        assert p.size - 2 * (normal + inverted) == mismatch_rows(p.entries)

    @given(permutations())
    @settings(max_examples=120)
    def test_kinds_follow_the_member_rule(self, p):
        # Each member of a kind-k pair has (row ^ column) & 1 == k.
        pos = positions(p)
        bits = [{(r ^ pos[r]) & 1, (r + 1 ^ pos[r + 1]) & 1} for r in range(0, p.size, 2)]
        assert _pair_split(pos) == (bits.count({NORMAL}), bits.count({INVERTED}))

    @given(st.integers(2, 5), st.integers(0, 30))
    @settings(max_examples=50)
    def test_parity_aligned_classifies_all_normal(self, width, seed):
        p = sample(width, seed, "parity_aligned")
        assert _pair_split(positions(p)) == (p.size // 2, 0)


class TestConservation:
    """Gates away from the last line cannot change any pair's kind."""

    @given(permutations(), st.data())
    @settings(max_examples=120)
    def test_counts_invariant_without_last_line_target(self, p, data):
        target = data.draw(st.integers(1, p.width - 1))
        moved = apply_gate(p, x(p.width, target))
        assert _pair_split(positions(moved)) == _pair_split(positions(p))


def _pairs_from(engine, i):
    """The scorer's (even row, column, partner column) triples for the
    pairs whose even row sits at or past column 2i."""
    pos = engine.pos
    return [(r, pos[r], pos[r + 1]) for r in engine.entries[2 * i :] if not r & 1]


class TestBlockTests:
    """``_holds_block`` reads the entries array, the scorer's ``_blocks``
    reads pair triples; both must find the same blocks."""

    def test_holds_block_even(self):
        engine = _Engine(Permutation.from_entries((0, 1, 6, 3, 2, 5, 4, 7)))
        assert [_holds_block(engine, i, NORMAL) for i in range(4)] == [True] + [False] * 3
        assert not any(_holds_block(engine, i, INVERTED) for i in range(4))

    def test_holds_block_odd(self):
        engine = _Engine(Permutation.from_entries((1, 0, 3, 2)))
        assert [_holds_block(engine, i, INVERTED) for i in range(2)] == [True, True]
        assert not any(_holds_block(engine, i, NORMAL) for i in range(2))

    def test_count_free_identity(self):
        engine = _Engine(Permutation.identity(3))
        pairs = _pairs_from(engine, 0)
        assert _blocks(pairs, NORMAL) == 4
        assert _blocks(_pairs_from(engine, 2), NORMAL) == 2
        assert _blocks(pairs, INVERTED) == 0
        # Position 0's region is every column, so all four blocks are
        # candidates at gap 0; taking row 0's pair leaves the other three.
        gaps = Counter((ca ^ cb) >> 1 for *_, ca, cb in _admissible_from(3, pairs, 0, NORMAL))
        assert gaps == {0: 4}
        assert _count_free(4, gaps, 0) == 3

    def test_count_free_one_block(self):
        # Rows 0, 1 sit at columns 2, 3: one even block, at position 1.
        engine = _Engine(Permutation.from_entries((7, 2, 0, 1, 5, 3, 6, 4)))
        assert _blocks(_pairs_from(engine, 0), NORMAL) == 1
        assert _blocks(_pairs_from(engine, 0), INVERTED) == 0
        assert _blocks(_pairs_from(engine, 2), NORMAL) == 0

    @given(permutations(), st.data())
    @settings(max_examples=120)
    def test_block_tests_agree(self, p, data):
        engine = _Engine(p)
        i = data.draw(st.integers(0, p.size // 2 - 1))
        pairs = _pairs_from(engine, i)
        for kind in (NORMAL, INVERTED):
            held = sum(_holds_block(engine, q, kind) for q in range(i, p.size // 2))
            assert _blocks(pairs, kind) == held


class TestPick:
    def test_identity_region_pair(self):
        assert _Engine(ID3).scan_region(1, NORMAL) == (4, 5)

    def test_reports_smaller_column_first(self):
        p = Permutation.from_entries((0, 1, 2, 3, 5, 7, 6, 4))
        # region for position 1 starts at column 4; row 5 sits at column 4,
        # its partner row 4 at column 7.
        assert _Engine(p).scan_region(1, INVERTED) == (5, 4)

    def test_raises_when_region_empty(self):
        # every pair is interrupting and has a member below the region
        p = Permutation.from_entries((0, 2, 4, 6, 1, 3, 5, 7))
        assert _Engine(p).scan_region(1, INVERTED) is None
        with pytest.raises(PairNotFound):
            _pick_rows(_Engine(p), 1, INVERTED)

    def test_pair_iterates(self):
        a, b = _Engine(ID3).scan_region(1, NORMAL)
        assert (a, b) == (4, 5)


class TestNPick:
    def test_identity(self):
        assert _pick_rows(_Engine(ID3), 1, NORMAL) == (4, 5)

    def test_skips_non_normal_members(self):
        # Region [4,8) holds only inverted pairs; falls back outside.
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        assert _pick_rows(_Engine(p), 1, NORMAL) == (2, 3)

    def test_fallback_maximizes_smaller_column(self):
        # Two normal pairs below the region: <0,1> at columns 0,1 and
        # <2,3> at columns 2,3 with position 1's region empty of normals.
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        pair = _pick_rows(_Engine(p), 1, NORMAL)
        assert pair == (2, 3)  # columns 2,3 beat columns 0,1

    def test_raises_when_no_normal_pair_left(self):
        p = Permutation.from_entries((0, 2, 4, 6, 1, 3, 5, 7))
        with pytest.raises(PairNotFound):
            _pick_rows(_Engine(p), 1, NORMAL)


class TestLift:
    def test_noop_when_both_in_region(self):
        seq, _ = lifted(ID3, 1, (4, 5))
        assert len(seq) == 0

    def test_moves_pair_into_region(self):
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        a, b = _pick_rows(_Engine(p), 1, NORMAL)
        _, out = lifted(p, 1, (a, b))
        start = _region_mask(3, 1)
        assert positions(out)[a] >= start
        assert positions(out)[b] >= start

    def test_preserves_columns_below_target(self):
        p = Permutation.from_entries((0, 1, 2, 3, 5, 4, 7, 6))
        pair = _pick_rows(_Engine(p), 1, NORMAL)
        _, out = lifted(p, 1, pair)
        assert out.entries[:2] == p.entries[:2]

    @given(aligned_perms(min_width=3, max_width=5), st.data())
    @settings(max_examples=80)
    def test_lift_property(self, p, data):
        n = p.width
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        try:
            a, b = _pick_rows(_Engine(p), i, NORMAL)
        except PairNotFound:
            return
        seq, out = lifted(p, i, (a, b))
        assert apply_sequence(p, GateSequence(n), seq)[0] == out
        mask = _region_mask(n, i)
        before, after = positions(p), positions(out)
        assert after[a] & mask == mask
        assert after[b] & mask == mask
        if before[a] >= 2 * i and before[b] >= 2 * i:
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
        assert positions(out)[4] ^ positions(out)[5] == 1

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
            pair = _pick_rows(_Engine(p), i, NORMAL)
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
        pos = positions(out)
        assert pos[pair[0]] ^ pos[pair[1]] == 1


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
            a, b = _pick_rows(_Engine(p), i, NORMAL)
        except PairNotFound:
            return
        _, p2 = lifted(p, i, (a, b))
        p3, _ = apply_sequence(p2, GateSequence(n), conjoining(p2, i, (a, b)))
        seq = sliding(p3, i, a)
        for g in seq:
            assert g.target != n
            assert g.control_count <= max(1, bin(i).count("1"))
        out, _ = apply_sequence(p3, GateSequence(n), seq)
        pos = positions(out)
        assert {pos[a], pos[b]} == {2 * i, 2 * i + 1}


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
def gate_batches(draw):
    """A width 3..9 and batches of gates for one ``emit`` each: X gates, CX
    runs of either polarity onto one or more targets, and MCTs with 2..n-1
    controls."""
    n = draw(st.integers(3, 9))
    lines = st.integers(0, n - 1).map(lambda b: 1 << b)
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        batch = []
        for _ in range(draw(st.integers(1, 4))):
            shape = draw(st.sampled_from(["x", "cx", "mct"]))
            if shape == "x":
                batch.append((0, 0, draw(lines)))
                continue
            order = draw(st.permutations([1 << b for b in range(n)]))
            if shape == "cx":
                control, targets = order[0], order[1 : 1 + draw(st.integers(1, n - 1))]
                positive = draw(st.booleans())
                for t in targets:  # a run: one CX per target, same control
                    batch.append((control, 0, t) if positive else (0, control, t))
                continue
            m = draw(st.integers(2, n - 1))
            ones = zeros = 0
            for bit in order[1 : 1 + m]:
                if draw(st.booleans()):
                    ones |= bit
                else:
                    zeros |= bit
            batch.append((ones, zeros, order[0]))
        batches.append(batch)
    return n, batches


class TestFusedEmission:
    """``_Engine.emit`` folds X and CX gates into the column frame and
    walks only the others; every read must still see the state that the
    recorded gates replay to."""

    @given(gate_batches(), st.integers(0, 10_000), st.data())
    @settings(max_examples=300, deadline=None)
    def test_frame_matches_a_plain_replay(self, case, seed, data):
        n, batches = case
        state = sample(n, seed)
        engine = _Engine(state)
        for batch in batches:
            engine.emit(*batch)
            for ones, zeros, t in batch:
                state = apply_gate(state, Gate.from_masks(n, ones, zeros, t))
            pos = positions(state)
            assert [engine.row(c) for c in range(state.size)] == list(state.entries)
            assert [engine.col(r) for r in range(state.size)] == pos
            i = data.draw(st.integers(0, state.size // 2 - 1))
            assert engine.pairs_from(i) == sorted(
                (r, pos[r], pos[r + 1]) for r in state.entries[2 * i :] if not r & 1
            )
            if data.draw(st.booleans()):  # materializes and resets the frame
                assert engine.snapshot() == state
        assert engine.snapshot() == state
        assert engine.pos == positions(state)

    def test_conjoin_sandwich_moves_no_entry(self):
        # X(2) · CX(2->3) · CX(2->4) · X(2) at width 4 only changes the
        # frame; the MCT after it walks the stored entries.
        p = sample(4, 3)
        engine = _Engine(p)
        sandwich = [(0, 0, 4), (4, 0, 2), (4, 0, 1), (0, 0, 4)]
        engine.emit(*sandwich)
        assert engine._entries == list(p.entries)
        engine.emit((8 | 1, 0, 4))
        assert engine._entries != list(p.entries)
        replayed, _ = apply_sequence(p, GateSequence(4), engine.sequence())
        assert engine.snapshot() == replayed

    @given(aligned_perms(min_width=3, max_width=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_allocate_state_replays_from_the_sequence(self, p, data):
        engine = _Engine(p)
        last = data.draw(st.integers(0, p.size // 2 - 1))
        for i in range(last + 1):
            engine.allocate(i, *_pick_rows(engine, i, NORMAL))
        replayed, _ = apply_sequence(p, GateSequence(p.width), engine.sequence())
        assert engine.snapshot() == replayed
        assert engine.pos == positions(replayed)


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
        assert (engine.n, engine.size, engine.pos) == (width, q.size, positions(q))

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
