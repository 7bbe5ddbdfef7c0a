"""Pair classification, region geometry, pair selection, conjoin/slide gate
construction, and whole reductions."""

import contextlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksynth import (
    Gate,
    GateSequence,
    InternalError,
    MAX_WIDTH,
    Permutation,
    PreconditionViolated,
    apply_gate,
    bounds,
    cx,
    preprocessing_bound,
    sample,
    toffoli_count,
    x,
)
from blocksynth import reduction, synthesis
from blocksynth.reduction import (
    INVERTED,
    NORMAL,
    _Engine,
    _holds_block,
    _pair_split,
    _pick_rows,
    _region_mask,
    _run_general,
    _run_normal,
)
from blocksynth.conditioning import _scan_member
from blocksynth.cost import toffoli_equivalents
from blocksynth.synthesis import _choose_leaf, _count_free, _price_leaves, _slide
from helpers import (
    alloc_masks,
    apply_sequence,
    balanced_entries,
    conditioning_budget,
    conjoin_budget,
    cons_masks,
    findm,
    leaf_pick,
    mct,
    mismatch_rows,
    pairs_at,
    positions,
    rebalance_budget,
    region_mask,
    slide_budget,
    walk_member,
    walk_region,
    with_identity_wire,
)

ID3 = Permutation(3, tuple(range(8)))


@st.composite
def permutations(draw, min_width=2, max_width=4):
    width = draw(st.integers(min_width, max_width))
    entries = draw(st.permutations(tuple(range(1 << width))))
    return Permutation(width, tuple(entries))


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
    return as_sequence(p.width, cons_masks(p.width, i, pos[pair[0]], pos[pair[1]]))


def sliding(p, i, a):
    return as_sequence(p.width, alloc_masks(p.width, i, positions(p)[a]))


def has_identity_last_line(p):
    """Q ⊗ I_2 form: every column pair (2i, 2i+1) holds rows (2k, 2k+1)."""
    e = p.entries
    return all(e[c] % 2 == 0 and e[c + 1] == e[c] + 1 for c in range(0, p.size, 2))


def plain(engine, kind):
    """A selector that takes the plain pick of ``kind`` at every position."""
    return lambda i: _pick_rows(engine, i, kind)


def reduced(p, run, *kinds):
    """Run a whole reduction on a fresh engine, one plain selector for each
    of its phases' ``kinds``: (result, gates)."""
    engine = _Engine(p)
    run(engine, *(plain(engine, kind) for kind in kinds))
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
        assert _pair_split(_Engine(ID3)) == (4, 0)

    def test_hand_worked_width_4(self):
        p = Permutation(4, (3, 10, 14, 6, 12, 2, 0, 15, 5, 8, 13, 9, 1, 4, 7, 11))
        assert _pair_split(_Engine(p)) == (1, 3)
        assert mismatch_rows(p.entries) == 8

    def test_swapped_pair_counts(self):
        # Swapping columns 0,1 leaves pair <0,1> inverted; others normal.
        p = Permutation(3, (1, 0, 2, 3, 4, 5, 6, 7))
        assert _pair_split(_Engine(p)) == (3, 1)

    @given(permutations())
    @settings(max_examples=120)
    def test_counts_are_even_and_sum(self, p):
        normal, inverted = _pair_split(_Engine(p))
        assert 2 * (normal + inverted) <= p.size
        assert (p.size - 2 * (normal + inverted)) % 4 == 0

    @given(permutations())
    @settings(max_examples=120)
    def test_interrupting_matches_reference(self, p):
        normal, inverted = _pair_split(_Engine(p))
        assert p.size - 2 * (normal + inverted) == mismatch_rows(p.entries)

    @given(permutations())
    @settings(max_examples=120)
    def test_kinds_follow_the_member_rule(self, p):
        # Each member of a kind-k pair has (row ^ column) & 1 == k.
        pos = positions(p)
        bits = [{(r ^ pos[r]) & 1, (r + 1 ^ pos[r + 1]) & 1} for r in range(0, p.size, 2)]
        assert _pair_split(_Engine(p)) == (bits.count({NORMAL}), bits.count({INVERTED}))

    @given(st.integers(2, 5), st.integers(0, 30))
    @settings(max_examples=50)
    def test_parity_aligned_classifies_all_normal(self, width, seed):
        p = sample(width, seed, "parity_aligned")
        assert _pair_split(_Engine(p)) == (p.size // 2, 0)


class TestConservation:
    """Gates away from the last line cannot change any pair's kind."""

    @given(permutations(), st.data())
    @settings(max_examples=120)
    def test_counts_invariant_without_last_line_target(self, p, data):
        target = data.draw(st.integers(1, p.width - 1))
        moved = apply_gate(p, x(p.width, target))
        assert _pair_split(_Engine(moved)) == _pair_split(_Engine(p))


def _cols_from(engine, i):
    """The scorer's (column, partner column) pairs, even row's column first,
    for the pairs whose even row sits at or past column 2i."""
    pos = engine.pos
    return [(pos[r], pos[r + 1]) for r in engine.entries[2 * i :] if not r & 1]


def _free_after(p, i, kind, pair):
    """Blocks of ``kind`` the engine leaves besides ``pair`` once it has
    allocated ``pair`` to position i."""
    engine = _Engine(p)
    engine.allocate(i, *pair)
    return sum(_holds_block(engine, q, kind) for q in range(p.size // 2) if q != i)


def _ranked_groups(engine, i, kind):
    """{group: rank} for the slot-gap groups that the leaf root at position
    i hands ``_count_free``, and the ranks it returns."""
    ranked = {}

    def spy(groups):
        ranks = _count_free(groups)
        ranked.update(zip(groups, ranks))
        return ranks

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "_count_free", spy)
        _choose_leaf(engine, i, kind)
    return ranked


class TestBlockTests:
    """``_holds_block`` reads the entries array, the scorer reads column
    pairs; both must find the same blocks, and the tie-break must rank
    candidates as the blocks the engine leaves them."""

    def test_holds_block_even(self):
        engine = _Engine(Permutation(3, (0, 1, 6, 3, 2, 5, 4, 7)))
        assert [_holds_block(engine, i, NORMAL) for i in range(4)] == [True] + [False] * 3
        assert not any(_holds_block(engine, i, INVERTED) for i in range(4))

    def test_holds_block_odd(self):
        engine = _Engine(Permutation(2, (1, 0, 3, 2)))
        assert [_holds_block(engine, i, INVERTED) for i in range(2)] == [True, True]
        assert not any(_holds_block(engine, i, NORMAL) for i in range(2))

    def test_count_free_identity(self):
        # Position 0's region is every column, so all four blocks are
        # candidates at gap 0, and the free conjoin makes the leaf root
        # rank them: one group of rank 4, and taking any one leaves the
        # other three.
        ranked = _ranked_groups(_Engine(ID3), 0, NORMAL)
        assert ranked == {1 << 0 | 1 << 2 | 1 << 4 | 1 << 6: 4}
        assert {_free_after(ID3, 0, NORMAL, (r, r + 1)) for r in (0, 2, 4, 6)} == {3}

    def test_count_free_one_block(self):
        # Rows 2, 3 sit at columns 2, 3: one even block, at position 1.  At
        # position 0 it ranks below the two normal pairs at gap 1: taking
        # either of those makes the other a block, taking the block leaves
        # none.
        p = Permutation(3, (7, 6, 2, 3, 4, 1, 0, 5))
        engine = _Engine(p)
        assert [_holds_block(engine, i, NORMAL) for i in range(4)] == [False, True, False, False]
        cols = [(c, q) for c, q in _cols_from(engine, 0) if (c ^ q) & 1 and not c & 1]
        assert sorted(cols) == [(2, 3), (4, 7), (6, 5)]
        # The block (row 2) is the group at gap 0, rows 0 and 4 the one at
        # gap 1.
        assert _ranked_groups(engine, 0, NORMAL) == {1 << 2: 1, 1 << 0 | 1 << 4: 2}
        assert [_free_after(p, 0, NORMAL, rows) for rows in ((2, 3), (4, 5), (0, 1))] == [0, 1, 1]

    @given(permutations(), st.data())
    @settings(max_examples=120)
    def test_block_tests_agree(self, p, data):
        # The leaf pass prices a position at the slide alone exactly when
        # an in-region block of the kind sits there; past position 0 every
        # other pair pays a conjoin.
        engine = _Engine(p)
        n = p.width
        i = data.draw(st.integers(1, p.size // 2 - 1))
        region = _region_mask(n, i)
        cols = _cols_from(engine, i)
        for kind in (NORMAL, INVERTED):
            held = any(
                _holds_block(engine, q, kind)
                for q in range(i, p.size // 2)
                if 2 * q & region == region
            )
            admissible = [
                (c, q) for c, q in cols if c & q & region == region and (c ^ q) & 1 and c & 1 == kind
            ]
            if not admissible:
                assert not held
                continue
            assert (_price_leaves(n, cols, i, kind, math.inf) == _slide(n, i)) == held


class TestPick:
    """The plain pick inside the region: the pair at the smallest column."""

    def test_identity_region_pair(self):
        assert _Engine(ID3).kind_pairs(1, NORMAL)
        assert _pick_rows(_Engine(ID3), 1, NORMAL) == (4, 5)

    def test_reports_smaller_column_first(self):
        p = Permutation(3, (0, 1, 2, 3, 5, 7, 6, 4))
        # region for position 1 starts at column 4; row 5 sits at column 4,
        # its partner row 4 at column 7.
        assert _Engine(p).kind_pairs(1, INVERTED)
        assert _pick_rows(_Engine(p), 1, INVERTED) == (5, 4)

    def test_raises_when_region_empty(self):
        # every pair is interrupting and has a member below the region
        p = Permutation(3, (0, 2, 4, 6, 1, 3, 5, 7))
        assert not _Engine(p).kind_pairs(1, INVERTED)
        with pytest.raises(InternalError, match="internal error: no unallocated inverted pair"):
            _pick_rows(_Engine(p), 1, INVERTED)

    def test_pair_iterates(self):
        a, b = _pick_rows(_Engine(ID3), 1, NORMAL)
        assert (a, b) == (4, 5)


class TestNPick:
    def test_identity(self):
        assert _pick_rows(_Engine(ID3), 1, NORMAL) == (4, 5)

    def test_skips_non_normal_members(self):
        # Region [4,8) holds only inverted pairs; falls back outside.
        p = Permutation(3, (0, 1, 2, 3, 5, 4, 7, 6))
        assert _pick_rows(_Engine(p), 1, NORMAL) == (2, 3)

    def test_fallback_maximizes_smaller_column(self):
        # Two normal pairs below the region: <0,1> at columns 0,1 and
        # <2,3> at columns 2,3 with position 1's region empty of normals.
        p = Permutation(3, (0, 1, 2, 3, 5, 4, 7, 6))
        pair = _pick_rows(_Engine(p), 1, NORMAL)
        assert pair == (2, 3)  # columns 2,3 beat columns 0,1
        # <2,3> at columns 2,5 and <4,5> at columns 4,3, both outside the
        # region: the larger smaller column, 3, wins, its member first.
        q = Permutation(3, (0, 1, 2, 5, 4, 3, 7, 6))
        assert _pick_rows(_Engine(q), 1, NORMAL) == (5, 4)

    def test_raises_when_no_normal_pair_left(self):
        p = Permutation(3, (0, 2, 4, 6, 1, 3, 5, 7))
        with pytest.raises(InternalError, match="internal error: no unallocated normal pair"):
            _pick_rows(_Engine(p), 1, NORMAL)


class TestLift:
    def test_noop_when_both_in_region(self):
        seq, _ = lifted(ID3, 1, (4, 5))
        assert len(seq) == 0

    def test_moves_pair_into_region(self):
        p = Permutation(3, (0, 1, 2, 3, 5, 4, 7, 6))
        a, b = _pick_rows(_Engine(p), 1, NORMAL)
        _, out = lifted(p, 1, (a, b))
        start = _region_mask(3, 1)
        assert positions(out)[a] >= start
        assert positions(out)[b] >= start

    def test_preserves_columns_below_target(self):
        p = Permutation(3, (0, 1, 2, 3, 5, 4, 7, 6))
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
        except InternalError:
            return
        seq, out = lifted(p, i, (a, b))
        assert apply_sequence(p, seq) == out
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

    def test_a_step_that_adds_no_region_line_is_an_internal_error(self, monkeypatch):
        # A step that misses its member would otherwise be emitted again and
        # again; the spy stops such a loop after a few steps.
        p = Permutation(3, (0, 1, 2, 3, 5, 4, 7, 6))
        a, b = _pick_rows(_Engine(p), 1, NORMAL)
        steps = []

        def misses(n, i, column, protected):
            steps.append(column)
            if len(steps) > 20:
                raise RuntimeError("lift_pair kept stepping")
            t = 1 << (_region_mask(n, i) & ~column).bit_length() >> 1
            line = 2 if t == 1 else 1  # a control line the column fails
            return (0, line, t) if column & line else (line, 0, t)

        monkeypatch.setattr(reduction, "_lift_step", misses)
        engine = _Engine(p)
        cols = engine.cols(a, b)
        moved = rf"position 1 moved rows {a},{b} from columns {cols[0]},{cols[1]} to"
        with pytest.raises(InternalError, match=moved):
            engine.lift_pair(1, a, b)
        assert len(steps) == 1


class TestCons:
    """The paper's conjoin, as the oracle in tests/helpers.py builds it;
    test_synthesis.py pins ``_Engine.allocate``'s gates to that oracle."""

    def test_hand_worked_example(self):
        # The columns differ only on lines 2 and 3, so the CX run is empty
        # and so is its X wrapper; only the region MCT remains.
        p = Permutation(3, (0, 1, 6, 3, 2, 5, 4, 7))
        seq = conjoining(p, 1, (5, 4))
        assert seq == GateSequence(3, (mct(3, [1, 3], 2),))
        out = apply_sequence(p, seq)
        assert out.entries == (0, 1, 6, 3, 2, 7, 4, 5)
        assert positions(out)[4] ^ positions(out)[5] == 1

    def test_empty_when_already_adjacent(self):
        assert len(conjoining(ID3, 1, (6, 7))) == 0

    def test_same_parity_rejected(self):
        p = Permutation(3, (0, 2, 1, 3, 4, 5, 6, 7))
        # rows 0 and 1 sit at columns 0 and 2: both even.
        with pytest.raises(PreconditionViolated):
            conjoining(p, 0, (0, 1))

    def test_out_of_region_prefix_difference_rejected(self):
        # rows 4,5 at columns 2,5 differ on line 1, protected for i=2.
        p = Permutation(3, (0, 1, 4, 3, 2, 5, 6, 7))
        with pytest.raises(PreconditionViolated):
            conjoining(p, 2, (4, 5))

    @given(aligned_perms(min_width=3, max_width=5), st.data())
    @settings(max_examples=120)
    def test_cons_shape_and_postcondition(self, p, data):
        n = p.width
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        try:
            pair = _pick_rows(_Engine(p), i, NORMAL)
        except InternalError:
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
        out = apply_sequence(p2, seq)
        pos = positions(out)
        assert pos[pair[0]] ^ pos[pair[1]] == 1


class TestAlloc:
    """The paper's slide, as the oracle in tests/helpers.py builds it."""

    def test_hand_worked_slide(self):
        p = Permutation(3, (0, 1, 6, 3, 2, 7, 4, 5))
        seq = sliding(p, 1, 4)
        assert seq == GateSequence(3, (cx(3, 2, 1),))
        out = apply_sequence(p, seq)
        assert out.entries == (0, 1, 4, 5, 2, 7, 6, 3)

    def test_uncontrolled_slide(self):
        p = Permutation(3, (2, 3, 0, 1, 4, 5, 6, 7))
        seq = sliding(p, 0, 0)
        assert seq == GateSequence(3, (x(3, 2),))
        out = apply_sequence(p, seq)
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
        except InternalError:
            return
        _, p2 = lifted(p, i, (a, b))
        p3 = apply_sequence(p2, conjoining(p2, i, (a, b)))
        seq = sliding(p3, i, a)
        for g in seq:
            assert g.target != n
            assert g.control_count <= max(1, bin(i).count("1"))
        out = apply_sequence(p3, seq)
        pos = positions(out)
        assert {pos[a], pos[b]} == {2 * i, 2 * i + 1}


class TestBounds:
    def test_frozen_values(self):
        b3, b4, b8 = bounds(3), bounds(4), bounds(8)
        assert (b3.n_c, b3.n_a, b3.extra) == (2, 0, 4)
        assert (b4.n_c, b4.n_a, b4.extra) == (10, 1, 8)
        assert (b8.n_c, b8.n_a, b8.extra) == (354, 303, 163)
        assert b8.per_reduction_total == 820

    # The budgets ceil 5 * 2^n / 16 and 3 * 2^n / 16 in integers; the
    # oracles sum in ``Fraction``s, over every width a map can have.
    def test_against_independent_summation(self):
        for n in range(3, MAX_WIDTH + 1):
            b = bounds(n)
            assert b.n_c == conjoin_budget(n)
            assert b.n_a == slide_budget(n)
            assert b.extra == conditioning_budget(n)
            assert b.per_reduction_total == b.n_c + b.n_a + b.extra

    def test_preprocessing_bound(self):
        for n in range(3, MAX_WIDTH + 1):
            assert preprocessing_bound(n) == rebalance_budget(n)

    def test_rejects_tiny_widths(self):
        with pytest.raises(ValueError):
            bounds(2)


class TestReduceNormal:
    def test_identity_costs_nothing(self):
        res, seq = reduced(ID3, _run_normal, NORMAL)
        assert res == ID3 and len(seq) == 0

    @given(aligned_perms(min_width=2, max_width=5))
    @settings(max_examples=100, deadline=None)
    def test_reduces_and_respects_budget(self, p):
        res, seq = reduced(p, _run_normal, NORMAL)
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
        p = Permutation(width, balanced_entries(width, seed))
        res, seq = reduced(p, _run_general, NORMAL, INVERTED)
        assert has_identity_last_line(res)
        assert verify_reduction(p, seq, res)
        last_line = [g for g in seq if g.target == p.width]
        assert len(last_line) == 1
        assert last_line[0] == seq.gates[-1]


def region_pick(state, i, kind):
    """What ``_pick_rows`` must return when the region holds a pair of
    ``kind``, read off the whole state: of the pairs with both members in
    position i's region, at columns of opposite parity and the even row's
    column of parity ``kind``, the one with the smallest column, that
    member first; None when there is none."""
    pos, region = positions(state), _region_mask(state.width, i)
    found = [
        min(pos[r], pos[r + 1])
        for r in range(0, state.size, 2)
        if pos[r] & pos[r + 1] & region == region
        and (pos[r] ^ pos[r + 1]) & 1
        and pos[r] & 1 == kind
    ]
    if not found:
        return None
    a = state.entries[min(found)]
    return a, a ^ 1


def outside_pick(state, i, kind):
    """What ``_pick_rows`` must return when ``region_pick`` finds nothing,
    read off the whole state: of the pairs whose even row sits at column 2i
    or past it, at columns of opposite parity and the even row's of parity
    ``kind``, the one whose smaller column is largest, that member first;
    None when there is none."""
    pos = positions(state)
    found = [
        min(pos[r], pos[r + 1])
        for r in range(0, state.size, 2)
        if pos[r] >= 2 * i and (pos[r] ^ pos[r + 1]) & 1 and pos[r] & 1 == kind
    ]
    if not found:
        return None
    a = state.entries[max(found)]
    return a, a ^ 1


def check_plain_pick(engine, state, i, kind, in_region):
    """``_pick_rows`` on ``engine``, which holds ``state``, on both
    branches: ``in_region`` (an in-region reference's answer) when the
    region holds a pair of ``kind``, else ``outside_pick``, else an
    ``InternalError``."""
    assert bool(engine.kind_pairs(i, kind)) == (in_region is not None)
    want = outside_pick(state, i, kind) if in_region is None else in_region
    if want is None:
        with pytest.raises(InternalError, match="internal error: no unallocated"):
            _pick_rows(engine, i, kind)
    else:
        assert _pick_rows(engine, i, kind) == want


@st.composite
def gate_batches(draw, max_width=9):
    """A width 3..``max_width`` and batches of gates for one ``emit`` each:
    X gates, CX runs of either polarity onto one or more targets, MCTs with
    2..n-1 controls of either polarity, and same-control runs, one triple
    per target line."""
    n = draw(st.integers(3, max_width))
    lines = st.integers(0, n - 1).map(lambda b: 1 << b)
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        batch = []
        for _ in range(draw(st.integers(1, 4))):
            shape = draw(st.sampled_from(["x", "cx", "mct", "run"]))
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
            k = 1 if shape == "mct" else draw(st.integers(1, n - 1))  # target lines
            m = draw(st.integers(2 if shape == "mct" else 0, n - k))
            ones = zeros = 0
            for bit in order[k : k + m]:
                if draw(st.booleans()):
                    ones |= bit
                else:
                    zeros |= bit
            batch += [(ones, zeros, t) for t in order[:k]]
        batches.append(batch)
    return n, batches


def replay(state, batch):
    """``state`` with ``batch``'s triples applied in order."""
    for masks in batch:
        state = apply_gate(state, Gate.from_masks(state.width, *masks))
    return state


class TestFusedEmission:
    """``_Engine.emit`` applies each gate to the bit planes as one mask of
    moved rows, XORed into each target plane; every read must still see
    the state that the recorded gates replay to."""

    @given(gate_batches(), st.integers(0, 10_000), st.data())
    @settings(max_examples=300, deadline=None)
    def test_planes_match_a_plain_replay(self, case, seed, data):
        n, batches = case
        state = sample(n, seed)
        engine = _Engine(state)
        for batch in batches:
            engine.emit(*batch)
            state = replay(state, batch)
            pos = positions(state)
            assert engine.pos == pos
            assert engine.entries == list(state.entries)
            assert [engine.row(c) for c in range(state.size)] == list(state.entries)
            i = data.draw(st.integers(0, state.size // 2 - 1))
            assert engine.pairs_from(i) == [
                (pos[r], pos[r + 1]) for r in sorted(state.entries[2 * i :]) if not r & 1
            ]
            for kind in (NORMAL, INVERTED):
                check_plain_pick(engine, state, i, kind, region_pick(state, i, kind))
            if data.draw(st.booleans()):  # a whole-array read between emits
                assert engine.snapshot() == state
        assert engine.snapshot() == state
        assert engine.q == [
            sum((c >> b & 1) << r for r, c in enumerate(positions(state))) for b in range(n)
        ]

    def test_conjoin_sandwich_replays(self):
        # X(2) · CX(2->3) · CX(2->4) · X(2) at width 4, then an MCT.
        p = sample(4, 3)
        engine = _Engine(p)
        engine.emit((0, 0, 4), (4, 0, 2), (4, 0, 1), (0, 0, 4))
        engine.emit((8 | 1, 0, 4))
        assert engine.snapshot() == apply_sequence(p, engine.sequence())

    def test_a_multi_line_target_is_refused_before_any_gate_runs(self):
        # ``emit`` records one gate per triple, so a triple flipping two
        # planes would leave a recorded circuit that does not replay.
        p = sample(4, 3)
        engine = _Engine(p)
        with pytest.raises(PreconditionViolated, match="one target line per gate"):
            engine.emit((0, 0, 8), (12, 0, 3))
        assert engine.snapshot() == p
        assert (engine.gates, engine.toffoli) == ([], 0)

    def test_reads_write_no_engine_state(self):
        # Every read leaves the planes alone; a list a read returns is the
        # caller's, so a later gate does not change it.
        p = sample(4, 3)
        engine = _Engine(p)
        engine.emit((8, 0, 2), (0, 8, 1))  # CX 1->3 and C(!1)X@4
        planes = engine.q
        stored = list(planes)
        pos = engine.pos
        held = list(pos)
        replayed = apply_sequence(p, engine.sequence())
        assert engine.entries == list(replayed.entries)
        assert engine.snapshot() == replayed
        for i in range(engine.size // 2):
            engine.pairs_from(i)
            engine.at_position(i)
            for kind in (NORMAL, INVERTED):
                with contextlib.suppress(InternalError):
                    _pick_rows(engine, i, kind)
                engine.differences(engine.kind_pairs(i, kind) & engine.even)
                _holds_block(engine, i, kind)
        _pair_split(engine)
        for c in range(engine.size):
            engine.row(c)
            engine.lowest(engine.full >> c)
        assert engine.q is planes and planes == stored
        engine.emit((8 | 1, 0, 4))  # an MCT moves rows
        assert engine.q != stored
        assert pos == held

    @given(aligned_perms(min_width=3, max_width=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_allocate_state_replays_from_the_sequence(self, p, data):
        engine = _Engine(p)
        last = data.draw(st.integers(0, p.size // 2 - 1))
        for i in range(last + 1):
            engine.allocate(i, *_pick_rows(engine, i, NORMAL))
        replayed = apply_sequence(p, engine.sequence())
        assert engine.snapshot() == replayed
        assert engine.pos == positions(replayed)


class TestPlaneScans:
    """The scans are bit-sliced minima over the planes; each must return
    what a walk over the columns in its contract's order returns."""

    @given(gate_batches(max_width=12), st.integers(0, 10_000), st.data())
    @settings(max_examples=150, deadline=None)
    def test_scans_match_the_column_walks(self, case, seed, data):
        n, batches = case
        state = sample(n, seed, data.draw(st.sampled_from(["uniform", "parity_aligned"])))
        engine = _Engine(state)
        for batch in batches[: data.draw(st.integers(0, len(batches)))]:
            engine.emit(*batch)
            state = replay(state, batch)
        entries, pos = list(state.entries), positions(state)
        i = data.draw(st.integers(0, state.size // 2 - 1))
        region = region_mask(n, i)
        # ``taken`` holds the pairs with a member below column 2i, and some
        # others.
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        taken = 0
        for r in range(0, state.size, 2):
            if min(pos[r], pos[r + 1]) < 2 * i or rng.random() < 0.25:
                taken |= 3 << r
        for kind in (NORMAL, INVERTED):
            check_plain_pick(engine, state, i, kind, walk_region(entries, pos, region, kind))
            assert _choose_leaf(engine, i, kind) == leaf_pick(pairs_at(pos, i), region, kind)
            for parity in (0, 1):
                assert _scan_member(engine, i, parity, kind, taken) == walk_member(
                    entries, pos, region, i, parity, kind, taken
                )


class TestAllocateChecks:
    """``_Engine.allocate`` checks its post-condition with an explicit raise,
    so it still holds under ``python -O``."""

    def test_unconjoined_pair_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "_pair_gates", lambda n, i, a, b: ([], 0))
        # rows 0 and 1 at columns 0 and 3: opposite parity, not adjacent
        engine = _Engine(Permutation(3, (0, 2, 3, 1, 4, 5, 6, 7)))
        with pytest.raises(InternalError, match="internal error: allocating rows 0,1"):
            engine.allocate(0, 0, 1)

    def test_unallocated_pair_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "_pair_gates", lambda n, i, a, b: ([], 0))
        # rows 2 and 3 already form a block, but at position 1
        engine = _Engine(ID3)
        with pytest.raises(InternalError, match="internal error: allocating rows 2,3"):
            engine.allocate(0, 2, 3)


def planes_of(state):
    """Bit r of entry b is bit b of row r's column."""
    pos = positions(state)
    return [sum((c >> b & 1) << r for r, c in enumerate(pos)) for b in range(state.width)]


def allocate_any(p, general, picks):
    """Fill the positions of a reduction in order, each with the
    unallocated pair of the position's kind that ``picks`` chooses, in
    either member order, in or out of the region; after every ``allocate``
    the planes must be those of a plain replay of the recorded gates.  A
    ``general`` (balanced) state takes normal pairs in the first quarter of
    the positions and inverted ones after, as ``_run_general`` does.
    ``picks(i, pairs)`` returns an index into twice ``pairs`` (the second
    half swaps the members), or None to stop.  Returns the engine."""
    engine = _Engine(p)
    for i in range(p.size // 2):
        kind = INVERTED if general and i >= p.size // 4 else NORMAL
        pos = engine.pos
        pairs = [
            (r, r + 1)
            for r in range(0, p.size, 2)
            if min(pos[r], pos[r + 1]) >= 2 * i
            and (pos[r] ^ pos[r + 1]) & 1
            and pos[r] & 1 == kind
        ]
        k = picks(i, pairs)
        if k is None:
            break
        a, b = pairs[k] if k < len(pairs) else pairs[k - len(pairs)][::-1]
        engine.allocate(i, a, b)
        assert engine.at_position(i) == 1 << a | 1 << b
        assert engine.q == planes_of(apply_sequence(p, engine.sequence()))
    return engine


class TestApplyKernel:
    """``_Engine.apply`` is the one writer of the planes: ``emit`` calls it
    once per gate, and ``allocate`` once per ``_pair_gates`` triple while
    it records the triple's per-line gates."""

    @given(st.integers(3, 7), st.integers(0, 10_000), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_allocate_matches_a_replay_of_its_sequence(self, width, seed, general, data):
        if general:
            p = Permutation(width, balanced_entries(width, seed))
        else:
            p = sample(width, seed, "parity_aligned")
        last = data.draw(st.integers(0, p.size // 2 - 1))

        def picks(i, pairs):
            if i > last:
                return None
            return data.draw(st.integers(0, 2 * len(pairs) - 1))

        allocate_any(p, general, picks)

    def test_the_property_reaches_lifts_and_negative_runs(self):
        # The property above draws from these kinds of state; these seeds
        # show that random picks reach both region lifts and negatively
        # controlled runs, which ``allocate`` records between two X.
        lifts = wrapped = 0
        for width in (4, 5, 6):
            for seed in range(4):
                rng = random.Random(seed)
                p = Permutation(width, balanced_entries(width, seed))
                engine = allocate_any(p, True, lambda i, pairs: rng.randrange(2 * len(pairs)))
                lifts += engine.region_lifts
                wrapped += sum(g[:2] == (0, 0) for g in engine.gates)
        assert lifts > 0 and wrapped > 0

    def test_a_repeated_target_cancels(self):
        p = sample(4, 3)
        engine = _Engine(p)
        planes = list(engine.q)
        engine.emit((4, 0, 2), (4, 0, 2))
        assert engine.q == planes
        assert engine.gates == [(4, 0, 2), (4, 0, 2)]
        assert engine.snapshot() == apply_sequence(p, engine.sequence()) == p

    def test_a_line_both_one_and_zero_is_refused_before_any_gate_runs(self):
        # Such a gate fires on no row, but ``sequence`` would build it as a
        # positive control, so the record would not replay.
        p = sample(3, 2)
        engine = _Engine(p)
        with pytest.raises(PreconditionViolated, match="each control 1 or 0"):
            engine.emit((4, 0, 2), (4, 4, 1))
        assert engine.snapshot() == p
        assert (engine.gates, engine.toffoli) == ([], 0)

    def test_emit_checks_each_gate_even_when_targets_cancel(self):
        engine = _Engine(sample(3, 1))
        with pytest.raises(PreconditionViolated):
            engine.emit((4, 0, 4), (4, 0, 4))
        with pytest.raises(PreconditionViolated):
            engine.emit((4, 0, 0))

    @pytest.mark.parametrize("triple", [(4, 0, 4 | 2), (0, 4, 4 | 1), (2, 1, 0)])
    def test_an_overlapping_pair_gate_is_a_precondition_violation(self, monkeypatch, triple):
        monkeypatch.setattr(reduction, "_pair_gates", lambda n, i, a, b: ([triple], 0))
        # position 0's region is every column, so no lift runs first
        engine = _Engine(Permutation(3, (0, 2, 3, 1, 4, 5, 6, 7)))
        with pytest.raises(PreconditionViolated):
            engine.allocate(0, 0, 1)
        assert engine.gates == []

    @given(gate_batches(max_width=10), st.integers(0, 10_000), st.data())
    @settings(max_examples=100, deadline=None)
    def test_two_column_read_matches_col(self, case, seed, data):
        n, batches = case
        engine = _Engine(sample(n, seed))
        for batch in batches:
            engine.emit(*batch)
        pos = engine.pos
        rows = st.integers(0, engine.size - 1)
        for _ in range(4):
            a, b = data.draw(rows), data.draw(rows)
            assert engine.cols(a, b) == (pos[a], pos[b])
        assert engine.cols(a, a ^ 1) == (pos[a], pos[a ^ 1])

    @pytest.mark.parametrize("width, seed", [(3, 1), (5, 2), (7, 3)])
    def test_an_in_region_pair_gets_no_lift(self, width, seed):
        engine = _Engine(sample(width, seed, "parity_aligned"))
        for i in range(engine.size // 2):
            if engine.kind_pairs(i, NORMAL) and not _holds_block(engine, i, NORMAL):
                found = _pick_rows(engine, i, NORMAL)
                break
            engine.allocate(i, *_pick_rows(engine, i, NORMAL))
        else:
            pytest.fail("no in-region pair to allocate")
        before = (len(engine.gates), engine.region_lifts, engine.lift_toffoli)
        cols = engine.cols(*found)
        assert engine.lift_pair(i, *found) == cols
        assert (len(engine.gates), engine.region_lifts, engine.lift_toffoli) == before
        engine.allocate(i, *found)
        assert (engine.region_lifts, engine.lift_toffoli) == before[1:]


def priced(gates):
    """Toffoli-equivalents of mask triples, each one gate."""
    return sum(toffoli_equivalents((ones | zeros).bit_count()) for ones, zeros, _ in gates)


class TestLedger:
    """The engine prices each gate as it records it: ``toffoli`` is the
    price of every recorded gate, and ``lift_toffoli`` the part of it that
    the lift gates cost."""

    @given(gate_batches(), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_emit_prices_what_it_records(self, case, seed):
        n, batches = case
        engine = _Engine(sample(n, seed))
        for batch in batches:
            engine.emit(*batch)
            assert engine.toffoli == priced(engine.gates)
        assert engine.lift_toffoli == engine.region_lifts == 0

    @given(st.integers(3, 7), st.integers(0, 10_000), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_allocate_prices_what_it_records(self, width, seed, general, data):
        if general:
            p = Permutation(width, balanced_entries(width, seed))
        else:
            p = sample(width, seed, "parity_aligned")
        lifts = []

        def lift_step(*args, _real=reduction._lift_step):
            lifts.append(_real(*args))
            return lifts[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "_lift_step", lift_step)
            engine = allocate_any(
                p, general, lambda i, pairs: data.draw(st.integers(0, 2 * len(pairs) - 1))
            )
        assert engine.toffoli == priced(engine.gates)
        assert engine.lift_toffoli == priced(lifts)
        assert engine.toffoli == toffoli_count(engine.sequence())


def verify_reduction(p, seq, expected):
    got = apply_sequence(p, seq)
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
        # The stripped line is the trailing one, so a gate at width 3 is
        # recorded at width 4 with its masks shifted one bit left.
        engine = _Engine(Permutation(4, tuple(range(16))))
        engine.emit((0b1000, 0, 0b0010), (0b1000, 0, 0b0010))  # CX 1->3, twice
        engine.strip()
        assert (engine.width, engine.n, engine.shift) == (4, 3, 1)
        engine.emit((0b100, 0, 0b001))  # CX 1->3 at width 3
        assert engine.gates == [(0b1000, 0, 0b0010)] * 3
        seq = engine.sequence()
        assert seq.gates[2] == cx(4, 1, 3)
        assert seq.gates[2] is seq.gates[0] is seq.gates[1]
        assert engine.snapshot() == apply_gate(Permutation(3, tuple(range(8))), cx(3, 1, 3))

    def test_strip_keeps_the_record_and_the_totals(self):
        p = Permutation(4, balanced_entries(4, 1))
        engine = _Engine(p)
        _run_general(engine, plain(engine, NORMAL), plain(engine, INVERTED))
        kept = (list(engine.gates), engine.toffoli, engine.region_lifts, engine.lift_toffoli)
        assert all(kept)
        engine.strip()
        assert (engine.gates, engine.toffoli, engine.region_lifts, engine.lift_toffoli) == kept
        # The one record replays the input to Q ⊗ I_2, Q the stripped state.
        q = engine.snapshot()
        assert apply_sequence(p, engine.sequence()).entries == with_identity_wire(q.entries)
