"""Pair classification, the two block tests and search-region geometry."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksynth import Permutation, apply_gate, classify_positions, findm, sample, x
from blocksynth.blocks import h
from blocksynth.reduction import _Engine, _holds_block, _region_mask
from blocksynth.synthesis import _admissible_from, _blocks, _count_free
from helpers import mismatch_rows


@st.composite
def permutations(draw, min_width=2, max_width=4):
    width = draw(st.integers(min_width, max_width))
    entries = draw(st.permutations(tuple(range(1 << width))))
    return Permutation.from_entries(tuple(entries))


class TestRegionGeometry:
    def test_h_values_width_3(self):
        assert [h(3, m) for m in (1, 2, 3)] == [0, 4, 6]

    def test_h_values_width_8(self):
        assert [h(8, m) for m in range(1, 9)] == [0, 128, 192, 224, 240, 248, 252, 254]

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
        for n in (3, 4, 5, 6):
            for l in range(1, 1 << (n - 1)):
                m = findm(l, n)
                assert 2 * l <= h(n, m)
                assert m == 1 or 2 * l > h(n, m - 1)

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
        # Same set expressed as "lines 1..m-1 all set", m = findm(l, n).
        for n in (3, 4, 5):
            for l in range(1 << (n - 1)):
                mask = _region_mask(n, l)
                prefix = range(1, findm(l, n))
                for col in range(1 << n):
                    in_region = (col & mask) == mask
                    assert in_region == all((col >> (n - b)) & 1 for b in prefix)


class TestClassification:
    def test_identity_all_normal(self):
        c = classify_positions(Permutation.identity(3))
        assert (c.normal, c.inverted, c.interrupting) == (8, 0, 0)
        assert c.normal + c.inverted + c.interrupting == 8

    def test_hand_worked_width_4(self):
        p = Permutation.from_entries(
            (3, 10, 14, 6, 12, 2, 0, 15, 5, 8, 13, 9, 1, 4, 7, 11)
        )
        c = classify_positions(p)
        assert (c.normal, c.inverted, c.interrupting) == (2, 6, 8)

    def test_swapped_pair_counts(self):
        # Swapping columns 0,1 leaves pair <0,1> inverted; others normal.
        p = Permutation.from_entries((1, 0, 2, 3, 4, 5, 6, 7))
        c = classify_positions(p)
        assert (c.normal, c.inverted, c.interrupting) == (6, 2, 0)

    @given(permutations())
    @settings(max_examples=120)
    def test_counts_are_even_and_sum(self, p):
        c = classify_positions(p)
        assert c.normal + c.inverted + c.interrupting == p.size
        assert c.normal % 2 == c.inverted % 2 == c.interrupting % 2 == 0

    @given(permutations())
    @settings(max_examples=120)
    def test_interrupting_matches_reference(self, p):
        assert classify_positions(p).interrupting == mismatch_rows(p.entries)

    @given(st.integers(2, 5), st.integers(0, 30))
    @settings(max_examples=50)
    def test_parity_aligned_classifies_all_normal(self, width, seed):
        c = classify_positions(sample(width, seed, "parity_aligned"))
        assert c.interrupting == 0 and c.inverted == 0


class TestConservation:
    """Gates away from the last line cannot change any position class."""

    @given(permutations(), st.data())
    @settings(max_examples=120)
    def test_counts_invariant_without_last_line_target(self, p, data):
        target = data.draw(st.integers(1, p.width - 1))
        g = x(p.width, target)
        assert classify_positions(apply_gate(p, g)) == classify_positions(p)


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
        assert [_holds_block(engine, i, "normal") for i in range(4)] == [True] + [False] * 3
        assert not any(_holds_block(engine, i, "inverted") for i in range(4))

    def test_holds_block_odd(self):
        engine = _Engine(Permutation.from_entries((1, 0, 3, 2)))
        assert [_holds_block(engine, i, "inverted") for i in range(2)] == [True, True]
        assert not any(_holds_block(engine, i, "normal") for i in range(2))

    def test_count_free_identity(self):
        engine = _Engine(Permutation.identity(3))
        pairs = _pairs_from(engine, 0)
        assert _blocks(pairs, "normal") == 4
        assert _blocks(_pairs_from(engine, 2), "normal") == 2
        assert _blocks(pairs, "inverted") == 0
        # Position 0's region is every column, so all four blocks are
        # candidates at gap 0; taking row 0's pair leaves the other three.
        gaps = Counter((ca ^ cb) >> 1 for *_, ca, cb in _admissible_from(3, pairs, 0, "normal"))
        assert gaps == {0: 4}
        assert _count_free(4, gaps, 0) == 3

    def test_count_free_one_block(self):
        # Rows 0, 1 sit at columns 2, 3: one even block, at position 1.
        engine = _Engine(Permutation.from_entries((7, 2, 0, 1, 5, 3, 6, 4)))
        assert _blocks(_pairs_from(engine, 0), "normal") == 1
        assert _blocks(_pairs_from(engine, 0), "inverted") == 0
        assert _blocks(_pairs_from(engine, 2), "normal") == 0

    @given(permutations(), st.data())
    @settings(max_examples=120)
    def test_block_tests_agree(self, p, data):
        engine = _Engine(p)
        i = data.draw(st.integers(0, p.size // 2 - 1))
        pairs = _pairs_from(engine, i)
        for kind in ("normal", "inverted"):
            held = sum(_holds_block(engine, q, kind) for q in range(i, p.size // 2))
            assert _blocks(pairs, kind) == held
