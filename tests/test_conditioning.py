"""Mixing and preprocessing: driving row distributions to the balanced split."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksynth import (
    GateSequence,
    MixConfig,
    PairNotFound,
    Permutation,
    PreconditionViolated,
    PseudoPair,
    apply_gate,
    apply_sequence,
    classify_positions,
    cx,
    mct,
    mix,
    pre_pick,
    preprocess,
    sample,
)
from blocksynth import conditioning
from blocksynth.conditioning import _exact_move, _fixups, closing_moves, prefix_moves
from blocksynth.reduction import _Engine
from helpers import mismatch_rows

# Hand-classified width-4 map: 2 normal, 6 inverted, 8 interrupting rows —
# exactly on the mixing target and a valid preprocessing input.
HALF_INTERRUPTING = Permutation.from_entries(
    (3, 10, 14, 6, 12, 2, 0, 15, 5, 8, 13, 9, 1, 4, 7, 11)
)


@st.composite
def permutations(draw, min_width=3, max_width=5):
    width = draw(st.integers(min_width, max_width))
    entries = draw(st.permutations(tuple(range(1 << width))))
    return Permutation.from_entries(tuple(entries))


class TestMoveCatalogues:
    def test_prefix_moves_count_and_order(self):
        moves = prefix_moves(3)
        assert len(moves) == 2 * 3 * 2
        assert [str(g) for g in moves[:4]] == [
            "C(1)X@2",
            "C(1)X@3",
            "C(!1)X@2",
            "C(!1)X@3",
        ]

    def test_closing_moves_all_target_last_line(self):
        moves = closing_moves(4)
        assert len(moves) == 2 * 3
        assert all(g.target == 4 for g in moves)
        assert [str(g) for g in moves[:2]] == ["C(1)X@4", "C(!1)X@4"]

    def test_catalogues_are_single_control(self):
        assert all(g.control_count == 1 for g in prefix_moves(4))
        assert all(g.control_count == 1 for g in closing_moves(4))


class TestInterruptingArithmetic:
    @given(permutations())
    @settings(max_examples=120)
    def test_count_is_multiple_of_four(self, p):
        """Even/odd-column interrupting pairs pair off, so rows ≡ 0 mod 4."""
        assert classify_positions(p).interrupting % 4 == 0

    @given(permutations())
    @settings(max_examples=120)
    def test_even_and_odd_column_interrupting_pairs_balance(self, p):
        even_pairs = odd_pairs = 0
        for j in range(p.size // 2):
            ca, cb = p.position_of(2 * j), p.position_of(2 * j + 1)
            if ((2 * j ^ ca) & 1) == ((2 * j + 1 ^ cb) & 1):
                continue  # not interrupting
            if ca & 1:
                odd_pairs += 1
            else:
                even_pairs += 1
        assert even_pairs == odd_pairs

    @given(permutations(), st.data())
    @settings(max_examples=120)
    def test_last_line_gate_changes_count_mod_four(self, p, data):
        control = data.draw(st.integers(1, p.width - 1))
        polarity = data.draw(st.booleans())
        g = cx(p.width, control, p.width, positive=polarity)
        before = classify_positions(p).interrupting
        after = classify_positions(apply_gate(p, g)).interrupting
        assert (after - before) % 4 == 0


class TestMix:
    def test_on_target_is_a_noop(self):
        mixed, seq = mix(HALF_INTERRUPTING)
        assert mixed == HALF_INTERRUPTING
        assert len(seq) == 0

    @given(permutations())
    @settings(max_examples=60, deadline=None)
    def test_reaches_target_exactly(self, p):
        mixed, seq = mix(p)
        assert classify_positions(mixed).interrupting == p.size // 2
        replayed, _ = apply_sequence(p, GateSequence(p.width), seq)
        assert replayed == mixed

    def test_deterministic(self):
        p = sample(5, seed=11)
        assert mix(p) == mix(p)

    @given(permutations(min_width=3, max_width=4))
    @settings(max_examples=40, deadline=None)
    def test_pure_fixup_fallback(self, p):
        cfg = MixConfig(max_depth=0)
        mixed, seq = mix(p, cfg)
        assert classify_positions(mixed).interrupting == p.size // 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MixConfig(max_depth=5)
        with pytest.raises(ValueError):
            MixConfig(max_depth=-1)
        with pytest.raises(ValueError):
            MixConfig(enumeration_budget=-1)

    def test_gate_shapes(self):
        # identity is far off target and (at width 4) has no exact composite
        # within depth 4, so the output is a best composite plus fully
        # controlled repair toggles — never anything in between.
        p = Permutation.identity(4)
        mixed, seq = mix(p)
        assert classify_positions(mixed).interrupting == 8
        assert len(seq) >= 1
        # vocabulary: single-control composite moves plus fully controlled
        # repair gates (slot toggles on the last line, plus status-neutral
        # column walks that may target any line)
        for g in seq:
            assert g.control_count in (1, p.width - 1)

    @given(permutations())
    @settings(max_examples=60, deadline=None)
    def test_gate_vocabulary(self, p):
        _, seq = mix(p)
        for g in seq:
            assert g.control_count in (1, p.width - 1)


class TestPrePick:
    def test_member_columns_have_opposite_parity(self):
        pair = pre_pick(HALF_INTERRUPTING, 0)
        assert isinstance(pair, PseudoPair)
        ca = HALF_INTERRUPTING.position_of(pair.a)
        cb = HALF_INTERRUPTING.position_of(pair.b)
        assert ca % 2 == 0 and cb % 2 == 1

    def test_members_come_from_interrupting_pairs(self):
        pair = pre_pick(HALF_INTERRUPTING, 0)
        for member in (pair.a, pair.b):
            j = member >> 1
            ca = HALF_INTERRUPTING.position_of(2 * j)
            cb = HALF_INTERRUPTING.position_of(2 * j + 1)
            assert ((2 * j ^ ca) & 1) != ((2 * j + 1 ^ cb) & 1)

    def test_members_from_distinct_pairs(self):
        pair = pre_pick(HALF_INTERRUPTING, 0)
        assert pair.a >> 1 != pair.b >> 1

    def test_rejects_states_off_the_precondition(self):
        with pytest.raises(PreconditionViolated):
            pre_pick(Permutation.identity(4), 0)
        with pytest.raises(PreconditionViolated):
            pre_pick(Permutation.from_entries((1, 0, 2, 3)), 0)


class TestPreprocess:
    def test_worked_example(self):
        result, seq = preprocess(HALF_INTERRUPTING)
        counts = classify_positions(result)
        assert (counts.normal, counts.inverted, counts.interrupting) == (8, 8, 0)
        replayed, _ = apply_sequence(
            HALF_INTERRUPTING, GateSequence(4), seq
        )
        assert replayed == result

    def test_single_last_line_gate_is_the_quarter_flip(self):
        _, seq = preprocess(HALF_INTERRUPTING)
        last_line = [g for g in seq if g.target == 4]
        assert last_line == [mct(4, [(1, False), (2, False)], 4)]
        assert seq.gates[-1] == last_line[0]

    def test_rejects_small_width(self):
        with pytest.raises(PreconditionViolated):
            preprocess(Permutation.from_entries((1, 0, 2, 3)))

    def test_rejects_wrong_interrupting_count(self):
        with pytest.raises(PreconditionViolated):
            preprocess(Permutation.identity(4))

    @given(st.integers(3, 5), st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_mix_then_preprocess_balances(self, width, seed):
        p = sample(width, seed)
        mixed, _ = mix(p)
        result, seq = preprocess(mixed)
        counts = classify_positions(result)
        assert counts.interrupting == 0
        assert counts.normal == counts.inverted == result.size // 2
        assert sum(g.target == width for g in seq) == 1

    @given(st.integers(3, 5), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_reference_mismatch_counter_agrees(self, width, seed):
        p = sample(width, seed)
        mixed, _ = mix(p)
        assert mismatch_rows(mixed.entries) == mixed.size // 2


class TestInternalChecks:
    """Invariants of mixing and preprocessing are explicit raises, so they
    still hold under ``python -O``.  Each test breaks one helper."""

    @pytest.mark.parametrize("src,dst", [(0, 3), (5, 5)])
    def test_exact_move_needs_one_differing_bit(self, src, dst):
        with pytest.raises(RuntimeError, match="internal error: exact move"):
            _exact_move(3, src, dst)

    def test_missing_lowering_slot(self, monkeypatch):
        # The identity has no interrupting rows; claim all 8 of them are.
        monkeypatch.setattr(
            conditioning, "_interrupting_pairs", lambda entries: bytearray([1] * 4)
        )
        engine = _Engine(Permutation.identity(3))
        with pytest.raises(RuntimeError, match="internal error: no slot lowers"):
            _fixups(engine, 4)

    def test_fixup_without_progress(self, monkeypatch):
        engine = _Engine(Permutation.identity(4))
        monkeypatch.setattr(engine, "emit", lambda gate: None)
        with pytest.raises(RuntimeError, match="internal error: a mix fixup moved"):
            _fixups(engine, 8)

    def test_mix_postcondition(self, monkeypatch):
        monkeypatch.setattr(conditioning, "_mix_engine", lambda engine, cfg: None)
        with pytest.raises(RuntimeError, match="internal error: mixing left 0"):
            mix(Permutation.identity(3))

    def test_negative_deficits(self, monkeypatch):
        monkeypatch.setattr(conditioning, "_deficits", lambda engine, i: (-1, 1))
        with pytest.raises(RuntimeError, match="internal error: negative conversion"):
            pre_pick(HALF_INTERRUPTING, 0)

    def test_preprocess_postcondition(self, monkeypatch):
        monkeypatch.setattr(conditioning, "_run_preprocess", lambda engine: None)
        with pytest.raises(RuntimeError, match="internal error: preprocessing ended in a 2:6:8"):
            preprocess(HALF_INTERRUPTING)
