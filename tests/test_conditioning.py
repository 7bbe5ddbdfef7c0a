"""Mixing and preprocessing: driving row distributions to the balanced split."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import permutations as orderings, product

from blocksynth import (
    Gate,
    GateSequence,
    InternalError,
    Permutation,
    apply_gate,
    cx,
    sample,
    synthesize,
)
from blocksynth import conditioning
from blocksynth.conditioning import (
    _composite,
    _exact_move,
    _fixups,
    _mix_engine,
    _pair_split,
    _pre_pick_rows,
    _run_preprocess,
    _walsh_spectrum,
)
from blocksynth.reduction import INVERTED, NORMAL, _Engine, _region_mask
from helpers import (
    apply_sequence,
    flat_spectrum,
    half_interrupting_entries,
    mct,
    mismatch_rows,
    positions,
)

# Hand-classified width-4 map: 2 normal, 6 inverted, 8 interrupting rows —
# exactly on the mixing target and a valid preprocessing input.
HALF_INTERRUPTING = Permutation(4, (3, 10, 14, 6, 12, 2, 0, 15, 5, 8, 13, 9, 1, 4, 7, 11))
HALF_POS = positions(HALF_INTERRUPTING)


def mix(p):
    """Run the mixing pass on a fresh engine: (mixed state, gates)."""
    engine = _Engine(p)
    _mix_engine(engine)
    return engine.snapshot(), engine.sequence()


def preprocess(p):
    """Run preprocessing on a fresh engine: (balanced state, gates)."""
    engine = _Engine(p)
    _run_preprocess(engine)
    return engine.snapshot(), engine.sequence()


def state_deficits(engine, i):
    """Outstanding normal/inverted conversions before pseudo-block i, read
    off the whole state: the pairs' classes now, plus the conversion each
    resident parked below column 2i will make once the quarter flip moves
    it to the other column parity (a mismatching one turns its pair
    normal, a matching one inverted)."""
    normal, inverted = _pair_split(engine.pos)
    parked_mismatching = sum((engine.entries[c] ^ c) & 1 for c in range(2 * i))
    parked_matching = 2 * i - parked_mismatching
    quarter = engine.size // 4
    return [quarter - normal - parked_mismatching, quarter - inverted - parked_matching]


def first_pick(p):
    """The first pseudo-block's members, and the deficits they leave."""
    engine = _Engine(p)
    deficits = state_deficits(engine, 0)
    return _pre_pick_rows(engine, 0, deficits, bytearray(engine.size // 2)), deficits


def parked_rule_picks(engine, i, deficits):
    """Pseudo-block i's members by the rule read off the whole state: at
    each column parity, the first interrupting member, over the region's
    columns and then the rest from 2i, whose partner is not parked below
    column 2i and whose flip turns its pair to the kind with the larger
    deficit.  Decrements ``deficits`` like ``_pre_pick_rows``."""
    entries, pos = engine.entries, engine.pos
    region = _region_mask(engine.n, i)
    chosen = []
    for parity in (0, 1):
        kind = NORMAL if deficits[NORMAL] >= deficits[INVERTED] else INVERTED
        for c in [*range(region + parity, engine.size, 2), *range(2 * i + parity, region, 2)]:
            r = entries[c]
            partner = pos[r ^ 1]
            if partner >= 2 * i and not (c ^ partner) & 1 and (r ^ c) & 1 != kind:
                chosen.append(r)
                break
        deficits[kind] -= 1
    return tuple(chosen)


@st.composite
def permutations(draw, min_width=3, max_width=5):
    width = draw(st.integers(min_width, max_width))
    entries = draw(st.permutations(tuple(range(1 << width))))
    return Permutation(width, tuple(entries))


class TestWalshScoring:
    @given(permutations(max_width=6), st.data())
    @settings(max_examples=120, deadline=None)
    def test_count_after_composite_is_pairs_plus_spectrum(self, p, data):
        """A composite whose last column bit reads the functional a leaves
        (pairs) + W(a) interrupting rows, and a negative control on any one
        move leaves the count unchanged."""
        n = p.width
        lines = st.integers(1, n)
        moves = []
        for _ in range(data.draw(st.integers(0, 3))):
            control = data.draw(lines)
            moves.append((control, data.draw(lines.filter(lambda t: t != control))))
        moves.append((data.draw(st.integers(1, n - 1)), n))
        rows = {line: 1 << (n - line) for line in range(1, n + 1)}
        for control, target in moves:
            rows[target] ^= rows[control]
        spectrum = _walsh_spectrum(positions(p))
        expected = p.size // 2 + spectrum[rows[n]]
        for negated in [None, *range(len(moves))]:  # all positive, then each move negative
            q = p
            for k, (control, target) in enumerate(moves):
                q = apply_gate(q, cx(n, control, target, positive=k != negated))
            assert mismatch_rows(q.entries) == expected

    @given(permutations(max_width=6), st.data())
    @settings(max_examples=120, deadline=None)
    def test_composite_puts_the_functional_on_the_last_line(self, p, data):
        a = data.draw(st.integers(1, p.size - 1))
        q = p
        for masks in _composite(a):
            q = apply_gate(q, Gate.from_masks(p.width, *masks))
        expected = p.size // 2 + _walsh_spectrum(positions(p))[a]
        assert mismatch_rows(q.entries) == expected


class TestSpectralPick:
    @given(permutations(max_width=6))
    @settings(max_examples=80, deadline=None)
    def test_emitted_moves_land_on_the_smallest_spectral_value(self, p):
        """The composite leaves (pairs) + W(a) interrupting rows, with
        |W(a)| the smallest over every nonzero a; repairs follow exactly
        when that is not 0."""
        engine = _Engine(p)
        stats = _mix_engine(engine)
        q = p
        for masks in engine.gates[: stats.depth]:
            q = apply_gate(q, Gate.from_masks(p.width, *masks))
        closest = min(abs(w) for w in _walsh_spectrum(positions(p))[1:])
        assert abs(mismatch_rows(q.entries) - p.size // 2) == closest
        assert (stats.fixup_gates == 0) == (closest == 0)
        assert len(engine.gates) == stats.depth + stats.fixup_gates

    def test_pick_is_the_first_closest_circuit_of_a_sweep(self):
        """Sweeping CX circuits by growing length, then in move order
        (control line, then target line), ``_composite(a)`` is the first
        circuit that puts a on the last line, and mixing emits the first
        circuit whose functional has the smallest |W|."""
        n = 4
        lines = range(1, n + 1)
        moves = [(1 << (n - c), 0, 1 << (n - t)) for c in lines for t in lines if t != c]
        first = {}  # functional -> first circuit putting it on the last line
        for length in range(5):
            for circuit in product(moves, repeat=length):
                rows = {1 << b: 1 << b for b in range(n)}
                for c, _, t in circuit:
                    rows[t] ^= rows[c]
                first.setdefault(rows[1], list(circuit))
        assert sorted(first) == list(range(1, 1 << n))
        assert all(_composite(a) == circuit for a, circuit in first.items())
        for seed in range(20):
            p = sample(n, seed)
            spectrum = _walsh_spectrum(positions(p))
            closest = min(abs(spectrum[a]) for a in first)
            engine = _Engine(p)
            stats = _mix_engine(engine)
            expected = next(c for a, c in first.items() if abs(spectrum[a]) == closest)
            assert engine.gates[: stats.depth] == expected

    def test_width_three_against_every_cx_circuit(self):
        """At width 3 some CX circuit lands on half interrupting rows
        exactly when some nonzero a has W(a) = 0, and that is exactly when
        mixing needs no repair gates.  X gates leave every pair's column
        difference alone, so CX circuits are every X/CX circuit here.  The
        count depends only on the multiset of pairs' column differences,
        so one map per multiset covers all 8! maps."""
        moves = [cx(3, c, t) for c in range(1, 4) for t in range(1, 4) if t != c]
        maps = {}
        for entries in orderings(range(8)):
            p = Permutation(3, entries)
            pos = positions(p)
            maps.setdefault(tuple(sorted(pos[r] ^ pos[r + 1] for r in (0, 2, 4, 6))), p)
        landings = 0
        for p in maps.values():
            reached, frontier = {p}, [p]
            while frontier:
                frontier = [apply_gate(q, g) for q in frontier for g in moves]
                frontier = [q for q in set(frontier) if q not in reached]
                reached.update(frontier)
            assert len(reached) == 168  # GL(3, 2)
            lands = any(mismatch_rows(q.entries) == 4 for q in reached)
            spectral = 0 in _walsh_spectrum(positions(p))[1:]
            repaired = _mix_engine(_Engine(p)).fixup_gates > 0
            assert lands == spectral == (not repaired)
            landings += lands
        assert (len(maps), landings) == (35, 28)


class TestInterruptingArithmetic:
    @given(permutations())
    @settings(max_examples=120)
    def test_count_is_multiple_of_four(self, p):
        """Even/odd-column interrupting pairs pair off, so rows ≡ 0 mod 4."""
        assert mismatch_rows(p.entries) % 4 == 0

    @given(permutations())
    @settings(max_examples=120)
    def test_even_and_odd_column_interrupting_pairs_balance(self, p):
        even_pairs = odd_pairs = 0
        pos = positions(p)
        for j in range(p.size // 2):
            ca, cb = pos[2 * j], pos[2 * j + 1]
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
        before = mismatch_rows(p.entries)
        after = mismatch_rows(apply_gate(p, g).entries)
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
        assert mismatch_rows(mixed.entries) == p.size // 2
        replayed = apply_sequence(p, seq)
        assert replayed == mixed

    def test_deterministic(self):
        p = sample(5, seed=11)
        assert mix(p) == mix(p)

    @given(permutations(min_width=3, max_width=4))
    @settings(max_examples=40, deadline=None)
    def test_pure_fixup_fallback(self, p):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conditioning, "_walsh_spectrum", flat_spectrum)  # no composite
            mixed, seq = mix(p)
        assert mismatch_rows(mixed.entries) == p.size // 2

    def test_gate_shapes(self):
        # Every pair of the identity has column difference 1, so |W(a)| is
        # the pair count for every a: no CX circuit lands, and the output is
        # a composite plus fully controlled repair toggles — never anything
        # in between.
        p = Permutation(4, tuple(range(16)))
        mixed, seq = mix(p)
        assert mismatch_rows(mixed.entries) == 8
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
        (a, b), _ = first_pick(HALF_INTERRUPTING)
        ca, cb = HALF_POS[a], HALF_POS[b]
        assert ca % 2 == 0 and cb % 2 == 1

    def test_members_come_from_interrupting_pairs(self):
        for member in first_pick(HALF_INTERRUPTING)[0]:
            j = member >> 1
            ca, cb = HALF_POS[2 * j], HALF_POS[2 * j + 1]
            assert ((2 * j ^ ca) & 1) != ((2 * j + 1 ^ cb) & 1)

    def test_members_from_distinct_pairs(self):
        (a, b), _ = first_pick(HALF_INTERRUPTING)
        assert a >> 1 != b >> 1

    def test_each_member_settles_one_conversion(self):
        # 1 normal and 3 inverted pairs of 4 per class: 3 normal and 1
        # inverted conversions outstanding.  Both members go to the larger.
        assert state_deficits(_Engine(HALF_INTERRUPTING), 0) == [3, 1]
        (a, b), deficits = first_pick(HALF_INTERRUPTING)
        assert deficits == [1, 1]
        for member in (a, b):
            assert (member ^ HALF_POS[member]) & 1  # mismatching: its pair turns normal


class TestPreprocess:
    def test_worked_example(self):
        result, seq = preprocess(HALF_INTERRUPTING)
        assert _pair_split(positions(result)) == (4, 4)  # 8 rows each, none interrupting
        replayed = apply_sequence(HALF_INTERRUPTING, seq)
        assert replayed == result

    def test_single_last_line_gate_is_the_quarter_flip(self):
        _, seq = preprocess(HALF_INTERRUPTING)
        last_line = [g for g in seq if g.target == 4]
        assert last_line == [mct(4, [(1, False), (2, False)], 4)]
        assert seq.gates[-1] == last_line[0]

    @given(st.integers(3, 5), st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_mix_then_preprocess_balances(self, width, seed):
        p = sample(width, seed)
        mixed, _ = mix(p)
        result, seq = preprocess(mixed)
        assert _pair_split(positions(result)) == (result.size // 4, result.size // 4)
        assert sum(g.target == width for g in seq) == 1

    @given(st.integers(3, 6), st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_deficit_counters_match_the_state(self, width, seed):
        # The counters start from one pair split and lose one per member;
        # at every pseudo-block they must equal a fresh read of the state.
        mixed, _ = mix(sample(width, seed))
        seen = []

        def checked(engine, i, deficits, taken):
            assert deficits == state_deficits(engine, i)
            seen.append(i)
            return _pre_pick_rows(engine, i, deficits, taken)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conditioning, "_pre_pick_rows", checked)
            preprocess(mixed)
        assert seen == list(range(mixed.size // 8))

    @given(st.integers(3, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_taken_marks_the_parked_pairs(self, width, seed):
        # At every pseudo-block ``taken`` must mark exactly the pairs with a
        # member parked below column 2i, and the picks must be the ones
        # that rule makes on the whole state.
        p = Permutation(width, half_interrupting_entries(width, seed))
        seen = []

        def checked(engine, i, deficits, taken):
            pos = engine.pos
            parked = [min(pos[r], pos[r + 1]) < 2 * i for r in range(0, engine.size, 2)]
            assert list(map(bool, taken)) == parked
            expected = parked_rule_picks(engine, i, list(deficits))
            picked = _pre_pick_rows(engine, i, deficits, taken)
            assert picked == expected
            seen.append(i)
            return picked

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conditioning, "_pre_pick_rows", checked)
            result, _ = preprocess(p)
        assert seen == list(range(p.size // 8))
        assert _pair_split(positions(result)) == (p.size // 4, p.size // 4)

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
        with pytest.raises(InternalError, match="internal error: exact move"):
            _exact_move(3, src, dst)

    def test_missing_lowering_slot(self, monkeypatch):
        # The identity has no interrupting rows; claim all 8 of them are.
        monkeypatch.setattr(
            conditioning, "_interrupting_pairs", lambda pos: bytearray([1] * 4)
        )
        engine = _Engine(Permutation(3, tuple(range(8))))
        with pytest.raises(InternalError, match="internal error: no slot lowers"):
            _fixups(engine, 4)

    def test_fixup_without_progress(self, monkeypatch):
        engine = _Engine(Permutation(4, tuple(range(16))))
        monkeypatch.setattr(engine, "emit", lambda *m: None)
        with pytest.raises(InternalError, match="internal error: a mix fixup moved"):
            _fixups(engine, 8)

    def test_mix_postcondition(self, monkeypatch):
        # Width-3 state with 6 normal and 2 inverted rows: off the mixing
        # target (4 interrupting rows), not balanced, not reducible.  With
        # no composite and repairs that emit nothing, mixing ends off
        # target, and synthesize itself must say so.
        p = Permutation(3, (0, 1, 2, 3, 5, 4, 6, 7))
        assert mismatch_rows(p.entries) == 0
        monkeypatch.setattr(conditioning, "_fixups", lambda engine, target: 0)
        monkeypatch.setattr(conditioning, "_walsh_spectrum", flat_spectrum)
        with pytest.raises(InternalError, match="internal error: mixing left 0"):
            synthesize(p)

    def test_negative_deficits(self, monkeypatch):
        # Five normal pairs claimed where a quarter of the rows makes four.
        monkeypatch.setattr(conditioning, "_pair_split", lambda pos: (5, 0))
        with pytest.raises(InternalError, match="internal error: negative conversion"):
            _run_preprocess(_Engine(HALF_INTERRUPTING))

    def test_preprocess_postcondition(self, monkeypatch):
        # The opening split claims no normal pairs and four inverted, so the
        # deficits ask for four normal conversions and every interrupting
        # pair turns normal: 2 + 8 normal rows, 6 inverted.  The closing
        # split is the real one.  HALF_INTERRUPTING goes to preprocessing
        # directly, inside synthesize.
        splits = [(0, 4)]
        monkeypatch.setattr(
            conditioning, "_pair_split", lambda pos: splits.pop() if splits else _pair_split(pos)
        )
        with pytest.raises(InternalError, match="internal error: preprocessing ended in a 10:6:0"):
            synthesize(HALF_INTERRUPTING)
