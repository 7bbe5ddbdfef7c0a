"""End-to-end synthesis pipeline tests.

Correctness is judged by the independent simulator in tests/helpers.py:
a circuit synthesized for P, run left to right on input x, must output
P(x).  Minimality of the width-2 endgame is cross-checked against a
breadth-first search written here from scratch.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksynth import (
    Permutation,
    RelevantPair,
    SynthesisConfig,
    WidthMismatch,
    bounds,
    peephole,
    quantum_cost,
    sample,
    search_two_bit,
    select_with_lookahead,
    synthesize,
    toffoli_count,
    x,
)
from blocksynth.core import GateSequence, cx, mct, toffoli
from blocksynth.reduction import _alloc_gates, _cons_gates, _region_mask
from blocksynth.synthesis import _admissible_from, _count_free, _pair_gates, _track

from helpers import as_plain, circuit_table, independent_parity, sim_circuit


@st.composite
def permutations(draw, min_width=3, max_width=6):
    width = draw(st.integers(min_value=min_width, max_value=max_width))
    entries = draw(st.permutations(list(range(1 << width))))
    return Permutation(width, tuple(entries))


# ---------------------------------------------------------------------------
# Width-2 endgame


def _bfs_two_bit_distances() -> dict[tuple[int, ...], int]:
    """Shortest circuit length for each width-2 permutation, from scratch.

    Appending a gate to a circuit with table T yields table g∘T; breadth-
    first search from the empty circuit therefore visits permutations in
    order of minimum realizing length.
    """
    gens = [(1, ()), (2, ()), (2, ((1, True),)), (1, ((2, True),))]
    start = (0, 1, 2, 3)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for table in frontier:
            for target, controls in gens:
                new = tuple(
                    sim_circuit(2, [(target, controls)], v) for v in table
                )
                if new not in dist:
                    dist[new] = dist[table] + 1
                    nxt.append(new)
        frontier = nxt
    return dist


class TestSearchTwoBit:
    def test_rejects_other_widths(self):
        with pytest.raises(WidthMismatch):
            search_two_bit(Permutation.identity(3))
        with pytest.raises(WidthMismatch):
            search_two_bit(Permutation.identity(1))

    def test_identity_is_free(self):
        assert len(search_two_bit(Permutation.identity(2))) == 0

    def test_all_24_permutations_realized(self):
        import itertools

        for entries in itertools.permutations(range(4)):
            perm = Permutation(2, entries)
            seq = search_two_bit(perm)
            assert circuit_table(2, as_plain(seq)) == list(entries)

    def test_all_24_lengths_are_minimal(self):
        import itertools

        oracle = _bfs_two_bit_distances()
        assert len(oracle) == 24
        for entries in itertools.permutations(range(4)):
            seq = search_two_bit(Permutation(2, entries))
            assert len(seq) == oracle[entries]


# ---------------------------------------------------------------------------
# Peephole cancellation


class TestPeephole:
    def test_cancels_adjacent_identical_pair(self):
        g = toffoli(3, 1, 2, 3)
        assert len(peephole(GateSequence.of(g, g))) == 0

    def test_cancellation_cascades(self):
        a, b = x(3, 1), cx(3, 1, 2)
        seq = GateSequence.of(a, b, b, a)
        assert len(peephole(seq)) == 0

    def test_leaves_separated_duplicates(self):
        a, b = x(3, 1), cx(3, 1, 2)
        seq = GateSequence.of(a, b, a)
        assert list(peephole(seq)) == [a, b, a]

    def test_different_polarity_does_not_cancel(self):
        seq = GateSequence.of(cx(3, 1, 2), cx(3, 1, 2, positive=False))
        assert len(peephole(seq)) == 2

    @given(permutations(min_width=3, max_width=4))
    @settings(max_examples=25, deadline=None)
    def test_preserves_function_and_is_stable(self, perm):
        seq, _ = synthesize(perm, SynthesisConfig(post_peephole=False))
        slim = peephole(seq)
        assert circuit_table(perm.width, as_plain(slim)) == list(perm.entries)
        assert all(
            slim.gates[k] != slim.gates[k + 1] for k in range(len(slim) - 1)
        )
        assert peephole(slim).gates == slim.gates


# ---------------------------------------------------------------------------
# Lookahead pair selection


class TestSelectWithLookahead:
    def test_identity_start_picks_the_first_block(self):
        assert select_with_lookahead(Permutation.identity(3), 0) == RelevantPair(0, 1)

    def test_depth_zero_degrades_to_scan_order(self):
        cfg = SynthesisConfig(depths={j: 0 for j in range(12)}, exhaustive_tail=0)
        # plain scan order on the width-3 identity at position 1 settles on
        # rows 4 and 5 (first admissible pair in region scan order)
        assert select_with_lookahead(Permutation.identity(3), 1, cfg) == RelevantPair(4, 5)

    @given(permutations(min_width=3, max_width=5), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_normal_phase_choice_is_admissible(self, perm, depth):
        # force every row to its own column parity so normal pairs exist
        aligned = sample(perm.width, seed=perm.entries[0], kind="parity_aligned")
        cfg = SynthesisConfig(depths={j: depth for j in range(12)}, exhaustive_tail=0)
        pair = select_with_lookahead(aligned, 0, cfg, phase="normal_part")
        a, b = pair
        assert b == (a ^ 1)
        ca, cb = aligned.positions[a], aligned.positions[b]
        assert (a ^ ca) & 1 == 0 and (b ^ cb) & 1 == 0
        assert ca < cb  # smaller column is reported first


@st.composite
def in_region_pairs(draw):
    """(n, i, ca, cb): opposite-parity columns ca < cb in position i's region."""
    n = draw(st.integers(3, 8))
    i = draw(st.integers(0, (1 << (n - 1)) - 1))
    mask = _region_mask(n, i)
    region = [c for c in range(1 << n) if c & mask == mask]
    ca = draw(st.sampled_from(region))
    cb = draw(st.sampled_from([c for c in region if (c ^ ca) & 1]))
    return n, i, min(ca, cb), max(ca, cb)


def _emitted(n, i, ca, cb):
    """The gates ``_Engine.allocate`` emits for an in-region pair."""
    gates = _cons_gates(n, i, ca, cb)
    gates += _alloc_gates(n, i, _moved(ca, gates))
    return gates


def _moved(column, gates):
    for g in gates:
        column = g.map_column(column)
    return column


class TestScorerModel:
    """The scorer's mask triples stand in for the gates the engine emits."""

    @given(in_region_pairs())
    @settings(max_examples=300, deadline=None)
    def test_masks_move_columns_like_the_emitted_gates(self, case):
        n, i, ca, cb = case
        gates = _emitted(n, i, ca, cb)
        masks, cost = _pair_gates(n, i, ca, cb, {})
        for c in range(1 << n):
            assert _track(c, masks) == _moved(c, gates)
        assert {_track(ca, masks), _track(cb, masks)} == {2 * i, 2 * i + 1}
        assert cost == toffoli_count(GateSequence(n, tuple(gates)))

    @given(
        st.integers(3, 8),
        st.integers(0, 10_000),
        st.sampled_from(["normal", "inverted"]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_free_block_count_matches_running_every_mask(self, n, seed, kind, data):
        pos = sample(n, seed).positions
        pairs = [(r, pos[r], pos[r + 1]) for r in range(0, 1 << n, 2)]
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        cands = _admissible_from(n, pairs, i, kind)
        if not cands:
            return
        a, _, ca, cb = data.draw(st.sampled_from(cands))
        masks, _ = _pair_gates(n, i, ca, cb, {})
        gates = _emitted(n, i, ca, cb)
        want = 0 if kind == "normal" else 1
        expected = 0
        for r, c, p in pairs:
            c, p = _moved(c, gates), _moved(p, gates)
            if r != a & ~1 and c ^ p == 1 and c & 1 == want:
                expected += 1
        assert _count_free(pairs, masks, a & ~1, kind) == expected


# ---------------------------------------------------------------------------
# Full pipeline


class TestSynthesizeEndToEnd:
    def test_identity_costs_nothing(self):
        for width in range(1, 7):
            seq, report = synthesize(Permutation.identity(width))
            assert len(seq) == 0
            assert report.gate_count == 0
            assert report.toffoli_total == 0

    def test_width_one(self):
        seq, _ = synthesize(Permutation(1, (1, 0)))
        assert list(seq) == [x(1, 1)]
        assert circuit_table(1, as_plain(seq)) == [1, 0]

    def test_width_two_matches_endgame_search(self):
        perm = Permutation(2, (2, 0, 3, 1))
        seq, _ = synthesize(perm)
        assert seq.gates == search_two_bit(perm).gates

    @given(permutations(min_width=3, max_width=6))
    @settings(max_examples=25, deadline=None)
    def test_realizes_the_permutation(self, perm):
        seq, report = synthesize(perm)
        assert circuit_table(perm.width, as_plain(seq)) == list(perm.entries)
        assert seq.width == perm.width
        # The analytic budget covers every gate except the logged deviations:
        # region lifts (reported at Toffoli weight) and mix repair gates
        # (fully controlled at their stage width, so 2w-5 each).
        allowance = report.lift_toffoli + sum(
            s.mix_fixups * (2 * s.width - 5) for s in report.stages
        )
        assert report.toffoli_total <= report.bound_total + allowance

    def test_lift_heavy_case_stays_within_budget(self):
        # Needs a fallback (multi-control) lift in every reduction phase;
        # an earlier lift rule that always pinned the full column pushed
        # this permutation to 26 Toffolis against the width-4 cumulative
        # budget of 25.
        perm = Permutation(4, (11, 4, 8, 2, 14, 0, 9, 12, 15, 1, 7, 3, 10, 6, 5, 13))
        seq, report = synthesize(perm)
        assert circuit_table(4, as_plain(seq)) == list(perm.entries)
        assert report.lift_toffoli > 0
        assert report.toffoli_total <= report.bound_total

    @given(permutations(min_width=3, max_width=5))
    @settings(max_examples=20, deadline=None)
    def test_report_is_consistent(self, perm):
        seq, report = synthesize(perm)
        assert report.width == perm.width
        assert report.gate_count == len(seq)
        assert report.toffoli_total == toffoli_count(seq)
        assert report.quantum_cost_total == quantum_cost(seq)
        assert [s.width for s in report.stages] == list(range(perm.width, 2, -1))
        assert report.bound_total == sum(s.bound for s in report.stages)
        assert report.bound_total == sum(
            bounds(w).per_reduction_total for w in range(3, perm.width + 1)
        )
        assert report.assumption1_deviations == sum(s.mix_fixups for s in report.stages)
        assert report.region_lifts == sum(s.region_lifts for s in report.stages)
        assert report.lift_toffoli == sum(s.lift_toffoli for s in report.stages)
        assert report.wall_time_s >= 0.0
        assert report.cost_table == "default"

    def test_deterministic(self):
        perm = sample(6, seed=42)
        first, _ = synthesize(perm)
        second, _ = synthesize(perm)
        assert first.gates == second.gates

    def test_depth_zero_configuration_still_verifies(self):
        cfg = SynthesisConfig(depths={j: 0 for j in range(16)}, exhaustive_tail=0)
        perm = sample(6, seed=7)
        seq, _ = synthesize(perm, cfg)
        assert circuit_table(6, as_plain(seq)) == list(perm.entries)

    def test_deeper_lookahead_helps_in_aggregate(self):
        # Per instance the greedy pick order means depth 2 can lose to depth
        # 0 (measured: 5 of the 12 seeds below), but over the batch it must
        # pay for itself; the totals were measured once and frozen.
        shallow_total = deep_total = 0
        for seed in range(1, 13):
            perm = sample(5, seed=seed)
            shallow, _ = synthesize(
                perm, SynthesisConfig(depths={j: 0 for j in range(16)}, exhaustive_tail=0)
            )
            deep, _ = synthesize(
                perm, SynthesisConfig(depths={j: 2 for j in range(16)}, exhaustive_tail=0)
            )
            assert circuit_table(5, as_plain(deep)) == list(perm.entries)
            shallow_total += toffoli_count(shallow)
            deep_total += toffoli_count(deep)
        assert deep_total < shallow_total

    def test_peephole_toggle(self):
        perm = sample(5, seed=11)
        raw, _ = synthesize(perm, SynthesisConfig(post_peephole=False))
        slim, _ = synthesize(perm, SynthesisConfig(post_peephole=True))
        assert len(slim) <= len(raw)
        assert circuit_table(5, as_plain(raw)) == list(perm.entries)
        assert circuit_table(5, as_plain(slim)) == list(perm.entries)


class TestParityTheorem:
    """A gate is an odd permutation of the columns iff it is fully
    controlled (it swaps 2^(n-1-m) column pairs, odd only for m = n-1)."""

    @given(permutations(min_width=3, max_width=6))
    @settings(max_examples=30, deadline=None)
    def test_fully_controlled_count_matches_parity(self, perm):
        seq, _ = synthesize(perm)
        full = sum(1 for g in seq if g.control_count == perm.width - 1)
        want = independent_parity(perm.entries)
        assert ("odd" if full % 2 else "even") == want

    def test_odd_permutation_needs_at_least_one(self):
        # a single transposition is odd
        entries = list(range(16))
        entries[0], entries[1] = entries[1], entries[0]
        perm = Permutation(4, tuple(entries))
        assert independent_parity(perm.entries) == "odd"
        seq, _ = synthesize(perm)
        assert any(g.control_count == 3 for g in seq)


# ---------------------------------------------------------------------------
# Configuration plumbing


class TestSynthesisConfig:
    def test_depth_for_defaults_to_one(self):
        cfg = SynthesisConfig()
        assert cfg.depth_for(1) == 1
        assert cfg.depth_for(300) == 1

    def test_depth_for_zero_rows(self):
        assert SynthesisConfig().depth_for(0) == 0
        assert SynthesisConfig().depth_for(-5) == 0

    def test_depth_for_buckets_by_row_count(self):
        cfg = SynthesisConfig(depths={3: 2})
        # j = (r-1).bit_length(): rows 5..8 land in bucket 3
        assert cfg.depth_for(4) == 1
        assert cfg.depth_for(5) == 2
        assert cfg.depth_for(8) == 2
        assert cfg.depth_for(9) == 1

    def test_frozen(self):
        cfg = SynthesisConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.exhaustive_tail = 5  # type: ignore[misc]
