"""End-to-end synthesis pipeline tests.

Correctness is judged by the independent simulator in tests/helpers.py:
a circuit synthesized for P, run left to right on input x, must output
P(x).  Minimality of the width-2 endgame is cross-checked against a
breadth-first search written here from scratch.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksynth import (
    InternalError,
    Permutation,
    SynthesisConfig,
    WidthMismatch,
    bounds,
    peephole,
    quantum_cost,
    sample,
    search_two_bit,
    synthesize,
    toffoli_count,
    x,
)
from blocksynth import conditioning, synthesis
from blocksynth.core import Gate, GateSequence, apply_gate, cx, toffoli
from blocksynth.reduction import (
    INVERTED,
    NORMAL,
    _alloc_masks,
    _cons_masks,
    _Engine,
    _pick_rows,
    _region_mask,
    _track,
)
from blocksynth.synthesis import (
    _admissible_from,
    _advance,
    _blocks,
    _count_free,
    _make_selector,
    _pair_gates,
    _price_leaves,
    _Root,
    _suffix,
)

from helpers import (
    as_plain,
    circuit_table,
    findm,
    flat_spectrum,
    independent_parity,
    positions,
    sim_circuit,
    with_identity_wire,
)

DEPTH_ZERO = SynthesisConfig(depths={j: 0 for j in range(1, 16)}, exhaustive_tail=0)


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
            search_two_bit(Permutation(3, tuple(range(8))))
        with pytest.raises(WidthMismatch):
            search_two_bit(Permutation(1, (0, 1)))

    def test_identity_is_free(self):
        assert len(search_two_bit(Permutation(2, (0, 1, 2, 3)))) == 0

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
        assert len(peephole(GateSequence(g.width, (g, g)))) == 0

    def test_cancellation_cascades(self):
        a, b = x(3, 1), cx(3, 1, 2)
        seq = GateSequence(a.width, (a, b, b, a))
        assert len(peephole(seq)) == 0

    def test_leaves_separated_duplicates(self):
        a, b = x(3, 1), cx(3, 1, 2)
        seq = GateSequence(a.width, (a, b, a))
        assert list(peephole(seq)) == [a, b, a]

    def test_different_polarity_does_not_cancel(self):
        seq = GateSequence(3, (cx(3, 1, 2), cx(3, 1, 2, positive=False)))
        assert len(peephole(seq)) == 2

    @given(permutations(min_width=3, max_width=4))
    @settings(max_examples=25, deadline=None)
    def test_preserves_function_and_is_stable(self, perm):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "peephole", lambda seq: seq)  # raw output
            seq, _ = synthesize(perm)
        slim = peephole(seq)
        assert circuit_table(perm.width, as_plain(slim)) == list(perm.entries)
        assert all(
            slim.gates[k] != slim.gates[k + 1] for k in range(len(slim) - 1)
        )
        assert peephole(slim).gates == slim.gates


# ---------------------------------------------------------------------------
# Lookahead pair selection


def normal_phase_selector(perm, cfg=None):
    """The selector a general reduction uses for its normal-pair part."""
    engine = _Engine(perm)
    return engine, _make_selector(engine, NORMAL, perm.size // 4, cfg or SynthesisConfig())


class TestSelectWithLookahead:
    def test_identity_start_picks_the_first_block(self):
        _, select = normal_phase_selector(Permutation(3, tuple(range(8))))
        assert select(0) == (0, 1)

    def test_depth_zero_degrades_to_scan_order(self):
        cfg = SynthesisConfig(depths={j: 0 for j in range(1, 12)}, exhaustive_tail=0)
        # at depth 0 the selector declines and the reduction takes its plain
        # scan, which on the width-3 identity at position 1 settles on rows 4
        # and 5 (first admissible pair in region scan order)
        engine, select = normal_phase_selector(Permutation(3, tuple(range(8))), cfg)
        assert select(1) is None
        assert _pick_rows(engine, 1, NORMAL) == (4, 5)

    @given(permutations(min_width=3, max_width=5), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_normal_phase_choice_is_admissible(self, perm, depth):
        # force every row to its own column parity so normal pairs exist
        aligned = sample(perm.width, seed=perm.entries[0], kind="parity_aligned")
        cfg = SynthesisConfig(depths={j: depth for j in range(1, 12)}, exhaustive_tail=0)
        _, select = normal_phase_selector(aligned, cfg)
        a, b = select(0)
        assert b == (a ^ 1)
        ca, cb = positions(aligned)[a], positions(aligned)[b]
        assert (a ^ ca) & 1 == 0 and (b ^ cb) & 1 == 0
        assert ca < cb  # smaller column is reported first


@st.composite
def in_region_pairs(draw, max_width=10):
    """(n, i, ca, cb): opposite-parity columns ca < cb in position i's region."""
    n = draw(st.integers(3, max_width))
    i = draw(st.integers(0, (1 << (n - 1)) - 1))
    mask = _region_mask(n, i)
    region = [c for c in range(1 << n) if c & mask == mask]
    ca = draw(st.sampled_from(region))
    cb = draw(st.sampled_from([c for c in region if (c ^ ca) & 1]))
    return n, i, min(ca, cb), max(ca, cb)


def _emitted(n, i, ca, cb):
    """The gates ``_Engine.allocate`` emits for an in-region pair, built
    from its mask triples the way ``_Engine.sequence`` builds them."""
    gates = [Gate.from_masks(n, *m) for m in _cons_masks(n, i, ca, cb)]
    moved = _destinations(n, gates)[ca]
    return gates + [Gate.from_masks(n, *m) for m in _alloc_masks(n, i, moved)]


def _destinations(n, gates):
    """The column each column's contents reach once ``gates`` have run."""
    perm = Permutation(n, tuple(range(1 << n)))
    for g in gates:
        perm = apply_gate(perm, g)
    return positions(perm)


class TestScorerModel:
    """The scorer's mask triples stand in for the gates the engine emits."""

    @given(in_region_pairs())
    @example((4, 1, 10, 11))  # already a block: no conjoin
    @example((4, 2, 8, 15))  # a negatively controlled run that moves the even member
    @example((4, 4, 8, 15))  # conjoined into its slot: no slide
    @settings(max_examples=300, deadline=None)
    def test_masks_move_columns_like_the_emitted_gates(self, case):
        n, i, ca, cb = case
        gates = _emitted(n, i, ca, cb)
        masks, cost = _pair_gates(n, i, ca, cb)
        dest = _destinations(n, gates)
        for c in range(1 << n):
            assert _track(c, masks) == dest[c]
        assert {_track(ca, masks), _track(cb, masks)} == {2 * i, 2 * i + 1}
        assert cost == toffoli_count(GateSequence(n, tuple(gates)))

    @given(
        st.integers(3, 8),
        st.integers(0, 10_000),
        st.sampled_from([NORMAL, INVERTED]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_free_block_count_matches_running_every_mask(self, n, seed, kind, data):
        pos = positions(sample(n, seed))
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))

        def pairs_and_cands():
            pairs = [(r, pos[r], pos[r + 1]) for r in range(0, 1 << n, 2)]
            return pairs, _admissible_from(n, pairs, i, kind)

        pairs, cands = pairs_and_cands()
        if not cands:
            return
        a, _, ca, cb = data.draw(st.sampled_from(cands))
        if data.draw(st.booleans()):
            # Conjoin the drawn pair first: it stays a candidate, now at
            # slot gap 0.
            moved = _destinations(n, [Gate.from_masks(n, *m) for m in _cons_masks(n, i, ca, cb)])
            pos = [moved[c] for c in pos]
            pairs, cands = pairs_and_cands()
            a, _, ca, cb = next(c for c in cands if c[0] >> 1 == a >> 1)
            assert ca ^ cb == 1
        dest = _destinations(n, _emitted(n, i, ca, cb))
        expected = 0
        for r, c, p in pairs:
            c, p = dest[c], dest[p]
            if r != a & ~1 and c ^ p == 1 and c & 1 == kind:
                expected += 1
        gaps = Counter((c ^ p) >> 1 for _, _, c, p in cands)
        assert _count_free(_blocks(pairs, kind), gaps, (ca ^ cb) >> 1) == expected


@st.composite
def pair_states(draw, max_width=9):
    """(n, i, pairs): the unallocated pairs at position i of a column
    layout drawn from all blocks (of one kind) through fully random."""
    n = draw(st.integers(3, max_width))
    size = 1 << n
    flip = draw(st.sampled_from([0, 1]))  # 1 makes every block inverted
    pos = [c ^ flip for c in range(size)]
    for _ in range(draw(st.integers(0, size))):
        a, b = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        pos[a], pos[b] = pos[b], pos[a]
    i = draw(st.integers(0, (1 << (n - 1)) - 1))
    pairs = [(r, pos[r], pos[r + 1]) for r in range(0, size, 2) if pos[r] >= 2 * i]
    return n, i, pairs


def _priced_one_by_one(n, pairs, i, kind, budget):
    """A depth-1 search's value and tied candidates, pricing each
    admissible pair with its masks."""
    prices = {c: _pair_gates(n, i, c[2], c[3])[1] for c in _admissible_from(n, pairs, i, kind)}
    if not prices:
        return 0, set()
    best = min(prices.values())
    if best >= budget:
        return None, set()
    return best, {c for c, v in prices.items() if v == best}


class TestLeafPass:
    """A node whose children are leaves prices its candidates in the pass
    that filters them; it must agree with pricing each one's masks."""

    @given(in_region_pairs(max_width=11), st.booleans())
    @example((4, 1, 10, 11), False)  # already a block: no conjoin
    @example((4, 2, 8, 15), False)  # a negatively controlled run that moves the even member
    @example((4, 2, 8, 15), True)
    @settings(max_examples=400, deadline=None)
    def test_leaf_price_is_the_masks_price(self, case, swap):
        n, i, ca, cb = case
        c, p = (cb, ca) if swap else (ca, cb)  # either column on the even row
        assert _price_leaves(n, [(0, c, p)], i, c & 1, math.inf, None) == _pair_gates(n, i, ca, cb)[1]

    @given(pair_states(), st.sampled_from([NORMAL, INVERTED]), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_depth_one_matches_pricing_each_candidate(self, state, kind, last, data):
        n, i, pairs = state
        best, _ = _priced_one_by_one(n, pairs, i, kind, math.inf)
        # Budgets at or below the best must fail the search.
        budget = data.draw(st.one_of(st.just(math.inf), st.integers(0, best + 2)))
        # Depth 1, or the last position of a deeper search.
        depth, phase_end = (3, i + 1) if last else (1, 1 << (n - 1))
        root = _Root()
        got = _suffix(n, pairs, i, depth, phase_end, kind, budget, None, root)
        assert (got, set(root.tied)) == _priced_one_by_one(n, pairs, i, kind, budget)
        assert len(root.tied) == len(set(root.tied))
        assert _suffix(n, pairs, i, depth, phase_end, kind, budget, None) == got

    @given(pair_states(max_width=7), st.sampled_from([NORMAL, INVERTED]), st.integers(1, 2))
    @settings(max_examples=150, deadline=None)
    def test_root_census_matches_a_rescan(self, state, kind, depth):
        n, i, pairs = state
        root = _Root()
        _suffix(n, pairs, i, depth, 1 << (n - 1), kind, math.inf, None, root)
        cands = _admissible_from(n, pairs, i, kind)
        assert root.blocks == _blocks(pairs, kind)
        assert root.gaps == Counter((ca ^ cb) >> 1 for _, _, ca, cb in cands)


@st.composite
def mask_gates(draw, n):
    """One (ones, zeros, target) triple on a single target line."""
    t = 1 << draw(st.integers(0, n - 1))
    ones = zeros = 0
    for b in range(n):
        if 1 << b != t:
            pick = draw(st.sampled_from([0, 0, 1, 2]))
            ones |= (pick == 1) << b
            zeros |= (pick == 2) << b
    return ones, zeros, t


class TestPairOrder:
    """``_admissible_from`` lists candidates by row because its input is by
    row: ``pairs_from`` builds it so and ``_advance`` keeps the order."""

    @given(st.integers(3, 7), st.integers(0, 10_000), st.sampled_from([NORMAL, INVERTED]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pairs_from_and_advance_keep_row_order(self, n, seed, kind, data):
        engine = _Engine(sample(n, seed))
        engine.emit(*data.draw(st.lists(mask_gates(n), max_size=6)))
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))
        pairs = engine.pairs_from(i)
        rows = [r for r, _, _ in pairs]
        assert rows == sorted(set(rows)) and all(r % 2 == 0 for r in rows)
        cands = _admissible_from(n, pairs, i, kind)
        assert cands == sorted(cands)
        for row, _, ca, cb in cands[:3]:
            masks, _ = _pair_gates(n, i, ca, cb)
            moved = _advance(pairs, row & ~1, masks)
            assert [r for r, _, _ in moved] == [r for r in rows if r != row & ~1]


def _reference_choice(perm, i, kind, phase_end, depth):
    """The pair the lookahead should pick, by brute force on permutations.

    Each in-region pair of ``kind`` is allocated by applying its emitted
    gates; the best one has the least total Toffoli count over the next
    ``depth`` positions (up to ``phase_end``), then leaves the most blocks
    of ``kind`` after position i, then has the lowest rows.
    """
    n = perm.width

    def candidates(p, i):
        top = findm(i, n) - 1  # the region's columns start with top 1-bits
        pos = positions(p)
        out = []
        for r in range(0, p.size, 2):
            ca, cb = pos[r], pos[r + 1]
            if any(c >> (n - top) != (1 << top) - 1 for c in (ca, cb)):
                continue
            if ca % 2 == kind and cb % 2 != kind:  # the even row's column parity
                out.append((r, r + 1, ca, cb) if ca < cb else (r + 1, r, cb, ca))
        return out

    def allocated(p, i, cand):
        gates = _emitted(n, i, cand[2], cand[3])
        for g in gates:
            p = apply_gate(p, g)
        return p, toffoli_count(GateSequence(n, tuple(gates)))

    def cheapest(p, i, left):
        if left == 0 or i >= phase_end:
            return 0
        moves = (allocated(p, i, c) for c in candidates(p, i))
        return min((cost + cheapest(q, i + 1, left - 1) for q, cost in moves), default=0)

    def blocks_after(p, i):
        slots = (p.entries[2 * q : 2 * q + 2] for q in range(i + 1, p.size // 2))
        return sum(1 for lo, hi in slots if (lo, hi)[kind] % 2 == 0 and lo ^ hi == 1)

    scored = []
    for cand in candidates(perm, i):
        q, cost = allocated(perm, i, cand)
        total = cost + cheapest(q, i + 1, depth - 1)
        scored.append((total, -blocks_after(q, i), min(cand[:2]), cand[:2]))
    return min(scored)[-1] if scored else None


class TestOneSearch:
    """Lookahead and the exact tail run one branch and bound; its pick must
    match a brute-force enumeration that never touches the scorer."""

    @given(
        st.integers(3, 5),
        st.integers(0, 10_000),
        st.sampled_from(["uniform", "parity_aligned"]),
        st.sampled_from([NORMAL, INVERTED]),
        st.sampled_from([1, 2, 3, "tail"]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_pick_matches_brute_force(self, n, seed, sample_kind, kind, depth, data):
        perm = sample(n, seed, sample_kind)
        phase_end = data.draw(st.sampled_from([perm.size // 4, perm.size // 2]))
        if depth == "tail":
            # the exhaustive tail covers the stage: depth runs to phase_end
            i = data.draw(st.integers(max(0, phase_end - 5), phase_end - 1))
            cfg = SynthesisConfig(exhaustive_tail=1 << (n - 1))
            d = phase_end - i
        else:
            i = data.draw(st.integers(0, phase_end - 1))
            cfg = SynthesisConfig(depths={j: depth for j in range(1, 25)}, exhaustive_tail=0)
            d = depth
        select = _make_selector(_Engine(perm), kind, phase_end, cfg)
        assert select(i) == _reference_choice(perm, i, kind, phase_end, d)

    @pytest.mark.parametrize("seed, depth", [(22, 2), (35, 3)])
    def test_ties_reached_through_different_first_costs(self, seed, depth):
        # Here tied candidates differ in their first position's cost, so the
        # search meets them out of row order; the tie-break must not.
        perm = sample(4, seed, "parity_aligned")
        cfg = SynthesisConfig(depths={j: depth for j in range(1, 25)}, exhaustive_tail=0)
        select = _make_selector(_Engine(perm), NORMAL, 4, cfg)
        assert select(1) == _reference_choice(perm, 1, NORMAL, 4, depth)


class _NoTable(dict):
    """A ``_suffix`` state table that keeps nothing, so every state is
    searched."""

    def __setitem__(self, key, value):
        pass


class TestStateTable:
    """``_suffix`` answers a state it has met from its table; each answer
    must be the one a search without a table gives."""

    @given(
        st.integers(3, 7),
        st.integers(0, 10_000),
        st.sampled_from(["uniform", "parity_aligned"]),
        st.sampled_from([NORMAL, INVERTED]),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_table_answers_as_a_search_without_one(
        self, n, seed, sample_kind, kind, falling, data
    ):
        perm = sample(n, seed, sample_kind)
        phase_end = data.draw(st.sampled_from([perm.size // 4, perm.size // 2]))
        i = data.draw(st.integers(max(0, phase_end - 8), phase_end - 1))
        pairs = _Engine(perm).pairs_from(i)
        # The root and two of its children, so later calls meet states that
        # earlier ones stored.
        states = [(i, pairs)]
        for row, _, ca, cb in _admissible_from(n, pairs, i, kind)[:2]:
            if i + 1 < phase_end:
                masks, _ = _pair_gates(n, i, ca, cb)
                states.append((i + 1, _advance(pairs, row & ~1, masks)))
        calls = []
        for _ in range(data.draw(st.integers(1, 6))):
            k = data.draw(st.integers(0, len(states) - 1))
            depth = data.draw(st.integers(1, 3))
            at, state = states[k]
            best = _suffix(n, state, at, depth, phase_end, kind, math.inf, _NoTable())
            # Budgets near the best meet the entries at their edges.
            budget = data.draw(st.one_of(st.integers(max(1, best - 2), best + 2), st.just(math.inf)))
            calls.append((budget, k, depth))
        if falling:
            calls.sort(key=lambda call: -call[0])
        seen: dict = {}
        for budget, k, depth in calls:
            at, state = states[k]
            want = _suffix(n, state, at, depth, phase_end, kind, budget, _NoTable())
            for _ in range(2):  # the repeat is answered from the table
                assert _suffix(n, state, at, depth, phase_end, kind, budget, seen) == want

    @given(
        st.integers(3, 6),
        st.integers(0, 10_000),
        st.sampled_from(["uniform", "parity_aligned"]),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([0, 4, 9]),
    )
    @settings(max_examples=20, deadline=None)
    def test_phase_long_table_picks_as_a_fresh_one(self, n, seed, sample_kind, depth, tail):
        choose = synthesis._lookahead_choose

        def checked(n, pairs, i, kind, phase_end, d, seen):
            got = choose(n, pairs, i, kind, phase_end, d, seen)
            assert got == choose(n, pairs, i, kind, phase_end, d, {})
            return got

        cfg = SynthesisConfig(depths={j: depth for j in range(1, 25)}, exhaustive_tail=tail)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "_lookahead_choose", checked)
            synthesize(sample(n, seed, sample_kind), cfg)


# ---------------------------------------------------------------------------
# Full pipeline


class TestSynthesizeEndToEnd:
    def test_identity_costs_nothing(self):
        for width in range(1, 7):
            seq, report = synthesize(Permutation(width, tuple(range(1 << width))))
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

    @pytest.mark.parametrize("width, seed", [(3, 4), (5, 1), (6, 2), (8, 1)])
    def test_each_output_gate_is_built_once(self, monkeypatch, width, seed):
        # Stage and endgame gates are built at the output width from their
        # masks, not built narrow and widened, and a gate that recurs is
        # built once per call and shared.  The two-bit table's own width-2
        # gates are built once per process, so the table is built first.
        synthesis._two_bit_table()
        built = []
        post_init = Gate.__post_init__

        def counting(gate):
            built.append(gate)
            post_init(gate)

        monkeypatch.setattr(Gate, "__post_init__", counting)
        seq, _ = synthesize(sample(width, seed))
        assert {g.width for g in built} == {width}
        assert len(set(built)) == len(built)
        assert {id(g) for g in seq} <= {id(g) for g in built}
        assert len(built) < len(seq)

    @pytest.mark.parametrize("cfg", [SynthesisConfig(), DEPTH_ZERO], ids=["default", "d0t0"])
    @given(st.integers(1, 7), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_identity_wire_input_gives_its_factors_circuit(self, cfg, width, seed):
        # A Q ⊗ I_2 stage is all-normal and already holds every block, so
        # it emits nothing and the circuit is Q's on the leading lines.
        q = sample(width, seed)
        seq, report = synthesize(Permutation(width + 1, with_identity_wire(q.entries)), cfg)
        narrow, _ = synthesize(q, cfg)
        assert as_plain(seq) == as_plain(narrow)
        if width >= 2:
            top = dataclasses.asdict(report.stages[0])
            assert top.pop("width") == width + 1
            assert top.pop("bound") == bounds(width + 1).per_reduction_total
            assert set(top.values()) == {0}

    def test_a_stage_that_keeps_the_last_line_is_an_internal_error(self, monkeypatch):
        # ``strip`` checks the Q ⊗ I_2 form with a raise, so it holds
        # under ``python -O``; a reduction that does nothing breaks it.
        perm = sample(4, 1, "parity_aligned")
        monkeypatch.setattr(synthesis, "_run_normal", lambda engine, selector=None: None)
        with pytest.raises(InternalError, match="internal error: .* not an identity wire"):
            synthesize(perm)

    def test_a_stage_over_its_budget_is_an_internal_error(self, monkeypatch):
        # The per-stage budget is checked with a raise, so it holds under
        # ``python -O``.
        real = synthesis.bounds
        monkeypatch.setattr(
            synthesis, "bounds", lambda w: dataclasses.replace(real(w), per_reduction_total=1)
        )
        with pytest.raises(InternalError, match="internal error: the width-5 stage .* budget of 1$"):
            synthesize(sample(5, 1))

    def test_preprocessing_over_its_budget_is_an_internal_error(self, monkeypatch):
        # Preprocessing has its own budget, checked net of its lifts with a
        # raise, so it holds under ``python -O``.  Width 5 preprocesses.
        perm = sample(5, 1)
        _, report = synthesize(perm)
        assert report.stages[0].pre_gates
        monkeypatch.setattr(synthesis, "preprocessing_bound", lambda w: 0)
        with pytest.raises(InternalError, match="internal error: width-5 preprocessing .* budget of 0$"):
            synthesize(perm)

    def test_mix_repairs_sit_outside_the_stage_budget(self):
        # At the default config this map's width-4 stage needs three mix
        # repair gates (3 Toffolis each) and ends one Toffoli over its
        # budget net of lifts alone; net of the repairs it is within.
        perm = Permutation(6, (
            23, 61, 9, 10, 16, 55, 43, 59, 38, 46, 39, 8, 2, 5, 41, 0,
            3, 6, 56, 54, 40, 33, 36, 15, 49, 50, 42, 57, 37, 45, 30, 11,
            35, 34, 31, 48, 51, 27, 20, 24, 13, 17, 4, 47, 32, 12, 14, 1,
            21, 60, 18, 44, 58, 19, 25, 53, 28, 62, 63, 7, 29, 52, 22, 26,
        ))
        seq, report = synthesize(perm)
        assert circuit_table(6, as_plain(seq)) == list(perm.entries)
        stage = report.stages[2]
        assert (stage.width, stage.mix_fixups) == (4, 3)
        assert stage.toffoli - stage.lift_toffoli == stage.bound + 1

    @pytest.mark.parametrize("width", [1, 2, 3, 6])
    def test_only_the_endgame_takes_a_snapshot(self, monkeypatch, width):
        # One working copy runs every stage; only the width-2 table lookup
        # turns it back into a ``Permutation``.
        synthesis._two_bit_table()
        made = []
        post_init = Permutation.__post_init__

        def counting(perm):
            made.append(perm.width)
            post_init(perm)

        perm = sample(width, 5)
        monkeypatch.setattr(Permutation, "__post_init__", counting)
        synthesize(perm)
        assert made == ([2] if width >= 2 else [])

    def test_deterministic(self):
        perm = sample(6, seed=42)
        first, _ = synthesize(perm)
        second, _ = synthesize(perm)
        assert first.gates == second.gates

    @given(permutations(min_width=3, max_width=5), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_gates_come_out_in_mask_form(self, perm, force_repairs):
        # Stages record mask triples and build each Gate from one, so
        # controls are in ascending line order and peephole's == sees every
        # pair of equal gates.  A flat spectrum forces the repair gates.
        with pytest.MonkeyPatch.context() as mp:
            if force_repairs:
                mp.setattr(conditioning, "_walsh_spectrum", flat_spectrum)
            mp.setattr(synthesis, "peephole", lambda seq: seq)
            seq, _ = synthesize(perm)
        assert all(g == Gate.from_masks(g.width, *g.masks()) for g in seq)

    @pytest.mark.parametrize("width,k", [(3, 7), (6, 1), (8, 1), (8, 0b10110101), (10, 5)])
    def test_xor_with_a_constant_costs_no_toffoli(self, width, k):
        # x -> x ^ k is all inverted at every stage where k has the last
        # line's bit: one X there makes it all normal, with nothing to mix.
        seq, report = synthesize(Permutation(width, tuple(v ^ k for v in range(1 << width))))
        assert report.toffoli_total == 0
        assert len(seq) == k.bit_count()
        assert report.assumption1_deviations == 0

    def test_depth_zero_configuration_still_verifies(self):
        perm = sample(6, seed=7)
        seq, _ = synthesize(perm, DEPTH_ZERO)
        assert circuit_table(6, as_plain(seq)) == list(perm.entries)

    def test_deeper_lookahead_helps_in_aggregate(self):
        # Per instance the greedy pick order means depth 2 can lose to depth
        # 0 (measured: 5 of the 12 seeds below), but over the batch it must
        # pay for itself; the totals were measured once and frozen.
        shallow_total = deep_total = 0
        for seed in range(1, 13):
            perm = sample(5, seed=seed)
            shallow, _ = synthesize(
                perm, SynthesisConfig(depths={j: 0 for j in range(1, 16)}, exhaustive_tail=0)
            )
            deep, _ = synthesize(
                perm, SynthesisConfig(depths={j: 2 for j in range(1, 16)}, exhaustive_tail=0)
            )
            assert circuit_table(5, as_plain(deep)) == list(perm.entries)
            shallow_total += toffoli_count(shallow)
            deep_total += toffoli_count(deep)
        assert deep_total < shallow_total


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"exhaustive_tail": -1},
            {"depths": {3: 1, 4: -2}},
            {"depths": {99: 0, -4: 0}},
            {"depths": {0: 1, 1: 1}},
        ],
    )
    def test_negative_values_rejected(self, kwargs):
        # Depth buckets are keyed 1..24: no row count reaches another key.
        with pytest.raises(ValueError, match=r"must be (non-negative|within 1\.\.24), got"):
            SynthesisConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"depths": {j: 1.5 for j in range(1, 25)}},
            {"depths": {3: 1.0}},
            {"depths": {3: True}},
            {"exhaustive_tail": "3"},
            {"exhaustive_tail": 9.0},
        ],
    )
    def test_non_integer_values_rejected(self, kwargs):
        # A depth of 1.5 never counts down to 0, so every pick would search
        # to the end of its phase.
        with pytest.raises(ValueError, match="must be of type int, got"):
            SynthesisConfig(**kwargs)

    @pytest.mark.parametrize("key", [3.5, 3.0, "3", True])
    def test_non_integer_buckets_rejected(self, key):
        # depth_for looks buckets up by int, so such a depth is never used.
        with pytest.raises(ValueError, match="buckets must be of type int, got"):
            SynthesisConfig(depths={key: 2})

    def test_depth_for_buckets_by_row_count(self):
        cfg = SynthesisConfig(depths={3: 2})
        # j = (r-1).bit_length(): rows 5..8 land in bucket 3
        assert cfg.depth_for(4) == 1
        assert cfg.depth_for(5) == 2
        assert cfg.depth_for(8) == 2
        assert cfg.depth_for(9) == 1

    def test_depths_are_copied(self):
        # Changing the caller's dict afterwards must not get past the checks.
        depths = {3: 1}
        cfg = SynthesisConfig(depths=depths)
        depths[3] = 1.5
        assert cfg.depth_for(5) == 1
        with pytest.raises(TypeError):
            cfg.depths[3] = 2  # type: ignore[index]
        assert synthesize(sample(6, 1), cfg)[1].toffoli_total == synthesize(sample(6, 1))[1].toffoli_total

    def test_settable_values(self):
        names = [f.name for f in dataclasses.fields(SynthesisConfig)]
        assert names == ["depths", "exhaustive_tail"]

    def test_frozen(self):
        cfg = SynthesisConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.exhaustive_tail = 5  # type: ignore[misc]
