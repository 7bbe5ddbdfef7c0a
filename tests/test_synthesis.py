"""End-to-end synthesis pipeline tests.

Correctness is judged by the independent simulator in tests/helpers.py:
a circuit synthesized for P, run left to right on input x, must output
P(x).  Minimality of the width-2 endgame is cross-checked against a
breadth-first search written here from scratch.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import assume, example, given, reject, settings
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
    _Engine,
    _pair_split,
    _pick_rows,
    _region_mask,
)
from blocksynth.synthesis import (
    _advance,
    _choose_leaf,
    _count_free,
    _floor,
    _lookahead_choose,
    _make_selector,
    _pair_gates,
    _price_leaves,
    _stage,
    _suffix,
)

from helpers import (
    alloc_masks,
    as_plain,
    balanced_entries,
    candidates,
    circuit_table,
    cons_masks,
    fills_phase,
    findm,
    flat_spectrum,
    half_interrupting_entries,
    independent_parity,
    leaf_pick,
    pairs_at,
    positions,
    sim_circuit,
    tie_pick,
    track,
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

    def test_a_list_built_permutation_is_looked_up(self):
        # The table is keyed by entry tuples.
        assert search_two_bit(Permutation(2, [1, 0, 2, 3])) == search_two_bit(
            Permutation(2, (1, 0, 2, 3))
        )

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
        # at depth 0 the selector takes the plain scan, which on the width-3
        # identity at position 1 settles on rows 4 and 5 (first admissible
        # pair in region scan order)
        _, select = normal_phase_selector(Permutation(3, tuple(range(8))), cfg)
        assert select(1) == (4, 5)

    @given(permutations(min_width=3, max_width=5), st.sampled_from([0, 8]))
    @settings(max_examples=30, deadline=None)
    def test_normal_phase_choice_is_admissible(self, perm, tail):
        # force every row to its own column parity so normal pairs exist;
        # a tail of 8 is the whole stage up to width 4, so position 0
        # searches to the phase end there
        aligned = sample(perm.width, seed=perm.entries[0], kind="parity_aligned")
        cfg = SynthesisConfig(exhaustive_tail=tail)
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
    """The paper's conjoin-plus-slide gates for an in-region pair, from the
    oracle in tests/helpers.py, built the way ``_Engine.sequence`` builds
    them.  ``_Engine.allocate`` emits the same list (see
    ``test_allocate_emits_the_oracle_gates``)."""
    gates = [Gate.from_masks(n, *m) for m in cons_masks(n, i, ca, cb)]
    moved = _destinations(n, gates)[ca]
    return gates + [Gate.from_masks(n, *m) for m in alloc_masks(n, i, moved)]


def _destinations(n, gates):
    """The column each column's contents reach once ``gates`` have run."""
    perm = Permutation(n, tuple(range(1 << n)))
    for g in gates:
        perm = apply_gate(perm, g)
    return positions(perm)


def _admissible(n, cols, i, kind):
    """The in-region (column, partner column) pairs of ``kind``."""
    top = findm(i, n) - 1  # the region's columns start with top 1-bits
    inside = {c for c in range(1 << n) if c >> (n - top) == (1 << top) - 1}
    return [
        (c, p) for c, p in cols
        if c in inside and p in inside and c % 2 == kind and p % 2 != kind
    ]


class TestScorerModel:
    """The scorer's mask triples stand in for the gates the engine emits."""

    @given(in_region_pairs())
    @example((4, 1, 10, 11))  # already a block: no conjoin
    @example((4, 2, 8, 15))  # a negatively controlled run that moves the even member
    @example((4, 4, 8, 15))  # conjoined into its slot: no slide
    @settings(max_examples=300, deadline=None)
    def test_allocate_emits_the_oracle_gates(self, case):
        # The engine splits ``_pair_gates``' triples into the paper's
        # conjoin-plus-slide list, gate for gate.
        n, i, ca, cb = case
        engine = _Engine(Permutation(n, tuple(range(1 << n))))  # row c at column c
        engine.allocate(i, ca, cb)
        conjoin = cons_masks(n, i, ca, cb)
        assert engine.gates == conjoin + alloc_masks(n, i, track(ca, conjoin))

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
            assert track(c, masks) == dest[c]
        assert {track(ca, masks), track(cb, masks)} == {2 * i, 2 * i + 1}
        assert cost == toffoli_count(GateSequence(n, tuple(gates)))

    @given(in_region_pairs())
    @settings(max_examples=300, deadline=None)
    def test_masks_keep_the_allocated_columns(self, case):
        # The induction in ``_make_selector``'s precondition: the columns
        # below 2i stay below it.
        n, i, ca, cb = case
        masks, _ = _pair_gates(n, i, ca, cb)
        assert sorted(track(c, masks) for c in range(2 * i)) == list(range(2 * i))

    @given(
        st.integers(3, 8),
        st.integers(0, 10_000),
        st.sampled_from([NORMAL, INVERTED]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_free_block_count_matches_running_every_mask(self, n, seed, kind, data):
        # ``_count_free`` ranks two candidates' slot-gap groups apart by as
        # many blocks as the engine's gates leave apart.
        pos = positions(sample(n, seed))
        i = data.draw(st.integers(0, (1 << (n - 1)) - 1))

        def pairs_and_cands():
            pairs = [(pos[r], pos[r + 1]) for r in range(0, 1 << n, 2)]
            return pairs, _admissible(n, pairs, i, kind)

        pairs, cands = pairs_and_cands()
        if not cands:
            return
        ca, cb = data.draw(st.sampled_from(cands))
        if data.draw(st.booleans()):
            # Conjoin the drawn pair first: it stays a candidate, now at
            # slot gap 0.
            moved = _destinations(n, [Gate.from_masks(n, *m) for m in cons_masks(n, i, ca, cb)])
            pos = [moved[c] for c in pos]
            ca, cb = moved[ca], moved[cb]
            pairs, cands = pairs_and_cands()
            assert ca ^ cb == 1 and (ca, cb) in cands

        def left_free(pair):
            dest = _destinations(n, _emitted(n, i, min(pair), max(pair)))
            return sum(
                1 for c, p in pairs
                if (c, p) != pair and dest[c] ^ dest[p] == 1 and dest[c] & 1 == kind
            )

        groups: dict = {}  # slot gap -> the mask of its candidates' even rows
        for k, pair in enumerate(pairs):
            if pair in cands:
                gap = (pair[0] ^ pair[1]) >> 1
                groups[gap] = groups.get(gap, 0) | 1 << 2 * k
        rank = dict(zip(groups, _count_free(list(groups.values()))))
        other = data.draw(st.sampled_from(cands))
        ranks = [rank[(c ^ p) >> 1] for c, p in ((ca, cb), other)]
        assert ranks[0] - ranks[1] == left_free((ca, cb)) - left_free(other)


@st.composite
def pair_states(draw, max_width=9):
    """(n, i, pairs, perm): the unallocated pairs at position i of a column
    layout drawn from all blocks (of one kind) through fully random, and
    the whole layout as a permutation."""
    n = draw(st.integers(3, max_width))
    size = 1 << n
    flip = draw(st.sampled_from([0, 1]))  # 1 makes every block inverted
    pos = [c ^ flip for c in range(size)]
    for _ in range(draw(st.integers(0, size))):
        a, b = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        pos[a], pos[b] = pos[b], pos[a]
    i = draw(st.integers(0, (1 << (n - 1)) - 1))
    pairs = [(r, pos[r], pos[r + 1]) for r in range(0, size, 2) if pos[r] >= 2 * i]
    entries = [0] * size
    for r, c in enumerate(pos):
        entries[c] = r
    return n, i, pairs, Permutation(n, tuple(entries))


def _priced_one_by_one(n, cols, i, kind, budget):
    """A depth-1 search's value and tied column pairs, pricing each
    admissible pair with its masks."""
    prices = {(c, p): _pair_gates(n, i, c, p)[1] for c, p in _admissible(n, cols, i, kind)}
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
        assert _price_leaves(n, [(c, p)], i, c & 1, math.inf) == _pair_gates(n, i, ca, cb)[1]

    @given(pair_states(), st.sampled_from([NORMAL, INVERTED]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_depth_one_matches_pricing_each_candidate(self, state, kind, data):
        n, i, pairs, perm = state
        cols = [(c, p) for _, c, p in pairs]
        best, tied = _priced_one_by_one(n, cols, i, kind, math.inf)
        # Budgets at or below the best must fail the search.
        budget = data.draw(st.one_of(st.just(math.inf), st.integers(0, best + 2)))
        # The last position of a phase: a node whose children are leaves.
        got = _suffix(n, cols, i, i + 1, kind, budget, _NoTable(), {})
        assert got == _priced_one_by_one(n, cols, i, kind, budget)[0]
        # A root reads the planes: it picks one of the cheapest.
        pick = _choose_leaf(_Engine(perm), i, kind)
        rows = {(c, p): (r, r + 1) if c < p else (r + 1, r) for r, c, p in pairs}
        assert pick in {rows[t] for t in tied} if tied else pick is None

    @given(pair_states(max_width=7), st.sampled_from([NORMAL, INVERTED]), st.integers(2, 3))
    @settings(max_examples=150, deadline=None)
    def test_root_census_matches_a_rescan(self, state, kind, left):
        # The groups that a root hands ``_count_free``, leaf and searched
        # alike: its candidates' even rows, split by slot gap.  The searched
        # root's phase ends ``left`` positions on.
        n, i, pairs, perm = state
        phase_end = min(i + left, 1 << (n - 1))
        census = []
        count_free = synthesis._count_free

        def spy(groups):
            census.append(groups)
            return count_free(groups)

        engine = _Engine(perm)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "_count_free", spy)
            _choose_leaf(engine, i, kind)
            if i + 1 < phase_end:
                _lookahead_choose(engine, pairs, i, kind, phase_end, _NoTable(), {}, None)
        cands = set(_admissible(n, [(c, p) for _, c, p in pairs], i, kind))
        want: dict = {}  # slot gap -> the mask of its candidates' even rows
        for r, c, p in pairs:
            if (c, p) in cands:
                want[(c ^ p) >> 1] = want.get((c ^ p) >> 1, 0) | 1 << r
        assert all(sorted(groups) == sorted(want.values()) for groups in census)


def _layout(pos):
    """The permutation whose row r sits at column ``pos[r]``."""
    entries = [0] * len(pos)
    for r, c in enumerate(pos):
        entries[c] = r
    return Permutation(len(pos).bit_length() - 1, tuple(entries))


class TestLeafTies:
    """A leaf root whose candidates all tie ranks them on the planes: the
    slot gap the most candidates share, then the lowest row, and the
    member at the smaller column first.  Each case must agree with
    ``leaf_pick``, which ranks the columns themselves."""

    def check(self, pos, i, kind, want):
        perm = _layout(pos)
        n = perm.width
        assert leaf_pick(pairs_at(pos, i), _region_mask(n, i), kind) == want
        assert _choose_leaf(_Engine(perm), i, kind) == want

    def test_blocks_tie_with_the_other_pairs_at_position_0(self):
        # Position 0's conjoin is a free CX, so the blocks (gap 0, rows 2
        # and 4) cost what the pair at gap 1 (rows 0, 1) does, and the
        # bigger group wins although it holds no lowest row.
        self.check([0, 3, 4, 5, 6, 7, 1, 2], 0, NORMAL, (2, 3))
        # Here the gap-1 group (rows 0 and 4) outnumbers the one block
        # (rows 2, 3); row 0 sits at column 6, past row 1's 5.
        self.check([6, 5, 2, 3, 4, 7, 1, 0], 0, NORMAL, (1, 0))

    @pytest.mark.parametrize("flip", [0, 1])
    def test_equal_groups_go_to_the_lowest_row(self, flip):
        # Position 4 of width 4: the region is columns 8..15, the conjoin
        # costs a Toffoli and no block sits there.  Rows 0 and 6 share gap
        # 3, rows 2 and 4 gap 1: the group holding row 0 wins, and row 0
        # sits at the larger column.  Flipping every column's parity makes
        # every pair inverted and keeps the gaps and the column order.
        pos = [14, 9, 8, 11, 12, 15, 10, 13, *range(8)]
        kind = INVERTED if flip else NORMAL
        self.check([c ^ flip for c in pos], 4, kind, (1, 0))
        self.check([c ^ flip for c in pos], 4, kind ^ 1, None)


class TestSearchedTies:
    """A root whose children are searched ranks ``_suffix``'s tied pairs by
    the rule a leaf root ranks its own by: ``tie_pick`` over the tied set."""

    @given(
        pair_states(max_width=7), st.sampled_from([NORMAL, INVERTED]), st.sampled_from([2, 3, "half"])
    )
    @settings(max_examples=150, deadline=None)
    def test_pick_is_tie_pick_over_the_tied_set(self, state, kind, left):
        n, i, pairs, perm = state
        half = 1 << (n - 1)
        engine = _Engine(perm)
        if left == "half":
            # A phase ending at half, from at most five positions before it.
            i = max(i, half - 5)
            pairs = engine.pairs_from(i)
        phase_end = half if left == "half" else min(i + left, half)
        assume(i + 1 < phase_end)
        floor = _bound_for(n, pairs, i, kind, phase_end)
        tied: list = []
        cols = [(c, p) for _, c, p in pairs]
        _suffix(n, cols, i, phase_end, kind, math.inf, _NoTable(), {}, floor, tied)
        cands = candidates(pairs, _region_mask(n, i), kind)
        found = {tuple(sorted(pair)) for pair in tied}
        want = tie_pick(cands, [t for t in cands if t[2:] in found])
        assert _lookahead_choose(engine, pairs, i, kind, phase_end, {}, {}, floor) == want


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


@st.composite
def filled_states(draw, max_width=5, max_left=5):
    """(perm, i, kind) as in a phase that ends at 2^(n-1): blocks below
    column 2i, and from there on pairs of ``kind`` alone, filling every
    column."""
    n = draw(st.integers(3, max_width))
    half = 1 << (n - 1)
    kind = draw(st.sampled_from([NORMAL, INVERTED]))
    i = draw(st.integers(max(0, half - max_left), half - 1))
    evens = draw(st.permutations(range(2 * i, 1 << n, 2)))
    odds = draw(st.permutations(range(2 * i + 1, 1 << n, 2)))
    pos = []
    for q in range(i):
        pos += [2 * q ^ kind, 2 * q + 1 ^ kind]
    for even, odd in zip(evens, odds):
        pos += [odd, even] if kind else [even, odd]
    entries = [0] * (1 << n)
    for r, c in enumerate(pos):
        entries[c] = r
    return Permutation(n, tuple(entries)), i, kind


def _bound_for(n, pairs, i, kind, phase_end):
    """The ``_floor`` a selector hands this search, or None."""
    if phase_end == 1 << (n - 1) and fills_phase(n, pairs, i, kind):
        return _floor(n, i, phase_end)
    return None


class TestPairOrder:
    """Below the root a pair is its two columns, and the root ranks its
    ties by rows; no answer may depend on the order the pairs come in.
    The memo of pair gates must hold only ``_pair_gates``' answers."""

    @given(
        st.integers(3, 6),
        st.integers(0, 10_000),
        st.sampled_from([NORMAL, INVERTED]),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_root_pick_ignores_pair_order(self, n, seed, kind, data):
        engine = _Engine(sample(n, seed, data.draw(st.sampled_from(["uniform", "parity_aligned"]))))
        engine.emit(*data.draw(st.lists(mask_gates(n), max_size=6)))
        half = 1 << (n - 1)
        phase_end = data.draw(st.sampled_from([half // 2, half]))
        i = data.draw(st.integers(max(0, phase_end - 3), phase_end - 1))
        pairs = engine.pairs_from(i)
        shuffled = data.draw(st.permutations(pairs))
        if i + 1 >= phase_end:
            # A leaf root reads no pair list; its oracle ignores the order.
            want = leaf_pick(pairs, _region_mask(n, i), kind)
            assert leaf_pick(shuffled, _region_mask(n, i), kind) == want
            assert _choose_leaf(engine, i, kind) == want
            return
        floor = _bound_for(n, pairs, i, kind, phase_end)
        want = _lookahead_choose(engine, pairs, i, kind, phase_end, {}, {}, floor)
        assert _lookahead_choose(engine, shuffled, i, kind, phase_end, {}, {}, floor) == want

    @given(filled_states(max_width=6), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_root_pick_ignores_pair_order_in_a_bounded_tail(self, state, table, data):
        perm, i, kind = state
        n, half = perm.width, perm.size // 2
        engine = _Engine(perm)
        pairs = engine.pairs_from(i)
        shuffled = data.draw(st.permutations(pairs))
        if i + 1 == half:  # the last position: a leaf root
            want = leaf_pick(pairs, _region_mask(n, i), kind)
            assert leaf_pick(shuffled, _region_mask(n, i), kind) == want
            assert _choose_leaf(engine, i, kind) == want
            return
        floor = _bound_for(n, pairs, i, kind, half)
        assert floor is not None
        seen = {} if table else _NoTable()
        want = _lookahead_choose(engine, pairs, i, kind, half, seen, {}, floor)
        seen = {} if table else _NoTable()
        assert _lookahead_choose(engine, shuffled, i, kind, half, seen, {}, floor) == want

    @given(pair_states(max_width=6), st.sampled_from([NORMAL, INVERTED]), st.integers(1, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_child_value_ignores_pair_order(self, state, kind, left, data):
        n, i, pairs, _ = state
        cols = [(c, p) for _, c, p in pairs]
        shuffled = data.draw(st.permutations(cols))
        phase_end = min(i + left, 1 << (n - 1))
        budget = data.draw(st.one_of(st.just(math.inf), st.integers(0, 60)))
        want = _suffix(n, cols, i, phase_end, kind, budget, {}, {})
        assert _suffix(n, shuffled, i, phase_end, kind, budget, {}, {}) == want

    @given(filled_states(max_width=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_child_value_ignores_pair_order_in_a_bounded_tail(self, state, data):
        perm, i, kind = state
        n, half = perm.width, perm.size // 2
        cols = [(c, p) for _, c, p in _Engine(perm).pairs_from(i)]
        shuffled = data.draw(st.permutations(cols))
        floor = _floor(n, i, half)
        budget = data.draw(st.one_of(st.just(math.inf), st.integers(0, 60)))
        want = _suffix(n, cols, i, half, kind, budget, {}, {}, floor)
        assert _suffix(n, shuffled, i, half, kind, budget, {}, {}, floor) == want

    @pytest.mark.parametrize(
        "width, seed, cfg",
        [
            (6, 3, SynthesisConfig()),
            (7, 4, SynthesisConfig(exhaustive_tail=12)),
            (5, 5, SynthesisConfig(exhaustive_tail=16)),
        ],
    )
    def test_memo_entries_are_the_pair_gates(self, width, seed, cfg):
        # One memo per selector, shared by its selections and by no other
        # selector; after the phase every entry is ``_pair_gates``' answer.
        make, choose = synthesis._make_selector, synthesis._lookahead_choose
        current = [None]
        calls = []

        def spied_make(*args):
            select, number = make(*args), object()

            def spied_select(i):
                current[0] = number
                return select(i)

            return spied_select

        def spied_choose(engine, pairs, i, kind, phase_end, seen, gates, floor):
            calls.append((current[0], engine.n, gates))
            return choose(engine, pairs, i, kind, phase_end, seen, gates, floor)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "_make_selector", spied_make)
            mp.setattr(synthesis, "_lookahead_choose", spied_choose)
            synthesize(sample(width, seed), cfg)
        memo_of = {}
        for number, n, gates in calls:
            assert memo_of.setdefault(number, (n, gates))[1] is gates
        assert len({id(gates) for _, gates in memo_of.values()}) == len(memo_of)
        entries = [(n, key, got) for n, gates in memo_of.values() for key, got in gates.items()]
        assert entries
        for n, (i, c, p), got in entries:
            assert got == _pair_gates(n, i, c, p)


def _ref_candidates(p, i, kind):
    """The in-region pairs of ``kind`` as (smaller-column row, partner,
    smaller column, larger column), read off the permutation."""
    n = p.width
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


def _ref_allocated(p, i, cand):
    """The permutation once ``cand``'s emitted gates have run, and their
    Toffoli count."""
    gates = _emitted(p.width, i, cand[2], cand[3])
    for g in gates:
        p = apply_gate(p, g)
    return p, toffoli_count(GateSequence(p.width, tuple(gates)))


def _reference_cost(p, i, kind, phase_end, left):
    """The least Toffoli count over the next ``left`` positions (up to
    ``phase_end``), by brute force; a position with no candidate ends the
    count, as in the search."""
    if left == 0 or i >= phase_end:
        return 0
    moves = (_ref_allocated(p, i, c) for c in _ref_candidates(p, i, kind))
    return min(
        (cost + _reference_cost(q, i + 1, kind, phase_end, left - 1) for q, cost in moves),
        default=0,
    )


def _reference_choice(perm, i, kind, phase_end, depth):
    """The pair the lookahead should pick, by brute force on permutations.

    Each in-region pair of ``kind`` is allocated by applying its emitted
    gates; the best one has the least total Toffoli count over the next
    ``depth`` positions (up to ``phase_end``), then leaves the most blocks
    of ``kind`` after position i, then has the lowest rows.
    """

    def blocks_after(p, i):
        slots = (p.entries[2 * q : 2 * q + 2] for q in range(i + 1, p.size // 2))
        return sum(1 for lo, hi in slots if (lo, hi)[kind] % 2 == 0 and lo ^ hi == 1)

    scored = []
    for cand in _ref_candidates(perm, i, kind):
        q, cost = _ref_allocated(perm, i, cand)
        total = cost + _reference_cost(q, i + 1, kind, phase_end, depth - 1)
        scored.append((total, -blocks_after(q, i), min(cand[:2]), cand[:2]))
    return min(scored)[-1] if scored else None


class TestTailBound:
    """A search to the end of a phase ending at 2^(n-1) skips each child
    whose ``_floor`` bound reaches its budget.  That is exact only if no
    node of such a search runs dry, and only if the bound never exceeds
    what a child's positions cost."""

    @given(
        st.integers(3, 8),
        st.integers(0, 10_000),
        st.sampled_from(["uniform", "parity_aligned"]),
        st.sampled_from(["default", "tail-12", "whole-stage"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_phases_ending_at_half_never_run_dry(self, n, seed, sample_kind, config):
        if config == "whole-stage":
            n = min(n, 4)
        cfg = {
            "default": SynthesisConfig(),
            "tail-12": SynthesisConfig(exhaustive_tail=12),
            "whole-stage": SynthesisConfig(exhaustive_tail=1 << (n - 1)),
        }[config]
        choose, suffix = synthesis._lookahead_choose, synthesis._suffix

        def spied_choose(engine, pairs, i, kind, phase_end, seen, gates, floor):
            n = engine.n
            if phase_end == 1 << (n - 1):
                assert _admissible(n, [(c, p) for _, c, p in pairs], i, kind)
                # The selector's precondition holds at every searched root,
                # so the bound it puts on every search is exact.
                assert fills_phase(n, pairs, i, kind)
                assert floor is not None and i + 1 in floor
            return choose(engine, pairs, i, kind, phase_end, seen, gates, floor)

        def spied_suffix(n, cols, i, phase_end, kind, *rest):
            if phase_end == 1 << (n - 1) and i < phase_end:
                assert _admissible(n, cols, i, kind)
            return suffix(n, cols, i, phase_end, kind, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "_lookahead_choose", spied_choose)
            mp.setattr(synthesis, "_suffix", spied_suffix)
            synthesize(sample(n, seed, sample_kind), cfg)

    @given(filled_states(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bounded_search_matches_brute_force(self, state, data):
        perm, i, kind = state
        n, half = perm.width, perm.size // 2
        pairs = _Engine(perm).pairs_from(i)
        assert fills_phase(n, pairs, i, kind)
        want = _reference_cost(perm, i, kind, half, half - i)
        budget = data.draw(st.one_of(st.just(math.inf), st.integers(max(0, want - 2), want + 3)))
        cols = [(c, p) for _, c, p in pairs]
        floor = _floor(n, i, half)
        for seen in (_NoTable(), {}):
            got = _suffix(n, cols, i, half, kind, budget, seen, {}, floor)
            assert got == (want if want < budget else None)
        # The state meets the selector's precondition, so its bounded pick
        # is exact.
        select = _make_selector(_Engine(perm), kind, half, SynthesisConfig(exhaustive_tail=half))
        assert select(i) == _reference_choice(perm, i, kind, half, half - i)

    @given(filled_states(max_width=7, max_left=64), st.data())
    @settings(max_examples=100, deadline=None)
    def test_fills_phase_reads_the_premise(self, state, data):
        perm, i, kind = state
        n = perm.width
        pairs = _Engine(perm).pairs_from(i)
        assert fills_phase(n, pairs, i, kind)
        assert not fills_phase(n, pairs, i, kind ^ 1)
        assert not fills_phase(n, pairs[1:], i, kind)
        if len(pairs) > 1:
            # Two pairs trade columns of different parities: both interrupt.
            a, b = data.draw(st.permutations(range(len(pairs))))[:2]
            (ra, ca, pa), (rb, cb, pb) = pairs[a], pairs[b]
            broken = list(pairs)
            broken[a], broken[b] = (ra, ca, cb), (rb, pa, pb)
            assert not fills_phase(n, broken, i, kind)

    @pytest.mark.parametrize("seed", [93, 131, 197])
    def test_a_state_that_can_run_dry_is_not_bounded(self, seed):
        # Here a search from position 0 runs dry, and the bound would cut
        # the best pick; the unbounded search picks as the brute force does.
        # No reduction builds such a state: the selector bounds every search
        # of a phase ending at half, and
        # ``test_phases_ending_at_half_never_run_dry`` checks the premise at
        # each of them.
        perm = sample(3, seed)
        pairs = _Engine(perm).pairs_from(0)
        assert not fills_phase(3, pairs, 0, INVERTED)
        want = _reference_choice(perm, 0, INVERTED, 4, 4)
        engine = _Engine(perm)
        assert _lookahead_choose(engine, pairs, 0, INVERTED, 4, {}, {}, _floor(3, 0, 4)) != want
        assert _lookahead_choose(engine, pairs, 0, INVERTED, 4, {}, {}, None) == want

    def test_floor_sums_the_slides_and_keeps_the_conjoin(self):
        # Width 5, positions 5..7 (region 10000): slides with the
        # controls 111, 110 and 101, and a two-control conjoin.
        assert _floor(5, 5, 8) == {7: (3, 1), 6: (4, 1), 5: (5, 1)}
        # Positions 11..15: the conjoin grows with the region.
        assert [_floor(5, 11, 16)[j][1] for j in range(11, 16)] == [3, 3, 5, 5, 7]


@st.composite
def mixed_ties(draw):
    """(perm, i, phase_end, kind): a searched root whose tied candidates
    differ in their first position's cost (``_pair_gates``), so the search
    meets them out of row order.  A layout starts from all blocks of
    ``kind`` and takes random swaps; layouts are drawn until one has such a
    root two or three positions before its phase end."""
    rnd = draw(st.randoms(use_true_random=False))
    for _ in range(200):
        n = rnd.choice([4, 5])
        size = 1 << n
        kind = rnd.choice([NORMAL, INVERTED])
        pos = [c ^ kind for c in range(size)]
        for _ in range(rnd.randint(1, size)):
            a, b = rnd.randrange(size), rnd.randrange(size)
            pos[a], pos[b] = pos[b], pos[a]
        perm = _layout(pos)
        engine = _Engine(perm)
        roots = []
        for i in range(1, size // 2 - 1):
            cols = [(c, p) for _, c, p in engine.pairs_from(i)]
            for phase_end in range(i + 2, min(i + 3, size // 2) + 1):
                tied: list = []
                _suffix(n, cols, i, phase_end, kind, math.inf, _NoTable(), {}, None, tied)
                if len({_pair_gates(n, i, c, p)[1] for c, p in tied}) > 1:
                    roots.append((i, phase_end))
        if roots:
            return (perm, *rnd.choice(roots), kind)
    reject()


def _searched_pick(perm, i, kind, phase_end):
    """``_lookahead_choose``'s pick at position i of ``perm``, bounded as a
    selector bounds it where the state meets the premise."""
    engine = _Engine(perm)
    pairs = engine.pairs_from(i)
    floor = _bound_for(perm.width, pairs, i, kind, phase_end)
    return _lookahead_choose(engine, pairs, i, kind, phase_end, {}, {}, floor)


def _outcome(f, *args):
    """``f(*args)``, or the type of the ``ValueError`` it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e)


class TestOneSearch:
    """Depth-1 roots and the exact tail pick as one branch and bound would;
    a pick must match a brute-force enumeration that never touches the
    scorer."""

    @given(
        st.integers(3, 5),
        st.integers(0, 10_000),
        st.sampled_from(["uniform", "parity_aligned"]),
        st.sampled_from([NORMAL, INVERTED]),
        st.sampled_from([1, 2, 3, "tail"]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_pick_matches_brute_force(self, n, seed, sample_kind, kind, left, data):
        perm = sample(n, seed, sample_kind)
        phase_end = data.draw(st.sampled_from([perm.size // 4, perm.size // 2]))
        if left == 1:
            # a depth-1 root before the tail
            i = data.draw(st.integers(0, phase_end - 1))
            cfg = SynthesisConfig(exhaustive_tail=0)
        elif left == "tail":
            # the exhaustive tail covers the stage: the search runs to phase_end
            i = data.draw(st.integers(max(0, phase_end - 5), phase_end - 1))
            cfg = SynthesisConfig(exhaustive_tail=1 << (n - 1))
        else:
            # a tail root anywhere, of a phase that ends ``left`` positions on
            i = data.draw(st.integers(0, phase_end - 1))
            phase_end = min(i + left, phase_end)
            cfg = SynthesisConfig(exhaustive_tail=1 << (n - 1))
        engine = _Engine(perm)
        pairs = engine.pairs_from(i)
        want = _reference_choice(perm, i, kind, phase_end, 1 if left == 1 else phase_end - i)
        searched = left != 1 and i + 1 < phase_end
        if searched and phase_end == perm.size // 2 and not fills_phase(n, pairs, i, kind):
            # No reduction's final phase holds this state, so the selector's
            # bound does not apply: the unbounded search must match.
            assert _lookahead_choose(engine, pairs, i, kind, phase_end, {}, {}, None) == want
            return
        if want is None:
            # No admissible pair in the region: the selector takes the plain pick.
            want = _outcome(_pick_rows, engine, i, kind)
        assert _outcome(_make_selector(engine, kind, phase_end, cfg), i) == want

    @given(mixed_ties())
    @settings(max_examples=60, deadline=None)
    def test_ties_of_different_first_costs_pick_by_the_rule(self, state):
        # The tie-break ranks the tied pairs as ``tie_pick`` does, never by
        # the order the search met them in.
        perm, i, phase_end, kind = state
        want = _reference_choice(perm, i, kind, phase_end, phase_end - i)
        assert _searched_pick(perm, i, kind, phase_end) == want

    @pytest.mark.parametrize("seed, phase_end, i", [(35, 4, 1), (77, 8, 3)])
    def test_ties_reached_through_different_first_costs(self, seed, phase_end, i):
        # Here tied candidates differ in their first position's cost, so the
        # search meets them out of row order; the tie-break must not.
        perm = sample(4, seed, "parity_aligned")
        want = _reference_choice(perm, i, NORMAL, phase_end, phase_end - i)
        assert _searched_pick(perm, i, NORMAL, phase_end) == want


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
        # One table serves one phase end, at most three positions on.
        phase_end = data.draw(st.integers(i + 1, min(i + 3, phase_end)))
        cols = [(c, p) for _, c, p in _Engine(perm).pairs_from(i)]
        # The root and two of its children, so later calls meet states that
        # earlier ones stored.
        states = [(i, cols)]
        for pair in _admissible(n, cols, i, kind)[:2]:
            if i + 1 < phase_end:
                masks, _ = _pair_gates(n, i, *pair)
                states.append((i + 1, _advance(cols, pair, masks)))
        calls = []
        for _ in range(data.draw(st.integers(1, 6))):
            k = data.draw(st.integers(0, len(states) - 1))
            at, state = states[k]
            best = _suffix(n, state, at, phase_end, kind, math.inf, _NoTable(), {})
            # Budgets near the best meet the entries at their edges.
            budget = data.draw(st.one_of(st.integers(max(1, best - 2), best + 2), st.just(math.inf)))
            calls.append((budget, k))
        if falling:
            calls.sort(key=lambda call: -call[0])
        seen: dict = {}
        gates: dict = {}
        for budget, k in calls:
            at, state = states[k]
            want = _suffix(n, state, at, phase_end, kind, budget, _NoTable(), {})
            for _ in range(2):  # the repeat is answered from the table
                assert _suffix(n, state, at, phase_end, kind, budget, seen, gates) == want

    @given(
        st.integers(3, 6),
        st.integers(0, 10_000),
        st.sampled_from(["uniform", "parity_aligned"]),
        st.sampled_from([0, 1]),
        st.sampled_from([4, 9, 12]),
    )
    @settings(max_examples=20, deadline=None)
    def test_phase_long_table_picks_as_a_fresh_one(self, n, seed, sample_kind, depth, tail):
        choose = synthesis._lookahead_choose

        def checked(engine, pairs, i, kind, phase_end, seen, gates, floor):
            got = choose(engine, pairs, i, kind, phase_end, seen, gates, floor)
            assert got == choose(engine, pairs, i, kind, phase_end, {}, {}, floor)
            return got

        cfg = SynthesisConfig(depths={j: depth for j in range(1, 25)}, exhaustive_tail=tail)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "_lookahead_choose", checked)
            synthesize(sample(n, seed, sample_kind), cfg)


# ---------------------------------------------------------------------------
# Full pipeline


def _swapped_pairs(entries) -> tuple[int, ...]:
    """Each column pair's entries exchanged: every row changes column parity."""
    out = list(entries)
    out[::2], out[1::2] = entries[1::2], entries[::2]
    return tuple(out)


# path -> (entries at (width, seed), the phase calls the stage makes)
STAGE_PATHS = {
    "all-normal": (
        lambda w, s: sample(w, s, "parity_aligned").entries, ["_run_normal"],
    ),
    "all-inverted": (
        lambda w, s: _swapped_pairs(sample(w, s, "parity_aligned").entries), ["_run_normal"],
    ),
    "balanced": (balanced_entries, ["_run_general"]),
    "half-interrupting": (half_interrupting_entries, ["_run_preprocess", "_run_general"]),
    "mixed": (
        lambda w, s: sample(w, s).entries, ["_mix_engine", "_run_preprocess", "_run_general"],
    ),
}


class TestStage:
    """``_stage`` on each dispatch path of the census: the expected phases
    run, the gate ledger adds up, and the state it leaves strips."""

    @pytest.mark.parametrize("path", sorted(STAGE_PATHS))
    @given(st.integers(3, 8), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_dispatch_and_ledger(self, path, width, seed):
        build, phases = STAGE_PATHS[path]
        engine = _Engine(Permutation(width, build(width, seed)))
        pairs = engine.size // 2
        normal, inverted = _pair_split(engine)
        if path == "mixed":  # a uniform map lands on another path now and then
            assume(pairs not in (normal, inverted) and normal + inverted != pairs // 2)
            assume((normal, inverted) != (pairs // 2, pairs // 2))  # not balanced
        called = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_mix_engine", "_run_preprocess", "_run_normal", "_run_general"):
                def spy(*args, _name=name, _real=getattr(synthesis, name)):
                    called.append(_name)
                    return _real(*args)
                mp.setattr(synthesis, name, spy)
            stage = _stage(engine, SynthesisConfig())
        assert called == phases
        assert stage.width == width
        if path == "all-inverted":
            assert engine.gates[:stage.mix_gates] == [(0, 0, 1)]  # X on the last line
        assert (stage.mix_gates > 0) == (path in ("all-inverted", "mixed"))
        assert (stage.pre_gates > 0) == (path in ("half-interrupting", "mixed"))
        assert stage.mix_gates + stage.pre_gates + stage.red_gates == len(engine.gates)
        assert stage.toffoli == toffoli_count(engine.sequence())
        engine.strip()
        assert engine.n == width - 1

    @pytest.mark.parametrize("cfg", [SynthesisConfig(), DEPTH_ZERO], ids=["default", "d0t0"])
    @given(st.integers(3, 7), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_stage_ledgers_partition_the_record(self, cfg, width, seed):
        # One engine runs every stage, as ``synthesize`` drives it, and keeps
        # one record.  Each stage's ledger is the slice it appended, cut
        # where preprocessing and the reduction start.
        perm = sample(width, seed)
        engine = _Engine(perm)
        starts = []

        def spy(real):
            def run(engine, *selectors):
                starts.append(len(engine.gates))
                return real(engine, *selectors)
            return run

        stages = []
        start = 0
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_run_preprocess", "_run_normal", "_run_general"):
                mp.setattr(synthesis, name, spy(getattr(synthesis, name)))
            for _ in range(width, 2, -1):
                lifts, lift_toffoli = engine.region_lifts, engine.lift_toffoli
                starts.clear()
                stage = _stage(engine, cfg)
                end = len(engine.gates)
                parts = (starts[0] - start, starts[-1] - starts[0], end - starts[-1])
                assert (stage.mix_gates, stage.pre_gates, stage.red_gates) == parts
                piece = tuple(Gate.from_masks(width, *g) for g in engine.gates[start:end])
                assert stage.toffoli == toffoli_count(GateSequence(width, piece))
                assert stage.region_lifts == engine.region_lifts - lifts
                assert stage.lift_toffoli == engine.lift_toffoli - lift_toffoli
                stages.append(stage)
                engine.strip()
                start = end
        endgame = search_two_bit(engine.snapshot())
        engine.emit(*(g.masks() for g in endgame))
        assert start + len(endgame) == len(engine.gates)
        seq = engine.sequence()
        assert circuit_table(width, as_plain(seq)) == list(perm.entries)
        assert tuple(stages) == synthesize(perm, cfg)[1].stages


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
        with pytest.raises(ValueError, match=r"must be (non-negative|within 1\.\.24|0 or 1), got"):
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
        # 1.0 and True equal 1 but are no depth.
        message = "lookahead depths must be 0 or 1" if "depths" in kwargs else "must be of type int"
        with pytest.raises(ValueError, match=f"{message}, got"):
            SynthesisConfig(**kwargs)

    @pytest.mark.parametrize("depth", [2, 3, 9])
    def test_depths_past_one_rejected(self, depth):
        # A search deeper than one position runs only in the exhaustive tail.
        with pytest.raises(ValueError, match=f"^lookahead depths must be 0 or 1, got {depth}$"):
            SynthesisConfig(depths={3: depth})

    @pytest.mark.parametrize("key", [3.5, 3.0, "3", True])
    def test_non_integer_buckets_rejected(self, key):
        # depth_for looks buckets up by int, so such a depth is never used.
        with pytest.raises(ValueError, match="buckets must be of type int, got"):
            SynthesisConfig(depths={key: 0})

    def test_depth_for_buckets_by_row_count(self):
        cfg = SynthesisConfig(depths={3: 0})
        # j = (r-1).bit_length(): rows 5..8 land in bucket 3
        assert cfg.depth_for(4) == 1
        assert cfg.depth_for(5) == 0
        assert cfg.depth_for(8) == 0
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
