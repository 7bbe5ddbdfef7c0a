"""Gate and permutation primitives, checked against an independent simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksynth import (
    Gate,
    GateSequence,
    InternalError,
    MAX_WIDTH,
    NotABijection,
    Permutation,
    WidthMismatch,
    apply_gate,
    cx,
    sample,
    toffoli,
    toffoli_count,
    verify_identity,
    x,
)
from blocksynth import core
from blocksynth.reduction import _Engine
from helpers import (
    apply_sequence,
    as_plain,
    circuit_table,
    independent_parity,
    mct,
    sim_circuit,
)


@st.composite
def permutations(draw, min_width=1, max_width=4):
    width = draw(st.integers(min_width, max_width))
    entries = draw(st.permutations(tuple(range(1 << width))))
    return Permutation(width, tuple(entries))


@st.composite
def gates(draw, width):
    target = draw(st.integers(1, width))
    others = [l for l in range(1, width + 1) if l != target]
    picked = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others))) if others else []
    controls = tuple((l, draw(st.booleans())) for l in picked)
    return Gate(width, target, controls)


@st.composite
def shuffled(draw, min_width=1, max_width=9):
    """A permutation drawn by seed, cheap at widths where listing is not."""
    width = draw(st.integers(min_width, max_width))
    entries = list(range(1 << width))
    random.Random(draw(st.integers(0, 2**32))).shuffle(entries)
    return Permutation(width, tuple(entries))


@st.composite
def perm_and_gates(draw, max_gates=6):
    perm = draw(permutations(min_width=1, max_width=4))
    gs = draw(st.lists(gates(perm.width), max_size=max_gates))
    return perm, GateSequence(perm.width, tuple(gs))


class TestGateBasics:
    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            Gate(3, 4)
        with pytest.raises(ValueError):
            Gate(3, 0)

    def test_control_equals_target(self):
        with pytest.raises(ValueError):
            Gate(3, 2, ((2, True),))

    def test_duplicate_control(self):
        with pytest.raises(ValueError):
            Gate(3, 1, ((2, True), (2, False)))

    def test_control_out_of_range(self):
        with pytest.raises(ValueError):
            Gate(3, 1, ((5, True),))

    def test_masks(self):
        g = mct(3, [(1, True), (3, False)], 2)
        ones, zeros, tmask = g.masks()
        assert (ones, zeros, tmask) == (0b100, 0b001, 0b010)

    def test_str_forms(self):
        assert str(x(3, 2)) == "X@2"
        assert str(cx(3, 1, 3)) == "C(1)X@3"
        assert str(mct(3, [(1, True), (3, False)], 2)) == "C(1,!3)X@2"

    @given(st.integers(1, 8).flatmap(lambda w: gates(w)))
    def test_equal_gates_built_apart_hash_alike(self, g):
        # The hash is computed once per gate; a gate rebuilt from its masks
        # or its fields must still find the original in a dict.
        rebuilt = Gate.from_masks(g.width, *g.masks())
        twin = Gate(g.width, g.target, tuple(sorted(g.controls)))
        assert rebuilt == twin and hash(rebuilt) == hash(twin)
        assert {twin: 1}[rebuilt] == 1
        assert hash(g) == hash((g.width, g.target, g.controls))

    def test_from_masks_hand_value(self):
        assert Gate.from_masks(3, 0b100, 0b001, 0b010) == mct(3, [(1, True), (3, False)], 2)

    @pytest.mark.parametrize("tmask", [0, 0b11, 0b101])
    def test_from_masks_needs_one_target_line(self, tmask):
        # A gate has one target: a mask of none or of two lines is no gate.
        with pytest.raises(ValueError, match="must hold exactly one line"):
            Gate.from_masks(4, 8, 0, tmask)

    @pytest.mark.parametrize("ones, zeros", [(4, 4), (6, 4), (4, 6)])
    def test_from_masks_refuses_a_line_both_one_and_zero(self, ones, zeros):
        # Line 1 must be 1 and 0 at once: no positive control means that.
        with pytest.raises(ValueError, match="share a line"):
            Gate.from_masks(3, ones, zeros, 1)

    @given(st.integers(1, 8).flatmap(lambda w: gates(w)))
    def test_from_masks_inverts_masks(self, g):
        # controls come back in ascending line order
        ordered = Gate(g.width, g.target, tuple(sorted(g.controls)))
        assert Gate.from_masks(g.width, *g.masks()) == ordered


class TestPermutationBasics:
    def test_identity(self):
        p = Permutation(3, tuple(range(8)))
        assert p.entries == tuple(range(8)) and p.size == 8

    def test_from_entries_rejects_non_bijection(self):
        with pytest.raises(NotABijection):
            Permutation(2, (0, 0, 2, 3))
        with pytest.raises(NotABijection):
            Permutation(2, (0, 1, 2))  # too few entries for the width

    def test_from_entries_rejects_out_of_range(self):
        with pytest.raises(NotABijection):
            Permutation(2, (0, 1, 2, 7))

    @pytest.mark.parametrize("entries", [(0, 1, 2, 3.0), (0, 1, "2", 3), (False, True)])
    def test_rejects_entries_that_are_not_ints(self, entries):
        # 3.0 == 3, so a float entry passes the bijection check and only
        # fails later, as an index.
        with pytest.raises(NotABijection, match="must be ints"):
            Permutation(len(entries).bit_length() - 1, entries)

    @pytest.mark.parametrize("width", [2.0, "2", None])
    def test_rejects_a_width_that_is_not_an_int(self, width):
        with pytest.raises(ValueError, match="width must be an int"):
            Permutation(width, (0, 1, 2, 3))

    def test_width_cap(self):
        with pytest.raises(ValueError):
            Permutation(MAX_WIDTH + 1, ())
        with pytest.raises(ValueError):
            Permutation(0, ())

    def test_a_list_of_entries_is_copied(self):
        # The bijection check passes on the list; a later change to it must
        # not reach the permutation.
        entries = [1, 0, 2, 3]
        p = Permutation(2, entries)
        entries[0] = 0
        assert p.entries == (1, 0, 2, 3)

    def test_a_list_built_permutation_is_the_tuple_built_one(self):
        p, q = Permutation(2, [1, 0, 2, 3]), Permutation(2, (1, 0, 2, 3))
        assert p == q and hash(p) == hash(q)


class TestGateSequenceBasics:
    def test_a_list_of_gates_is_copied(self):
        # The census is cached on first use; a gate appended to the
        # caller's list later must reach neither ``len`` nor the census.
        gates = [x(3, 1), toffoli(3, 1, 2, 3)]
        seq = GateSequence(3, gates)
        assert toffoli_count(seq) == 1
        gates.append(toffoli(3, 1, 3, 2))
        assert len(seq) == 2 and seq.gates == tuple(gates[:2])
        assert toffoli_count(seq) == toffoli_count(GateSequence(3, tuple(gates[:2]))) == 1


class TestHandVerifiedApplication:
    """Column-swap semantics on the fixed map (7,2,0,1,5,3,6,4)."""

    P = Permutation(3, (7, 2, 0, 1, 5, 3, 6, 4))

    def test_toffoli_swaps_last_two_columns(self):
        q = apply_gate(self.P, toffoli(3, 1, 2, 3))
        assert q.entries == (7, 2, 0, 1, 5, 3, 4, 6)

    def test_cx_lsb_controls_msb_target(self):
        q = apply_gate(self.P, cx(3, 3, 1))
        assert q.entries == (7, 3, 0, 4, 5, 2, 6, 1)

    def test_negative_control(self):
        q = apply_gate(self.P, mct(3, [(1, True), (2, False)], 3))
        assert q.entries == (7, 2, 0, 1, 3, 5, 6, 4)

    def test_uncontrolled_x(self):
        q = apply_gate(self.P, x(3, 2))
        assert q.entries == (0, 1, 7, 2, 6, 4, 5, 3)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            apply_gate(self.P, x(4, 2))


class TestRunCircuit:
    """The reference simulator runs a circuit on hand-worked inputs."""

    SEQ = GateSequence(3, (toffoli(3, 1, 2, 3), cx(3, 1, 2), x(3, 1)))

    @pytest.mark.parametrize(
        "x_in,x_out", [(6, 1), (0, 4), (7, 0), (3, 7)]
    )
    def test_hand_vectors(self, x_in, x_out):
        assert sim_circuit(3, as_plain(self.SEQ), x_in) == x_out


class TestFiveGateIdentity:
    """A hand-worked example tying column application to circuit execution.

    Applying the five gates below to (3,6,4,1,2,7,0,5) reaches the identity,
    and running them as a circuit reproduces that map on every input.
    """

    SEQ = GateSequence(
        3, (x(3, 1), cx(3, 1, 3), toffoli(3, 1, 2, 3), cx(3, 3, 1), x(3, 2))
    )
    P = Permutation(3, (3, 6, 4, 1, 2, 7, 0, 5))

    def test_reaches_identity(self):
        assert verify_identity(self.P, self.SEQ)

    def test_circuit_computes_the_map(self):
        assert circuit_table(3, as_plain(self.SEQ)) == list(self.P.entries)

    def test_intermediate_states(self):
        p = Permutation(3, tuple(range(8)))
        states = []
        for g in self.SEQ:
            p = apply_gate(p, g)
            states.append(p.entries)
        assert states == [
            (4, 5, 6, 7, 0, 1, 2, 3),
            (4, 5, 6, 7, 1, 0, 3, 2),
            (4, 5, 6, 7, 1, 0, 2, 3),
            (4, 0, 6, 3, 1, 5, 2, 7),
            (6, 3, 4, 0, 2, 7, 1, 5),
        ]


class TestAgainstIndependentSimulator:
    @given(perm_and_gates())
    @settings(max_examples=150)
    def test_dual_reading(self, pg):
        """The circuit computing P is exactly the sequence mapping P to I."""
        _, seq = pg
        table = circuit_table(seq.width, as_plain(seq))
        computed = Permutation(seq.width, tuple(table))
        assert verify_identity(computed, seq)

    @given(permutations(), st.data())
    @settings(max_examples=150)
    def test_involution(self, perm, data):
        g = data.draw(gates(perm.width))
        assert apply_gate(apply_gate(perm, g), g) == perm


class TestParity:
    """The reference sign pinned to hand values, then each gate's effect on
    it."""

    def test_identity_even(self):
        assert independent_parity(range(8)) == "even"

    def test_single_swap_odd(self):
        assert independent_parity((1, 0, 2, 3)) == "odd"

    def test_three_cycle_even(self):
        assert independent_parity((1, 2, 0, 3)) == "even"

    @given(permutations(), st.data())
    @settings(max_examples=100)
    def test_gate_parity_contribution(self, perm, data):
        """A gate swaps 2^(n-1-c) disjoint column pairs, c = control count."""
        g = data.draw(gates(perm.width))
        swaps = 1 << (perm.width - 1 - g.control_count)
        before = independent_parity(perm.entries)
        after = independent_parity(apply_gate(perm, g).entries)
        flipped = before != after
        assert flipped == (swaps % 2 == 1)


class TestReduceWidth:
    """``_Engine.strip`` turns a Q ⊗ I_2 state into Q in place."""

    @staticmethod
    def stripped(p):
        engine = _Engine(p)
        engine.strip()
        return engine

    def test_identity(self):
        identity = Permutation(3, tuple(range(8)))
        assert self.stripped(identity).snapshot() == Permutation(2, (0, 1, 2, 3))

    def test_blockwise_map(self):
        engine = self.stripped(Permutation(2, (2, 3, 0, 1)))
        assert engine.snapshot() == Permutation(1, (1, 0))
        assert (engine.n, engine.size, engine.pos) == (1, 2, [1, 0])

    def test_rejects_odd_low_entry(self):
        with pytest.raises(InternalError, match="internal error: columns 0,1 hold rows 1,0"):
            self.stripped(Permutation(2, (1, 0, 2, 3)))


class TestSample:
    def test_deterministic(self):
        assert sample(5, seed=7) == sample(5, seed=7)
        assert sample(5, seed=7) != sample(5, seed=8)

    def test_kinds_differ(self):
        assert sample(5, 3, "uniform") != sample(5, 3, "parity_aligned")

    @given(st.integers(1, 6), st.integers(0, 50))
    @settings(max_examples=60)
    def test_parity_aligned_property(self, width, seed):
        p = sample(width, seed, "parity_aligned")
        assert all((r ^ c) & 1 == 0 for c, r in enumerate(p.entries))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sample(3, 0, "weird")

    @pytest.mark.parametrize("width", [2.0, "3", -1, 0, 5])
    def test_width_checked_before_any_row_is_built(self, width, monkeypatch):
        # With the cap lowered to 4, width 5 stands in for a width too wide
        # to build; a shuffle means rows were allocated before the check.
        monkeypatch.setattr(core, "MAX_WIDTH", 4)

        def refuse(self, rows):
            raise RuntimeError("rows built before the width check")

        monkeypatch.setattr(random.Random, "shuffle", refuse)
        with pytest.raises(ValueError, match="^width must be"):
            sample(width, 0)


class TestVerifyIdentity:
    def test_positive(self):
        p = Permutation(2, (1, 0, 2, 3))
        assert verify_identity(p, GateSequence(2, (mct(2, [(1, False)], 2),)))

    def test_negative(self):
        p = Permutation(2, (1, 0, 2, 3))
        assert not verify_identity(p, GateSequence(2, (x(2, 2),)))

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            verify_identity(Permutation(2, tuple(range(4))), GateSequence(3))


def full_scan(entries, gate):
    """Reference gate application: test every column against the controls."""
    ones, zeros, tmask = gate.masks()
    for c in range(len(entries)):
        if c & tmask == 0 and c & ones == ones and c & zeros == 0:
            d = c | tmask
            entries[c], entries[d] = entries[d], entries[c]


class TestExchangeColumns:
    """``apply_gate``'s column map against a full scan over all 2^n
    columns."""

    @given(shuffled(), st.data())
    @settings(max_examples=200)
    def test_matches_full_scan(self, perm, data):
        gs = data.draw(st.lists(gates(perm.width), min_size=1, max_size=4))
        ref_entries = list(perm.entries)
        for g in gs:
            perm = apply_gate(perm, g)
            full_scan(ref_entries, g)
        assert list(perm.entries) == ref_entries


class TestPlaneTranspose:
    """``core._planes`` and ``core._values`` against the bit definition, on
    every byte-lane width up to ``MAX_WIDTH``."""

    @given(st.integers(1, 24), st.data())
    @settings(max_examples=200)
    def test_round_trip_matches_the_bits(self, width, data):
        values = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=40))
        planes = core._planes(values, width)
        assert planes == [
            sum((v >> b & 1) << x for x, v in enumerate(values)) for b in range(width)
        ]
        assert core._values(planes, len(values)) == values


class TestBitSlicedVerify:
    """``verify_identity`` against applying the sequence column by column."""

    @given(shuffled(max_width=7), st.data())
    @settings(max_examples=200)
    def test_agrees_with_apply_sequence(self, perm, data):
        gs = tuple(data.draw(st.lists(gates(perm.width), max_size=8)))
        seq = GateSequence(perm.width, gs)
        if data.draw(st.booleans(), label="realizable"):
            # Undoing seq on the identity gives the map seq realizes; an
            # optional transposition breaks it again.
            rev = GateSequence(perm.width, gs[::-1])
            perm = apply_sequence(Permutation(perm.width, tuple(range(perm.size))), rev)
            if data.draw(st.booleans(), label="tamper"):
                entries = list(perm.entries)
                a, b = data.draw(
                    st.lists(st.integers(0, perm.size - 1), min_size=2, max_size=2, unique=True)
                )
                entries[a], entries[b] = entries[b], entries[a]
                perm = Permutation(perm.width, tuple(entries))
        reached = apply_sequence(perm, seq)
        assert verify_identity(perm, seq) == (reached.entries == tuple(range(reached.size)))


class TestSimulatorSelfCheck:
    """Meta-checks pinning the reference simulator itself to hand values."""

    def test_sim_positive_and_negative_controls(self):
        # width 3: line 1 = bit 4.  C(1,!2)X@3 on 100 flips to 101.
        assert sim_circuit(3, [(3, ((1, True), (2, False)))], 0b100) == 0b101
        assert sim_circuit(3, [(3, ((1, True), (2, False)))], 0b110) == 0b110
