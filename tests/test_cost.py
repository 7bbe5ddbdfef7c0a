"""Cost accounting and multi-controlled-gate expansion tests.

Expansion correctness is judged by an independent bit-twiddling simulator
(tests/helpers.py): the expanded circuit must act on every input exactly
like the original gate, with work lines zeroed (clean policy) or holding
arbitrary junk that must be restored (dirty policy).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksynth import (
    CostTable,
    DEFAULT_TABLE,
    GateSequence,
    InternalError,
    MissingCostEntry,
    SynthesisConfig,
    cx,
    expand_mct,
    load_cost_table,
    quantum_cost,
    read_cost_table,
    resolve_table,
    sample,
    synthesize,
    toffoli,
    toffoli_count,
    x,
)
from blocksynth import cost

from helpers import as_plain, circuit_table, mct


# ---------------------------------------------------------------------------
# Toffoli-equivalent counting


class TestToffoliCount:
    def test_empty_sequence_is_free(self):
        assert toffoli_count(GateSequence(3, ())) == 0

    def test_small_gates_are_free(self):
        seq = GateSequence(3, (x(3, 1), cx(3, 1, 2), cx(3, 3, 1, positive=False)))
        assert toffoli_count(seq) == 0

    def test_hand_counted_values(self):
        # 2m-3 per gate with m >= 2 controls: 1, 3, 5, 7 for m = 2..5
        assert toffoli_count(GateSequence(3, (toffoli(3, 1, 2, 3),))) == 1
        assert toffoli_count(GateSequence(4, (mct(4, [1, 2, 3], 4),))) == 3
        assert toffoli_count(GateSequence(5, (mct(5, [1, 2, 3, 4], 5),))) == 5
        assert toffoli_count(GateSequence(6, (mct(6, [1, 2, 3, 4, 5], 6),))) == 7

    def test_polarity_does_not_change_the_count(self):
        pos = GateSequence(4, (mct(4, [1, 2, 3], 4),))
        neg = GateSequence(4, (mct(4, [(1, False), (2, False), (3, True)], 4),))
        assert toffoli_count(pos) == toffoli_count(neg) == 3

    def test_mixed_sequence_sums_contributions(self):
        seq = GateSequence(
            5,
            (
                x(5, 2),
                toffoli(5, 1, 2, 3),
                mct(5, [1, 2, 3, 4], 5),
                cx(5, 5, 1),
                mct(5, [2, 3, 4], 1),
            ),
        )
        assert toffoli_count(seq) == 0 + 1 + 5 + 0 + 3


# ---------------------------------------------------------------------------
# Quantum cost against a lookup table


class TestQuantumCost:
    def test_default_table_small_gates(self):
        assert quantum_cost(GateSequence(3, (x(3, 1),))) == 1
        assert quantum_cost(GateSequence(3, (cx(3, 1, 2),))) == 1
        assert quantum_cost(GateSequence(3, (toffoli(3, 1, 2, 3),))) == 5

    def test_default_table_larger_gates(self):
        assert quantum_cost(GateSequence(4, (mct(4, [1, 2, 3], 4),))) == 13
        assert quantum_cost(GateSequence(5, (mct(5, [1, 2, 3, 4], 5),))) == 29
        # five or more controls fall on the 5*(2m-3) line
        assert quantum_cost(GateSequence(6, (mct(6, [1, 2, 3, 4, 5], 6),))) == 35
        assert quantum_cost(GateSequence(7, (mct(7, list(range(1, 7)), 7),))) == 45
        assert quantum_cost(GateSequence(8, (mct(8, list(range(1, 8)), 8),))) == 55

    def test_polarity_never_changes_the_price(self):
        pos = GateSequence(4, (mct(4, [1, 2, 3], 4),))
        neg = GateSequence(4, (mct(4, [(1, False), (2, True), (3, False)], 4),))
        assert quantum_cost(pos) == quantum_cost(neg) == 13

    def test_sequence_sums_per_gate_costs(self):
        seq = GateSequence(4, (x(4, 1), cx(4, 1, 2), toffoli(4, 1, 2, 3), mct(4, [1, 2, 3], 4)))
        assert quantum_cost(seq) == 1 + 1 + 5 + 13

    def test_custom_table_changes_the_result(self):
        table = CostTable("flat", {0: 2, 1: 3, 2: 7})
        seq = GateSequence(3, (x(3, 1), cx(3, 1, 2), toffoli(3, 1, 2, 3)))
        assert quantum_cost(seq, table) == 2 + 3 + 7

    def test_missing_entry_raises_instead_of_guessing(self):
        table = CostTable("tiny", {0: 1, 1: 1})
        seq = GateSequence(3, (toffoli(3, 1, 2, 3),))
        with pytest.raises(MissingCostEntry):
            quantum_cost(seq, table)

    def test_missing_entry_is_a_key_error(self):
        assert issubclass(MissingCostEntry, KeyError)

    def test_a_table_keeps_its_own_copy_of_the_prices(self):
        prices = {0: 1, 1: 1, 2: 5}
        table = CostTable("x", prices)
        prices[2] = 999
        assert quantum_cost(GateSequence(3, (toffoli(3, 1, 2, 3),)), table) == 5

    def test_the_default_prices_are_read_only(self):
        prices = DEFAULT_TABLE.qc
        try:
            prices[2] = 999
        except TypeError:
            pass
        else:
            prices[2] = 5  # undone, so that no later test prices with 999
            pytest.fail("DEFAULT_TABLE's prices took a new entry")
        assert quantum_cost(GateSequence(3, (toffoli(3, 1, 2, 3),))) == 5

    def test_default_table_formula(self):
        # frozen shape of the built-in table
        assert DEFAULT_TABLE.qc[0] == 1
        assert DEFAULT_TABLE.qc[1] == 1
        assert DEFAULT_TABLE.qc[2] == 5
        assert DEFAULT_TABLE.qc[3] == 13
        assert DEFAULT_TABLE.qc[4] == 29
        for m in range(5, 24):
            assert DEFAULT_TABLE.qc[m] == 5 * (2 * m - 3)


class TestControlCountCensus:
    """Both counters read one census per sequence, kept out of equality and
    repr."""

    SEQ = (x(4, 1), toffoli(4, 1, 2, 3), mct(4, [1, 2, 3], 4), mct(4, [(1, False), 2, 4], 3))

    def test_counters_share_one_census(self):
        seq = GateSequence(4, self.SEQ)
        assert seq._census is None
        assert toffoli_count(seq) == 1 + 3 + 3
        census = seq._census
        assert census == {0: 1, 2: 1, 3: 2}
        assert quantum_cost(seq) == 1 + 5 + 13 + 13
        assert seq._census is census

    def test_census_is_not_compared_or_shown(self):
        counted = GateSequence(4, self.SEQ)
        toffoli_count(counted)
        fresh = GateSequence(4, self.SEQ)
        assert counted == fresh and hash(counted) == hash(fresh)
        assert repr(counted) == repr(fresh)
        assert "_census" not in repr(counted)

    def test_replace_starts_a_fresh_census(self):
        seq = GateSequence(4, self.SEQ)
        toffoli_count(seq)
        shorter = replace(seq, gates=self.SEQ[:1])
        assert shorter._census is None
        assert toffoli_count(shorter) == 0


# ---------------------------------------------------------------------------
# Cost-table parsing and resolution


class TestCostTableParsing:
    def test_parses_lines_comments_and_blanks(self):
        text = """
        # controls cost
        0 1
        1 2   # trailing comment
        2 9

        """
        table = load_cost_table(text, name="sample")
        assert table.name == "sample"
        assert table.qc == {0: 1, 1: 2, 2: 9}

    def test_rejects_a_control_count_given_twice(self):
        with pytest.raises(ValueError, match="^line 2: control count 2 given twice$"):
            load_cost_table("2 5\n2 7\n")

    def test_rejects_wrong_field_count(self):
        with pytest.raises(ValueError):
            load_cost_table("1 2 3\n")

    def test_rejects_non_integer_fields(self):
        with pytest.raises(ValueError):
            load_cost_table("one 2\n")
        with pytest.raises(ValueError):
            load_cost_table("1 two\n")

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            load_cost_table("-1 2\n")
        with pytest.raises(ValueError):
            load_cost_table("1 -2\n")

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            load_cost_table("# only a comment\n")

    def test_read_names_table_after_file(self, tmp_path):
        path = tmp_path / "mytable.qc"
        path.write_text("0 1\n1 1\n2 6\n")
        table = read_cost_table(str(path))
        assert table.name == "mytable.qc"
        assert table.cost_of(2) == 6

    def test_resolve_explicit_path_wins(self, tmp_path):
        explicit = tmp_path / "explicit.qc"
        explicit.write_text("2 100\n")
        assert resolve_table(str(explicit)).cost_of(2) == 100

    def test_resolve_default_when_nothing_set(self):
        assert resolve_table() is DEFAULT_TABLE


# ---------------------------------------------------------------------------
# Expansion into NOT/CNOT/Toffoli — clean (zeroed work lines) policy


def _widened_gate_table(gate, width: int) -> list[int]:
    """Independent table of a single gate acting on a wider register."""
    plain = [(gate.target, tuple(gate.controls))]
    return circuit_table(width, plain)


class TestCleanExpansion:
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_single_gate_spends_exactly_the_budget(self, m):
        n = m + 1
        gate = mct(n, list(range(1, m + 1)), n)
        result = expand_mct(GateSequence(gate.width, (gate,)), policy="clean")
        assert result.work_lines == m - 2
        assert toffoli_count(result.circuit) == 2 * m - 3
        assert all(g.control_count <= 2 for g in result.circuit)
        assert all(pos for g in result.circuit for _, pos in g.controls)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_single_gate_functional_equality(self, m):
        # Work lines are appended after the originals (less significant bits);
        # with those bits zero the expansion must act exactly like the gate
        # and hand the work lines back zeroed.
        n = m + 1
        gate = mct(n, list(range(1, m + 1)), n)
        result = expand_mct(GateSequence(gate.width, (gate,)), policy="clean")
        work = result.work_lines
        width = n + work
        assert result.circuit.width == width
        plain = as_plain(result.circuit)
        expected = _widened_gate_table(gate, n)
        table = circuit_table(width, plain)
        for col in range(1 << n):
            out = table[col << work]
            assert out & ((1 << work) - 1) == 0, "work lines must end zeroed"
            assert out >> work == expected[col]

    def test_negative_controls_are_conjugated_away(self):
        gate = mct(4, [(1, False), (2, True), (3, False)], 4)
        result = expand_mct(GateSequence(gate.width, (gate,)), policy="clean")
        # 2m-3 Toffolis plus an X pair per negative control
        assert toffoli_count(result.circuit) == 3
        assert sum(1 for g in result.circuit if g.control_count == 0) == 4
        width = 4 + result.work_lines
        plain = as_plain(result.circuit)
        expected = _widened_gate_table(gate, 4)
        table = circuit_table(width, plain)
        for col in range(1 << 4):
            out = table[col << result.work_lines]
            assert out & ((1 << result.work_lines) - 1) == 0
            assert out >> result.work_lines == expected[col]

    def test_small_gates_pass_through_without_work_lines(self):
        seq = GateSequence(3, (x(3, 2), cx(3, 1, 3), toffoli(3, 1, 2, 3)))
        result = expand_mct(seq, policy="clean")
        assert result.work_lines == 0
        assert result.circuit.width == 3
        assert list(result.circuit) == list(seq)

    def test_negative_small_gates_get_x_pairs(self):
        seq = GateSequence(3, (cx(3, 2, 3, positive=False),))
        result = expand_mct(seq, policy="clean")
        assert result.work_lines == 0
        plain = as_plain(result.circuit)
        expected = circuit_table(3, as_plain(seq))
        assert circuit_table(3, plain) == expected
        assert all(pos for g in result.circuit for _, pos in g.controls)

    def test_work_lines_sized_by_largest_gate(self):
        seq = GateSequence(
            6,
            (
                toffoli(6, 1, 2, 3),
                mct(6, [1, 2, 3, 4, 5], 6),
                mct(6, [1, 2, 3], 5),
            ),
        )
        result = expand_mct(seq, policy="clean")
        assert result.work_lines == 5 - 2

    def test_whole_sequence_functional_equality(self):
        seq = GateSequence(
            5,
            (
                mct(5, [1, 2, 3], 5),
                cx(5, 5, 2),
                mct(5, [(2, False), (3, True), (4, True), (5, False)], 1),
                x(5, 4),
            ),
        )
        result = expand_mct(seq, policy="clean")
        work = result.work_lines
        width = 5 + work
        expected = circuit_table(5, as_plain(seq))
        table = circuit_table(width, as_plain(result.circuit))
        for col in range(1 << 5):
            out = table[col << work]
            assert out & ((1 << work) - 1) == 0
            assert out >> work == expected[col]


# ---------------------------------------------------------------------------
# Expansion — dirty (borrowed lines) policy


class TestDirtyExpansion:
    DIRTY_TOFFOLIS = {3: 4, 4: 10, 5: 16, 6: 24, 7: 32}

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("extra", [1, 2])
    def test_single_gate_equivalence_for_all_junk_values(self, m, extra):
        # n = m+1 forces an appended scratch line; n = m+2 borrows an
        # existing idle line.  Checking the full table over every input
        # exercises every junk value on the borrowed lines, so "restored
        # no matter the prior value" is tested for both ancilla settings.
        n = m + extra
        gate = mct(n, list(range(1, m + 1)), n)
        result = expand_mct(GateSequence(gate.width, (gate,)), policy="dirty")
        expected_work = 1 if extra == 1 else 0
        assert result.work_lines == expected_work
        width = n + result.work_lines
        assert all(g.control_count <= 2 for g in result.circuit)
        assert all(pos for g in result.circuit for _, pos in g.controls)
        assert toffoli_count(result.circuit) == self.DIRTY_TOFFOLIS[m]
        expected = _widened_gate_table(gate, width)
        assert circuit_table(width, as_plain(result.circuit)) == expected

    def test_negative_controls_are_conjugated_away(self):
        gate = mct(5, [(1, False), (2, True), (4, False)], 3)
        result = expand_mct(GateSequence(gate.width, (gate,)), policy="dirty")
        width = 5 + result.work_lines
        expected = _widened_gate_table(gate, width)
        assert circuit_table(width, as_plain(result.circuit)) == expected

    def test_mixed_sequence_equivalence(self):
        seq = GateSequence(
            5,
            (
                mct(5, [1, 2, 4], 5),
                x(5, 3),
                mct(5, [(1, True), (2, False), (3, True), (4, True)], 5),
                cx(5, 5, 1),
            ),
        )
        result = expand_mct(seq, policy="dirty")
        width = 5 + result.work_lines
        plain_orig = [(g.target, tuple(g.controls)) for g in seq]
        expected = circuit_table(width, plain_orig)
        assert circuit_table(width, as_plain(result.circuit)) == expected

    def test_no_append_when_some_line_is_always_idle(self):
        seq = GateSequence(6, (mct(6, [1, 2, 3, 4], 6),))
        result = expand_mct(seq, policy="dirty")
        assert result.work_lines == 0
        assert result.circuit.width == 6


class TestExpansionChecks:
    """Expansion's output checks are explicit raises, so they still hold
    under ``python -O``."""

    def test_short_borrowed_lines(self):
        with pytest.raises(InternalError, match="internal error: a 4-controlled V-chain"):
            cost._v_chain(6, [1, 2, 3, 4], 6, [5])

    def test_unexpanded_gate(self, monkeypatch):
        monkeypatch.setattr(
            cost,
            "_expand_positive",
            lambda gates, controls, target, policy, clean_base: [mct(gates.width, controls, target)],
        )
        with pytest.raises(InternalError, match="internal error: expansion left C"):
            expand_mct(GateSequence(5, (mct(5, [1, 2, 3], 5),)))


class TestExpansionSharing:
    """Each distinct output gate is built once per call, so the expansion
    holds one object per distinct gate."""

    @pytest.mark.parametrize("policy", ["clean", "dirty"])
    def test_one_object_per_distinct_gate(self, policy):
        cfg = SynthesisConfig(depths={j: 0 for j in range(1, 25)}, exhaustive_tail=0)
        seq, _ = synthesize(sample(10, 1), cfg)
        out = expand_mct(seq, policy).circuit.gates
        assert len({id(g) for g in out}) == len(set(out))

    def test_polarity_variants_share_their_toffolis(self):
        seq = GateSequence(5, (mct(5, [1, 2, 3], 5), mct(5, [(1, False), 2, 3], 5)))
        out = expand_mct(seq).circuit.gates
        assert len(out) == 3 + 5  # the second gate is X-conjugated on line 1
        assert out[3] is out[7] and out[3] == x(6, 1)
        assert all(a is b for a, b in zip(out[:3], out[4:7]))


class TestExpansionValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            expand_mct(GateSequence(3, (x(3, 1),)), policy="bogus")

    def test_empty_sequence(self):
        for policy in ("clean", "dirty"):
            result = expand_mct(GateSequence(4, ()), policy=policy)
            assert result.work_lines == 0
            assert len(result.circuit) == 0


# ---------------------------------------------------------------------------
# Randomized cross-checks


@st.composite
def random_mct_gates(draw):
    width = draw(st.integers(min_value=3, max_value=6))
    m = draw(st.integers(min_value=0, max_value=width - 1))
    lines = draw(
        st.permutations(list(range(1, width + 1))).map(lambda p: p[: m + 1])
    )
    target, controls = lines[0], lines[1:]
    signed = [(l, draw(st.booleans())) for l in controls]
    return mct(width, signed, target)


class TestRandomizedExpansion:
    @given(random_mct_gates())
    @settings(max_examples=40, deadline=None)
    def test_clean_matches_reference_simulator(self, gate):
        result = expand_mct(GateSequence(gate.width, (gate,)), policy="clean")
        work = result.work_lines
        width = gate.width + work
        expected = _widened_gate_table(gate, gate.width)
        table = circuit_table(width, as_plain(result.circuit))
        for col in range(1 << gate.width):
            out = table[col << work]
            assert out & ((1 << work) - 1) == 0
            assert out >> work == expected[col]

    @given(random_mct_gates())
    @settings(max_examples=40, deadline=None)
    def test_dirty_matches_reference_simulator(self, gate):
        result = expand_mct(GateSequence(gate.width, (gate,)), policy="dirty")
        width = gate.width + result.work_lines
        expected = _widened_gate_table(gate, width)
        assert circuit_table(width, as_plain(result.circuit)) == expected
