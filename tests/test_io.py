"""Text-format round-trips and error reporting.

Circuit-file semantics are cross-checked with the independent simulator:
whatever a file round-trip does to the gate list, the resulting circuit
must compute the same function.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksynth import (
    ArityMismatch,
    GateSequence,
    MalformedInteger,
    MAX_WIDTH,
    NotABijection,
    Permutation,
    SynthesisConfig,
    TruthTable,
    Unbalanced,
    UnknownDirective,
    UnknownLineName,
    WrongCount,
    cx,
    embed_truth_table,
    expand_mct,
    format_permutation,
    format_real,
    parse_permutation,
    parse_report,
    parse_truth_table,
    read_real,
    sample,
    synthesize,
    toffoli,
    write_report,
    x,
)

from blocksynth import cost
from helpers import as_plain, circuit_table, mct


@st.composite
def permutations(draw, min_width=1, max_width=6):
    width = draw(st.integers(min_value=min_width, max_value=max_width))
    entries = draw(st.permutations(list(range(1 << width))))
    return Permutation(width, tuple(entries))


# ---------------------------------------------------------------------------
# Permutation text format


class TestPermutationFormat:
    def test_format_hand_checked(self):
        assert format_permutation(Permutation(3, tuple(range(8)))) == "3\n0 1 2 3 4 5 6 7\n"

    def test_format_wraps_every_16_values(self):
        text = format_permutation(Permutation(5, tuple(range(32))))
        lines = text.splitlines()
        assert lines[0] == "5"
        assert len(lines) == 1 + 2
        assert len(lines[1].split()) == 16

    @given(permutations())
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, perm):
        assert parse_permutation(format_permutation(perm)) == perm

    def test_parse_allows_comments_and_blank_lines(self):
        text = "# a permutation\n2\n\n3 2   # swap halves\n1 0\n"
        assert parse_permutation(text) == Permutation(2, (3, 2, 1, 0))

    def test_parse_empty_input(self):
        with pytest.raises(WrongCount):
            parse_permutation("# nothing here\n")

    def test_parse_bad_width_token(self):
        with pytest.raises(MalformedInteger):
            parse_permutation("three 0 1 2 3 4 5 6 7\n")

    def test_parse_width_out_of_range(self):
        with pytest.raises(WrongCount):
            parse_permutation("0\n")
        with pytest.raises(WrongCount):
            parse_permutation(f"{MAX_WIDTH + 1}\n")

    def test_parse_wrong_entry_count(self):
        with pytest.raises(WrongCount):
            parse_permutation("2 0 1 2\n")
        with pytest.raises(WrongCount):
            parse_permutation("2 0 1 2 3 0\n")

    def test_parse_bad_entry_token(self):
        with pytest.raises(MalformedInteger):
            parse_permutation("2 0 1 two 3\n")

    def test_parse_rejects_non_bijections(self):
        with pytest.raises(NotABijection):
            parse_permutation("2 0 1 1 3\n")
        with pytest.raises(NotABijection):
            parse_permutation("2 0 1 2 9\n")


# ---------------------------------------------------------------------------
# Truth tables


class TestTruthTableFormat:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, n_in, n_out, data):
        rows = tuple(
            data.draw(st.integers(min_value=0, max_value=(1 << n_out) - 1))
            for _ in range(1 << n_in)
        )
        table = TruthTable(n_in, n_out, rows)
        text = f"{n_in} {n_out}\n" + " ".join(map(str, rows)) + "\n"
        assert parse_truth_table(text) == table

    def test_validation_wrong_row_count(self):
        with pytest.raises(WrongCount):
            TruthTable(2, 1, (0, 1, 1))

    def test_a_list_of_rows_is_copied(self):
        # The row count and range checks pass on the list; a later change
        # to it must not reach the table.
        rows = [0, 1]
        table = TruthTable(1, 1, rows)
        rows.append(5)
        assert table.rows == (0, 1)

    def test_a_list_built_table_is_the_tuple_built_one(self):
        a, b = TruthTable(1, 1, [0, 1]), TruthTable(1, 1, (0, 1))
        assert a == b and hash(a) == hash(b)

    def test_validation_value_out_of_range(self):
        with pytest.raises(MalformedInteger):
            TruthTable(2, 1, (0, 1, 2, 0))

    def test_validation_bad_widths(self):
        with pytest.raises(WrongCount):
            TruthTable(0, 1, ())
        with pytest.raises(WrongCount):
            TruthTable(2, 0, (0, 0, 0, 0))
        with pytest.raises(WrongCount):
            TruthTable(2, MAX_WIDTH + 1, (0, 0, 0, 0))

    def test_parse_needs_two_width_tokens(self):
        with pytest.raises(WrongCount):
            parse_truth_table("2\n")

    def test_parse_bad_tokens(self):
        with pytest.raises(MalformedInteger):
            parse_truth_table("two 1 0 1 1 0\n")
        with pytest.raises(MalformedInteger):
            parse_truth_table("2 1 0 one 1 0\n")

    def test_parse_wrong_row_count(self):
        with pytest.raises(WrongCount):
            parse_truth_table("2 1 0 1 1\n")

    @pytest.mark.parametrize("n_in", [0, -2, MAX_WIDTH + 1, 3_000_000_000])
    def test_parse_width_checked_before_row_count(self, n_in):
        # 1 << n_in is never formed for an out-of-range width.
        with pytest.raises(WrongCount, match=f"n_in {n_in} outside"):
            parse_truth_table(f"{n_in} 1\n0 1")

    @pytest.mark.parametrize("n_out", [0, -1, MAX_WIDTH + 1, 100_000_000_000])
    def test_parse_output_width_checked_before_rows(self, n_out):
        # 1 << n_out is never formed for an out-of-range width.
        with pytest.raises(WrongCount, match=f"n_out {n_out} outside"):
            parse_truth_table(f"2 {n_out}\n0 1 1 0")


class TestEmbedTruthTable:
    def test_hand_worked_xor(self):
        perm, garbage = embed_truth_table(TruthTable(2, 1, (0, 1, 1, 0)))
        assert garbage == 1
        assert perm.entries == (0, 2, 3, 1)

    def test_bijective_table_needs_no_garbage(self):
        perm, garbage = embed_truth_table(TruthTable(2, 2, (2, 0, 3, 1)))
        assert garbage == 0
        assert perm.entries == (2, 0, 3, 1)

    def test_unbalanced_raises(self):
        with pytest.raises(Unbalanced):
            embed_truth_table(TruthTable(2, 1, (0, 0, 0, 1)))

    def test_more_outputs_than_inputs_raises(self):
        with pytest.raises(Unbalanced):
            embed_truth_table(TruthTable(2, 3, (0, 1, 2, 3)))

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_balanced_functions_embed_with_outputs_on_top(self, width, g, rng):
        g = min(g, width - 1)
        values = list(range(1 << width))
        rng.shuffle(values)
        rows = tuple(v >> g for v in values)  # every output exactly 2^g times
        table = TruthTable(width, width - g, rows)
        perm, garbage = embed_truth_table(table)
        assert garbage == g
        assert perm.width == width
        for col in range(1 << width):
            assert perm.entries[col] >> g == rows[col]


# ---------------------------------------------------------------------------
# Circuit files


HAND_WRITTEN = """\
.version 2.0
.numvars 3
.variables a b c
.begin
t1 c
t2 a b
t3 a b c   # a Toffoli
.end
"""


class TestCircuitFileParsing:
    def test_hand_written_file(self):
        seq = read_real(HAND_WRITTEN)
        assert seq.width == 3
        assert seq.gates == (x(3, 3), cx(3, 1, 2), toffoli(3, 1, 2, 3))

    def test_read_real_returns_a_sequence(self):
        seq = read_real(HAND_WRITTEN)
        assert isinstance(seq, GateSequence)
        assert seq.width == 3
        assert len(seq) == 3

    def test_annotations_survive(self):
        # Annotation directives are read past; the gates come through.
        text = (
            ".numvars 2\n.variables p q\n.inputs p q\n.outputs p r\n"
            ".constants --\n.garbage -1\n.begin\nt2 p q\n.end\n"
        )
        assert read_real(text) == GateSequence(2, (cx(2, 1, 2),))

    def test_annotation_after_begin(self):
        text = ".numvars 1\n.variables a\n.begin\n.garbage -\n.end\n"
        with pytest.raises(UnknownDirective, match=r"^line 4: .garbage after .begin"):
            read_real(text)

    def test_unknown_directive(self):
        with pytest.raises(UnknownDirective):
            read_real(".frobnicate 3\n")

    def test_gate_before_begin(self):
        with pytest.raises(UnknownDirective):
            read_real(".numvars 1\n.variables a\nt1 a\n.begin\n.end\n")

    def test_unsupported_gate_type(self):
        text = ".numvars 2\n.variables a b\n.begin\nf2 a b\n.end\n"
        with pytest.raises(UnknownDirective):
            read_real(text)

    @pytest.mark.parametrize("head", ["t²", "t٣", "t³ a b c", "t", "t-1", "t+2", "t 2"])
    def test_gate_head_takes_ascii_digits_only(self, head):
        # "²" passes ``str.isdigit`` but not ``int``; "٣" would read as 3.
        text = f".numvars 3\n.variables a b c\n.begin\n{head} a b\n.end\n"
        with pytest.raises(UnknownDirective, match=r"^line 4: unsupported gate type"):
            read_real(text)

    @pytest.mark.parametrize("line", ["t0", "t0 a b", "t00 a"])
    def test_gate_naming_no_line_is_an_arity_error(self, line):
        text = f".numvars 2\n.variables a b\n.begin\n{line}\n.end\n"
        with pytest.raises(ArityMismatch, match=r"^line 4: t0+: a gate names at least one line$"):
            read_real(text)

    def test_arity_mismatch_on_gate(self):
        text = ".numvars 2\n.variables a b\n.begin\nt2 a\n.end\n"
        with pytest.raises(ArityMismatch, match=r"^line 4: t2 needs 2 line names, got 1$"):
            read_real(text)

    def test_unknown_line_name(self):
        text = ".numvars 2\n.variables a b\n.begin\nt1 z\n.end\n"
        with pytest.raises(UnknownLineName):
            read_real(text)

    def test_numvars_must_be_integer(self):
        with pytest.raises(MalformedInteger):
            read_real(".numvars many\n")

    def test_numvars_takes_one_value(self):
        with pytest.raises(ArityMismatch):
            read_real(".numvars 2 3\n")

    def test_variables_count_must_match(self):
        with pytest.raises(ArityMismatch):
            read_real(".numvars 3\n.variables a b\n")

    def test_begin_requires_declarations(self):
        with pytest.raises(ArityMismatch):
            read_real(".begin\n.end\n")

    def test_missing_end(self):
        with pytest.raises(UnknownDirective):
            read_real(".numvars 1\n.variables a\n.begin\nt1 a\n")

    def test_content_after_end(self):
        text = ".numvars 1\n.variables a\n.begin\n.end\nt1 a\n"
        with pytest.raises(UnknownDirective):
            read_real(text)

    def test_duplicate_variable_names(self):
        text = ".numvars 2\n.variables a a\n.begin\nt1 a\n.end\n"
        with pytest.raises(ArityMismatch, match=r"^line 2: .*'a'"):
            read_real(text)

    def test_numvars_after_begin(self):
        text = ".numvars 2\n.variables a b\n.begin\n.numvars 3\nt1 a\n.end\n"
        with pytest.raises(UnknownDirective, match=r"^line 4: "):
            read_real(text)

    def test_variables_after_begin(self):
        text = ".numvars 2\n.variables a b\n.begin\nt1 a\n.variables b a\nt1 a\n.end\n"
        with pytest.raises(UnknownDirective, match=r"^line 5: "):
            read_real(text)

    def test_numvars_must_match_earlier_variables(self):
        text = ".variables a b c\n.numvars 2\n.begin\nt1 c\n.end\n"
        with pytest.raises(ArityMismatch, match=r"^line 2: "):
            read_real(text)

    def test_end_without_begin(self):
        with pytest.raises(UnknownDirective, match=r"^line 3: "):
            read_real(".numvars 1\n.variables a\n.end\n")

    def test_second_begin(self):
        text = ".numvars 1\n.variables a\n.begin\nt1 a\n.begin\nt1 a\n.end\n"
        with pytest.raises(UnknownDirective, match=r"^line 5: "):
            read_real(text)

    def test_invalid_gate_names_its_line(self):
        text = ".numvars 2\n.variables a b\n.begin\nt1 a\nt2 a a\n.end\n"
        with pytest.raises(ArityMismatch, match=r"^line 5: control line 1 repeated"):
            read_real(text)

    @pytest.mark.parametrize(
        "header",
        [
            ".numvars 2\n.numvars 3\n.variables a b c\n",
            ".variables a b\n.variables a b c\n.numvars 3\n",
        ],
        ids=["numvars-twice", "variables-twice"],
    )
    def test_second_declaration_names_its_line(self, header):
        with pytest.raises(ArityMismatch, match=r"^line 2: second \.(numvars|variables)$"):
            read_real(header + ".begin\nt1 a\n.end\n")

    @pytest.mark.parametrize(
        "header",
        [
            ".numvars 3\n.variables a b c\n.numvars 3\n",
            ".variables a b c\n.numvars 3\n.variables a b c\n",
        ],
        ids=["numvars-after-both", "variables-after-both"],
    )
    def test_repeating_a_matching_declaration_is_still_an_error(self, header):
        with pytest.raises(ArityMismatch, match=r"^line 3: second "):
            read_real(header + ".begin\nt1 a\n.end\n")

    def test_body_line_repeated_after_end(self):
        text = ".numvars 2\n.variables a b\n.begin\nt2 a b\nt2 a b\n.end\nt2 a b\n"
        with pytest.raises(UnknownDirective, match=r"^line 7: content after \.end$"):
            read_real(text)

    def test_one_gate_written_several_ways(self):
        plain = ".numvars 3\n.variables a b c\n.begin\nt3 a b c\n.end\n"
        variants = ["t3 a b c  # a Toffoli", "  t3  a\tb   c  ", "t3 a b c\r"]
        text = plain.replace("t3 a b c\n", "t3 a b c\n" + "\n".join(variants) + "\n")
        gates = read_real(text).gates
        assert gates == (toffoli(3, 1, 2, 3),) * 4
        crlf = read_real(plain.replace("\n", "\r\n")).gates
        assert crlf == (toffoli(3, 1, 2, 3),)

    def test_recurring_gate_lines_give_equal_gates(self):
        text = ".numvars 2\n.variables a b\n.begin\nt2 a b\nt1 b\nt2 a b  # again\n.end\n"
        assert read_real(text).gates == (cx(2, 1, 2), x(2, 2), cx(2, 1, 2))


class TestCircuitFileRoundTrip:
    def test_positive_controls_round_trip_exactly(self):
        seq = GateSequence(4, (x(4, 2), cx(4, 1, 3), toffoli(4, 2, 3, 4), mct(4, [1, 2, 3], 4)))
        assert read_real(format_real(seq)) == seq

    def test_negative_controls_become_x_conjugations(self):
        seq = GateSequence(3, (cx(3, 2, 3, positive=False),))
        text = format_real(seq)
        body = [l for l in text.splitlines() if not l.startswith(".")]
        assert body == ["t1 x2", "t2 x2 x3", "t1 x2"]
        parsed = read_real(text)
        assert all(pos for g in parsed.gates for _, pos in g.controls)
        assert circuit_table(3, as_plain(parsed)) == circuit_table(
            3, as_plain(seq)
        )

    @given(permutations(min_width=3, max_width=5))
    @settings(max_examples=15, deadline=None)
    def test_synthesized_circuits_survive_the_file_format(self, perm):
        seq, _ = synthesize(perm)
        back = read_real(format_real(seq))
        assert circuit_table(perm.width, as_plain(back)) == list(perm.entries)


@st.composite
def repetitive_sequences(draw):
    """Sequences drawn from a small pool of gates, with negative controls."""
    width = draw(st.integers(min_value=1, max_value=6))

    def gate():
        target = draw(st.integers(min_value=1, max_value=width))
        others = [l for l in range(1, width + 1) if l != target]
        lines = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        return mct(width, [(l, draw(st.booleans())) for l in lines], target)

    pool = [gate() for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    gates = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return GateSequence(width, tuple(gates))


def _conjugated(g, width):
    """``g`` at ``width`` with positive controls, between X gates on the
    lines of its negative controls."""
    negatives = [x(width, l) for l, positive in sorted(g.controls) if not positive]
    positive = mct(width, sorted(l for l, _ in g.controls), g.target)
    return negatives, positive


class TestToolsAgainstPerGateReferences:
    """The circuit tools handle each distinct gate once per call; the
    references here handle every gate on its own."""

    @given(repetitive_sequences())
    @settings(max_examples=60, deadline=None)
    def test_format_real(self, seq):
        names = [f"x{l}" for l in range(1, seq.width + 1)]
        body = []
        for g in seq:
            negatives, positive = _conjugated(g, seq.width)
            flips = [f"t1 {names[n.target - 1]}" for n in negatives]
            lines = [l for l, _ in positive.controls] + [g.target]
            body += flips + [f"t{len(lines)} " + " ".join(names[l - 1] for l in lines)] + flips
        header = [".version 2.0", f".numvars {seq.width}", ".variables " + " ".join(names)]
        assert format_real(seq) == "\n".join(header + [".begin"] + body + [".end"]) + "\n"

    @given(repetitive_sequences())
    @settings(max_examples=60, deadline=None)
    def test_read_real(self, seq):
        expected = []
        for g in seq:
            negatives, positive = _conjugated(g, seq.width)
            expected += negatives + [positive] + negatives
        assert read_real(format_real(seq)).gates == tuple(expected)

    @pytest.mark.parametrize("policy", ["clean", "dirty"])
    @given(seq=repetitive_sequences())
    @settings(max_examples=60, deadline=None)
    def test_expand_mct(self, policy, seq):
        result = expand_mct(seq, policy)
        width = result.circuit.width
        expected = []
        for g in seq:
            negatives, positive = _conjugated(g, width)
            controls = [l for l, _ in positive.controls]
            piece = cost._expand_positive(cost._Gates(width), controls, g.target, policy, seq.width)
            expected += negatives + piece + negatives
        assert result.circuit.gates == tuple(expected)


# ---------------------------------------------------------------------------
# Reports


class TestReports:
    def test_round_trip_of_a_real_report(self):
        perm = sample(4, seed=3)
        _, report = synthesize(perm)
        parsed = parse_report(write_report(report))
        assert parsed["format"] == "blocksynth-report-1"
        assert parsed["width"] == 4
        assert parsed["gate_count"] == report.gate_count
        assert parsed["toffoli_total"] == report.toffoli_total
        assert parsed["quantum_cost_total"] == report.quantum_cost_total
        assert parsed["bound_total"] == report.bound_total
        assert parsed["stage_count"] == len(report.stages)
        assert isinstance(parsed["wall_time_s"], float)
        for s in report.stages:
            assert parsed[f"stage_{s.width}_toffoli"] == s.toffoli
            assert parsed[f"stage_{s.width}_bound"] == s.bound

    def test_depth_spec_rendering(self):
        perm = sample(3, seed=1)
        _, rep_default = synthesize(perm)
        assert parse_report(write_report(rep_default))["depths"] == "default"
        _, rep_custom = synthesize(perm, SynthesisConfig(depths={3: 0, 2: 1}))
        assert parse_report(write_report(rep_custom))["depths"] == "2=1,3=0"

    def test_parse_report_type_inference(self):
        parsed = parse_report("a 3\nb 2.5\nc hello\n")
        assert parsed == {"a": 3, "b": 2.5, "c": "hello"}

    def test_parse_report_rejects_malformed_lines(self):
        with pytest.raises(WrongCount):
            parse_report("key value extra\n")

    def test_comments_and_blanks_ignored(self):
        parsed = parse_report("# hi\n\nkey 7\n")
        assert parsed == {"key": 7}
