"""Command-line interface tests.

Every invocation goes through ``main(argv)`` in-process; produced circuit
files are replayed through the independent simulator from tests/helpers.py
to confirm the tool chain end to end.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from blocksynth import (
    MAX_WIDTH,
    SynthesisConfig,
    format_permutation,
    format_real,
    parse_report,
    quantum_cost,
    read_real,
    sample,
    synthesize,
    toffoli_count,
)
from blocksynth import cli, synthesis
from blocksynth.cli import main

from helpers import as_plain, circuit_table


def write_perm(tmp_path, name, perm):
    path = tmp_path / name
    path.write_text(format_permutation(perm))
    return str(path)


XOR_TT = "2 1\n0 1 1 0\n"


def write_flat_table(tmp_path):
    """A cost table pricing every gate at 1, for up to 7 controls."""
    path = tmp_path / "flat.qc"
    path.write_text("\n".join(f"{m} 1" for m in range(8)) + "\n")
    return str(path)


def write_gap_table(tmp_path):
    """A cost table with no entry for one-control gates."""
    path = tmp_path / "gap.qc"
    path.write_text("0 1\n2 5\n3 13\n")
    return str(path)


GAP_MESSAGE = "cost table 'gap.qc' has no entry for 1 controls"


def write_undeclared_line(tmp_path):
    """A .real file whose line 6 names an undeclared variable."""
    bad = tmp_path / "bad.real"
    bad.write_text(
        ".numvars 3\n.variables a b c\n.inputs a b c\n.outputs a b c\n"
        ".begin\nt1 q\n.end\n"
    )
    return bad


def parse_error(bad):
    return f"error: {bad}: line 6: 'q' not declared\n"


# ---------------------------------------------------------------------------
# synth


class TestSynth:
    def test_permutation_input(self, tmp_path, capsys):
        perm = sample(3, seed=5)
        src = write_perm(tmp_path, "p.perm", perm)
        out = tmp_path / "p.real"
        rc = main(["synth", src, "--out", str(out)])
        assert rc == 0
        fields = dict(zip(*[iter(capsys.readouterr().out.split())] * 2))
        assert fields["width"] == "3"
        assert fields["garbage"] == "0"
        seq = read_real(out.read_text())
        assert circuit_table(3, as_plain(seq)) == list(perm.entries)
        # stdout shows the in-memory sequence; the file adds an X pair per
        # negative control, which never changes the Toffoli count
        mem, _ = synthesize(perm)
        assert int(fields["gates"]) == len(mem)
        assert int(fields["toffoli"]) == toffoli_count(mem) == toffoli_count(seq)
        assert int(fields["quantum_cost"]) == quantum_cost(mem)

    def test_truth_table_input_annotates_garbage(self, tmp_path, capsys):
        src = tmp_path / "xor.tt"
        src.write_text(XOR_TT)
        out = tmp_path / "xor.real"
        rc = main(["synth", str(src), "--out", str(out)])
        assert rc == 0
        fields = dict(zip(*[iter(capsys.readouterr().out.split())] * 2))
        assert fields["width"] == "2"
        assert fields["garbage"] == "1"
        text = out.read_text()
        assert ".outputs f1 g1\n.garbage -1\n" in text
        # high line carries xor(x1, x2): embedded map sends x to f(x)*2 + k
        table = circuit_table(2, as_plain(read_real(text)))
        assert [v >> 1 for v in table] == [0, 1, 1, 0]

    def test_report_file(self, tmp_path):
        perm = sample(4, seed=9)
        src = write_perm(tmp_path, "p.perm", perm)
        report_path = tmp_path / "p.report"
        rc = main(["synth", src, "--report", str(report_path)])
        assert rc == 0
        parsed = parse_report(report_path.read_text())
        assert parsed["format"] == "blocksynth-report-1"
        assert parsed["width"] == 4

    def test_depth_flag_round_trips_into_the_report(self, tmp_path):
        perm = sample(4, seed=2)
        src = write_perm(tmp_path, "p.perm", perm)
        report_path = tmp_path / "p.report"
        rc = main(["synth", src, "--depth", "2", "--report", str(report_path)])
        assert rc == 0
        parsed = parse_report(report_path.read_text())
        assert parsed["depths"] != "default"

    def test_no_flags_write_the_default_config_circuit(self, tmp_path):
        # sample(7, 3)'s circuit changes when the tail moves from 9 to 8 or
        # 10, so a CLI default that drifted from the config's would show.
        perm = sample(7, seed=3)
        src = write_perm(tmp_path, "p.perm", perm)
        out = tmp_path / "p.real"
        assert main(["synth", src, "--out", str(out)]) == 0
        expected = format_real(synthesize(perm, SynthesisConfig())[0])
        assert out.read_text() == expected
        for tail in (8, 10):
            moved = SynthesisConfig(exhaustive_tail=tail)
            assert format_real(synthesize(perm, moved)[0]) != expected

    def test_missing_input_file(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(tmp_path / "absent.perm")])
        assert exc.value.code == 2

    def test_malformed_input(self, tmp_path):
        src = tmp_path / "bad.perm"
        src.write_text("2 0 1 1 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(src)])
        assert exc.value.code == 2

    def test_truth_table_output_width_is_bounded(self, tmp_path, capsys):
        # Checked before any row is read: 2^n_out is never formed.
        src = tmp_path / "wide.tt"
        src.write_text(f"4 {MAX_WIDTH + 1}\n" + " ".join(map(str, range(16))) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(src)])
        assert exc.value.code == 2
        assert f"n_out {MAX_WIDTH + 1} outside 1..{MAX_WIDTH}" in capsys.readouterr().err

    def test_wrong_entry_count_names_the_expected_count(self, tmp_path, capsys):
        # 8 tokens fit neither a width-3 permutation (9) nor a truth table (10).
        src = tmp_path / "short.perm"
        src.write_text("3\n0 1 2 3 4 5 6\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(src)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"error: {src}: expected 8 entries, or 'n_in n_out' then 8 rows; "
            "found 7 values after the leading 3\n"
        )

    def test_one_value_too_many_names_both_readings(self, tmp_path, capsys):
        # 10 tokens read as a truth table with n_out 0, which fails; they
        # also read as a width-3 permutation with one value too many.
        src = tmp_path / "long.perm"
        src.write_text("3\n0 1 2 3 4 5 6 7 7\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(src)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"error: {src}: n_out 0 outside 1..{MAX_WIDTH}; as a width-3 permutation "
            "it has one value too many (9 after the leading 3, expected 8)\n"
        )

    def test_empty_input(self, tmp_path):
        src = tmp_path / "empty.perm"
        src.write_text("# nothing\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(src)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--depth", "-3"], "lookahead depths must be non-negative, got -3"),
            (["--tail-exhaustive", "-4"], "exhaustive_tail must be non-negative, got -4"),
        ],
    )
    def test_bad_config_values_are_usage_errors(self, tmp_path, capsys, flags, message):
        src = write_perm(tmp_path, "p.perm", sample(3, seed=1))
        with pytest.raises(SystemExit) as exc:
            main(["synth", src, *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unreadable_cost_table(self, tmp_path):
        src = write_perm(tmp_path, "p.perm", sample(3, seed=1))
        with pytest.raises(SystemExit) as exc:
            main(["synth", src, "--cost-table", str(tmp_path / "absent.qc")])
        assert exc.value.code == 2

    def test_missing_cost_entry_prints_unquoted(self, tmp_path, capsys):
        src = write_perm(tmp_path, "p.perm", sample(4, seed=3))
        with pytest.raises(SystemExit) as exc:
            main(["synth", src, "--cost-table", write_gap_table(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {GAP_MESSAGE}\n"

    def test_report_is_priced_with_the_cost_table(self, tmp_path, capsys):
        perm = sample(4, seed=9)
        src = write_perm(tmp_path, "p.perm", perm)
        table = write_flat_table(tmp_path)
        report_path = tmp_path / "p.report"
        rc = main(["synth", src, "--cost-table", table, "--report", str(report_path)])
        assert rc == 0
        fields = dict(zip(*[iter(capsys.readouterr().out.split())] * 2))
        parsed = parse_report(report_path.read_text())
        assert int(fields["quantum_cost"]) == int(fields["gates"])  # every gate costs 1
        assert parsed["quantum_cost_total"] == int(fields["quantum_cost"])
        assert parsed["cost_table"] == "flat.qc"


@pytest.mark.parametrize("command", ["synth", "bench"])
@pytest.mark.parametrize(
    "flags", [["--no-peephole"], ["--mix-depth", "4"], ["--mix-budget", "9"], ["--depths", "2=1"]]
)
def test_removed_flags_exit_2(tmp_path, capsys, command, flags):
    target = write_perm(tmp_path, "p.perm", sample(3, seed=1))
    with pytest.raises(SystemExit) as exc:
        main([command, target if command == "synth" else str(tmp_path), *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def _synth(self, tmp_path, width=4, seed=7):
        perm = sample(width, seed=seed)
        src = write_perm(tmp_path, f"w{width}.perm", perm)
        out = tmp_path / f"w{width}.real"
        assert main(["synth", src, "--out", str(out)]) == 0
        return src, out

    def test_pass(self, tmp_path, capsys):
        src, out = self._synth(tmp_path)
        capsys.readouterr()
        rc = main(["verify", "--perm", src, "--circuit", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "PASS"

    def test_fail_on_tampered_circuit(self, tmp_path, capsys):
        src, out = self._synth(tmp_path)
        text = out.read_text().replace(".end", "t1 x1\n.end")
        out.write_text(text)
        capsys.readouterr()
        rc = main(["verify", "--perm", src, "--circuit", str(out)])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "FAIL"

    def test_width_mismatch_is_a_usage_error(self, tmp_path, capsys):
        src3 = write_perm(tmp_path, "w3.perm", sample(3, seed=1))
        _, out4 = self._synth(tmp_path, width=4)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--perm", src3, "--circuit", str(out4)])
        assert exc.value.code == 2

    def test_malformed_circuit(self, tmp_path):
        src = write_perm(tmp_path, "p.perm", sample(3, seed=1))
        bad = tmp_path / "bad.real"
        bad.write_text(".numvars 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--perm", src, "--circuit", str(bad)])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# cost


class TestCost:
    def _circuit(self, tmp_path):
        perm = sample(4, seed=3)
        src = write_perm(tmp_path, "p.perm", perm)
        out = tmp_path / "p.real"
        assert main(["synth", src, "--out", str(out)]) == 0
        return out

    def test_reports_library_numbers(self, tmp_path, capsys):
        out = self._circuit(tmp_path)
        capsys.readouterr()
        rc = main(["cost", "--circuit", str(out)])
        assert rc == 0
        lines = dict(l.split() for l in capsys.readouterr().out.splitlines())
        seq = read_real(out.read_text())
        assert int(lines["gates"]) == len(seq)
        assert int(lines["toffoli"]) == toffoli_count(seq)
        assert int(lines["quantum_cost"]) == quantum_cost(seq)
        assert lines["cost_table"] == "default"

    def test_custom_cost_table(self, tmp_path, capsys):
        out = self._circuit(tmp_path)
        table = write_flat_table(tmp_path)
        capsys.readouterr()
        rc = main(["cost", "--circuit", str(out), "--cost-table", table])
        assert rc == 0
        lines = dict(l.split() for l in capsys.readouterr().out.splitlines())
        seq = read_real(out.read_text())
        assert int(lines["quantum_cost"]) == len(seq)  # every gate costs 1
        assert lines["cost_table"] == "flat.qc"

    def test_repeated_control_count_is_a_clean_error(self, tmp_path, capsys):
        out = self._circuit(tmp_path)
        table = tmp_path / "twice.qc"
        table.write_text("0 1\n1 1\n2 5\n2 7\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--circuit", str(out), "--cost-table", str(table)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: line 4: control count 2 given twice\n"

    def test_incomplete_cost_table_is_a_clean_error(self, tmp_path, capsys):
        out = self._circuit(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--circuit", str(out), "--cost-table", write_gap_table(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {GAP_MESSAGE}\n"

    def test_parse_error_names_the_file(self, tmp_path, capsys):
        bad = write_undeclared_line(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--circuit", str(bad)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == parse_error(bad)


# ---------------------------------------------------------------------------
# expand


class TestExpand:
    @pytest.mark.parametrize("policy", ["clean", "dirty"])
    def test_expansion_round_trip(self, tmp_path, capsys, policy):
        perm = sample(4, seed=6)
        src = write_perm(tmp_path, "p.perm", perm)
        circuit = tmp_path / "p.real"
        assert main(["synth", src, "--out", str(circuit)]) == 0
        expanded = tmp_path / f"p.{policy}.real"
        capsys.readouterr()
        rc = main(
            ["expand", "--circuit", str(circuit), "--out", str(expanded), "--policy", policy]
        )
        assert rc == 0
        fields = dict(zip(*[iter(capsys.readouterr().out.split())] * 2))
        seq = read_real(expanded.read_text())
        assert seq.width == int(fields["width"])
        assert all(g.control_count <= 2 for g in seq)
        work = seq.width - 4
        assert work == int(fields["work_lines"])
        table = circuit_table(seq.width, as_plain(seq))
        for col in range(1 << 4):
            got = table[col << work]
            if policy == "clean":
                assert got & ((1 << work) - 1) == 0
            assert got >> work == perm.entries[col]

    def test_parse_error_names_the_file(self, tmp_path, capsys):
        bad = write_undeclared_line(tmp_path)
        out = tmp_path / "out.real"
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--circuit", str(bad), "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == parse_error(bad)
        assert not out.exists()

    def test_unknown_policy_rejected_by_argparse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--circuit", "x", "--out", "y", "--policy", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# bound


class TestBound:
    def test_frozen_width_8_budgets(self, capsys):
        rc = main(["bound", "--n", "8"])
        assert rc == 0
        lines = dict(l.split() for l in capsys.readouterr().out.splitlines())
        assert lines["width"] == "8"
        assert lines["n_c"] == "354"
        assert lines["n_a"] == "303"
        assert lines["extra"] == "163"
        assert lines["per_reduction_total"] == "820"
        assert lines["cumulative_total"] == "1375"

    def test_small_width_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("n", [MAX_WIDTH + 1, 3000])
    def test_width_above_max_rejected(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", str(n)])
        assert exc.value.code == 2
        assert f"--n must be within 3..{MAX_WIDTH}, got {n}" in capsys.readouterr().err

    def test_max_width_accepted(self, capsys):
        assert main(["bound", "--n", str(MAX_WIDTH)]) == 0
        assert f"width {MAX_WIDTH}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench


class TestBench:
    def _fill(self, tmp_path):
        write_perm(tmp_path, "a.perm", sample(3, seed=1))
        write_perm(tmp_path, "b.perm", sample(4, seed=2))
        (tmp_path / "xor.tt").write_text(XOR_TT)

    def test_directory_sweep(self, tmp_path, capsys):
        self._fill(tmp_path)
        rc = main(["bench", str(tmp_path)])
        assert rc == 0
        outerr = capsys.readouterr()
        rows = [l.split("\t") for l in outerr.out.splitlines()]
        assert rows[0] == ["name", "in", "out", "garbage", "quantum_cost", "toffoli", "seconds"]
        names = [r[0] for r in rows[1:]]
        assert names == ["a.perm", "b.perm", "xor.tt"]
        xor_row = dict(zip(rows[0], rows[3]))
        assert xor_row["in"] == "2"
        assert xor_row["out"] == "1"
        assert xor_row["garbage"] == "1"

    def test_header_is_the_one_the_readme_documents(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### `bench", 1)[1].split("\n## ", 1)[0]
        documented = re.search(r"`(name [a-z_ ]+)`", section).group(1)
        write_perm(tmp_path, "a.perm", sample(3, seed=1))
        assert main(["bench", str(tmp_path)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split("\t") == documented.split()

    def test_failures_reported_and_skipped(self, tmp_path, capsys):
        self._fill(tmp_path)
        (tmp_path / "broken.perm").write_text("2 0 1 1 3\n")
        rc = main(["bench", str(tmp_path)])
        assert rc == 0
        outerr = capsys.readouterr()
        names = [l.split("\t")[0] for l in outerr.out.splitlines()[1:]]
        assert names == ["a.perm", "b.perm", "xor.tt"]
        assert "broken.perm" in outerr.err

    def test_empty_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path / "absent")])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_rows_are_priced_with_the_cost_table(self, tmp_path, capsys):
        perm = sample(4, seed=2)
        write_perm(tmp_path, "b.perm", perm)
        tables = tmp_path / "tables"
        tables.mkdir()
        rc = main(["bench", str(tmp_path), "--cost-table", write_flat_table(tables)])
        assert rc == 0
        header, row = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
        seq, _ = synthesize(perm)
        assert dict(zip(header, row))["quantum_cost"] == str(len(seq))

    def test_unreadable_cost_table(self, tmp_path, capsys):
        self._fill(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path), "--cost-table", str(tmp_path / "absent.qc")])
        assert exc.value.code == 2
        assert "cannot read cost table" in capsys.readouterr().err

    def test_missing_cost_entry_prints_unquoted(self, tmp_path, capsys):
        write_perm(tmp_path, "b.perm", sample(4, seed=2))
        tables = tmp_path / "tables"
        tables.mkdir()
        assert main(["bench", str(tmp_path), "--cost-table", write_gap_table(tables)]) == 0
        assert capsys.readouterr().err == f"error: b.perm: {GAP_MESSAGE}\n"

    def test_bad_config_value_rejected(self, tmp_path, capsys):
        self._fill(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path), "--tail-exhaustive", "-1"])
        assert exc.value.code == 2
        assert "exhaustive_tail must be non-negative" in capsys.readouterr().err

    def test_each_file_is_verified_once(self, tmp_path, capsys, monkeypatch):
        # synthesize verifies its circuit before returning; bench must not
        # verify it a second time.
        calls = []

        def counting(verify):
            def wrapped(perm, seq):
                calls.append(perm.width)
                return verify(perm, seq)
            return wrapped

        monkeypatch.setattr(synthesis, "verify_identity", counting(synthesis.verify_identity))
        monkeypatch.setattr(cli, "verify_identity", counting(cli.verify_identity))
        self._fill(tmp_path)  # three files
        assert main(["bench", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(calls) == [2, 3, 4]

    def test_malformed_file_gets_the_synth_message(self, tmp_path, capsys):
        self._fill(tmp_path)
        broken = tmp_path / "broken.perm"
        broken.write_text("99 0 1\n")
        with pytest.raises(SystemExit):
            main(["synth", str(broken)])
        synth_err = capsys.readouterr().err
        assert f"{broken}: width 99 outside" in synth_err
        assert main(["bench", str(tmp_path)]) == 0
        assert synth_err in capsys.readouterr().err
