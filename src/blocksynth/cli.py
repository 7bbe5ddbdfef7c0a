"""Command-line entry points.

Exit codes: 0 on success (and on a passing ``verify``), 1 when ``verify``
finds a mismatch, 2 on input or usage errors.  ``bench`` keeps going when an
individual file fails, reporting the failure on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .core import MAX_WIDTH, GateSequence, Permutation, verify_identity
from .cost import (
    CostTable,
    MissingCostEntry,
    expand_mct,
    quantum_cost,
    resolve_table,
    toffoli_count,
)
from .io_formats import (
    embed_truth_table,
    format_real,
    parse_permutation,
    parse_truth_table,
    read_real,
    write_report,
    _tokens,
)
from .reduction import bounds
from .synthesis import SynthesisConfig, synthesize


class UsageError(Exception):
    """Bad input or usage; ``main`` prints ``error: <message>`` and exits 2."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _read_circuit(path: str) -> GateSequence:
    try:
        return read_real(_read_text(path))
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_spec(path: str) -> tuple[Permutation, int, int]:
    """Read a permutation or truth-table file; returns (perm, n_out, garbage).

    The two formats are told apart by token count: a width-n permutation
    file holds 2^n + 1 tokens, a truth table 2^n_in + 2.  A count that
    fits neither is reported as such, not parsed as a truth table.  A
    truth table that fails to parse may be a permutation with one value too
    many, and the message says so.
    """
    text = _read_text(path)
    toks = _tokens(text)
    if not toks:
        raise UsageError(f"{path}: empty input")
    try:
        first = int(toks[0])
    except ValueError:
        raise UsageError(f"{path}: first token {toks[0]!r} is not an integer") from None
    if not 1 <= first <= MAX_WIDTH:
        raise UsageError(f"{path}: width {first} outside 1..{MAX_WIDTH}")
    rows = 1 << first
    if len(toks) - rows not in (1, 2):
        raise UsageError(
            f"{path}: expected {rows} entries, or 'n_in n_out' then {rows} "
            f"rows; found {len(toks) - 1} values after the leading {first}"
        )
    try:
        if len(toks) == rows + 1:
            perm = parse_permutation(text)
            return perm, perm.width, 0
        table = parse_truth_table(text)
        perm, garbage = embed_truth_table(table)
        return perm, table.n_out, garbage
    except ValueError as exc:
        message = f"{path}: {exc}"
        if len(toks) == rows + 2:  # read as a truth table, it could be either
            message += (
                f"; as a width-{first} permutation it has one value too many "
                f"({rows + 1} after the leading {first}, expected {rows})"
            )
        raise UsageError(message) from None


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, help="lookahead depth before the tail: 1 (default) or 0")
    p.add_argument(
        "--tail-exhaustive",
        type=int,
        default=SynthesisConfig.exhaustive_tail,
        help="exact search over the last positions of a stage (0 disables)",
    )
    p.add_argument("--cost-table", help="quantum-cost table file")


def _config_from_args(args: argparse.Namespace) -> SynthesisConfig:
    depths = None
    if args.depth is not None:
        depths = {j: args.depth for j in range(1, MAX_WIDTH + 1)}
    try:
        return SynthesisConfig(depths=depths, exhaustive_tail=args.tail_exhaustive)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _table_from_args(args: argparse.Namespace) -> CostTable:
    """The command's cost table, resolved once; unreadable is a usage error."""
    try:
        return resolve_table(args.cost_table)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except OSError as exc:
        raise UsageError(f"cannot read cost table: {exc.strerror}") from None


def _priced(seq: GateSequence, table: CostTable) -> int:
    try:
        return quantum_cost(seq, table)
    except MissingCostEntry as exc:
        raise UsageError(str(exc)) from None


def _cmd_synth(args: argparse.Namespace) -> int:
    perm, n_out, garbage = _load_spec(args.input)
    cfg = _config_from_args(args)
    table = _table_from_args(args)
    seq, report = synthesize(perm, cfg)
    qc = _priced(seq, table)
    if args.out:
        n = perm.width
        kwargs = {}
        if garbage:
            kwargs = {
                "outputs": [f"f{i}" for i in range(1, n_out + 1)]
                + [f"g{i}" for i in range(1, garbage + 1)],
                "garbage": "-" * (n - garbage) + "1" * garbage,
            }
        _write(args.out, format_real(seq, **kwargs))
    if args.report:
        report = replace(report, quantum_cost_total=qc, cost_table=table.name)
        _write(args.report, write_report(report))
    print(
        f"width {perm.width} gates {len(seq)} toffoli {report.toffoli_total} "
        f"quantum_cost {qc} garbage {garbage} wall_s {report.wall_time_s:.3f}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    perm, _, _ = _load_spec(args.perm)
    seq = _read_circuit(args.circuit)
    if seq.width != perm.width:
        raise UsageError(
            f"width mismatch: permutation {perm.width}, circuit {seq.width}"
        )
    if verify_identity(perm, seq):
        print("PASS")
        return 0
    print("FAIL")
    return 1


def _cmd_cost(args: argparse.Namespace) -> int:
    table = _table_from_args(args)
    seq = _read_circuit(args.circuit)
    qc = _priced(seq, table)
    print(f"gates {len(seq)}")
    print(f"toffoli {toffoli_count(seq)}")
    print(f"quantum_cost {qc}")
    print(f"cost_table {table.name}")
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    result = expand_mct(_read_circuit(args.circuit), args.policy)
    _write(args.out, format_real(result.circuit))
    print(
        f"gates {len(result.circuit)} width {result.circuit.width} "
        f"work_lines {result.work_lines} toffoli {toffoli_count(result.circuit)}"
    )
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    if not 3 <= args.n <= MAX_WIDTH:
        raise UsageError(f"--n must be within 3..{MAX_WIDTH}, got {args.n}")
    b = bounds(args.n)
    print(f"width {b.width}")
    print(f"n_c {b.n_c}")
    print(f"n_a {b.n_a}")
    print(f"extra {b.extra}")
    print(f"per_reduction_total {b.per_reduction_total}")
    print(f"cumulative_total {sum(bounds(w).per_reduction_total for w in range(3, args.n + 1))}")
    return 0


def _bench_one(path: str, cfg: SynthesisConfig, table: CostTable) -> dict[str, object]:
    t0 = time.perf_counter()
    perm, n_out, garbage = _load_spec(path)
    seq, report = synthesize(perm, cfg)  # verifies the circuit, raises if wrong
    return {
        "name": os.path.basename(path),
        "in": perm.width,
        "out": n_out,
        "garbage": garbage,
        "quantum_cost": quantum_cost(seq, table),  # a missing entry fails this file
        "toffoli": report.toffoli_total,
        "seconds": time.perf_counter() - t0,
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        names = sorted(
            f
            for f in os.listdir(args.directory)
            if f.endswith(".perm") or f.endswith(".tt")
        )
    except OSError as exc:
        raise UsageError(f"cannot list {args.directory}: {exc.strerror}") from None
    if not names:
        raise UsageError(f"no .perm or .tt files in {args.directory}")
    cfg = _config_from_args(args)
    table = _table_from_args(args)
    columns = ["name", "in", "out", "garbage", "quantum_cost", "toffoli", "seconds"]
    print("\t".join(columns))
    for name in names:
        try:
            row = _bench_one(os.path.join(args.directory, name), cfg, table)
        except Exception as exc:
            # A usage error already names the file, worded as ``synth`` words it.
            message = str(exc) if isinstance(exc, UsageError) else f"{name}: {exc}"
            print(f"error: {message}", file=sys.stderr)
            continue
        print("\t".join(f"{row[c]:.3f}" if c == "seconds" else str(row[c]) for c in columns))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksynth",
        description="Synthesize, verify and cost reversible circuits for "
        "n-bit substitution maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit for a permutation "
                       "or truth-table file")
    p.add_argument("input")
    p.add_argument("--out", help="circuit file to write")
    p.add_argument("--report", help="report file to write")
    _add_config_args(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="check a circuit against a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cost", help="cost an existing circuit file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--cost-table")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("expand", help="rewrite into NOT/CNOT/Toffoli gates")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--policy", choices=["clean", "dirty"], default="clean")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("bound", help="print analytic Toffoli budgets")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("bench", help="synthesize every .perm/.tt in a directory")
    p.add_argument("directory")
    _add_config_args(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
