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
from concurrent.futures import ProcessPoolExecutor

from .conditioning import MixConfig
from .core import MAX_WIDTH, Permutation, verify_identity
from .cost import expand_mct, quantum_cost, resolve_table, toffoli_count
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


def _load_spec(path: str) -> tuple[Permutation, int, int]:
    """Read a permutation or truth-table file; returns (perm, n_out, garbage).

    The two formats are told apart by token count: a width-n permutation
    file holds 2^n + 1 tokens, a truth table 2^n_in + 2.
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
    try:
        if len(toks) == (1 << first) + 1:
            perm = parse_permutation(text)
            return perm, perm.width, 0
        table = parse_truth_table(text)
        perm, garbage = embed_truth_table(table)
        return perm, table.n_out, garbage
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_depths(spec: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad --depths entry {part!r}, expected j=d")
        j, _, d = part.partition("=")
        try:
            out[int(j)] = int(d)
        except ValueError:
            raise UsageError(f"bad --depths entry {part!r}, expected integers") from None
    return out


def _add_config_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--depth", type=int, help="constant lookahead depth")
    group.add_argument("--depths", help="per-scale lookahead depths, e.g. 2=1,3=2")
    p.add_argument(
        "--tail-exhaustive",
        type=int,
        default=9,
        help="exact search over the last positions of a stage (0 disables)",
    )
    p.add_argument("--no-peephole", action="store_true")
    p.add_argument("--mix-depth", type=int, default=4)
    p.add_argument("--mix-budget", type=int, default=2_000_000)
    p.add_argument("--cost-table", help="quantum-cost table file")


def _config_from_args(args: argparse.Namespace) -> SynthesisConfig:
    if args.depth is not None:
        depths = {j: args.depth for j in range(1, MAX_WIDTH + 1)}
    elif args.depths:
        depths = _parse_depths(args.depths)
    else:
        depths = None
    return SynthesisConfig(
        depths=depths,
        exhaustive_tail=args.tail_exhaustive,
        mix=MixConfig(max_depth=args.mix_depth, enumeration_budget=args.mix_budget),
        post_peephole=not args.no_peephole,
    )


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_synth(args: argparse.Namespace) -> int:
    perm, n_out, garbage = _load_spec(args.input)
    cfg = _config_from_args(args)
    seq, report = synthesize(perm, cfg)
    try:
        table = resolve_table(args.cost_table)
        qc = quantum_cost(seq, table)
    except (ValueError, KeyError) as exc:
        raise UsageError(str(exc)) from None
    except OSError as exc:
        raise UsageError(f"cannot read cost table: {exc.strerror}") from None
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
        _write(args.report, write_report(report))
    print(
        f"width {perm.width} gates {len(seq)} toffoli {report.toffoli_total} "
        f"quantum_cost {qc} garbage {garbage} wall_s {report.wall_time_s:.3f}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    perm, _, _ = _load_spec(args.perm)
    try:
        seq = read_real(_read_text(args.circuit))
    except ValueError as exc:
        raise UsageError(f"{args.circuit}: {exc}") from None
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
    try:
        seq = read_real(_read_text(args.circuit))
        table = resolve_table(args.cost_table)
        qc = quantum_cost(seq, table)
    except (ValueError, KeyError) as exc:
        raise UsageError(str(exc)) from None
    except OSError as exc:
        raise UsageError(f"cannot read cost table: {exc.strerror}") from None
    print(f"gates {len(seq)}")
    print(f"toffoli {toffoli_count(seq)}")
    print(f"quantum_cost {qc}")
    print(f"cost_table {table.name}")
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    try:
        seq = read_real(_read_text(args.circuit))
        result = expand_mct(seq, args.policy)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write(args.out, format_real(result.circuit))
    print(
        f"gates {len(result.circuit)} width {result.circuit.width} "
        f"work_lines {result.work_lines} toffoli {toffoli_count(result.circuit)}"
    )
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.n < 3:
        raise UsageError("--n must be at least 3")
    b = bounds(args.n)
    print(f"width {b.width}")
    print(f"n_c {b.n_c}")
    print(f"n_a {b.n_a}")
    print(f"extra {b.extra}")
    print(f"per_reduction_total {b.per_reduction_total}")
    print(f"cumulative_total {sum(bounds(w).per_reduction_total for w in range(3, args.n + 1))}")
    return 0


def _bench_one(path: str, cfg: SynthesisConfig) -> dict[str, object]:
    t0 = time.perf_counter()
    perm, n_out, garbage = _load_spec(path)
    seq, report = synthesize(perm, cfg)
    if not verify_identity(perm, seq):  # synthesize already checks; belt and braces
        raise RuntimeError("verification failed")
    return {
        "name": os.path.basename(path),
        "in": perm.width,
        "out": n_out,
        "garbage": garbage,
        "quantum_cost": report.quantum_cost_total,
        "toffoli": report.toffoli_total,
        "seconds": time.perf_counter() - t0,
    }


def _bench_failure(name: str, exc: Exception) -> None:
    # A usage error already names the file, worded as ``synth`` words it.
    message = str(exc) if isinstance(exc, UsageError) else f"{name}: {exc}"
    print(f"error: {message}", file=sys.stderr)


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
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
    paths = [os.path.join(args.directory, f) for f in names]
    results: dict[str, dict[str, object]] = {}
    # The pool starts all its workers up front: never more than there are
    # files or cores.
    workers = min(args.jobs, len(paths), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {name: pool.submit(_bench_one, path, cfg) for name, path in zip(names, paths)}
        for name, fut in futures.items():
            try:
                results[name] = fut.result()
            except Exception as exc:
                _bench_failure(name, exc)
    else:
        for name, path in zip(names, paths):
            try:
                results[name] = _bench_one(path, cfg)
            except Exception as exc:
                _bench_failure(name, exc)
    columns = ["name", "in", "out", "garbage", "quantum_cost", "toffoli", "seconds"]
    print("\t".join(columns))
    for name in names:
        row = results.get(name)
        if row is None:
            continue
        print(
            "\t".join(
                f"{row[c]:.3f}" if c == "seconds" else str(row[c]) for c in columns
            )
        )
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
    p.add_argument("--jobs", type=int, default=1)
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
