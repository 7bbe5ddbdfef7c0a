"""Text formats: permutations, truth tables, circuit files, reports.

All writers are byte-deterministic.  ``#`` starts a comment in every
line-oriented format.  Circuit files use the common reversible-circuit
subset: a ``.version``/``.numvars``/``.variables`` header, then ``t<k>``
gate lines between ``.begin`` and ``.end`` where ``t<k>`` takes k names,
the last one being the target (so ``t1 x3`` is an X on the line named x3).
Negative controls are materialized as X conjugations on write; read files
therefore always come back with positive controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Gate, GateSequence, MAX_WIDTH, Permutation
from .synthesis import SynthesisReport


class WrongCount(ValueError):
    """Wrong number of values for the declared width."""


class MalformedInteger(ValueError):
    """A token that had to be an integer (in range) was not."""


class Unbalanced(ValueError):
    """Truth table cannot be embedded reversibly: some output value is too
    frequent for the available garbage space."""


class UnknownDirective(ValueError):
    """Unsupported dot-directive or gate type in a circuit file."""


class UnknownLineName(ValueError):
    """Gate operand does not match any declared variable."""


class ArityMismatch(ValueError):
    """Gate or directive got the wrong number of operands."""


def _tokens(text: str) -> list[str]:
    out: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        out.extend(line.split())
    return out


# ---------------------------------------------------------------------------
# Permutations.


def parse_permutation(text: str) -> Permutation:
    """Width token, then 2^width row numbers, comments allowed."""
    toks = _tokens(text)
    if not toks:
        raise WrongCount("no tokens: expected a width and 2^width entries")
    try:
        width = int(toks[0])
    except ValueError:
        raise MalformedInteger(f"width token {toks[0]!r} is not an integer") from None
    if not 1 <= width <= MAX_WIDTH:
        raise WrongCount(f"width {width} outside 1..{MAX_WIDTH}")
    body = toks[1:]
    if len(body) != 1 << width:
        raise WrongCount(
            f"width {width} needs {1 << width} entries, found {len(body)}"
        )
    values = []
    for t in body:
        try:
            values.append(int(t))
        except ValueError:
            raise MalformedInteger(f"entry {t!r} is not an integer") from None
    return Permutation(width, tuple(values))


def format_permutation(perm: Permutation) -> str:
    lines = [str(perm.width)]
    entries = perm.entries
    for start in range(0, len(entries), 16):
        lines.append(" ".join(str(v) for v in entries[start : start + 16]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Truth tables and reversible embedding.


@dataclass(frozen=True)
class TruthTable:
    """Total function {0,1}^n_in -> {0,1}^n_out as an output list."""

    n_in: int
    n_out: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n_in <= MAX_WIDTH or self.n_out < 1:
            raise WrongCount(
                f"need 1 <= n_in <= {MAX_WIDTH} and n_out >= 1, "
                f"got {self.n_in}/{self.n_out}"
            )
        if len(self.rows) != 1 << self.n_in:
            raise WrongCount(
                f"{1 << self.n_in} rows required, found {len(self.rows)}"
            )
        for v in self.rows:
            if not 0 <= v < 1 << self.n_out:
                raise MalformedInteger(
                    f"output value {v} outside 0..2^{self.n_out}-1"
                )


def parse_truth_table(text: str) -> TruthTable:
    """Two width tokens (inputs, outputs), then 2^n_in output values."""
    toks = _tokens(text)
    if len(toks) < 2:
        raise WrongCount("expected 'n_in n_out' then the output rows")
    try:
        n_in, n_out = int(toks[0]), int(toks[1])
    except ValueError:
        raise MalformedInteger(f"width tokens {toks[:2]} are not integers") from None
    body = []
    for t in toks[2:]:
        try:
            body.append(int(t))
        except ValueError:
            raise MalformedInteger(f"row value {t!r} is not an integer") from None
    if n_in < 1 or len(body) != 1 << n_in:
        raise WrongCount(
            f"n_in {n_in} needs {1 << n_in if n_in >= 1 else '?'} rows, "
            f"found {len(body)}"
        )
    return TruthTable(n_in, n_out, tuple(body))


def format_truth_table(table: TruthTable) -> str:
    lines = [f"{table.n_in} {table.n_out}"]
    for start in range(0, len(table.rows), 16):
        lines.append(" ".join(str(v) for v in table.rows[start : start + 16]))
    return "\n".join(lines) + "\n"


def embed_truth_table(table: TruthTable) -> tuple[Permutation, int]:
    """Reversible embedding with garbage on the least significant lines.

    Input x maps to f(x)*2^g + k(x) where g = n_in - n_out and k(x) counts
    earlier occurrences of f(x).  Possible exactly when every output value
    occurs at most 2^g times (with 2^n_in rows that forces *exactly* 2^g
    times, i.e. a balanced function); otherwise raises :class:`Unbalanced`.
    """
    garbage = table.n_in - table.n_out
    if garbage < 0:
        raise Unbalanced(
            f"{table.n_out} outputs cannot be balanced over {table.n_in} inputs"
        )
    cap = 1 << garbage
    counts: dict[int, int] = {}
    entries = []
    for value in table.rows:
        k = counts.get(value, 0)
        if k >= cap:
            raise Unbalanced(
                f"output value {value} occurs more than {cap} times"
            )
        counts[value] = k + 1
        entries.append(value * cap + k)
    return Permutation(table.n_in, tuple(entries)), garbage


# ---------------------------------------------------------------------------
# Circuit files.


@dataclass(frozen=True)
class CircuitFile:
    """Parsed circuit file: declared lines, gates, optional annotations."""

    width: int
    variables: tuple[str, ...]
    gates: tuple[Gate, ...]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    constants: str = ""
    garbage: str = ""

    def to_sequence(self) -> GateSequence:
        return GateSequence(self.width, self.gates)


def parse_real(text: str) -> CircuitFile:
    width = 0
    variables: tuple[str, ...] = ()
    var_index: dict[str, int] = {}
    gates: list[Gate] = []
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    constants = ""
    garbage = ""
    in_body = False
    ended = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if ended:
            raise UnknownDirective(f"line {lineno}: content after .end")
        if head.startswith("."):
            if head == ".version":
                pass
            elif head == ".numvars":
                if len(toks) != 2:
                    raise ArityMismatch(f"line {lineno}: .numvars takes one value")
                try:
                    width = int(toks[1])
                except ValueError:
                    raise MalformedInteger(
                        f"line {lineno}: bad .numvars value {toks[1]!r}"
                    ) from None
            elif head == ".variables":
                variables = tuple(toks[1:])
                if width and len(variables) != width:
                    raise ArityMismatch(
                        f"line {lineno}: {width} variables declared, "
                        f"{len(variables)} named"
                    )
                var_index = {name: i + 1 for i, name in enumerate(variables)}
            elif head == ".inputs":
                inputs = tuple(toks[1:])
            elif head == ".outputs":
                outputs = tuple(toks[1:])
            elif head == ".constants":
                constants = toks[1] if len(toks) > 1 else ""
            elif head == ".garbage":
                garbage = toks[1] if len(toks) > 1 else ""
            elif head == ".begin":
                if width < 1 or not variables:
                    raise ArityMismatch(
                        f"line {lineno}: .begin before .numvars/.variables"
                    )
                in_body = True
            elif head == ".end":
                in_body = False
                ended = True
            else:
                raise UnknownDirective(f"line {lineno}: {head}")
            continue
        if not in_body:
            raise UnknownDirective(
                f"line {lineno}: gate line {head!r} outside .begin/.end"
            )
        if not (head[0] == "t" and head[1:].isdigit()):
            raise UnknownDirective(f"line {lineno}: unsupported gate type {head!r}")
        arity = int(head[1:])
        operands = toks[1:]
        if len(operands) != arity or arity < 1:
            raise ArityMismatch(
                f"line {lineno}: {head} needs {arity} line names, got {len(operands)}"
            )
        lines = []
        for name in operands:
            if name not in var_index:
                raise UnknownLineName(f"line {lineno}: {name!r} not declared")
            lines.append(var_index[name])
        gates.append(
            Gate(width, lines[-1], tuple((l, True) for l in lines[:-1]))
        )
    if not ended:
        raise UnknownDirective("missing .end")
    return CircuitFile(
        width, variables, tuple(gates), inputs, outputs, constants, garbage
    )


def read_real(text: str) -> GateSequence:
    return parse_real(text).to_sequence()


def format_real(
    seq: GateSequence,
    *,
    inputs: tuple[str, ...] = (),
    outputs: tuple[str, ...] = (),
    constants: str = "",
    garbage: str = "",
) -> str:
    """Serialize a sequence; negative controls become X conjugations."""
    n = seq.width
    names = [f"x{i}" for i in range(1, n + 1)]
    lines = [
        ".version 2.0",
        f".numvars {n}",
        ".variables " + " ".join(names),
    ]
    if inputs:
        lines.append(".inputs " + " ".join(inputs))
    if outputs:
        lines.append(".outputs " + " ".join(outputs))
    if constants:
        lines.append(".constants " + constants)
    if garbage:
        lines.append(".garbage " + garbage)
    lines.append(".begin")

    def emit(gate_lines: list[int]) -> None:
        lines.append(
            f"t{len(gate_lines)} " + " ".join(names[l - 1] for l in gate_lines)
        )

    for g in seq:
        negatives = sorted(l for l, positive in g.controls if not positive)
        for l in negatives:
            emit([l])
        emit(sorted(l for l, _ in g.controls) + [g.target])
        for l in negatives:
            emit([l])
    lines.append(".end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reports.


def write_report(report: SynthesisReport) -> str:
    """Flat two-token ``key value`` lines, fixed order, deterministic."""
    cfg = report.config
    if cfg.depths is None:
        depth_spec = "default"
    elif not cfg.depths:
        depth_spec = "default"
    else:
        depth_spec = ",".join(f"{j}={d}" for j, d in sorted(cfg.depths.items()))
    rows: list[tuple[str, object]] = [
        ("format", "blocksynth-report-1"),
        ("width", report.width),
        ("gate_count", report.gate_count),
        ("toffoli_total", report.toffoli_total),
        ("quantum_cost_total", report.quantum_cost_total),
        ("bound_total", report.bound_total),
        ("assumption1_deviations", report.assumption1_deviations),
        ("region_lifts", report.region_lifts),
        ("lift_toffoli", report.lift_toffoli),
        ("wall_time_s", f"{report.wall_time_s:.6f}"),
        ("cost_table", report.cost_table),
        ("depths", depth_spec),
        ("exhaustive_tail", cfg.exhaustive_tail),
        ("mix_max_depth", cfg.mix.max_depth),
        ("mix_budget", cfg.mix.enumeration_budget),
        ("post_peephole", int(cfg.post_peephole)),
        ("stage_count", len(report.stages)),
    ]
    for s in report.stages:
        w = s.width
        rows.extend(
            [
                (f"stage_{w}_mix_gates", s.mix_gates),
                (f"stage_{w}_pre_gates", s.pre_gates),
                (f"stage_{w}_red_gates", s.red_gates),
                (f"stage_{w}_toffoli", s.toffoli),
                (f"stage_{w}_bound", s.bound),
                (f"stage_{w}_region_lifts", s.region_lifts),
                (f"stage_{w}_lift_toffoli", s.lift_toffoli),
                (f"stage_{w}_mix_depth", s.mix_depth),
                (f"stage_{w}_mix_fixups", s.mix_fixups),
            ]
        )
    return "\n".join(f"{k} {v}" for k, v in rows) + "\n"


def parse_report(text: str) -> dict[str, object]:
    """Invert ``write_report``: ints as int, floats as float, rest as str."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise WrongCount(f"line {lineno}: expected 'key value', got {raw!r}")
        key, value = parts
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out
