"""Text formats: permutations, truth tables, circuit files, reports.

All writers are byte-deterministic.  ``#`` starts a comment in every
line-oriented format.  Circuit files use the common reversible-circuit
subset: a ``.version``/``.numvars``/``.variables`` header, then ``t<k>``
gate lines between ``.begin`` and ``.end`` where ``t<k>`` takes k names,
the last one being the target (so ``t1 x3`` is an X on the line named x3).
``read_real`` is the one reader: it returns the ``GateSequence`` and reads
past the ``.inputs``/``.outputs``/``.constants``/``.garbage`` annotations;
``format_real`` writes ``.outputs`` and ``.garbage`` for embedded truth
tables.  Negative controls are materialized as
X conjugations on write; read files therefore always come back with
positive controls.
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
    """Unsupported or misplaced dot-directive, or unsupported gate type, in a
    circuit file."""


class UnknownLineName(ValueError):
    """Gate operand does not match any declared variable."""


class ArityMismatch(ValueError):
    """Gate or directive got the wrong number of operands, or operands that
    repeat a line."""


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
        # A copy, so a caller's list cannot change after the checks.
        object.__setattr__(self, "rows", tuple(self.rows))
        if not (1 <= self.n_in <= MAX_WIDTH and 1 <= self.n_out <= MAX_WIDTH):
            raise WrongCount(
                f"need 1 <= n_in, n_out <= {MAX_WIDTH}, got {self.n_in}/{self.n_out}"
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
    if not 1 <= n_in <= MAX_WIDTH:
        raise WrongCount(f"n_in {n_in} outside 1..{MAX_WIDTH}")
    if not 1 <= n_out <= MAX_WIDTH:
        raise WrongCount(f"n_out {n_out} outside 1..{MAX_WIDTH}")
    body = []
    for t in toks[2:]:
        try:
            body.append(int(t))
        except ValueError:
            raise MalformedInteger(f"row value {t!r} is not an integer") from None
    if len(body) != 1 << n_in:
        raise WrongCount(f"n_in {n_in} needs {1 << n_in} rows, found {len(body)}")
    return TruthTable(n_in, n_out, tuple(body))


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


def read_real(text: str) -> GateSequence:
    """Parse a circuit file; every error names the offending line.

    The header directives must come before ``.begin``, each of ``.numvars``
    and ``.variables`` at most once, so the width and the line names are
    fixed for the whole body.  One dict maps each gate line, raw and with
    its comment and spaces stripped, to its ``Gate``: a raw line that
    recurs costs one lookup, and a gate written two ways is parsed once.
    The dict is emptied at ``.end``, so any content after it is an error.
    The ``.inputs``, ``.outputs``, ``.constants`` and ``.garbage``
    annotations are accepted and dropped.
    """
    width: Optional[int] = None
    variables: Optional[tuple[str, ...]] = None
    var_index: dict[str, int] = {}
    parsed: dict[str, Gate] = {}
    gates: list[Gate] = []
    begun = ended = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        g = parsed.get(raw)
        if g is not None:
            gates.append(g)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise UnknownDirective(f"line {lineno}: content after .end")
        g = parsed.get(line)
        if g is not None:
            gates.append(g)
            parsed[raw] = g
            continue
        toks = line.split()
        head = toks[0]
        if head.startswith("."):
            if begun and head not in (".begin", ".end"):
                raise UnknownDirective(f"line {lineno}: {head} after .begin")
            if head in (".version", ".inputs", ".outputs", ".constants", ".garbage"):
                pass
            elif head == ".numvars":
                if width is not None:
                    raise ArityMismatch(f"line {lineno}: second .numvars")
                if len(toks) != 2:
                    raise ArityMismatch(f"line {lineno}: .numvars takes one value")
                try:
                    width = int(toks[1])
                except ValueError:
                    raise MalformedInteger(
                        f"line {lineno}: bad .numvars value {toks[1]!r}"
                    ) from None
                if variables is not None and len(variables) != width:
                    raise ArityMismatch(
                        f"line {lineno}: {width} variables declared, "
                        f"{len(variables)} named"
                    )
            elif head == ".variables":
                if variables is not None:
                    raise ArityMismatch(f"line {lineno}: second .variables")
                variables = tuple(toks[1:])
                if width is not None and len(variables) != width:
                    raise ArityMismatch(
                        f"line {lineno}: {width} variables declared, "
                        f"{len(variables)} named"
                    )
                var_index = {name: i + 1 for i, name in enumerate(variables)}
                if len(var_index) != len(variables):
                    twice = next(v for v in variables if variables.count(v) > 1)
                    raise ArityMismatch(f"line {lineno}: variable {twice!r} named twice")
            elif head == ".begin":
                if begun:
                    raise UnknownDirective(f"line {lineno}: second .begin")
                if width is None or width < 1 or not variables:
                    raise ArityMismatch(
                        f"line {lineno}: .begin before .numvars/.variables"
                    )
                begun = True
            elif head == ".end":
                if not begun:
                    raise UnknownDirective(f"line {lineno}: .end without .begin")
                ended = True
                parsed.clear()
            else:
                raise UnknownDirective(f"line {lineno}: {head}")
            continue
        if not begun:
            raise UnknownDirective(
                f"line {lineno}: gate line {head!r} outside .begin/.end"
            )
        # ``str.isdigit`` alone also accepts digits such as "²" or "٣".
        if not (head[0] == "t" and head[1:].isascii() and head[1:].isdigit()):
            raise UnknownDirective(f"line {lineno}: unsupported gate type {head!r}")
        arity = int(head[1:])
        if arity < 1:
            raise ArityMismatch(f"line {lineno}: {head}: a gate names at least one line")
        operands = toks[1:]
        if len(operands) != arity:
            raise ArityMismatch(
                f"line {lineno}: {head} needs {arity} line names, got {len(operands)}"
            )
        lines = []
        for name in operands:
            if name not in var_index:
                raise UnknownLineName(f"line {lineno}: {name!r} not declared")
            lines.append(var_index[name])
        try:
            g = Gate(width, lines[-1], tuple((l, True) for l in lines[:-1]))
        except ValueError as exc:
            raise ArityMismatch(f"line {lineno}: {exc}") from None
        gates.append(g)
        parsed[raw] = parsed[line] = g
    if not ended:
        raise UnknownDirective("missing .end")
    return GateSequence(width, tuple(gates))


def format_real(
    seq: GateSequence, *, outputs: tuple[str, ...] = (), garbage: str = ""
) -> str:
    """Serialize a sequence; negative controls become X conjugations.

    One dict maps each distinct gate to its text, so a gate that recurs is
    rendered once.
    """
    n = seq.width
    names = [f"x{i}" for i in range(1, n + 1)]
    lines = [".version 2.0", f".numvars {n}", ".variables " + " ".join(names)]
    if outputs:
        lines.append(".outputs " + " ".join(outputs))
    if garbage:
        lines.append(".garbage " + garbage)
    lines.append(".begin")

    def render(g: Gate) -> str:
        negatives = [f"t1 {names[l - 1]}" for l, positive in sorted(g.controls) if not positive]
        operands = sorted(l for l, _ in g.controls) + [g.target]
        gate = f"t{len(operands)} " + " ".join(names[l - 1] for l in operands)
        return "\n".join(negatives + [gate] + negatives)

    rendered: dict[Gate, str] = {}
    for g in seq:
        text = rendered.get(g)
        if text is None:
            text = rendered[g] = render(g)
        lines.append(text)
    lines.append(".end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reports.


def write_report(report: SynthesisReport) -> str:
    """Flat two-token ``key value`` lines, fixed order, deterministic."""
    cfg = report.config
    if not cfg.depths:
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
    """Invert ``write_report``: ints as int, floats as float, rest as str.
    A name stays a str, even one like ``12`` or ``nan``."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise WrongCount(f"line {lineno}: expected 'key value', got {raw!r}")
        key, value = parts
        if key in ("format", "cost_table", "depths"):
            out[key] = value
            continue
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out
