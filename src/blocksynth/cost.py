"""Cost accounting and expansion of multi-controlled Toffolis.

``toffoli_count`` is the primary figure of merit: a gate with m >= 2
controls counts as 2m-3 Toffoli-equivalents, smaller gates are free
(``toffoli_equivalents``, which pair selection and region lifts also use).
``quantum_cost`` looks each gate up in a :class:`CostTable` keyed by control
count (polarity never changes the price); lookups outside the table raise
:class:`MissingCostEntry` rather than guessing.

``expand_mct`` rewrites a circuit into NOT/CNOT/Toffoli gates only.  The
default *clean* policy chains each m-controlled gate through m-2 shared
work lines that start and end at zero, spending exactly 2m-3 Toffolis.  The
*dirty* policy borrows lines that merely need to be restored: 4 Toffolis at
m=3, 10 at m=4, and 8(m-3) for m >= 5 via a two-factor split whose halves
lend each other their controls as scratch.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Literal, Mapping, Optional

from .core import Gate, GateSequence, InternalError, cx, toffoli, x


class MissingCostEntry(KeyError):
    """The cost table has no row for this control count."""

    __str__ = BaseException.__str__  # KeyError's own str() quotes the message


@dataclass(frozen=True)
class CostTable:
    """Quantum-cost lookup keyed by number of controls."""

    name: str
    qc: Mapping[int, int]

    def cost_of(self, controls: int) -> int:
        try:
            return self.qc[controls]
        except KeyError:
            raise MissingCostEntry(
                f"cost table '{self.name}' has no entry for {controls} controls"
            ) from None


def toffoli_equivalents(controls: int) -> int:
    """Toffoli-equivalents of one gate: 2m-3 for m >= 2 controls, else 0."""
    return 2 * controls - 3 if controls >= 2 else 0


def _default_entries() -> dict[int, int]:
    entries = {0: 1, 1: 1, 2: 5, 3: 13, 4: 29}
    for m in range(5, 24):
        entries[m] = 5 * toffoli_equivalents(m)
    return entries


DEFAULT_TABLE = CostTable("default", _default_entries())


def load_cost_table(text: str, name: str = "custom") -> CostTable:
    """Parse ``controls cost`` lines; ``#`` starts a comment."""
    entries: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'controls cost', got {raw!r}")
        try:
            controls, costv = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        if controls < 0 or costv < 0:
            raise ValueError(f"line {lineno}: negative value in {raw!r}")
        if controls in entries:
            raise ValueError(f"line {lineno}: control count {controls} given twice")
        entries[controls] = costv
    if not entries:
        raise ValueError("cost table text contains no entries")
    return CostTable(name, entries)


def read_cost_table(path: str) -> CostTable:
    with open(path, "r", encoding="utf-8") as fh:
        return load_cost_table(fh.read(), name=os.path.basename(path))


def resolve_table(path: Optional[str] = None) -> CostTable:
    """The table in the file at ``path``, else the default."""
    return read_cost_table(path) if path else DEFAULT_TABLE


def toffoli_count(seq: GateSequence) -> int:
    """Toffoli-equivalents summed over the gates of ``seq``, each distinct
    gate priced once (``Gate`` caches its hash)."""
    return sum(toffoli_equivalents(g.control_count) * k for g, k in Counter(seq.gates).items())


def quantum_cost(seq: GateSequence, table: Optional[CostTable] = None) -> int:
    """The ``table`` cost summed over the gates of ``seq``, each distinct
    gate priced once."""
    t = table or DEFAULT_TABLE
    return sum(t.cost_of(g.control_count) * k for g, k in Counter(seq.gates).items())


# ---------------------------------------------------------------------------
# Expansion into the NOT/CNOT/Toffoli library.


@dataclass(frozen=True)
class ExpansionResult:
    circuit: GateSequence
    work_lines: int


def _clean_ladder(width: int, controls: list[int], target: int, base: int) -> list[Gate]:
    """2m-3 Toffolis through zeroed work lines base+1, base+2, ..."""
    m = len(controls)
    work = [base + q for q in range(1, m - 1)]
    compute = [toffoli(width, controls[0], controls[1], work[0])]
    for q in range(1, m - 2):
        compute.append(toffoli(width, controls[q + 1], work[q - 1], work[q]))
    out = list(compute)
    out.append(toffoli(width, controls[m - 1], work[m - 3], target))
    out.extend(reversed(compute))
    return out


def _v_chain(width: int, controls: list[int], target: int, dirt: list[int]) -> list[Gate]:
    """m-controlled X using m-2 borrowed lines, 4(m-2) Toffolis (m >= 3).

    The borrowed lines may hold anything; they are restored.  Layout for
    controls d1..ds and scratch a1..a_{s-2}::

        D = T(ds, a_{s-2}, target), T(d_{s-1}, a_{s-3}, a_{s-2}), ...
        base = T(d1, d2, a1)
        chain = D + base + reversed(D[1:]) applied twice
    """
    s = len(controls)
    if s == 1:
        return [cx(width, controls[0], target)]
    if s == 2:
        return [toffoli(width, controls[0], controls[1], target)]
    if len(dirt) < s - 2:
        raise InternalError(
            f"internal error: a {s}-controlled V-chain needs {s - 2} borrowed "
            f"lines, got {len(dirt)}"
        )
    a = dirt[: s - 2]
    descend = [toffoli(width, controls[s - 1], a[s - 3], target)]
    for q in range(s - 3):
        descend.append(toffoli(width, controls[s - 2 - q], a[s - 4 - q], a[s - 3 - q]))
    base = toffoli(width, controls[0], controls[1], a[0])
    half = descend + [base] + list(reversed(descend[1:]))
    return half + half


def _expand_positive(
    width: int, controls: list[int], target: int, policy: str, clean_base: int
) -> list[Gate]:
    m = len(controls)
    if m == 0:
        return [x(width, target)]
    if m == 1:
        return [cx(width, controls[0], target)]
    if m == 2:
        return [toffoli(width, controls[0], controls[1], target)]
    if policy == "clean":
        return _clean_ladder(width, controls, target, clean_base)
    support = set(controls) | {target}
    spare = [l for l in range(1, width + 1) if l not in support]
    if m == 3:
        a = spare[0]
        g_top = toffoli(width, controls[2], a, target)
        g_bot = toffoli(width, controls[0], controls[1], a)
        return [g_top, g_bot, g_top, g_bot]
    k = (m + 1) // 2
    a = spare[0]
    b_controls = controls[:k]
    a_controls = sorted(controls[k:] + [a])
    factor_a = _v_chain(width, a_controls, target, b_controls)
    factor_b = _v_chain(width, b_controls, a, controls[k:])
    return factor_a + factor_b + factor_a + factor_b


def expand_mct(
    seq: GateSequence, policy: Literal["clean", "dirty"] = "clean"
) -> ExpansionResult:
    """Rewrite every gate into NOTs, CNOTs and Toffolis with positive controls.

    Negative controls become X conjugations.  Clean policy appends
    max(0, m_max - 2) shared work lines after the original ones, all zeroed
    before and after each expanded gate.  Dirty policy borrows existing
    lines outside a gate's support and appends at most one extra line (only
    when some gate touches every original line); borrowed lines are restored
    no matter their prior value.  Each distinct gate is expanded, and its
    piece checked, once per call.
    """
    if policy not in ("clean", "dirty"):
        raise ValueError(f"unknown expansion policy {policy!r}")
    n = seq.width
    if policy == "clean":
        m_max = max((g.control_count for g in seq), default=0)
        work = max(0, m_max - 2)
    else:
        work = 1 if any(g.control_count >= 3 and g.control_count + 2 > n for g in seq) else 0
    width = n + work
    pieces: dict[Gate, list[Gate]] = {}  # each distinct gate, expanded once
    out: list[Gate] = []
    for g in seq:
        piece = pieces.get(g)
        if piece is None:
            piece = pieces[g] = _expand_gate(g, width, policy, n)
        out.extend(piece)
    return ExpansionResult(GateSequence(width, tuple(out)), work)


def _expand_gate(g: Gate, width: int, policy: str, clean_base: int) -> list[Gate]:
    """``g`` at ``width`` in NOTs, CNOTs and Toffolis with positive controls."""
    conjugate = [x(width, l) for l, positive in sorted(g.controls) if not positive]
    controls = sorted(l for l, _ in g.controls)
    piece = conjugate + _expand_positive(width, controls, g.target, policy, clean_base)
    piece += conjugate
    for p in piece:
        if p.control_count > 2 or not all(pos for _, pos in p.controls):
            raise InternalError(
                f"internal error: expansion left {p}, which is not a NOT, CNOT "
                "or Toffoli with positive controls"
            )
    return piece
