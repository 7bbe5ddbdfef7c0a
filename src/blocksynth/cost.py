"""Cost accounting and expansion of multi-controlled Toffolis.

``toffoli_count`` is the primary figure of merit: a gate with m >= 2
controls counts as 2m-3 Toffoli-equivalents, smaller gates are free
(``toffoli_equivalents``, which pair selection and region lifts also use).
``quantum_cost`` looks each gate up in a :class:`CostTable` keyed by control
count (polarity never changes the price); lookups outside the table raise
:class:`MissingCostEntry` rather than guessing.  Both price each control
count once, from the census that a ``GateSequence`` counts once and keeps.

``expand_mct`` rewrites a circuit into NOT/CNOT/Toffoli gates only.  The
default *clean* policy chains each m-controlled gate through m-2 shared
work lines that start and end at zero, spending exactly 2m-3 Toffolis.  The
*dirty* policy borrows lines that merely need to be restored: 4 Toffolis at
m=3, 10 at m=4, and 8(m-3) for m >= 5 via a two-factor split whose halves
lend each other their controls as scratch.  A call expands each distinct
input gate once and builds each distinct output gate once (``_Pieces`` and
``_Gates``), so the work grows with the distinct gates, not the gate lines.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Literal, Mapping, Optional

from .core import Gate, GateSequence, InternalError


class MissingCostEntry(KeyError):
    """The cost table has no row for this control count."""

    __str__ = BaseException.__str__  # KeyError's own str() quotes the message


@dataclass(frozen=True)
class CostTable:
    """Quantum-cost lookup keyed by number of controls.  ``qc`` is kept as
    a read-only copy, so no caller's dict can change a later price."""

    name: str
    qc: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "qc", MappingProxyType(dict(self.qc)))

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
    """The table in the file at ``path``, named after the file.  Each
    whitespace run and each ``#`` of the name becomes ``_``, so a report's
    ``cost_table`` line reads back as the one name."""
    name = re.sub(r"\s+", "_", os.path.basename(path)).replace("#", "_")
    with open(path, "r", encoding="utf-8") as fh:
        return load_cost_table(fh.read(), name=name)


def resolve_table(path: Optional[str] = None) -> CostTable:
    """The table in the file at ``path``, else the default."""
    return read_cost_table(path) if path else DEFAULT_TABLE


def toffoli_count(seq: GateSequence) -> int:
    """Toffoli-equivalents summed over the gates of ``seq``, each control
    count priced once."""
    return sum(toffoli_equivalents(m) * k for m, k in seq._control_counts().items())


def quantum_cost(seq: GateSequence, table: Optional[CostTable] = None) -> int:
    """The ``table`` cost summed over the gates of ``seq``, each control
    count priced once."""
    t = table or DEFAULT_TABLE
    return sum(t.cost_of(m) * k for m, k in seq._control_counts().items())


# ---------------------------------------------------------------------------
# Expansion into the NOT/CNOT/Toffoli library.


@dataclass(frozen=True)
class ExpansionResult:
    circuit: GateSequence
    work_lines: int


class _Gates(dict):
    """One expansion's output gates, keyed by (target, *controls): a missing
    key builds its ``Gate`` at ``width`` with positive controls, so each
    distinct gate is built once per call and every piece holding it shares
    the object."""

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width

    def __missing__(self, key: tuple[int, ...]) -> Gate:
        target, *controls = key
        g = self[key] = Gate(self.width, target, tuple((l, True) for l in controls))
        return g


class _Pieces(dict):
    """One expansion's pieces, keyed by input gate: a missing gate is
    expanded from ``gates`` on first lookup, so each distinct input gate is
    expanded once per call."""

    def __init__(self, gates: _Gates, policy: str, clean_base: int) -> None:
        super().__init__()
        self.gates, self.policy, self.clean_base = gates, policy, clean_base

    def __missing__(self, g: Gate) -> list[Gate]:
        conjugate = [self.gates[(l,)] for l, positive in sorted(g.controls) if not positive]
        controls = sorted(l for l, _ in g.controls)
        middle = _expand_positive(self.gates, controls, g.target, self.policy, self.clean_base)
        piece = self[g] = conjugate + middle + conjugate
        return piece


def _clean_ladder(gates: _Gates, controls: list[int], target: int, base: int) -> list[Gate]:
    """2m-3 Toffolis through zeroed work lines base+1, base+2, ..."""
    m = len(controls)
    work = [base + q for q in range(1, m - 1)]
    compute = [gates[work[0], controls[0], controls[1]]]
    for q in range(1, m - 2):
        compute.append(gates[work[q], controls[q + 1], work[q - 1]])
    out = list(compute)
    out.append(gates[target, controls[m - 1], work[m - 3]])
    out.extend(reversed(compute))
    return out


def _v_chain(gates: _Gates, controls: list[int], target: int, dirt: list[int]) -> list[Gate]:
    """m-controlled X using m-2 borrowed lines, 4(m-2) Toffolis (m >= 3).

    The borrowed lines may hold anything; they are restored.  Layout for
    controls d1..ds and scratch a1..a_{s-2}::

        D = T(ds, a_{s-2}, target), T(d_{s-1}, a_{s-3}, a_{s-2}), ...
        base = T(d1, d2, a1)
        chain = D + base + reversed(D[1:]) applied twice
    """
    s = len(controls)
    if s <= 2:
        return [gates[(target, *controls)]]
    if len(dirt) < s - 2:
        raise InternalError(
            f"internal error: a {s}-controlled V-chain needs {s - 2} borrowed "
            f"lines, got {len(dirt)}"
        )
    a = dirt[: s - 2]
    descend = [gates[target, controls[s - 1], a[s - 3]]]
    for q in range(s - 3):
        descend.append(gates[a[s - 3 - q], controls[s - 2 - q], a[s - 4 - q]])
    base = gates[a[0], controls[0], controls[1]]
    half = descend + [base] + list(reversed(descend[1:]))
    return half + half


def _expand_positive(
    gates: _Gates, controls: list[int], target: int, policy: str, clean_base: int
) -> list[Gate]:
    m = len(controls)
    if m <= 2:
        return [gates[(target, *controls)]]
    if policy == "clean":
        return _clean_ladder(gates, controls, target, clean_base)
    support = set(controls) | {target}
    a = next(l for l in range(1, gates.width + 1) if l not in support)
    if m == 3:
        g_top = gates[target, controls[2], a]
        g_bot = gates[a, controls[0], controls[1]]
        return [g_top, g_bot, g_top, g_bot]
    k = (m + 1) // 2
    b_controls = controls[:k]
    a_controls = sorted(controls[k:] + [a])
    factor_a = _v_chain(gates, a_controls, target, b_controls)
    factor_b = _v_chain(gates, b_controls, a, controls[k:])
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
    no matter their prior value.

    Each distinct input gate is expanded once per call, and each distinct
    output gate is built once: the pieces share one table of ``Gate``
    objects, so the output holds one object per distinct gate.  Every
    distinct gate in the pieces is checked to be a NOT, CNOT or Toffoli with
    positive controls, whether or not the table built it.
    """
    if policy not in ("clean", "dirty"):
        raise ValueError(f"unknown expansion policy {policy!r}")
    n = seq.width
    counts = seq._control_counts()
    if policy == "clean":
        work = max(0, max(counts, default=0) - 2)
    else:
        work = 1 if any(m >= 3 and m + 2 > n for m in counts) else 0
    pieces = _Pieces(_Gates(n + work), policy, n)
    out = tuple(chain.from_iterable(map(pieces.__getitem__, seq.gates)))
    found = list(chain.from_iterable(pieces.values()))
    for p in dict(zip(map(id, found), found)).values():  # each object once
        if p.control_count > 2 or not all(pos for _, pos in p.controls):
            raise InternalError(
                f"internal error: expansion left {p}, which is not a NOT, CNOT "
                "or Toffoli with positive controls"
            )
    return ExpansionResult(GateSequence(n + work, out), work)
