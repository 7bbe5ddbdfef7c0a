"""Pair selection, block construction/allocation, and size reduction.

One *reduction* turns a width-n permutation into Q ⊗ I_2 — the last line
becomes an identity wire — by conjoining each relevant pair into adjacent
columns (``cons``) and sliding the resulting block to its home position
(``alloc``), one block-wise position per iteration.  ``reduce_normal``
handles inputs whose pairs all sit at normal positions and never needs a
gate targeting the last line; ``reduce_general`` handles the balanced
normal/inverted case with exactly one last-line gate at the very end.

Iteration i searches inside a shrinking column region (columns whose first
m-1 bits are all set, m = findm(i, n)); there the conjoining MCT — controls
on lines 1..m-1 plus line n — is guaranteed to fire on the chosen pair and
provably cannot touch any column of an already-allocated block.  When no
admissible pair sits inside the region (possible only in the normal-pair
part of ``reduce_general``), the pair is first *lifted* into the region; see
``lift_into_region``.

The analytic Toffoli budgets for one whole reduction are exposed through
``bounds``; they are exact integers (the width-3 conditioning term of the
published formula is fractional, so it is ceiled — still a valid upper
bound, see the repository notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Optional

from .blocks import classify_positions, findm, h
from .core import (
    Gate,
    GateSequence,
    Permutation,
    PreconditionViolated,
    cx,
    exchange_columns,
    mct,
)
from .cost import toffoli_equivalents


class PairNotFound(ValueError):
    """No admissible relevant pair exists — the state violates a contract."""


@dataclass(frozen=True)
class RelevantPair:
    """Two row numbers forming (or standing in for) a relevant pair.

    For true relevant pairs {a, b} = {2j, 2j+1}; preprocessing pseudo-pairs
    relax this and only promise opposite column parity.
    """

    a: int
    b: int

    def __iter__(self):
        return iter((self.a, self.b))


@dataclass(frozen=True)
class BoundSet:
    """Per-reduction Toffoli budgets at one width."""

    width: int
    n_c: int
    n_a: int
    extra: int
    per_reduction_total: int


def bounds(n: int) -> BoundSet:
    """Exact integer evaluation of the analytic per-reduction budgets.

    n_c bounds the conjoining MCTs, n_a the allocation MCTs, and extra the
    conditioning overhead (mixing fixup plus pseudo-block construction).
    """
    if n < 3:
        raise ValueError(f"bounds need width >= 3, got {n}")
    n_c = sum((2 * i - 3) * (1 << (n - i)) for i in range(2, n))
    n_a = sum(
        (2 * i - 3) * math.comb(n - j, i)
        for j in range(2, n - 1)
        for i in range(2, n - j + 1)
    )
    extra_frac = (
        Fraction(5 * (1 << n), 16)
        + (2 * n - 5)
        + sum((2 * i - 3) * math.comb(n - 3, i) for i in range(2, n - 2))
    )
    extra = math.ceil(extra_frac)
    return BoundSet(n, n_c, n_a, extra, n_c + n_a + extra)


def preprocessing_bound(n: int) -> int:
    """Toffoli budget for one preprocessing pass (ceiled at width 3)."""
    if n < 3:
        raise ValueError(f"width >= 3 required, got {n}")
    raw = (
        Fraction(3 * (1 << n), 16)
        - 1
        + sum((2 * i - 3) * math.comb(n - 3, i) for i in range(2, n - 2))
    )
    return math.ceil(raw)


# ---------------------------------------------------------------------------
# Gate construction: pure functions of (width, iteration, columns).


def _line_bit(value: int, line: int, width: int) -> int:
    return (value >> (width - line)) & 1


def _block_bit(index: int, line: int, width: int) -> int:
    """Bit of an (n-1)-bit block position index at block line 1..n-1."""
    return (index >> (width - 1 - line)) & 1


# A gate as its column masks (must-be-1, must-be-0, target), the form
# ``Gate.masks`` returns.  Pair selection scores candidates on these alone;
# ``Gate`` objects are built only for the gates actually emitted.
Masks = tuple[int, int, int]


def _cons_masks(n: int, i: int, alpha: int, beta: int) -> list[Masks]:
    gamma = alpha ^ beta
    if (gamma & 1) == 0:
        raise PreconditionViolated(
            f"columns {alpha} and {beta} share parity; the pair cannot be "
            "conjoined into last-bit-adjacent columns"
        )
    m = findm(i, n)
    delta = n + 1 - gamma.bit_length()  # first line on which the columns differ
    if delta == n:
        return []  # already a block
    if delta < m:
        raise PreconditionViolated(
            f"pair columns {alpha},{beta} differ inside the protected prefix "
            f"(line {delta} < m={m}); lift the pair into the region first"
        )
    t = 1 << (n - delta)
    out: list[Masks] = []
    # X on delta, CX delta->j for each lower differing line, X on delta again;
    # the sandwich is only needed when block position i has delta's bit set.
    sandwich = _block_bit(i, delta, n) == 1
    if sandwich:
        out.append((0, 0, t))
    rest = gamma & (t - 2)  # differing lines delta+1..n-1
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        out.append((t, 0, bit))
        rest ^= bit
    if sandwich:
        out.append((0, 0, t))
    out.append((h(n, m) | 1, 0, t))  # controls on lines 1..m-1 and line n
    return out


def _alloc_masks(n: int, i: int, alpha: int) -> list[Masks]:
    gamma = i ^ (alpha >> 1)  # in block coordinates: line l is bit n-1-l
    if gamma == 0:
        return []  # already allocated
    below = 1 << (gamma.bit_length() - 1)  # first differing block line
    t = below << 1
    out: list[Masks] = []
    rest = gamma ^ below
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        out.append((t, 0, bit << 1))
        rest ^= bit
    out.append(((i & (below - 1)) << 1, 0, t))  # i's set bits below the target
    return out


def _cons_gates(n: int, i: int, alpha: int, beta: int) -> list[Gate]:
    return [Gate.from_masks(n, *g) for g in _cons_masks(n, i, alpha, beta)]


def _alloc_gates(n: int, i: int, alpha: int) -> list[Gate]:
    return [Gate.from_masks(n, *g) for g in _alloc_masks(n, i, alpha)]


def _region_mask(n: int, i: int) -> int:
    """Columns c with (c & mask) == mask are in iteration i's region."""
    return h(n, findm(i, n))


def _lift_step(n: int, i: int, column: int, protected: int) -> Gate:
    """One gate moving ``column``'s resident toward the region.

    Prefers a plain CX whose control bit is provably clear on every
    already-allocated column (and on the pair's other member, ``protected``);
    otherwise takes positive controls on the column's set lines, highest
    first, until their value alone exceeds every allocated column, adding
    one discriminating line when the partner would still match.  Only when
    even that fails does it pin the exact column with a fully controlled
    gate.  Every satisfied column then sits at or past 2i, so no
    left-allocated block can break.
    """
    mask = _region_mask(n, i)
    j = next(l for l in range(1, n) if _line_bit(mask, l, n) and not _line_bit(column, l, n))
    for b in range(1, n + 1):
        if b == j:
            continue
        if 2 * i > (1 << (n - b)):
            continue  # an allocated column could carry this bit
        if not _line_bit(column, b, n):
            continue
        if _line_bit(protected, b, n):
            continue  # would drag the partner out of (or around) the region
        return cx(n, b, j)
    controls: list[tuple[int, bool]] = []
    value = 0
    for l in range(1, n + 1):
        if l != j and _line_bit(column, l, n):
            controls.append((l, True))
            value += 1 << (n - l)
            if value >= 2 * i:
                break
    partner_matches = all(_line_bit(protected, l, n) for l, _ in controls)
    if value >= 2 * i and partner_matches:
        chosen = {l for l, _ in controls}
        for l in range(1, n + 1):
            if l == j or l in chosen:
                continue
            if _line_bit(column, l, n) != _line_bit(protected, l, n):
                controls.append((l, bool(_line_bit(column, l, n))))
                partner_matches = False
                break
    if value < 2 * i or partner_matches:
        # Pin the exact column: moves just this resident.  (If the partner
        # sat one target-flip away the two would swap, but picked pairs
        # occupy opposite-parity columns and the target is never line n.)
        controls = [(l, bool(_line_bit(column, l, n))) for l in range(1, n + 1) if l != j]
    return mct(n, controls, j)


# ---------------------------------------------------------------------------
# Mutable engine shared by the reduction and preprocessing drivers.


@dataclass
class ReductionStats:
    """Bookkeeping surfaced to synthesis reports."""

    region_lifts: int = 0  # members moved into the region
    lift_gates: int = 0
    lift_full_gates: int = 0  # fully controlled fallback steps
    lift_toffoli: int = 0  # Toffoli-equivalents spent on lift gates


# A selector maps an iteration index to the chosen pair of row numbers, or
# None to delegate to the engine's plain scan.
Selector = Callable[[int], Optional[tuple[int, int]]]


class _Engine:
    """Applies gates to a working copy while tracking row positions."""

    def __init__(self, perm: Permutation):
        self.n = perm.width
        self.size = perm.size
        self.entries = list(perm.entries)
        self.pos = [0] * self.size
        for col, row in enumerate(perm.entries):
            self.pos[row] = col
        self.gates: list[Gate] = []
        self.stats = ReductionStats()

    def snapshot(self) -> Permutation:
        return Permutation(self.n, tuple(self.entries))

    def sequence(self) -> GateSequence:
        return GateSequence(self.n, tuple(self.gates))

    def emit(self, gate: Gate) -> None:
        self.gates.append(gate)
        exchange_columns(self.entries, *gate.masks(), self.pos)

    def lift_pair(self, i: int, a: int, b: int) -> None:
        mask = _region_mask(self.n, i)
        for row, other in ((a, b), (b, a)):
            lifted = False
            while (self.pos[row] & mask) != mask:
                g = _lift_step(self.n, i, self.pos[row], self.pos[other])
                self.emit(g)
                self.stats.lift_gates += 1
                if g.control_count == self.n - 1:
                    self.stats.lift_full_gates += 1
                self.stats.lift_toffoli += toffoli_equivalents(g.control_count)
                lifted = True
            if lifted:
                self.stats.region_lifts += 1

    def allocate(self, i: int, a: int, b: int) -> None:
        """Lift if needed, conjoin, then slide the pair to position i."""
        self.lift_pair(i, a, b)
        pos = self.pos
        for g in _cons_gates(self.n, i, pos[a], pos[b]):
            self.emit(g)
        if pos[a] ^ pos[b] != 1:
            raise RuntimeError(
                f"internal error: conjoining rows {a},{b} left them at columns "
                f"{pos[a]},{pos[b]}"
            )
        for g in _alloc_gates(self.n, i, pos[a]):
            self.emit(g)
        if {pos[a], pos[b]} != {2 * i, 2 * i + 1}:
            raise RuntimeError(
                f"internal error: allocating rows {a},{b} to position {i} left "
                f"them at columns {pos[a]},{pos[b]}"
            )

    # -- plain pair scans -------------------------------------------------

    def scan_region_pair(self, i: int) -> Optional[tuple[int, int]]:
        """First pair (by ascending column) whose partner sits further right."""
        k = _region_mask(self.n, i)
        entries, pos = self.entries, self.pos
        for col in range(k, self.size - 1):
            a = entries[col]
            t = pos[a ^ 1]
            if t > col:
                return a, a ^ 1
        return None

    def scan_region_normal(self, i: int) -> Optional[tuple[int, int]]:
        k = _region_mask(self.n, i)
        entries, pos = self.entries, self.pos
        for col in range(k, self.size - 1):
            a = entries[col]
            if (a ^ col) & 1:
                continue
            t = pos[a ^ 1]
            if t > col and (((a ^ 1) ^ t) & 1) == 0:
                return a, a ^ 1
        return None

    def best_out_of_region(
        self, i: int, kind: Literal["normal", "inverted", "any"]
    ) -> Optional[tuple[int, int]]:
        """Unallocated pair of ``kind`` maximizing its smaller column."""
        pos = self.pos
        best: Optional[tuple[int, int, int]] = None
        for base in range(0, self.size, 2):
            ca, cb = pos[base], pos[base + 1]
            if ca < 2 * i and cb < 2 * i:
                continue  # allocated
            match_a = (base ^ ca) & 1 == 0
            match_b = ((base + 1) ^ cb) & 1 == 0
            if kind == "normal" and not (match_a and match_b):
                continue
            if kind == "inverted" and (match_a or match_b):
                continue
            lo = min(ca, cb)
            if best is None or lo > best[0]:
                ordered = (base, base + 1) if ca < cb else (base + 1, base)
                best = (lo, *ordered)
        if best is None:
            return None
        return best[1], best[2]


def _pick_rows(engine: _Engine, i: int) -> tuple[int, int]:
    found = engine.scan_region_pair(i)
    if found is None:
        raise PairNotFound(f"no relevant pair inside the iteration-{i} region")
    return found


def _n_pick_rows(engine: _Engine, i: int) -> tuple[int, int]:
    found = engine.scan_region_normal(i)
    if found is None:
        found = engine.best_out_of_region(i, "normal")
    if found is None:
        raise PairNotFound("no unallocated pair at normal positions remains")
    return found


def _i_pick_rows(engine: _Engine, i: int) -> tuple[int, int]:
    found = engine.scan_region_pair(i)
    if found is None:
        found = engine.best_out_of_region(i, "inverted")
    if found is None:
        raise PairNotFound(f"no pair left for position {i}")
    return found


# ---------------------------------------------------------------------------
# Public single-step operations.


def pick(perm: Permutation, i: int) -> RelevantPair:
    """First relevant pair found scanning the iteration-i region upward.

    The scan visits columns from the region start; a pair is reported from
    its smaller column with the partner strictly to the right.
    """
    engine = _Engine(perm)
    return RelevantPair(*_pick_rows(engine, i))


def n_pick(perm: Permutation, i: int) -> RelevantPair:
    """Like ``pick`` but restricted to pairs at normal positions.

    Falls back to the normal pair maximizing its smaller column when the
    region holds none; the caller is expected to lift that pair before
    conjoining (see ``lift_into_region``).
    """
    engine = _Engine(perm)
    return RelevantPair(*_n_pick_rows(engine, i))


def lift_into_region(perm: Permutation, i: int, pair: RelevantPair) -> GateSequence:
    """Gates moving both members of ``pair`` into the iteration-i region.

    Empty when both already qualify.  Cheap single-CX steps are used when a
    control bit exists that is clear on every allocated column and on the
    other member; otherwise a fully controlled gate moves exactly one
    resident one bit upward.  Touched columns never drop below 2i, so
    left-allocated blocks survive.
    """
    engine = _Engine(perm)
    engine.lift_pair(i, pair.a, pair.b)
    return engine.sequence()


def cons(perm: Permutation, i: int, pair: RelevantPair) -> GateSequence:
    """Gates conjoining ``pair`` into two columns differing only in bit n.

    Empty when the pair is already a block.  Requires opposite column
    parity, and the pair to sit inside the iteration-i region whenever its
    columns differ on a protected prefix line.
    """
    alpha = perm.position_of(pair.a)
    beta = perm.position_of(pair.b)
    return GateSequence(perm.width, tuple(_cons_gates(perm.width, i, alpha, beta)))


def alloc(perm: Permutation, i: int, a: int) -> GateSequence:
    """Gates sliding the conjoined pair containing row ``a`` to position i.

    Empty when already there.  The pair must occupy last-bit-adjacent
    columns (the state ``cons`` leaves behind).
    """
    col = perm.position_of(a)
    return GateSequence(perm.width, tuple(_alloc_gates(perm.width, i, col)))


# ---------------------------------------------------------------------------
# Whole reductions.


def _holds_block(engine: _Engine, i: int, inverted: bool) -> bool:
    """Position i already carries a block of the phase's kind (free win)."""
    lo, hi = engine.entries[2 * i], engine.entries[2 * i + 1]
    if inverted:
        return lo == hi + 1 and hi % 2 == 0
    return hi == lo + 1 and lo % 2 == 0


def _fill(
    engine: _Engine,
    positions: range,
    inverted: bool,
    selector: Optional[Selector],
    fallback: Callable[[_Engine, int], tuple[int, int]],
) -> None:
    """Give each position a block of the phase's kind: keep one it already
    holds, else allocate the selector's pair, else ``fallback``'s scan."""
    for i in positions:
        if _holds_block(engine, i, inverted):
            continue
        chosen = selector(i) if selector is not None else None
        if chosen is None:
            chosen = fallback(engine, i)
        engine.allocate(i, *chosen)


def _run_normal(engine: _Engine, selector: Optional[Selector] = None) -> None:
    _fill(engine, range(engine.size // 2), False, selector, _n_pick_rows)


def _run_general(
    engine: _Engine,
    normal_selector: Optional[Selector] = None,
    inverted_selector: Optional[Selector] = None,
) -> None:
    quarter, half = engine.size // 4, engine.size // 2
    _fill(engine, range(quarter), False, normal_selector, _n_pick_rows)
    _fill(engine, range(quarter, half), True, inverted_selector, _i_pick_rows)
    engine.emit(cx(engine.n, 1, engine.n))


def reduce_normal(perm: Permutation) -> tuple[Permutation, GateSequence]:
    """Reduce an all-normal permutation to Q ⊗ I_2.

    Output sequence never targets the last line; Toffoli count is bounded by
    bounds(n).n_c + bounds(n).n_a.
    """
    if any((r ^ c) & 1 for c, r in enumerate(perm.entries)):
        raise PreconditionViolated("some relevant pair is not at normal positions")
    if perm.width < 2:
        raise PreconditionViolated("nothing to reduce at width 1")
    engine = _Engine(perm)
    _run_normal(engine)
    return engine.snapshot(), engine.sequence()


def reduce_general(perm: Permutation) -> tuple[Permutation, GateSequence]:
    """Reduce a balanced (half normal, half inverted, no interrupting)
    permutation to Q ⊗ I_2.

    The first part fills the left-half positions with blocks built from
    normal pairs, the second part the right half from inverted pairs, and a
    single final CX (control line 1, target line n) turns the right-half
    blocks even.  Exactly one emitted gate targets the last line.
    """
    if perm.width < 2:
        raise PreconditionViolated("nothing to reduce at width 1")
    counts = classify_positions(perm)
    half = perm.size // 2
    if not (counts.normal == half and counts.inverted == half):
        raise PreconditionViolated(
            f"need a {half}:{half}:0 row split, got {counts.normal}:"
            f"{counts.inverted}:{counts.interrupting}"
        )
    engine = _Engine(perm)
    _run_general(engine)
    return engine.snapshot(), engine.sequence()
