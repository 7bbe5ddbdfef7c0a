"""Pair classification and selection, block construction/allocation, and
size reduction.

The relevant pair ⟨2j, 2j+1⟩ is classified by the parities of its members'
columns: equal parities make it interrupting; otherwise its kind (``NORMAL``
or ``INVERTED``, the bits 0 and 1) is the parity of the even row's column,
and each member of a kind-k pair has (row ^ column) & 1 == k.  Every
census, scan and block test reads this one rule.  ``_pair_split`` is the
census: ``synthesis.synthesize`` dispatches on it and the conditioning
passes check their postconditions with it.  A *block* of kind k is a
column pair (2i, 2i+1) holding one relevant pair; i is its block-wise
position.

One *reduction* turns a width-n permutation into Q ⊗ I_2 — the last line
becomes an identity wire — by conjoining each relevant pair into adjacent
columns (``_cons_masks``) and sliding the resulting block to its home
position (``_alloc_masks``), one block-wise position per iteration.  The
driver is ``_Engine``, a working copy that applies gates and tracks row
positions; ``_Engine.allocate`` runs one iteration for a chosen pair.
``_run_normal`` handles inputs whose pairs all sit at normal positions and
never emits a gate targeting the last line; ``_run_general`` handles the
balanced normal/inverted case with exactly one last-line gate at the very
end.  Both fill their positions through ``_fill``, keyed by the phase's
pair kind.  ``synthesis.synthesize`` dispatches to them by the census and
supplies the lookahead selectors; where a selector declines,
``_pick_rows`` takes the first in-region pair of the kind
(``_Engine.scan_region``), else the best one outside the region.

One ``_Engine`` serves a whole ``synthesize`` call: after each reduction
``_Engine.strip`` drops the identity last line in place, so the next stage
works on Q.  Inside the pipeline a gate is its (ones, zeros, target)
column-mask triple (``core.Masks``): the builders here and in
``conditioning`` return triples, ``_Engine.emit`` records and applies them,
and ``_Engine.sequence`` builds the stage's ``Gate``s at the input width,
each distinct one once per engine.
``emit`` applies its gates one exchange pass per run of gates with the
same controls (``_passes``), so a conjoin or a slide costs at most two
passes, however many CXs it records.

Iteration i searches inside a shrinking column region (``_region_mask``:
columns whose first m-1 bits are all set, m = findm(i, n)); there the
conjoining MCT — controls on lines 1..m-1 plus line n — is guaranteed to
fire on the chosen pair and provably cannot touch any column of an
already-allocated block.  When no admissible pair sits inside the region
(possible only in the normal-pair part of ``_run_general``), the pair is
first *lifted* into the region; see ``_Engine.lift_pair``.

The analytic Toffoli budgets for one whole reduction are exposed through
``bounds``; they are exact integers (the width-3 conditioning term of the
published formula is fractional, so it is ceiled — still a valid upper
bound, see the repository notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .core import (
    Gate,
    GateSequence,
    Masks,
    Permutation,
    PreconditionViolated,
    exchange_columns,
)
from .cost import toffoli_equivalents


# The pair kinds, as the bit each member's (row ^ column) parity reads.
NORMAL, INVERTED = 0, 1


class PairNotFound(ValueError):
    """No admissible relevant pair exists — the state violates a contract."""


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


def _pair_split(pos: Sequence[int]) -> tuple[int, int]:
    """Counts of normal and of inverted pairs; the rest are interrupting.

    ``pos`` maps each row to its column.
    """
    split = [0, 0]
    for p in range(0, len(pos), 2):
        if (pos[p] ^ pos[p + 1]) & 1:
            split[pos[p] & 1] += 1
    return split[NORMAL], split[INVERTED]


# ---------------------------------------------------------------------------
# Region geometry.


def findm(l: int, n: int) -> int:
    """Smallest m ≥ 1 whose region (see ``_region_mask``) starts at or past
    column 2l; m = 1 when l = 0.

    Columns whose m-1 most significant bits are all 1 are the region where
    the conjoining MCT (controls on lines 1..m-1 plus line n) is guaranteed
    to fire.  Defined for block-wise positions 0..2^(n-1)-1; the position
    one past the end has no region.
    """
    if not 0 <= l < 1 << (n - 1):
        raise ValueError(f"l={l} outside 0..2^{n-1}-1")
    # 2^n - 2^(n-m+1) >= 2l  <=>  2^(n-m+1) <= 2^n - 2l
    return max(1, n + 2 - ((1 << n) - 2 * l).bit_length())


def _region_mask(n: int, i: int) -> int:
    """Columns c with (c & mask) == mask are in iteration i's region: those
    whose first m-1 bits are all set, m = findm(i, n).  They are also the
    columns c >= mask."""
    return (1 << n) - (1 << (n - findm(i, n) + 1))


# ---------------------------------------------------------------------------
# Gate construction: pure functions of (width, iteration, columns) that
# return mask triples.


def _block_bit(index: int, line: int, width: int) -> int:
    """Bit of an (n-1)-bit block position index at block line 1..n-1."""
    return (index >> (width - 1 - line)) & 1


def _cons_masks(n: int, i: int, alpha: int, beta: int) -> list[Masks]:
    """Gates conjoining the residents of columns ``alpha`` and ``beta`` into
    two columns differing only in bit n; empty when they already do.

    Requires opposite column parity, and the pair to sit inside the
    iteration-i region whenever its columns differ on a protected prefix
    line (a line of the region mask).
    """
    gamma = alpha ^ beta
    if (gamma & 1) == 0:
        raise PreconditionViolated(
            f"columns {alpha} and {beta} share parity; the pair cannot be "
            "conjoined into last-bit-adjacent columns"
        )
    region = _region_mask(n, i)
    delta = n + 1 - gamma.bit_length()  # first line on which the columns differ
    if delta == n:
        return []  # already a block
    if gamma & region:
        raise PreconditionViolated(
            f"pair columns {alpha},{beta} differ inside the protected prefix "
            f"(line {delta}); lift the pair into the region first"
        )
    t = 1 << (n - delta)
    out: list[Masks] = []
    # CX delta->j for each lower differing line, wrapped in X on delta when
    # block position i has delta's bit set; no run, no wrapper.
    rest = gamma & (t - 2)  # differing lines delta+1..n-1
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        out.append((t, 0, bit))
        rest ^= bit
    if out and _block_bit(i, delta, n) == 1:
        out = [(0, 0, t), *out, (0, 0, t)]
    out.append((region | 1, 0, t))  # controls on lines 1..m-1 and line n
    return out


def _alloc_masks(n: int, i: int, alpha: int) -> list[Masks]:
    """Gates sliding the conjoined pair at column ``alpha`` to position i;
    empty when it is already there."""
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


def _lift_step(n: int, i: int, column: int, protected: int) -> Masks:
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
    missing = _region_mask(n, i) & ~column
    t = 1 << missing.bit_length() >> 1  # first region line the column lacks
    rest = ((1 << n) - 1) ^ t
    floor = max(2 * i, 1)  # so that even at i = 0 a control is taken
    # A control bit below 2i could be set on an allocated column; one set on
    # the partner would drag it out of (or around) the region.
    top = 1 << (column & ~protected & rest).bit_length() >> 1
    if top >= floor:
        return top, 0, t
    ones, left = 0, column & rest
    while left and ones < floor:
        bit = 1 << left.bit_length() >> 1
        ones, left = ones | bit, left ^ bit
    differ = (column ^ protected) & rest
    if ones >= 2 * i and protected & ones != ones:
        return ones, 0, t
    if ones >= 2 * i and differ:
        bit = 1 << differ.bit_length() >> 1
        return ones | column & bit, ~column & bit, t
    # Pin the exact column: moves just this resident.  (If the partner sat
    # one target-flip away the two would swap, but picked pairs occupy
    # opposite-parity columns and the target is never line n.)
    return column & rest, ~column & rest, t


def _passes(gates: Sequence[Masks]) -> Iterator[Masks]:
    """Exchange passes with the effect of applying ``gates`` in order.

    Consecutive gates with the same controls commute, so each such run is
    one pass whose target mask is the XOR of theirs.  Uncontrolled X gates
    are deferred to one closing pass: X(F) then g equals g' then X(F), where
    g' flips the polarity of g's controls on F.  So the conjoin's
    X(t) · CX(t->j)... · X(t) sandwich is one pass negatively controlled on t.
    """
    frame = 0  # XOR of the X targets deferred so far
    ones = zeros = tmask = 0
    for o, z, t in gates:
        if not o | z:
            frame ^= t
            continue
        flip = frame & (o | z)
        o, z = o ^ flip, z ^ flip
        if o != ones or z != zeros:
            if tmask:
                yield ones, zeros, tmask
            ones, zeros, tmask = o, z, 0
        tmask ^= t
    if tmask:
        yield ones, zeros, tmask
    if frame:
        yield 0, 0, frame


# ---------------------------------------------------------------------------
# Mutable engine shared by the reduction and preprocessing drivers.


# A selector maps an iteration index to the chosen pair of row numbers, or
# None to delegate to the engine's plain scan.
Selector = Callable[[int], Optional[tuple[int, int]]]


class _Engine:
    """Applies gates to a working copy while tracking row positions.

    One engine carries a whole synthesis: ``strip`` drops the identity last
    line after each stage's reduction and starts the next stage's record.
    Gates are recorded as mask triples at the current width; ``sequence``
    builds the stage's ``Gate``s at the input width.  ``region_lifts``
    counts the stage's members moved into the region and ``lift_toffoli``
    the Toffoli-equivalents their lift gates cost.
    """

    def __init__(self, perm: Permutation):
        self.width = self.n = perm.width
        self.size = perm.size
        self.entries = list(perm.entries)
        self.pos = [0] * self.size
        for col, row in enumerate(perm.entries):
            self.pos[row] = col
        self.built: dict[Masks, Gate] = {}  # every Gate built, by its masks
        self._start_stage()

    def _start_stage(self) -> None:
        self.gates: list[Masks] = []
        self.region_lifts = 0
        self.lift_toffoli = 0

    def snapshot(self) -> Permutation:
        return Permutation(self.n, tuple(self.entries))

    def strip(self) -> None:
        """Drop the last line of a Q ⊗ I_2 state, leaving Q, and start a new
        stage."""
        entries = self.entries
        for c in range(0, self.size, 2):
            lo, hi = entries[c], entries[c + 1]
            if lo & 1 or hi != lo + 1:
                raise RuntimeError(
                    f"internal error: columns {c},{c + 1} hold rows {lo},{hi}; "
                    "the last line is not an identity wire"
                )
        self.entries = [row >> 1 for row in entries[::2]]
        self.pos = [col >> 1 for col in self.pos[::2]]
        self.n -= 1
        self.size >>= 1
        self._start_stage()

    def sequence(self) -> GateSequence:
        """The gates recorded since the last ``strip``, built at the input
        width.

        A wider circuit keeps the same 1-based lines and adds trailing ones,
        which are the low column bits, so each mask shifts left.  ``built``
        maps a shifted triple to its ``Gate``, so a gate that recurs in any
        stage is built and validated once per engine.
        """
        shift, built = self.width - self.n, self.built
        out = []
        for o, z, t in self.gates:
            key = (o << shift, z << shift, t << shift)
            g = built.get(key)
            if g is None:
                g = built[key] = Gate.from_masks(self.width, *key)
            out.append(g)
        return GateSequence(self.width, tuple(out))

    def emit(self, *gates: Masks) -> None:
        """Record ``gates`` and apply them, one pass per run (``_passes``)."""
        self.gates.extend(gates)
        for ones, zeros, tmask in _passes(gates):
            exchange_columns(self.entries, ones, zeros, tmask, self.pos)

    def lift_pair(self, i: int, a: int, b: int) -> None:
        """Move both rows into the iteration-i region; no gate when both
        already sit there.  Touched columns never drop below 2i, so
        left-allocated blocks survive (see ``_lift_step``)."""
        mask = _region_mask(self.n, i)
        for row, other in ((a, b), (b, a)):
            lifted = False
            while (self.pos[row] & mask) != mask:
                ones, zeros, t = _lift_step(self.n, i, self.pos[row], self.pos[other])
                self.emit((ones, zeros, t))
                self.lift_toffoli += toffoli_equivalents((ones | zeros).bit_count())
                lifted = True
            if lifted:
                self.region_lifts += 1

    def allocate(self, i: int, a: int, b: int) -> None:
        """Lift if needed, conjoin, then slide the pair to position i."""
        self.lift_pair(i, a, b)
        pos = self.pos
        self.emit(*_cons_masks(self.n, i, pos[a], pos[b]))
        if pos[a] ^ pos[b] != 1:
            raise RuntimeError(
                f"internal error: conjoining rows {a},{b} left them at columns "
                f"{pos[a]},{pos[b]}"
            )
        self.emit(*_alloc_masks(self.n, i, pos[a]))
        if {pos[a], pos[b]} != {2 * i, 2 * i + 1}:
            raise RuntimeError(
                f"internal error: allocating rows {a},{b} to position {i} left "
                f"them at columns {pos[a]},{pos[b]}"
            )

    # -- plain pair scans -------------------------------------------------

    def scan_region(self, i: int, kind: int) -> Optional[tuple[int, int]]:
        """First in-region pair of ``kind`` by ascending column, the member
        at the smaller column first."""
        k = _region_mask(self.n, i)
        entries, pos = self.entries, self.pos
        for col in range(k, self.size - 1):
            a = entries[col]
            if (a ^ col) & 1 != kind:
                continue
            t = pos[a ^ 1]
            if t > col and (a ^ 1 ^ t) & 1 == kind:
                return a, a ^ 1
        return None

    def best_out_of_region(self, i: int, kind: int) -> Optional[tuple[int, int]]:
        """Unallocated pair of ``kind`` maximizing its smaller column."""
        pos = self.pos
        best: Optional[tuple[int, int, int]] = None
        for base in range(0, self.size, 2):
            ca, cb = pos[base], pos[base + 1]
            if ca < 2 * i and cb < 2 * i:
                continue  # allocated
            if not (ca ^ cb) & 1 or ca & 1 != kind:
                continue
            lo = min(ca, cb)
            if best is None or lo > best[0]:
                ordered = (base, base + 1) if ca < cb else (base + 1, base)
                best = (lo, *ordered)
        if best is None:
            return None
        return best[1], best[2]


def _pick_rows(engine: _Engine, i: int, kind: int) -> tuple[int, int]:
    """The plain pick: the region scan, else the best pair outside it."""
    found = engine.scan_region(i, kind)
    if found is None:
        found = engine.best_out_of_region(i, kind)
    if found is None:
        name = "inverted" if kind else "normal"
        raise PairNotFound(f"no unallocated {name} pair left for position {i}")
    return found


# ---------------------------------------------------------------------------
# Whole reductions.


def _holds_block(engine: _Engine, i: int, kind: int) -> bool:
    """Position i already carries a block of ``kind`` (free win)."""
    lo, hi = engine.entries[2 * i], engine.entries[2 * i + 1]
    return lo ^ hi == 1 and lo & 1 == kind


def _fill(
    engine: _Engine, positions: range, kind: int, selector: Optional[Selector]
) -> None:
    """Give each position a block of ``kind``: keep one it already holds,
    else allocate the selector's pair, else ``_pick_rows``'s."""
    for i in positions:
        if _holds_block(engine, i, kind):
            continue
        chosen = selector(i) if selector is not None else None
        if chosen is None:
            chosen = _pick_rows(engine, i, kind)
        engine.allocate(i, *chosen)


def _run_normal(engine: _Engine, selector: Optional[Selector] = None) -> None:
    """Reduce an all-normal state; no emitted gate targets the last line."""
    _fill(engine, range(engine.size // 2), NORMAL, selector)


def _run_general(
    engine: _Engine,
    normal_selector: Optional[Selector] = None,
    inverted_selector: Optional[Selector] = None,
) -> None:
    """Reduce a balanced state (half normal, half inverted, no interrupting).

    Normal pairs fill the left-half positions, inverted pairs the right
    half, and one closing CX (control line 1, target line n) turns the
    right-half blocks even: the only emitted gate targeting the last line.
    """
    quarter, half = engine.size // 4, engine.size // 2
    _fill(engine, range(quarter), NORMAL, normal_selector)
    _fill(engine, range(quarter, half), INVERTED, inverted_selector)
    engine.emit((engine.size >> 1, 0, 1))  # CX line 1 -> line n
