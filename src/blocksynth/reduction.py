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
The engine keeps its copy behind an affine column frame: an X or CX gate
is an affine map of the column numbers, so ``emit`` folds it into the
frame in O(n) and moves no entry.  Only gates with two or more controls
swap entries, 2^(n-1-m) pairs each.  So the CX runs of a conjoin or a
slide cost nothing but the conjoining or sliding MCT's walk.  Reads go
through the frame (``_Engine.row``, ``col``, ``walk`` and ``pairs_from``);
whole-array readers take ``entries`` or ``pos``, which materialize it.

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
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    Gate,
    GateSequence,
    Masks,
    Permutation,
    PreconditionViolated,
    check_target,
    exchange_columns,
    linear_image,
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
    columns c >= mask.  As n - m + 1 is one less than the bit length of
    2^n - 2i (see ``findm``), the mask is 2^n less the largest power of two
    not above 2^n - 2i; i must lie in 0..2^(n-1)-1."""
    return (1 << n) - (1 << ((1 << n) - 2 * i).bit_length() >> 1)


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


def _track(column: int, masks: list[Masks]) -> int:
    """Where ``masks``, applied in order, move ``column``."""
    for ones, zeros, tmask in masks:
        if column & ones == ones and not column & zeros:
            column ^= tmask
    return column


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


# ---------------------------------------------------------------------------
# Mutable engine shared by the reduction and preprocessing drivers.


# A selector maps an iteration index to the chosen pair of row numbers, or
# None to delegate to the engine's plain scan.
Selector = Callable[[int], Optional[tuple[int, int]]]


def _span(images: list[int], offset: int) -> list[int]:
    """Entry x is ``offset`` XOR the images of x's set bits."""
    out = [offset]
    for image in images:
        out += [v ^ image for v in out]
    return out


class _Engine:
    """Applies gates to a working copy while tracking row positions.

    The copy is stored behind an affine column frame F: the row at column c
    sits at ``_entries[F(c)]``, and row r's column is F⁻¹(``_pos[r]``).
    Each map is kept as the images of the column bits (``_f``, ``_g``) plus
    an offset (``_f0``, ``_g0``).  A gate with at most one control is an
    affine map of the columns, so ``emit`` folds it into the frame in O(n);
    only a gate with two or more controls moves stored entries, walking its
    subcube's image (``core.exchange_columns``).  Single reads go through
    ``row`` and ``col``, column scans (``walk``) through half-width tables
    built once per frame (``_tables``), and ``pairs_from`` through one full
    table of F⁻¹.  ``entries`` and ``pos`` materialize the frame into the
    stored lists and reset it to the identity, so they are only valid until
    the next ``emit``.

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
        self._entries = list(perm.entries)
        self._pos = [0] * self.size
        for col, row in enumerate(perm.entries):
            self._pos[row] = col
        self.built: dict[Masks, Gate] = {}  # every Gate built, by its masks
        self._reset_frame()
        self._start_stage()

    def _reset_frame(self) -> None:
        self._f = [1 << b for b in range(self.n)]  # column bit -> stored
        self._g = list(self._f)  # stored bit -> column
        self._f0 = self._g0 = 0
        self._framed = False  # set by the first fold; False means F is the identity
        self._tabs: Optional[tuple[list[int], ...]] = None

    def _start_stage(self) -> None:
        self.gates: list[Masks] = []
        self.region_lifts = 0
        self.lift_toffoli = 0

    def _tables(self) -> tuple[list[int], ...]:
        """(F high, F low, F⁻¹ high, F⁻¹ low): F(c) is F high[c >> h] ^
        F low[c & (2^h - 1)] with h = n // 2, and likewise F⁻¹."""
        if self._tabs is None:
            h = self.n >> 1
            f, g = self._f, self._g
            self._tabs = (
                _span(f[h:], self._f0), _span(f[:h], 0), _span(g[h:], self._g0), _span(g[:h], 0)
            )
        return self._tabs

    def _settle(self) -> None:
        """Move every row to its column and reset the frame."""
        if self._framed:
            stored = _span(self._f, self._f0)  # column -> stored column
            columns = _span(self._g, self._g0)  # stored column -> column
            self._entries = list(map(self._entries.__getitem__, stored))
            self._pos = list(map(columns.__getitem__, self._pos))
            self._reset_frame()

    @property
    def entries(self) -> list[int]:
        """Row at each column; valid until the next ``emit``."""
        self._settle()
        return self._entries

    @property
    def pos(self) -> list[int]:
        """Column of each row; valid until the next ``emit``."""
        self._settle()
        return self._pos

    def row(self, column: int) -> int:
        """The row at ``column``."""
        if self._framed:
            column = self._f0 ^ linear_image(self._f, column)
        return self._entries[column]

    def col(self, row: int) -> int:
        """The column of ``row``."""
        if self._framed:
            return self._g0 ^ linear_image(self._g, self._pos[row])
        return self._pos[row]

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
        self._entries = [row >> 1 for row in entries[::2]]
        self._pos = [col >> 1 for col in self._pos[::2]]
        self.n -= 1
        self.size >>= 1
        self._reset_frame()
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
        """Record ``gates`` and apply them in order: one with two or more
        controls walks the stored entries, any other folds into the frame.

        The gate g maps column c to g(c), so the new frame is F ∘ g and its
        inverse g ∘ F⁻¹.  For a CX from control bit t onto targets T, F's
        image of t gains F's image of T, and each image of F⁻¹ holding t
        gains T; an X on T, or a negative control, also moves F's offset by
        F's image of T.  F⁻¹'s offset is the old one mapped by g.
        """
        self.gates.extend(gates)
        f, f0, g, g0 = self._f, self._f0, self._g, self._g0
        framed = self._framed
        for ones, zeros, tmask in gates:
            controls = ones | zeros
            if controls & (controls - 1):
                frame = (f, f0) if framed else None
                exchange_columns(self._entries, ones, zeros, tmask, self._pos, frame)
                continue
            check_target(ones, zeros, tmask)
            if tmask & (tmask - 1):
                image = linear_image(f, tmask)
            else:
                image = f[tmask.bit_length() - 1]
            if controls:
                f[controls.bit_length() - 1] ^= image
                for b, v in enumerate(g):
                    if v & controls:
                        g[b] = v ^ tmask
            if not ones:
                f0 ^= image
            if g0 & ones == ones and not g0 & zeros:
                g0 ^= tmask
            framed, self._tabs = True, None
        self._f0, self._g, self._g0, self._framed = f0, g, g0, framed

    def lift_pair(self, i: int, a: int, b: int) -> tuple[int, int]:
        """Move both rows into the iteration-i region, and return their
        columns; no gate when both already sit there.  Touched columns
        never drop below 2i, so left-allocated blocks survive (see
        ``_lift_step``)."""
        mask = _region_mask(self.n, i)
        cols = [self.col(a), self.col(b)]
        for k in (0, 1):
            if cols[k] & mask != mask:
                self.region_lifts += 1
            while cols[k] & mask != mask:
                ones, zeros, t = _lift_step(self.n, i, cols[k], cols[1 - k])
                self.emit((ones, zeros, t))
                self.lift_toffoli += toffoli_equivalents((ones | zeros).bit_count())
                cols = [self.col(a), self.col(b)]
        return cols[0], cols[1]

    def allocate(self, i: int, a: int, b: int) -> None:
        """Lift if needed, conjoin, then slide the pair to position i."""
        ca, cb = self.lift_pair(i, a, b)
        masks = _cons_masks(self.n, i, ca, cb)
        self.emit(*masks)
        ca, cb = _track(ca, masks), _track(cb, masks)
        if ca ^ cb != 1:
            raise RuntimeError(
                f"internal error: conjoining rows {a},{b} left them at columns "
                f"{ca},{cb}"
            )
        masks = _alloc_masks(self.n, i, ca)
        self.emit(*masks)
        ca, cb = _track(ca, masks), _track(cb, masks)
        if {ca, cb} != {2 * i, 2 * i + 1}:
            raise RuntimeError(
                f"internal error: allocating rows {a},{b} to position {i} left "
                f"them at columns {ca},{cb}"
            )

    # -- scans ------------------------------------------------------------

    def pairs_from(self, i: int) -> list[tuple[int, int, int]]:
        """(even row r, column of r, column of r + 1) for each pair whose
        even row sits at column 2i or past it, by row."""
        pos, start = self._pos, 2 * i
        # stored column -> column
        columns = _span(self._g, self._g0) if self._framed else range(self.size)
        return [
            (r, c, columns[pos[r + 1]])
            for r in range(0, self.size, 2)
            if (c := columns[pos[r]]) >= start
        ]

    def walk(self, columns: Iterable[int]) -> Iterator[tuple[int, int, int]]:
        """(column, its row r, the column of r ^ 1) for each of ``columns``."""
        entries, pos = self._entries, self._pos
        fhi, flo, ghi, glo = self._tables()
        h, low = self.n >> 1, (1 << (self.n >> 1)) - 1
        for c in columns:
            r = entries[fhi[c >> h] ^ flo[c & low]]
            s = pos[r ^ 1]
            yield c, r, ghi[s >> h] ^ glo[s & low]

    def scan_region(self, i: int, kind: int) -> Optional[tuple[int, int]]:
        """First in-region pair of ``kind`` by ascending column, the member
        at the smaller column first."""
        for col, a, t in self.walk(range(_region_mask(self.n, i), self.size - 1)):
            if (a ^ col) & 1 == kind and t > col and (a ^ 1 ^ t) & 1 == kind:
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
    lo, hi = engine.row(2 * i), engine.row(2 * i + 1)
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
