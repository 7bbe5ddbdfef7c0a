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
columns and sliding the resulting block to its home position, one
block-wise position per iteration.  ``_pair_gates`` builds a pair's
conjoin and slide as mask triples, and is the one builder of them:
``synthesis`` prices its candidates with it.  The driver is ``_Engine``, a
working copy that applies gates and tracks row positions;
``_Engine.allocate`` runs one iteration for a chosen pair, emitting
``_pair_gates``' triples one target line per gate.
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
slide cost nothing but the conjoining or sliding MCT's walk.  Every read
goes through the frame and writes nothing (``_Engine.row``, ``col``,
``at``, ``walk``, ``pairs_from``, and ``entries`` or ``pos`` for a whole
array).

Iteration i searches inside a shrinking column region (``_region_mask``:
columns whose first m-1 bits are all set, for the smallest m whose region
starts at or past column 2i, the paper's findm(i, n)); there the
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
    InternalError,
    Masks,
    Permutation,
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


def _region_mask(n: int, i: int) -> int:
    """Columns c with (c & mask) == mask are in iteration i's region: those
    whose first m-1 bits are all set, for the smallest m >= 1 (the paper's
    findm(i, n)) whose region starts at or past column 2i.  Those columns
    are the c >= 2^n - 2^(n-m+1), so the mask is 2^n less the largest power
    of two not above 2^n - 2i.  The conjoining MCT, controls on lines
    1..m-1 plus line n, is guaranteed to fire there.  i must lie in
    0..2^(n-1)-1; the position one past the end has no region."""
    return (1 << n) - (1 << ((1 << n) - 2 * i).bit_length() >> 1)


# ---------------------------------------------------------------------------
# Gate construction: pure functions of (width, iteration, columns) that
# return mask triples.


def _pair_gates(n: int, i: int, ca: int, cb: int) -> tuple[list[Masks], int]:
    """Conjoin-plus-slide of the in-region pair at columns (ca, cb), as at
    most four mask triples, and its Toffoli cost.

    Each CX run is one triple whose target holds all its lines; a run that
    the paper wraps in X on its control has that control negative.  Only
    the conjoining and sliding MCTs cost anything.  The conjoining MCT
    moves only the odd member, so the slot is the even member's column
    after the run, shifted right.
    """
    masks: list[Masks] = []
    cost = 0
    gamma = ca ^ cb
    even = cb if ca & 1 else ca
    if gamma != 1:
        t = 1 << gamma.bit_length() >> 1  # the top line the columns differ on
        run = gamma & (t - 2)
        if run:
            masks.append((0, t, run) if 2 * i & t else (t, 0, run))
            if (even ^ 2 * i) & t:
                even ^= run
        region = _region_mask(n, i)
        masks.append((region | 1, 0, t))
        cost = toffoli_equivalents(region.bit_count() + 1)
    gamma = i ^ (even >> 1)  # slot to position, in block coordinates
    if gamma:
        below = 1 << gamma.bit_length() >> 1
        if gamma ^ below:
            masks.append((below << 1, 0, (gamma ^ below) << 1))
        low = i & (below - 1)
        masks.append((low << 1, 0, below << 1))
        cost += toffoli_equivalents(low.bit_count())
    return masks, cost


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
    ``row``, ``col`` and ``at`` (a stored slot's column).  A column scan
    (``walk``) steps F along the columns it visits and yields each row's
    partner as a stored slot, so its callers test the partner's column
    parity from one mask of F⁻¹ (``parity_mask``) and map the full column
    only for the members that pass.  ``pairs_from`` and ``pos`` build one
    full table of F⁻¹, and ``entries`` one of F; nothing else builds a
    table.  No read writes: ``entries`` and ``pos`` return new lists, the
    stored lists change only through the MCT walks, and the frame only
    through ``emit`` until ``strip`` resets it.

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

    def _start_stage(self) -> None:
        self.gates: list[Masks] = []
        self.region_lifts = 0
        self.lift_toffoli = 0

    @property
    def entries(self) -> list[int]:
        """A new list of the row at each column."""
        return list(map(self._entries.__getitem__, _span(self._f, self._f0)))

    @property
    def pos(self) -> list[int]:
        """A new list of the column of each row."""
        return list(map(_span(self._g, self._g0).__getitem__, self._pos))

    def row(self, column: int) -> int:
        """The row at ``column``."""
        return self._entries[self._f0 ^ linear_image(self._f, column)]

    def col(self, row: int) -> int:
        """The column of ``row``."""
        return self.at(self._pos[row])

    def at(self, slot: int) -> int:
        """The column whose row is stored at ``slot``: F⁻¹(slot)."""
        return self._g0 ^ linear_image(self._g, slot)

    def parity_mask(self) -> tuple[int, int]:
        """(m, p): the column at stored slot s is odd exactly when
        ``(s & m).bit_count() + p`` is odd.  m holds the stored bits whose
        image under F⁻¹ has column bit 0, and p is that bit of the offset."""
        return sum(1 << b for b, v in enumerate(self._g) if v & 1), self._g0 & 1

    def snapshot(self) -> Permutation:
        return Permutation(self.n, tuple(self.entries))

    def strip(self) -> None:
        """Drop the last line of a Q ⊗ I_2 state, leaving Q, and start a new
        stage."""
        entries, pos = self.entries, self.pos
        for c in range(0, self.size, 2):
            lo, hi = entries[c], entries[c + 1]
            if lo & 1 or hi != lo + 1:
                raise InternalError(
                    f"internal error: columns {c},{c + 1} hold rows {lo},{hi}; "
                    "the last line is not an identity wire"
                )
        self._entries = [row >> 1 for row in entries[::2]]
        self._pos = [col >> 1 for col in pos[::2]]
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
        for ones, zeros, tmask in gates:
            controls = ones | zeros
            if controls & (controls - 1):
                exchange_columns(self._entries, ones, zeros, tmask, self._pos, (f, f0))
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
        self._f0, self._g, self._g0 = f0, g, g0

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
        """Lift if needed, then conjoin the pair and slide it to position i.

        The gates are ``_pair_gates``' triples, one target line each: a CX
        run targets its lines from the lowest one, and a negatively
        controlled run is that run between two X on its control.
        """
        ca, cb = self.lift_pair(i, a, b)
        gates: list[Masks] = []
        for ones, zeros, tmask in _pair_gates(self.n, i, ca, cb)[0]:
            wrap = [(0, 0, zeros)] if zeros else []
            gates += wrap
            while tmask:
                bit = 1 << tmask.bit_length() >> 1
                gates.append((ones | zeros, 0, bit))
                tmask ^= bit
            gates += wrap
        self.emit(*gates)
        ca, cb = self.col(a), self.col(b)
        if {ca, cb} != {2 * i, 2 * i + 1}:
            raise InternalError(
                f"internal error: allocating rows {a},{b} to position {i} left "
                f"them at columns {ca},{cb}"
            )

    # -- scans ------------------------------------------------------------

    def pairs_from(self, i: int) -> list[tuple[int, int, int]]:
        """(even row r, column of r, column of r + 1) for each pair whose
        even row sits at column 2i or past it, by row."""
        pos, start = self._pos, 2 * i
        columns = _span(self._g, self._g0)  # stored column -> column
        return [
            (r, c, columns[pos[r + 1]])
            for r in range(0, self.size, 2)
            if (c := columns[pos[r]]) >= start
        ]

    def walk(self, columns: Iterable[int]) -> Iterator[tuple[int, int, int]]:
        """(column, its row r, the stored slot of r ^ 1) for each of
        ``columns``.  F steps along the columns: moving from column c to c'
        moves the stored slot by F's image of c ^ c', a few bits for
        neighbours.  ``at`` maps a slot to its column."""
        entries, pos, f = self._entries, self._pos, self._f
        slot, prev = self._f0, 0
        for c in columns:
            slot ^= linear_image(f, c ^ prev)
            prev = c
            r = entries[slot]
            yield c, r, pos[r ^ 1]

    def scan_region(self, i: int, kind: int) -> Optional[tuple[int, int]]:
        """First in-region pair of ``kind`` by ascending column, the member
        at the smaller column first.  The row's own kind and its partner's
        column parity are tested before the partner's column is mapped."""
        odd, offset = self.parity_mask()
        for col, a, s in self.walk(range(_region_mask(self.n, i), self.size - 1)):
            # Skip a member of the other kind (its pair's columns have
            # opposite parities) or of an interrupting pair (equal ones).
            if (a ^ col) & 1 != kind or ((s & odd).bit_count() ^ offset ^ col) & 1 == 0:
                continue
            if self.at(s) > col:
                return a, a ^ 1
        return None

    def best_out_of_region(self, i: int, kind: int) -> Optional[tuple[int, int]]:
        """Unallocated pair of ``kind`` maximizing its smaller column."""
        best: Optional[tuple[int, int, int]] = None
        for base, ca, cb in self.pairs_from(i):
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
