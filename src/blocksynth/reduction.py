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
The engine keeps its copy as row-indexed bit planes: bit r of plane b is
bit b of row r's column.  Any gate costs O(m + |T|) big-int operations on
them, and a scan is a few more: the rows in a region, the members of a
pair kind and the row at the smallest column of a set are each an AND
chain over the planes.  Only whole-array readers (``_Engine.pos``,
``entries`` and ``pairs_from``) transpose the planes into a list.

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
from typing import Callable, Optional

from .core import (
    Gate,
    GateSequence,
    InternalError,
    Masks,
    Permutation,
    _planes,
    _values,
    check_target,
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


def _pair_split(engine: _Engine) -> tuple[int, int]:
    """Counts of normal and of inverted pairs; the rest are interrupting.

    Two popcounts of the parity plane: a normal pair's even row sits at an
    even column and its odd row at an odd one, an inverted pair's the other
    way round.
    """
    parity, even = engine.q[0], engine.even
    normal = parity >> 1 & ~parity & even
    inverted = parity & ~(parity >> 1) & even
    return normal.bit_count(), inverted.bit_count()


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


class _Engine:
    """Applies gates to a working copy while tracking row positions.

    The copy is n row-indexed bit planes and nothing else: bit r of
    ``q[b]`` is bit b of row r's column (``core._planes`` of the row
    positions), so ``q[0]`` is the parity plane.  ``emit`` applies a gate
    (ones, zeros, T) of any control count as the mask of the rows it moves,
    the AND of the planes of ``ones`` and of the complements of the planes
    of ``zeros`` (``fire``), XORed into the plane of each target bit.

    Reads write nothing.  ``col`` and ``row`` take n bit tests or n ANDs.
    ``fire`` also answers which rows sit in a region or at a column pair,
    and ``lowest`` which row of a set sits at the smallest column: a
    bit-sliced minimum, n AND steps from the top bit.  So a scan is a few
    big-int operations on the planes (``kind_pairs``, ``scan_region``,
    ``blocks``).  Only whole-array readers transpose the planes
    (``core._values``): ``pos``, ``entries`` and ``pairs_from``, each a new
    list.  ``full``, ``even`` and ``odd`` are the masks of all rows, the
    even rows and the odd rows.

    One engine carries a whole synthesis: ``strip`` drops the identity last
    line after each stage's reduction and starts the next stage's record.
    Gates are recorded as mask triples at the current width; ``sequence``
    builds the stage's ``Gate``s at the input width.  ``region_lifts``
    counts the stage's members moved into the region and ``lift_toffoli``
    the Toffoli-equivalents their lift gates cost.
    """

    def __init__(self, perm: Permutation):
        self.width = self.n = perm.width
        pos = [0] * perm.size
        for col, row in enumerate(perm.entries):
            pos[row] = col
        self.q = _planes(pos, self.n)
        self.built: dict[Masks, Gate] = {}  # every Gate built, by its masks
        self._resize()
        self._start_stage()

    def _resize(self) -> None:
        self.size = 1 << self.n
        self.full = (1 << self.size) - 1
        self.even = self.full // 3  # 0b0101...01
        self.odd = self.even << 1

    def _start_stage(self) -> None:
        self.gates: list[Masks] = []
        self.region_lifts = 0
        self.lift_toffoli = 0

    @property
    def pos(self) -> list[int]:
        """A new list of the column of each row."""
        return _values(self.q, self.size)

    @property
    def entries(self) -> list[int]:
        """A new list of the row at each column."""
        out = [0] * self.size
        for row, col in enumerate(self.pos):
            out[col] = row
        return out

    def fire(self, ones: int, zeros: int) -> int:
        """The mask of the rows whose column has every ``ones`` bit set and
        every ``zeros`` bit clear."""
        q, rows = self.q, self.full
        while ones:
            low = ones & -ones
            rows &= q[low.bit_length() - 1]
            ones ^= low
        while zeros:
            low = zeros & -zeros
            rows &= ~q[low.bit_length() - 1]
            zeros ^= low
        return rows

    def row(self, column: int) -> int:
        """The row at ``column``."""
        return self.fire(column, (self.size - 1) ^ column).bit_length() - 1

    def col(self, row: int) -> int:
        """The column of ``row``."""
        bit, column = 1 << row, 0
        for b, plane in enumerate(self.q):
            if plane & bit:
                column |= 1 << b
        return column

    def lowest(self, rows: int) -> int:
        """The row at the smallest column among ``rows``, a nonempty mask.
        From the top bit down, keep the rows with a 0 there if any has."""
        for plane in reversed(self.q):
            low = rows & ~plane
            if low:
                rows = low
        return rows.bit_length() - 1

    def partners(self, rows: int) -> int:
        """``rows`` with each row's bit moved to its pair partner's."""
        return rows >> 1 & self.even | (rows & self.even) << 1

    def snapshot(self) -> Permutation:
        return Permutation(self.n, tuple(self.entries))

    def strip(self) -> None:
        """Drop the last line of a Q ⊗ I_2 state, leaving Q, and start a new
        stage.

        In such a state every row's column has the row's parity, and the
        two rows of a pair agree on every other column bit; row r of Q is
        row 2r, so each remaining plane keeps its even bits.
        """
        q = self.q
        if q[0] != self.odd or any((plane ^ plane >> 1) & self.even for plane in q[1:]):
            entries = self.entries
            for c in range(0, self.size, 2):
                lo, hi = entries[c], entries[c + 1]
                if lo & 1 or hi != lo + 1:
                    raise InternalError(
                        f"internal error: columns {c},{c + 1} hold rows {lo},{hi}; "
                        "the last line is not an identity wire"
                    )
        # Binary digits run from bit size-1 down, so the odd-indexed digits
        # are the even bits.
        digits = f"0{self.size}b"
        self.q = [int(format(plane, digits)[1::2], 2) for plane in q[1:]]
        self.n -= 1
        self._resize()
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
        """Record ``gates`` and apply them in order.  Gates in a row with the
        same controls share one mask of moved rows: none of them targets a
        control, so the mask stays valid."""
        self.gates.extend(gates)
        q = self.q
        ones = zeros = -1
        for o, z, t in gates:
            if not t or t & (o | z):
                check_target(o, z, t)
            if o != ones or z != zeros:
                ones, zeros = o, z
                moved = self.fire(o, z)
            while t:
                low = t & -t
                q[low.bit_length() - 1] ^= moved
                t ^= low

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

    def at_position(self, i: int) -> int:
        """The mask of the two rows at columns 2i and 2i + 1."""
        return self.fire(2 * i, (self.size - 2) ^ 2 * i)

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
        if self.at_position(i) != 1 << a | 1 << b:
            raise InternalError(
                f"internal error: allocating rows {a},{b} to position {i} left "
                f"them at columns {self.col(a)},{self.col(b)}"
            )

    # -- scans ------------------------------------------------------------

    def pairs_from(self, i: int) -> list[tuple[int, int, int]]:
        """(even row r, column of r, column of r + 1) for each pair whose
        even row sits at column 2i or past it, by row."""
        pos, start = self.pos, 2 * i
        return [(r, c, pos[r + 1]) for r in range(0, self.size, 2) if (c := pos[r]) >= start]

    def kind_pairs(self, i: int, kind: int) -> int:
        """The mask of the rows of every pair of ``kind`` with both members
        in iteration i's region.  Such members have (row ^ column) & 1 ==
        ``kind``, read off the parity plane; the members of an interrupting
        pair differ there, so neither has a partner in the set."""
        rows = self.q[0] ^ (self.odd if kind else self.even)
        rows &= self.fire(_region_mask(self.n, i), 0)
        return rows & self.partners(rows)

    def blocks(self, rows: int) -> int:
        """The even rows of ``rows`` whose pair sits at one column pair: the
        two rows' planes agree above bit 0."""
        apart = 0
        for plane in self.q[1:]:
            apart |= plane ^ plane >> 1
        return rows & self.even & ~apart

    def scan_region(self, i: int, kind: int) -> Optional[tuple[int, int]]:
        """First in-region pair of ``kind`` by ascending column, the member
        at the smaller column first: the row at the smallest column over
        both members of every such pair."""
        rows = self.kind_pairs(i, kind)
        if not rows:
            return None
        a = self.lowest(rows)
        return a, a ^ 1

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
    """Position i already carries a block of ``kind`` (free win): the rows
    at its columns are a pair, and the even row's column parity is
    ``kind``."""
    rows = engine.at_position(i)
    low = rows & -rows
    return rows == 3 * low and bool(low & engine.even) and bool(engine.q[0] & low) == kind


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
