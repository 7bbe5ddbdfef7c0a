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
``_Engine.allocate`` runs one iteration for a chosen pair, applying each of
``_pair_gates``' triples once and recording it one target line per gate.
``_run_normal`` handles inputs whose pairs all sit at normal positions and
never emits a gate targeting the last line; ``_run_general`` handles the
balanced normal/inverted case with exactly one last-line gate at the very
end.  Both fill their positions through ``_fill``, keyed by the phase's
pair kind.  ``synthesis.synthesize`` dispatches to them by the census and
supplies the selectors, which pick the pair at every position; the plain
pick, ``_pick_rows``, takes the first in-region pair of the kind
(``_Engine.scan_region``), else the best one outside the region.

One ``_Engine`` serves a whole ``synthesize`` call: after each reduction
``_Engine.strip`` drops the identity last line in place, so the next stage
works on Q.  Inside the pipeline a gate is its (ones, zeros, target)
column-mask triple (``core.Masks``): the builders here and in
``conditioning`` return triples, ``_Engine.emit`` and ``allocate`` apply,
price and record them at the input width in one record for the whole call,
``_Engine.apply`` is the one place where a gate changes the state, and
``_Engine.sequence`` builds the record's ``Gate``s, each distinct one once.
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
    PreconditionViolated,
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

    Two popcounts of the parity plane: a normal or inverted pair's members
    sit at columns of opposite parity, a normal pair's odd row at an odd
    column and an inverted pair's at an even one.
    """
    parity = engine.q[0]
    split = (parity ^ parity >> 1) & engine.even
    normal = (split & parity >> 1).bit_count()
    return normal, split.bit_count() - normal


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


def _conjoin(n: int, i: int) -> int:
    """The Toffoli cost of iteration i's conjoining MCT: controls on the
    region's lines plus line n."""
    return toffoli_equivalents(_region_mask(n, i).bit_count() + 1)


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
        masks.append((_region_mask(n, i) | 1, 0, t))
        cost = _conjoin(n, i)
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


# A selector maps an iteration index to the chosen pair of row numbers.
Selector = Callable[[int], tuple[int, int]]


class _Engine:
    """Applies gates to a working copy while tracking row positions.

    The copy is n row-indexed bit planes and nothing else: bit r of
    ``q[b]`` is bit b of row r's column (``core._planes`` of the row
    positions), so ``q[0]`` is the parity plane.  ``apply`` applies a gate
    (ones, zeros, T) of any control count as the mask of the rows it moves,
    the rows set in the planes of ``ones`` and clear in the planes of
    ``zeros`` (``fire``), XORed into the plane of each target bit.  It is
    the only place where a gate changes the planes: ``emit`` and
    ``allocate`` record gates and call it.  A clear bit is read as
    ``rows ^ rows & plane``, never through the complement of a plane, a
    negative big int.

    Reads write nothing.  ``row`` takes n ANDs, and ``cols`` reads two
    rows' columns in one pass.
    ``fire`` also answers which rows sit in a region or at a column pair,
    and ``lowest`` which row of a set sits at the smallest column: a
    bit-sliced minimum, n AND steps from the top bit.  So a scan is a few
    big-int operations on the planes (``kind_pairs``, ``scan_region``,
    ``differences``).  Only whole-array readers transpose the planes
    (``core._values``): ``pos``, ``entries`` and ``pairs_from``, each a new
    list.  ``full``, ``even`` and ``odd`` are the masks of all rows, the
    even rows and the odd rows.

    One engine, one record and one ledger carry a whole synthesis: ``strip``
    drops the identity last line, the low column bit, and resets nothing.
    ``emit`` and ``allocate`` record each gate at the input width, its masks
    shifted left by ``shift``, and ``sequence`` builds the whole record.
    ``toffoli`` sums the Toffoli-equivalents of the recorded gates,
    ``region_lifts`` counts the members moved into a region and
    ``lift_toffoli`` is the part of ``toffoli`` their lift gates cost.
    """

    def __init__(self, perm: Permutation):
        self.width = self.n = perm.width
        pos = [0] * perm.size
        for col, row in enumerate(perm.entries):
            pos[row] = col
        self.q = _planes(pos, self.n)
        self.gates: list[Masks] = []
        self.toffoli = self.region_lifts = self.lift_toffoli = 0
        self._resize()

    def _resize(self) -> None:
        self.size = 1 << self.n
        self.full = (1 << self.size) - 1
        self.even = self.full // 3  # 0b0101...01
        self.odd = self.even << 1
        self.shift = self.width - self.n

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
            rows ^= rows & q[low.bit_length() - 1]
            zeros ^= low
        return rows

    def row(self, column: int) -> int:
        """The row at ``column``."""
        return self.fire(column, (self.size - 1) ^ column).bit_length() - 1

    def cols(self, a: int, b: int) -> tuple[int, int]:
        """The columns of rows ``a`` and ``b``, read in one pass over the
        planes: one AND per plane picks both rows' bits."""
        bit_a = 1 << a
        both = bit_a | 1 << b
        ca = cb = 0
        bit = 1
        for plane in self.q:
            v = plane & both
            if v:
                if v == both:
                    ca |= bit
                    cb |= bit
                elif v == bit_a:
                    ca |= bit
                else:
                    cb |= bit
            bit <<= 1
        return ca, cb

    def lowest(self, rows: int) -> int:
        """The row at the smallest column among ``rows``, a nonempty mask.
        From the top bit down, keep the rows with a 0 there if any has."""
        for plane in reversed(self.q):
            low = rows ^ rows & plane
            if low:
                rows = low
        return rows.bit_length() - 1

    def partners(self, rows: int) -> int:
        """``rows`` with each row's bit moved to its pair partner's."""
        return rows >> 1 & self.even | (rows & self.even) << 1

    def snapshot(self) -> Permutation:
        return Permutation(self.n, tuple(self.entries))

    def strip(self) -> None:
        """Drop the last line of a Q ⊗ I_2 state, leaving Q; the record and
        the totals run on.

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

    def sequence(self) -> GateSequence:
        """Every recorded gate, built at the input width: a gate that recurs
        is built and validated once, and shared."""
        built = {key: Gate.from_masks(self.width, *key) for key in dict.fromkeys(self.gates)}
        return GateSequence(self.width, tuple(map(built.__getitem__, self.gates)))

    def apply(self, ones: int, zeros: int, tmask: int) -> None:
        """Apply the gate (ones, zeros, tmask) to the planes, recording
        nothing: the rows that fire it move, so each target bit's plane
        flips on them.  A multi-bit ``tmask`` is the run of one-target gates
        with these controls, in any order."""
        if not tmask or tmask & (ones | zeros):
            check_target(ones, zeros, tmask)
        moved = self.fire(ones, zeros)
        q = self.q
        while tmask:
            low = tmask & -tmask
            q[low.bit_length() - 1] ^= moved
            tmask ^= low

    def emit(self, *gates: Masks) -> None:
        """Apply ``gates`` in order, and record and price each as one gate:
        a multi-bit target, or a line that is both a positive and a negative
        control, raises ``PreconditionViolated`` before any runs."""
        if any(tmask & (tmask - 1) or ones & zeros for ones, zeros, tmask in gates):
            raise PreconditionViolated(
                f"emit records one target line per gate, each control 1 or 0, got {gates}"
            )
        record, s = self.gates.append, self.shift
        for gate in gates:
            ones, zeros, tmask = gate
            self.apply(*gate)
            record((ones << s, zeros << s, tmask << s))
            self.toffoli += toffoli_equivalents((ones | zeros).bit_count())

    def lift_pair(self, i: int, a: int, b: int) -> tuple[int, int]:
        """Move both rows into the iteration-i region, and return their
        columns; no gate when both already sit there.  Touched columns
        never drop below 2i, so left-allocated blocks survive (see
        ``_lift_step``).  Their gates' price is ``toffoli``'s growth."""
        mask = _region_mask(self.n, i)
        ca, cb = cols = self.cols(a, b)
        if ca & cb & mask == mask:
            return cols
        spent = self.toffoli
        for k in (0, 1):
            if cols[k] & mask != mask:
                self.region_lifts += 1
            while cols[k] & mask != mask:
                self.emit(_lift_step(self.n, i, cols[k], cols[1 - k]))
                cols = self.cols(a, b)
        self.lift_toffoli += self.toffoli - spent
        return cols

    def at_position(self, i: int) -> int:
        """The mask of the two rows at columns 2i and 2i + 1."""
        return self.fire(2 * i, (self.size - 2) ^ 2 * i)

    def allocate(self, i: int, a: int, b: int) -> None:
        """Lift if needed, then conjoin the pair and slide it to position i.

        Each of ``_pair_gates``' triples is applied whole, and recorded at
        the input width one target line per gate: a CX run targets its
        lines from the lowest one, and a negatively controlled run is that
        run between two X on its control.  They cost what ``_pair_gates``
        returns.
        """
        ca, cb = self.lift_pair(i, a, b)
        record, s = self.gates.append, self.shift
        masks, cost = _pair_gates(self.n, i, ca, cb)
        for ones, zeros, tmask in masks:
            self.apply(ones, zeros, tmask)
            ones, zeros, tmask = ones << s, zeros << s, tmask << s
            if zeros:
                record((0, 0, zeros))
            controls = ones | zeros
            while tmask:
                bit = 1 << tmask.bit_length() >> 1
                record((controls, 0, bit))
                tmask ^= bit
            if zeros:
                record((0, 0, zeros))
        self.toffoli += cost
        ca, cb = self.cols(a, b)
        if ca ^ cb != 1 or ca >> 1 != i:
            raise InternalError(
                f"internal error: allocating rows {a},{b} to position {i} left "
                f"them at columns {ca},{cb}"
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

    def differences(self, rows: int) -> list[int]:
        """For each column bit b from 1 up, the rows of ``rows``, a mask of
        even rows, whose pair's two columns differ on bit b: bit r of entry
        b - 1 is bit b of col(r) ^ col(r + 1).  A pair in none of them sits
        at one column pair."""
        return [(plane ^ plane >> 1) & rows for plane in self.q[1:]]

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


def _fill(engine: _Engine, positions: range, kind: int, selector: Selector) -> None:
    """Give each position a block of ``kind``: keep one it already holds,
    else allocate the selector's pair."""
    for i in positions:
        if not _holds_block(engine, i, kind):
            engine.allocate(i, *selector(i))


def _run_normal(engine: _Engine, selector: Selector) -> None:
    """Reduce an all-normal state; no emitted gate targets the last line."""
    _fill(engine, range(engine.size // 2), NORMAL, selector)


def _run_general(
    engine: _Engine, normal_selector: Selector, inverted_selector: Selector
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
