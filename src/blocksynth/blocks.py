"""Classification of relevant row pairs and block bookkeeping.

The relevant pair ⟨2j, 2j+1⟩ is classified by comparing each member's row
parity with the parity of the column it currently occupies: both agree →
normal, both disagree → inverted, mixed → interrupting.  Counts are kept per
row number, so each pair contributes 2 (this matches the "2^{n-1} rows at
interrupting positions" arithmetic used throughout; per-pair counting is the
natural alternative and deliberately not used).

A *block* is a column pair (2i, 2i+1) holding rows that differ by +1 (even
block) or -1 (odd block).  ``block-wise position`` i indexes such column
pairs.  Left-allocation is always re-derived as the longest all-block prefix
rather than carried as mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .core import Permutation

PairKind = Literal["even", "odd", "any"]


@dataclass(frozen=True)
class PositionCounts:
    """Row counts by position class; normal+inverted+interrupting = 2^n."""

    normal: int
    inverted: int
    interrupting: int

    @property
    def total(self) -> int:
        return self.normal + self.inverted + self.interrupting


@dataclass(frozen=True)
class Block:
    position: int
    kind: Literal["even", "odd"]


@dataclass(frozen=True)
class BlockList:
    """All blocks present, in ascending position order."""

    width: int
    entries: tuple[Block, ...]

    def positions(self, kind: PairKind = "any") -> tuple[int, ...]:
        return tuple(b.position for b in self.entries if kind in ("any", b.kind))

    def left_allocated(self, kind: PairKind = "even") -> int:
        """Length of the longest prefix 0..l-1 of positions all holding
        blocks of the requested kind."""
        have = {b.position: b.kind for b in self.entries}
        l = 0
        while True:
            k = have.get(l)
            if k is None or (kind != "any" and k != kind):
                return l
            l += 1


def classify_positions(perm: Permutation) -> PositionCounts:
    """Count rows at normal / inverted / interrupting positions."""
    normal = inverted = interrupting = 0
    # A row matches iff row parity == parity of the column holding it.
    pos = perm.positions
    for j in range(perm.size // 2):
        a, b = 2 * j, 2 * j + 1
        match_a = (a ^ pos[a]) & 1 == 0
        match_b = (b ^ pos[b]) & 1 == 0
        if match_a and match_b:
            normal += 2
        elif not match_a and not match_b:
            inverted += 2
        else:
            interrupting += 2
    return PositionCounts(normal, inverted, interrupting)


def find_blocks(perm: Permutation) -> BlockList:
    """Scan all block-wise positions for even/odd blocks."""
    entries = perm.entries
    found = []
    for i in range(perm.size // 2):
        lo, hi = entries[2 * i], entries[2 * i + 1]
        if hi - lo == 1 and lo % 2 == 0:
            found.append(Block(i, "even"))
        elif lo - hi == 1 and hi % 2 == 0:
            found.append(Block(i, "odd"))
    return BlockList(perm.width, tuple(found))


def region_start(l: int, n: int) -> int:
    """h_n(m) for m = findm(l, n): first column of the search region."""
    return (1 << n) - (1 << (n - findm(l, n) + 1))


def h(n: int, m: int) -> int:
    """Columns ≥ h(n, m) have their first m-1 bits all set."""
    return (1 << n) - (1 << (n - m + 1))


def findm(l: int, n: int) -> int:
    """Smallest m ≥ 1 with 2l ≤ h(n, m); m = 1 when l = 0.

    Columns ≥ h(n, m) are exactly those whose m-1 most significant bits are
    all 1 — the region where the conjoining MCT (controls on lines 1..m-1
    plus line n) is guaranteed to fire.  Defined for block-wise positions
    0..2^(n-1)-1; the position one past the end has no region (h never
    reaches 2^n).
    """
    if not 0 <= l < 1 << (n - 1):
        raise ValueError(f"l={l} outside 0..2^{n-1}-1")
    # h(n, m) >= 2l  <=>  2^(n-m+1) <= 2^n - 2l
    return max(1, n + 2 - ((1 << n) - 2 * l).bit_length())


def in_region(column: int, l: int, n: int) -> bool:
    """True iff ``column`` lies in the findm(l, n) search region."""
    return column >= h(n, findm(l, n))


def count_free_blocks(perm: Permutation, i: int, kind: PairKind = "any") -> int:
    """Blocks of ``kind`` at positions ≥ i — candidates for zero-cost reuse."""
    if not 0 <= i < perm.size // 2:
        raise ValueError(f"i={i} outside 0..2^{perm.width-1}-1")
    entries = perm.entries
    count = 0
    for p in range(i, perm.size // 2):
        lo, hi = entries[2 * p], entries[2 * p + 1]
        if hi - lo == 1 and lo % 2 == 0:
            count += kind in ("any", "even")
        elif lo - hi == 1 and hi % 2 == 0:
            count += kind in ("any", "odd")
    return count
