"""Classification of relevant row pairs and the search-region geometry.

The relevant pair ⟨2j, 2j+1⟩ is classified by comparing each member's row
parity with the parity of the column it currently occupies: both agree →
normal, both disagree → inverted, mixed → interrupting.  Counts are kept per
row number, so each pair contributes 2 (this matches the "2^{n-1} rows at
interrupting positions" arithmetic used throughout; per-pair counting is the
natural alternative and deliberately not used).

A *block* is a column pair (2i, 2i+1) holding rows that differ by +1 (even
block) or -1 (odd block).  ``block-wise position`` i indexes such column
pairs.  The pipeline tests for blocks in two places, one per data layout:
``reduction._holds_block`` reads the entries array of a live engine, and
the lookahead scorer's ``synthesis._count_free`` reads the (row, column,
partner column) triples it searches on.  Iteration i's search region is
``reduction._region_mask``, built from ``h`` and ``findm`` below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Permutation


@dataclass(frozen=True)
class PositionCounts:
    """Row counts by position class; normal+inverted+interrupting = 2^n."""

    normal: int
    inverted: int
    interrupting: int

    @property
    def total(self) -> int:
        return self.normal + self.inverted + self.interrupting


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
