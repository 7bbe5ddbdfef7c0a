"""Classification of relevant row pairs and the search-region geometry.

The relevant pair ⟨2j, 2j+1⟩ is classified by comparing each member's row
parity with the parity of the column it currently occupies: both agree →
normal, both disagree → inverted, mixed → interrupting.  ``_pair_split``
is the one census: it counts normal and inverted pairs on a row → column
array.  ``synthesis.synthesize`` dispatches on it, the conditioning passes
check their postconditions with it, and ``classify_positions`` reports it
per row number, so each pair contributes 2 (this matches the "2^{n-1} rows
at interrupting positions" arithmetic used throughout).

A *block* is a column pair (2i, 2i+1) holding rows that differ by +1 (even
block) or -1 (odd block).  ``block-wise position`` i indexes such column
pairs.  The pipeline tests for blocks in two places, one per data layout:
``reduction._holds_block`` reads the entries array of a live engine, and
the lookahead tie-break's ``synthesis._blocks`` counts them among the
(row, column, partner column) triples it searches on.  How many blocks a
candidate's gates leave is then arithmetic, not a replay of the gates
(``synthesis._count_free``).  Iteration i's search region is
``reduction._region_mask``, built from ``h`` and ``findm`` below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Permutation


@dataclass(frozen=True)
class PositionCounts:
    """Row counts by position class; normal+inverted+interrupting = 2^n."""

    normal: int
    inverted: int
    interrupting: int


def _pair_split(pos: Sequence[int]) -> tuple[int, int]:
    """Counts of normal and of inverted pairs; the rest are interrupting.

    ``pos`` maps each row to its column.  Row 2p matches at an even column
    and row 2p+1 at an odd one.
    """
    normal = inverted = 0
    for p in range(0, len(pos), 2):
        ma = pos[p] & 1 == 0
        mb = pos[p + 1] & 1 == 1
        if ma and mb:
            normal += 1
        elif not ma and not mb:
            inverted += 1
    return normal, inverted


def classify_positions(perm: Permutation) -> PositionCounts:
    """Count rows at normal / inverted / interrupting positions."""
    normal, inverted = _pair_split(perm.positions)
    return PositionCounts(2 * normal, 2 * inverted, perm.size - 2 * (normal + inverted))


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
