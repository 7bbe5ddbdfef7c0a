"""Conditioning passes that prepare a permutation for reduction.

Both passes run on a live ``reduction._Engine``, emitting gates as mask
triples like the reduction does, and end by checking their postcondition
with an explicit raise, so it holds under ``python -O``.

``_mix_engine`` drives the interrupting-row count to exactly half the rows
by searching short CX composites (a few CX moves followed by one CX
targeting the last line), scored off the Walsh spectrum of the pairs'
column differences.  When no composite within ``MIX_MAX_DEPTH`` moves and
``MIX_BUDGET`` evaluations lands exactly, the closest candidate is applied
and the remainder is repaired with fully controlled last-line toggles —
each toggle moves the count by 4 toward the target, inserting a
status-neutral rearrangement walk first whenever the two residents of
every candidate slot belong to the same pair.

``_run_preprocess`` consumes a half-interrupting state: it builds
pseudo-blocks from one even-column and one odd-column interrupting member
per iteration, parks them in the first quarter of the columns, and finally
flips the last bit of that whole quarter with a single negatively
controlled Toffoli.  The flipped member of each chosen pair changes its
match status, so picking the mismatching or matching member steers the
pair to normal or inverted — the choice is made against the live deficit
so the result is an exact balanced split with zero interrupting rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .blocks import _pair_split
from .core import Masks
from .reduction import PairNotFound, _Engine, _region_mask


# Bounds of the mixing search, read at call time.  Random maps at widths
# 3-11 stay far inside both; lowering either only adds repair gates.
MIX_MAX_DEPTH = 4
MIX_BUDGET = 2_000_000


@dataclass(frozen=True)
class MixStats:
    """How the mixing target was reached (exactly when ``fixup_gates`` is 0)."""

    depth: int  # composite length actually applied (0 when input was on target)
    fixup_gates: int  # fully controlled repair gates appended after the composite
    evaluations: int  # composites scored during enumeration


def prefix_moves(width: int) -> tuple[Masks, ...]:
    """Every CX move usable inside a composite, as masks: by control line,
    then target line; n·(n-1) moves.  Controls are positive only: a negative
    one adds an X on the target, which leaves every score unchanged."""
    return tuple(
        (1 << (width - control), 0, 1 << (width - target))
        for control in range(1, width + 1)
        for target in range(1, width + 1)
        if target != control
    )


def closing_moves(width: int) -> tuple[Masks, ...]:
    """The composite's last move, a CX onto the last line, by control line."""
    return tuple((1 << (width - line), 0, 1) for line in range(1, width))


def _interrupting_pairs(entries: list[int]) -> bytearray:
    """Byte p is 1 when pair p has exactly one member at a mismatching column."""
    mism = bytearray(len(entries) // 2)
    for col, row in enumerate(entries):
        if (row ^ col) & 1:
            mism[row >> 1] ^= 1
    return mism


def _walsh_spectrum(pos: list[int]) -> list[int]:
    """W(a) = sum over pairs of (-1)^<a, d>, d the pair's column difference.

    A pair is interrupting exactly when bit 0 of d is 0 (its members sit at
    columns of equal parity).  A CX composite maps every d by one linear
    map, so after one that makes the last column bit the functional a, the
    interrupting-row count is (number of pairs) + W(a).
    """
    size = len(pos)
    spectrum = [0] * size
    for a in range(0, size, 2):
        spectrum[pos[a] ^ pos[a + 1]] += 1
    h = 1
    while h < size:  # in-place fast Walsh-Hadamard transform
        for base in range(0, size, 2 * h):
            for j in range(base, base + h):
                x, y = spectrum[j], spectrum[j + h]
                spectrum[j], spectrum[j + h] = x + y, x - y
        h *= 2
    return spectrum


class _MixSearch:
    """Composites tracked as the rows of their linear map, never applied.

    ``rows[m]``, keyed by a column bit's mask as in the moves' masks, is the
    functional (a mask over the input column's bits) giving that bit after
    the prefix.  A prefix move c->t is ``rows[t] ^= rows[c]``, and a closing
    move from c lands ``|W(rows[1] ^ rows[c])|`` rows from the target (mask
    1 is the last line).
    """

    def __init__(self, engine: _Engine):
        self.spectrum = _walsh_spectrum(engine.pos)
        self.rows = {1 << b: 1 << b for b in range(engine.n)}
        self.prefixes = prefix_moves(engine.n)
        self.finals = closing_moves(engine.n)
        self.evaluated = 0
        # (distance from target, moves) of the closest composite so far;
        # the search stops at the first one at distance 0.
        self.best: Optional[tuple[int, list[Masks]]] = None

    def _leaf(self, prefix: list[Masks]) -> bool:
        rows, spectrum = self.rows, self.spectrum
        last = rows[1]
        for g in self.finals:
            if self.evaluated >= MIX_BUDGET:
                return True
            self.evaluated += 1
            dist = abs(spectrum[last ^ rows[g[0]]])
            if self.best is None or dist < self.best[0]:
                self.best = (dist, prefix + [g])
                if dist == 0:
                    return True
        return False

    def _walk(self, depth_left: int, prefix: list[Masks]) -> bool:
        if depth_left == 0:
            return self._leaf(prefix)
        if self.evaluated >= MIX_BUDGET:
            return True
        rows = self.rows
        for g in self.prefixes:
            control, _, target = g
            rows[target] ^= rows[control]
            prefix.append(g)
            stop = self._walk(depth_left - 1, prefix)
            prefix.pop()
            rows[target] ^= rows[control]
            if stop:
                return True
        return False

    def run(self) -> None:
        """Search composites of growing length until one lands or the
        budget runs out (``_walk`` returns True for either)."""
        for prefix_length in range(MIX_MAX_DEPTH):
            if self._walk(prefix_length, []):
                return


def _exact_move(width: int, src: int, dst: int) -> Masks:
    """Fully controlled gate swapping exactly columns ``src`` and ``dst``.

    The columns must differ in a single bit; every other line is matched by
    a control of the right polarity.
    """
    diff = src ^ dst
    if diff == 0 or diff & (diff - 1):
        raise RuntimeError(
            f"internal error: exact move between columns {src},{dst} needs a "
            "single differing bit"
        )
    rest = ((1 << width) - 1) ^ diff
    return src & rest, ~src & rest, diff


def _fixups(engine: _Engine, target: int) -> int:
    """Append last-line slot toggles until the interrupting count hits target.

    Returns the number of gates emitted.  A toggle is the exact move between
    a slot's two columns and changes the count by ±4; when raising the
    count and every slot holding two non-interrupting members is a
    co-located pair (a block), a status-neutral walk first moves a member
    of another non-interrupting pair into such a slot.
    """
    n, size = engine.n, engine.size
    entries, pos = engine.entries, engine.pos
    emitted = 0
    last: Optional[int] = None
    while True:
        mism = _interrupting_pairs(entries)
        lam = 2 * sum(mism)
        if last is not None and abs(lam - target) >= abs(last - target):
            raise RuntimeError(
                f"internal error: a mix fixup moved the interrupting count from "
                f"{last} to {lam}, not toward {target}"
            )
        if lam == target:
            return emitted
        want_int = lam < target
        slot_found = None
        for s in range(size // 2):
            r1, r2 = entries[2 * s], entries[2 * s + 1]
            if (r1 >> 1) == (r2 >> 1):
                continue  # co-located pair: toggling only trades normal/inverted
            if bool(mism[r1 >> 1]) == (not want_int) and bool(mism[r2 >> 1]) == (
                not want_int
            ):
                slot_found = s
                break
        if slot_found is None:
            if not want_int:
                raise RuntimeError(
                    f"internal error: no slot lowers the interrupting count {lam} "
                    f"toward {target}"
                )
            # every slot with two non-interrupting members is a block; walk a
            # member of one non-interrupting pair next to a member of another.
            pairs = [p for p in range(size // 2) if not mism[p]]
            pa, pb = pairs[0], pairs[1]
            cb = pos[2 * pb] if pos[2 * pb] & 1 else pos[2 * pb + 1]
            ca = pos[2 * pa] if not pos[2 * pa] & 1 else pos[2 * pa + 1]
            dst = cb ^ 1
            cur = ca
            while cur != dst:
                step = cur ^ (1 << (cur ^ dst).bit_length() >> 1)  # top differing bit
                engine.emit(_exact_move(n, cur, step))
                emitted += 1
                cur = step
            slot_found = dst >> 1
        engine.emit(_exact_move(n, 2 * slot_found, 2 * slot_found + 1))
        emitted += 1
        last = lam


def _mix_engine(engine: _Engine) -> MixStats:
    """Drive the interrupting-row count to exactly half the rows.

    Applies a pure CX composite whenever one within ``MIX_MAX_DEPTH`` moves
    and ``MIX_BUDGET`` evaluations exists; otherwise the closest candidate
    plus fully controlled repair toggles.
    """
    target = engine.size // 2
    if engine.size - 2 * sum(_pair_split(engine.pos)) == target:
        return MixStats(0, 0, 0)
    search = _MixSearch(engine)
    search.run()
    dist, moves = search.best or (None, [])
    engine.emit(*moves)
    fixes = 0 if dist == 0 else _fixups(engine, target)
    lam = engine.size - 2 * sum(_pair_split(engine.pos))
    if lam != target:
        raise RuntimeError(
            f"internal error: mixing left {lam} interrupting rows, not {target}"
        )
    return MixStats(len(moves), fixes, search.evaluated)


# ---------------------------------------------------------------------------
# Preprocessing of half-interrupting states.


def _scan_member(
    engine: _Engine, i: int, col_parity: int, want_normal: bool
) -> Optional[int]:
    """First unconsumed interrupting member at a column of ``col_parity``
    that steers its pair the wanted way: the region's columns from the
    left, then the rest from 2i (the region is every column >= its mask)."""
    entries, pos, size = engine.entries, engine.pos, engine.size
    mask = _region_mask(engine.n, i)
    for col in chain(range(mask + col_parity, size, 2), range(2 * i + col_parity, mask, 2)):
        r = entries[col]
        partner = r ^ 1
        pcol = pos[partner]
        if pcol < 2 * i:
            continue  # pair already consumed: its other member is parked
        mism_r = (r ^ col) & 1 == 1
        mism_p = (partner ^ pcol) & 1 == 1
        if not (mism_r ^ mism_p):
            continue  # not an interrupting pair
        if want_normal != mism_r:
            continue  # flip the mismatching member for normal, matching for inverted
        return r
    return None


def _pre_pick_rows(engine: _Engine, i: int, deficits: list[int]) -> tuple[int, int]:
    """Pseudo-block i's even-column and odd-column members.  Each steers its
    pair toward the larger of ``deficits`` (the outstanding normal and
    inverted conversions; normal on a tie) and decrements it in place.
    An interrupting pair's members sit at columns of equal parity, so the
    two scans never meet the same pair."""
    if min(deficits) < 0:
        raise RuntimeError(
            f"internal error: negative conversion deficits {deficits[0]},"
            f"{deficits[1]} at pseudo-block {i}"
        )
    if sum(deficits) <= 0:
        raise PairNotFound("no pseudo-block conversions are outstanding")
    chosen = []
    for parity in (0, 1):
        want_normal = deficits[0] >= deficits[1]
        row = _scan_member(engine, i, parity, want_normal)
        if row is None:
            raise PairNotFound(
                f"no unconsumed interrupting member at column parity {parity}"
            )
        chosen.append(row)
        deficits[0 if want_normal else 1] -= 1
    return chosen[0], chosen[1]


def _run_preprocess(engine: _Engine) -> None:
    """Turn a half-interrupting state into an exact balanced split.

    Per iteration one even-column and one odd-column interrupting member are
    conjoined and parked in the first quarter of the columns; a single
    negatively controlled Toffoli (controls on lines 1 and 2, target the
    last line) then flips the parked members' column parity, leaving half
    the rows normal, half inverted, none interrupting.  That Toffoli is the
    only emitted gate targeting the last line.  The caller guarantees width
    >= 3 and exactly half the rows interrupting.

    No gate before that Toffoli targets the last line, so every row keeps
    its column parity and every pair its class: the conversion deficits
    are read off the state once, and each pick settles one conversion.
    """
    quarter = engine.size // 4
    deficits = [quarter - count for count in _pair_split(engine.pos)]
    for i in range(engine.size // 8):
        a, b = _pre_pick_rows(engine, i, deficits)
        engine.allocate(i, a, b)
    engine.emit((0, 3 << (engine.n - 2), 1))  # C(!1,!2)X on line n
    normal, inverted = _pair_split(engine.pos)
    interrupting = engine.size // 2 - normal - inverted
    if interrupting or normal != inverted:
        raise RuntimeError(
            f"internal error: preprocessing ended in a {2 * normal}:"
            f"{2 * inverted}:{2 * interrupting} split, not an exact balance"
        )
