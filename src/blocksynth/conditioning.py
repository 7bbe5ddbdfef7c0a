"""Conditioning passes that prepare a permutation for reduction.

Both passes run on a live ``reduction._Engine``, emitting gates as mask
triples like the reduction does, and end by checking their postcondition
with an explicit raise, so it holds under ``python -O``.

``_mix_engine`` drives the interrupting-row count to exactly half the rows
with one CX composite picked off the Walsh spectrum of the pairs' column
differences: a functional a with the smallest |W(a)|, put on the last line
by the shortest CX circuit (ties go to the first in move order).  No X/CX
circuit of any length does better, so only when that W(a) is not 0 is the
remainder repaired with fully controlled last-line toggles — each toggle
moves the count by 4 toward the target, inserting a status-neutral
rearrangement walk first whenever the two residents of every candidate
slot belong to the same pair.

``_run_preprocess`` consumes a half-interrupting state: it builds
pseudo-blocks from one even-column and one odd-column interrupting member
per iteration, parks them in the first quarter of the columns, and finally
flips the last bit of that whole quarter with a single negatively
controlled Toffoli.  The flipped member of each chosen pair changes its
match status, so picking the mismatching or matching member steers the
pair to normal or inverted — the choice is made against the live deficit
so the result is an exact balanced split with zero interrupting rows.
Each member is found on the engine's bit planes: the candidates are one
row mask, less the rows of the consumed pairs, and the pick is the row at
the smallest column among them (``_Engine.lowest``), in the region first.
The census (``reduction._pair_split``) is two popcounts of the parity
plane; the mixing pass reads the whole column array once per stage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import add, sub, xor
from typing import Optional

from .core import InternalError, Masks
from .reduction import (
    INVERTED,
    NORMAL,
    _Engine,
    _pair_split,
    _region_mask,
)


@dataclass(frozen=True)
class MixStats:
    """How the mixing target was reached (exactly when ``fixup_gates`` is 0)."""

    depth: int  # CX gates in the composite (0 when the input was on target)
    fixup_gates: int  # fully controlled repair gates appended after the composite
    evaluations: int  # nonzero functionals scored: always size - 1


def _interrupting_pairs(pos: list[int]) -> bytearray:
    """Byte p is 1 when pair p's members sit at columns of equal parity."""
    return bytearray(~(pos[p] ^ pos[p + 1]) & 1 for p in range(0, len(pos), 2))


def _walsh_spectrum(pos: list[int]) -> list[int]:
    """W(a) = sum over pairs of (-1)^<a, d>, d the pair's column difference.

    A pair is interrupting exactly when bit 0 of d is 0 (its members sit at
    columns of equal parity).  A CX composite maps every d by one linear
    map, so after one that makes the last column bit the functional a, the
    interrupting-row count is (number of pairs) + W(a).
    """
    size = len(pos)
    spectrum = [0] * size
    for d, count in Counter(map(xor, pos[0::2], pos[1::2])).items():
        spectrum[d] = count
    # Constant-geometry fast Walsh-Hadamard transform: each pass folds the
    # low index bit into sums and differences and moves it to the top, so
    # after one pass per bit the indices are back in order.
    for _ in range(size.bit_length() - 1):
        even, odd = spectrum[0::2], spectrum[1::2]
        spectrum = list(map(add, even, odd)) + list(map(sub, even, odd))
    return spectrum


def _exact_move(width: int, src: int, dst: int) -> Masks:
    """Fully controlled gate swapping exactly columns ``src`` and ``dst``.

    The columns must differ in a single bit; every other line is matched by
    a control of the right polarity.
    """
    diff = src ^ dst
    if diff == 0 or diff & (diff - 1):
        raise InternalError(
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
    emitted = 0
    last: Optional[int] = None
    while True:
        entries, pos = engine.entries, engine.pos
        mism = _interrupting_pairs(pos)
        lam = 2 * sum(mism)
        if last is not None and abs(lam - target) >= abs(last - target):
            raise InternalError(
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
                raise InternalError(
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


def _composite(a: int) -> list[Masks]:
    """CX moves after which the last column bit reads the functional ``a``.

    A chain through ``a``'s lines other than line n (mask 1), in line
    order, into line n: CX(l1->l2), ..., CX(lk->n).  When ``a`` lacks line
    n, a CX(n->lk) just before the last move cancels line n's own bit.
    No shorter CX circuit puts ``a`` there, and none of the same length
    comes earlier in move order (control line, then target line).
    """
    chain = [1 << b for b in reversed(range(1, a.bit_length())) if a >> b & 1] + [1]
    moves: list[Masks] = [(c, 0, t) for c, t in zip(chain, chain[1:])]
    if not a & 1:
        moves.insert(-1, (1, 0, chain[-2]))
    return moves


def _sweep_rank(a: int) -> tuple[int, list[tuple[int, int]]]:
    """Where ``_composite(a)`` comes in a sweep of CX circuits by growing
    length, then in move order (control line, then target line)."""
    moves = _composite(a)
    return len(moves), [(-c, -t) for c, _, t in moves]


def _mix_engine(engine: _Engine) -> MixStats:
    """Drive the interrupting-row count to exactly half the rows.

    Among the functionals a with the smallest |W(a)|, emits the composite
    that comes first in a sweep of CX circuits by growing length, then in
    move order; a = 1 is the empty composite, so an input already on
    target gets no gate.  Every invertible linear map ends in some nonzero
    a, so repair toggles run only when no X/CX circuit of any length lands
    exactly.
    """
    target = engine.size // 2
    spectrum = _walsh_spectrum(engine.pos)
    closest = min(abs(w) for w in spectrum[1:])
    a = min((f for f in range(1, engine.size) if abs(spectrum[f]) == closest), key=_sweep_rank)
    moves = _composite(a)
    engine.emit(*moves)
    fixes = _fixups(engine, target) if spectrum[a] else 0
    lam = engine.size - 2 * sum(_pair_split(engine))
    if lam != target:
        raise InternalError(
            f"internal error: mixing left {lam} interrupting rows, not {target}"
        )
    return MixStats(len(moves), fixes, engine.size - 1)


# ---------------------------------------------------------------------------
# Preprocessing of half-interrupting states.


def _scan_member(engine: _Engine, i: int, col_parity: int, kind: int, taken: int) -> Optional[int]:
    """First unconsumed interrupting member at a column of ``col_parity``
    whose flip to the other column parity turns its pair to ``kind``: the
    region's columns from the left, then the rest from 2i (the region is
    every column >= its mask).  ``taken`` is the mask of the rows of the
    consumed pairs, which hold every column below 2i.

    Such a member's row parity is fixed: once flipped, (row ^ column) & 1
    must read ``kind``.  So the members are one lane of rows, at columns of
    ``col_parity`` with partners there too, and each scan is a bit-sliced
    minimum (``_Engine.lowest``)."""
    parity = engine.q[0]
    at = parity if col_parity else parity ^ engine.full
    lane = engine.even if col_parity ^ kind else engine.odd
    rows = lane & at & engine.partners(at)
    rows ^= rows & taken
    if not rows:
        return None
    inside = rows & engine.fire(_region_mask(engine.n, i), 0)
    return engine.lowest(inside or rows)


def _pre_pick_rows(
    engine: _Engine, i: int, deficits: list[int], taken: int
) -> tuple[int, int]:
    """Pseudo-block i's even-column and odd-column members.  Each steers its
    pair toward the larger of ``deficits`` (the outstanding normal and
    inverted conversions; normal on a tie) and decrements it in place.
    ``taken`` is the mask of the rows of the pairs already consumed.  An
    interrupting pair's members sit at columns of equal parity, so the two
    scans never meet the same pair."""
    if min(deficits) < 0:
        raise InternalError(
            f"internal error: negative conversion deficits {deficits[0]},"
            f"{deficits[1]} at pseudo-block {i}"
        )
    if sum(deficits) <= 0:
        raise InternalError(
            f"internal error: no pseudo-block conversions are outstanding at pseudo-block {i}"
        )
    chosen = []
    for parity in (0, 1):
        kind = NORMAL if deficits[NORMAL] >= deficits[INVERTED] else INVERTED
        row = _scan_member(engine, i, parity, kind, taken)
        if row is None:
            raise InternalError(
                "internal error: no unconsumed interrupting member at column "
                f"parity {parity} for pseudo-block {i}"
            )
        chosen.append(row)
        deficits[kind] -= 1
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
    deficits = [quarter - count for count in _pair_split(engine)]
    taken = 0  # the rows of the pairs with a member parked
    for i in range(engine.size // 8):
        a, b = _pre_pick_rows(engine, i, deficits, taken)
        taken |= 3 << (a & ~1) | 3 << (b & ~1)
        engine.allocate(i, a, b)
    engine.emit((0, 3 << (engine.n - 2), 1))  # C(!1,!2)X on line n
    normal, inverted = _pair_split(engine)
    interrupting = engine.size // 2 - normal - inverted
    if interrupting or normal != inverted:
        raise InternalError(
            f"internal error: preprocessing ended in a {2 * normal}:"
            f"{2 * inverted}:{2 * interrupting} split, not an exact balance"
        )
