"""Conditioning passes that prepare a permutation for reduction.

``mix`` drives the interrupting-row count to exactly half the rows by
searching short CX composites (a few arbitrary CX moves followed by one CX
targeting the last line).  When no composite within the configured depth and
budget lands exactly, the closest candidate is applied and the remainder is
repaired with fully controlled last-line toggles — each toggle moves the
count by 4 toward the target, inserting a status-neutral rearrangement walk
first whenever the two residents of every candidate slot belong to the same
pair.

``preprocess`` consumes a half-interrupting state: it builds pseudo-blocks
from one even-column and one odd-column interrupting member per iteration,
parks them in the first quarter of the columns, and finally flips the last
bit of that whole quarter with a single negatively controlled Toffoli.  The
flipped member of each chosen pair changes its match status, so picking the
mismatching or matching member steers the pair to normal or inverted — the
choice is made against the live deficit so the result is an exact balanced
split with zero interrupting rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .blocks import classify_positions
from .core import (
    Gate,
    GateSequence,
    Permutation,
    PreconditionViolated,
    cx,
    exchange_columns,
    mct,
)
from .reduction import PairNotFound, RelevantPair, _Engine, _region_mask


@dataclass(frozen=True)
class MixConfig:
    """Knobs for the mixing search."""

    max_depth: int = 4
    enumeration_budget: int = 2_000_000

    def __post_init__(self) -> None:
        if not 0 <= self.max_depth <= 4:
            raise ValueError(f"max_depth must be within 0..4, got {self.max_depth}")
        if self.enumeration_budget < 0:
            raise ValueError("enumeration_budget must be non-negative")


@dataclass(frozen=True)
class MixStats:
    """How the mixing target was reached."""

    depth: int  # composite length actually applied (0 when input was on target)
    fixup_gates: int  # fully controlled repair gates appended after the composite
    evaluations: int  # composites scored during enumeration
    exact: bool  # True when a composite alone landed on target


@dataclass(frozen=True)
class PseudoPair(RelevantPair):
    """Two interrupting-pair members chosen for one pseudo-block.

    ``a`` sits at an even column, ``b`` at an odd one, so they conjoin like a
    relevant pair even though they come from two different pairs.
    """


def prefix_moves(width: int) -> tuple[Gate, ...]:
    """Every CX move usable inside a composite, in canonical order.

    Ordered by (control line, polarity — positive first, target line);
    2·n·(n-1) gates.
    """
    out = []
    for control in range(1, width + 1):
        for positive in (True, False):
            for target in range(1, width + 1):
                if target == control:
                    continue
                out.append(cx(width, control, target, positive=positive))
    return tuple(out)


def closing_moves(width: int) -> tuple[Gate, ...]:
    """The composite's mandatory last move: a CX targeting the last line.

    Ordered by (control line, polarity); 2·(n-1) gates.
    """
    out = []
    for control in range(1, width):
        for positive in (True, False):
            out.append(cx(width, control, width, positive=positive))
    return tuple(out)


def _interrupting_pairs(entries: list[int]) -> bytearray:
    """Byte p is 1 when pair p has exactly one member at a mismatching column."""
    mism = bytearray(len(entries) // 2)
    for col, row in enumerate(entries):
        if (row ^ col) & 1:
            mism[row >> 1] ^= 1
    return mism


def _interrupting_rows(entries: list[int]) -> int:
    return 2 * sum(_interrupting_pairs(entries))


def _closing_deltas(pos: list[int], width: int) -> tuple[int, list[int]]:
    """The interrupting-row count, and its change for each closing-move control.

    A pair is interrupting exactly when its members sit at columns of equal
    parity.  A last-line CX swaps the residents of every slot whose block
    index matches the control; a pair changes interrupting status exactly
    when one member's slot toggles and the other's does not, i.e. when their
    slot indices differ at the control's bit — which makes the delta
    independent of control polarity.
    """
    count = 0
    deltas = [0] * width  # index by control line, entries 1..width-1 used
    for a in range(0, len(pos), 2):
        ca, cb = pos[a], pos[a + 1]
        is_int = ((ca ^ cb) & 1) == 0
        if is_int:
            count += 2
        diff = (ca ^ cb) >> 1
        if not diff:
            continue
        w = -2 if is_int else 2
        for line in range(1, width):
            if (diff >> (width - 1 - line)) & 1:
                deltas[line] += w
    return count, deltas


class _MixSearch:
    def __init__(self, engine: _Engine, cfg: MixConfig):
        self.e = engine
        self.cfg = cfg
        self.target = engine.size // 2
        self.prefixes = prefix_moves(engine.n)
        self.prefix_masks = [g.masks() for g in self.prefixes]
        self.finals = closing_moves(engine.n)
        self.evaluated = 0
        self.found: Optional[list[Gate]] = None
        self.best: Optional[tuple[int, int, list[Gate]]] = None  # dist, order, gates
        self.order = 0

    def _leaf(self, prefix: list[Gate]) -> bool:
        cur, deltas = _closing_deltas(self.e.pos, self.e.n)
        for g in self.finals:
            if self.evaluated >= self.cfg.enumeration_budget:
                return True
            self.evaluated += 1
            self.order += 1
            control_line = g.controls[0][0]
            dist = abs(cur + deltas[control_line] - self.target)
            if dist == 0:
                self.found = prefix + [g]
                return True
            if self.best is None or dist < self.best[0]:
                self.best = (dist, self.order, prefix + [g])
        return False

    def _walk(self, depth_left: int, prefix: list[Gate]) -> bool:
        if depth_left == 0:
            return self._leaf(prefix)
        if self.evaluated >= self.cfg.enumeration_budget:
            return True
        # Apply on the scratch state without recording (engine.emit would
        # record), then undo: every gate is an involution.
        entries, pos = self.e.entries, self.e.pos
        for g, (ones, zeros, tmask) in zip(self.prefixes, self.prefix_masks):
            exchange_columns(entries, ones, zeros, tmask, pos)
            prefix.append(g)
            stop = self._walk(depth_left - 1, prefix)
            prefix.pop()
            exchange_columns(entries, ones, zeros, tmask, pos)
            if stop:
                return True
        return False

    def run(self) -> None:
        for t in range(1, self.cfg.max_depth + 1):
            if self._walk(t - 1, []) and self.found is not None:
                return
            if self.evaluated >= self.cfg.enumeration_budget:
                return


def _slot_toggle(width: int, slot: int) -> Gate:
    controls = [
        (line, bool((slot >> (width - 1 - line)) & 1)) for line in range(1, width)
    ]
    return mct(width, controls, width)


def _exact_move(width: int, src: int, dst: int) -> Gate:
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
    line = width + 1 - diff.bit_length()
    controls = [
        (j, bool((src >> (width - j)) & 1)) for j in range(1, width + 1) if j != line
    ]
    return mct(width, controls, line)


def _fixups(engine: _Engine, target: int) -> int:
    """Append last-line slot toggles until the interrupting count hits target.

    Returns the number of gates emitted.  Each toggle changes the count by
    ±4; when raising the count and every slot holding two non-interrupting
    members is a co-located pair (a block), a status-neutral walk first
    moves a member of another non-interrupting pair into such a slot.
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
                diff = cur ^ dst
                line = next(j for j in range(1, n + 1) if (diff >> (n - j)) & 1)
                step = cur ^ (1 << (n - line))
                g = _exact_move(n, cur, step)
                engine.emit(g)
                emitted += 1
                cur = step
            slot_found = dst >> 1
        engine.emit(_slot_toggle(n, slot_found))
        emitted += 1
        last = lam


def _mix_engine(engine: _Engine, cfg: MixConfig) -> MixStats:
    target = engine.size // 2
    if _interrupting_rows(engine.entries) == target:
        return MixStats(0, 0, 0, True)
    search = _MixSearch(engine, cfg)
    search.run()
    if search.found is not None:
        for g in search.found:
            engine.emit(g)
        return MixStats(len(search.found), 0, search.evaluated, True)
    applied = 0
    if search.best is not None:
        for g in search.best[2]:
            engine.emit(g)
        applied = len(search.best[2])
    fixes = _fixups(engine, target)
    return MixStats(applied, fixes, search.evaluated, False)


def mix(
    perm: Permutation, cfg: Optional[MixConfig] = None
) -> tuple[Permutation, GateSequence]:
    """Drive the interrupting-row count to exactly half the rows.

    Returns the mixed permutation and the gates that were applied.  The
    sequence is a pure CX composite whenever one within ``cfg.max_depth``
    and ``cfg.enumeration_budget`` exists; otherwise the closest candidate
    plus fully controlled repair toggles.
    """
    cfg = cfg or MixConfig()
    engine = _Engine(perm)
    _mix_engine(engine, cfg)
    result = engine.snapshot()
    lam = _interrupting_rows(engine.entries)
    if lam != perm.size // 2:
        raise RuntimeError(
            f"internal error: mixing left {lam} interrupting rows, not "
            f"{perm.size // 2}"
        )
    return result, engine.sequence()


# ---------------------------------------------------------------------------
# Preprocessing of half-interrupting states.


def _deficits(engine: _Engine, i: int) -> tuple[int, int]:
    """Outstanding normal/inverted pair conversions, read off the state.

    Pending conversions are visible as residents already parked at columns
    below 2i: a mismatching resident will match once the quarter flip moves
    it to the opposite column parity, turning its pair normal; a matching
    resident turns its pair inverted.
    """
    entries, pos, size = engine.entries, engine.pos, engine.size
    normal_pairs = inverted_pairs = 0
    for p in range(size // 2):
        ma = ((2 * p) ^ pos[2 * p]) & 1 == 0
        mb = ((2 * p + 1) ^ pos[2 * p + 1]) & 1 == 0
        if ma and mb:
            normal_pairs += 1
        elif not ma and not mb:
            inverted_pairs += 1
    pend_n = pend_i = 0
    for col in range(2 * i):
        if (entries[col] ^ col) & 1:
            pend_n += 1
        else:
            pend_i += 1
    t = size // 4
    return t - normal_pairs - pend_n, t - inverted_pairs - pend_i


def _scan_member(
    engine: _Engine,
    i: int,
    col_parity: int,
    want_normal: bool,
    exclude_pair: int,
) -> Optional[int]:
    entries, pos, size = engine.entries, engine.pos, engine.size
    mask = _region_mask(engine.n, i)
    region = [c for c in range(mask, size) if (c & mask) == mask]
    rest = [c for c in range(2 * i, size) if (c & mask) != mask]
    for col in region + rest:
        if col & 1 != col_parity:
            continue
        r = entries[col]
        if r >> 1 == exclude_pair:
            continue
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


def _pre_pick_rows(engine: _Engine, i: int) -> tuple[int, int]:
    d_n, d_i = _deficits(engine, i)
    if d_n < 0 or d_i < 0:
        raise RuntimeError(
            f"internal error: negative conversion deficits {d_n},{d_i} at "
            f"pseudo-block {i}"
        )
    if d_n + d_i <= 0:
        raise PairNotFound("no pseudo-block conversions are outstanding")
    chosen = []
    exclude = -1
    for parity in (0, 1):
        want_normal = d_n >= d_i
        row = _scan_member(engine, i, parity, want_normal, exclude)
        if row is None:
            raise PairNotFound(
                f"no unconsumed interrupting member at column parity {parity}"
            )
        chosen.append(row)
        exclude = row >> 1
        if want_normal:
            d_n -= 1
        else:
            d_i -= 1
    return chosen[0], chosen[1]


def pre_pick(perm: Permutation, i: int) -> PseudoPair:
    """Choose the two interrupting-pair members for pseudo-block i.

    ``a`` comes from a pair whose members sit at even columns, ``b`` from an
    odd-column pair; the member to be flipped by the final quarter flip is
    selected so the pair converts toward whichever of normal/inverted is
    scarcer in the eventual balanced split.  Requires the preprocessing
    precondition: exactly half the rows at interrupting positions.
    """
    if perm.width < 3:
        raise PreconditionViolated("pseudo-block picking needs width >= 3")
    interrupting = classify_positions(perm).interrupting
    if interrupting != perm.size // 2:
        raise PreconditionViolated(
            f"need exactly {perm.size // 2} interrupting rows, got {interrupting}"
        )
    engine = _Engine(perm)
    a, b = _pre_pick_rows(engine, i)
    return PseudoPair(a, b)


def _run_preprocess(engine: _Engine) -> None:
    """Preprocessing phases on a live engine (caller checks preconditions)."""
    for i in range(engine.size // 8):
        a, b = _pre_pick_rows(engine, i)
        engine.allocate(i, a, b)
    engine.emit(mct(engine.n, [(1, False), (2, False)], engine.n))


def preprocess(perm: Permutation) -> tuple[Permutation, GateSequence]:
    """Turn a half-interrupting state into an exact balanced split.

    Per iteration one even-column and one odd-column interrupting member are
    conjoined and parked in the first quarter of the columns; a single
    negatively controlled Toffoli (controls on lines 1 and 2, target the
    last line) then flips the parked members' column parity, leaving half
    the rows normal, half inverted, none interrupting.  That Toffoli is the
    only emitted gate targeting the last line.
    """
    if perm.width < 3:
        raise PreconditionViolated("preprocessing needs width >= 3")
    counts = classify_positions(perm)
    if counts.interrupting != perm.size // 2:
        raise PreconditionViolated(
            f"need exactly {perm.size // 2} interrupting rows, got "
            f"{counts.interrupting}"
        )
    engine = _Engine(perm)
    _run_preprocess(engine)
    result = engine.snapshot()
    after = classify_positions(result)
    if after.interrupting != 0 or after.normal != after.inverted:
        raise RuntimeError(
            f"internal error: preprocessing ended in a {after.normal}:"
            f"{after.inverted}:{after.interrupting} split, not an exact balance"
        )
    return result, engine.sequence()
